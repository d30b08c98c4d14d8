import itertools
import math
import random
import struct

import pytest

from construct import mexpr
from construct.check import (
    CausalizeError, DuplicateBinding, IllTypedModel, InexpressibleRead,
    InvalidStateVariable, NotIsolatable, StructurallySingular, UnbalancedSystem,
    UnusedInput, infer_symbol_types,
)
from construct.container import MalformedTrace, Trace, VariableDescriptor, VariableTable
from construct.model import BoundModel, apply_assignment
from construct.sim import (
    GRID_RTOL, INVALID, DivisionByZero, Fitness, KernelCache, MissingInput, NonUniformGrid,
    causalize, grid_step,
)
from construct.ga import GaProblem, generate_individual
from construct.sim import NonFiniteValue, SimPlan
from construct.translate import EquationModel, SymbolSlot
from interp import named, score, simulate, tree_walk


def table(*rows):
    return VariableTable(tuple(VariableDescriptor(*r) for r in rows))


def bound(equations, vars, states=(), bindings=None):
    names = []
    for lhs, rhs in equations:
        for ref in mexpr.refs(lhs) + mexpr.refs(rhs):
            if ref not in names:
                names.append(ref)
    return BoundModel(tuple(equations), vars, frozenset(states),
                      tuple(bindings if bindings is not None else names))


V_UYK = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
              ("k", 3, "Real", "parameter", 2.0))


def test_causalize_direct_assignment():
    b = bound([(mexpr.Sym("y"), mexpr.Binary("mul", mexpr.Sym("k"), mexpr.Sym("u")))],
              V_UYK)
    plan = causalize(b)
    assert plan.algebraic_order[0][1] == "y"
    assert plan.param_env["k"] == 2.0
    assert plan.input_names == {"u"}


def test_causalize_algebraic_loop():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("z", 3, "Real", "local", None))
    eqs = [
        (mexpr.Sym("y"), mexpr.Binary("add", mexpr.Sym("z"), mexpr.Sym("u"))),
        (mexpr.Sym("z"), mexpr.Binary("sub", mexpr.Sym("y"), mexpr.Sym("u"))),
    ]
    # a loop holds a read of a slot stored later in the same step
    with pytest.raises(InexpressibleRead,
                       match="^equation 0 reads z before equation 1 stores it$"):
        causalize(bound(eqs, vars))


def test_causalize_unbalanced():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("z", 3, "Real", "local", None))
    eqs = [(mexpr.Sym("y"), mexpr.Binary("add", mexpr.Sym("u"), mexpr.Sym("z")))]
    with pytest.raises(UnbalancedSystem):
        causalize(bound(eqs, vars))


def test_causalize_structurally_singular():
    # output w never occurs: no equation can determine it
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("w", 3, "Real", "output", None),
                 ("k", 4, "Real", "parameter", 1.0))
    eqs = [(mexpr.Sym("y"), mexpr.Sym("u")),
           (mexpr.Sym("k"), mexpr.Sym("u"))]
    with pytest.raises((StructurallySingular, UnbalancedSystem)):
        causalize(bound(eqs, vars))


def test_causalize_not_isolatable():
    # an equation is solved for the variable it assigns; 0 = u - 2*y
    # assigns none
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    eqs = [(mexpr.Const(0.0),
            mexpr.Binary("sub", mexpr.Sym("u"),
                         mexpr.Binary("mul", mexpr.Const(2.0), mexpr.Sym("y"))))]
    with pytest.raises(NotIsolatable, match="equation 0"):
        causalize(bound(eqs, vars))


def test_causalize_reads_a_state_after_its_update():
    # x = x + h*u; y = x + 1: the C reads the new x, the model the old one
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("x", 3, "Real", "local", 0.0))
    eqs = [(mexpr.Der("x"), mexpr.Sym("u")),
           (mexpr.Sym("y"), mexpr.Binary("add", mexpr.Sym("x"), mexpr.Const(1.0)))]
    with pytest.raises(InexpressibleRead,
                       match="^equation 1 reads x after equation 0 updated it$"):
        causalize(bound(eqs, vars, states=("x",)))
    # read before the update, x is the value the model reads too
    plan = causalize(bound(eqs[::-1], vars, states=("x",)))
    assert [ref for _, ref, _ in plan.algebraic_order] == ["y"]


def test_causalize_solves_each_equation_for_what_it_writes():
    # k = min(y, u) writes the parameter k: y is read, never solved for
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("k", 3, "Real", "parameter", 2.0))
    eqs = [(mexpr.Sym("k"), mexpr.Call("min", (mexpr.Sym("y"), mexpr.Sym("u"))))]
    with pytest.raises(StructurallySingular, match="^slot 0 is written, 'k' is parameter$"):
        causalize(bound(eqs, vars))


def test_causalize_multiple_occurrence():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    # y = y + u: the C reads the previous step's y, which the model cannot
    eqs = [(mexpr.Sym("y"), mexpr.Binary("add", mexpr.Sym("y"), mexpr.Sym("u")))]
    with pytest.raises(InexpressibleRead,
                       match="^equation 0 reads y before equation 0 stores it$"):
        causalize(bound(eqs, vars))


@pytest.mark.parametrize("eqs, written", [
    ([(mexpr.Sym("y"), mexpr.Sym("u")), (mexpr.Sym("y"), mexpr.Const(1.0))], "y"),
    ([(mexpr.Der("x"), mexpr.Sym("u")), (mexpr.Sym("x"), mexpr.Sym("u")),
      (mexpr.Sym("y"), mexpr.Sym("x"))], "x"),
])
def test_causalize_a_variable_written_twice(eqs, written):
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("x", 3, "Real", "local", 0.0))
    with pytest.raises(StructurallySingular, match=f"equations 0 and 1 both write {written}$"):
        causalize(bound(eqs, vars, states=("x",) if written == "x" else ()))


def test_duplicate_binding_rejected():
    b = bound([(mexpr.Sym("y"), mexpr.Binary("mul", mexpr.Sym("k"), mexpr.Sym("u")))],
              V_UYK, bindings=("y", "y", "u"))
    with pytest.raises(DuplicateBinding):
        causalize(b)


def test_unused_input_rejected():
    vars = table(("u", 1, "Real", "input", None), ("v", 2, "Real", "input", None),
                 ("y", 3, "Real", "output", None))
    eqs = [(mexpr.Sym("y"), mexpr.Sym("u"))]
    with pytest.raises(UnusedInput):
        causalize(bound(eqs, vars))


def test_der_of_input_rejected():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    eqs = [(mexpr.Sym("y"), mexpr.Sym("u")),
           (mexpr.Der("u"), mexpr.Const(1.0))]
    with pytest.raises(InvalidStateVariable):
        causalize(bound(eqs, vars))


def test_boolean_in_arithmetic_rejected():
    vars = table(("b", 1, "Boolean", "input", None), ("y", 2, "Real", "output", None))
    eqs = [(mexpr.Sym("y"), mexpr.Binary("mul", mexpr.Sym("b"), mexpr.Const(2.0)))]
    with pytest.raises(IllTypedModel):
        causalize(bound(eqs, vars))


def test_real_condition_rejected():
    vars = table(("r", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    eqs = [(mexpr.Sym("y"), mexpr.If(mexpr.Sym("r"), mexpr.Const(1.0),
                                     mexpr.Const(0.0)))]
    with pytest.raises(IllTypedModel):
        causalize(bound(eqs, vars))


def test_ordering_comparison_of_booleans_rejected():
    vars = table(("a", 1, "Boolean", "input", None), ("b", 2, "Boolean", "input", None),
                 ("y", 3, "Real", "output", None))
    eqs = [(mexpr.Sym("y"), mexpr.If(mexpr.Binary("lt", mexpr.Sym("a"), mexpr.Sym("b")),
                                     mexpr.Const(1.0), mexpr.Const(0.0)))]
    with pytest.raises(IllTypedModel):
        causalize(bound(eqs, vars))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _const_trace(names, times, value=1.0):
    return Trace(tuple(times), {n: tuple(value for _ in times) for n in names})


def test_simulate_forward_euler():
    vars = table(("u", 1, "Real", "input", None), ("x", 2, "Real", "local", 0.0),
                 ("y", 3, "Real", "output", None))
    eqs = [(mexpr.Sym("y"), mexpr.Sym("x")), (mexpr.Der("x"), mexpr.Sym("u"))]
    plan = causalize(bound(eqs, vars, states=("x",)))
    out = simulate(plan, _const_trace(["u"], [0.0, 0.1, 0.2]), ["y"])
    assert out.columns["y"] == (0.0, pytest.approx(0.1), pytest.approx(0.2))
    assert out.times == (0.0, 0.1, 0.2)


def test_simulate_division_by_zero():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    eqs = [(mexpr.Sym("y"),
            mexpr.Binary("div", mexpr.Sym("u"),
                         mexpr.Binary("sub", mexpr.Sym("u"), mexpr.Const(1.0))))]
    plan = causalize(bound(eqs, vars))
    with pytest.raises(DivisionByZero):
        simulate(plan, _const_trace(["u"], [0.0, 0.1]), ["y"])


def test_simulate_missing_input():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    plan = causalize(bound([(mexpr.Sym("y"), mexpr.Sym("u"))], vars))
    with pytest.raises(MissingInput):
        simulate(plan, _const_trace(["v"], [0.0, 0.1]), ["y"])


@pytest.mark.parametrize("column", [(1.0,), (1.0, 5.0, 7.0, 9.0)])
def test_simulate_rejects_an_input_column_that_is_not_one_value_per_time(column):
    # zipped with the times, a 1-value column gave a 1-sample y, and an MSE
    # of 0.0 against a reference y that is 1.0 only at the first time
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    plan = causalize(bound([(mexpr.Sym("y"), mexpr.Sym("u"))], vars))
    inputs = Trace((0.0, 0.1, 0.2), {"u": column})
    message = rf"malformed trace: input column 'u' has {len(column)} values for 3 times$"
    with pytest.raises(MalformedTrace, match=message):
        simulate(plan, inputs, ["y"])
    with pytest.raises(MalformedTrace, match=message):
        score(plan, inputs, Trace((0.0, 0.1, 0.2), {"y": (1.0, 5.0, 7.0)}), ("y",))
    full = Trace(inputs.times, {"u": (1.0, 5.0, 7.0)})
    with pytest.raises(ValueError, match=rf"reference column 'y' has {len(column)} values "
                                         rf"for 3 times$"):
        score(plan, full, Trace(inputs.times, {"y": column}), ("y",))


def test_simulate_non_uniform_grid():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    plan = causalize(bound([(mexpr.Sym("y"), mexpr.Sym("u"))], vars))
    with pytest.raises(NonUniformGrid):
        simulate(plan, _const_trace(["u"], [0.0, 0.1, 0.3]), ["y"])


@pytest.mark.parametrize("n", [0, 1])
def test_grid_of_fewer_than_two_times_is_rejected(n):
    from construct.ga import GaConfig, run_ga

    message = rf"^a time grid needs at least 2 times, got {n}$"
    with pytest.raises(NonUniformGrid, match=message):
        grid_step((0.0,) * n)
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    plan = causalize(bound([(mexpr.Sym("y"), mexpr.Sym("u"))], vars))
    short = _const_trace(["u"], [0.0] * n)
    with pytest.raises(NonUniformGrid, match=message):
        simulate(plan, short, ["y"])
    assert score(plan, short, _const_trace(["y"], [0.0] * n), ("y",)) == INVALID
    problem = _shape_problem()
    problem = GaProblem(problem.model, problem.vars, _const_trace(["u"], [0.0] * n),
                        _const_trace(["y"], [0.0] * n))
    with pytest.raises(NonUniformGrid, match=message):
        run_ga("cbc", problem, GaConfig(population_size=4, max_generations=1, rng_seed=0))


def test_grid_step_names_the_first_non_uniform_sample_a_plain_loop_names():
    rng = random.Random(15)
    for _ in range(300):
        h = rng.choice([0.01, 1e-7, 3.0, -0.5])
        times = [k * h for k in range(rng.randint(2, 40))]
        for _ in range(rng.randint(0, 3)):
            k = rng.randrange(len(times))
            times[k] += rng.choice([h * 1e-12, h * 1e-8, h, -h, math.nan, math.inf])
        expected = None  # the grid check as one comparison per sample
        for a, t in zip(times, times[1:]):
            if abs((t - a) - (times[1] - times[0])) > GRID_RTOL * abs(times[1] - times[0]):
                expected = f"non-uniform sample spacing near t={t}"
                break
        if expected is None:
            assert repr(grid_step(times)) == repr(times[1] - times[0])
        else:
            with pytest.raises(NonUniformGrid) as exc:
                grid_step(times)
            assert str(exc.value) == expected


def test_simulate_zero_order_hold_reads_per_sample():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    plan = causalize(bound(
        [(mexpr.Sym("y"), mexpr.Binary("mul", mexpr.Sym("u"), mexpr.Const(2.0)))],
        vars))
    tr = Trace((0.0, 0.1, 0.2), {"u": (1.0, 2.0, 3.0)})
    out = simulate(plan, tr, ["y"])
    assert out.columns["y"] == (2.0, 4.0, 6.0)


# ---------------------------------------------------------------------------
# fitness
# ---------------------------------------------------------------------------

def test_fitness_ground_truth_is_zero(all_cases):
    for case in all_cases.values():
        fit = case["problem"].fitness_of(case["ground_truth"])
        assert fit.is_finite and fit.mse < 1e-18


def test_fitness_is_the_tree_walk_mse_bit_for_bit(all_cases):
    # the ground truth and the best genome of one CbC run per container:
    # math.fsum of the squared output errors of the tree walk, over their count
    from construct.ga import GaConfig, problem_from_container, run_ga

    for name, case in all_cases.items():
        problem = problem_from_container(case["container"])
        cfg = GaConfig(population_size=50, max_generations=10, rng_seed=0)
        best = run_ga("cbc", problem, cfg).best[0].genes
        outputs = problem.classification.outputs
        reference = problem.reference_trace.columns
        for genes in (case["ground_truth"], best):
            walked = tree_walk(named(causalize(problem.bind(genes))),
                               problem.input_trace, outputs).columns
            squares = [(y - r) * (y - r) for n in outputs
                       for y, r in zip(walked[n], reference[n])]
            expected = math.fsum(squares) / len(squares)
            assert struct.pack("<d", problem.fitness_of(genes).mse) \
                == struct.pack("<d", expected), (name, genes)


def test_fitness_simple_mse():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    b = bound([(mexpr.Sym("y"),
                mexpr.Binary("add", mexpr.Sym("u"), mexpr.Const(0.0)))], vars)
    inputs = Trace((0.0, 0.1), {"u": (1.0, 3.0)})
    reference = Trace((0.0, 0.1), {"y": (1.0, 2.0)})
    # model yields [1, 3] vs reference [1, 2]: MSE = (0 + 1)/2
    assert score(causalize(b), inputs, reference, ("y",)) == Fitness.finite(0.5)


def test_fitness_invalid_on_type_violation():
    vars = table(("b", 1, "Boolean", "input", None), ("y", 2, "Real", "output", None))
    b = bound([(mexpr.Sym("y"), mexpr.Binary("mul", mexpr.Sym("b"), mexpr.Const(1.0)))],
              vars)
    inputs = Trace((0.0, 0.1), {"b": (1.0, 1.0)})
    reference = Trace((0.0, 0.1), {"y": (1.0, 1.0)})
    with pytest.raises(IllTypedModel):
        causalize(b)
    assert score(None, inputs, reference, ("y",)) == INVALID


def test_fitness_requires_reference_columns():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    b = bound([(mexpr.Sym("y"), mexpr.Sym("u"))], vars)
    inputs = Trace((0.0, 0.1), {"u": (1.0, 1.0)})
    with pytest.raises(ValueError):
        score(causalize(b), inputs, Trace((0.0, 0.1), {"z": (1.0, 1.0)}), ("y",))


def test_fitness_of_no_output_is_a_value_error():
    # the mean over no squares was a ZeroDivisionError
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    plan = causalize(bound([(mexpr.Sym("y"), mexpr.Sym("u"))], vars))
    inputs = Trace((0.0, 0.1), {"u": (1.0, 1.0)})
    for kernels in (None, KernelCache()):
        with pytest.raises(ValueError, match="^no output to score$"):
            score(plan, inputs, Trace(inputs.times, {"y": (1.0, 1.0)}), (), kernels)


def test_fitness_ordering_total():
    rng = random.Random(5)
    values = [Fitness.finite(rng.random() * 10) for _ in range(50)] + [INVALID] * 5
    ordered = sorted(values)
    for a, b in zip(ordered, ordered[1:]):
        assert a <= b
    assert all(f <= INVALID for f in values)
    assert Fitness.finite(1.0) < Fitness.finite(2.0)
    assert Fitness.finite(1e12) < INVALID
    assert not INVALID < INVALID


def test_fitness_rejects_non_finite():
    with pytest.raises(ValueError):
        Fitness.finite(float("nan"))
    with pytest.raises(ValueError):
        Fitness.finite(-1.0)


# ---------------------------------------------------------------------------
# Properties tying the simulator to the validator
# ---------------------------------------------------------------------------

def test_invalid_chromosomes_get_invalid_fitness(all_cases):
    rng = random.Random(31337)
    for case in all_cases.values():
        problem = case["problem"]
        checked = 0
        for _ in range(300):
            genes = tuple(rng.randrange(problem.num_variables)
                          for _ in range(problem.num_slots))
            if problem.validate(genes).valid:
                continue
            checked += 1
            assert problem.fitness_of(genes) == INVALID
        assert checked > 250  # random draws are almost never valid


def test_euler_order_convergence():
    # der(x) = -x, x0 = 1: halving h halves the global error at t = 1
    vars = table(("x", 1, "Real", "output", 1.0),)
    eqs = [(mexpr.Der("x"), mexpr.Unary("neg", mexpr.Sym("x")))]
    b = bound(eqs, vars, states=("x",), bindings=("x",))
    plan = causalize(b)

    def error_at_one(h):
        n = round(1.0 / h)
        times = tuple(k * h for k in range(n + 1))
        out = simulate(plan, Trace(times, {}), ["x"])
        return abs(out.columns["x"][-1] - math.exp(-1.0))

    e1, e2, e3 = error_at_one(0.01), error_at_one(0.005), error_at_one(0.0025)
    assert abs(e2 / e1 - 0.5) < 0.1
    assert abs(e3 / e2 - 0.5) < 0.1


# ---------------------------------------------------------------------------
# The slot-level structure against the name-level analysis
# ---------------------------------------------------------------------------

def _genome_families(problem, rng, n):
    """Random injective genomes, CbC individuals with their swap and
    replace neighbours, and one-point children that may repeat genes."""
    s, v = problem.num_slots, problem.num_variables
    genomes = [tuple(rng.sample(range(v), s)) for _ in range(n)]
    for _ in range(n // 10):
        genes = generate_individual("cbc", problem, rng).genes
        genomes.append(genes)
        for _ in range(5):
            i, j = rng.sample(range(s), 2)
            swapped = list(genes)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            replaced = list(genes)
            replaced[i] = rng.choice(problem.compat[i])
            genomes += [tuple(swapped), tuple(replaced)]
    for _ in range(n):
        a, b = rng.sample(genomes, 2)
        k = rng.randrange(s)
        genomes.append(a[:k] + b[k:])
    return genomes


def _outcome(b):
    try:
        return named(causalize(b))
    except CausalizeError as exc:
        return type(exc)


def test_slot_level_causalize_matches_name_level(all_cases):
    for name, case in all_cases.items():
        problem = case["problem"]
        outcomes = set()
        for genes in _genome_families(problem, random.Random(name), 300):
            assert problem.bind(genes).structure is problem.structure
            slot_level = _outcome(problem.bind(genes))
            by_name = apply_assignment(problem.model, genes, problem.vars)
            assert by_name.structure is None
            assert slot_level == _outcome(by_name), (name, genes)
            outcomes.add(slot_level if isinstance(slot_level, type) else SimPlan)
        assert {SimPlan, DuplicateBinding, UnusedInput} <= outcomes, name
        assert len(outcomes) >= 6, (name, outcomes)


def _boolean_ordering_problem():
    """y = if s1 < s2 then 1.0 else 0.0, where s1 and s2 are untyped: their
    variables must share a type, and not Boolean, which is unordered."""
    s = mexpr.Sym
    model = infer_symbol_types(EquationModel(
        ((s(0), mexpr.If(mexpr.Binary("lt", s(1), s(2)), mexpr.Const(1.0),
                         mexpr.Const(0.0))),),
        tuple(SymbolSlot(i, f"s{i}", "Unknown") for i in range(3))))
    assert [slot.inferred_type for slot in model.slots] == ["Real", "Unknown", "Unknown"]
    vars = table(("y", 1, "Real", "output", None),
                 ("a", 2, "Boolean", "parameter", True), ("b", 3, "Boolean", "parameter", False),
                 ("i", 4, "Integer", "parameter", 1), ("j", 5, "Integer", "parameter", 2),
                 ("r", 6, "Real", "parameter", 0.5))
    return GaProblem(model, vars, None, None)


def _fresh(problem):
    """The problem again, with no genome checked yet."""
    return GaProblem(problem.model, problem.vars, None, None)


def test_validate_agrees_with_constructible(all_cases, tiny_case):
    # constructible and fits each check every distinct genome on a problem
    # of its own, so that no verdict of the other, or of the operators
    # that drew the genomes, answers from the memo
    cases = dict(all_cases, tiny=tiny_case)
    for name, case in cases.items():
        problem = case["problem"]
        by_causalize, by_genes = _fresh(problem), _fresh(problem)
        genomes = _genome_families(problem, random.Random(name + "/c"), 300)
        verdicts = {}
        for genes in genomes:
            if genes not in verdicts:
                verdicts[genes] = problem.validate(genes).valid
                assert verdicts[genes] == by_causalize.constructible(genes) \
                    == by_genes.fits(genes), (name, genes)
        assert sum(map(verdicts.get, genomes)) > 10, name
    problem = _boolean_ordering_problem()
    by_causalize, by_genes = _fresh(problem), _fresh(problem)
    verdicts = {}
    for genes in itertools.product(range(problem.num_variables), repeat=3):
        verdicts[genes] = problem.validate(genes).valid
        assert verdicts[genes] == by_causalize.constructible(genes) == by_genes.fits(genes), \
            genes
    assert {g for g, valid in verdicts.items() if valid} == {(0, 3, 4), (0, 4, 3)}
    report = problem.validate((0, 1, 2))  # two Booleans under "<"
    assert report.violations == (
        ("C1", "['a', 'b'] typed ['Boolean'] under an ordering comparison"),)
    with pytest.raises(IllTypedModel, match=r"^\['i', 'r'\] typed \['Integer', 'Real'\]"):
        causalize(problem.bind((0, 3, 5)))


_FAULTS_OF_A_NAME_LEVEL_MODEL = """
import json, sys
from construct import check, ga, sim
from construct.container import load_container
from construct.model import apply_assignment
root = sys.argv[1]
problem = ga.problem_from_container(load_container(root))
genes = json.load(open(root + "/ground_truth.json"))["genes"][::-1]
bound = apply_assignment(problem.model, genes, problem.vars)
faults = check.binding_faults(check.analyse(bound.equations), bound.variable_table,
                              bound.bindings)
print([(cid, type(fault).__name__, str(fault)) for cid, fault in faults])
try:
    sim.causalize(bound)
except check.CausalizeError as exc:
    print(type(exc).__name__, exc)
"""


def test_first_fault_of_a_name_level_model_does_not_depend_on_the_hash_seed(pi_case):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import construct

    src = str(Path(construct.__file__).resolve().parents[1])
    outputs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _FAULTS_OF_A_NAME_LEVEL_MODEL, str(pi_case["root"])],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        outputs.add(out.stdout)
    assert len(outputs) == 1
    faults, first = outputs.pop().splitlines()
    assert faults.count("C5") == 4, "pi's reversed ground truth breaks C5 on four slots"
    assert first == "UnbalancedSystem slot 1 is only read, 'drift_comp' is local"


def test_fitness_invalid_when_the_mse_overflows():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    b = bound([(mexpr.Sym("y"), mexpr.Sym("u"))], vars)
    reference = Trace((0.0, 0.1), {"y": (0.0, 0.0)})
    # every output sample is finite; the squares are not, or their sum is not
    for samples in ((1e200, -1e200), (1e154, 1.3e154)):
        assert score(causalize(b), Trace((0.0, 0.1), {"u": samples}), reference,
                     ("y",)) == INVALID


# ---------------------------------------------------------------------------
# One kernel per slot-level shape
# ---------------------------------------------------------------------------

FIRST = (0, 2, 4, 1, 6)  # y = k_a * x_a, der(x_a) = (u - x_a) / d


def _shape_problem():
    """y = k * x and der(x) = (u - x) / d over slots 0-4. Genomes that bind
    the parameter slots and the state slot to other variables keep the
    shape of FIRST."""
    s = mexpr.Sym
    model = infer_symbol_types(EquationModel(
        ((s(0), mexpr.Binary("mul", s(1), s(2))),
         (mexpr.Der(2), mexpr.Binary("div", mexpr.Binary("sub", s(3), s(2)), s(4)))),
        tuple(SymbolSlot(i, f"s{i}", "Unknown", is_state=(i == 2)) for i in range(5))))
    vars = table(("y", 1, "Real", "output", None), ("u", 2, "Real", "input", None),
                 ("k_a", 3, "Real", "parameter", 2.0), ("k_b", 4, "Real", "parameter", 3.0),
                 ("x_a", 5, "Real", "local", 1.0), ("x_b", 6, "Real", "local", -2.0),
                 ("d", 7, "Real", "parameter", 0.5), ("zero", 8, "Real", "parameter", 0.0))
    trace = Trace((0.0, 0.1, 0.2, 0.3), {"u": (1.0, 0.5, -1.0, 2.0)})
    return GaProblem(model, vars, trace, trace)


def _bits(trace):
    return {name: tuple(struct.pack("<d", v) for v in values)
            for name, values in trace.columns.items()}


def test_cached_kernel_runs_a_second_genome_of_its_shape_bit_for_bit():
    problem = _shape_problem()
    first = causalize(problem.bind(FIRST))
    # other names, parameter value and state start at the same slots
    second = causalize(problem.bind((0, 3, 5, 1, 6)))
    outputs = ["x_b", "y"]
    before = simulate(first, problem.input_trace, ["x_a", "y"], problem.kernels)
    cached = simulate(second, problem.input_trace, outputs, problem.kernels)
    assert len(problem.kernels.kernels) == 1
    assert _bits(cached) == _bits(simulate(second, problem.input_trace, outputs))
    assert cached.columns["y"] != before.columns["y"]
    # one kernel per number of outputs; the output slots are data
    for name in outputs:
        alone = simulate(second, problem.input_trace, [name], problem.kernels)
        assert _bits(alone) == {name: _bits(cached)[name]}
    assert set(problem.kernels.kernels) == {(1, False), (2, False)}


@pytest.mark.parametrize("genes, u, error, label", [
    ((0, 3, 5, 1, 7), 1.0, DivisionByZero, "in der(x_b)"),
    ((0, 3, 5, 1, 6), math.inf, NonFiniteValue, "'x_b'"),
])
def test_cached_kernel_errors_name_the_genome_that_ran(genes, u, error, label):
    problem = _shape_problem()
    simulate(causalize(problem.bind(FIRST)), problem.input_trace, ["y"], problem.kernels)
    plan = causalize(problem.bind(genes))
    inputs = Trace(problem.input_trace.times, {"u": (u,) * 4})
    with pytest.raises(error) as cached:
        simulate(plan, inputs, ["y"], problem.kernels)
    with pytest.raises(error) as uncached:
        simulate(plan, inputs, ["y"])
    # the kernel ran first, and the tree walk named the fault; the fault
    # compiled nothing more
    assert set(problem.kernels.kernels) == {(1, False)}
    assert label in str(cached.value)
    assert str(cached.value) == str(uncached.value)


def test_a_faulting_genome_costs_one_simulate_call_and_no_second_kernel(monkeypatch):
    # the benchmark counts one sim.simulate call per fitness_of; the tree
    # walk that names a fault is no second call, and compiles nothing
    from construct import sim

    shape = _shape_problem()
    reference = Trace(shape.input_trace.times, {"y": (0.5, 1.0, 1.5, 2.0)})
    problem = GaProblem(shape.model, shape.vars, shape.input_trace, reference)
    calls = {"simulate": [], "_compile_kernel": [], "_tree_walk": []}

    def counting(name):
        fn = getattr(sim, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sim, name, counting(name))
    assert problem.fitness_of(FIRST).is_finite
    assert {name: len(log) for name, log in calls.items()} \
        == {"simulate": 1, "_compile_kernel": 1, "_tree_walk": 0}
    # d bound to zero: der(x_b) divides by zero at the first sample
    assert problem.fitness_of((0, 3, 5, 1, 7)) == INVALID
    assert {name: len(log) for name, log in calls.items()} \
        == {"simulate": 2, "_compile_kernel": 1, "_tree_walk": 1}
    assert len(problem.kernels.kernels) == 1


def _scaled_u(structure: str, k: float) -> SimPlan:
    """A name-level plan of y = k * u, or of der(x) = k * u with x
    recorded, with a Structure of its own."""
    rhs = mexpr.Binary("mul", mexpr.Const(k), mexpr.Sym("u"))
    if structure == "algebraic":
        return SimPlan((), ((0, "y", rhs),), {}, frozenset({"u"}))
    return SimPlan((("x", 0.0, rhs),), (), {}, frozenset({"u"}))


@pytest.mark.parametrize("structure, output", [("algebraic", "y"), ("states", "x")])
def test_kernel_cache_refuses_a_plan_of_another_structure(structure, output):
    # 2 * u and 3 * u compile to one source but for a constant's value; a
    # cache that served the second from the first's kernel would record
    # 2 * u for both
    kernels = KernelCache()
    first, second = _scaled_u(structure, 2.0), _scaled_u(structure, 3.0)
    inputs = _const_trace(["u"], [0.0, 0.1, 0.2])
    before = simulate(first, inputs, [output], kernels)
    with pytest.raises(ValueError, match="another structure"):
        simulate(second, inputs, [output], kernels)
    with pytest.raises(ValueError, match="another structure"):
        kernels.feed(second, inputs)
    assert simulate(first, inputs, [output], kernels) == before
    assert simulate(second, inputs, [output]) != before


def test_kernel_cache_checks_each_input_grid():
    problem = _shape_problem()
    plan = causalize(problem.bind(FIRST))
    simulate(plan, problem.input_trace, ["y"], problem.kernels)
    with pytest.raises(NonUniformGrid):
        simulate(plan, _const_trace(["u"], [0.0, 0.1, 0.3]), ["y"], problem.kernels)


def test_one_kernel_reads_a_slot_as_parameter_and_as_input_bit_for_bit():
    problem = _shape_problem()
    first = causalize(problem.bind(FIRST))  # k_a at slot 1, u at slot 3
    swapped = causalize(problem.bind((0, 1, 4, 2, 6)))  # u at slot 1, k_a at slot 3
    assert first.param_env.keys() & swapped.input_names == {1}
    outputs = ["x_a", "y"]
    results = []
    for plan in (first, swapped):
        cached = simulate(plan, problem.input_trace, outputs, problem.kernels)
        assert _bits(cached) == _bits(simulate(plan, problem.input_trace, outputs))
        results.append(cached)
    assert len(problem.kernels.kernels) == 1
    assert results[0].columns["y"] != results[1].columns["y"]
    signatures = {problem.signature(g) for g in (FIRST, (0, 1, 4, 2, 6))}
    assert len(signatures) == 2


def test_signature_tells_what_a_genome_simulates():
    problem = _shape_problem()
    assert problem.signature(FIRST) != problem.signature((0, 3, 4, 1, 6))  # k_b for k_a
    assert problem.signature(FIRST) != problem.signature((0, 2, 5, 1, 6))  # x_b for x_a
    assert problem.signature((0, 0, 4, 1, 6)) is None  # does not causalize
    # equal values under other names simulate alike; repr keeps 0.0 and -0.0 apart
    s = mexpr.Sym
    model = infer_symbol_types(EquationModel(
        ((s(0), mexpr.Binary("mul", s(1), s(2))),),
        tuple(SymbolSlot(i, f"s{i}", "Unknown") for i in range(3))))
    vars = table(("y", 1, "Real", "output", None), ("u", 2, "Real", "input", None),
                 ("zero", 3, "Real", "parameter", 0.0),
                 ("minus_zero", 4, "Real", "parameter", -0.0),
                 ("also_zero", 5, "Real", "parameter", 0.0))
    trace = Trace((0.0, 0.1), {"u": (1.0, -1.0)})
    zeros = GaProblem(model, vars, trace, trace)
    assert zeros.signature((0, 1, 2)) == zeros.signature((0, 1, 4))
    assert zeros.signature((0, 1, 2)) != zeros.signature((0, 1, 3))
