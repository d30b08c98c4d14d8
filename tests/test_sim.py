import math
import random

import pytest

from construct import mexpr
from construct.container import Trace, VariableDescriptor, VariableTable
from construct.model import BoundModel, apply_assignment
from construct.sim import (
    INVALID, AlgebraicLoop, DivisionByZero, DuplicateBinding, Fitness,
    IllTypedModel, InvalidStateVariable, MissingInput, MultipleOccurrence,
    NonUniformGrid, NotIsolatable, StructurallySingular, UnbalancedSystem,
    UnusedInput, causalize, fitness, simulate,
)
from construct.ga import generate_individual
from construct.sim import CausalizeError, SimPlan


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


def test_causalize_residual_isolation():
    # 0 = u - 2*y  ->  y := u / 2
    eq = (mexpr.Const(0.0),
          mexpr.Binary("sub", mexpr.Sym("u"),
                       mexpr.Binary("mul", mexpr.Const(2.0), mexpr.Sym("y"))))
    b = bound([eq], V_UYK, bindings=("u", "y"))
    plan = causalize(b)
    _, name, expr = plan.algebraic_order[0]
    assert name == "y"
    env = {"u": 3.0}
    assert mexpr.eval_expr(expr, env) == pytest.approx(1.5)


def test_causalize_algebraic_loop():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("z", 3, "Real", "local", None))
    eqs = [
        (mexpr.Sym("y"), mexpr.Binary("add", mexpr.Sym("z"), mexpr.Sym("u"))),
        (mexpr.Sym("z"), mexpr.Binary("sub", mexpr.Sym("y"), mexpr.Sym("u"))),
    ]
    with pytest.raises(AlgebraicLoop):
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
    # y occurs once but behind min(): cannot invert
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("k", 3, "Real", "parameter", 2.0))
    eqs = [(mexpr.Sym("k"), mexpr.Min(mexpr.Sym("y"), mexpr.Sym("u")))]
    with pytest.raises(NotIsolatable):
        causalize(bound(eqs, vars))


def test_causalize_multiple_occurrence():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    # y = y + u: y occurs twice, no other unknown
    eqs = [(mexpr.Sym("y"), mexpr.Binary("add", mexpr.Sym("y"), mexpr.Sym("u")))]
    with pytest.raises(MultipleOccurrence):
        causalize(bound(eqs, vars))


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
    eqs = [(mexpr.Der("u"), mexpr.Const(1.0)),
           (mexpr.Sym("y"), mexpr.Sym("u"))]
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


def test_simulate_non_uniform_grid():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    plan = causalize(bound([(mexpr.Sym("y"), mexpr.Sym("u"))], vars))
    with pytest.raises(NonUniformGrid):
        simulate(plan, _const_trace(["u"], [0.0, 0.1, 0.3]), ["y"])


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


def test_fitness_simple_mse():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    b = bound([(mexpr.Sym("y"),
                mexpr.Binary("add", mexpr.Sym("u"), mexpr.Const(0.0)))], vars)
    inputs = Trace((0.0, 0.1), {"u": (1.0, 3.0)})
    reference = Trace((0.0, 0.1), {"y": (1.0, 2.0)})
    # model yields [1, 3] vs reference [1, 2]: MSE = (0 + 1)/2
    assert fitness(b, inputs, reference) == Fitness.finite(0.5)


def test_fitness_invalid_on_type_violation():
    vars = table(("b", 1, "Boolean", "input", None), ("y", 2, "Real", "output", None))
    b = bound([(mexpr.Sym("y"), mexpr.Binary("mul", mexpr.Sym("b"), mexpr.Const(1.0)))],
              vars)
    inputs = Trace((0.0, 0.1), {"b": (1.0, 1.0)})
    reference = Trace((0.0, 0.1), {"y": (1.0, 1.0)})
    assert fitness(b, inputs, reference) == INVALID


def test_fitness_requires_reference_columns():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    b = bound([(mexpr.Sym("y"), mexpr.Sym("u"))], vars)
    inputs = Trace((0.0, 0.1), {"u": (1.0, 1.0)})
    with pytest.raises(ValueError):
        fitness(b, inputs, Trace((0.0, 0.1), {"z": (1.0, 1.0)}))


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
        return causalize(b)
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


def test_constructible_genomes_satisfy_c0_to_c4(all_cases):
    for name, case in all_cases.items():
        problem = case["problem"]
        accepted = 0
        for genes in _genome_families(problem, random.Random(name + "/c"), 300):
            if problem.constructible(genes):
                accepted += 1
                assert problem.validate(genes).valid, (name, genes)
        assert accepted > 10, name
