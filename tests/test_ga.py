import itertools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from construct import ga, mexpr, sim
from construct.check import infer_symbol_types
from construct.container import MalformedTrace, Trace, VariableDescriptor, VariableTable
from construct.ga import (
    Chromosome, ConstraintsUnsatisfiable, GaConfig, GaProblem, LengthMismatch,
    NoReferenceTrace, SlotsExceedVariables, crossover, generate_individual,
    mutate, report_dict, run_ga, search_space_size,
)
from construct.sim import INVALID
from construct.translate import EquationModel, SymbolSlot
from interp import score


class FixedRng:
    """Plays back queued answers for sample/randrange; everything else
    delegates to a seeded Random."""

    def __init__(self, samples=(), randranges=()):
        self.samples = list(samples)
        self.randranges = list(randranges)
        self._rng = random.Random(0)

    def sample(self, population, k):
        if self.samples:
            return list(self.samples.pop(0))
        return self._rng.sample(population, k)

    def randrange(self, *args):
        if self.randranges:
            return self.randranges.pop(0)
        return self._rng.randrange(*args)

    def random(self):
        return self._rng.random()

    def shuffle(self, xs):
        self._rng.shuffle(xs)

    def choice(self, xs):
        return self._rng.choice(xs)


# ---------------------------------------------------------------------------
# search_space_size
# ---------------------------------------------------------------------------

def test_search_space_full_permutation():
    assert search_space_size(12, 12) == 479001600


def test_search_space_single_slot():
    assert search_space_size(1, 5) == 5


def test_search_space_injective_count():
    assert search_space_size(12, 13) == 6227020800


def test_search_space_slots_exceed_variables():
    with pytest.raises(SlotsExceedVariables):
        search_space_size(5, 4)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_cbt_generation_uniform_chi_square(tiny_case):
    problem = tiny_case["problem"]
    rng = random.Random(1234)
    counts = {}
    draws = 10_000
    for _ in range(draws):
        c = generate_individual("cbt", problem, rng)
        counts[c.genes] = counts.get(c.genes, 0) + 1
    assert set(counts) == set(itertools.permutations(range(3)))
    expected = draws / 6
    chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
    assert chi2 < 15.086  # df=5 critical value at p=0.01


def test_cbc_generation_tiny_instance_is_valid(tiny_case):
    problem = tiny_case["problem"]
    valid = {genes for genes in itertools.permutations(range(3))
             if problem.validate(genes).valid}
    assert len(valid) == 1  # the output on the written slot (C5)
    rng = random.Random(9)
    for _ in range(25):
        c = generate_individual("cbc", problem, rng)
        assert c.genes in valid


def test_cbc_generation_on_fixtures(all_cases):
    for name, case in all_cases.items():
        problem = case["problem"]
        rng = random.Random(17)
        for _ in range(8):
            c = generate_individual("cbc", problem, rng)
            assert problem.validate(c.genes).valid, name
            assert problem.fitness_of(c.genes).is_finite, name


def test_cbc_unsatisfiable_when_no_boolean_variable():
    model = infer_symbol_types(EquationModel(
        ((mexpr.Sym(0), mexpr.If(mexpr.Sym(1), mexpr.Const(1.0), mexpr.Const(0.0))),),
        (SymbolSlot(0, "s0", "Real"), SymbolSlot(1, "s1", "Boolean"))))
    vars = VariableTable((
        VariableDescriptor("y", 1, "Real", "output", None),
        VariableDescriptor("u", 2, "Real", "input", None)))
    trace = Trace((0.0, 0.1), {"u": (1.0, 1.0)})
    problem = GaProblem(model, vars, trace, trace)
    with pytest.raises(ConstraintsUnsatisfiable):
        generate_individual("cbc", problem, random.Random(1))


def test_cbc_unsatisfiable_names_the_equation_without_a_causal_order():
    # y = z + u and z = y - u: each store reads the slot the other writes
    s = mexpr.Sym
    model = infer_symbol_types(EquationModel(
        ((s(0), mexpr.Binary("add", s(1), s(2))), (s(1), mexpr.Binary("sub", s(0), s(2)))),
        tuple(SymbolSlot(i, f"s{i}", "Real") for i in range(3))))
    vars = VariableTable((
        VariableDescriptor("y", 1, "Real", "output", None),
        VariableDescriptor("z", 2, "Real", "local", None),
        VariableDescriptor("u", 3, "Real", "input", None)))
    problem = GaProblem(model, vars, Trace((0.0, 0.1), {"u": (1.0, 1.0)}),
                        Trace((0.0, 0.1), {"y": (2.0, 2.0)}))
    with pytest.raises(ConstraintsUnsatisfiable,
                       match=r"equation 0 reads sym_s1 before equation 1 stores it$"):
        generate_individual("cbc", problem, random.Random(1))
    assert problem.fitness_of((0, 1, 2)) == INVALID


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------

def test_cbt_mutate_swaps_selected_positions(tiny_case):
    rng = FixedRng(samples=[[1, 3]])
    c = Chromosome(("a", "b", "c", "d"))
    out = mutate("cbt", c, tiny_case["problem"], rng)
    assert out.genes == ("a", "d", "c", "b")


def test_mutate_is_involution_at_same_positions(tiny_case):
    rng = FixedRng(samples=[[0, 2], [0, 2]])
    c = Chromosome((5, 6, 7))
    once = mutate("cbt", c, tiny_case["problem"], rng)
    twice = mutate("cbt", once, tiny_case["problem"], rng)
    assert twice == c


def test_cbc_mutate_tiny_returns_constructible(tiny_case):
    # Of the two valid assignments only one causalizes; swapping away
    # from it is rejected, so mutation returns the chromosome unchanged.
    problem = tiny_case["problem"]
    c = Chromosome(tiny_case["ground_truth"])
    rng = random.Random(3)
    for _ in range(10):
        out = mutate("cbc", c, problem, rng)
        assert out == c


def test_cbc_mutate_on_fixture_stays_constructible(pi_case):
    problem = pi_case["problem"]
    rng = random.Random(11)
    c = Chromosome(pi_case["ground_truth"])
    for _ in range(30):
        c = mutate("cbc", c, problem, rng)
        assert problem.validate(c.genes).valid
        assert problem.fitness_of(c.genes).is_finite


# ---------------------------------------------------------------------------
# crossover
# ---------------------------------------------------------------------------

def test_cbt_crossover_may_duplicate(tiny_case):
    a = Chromosome((1, 2, 3, 4))
    b = Chromosome((3, 4, 1, 2))
    rng = FixedRng(randranges=[2])
    c1, c2 = crossover("cbt", a, b, rng)
    assert c1.genes == (1, 2, 1, 2)
    assert c2.genes == (3, 4, 3, 4)


def test_crossover_k_zero_copies_parents(tiny_case):
    a = Chromosome((1, 2, 3))
    b = Chromosome((4, 5, 6))
    rng = FixedRng(randranges=[0])
    c1, c2 = crossover("cbt", a, b, rng)
    assert c1 == b and c2 == a


def test_crossover_length_mismatch(tiny_case):
    with pytest.raises(LengthMismatch):
        crossover("cbt", Chromosome((1, 2)), Chromosome((1, 2, 3)),
                  random.Random(0))


def test_cbc_crossover_children_constructible(pi_case):
    problem = pi_case["problem"]
    rng = random.Random(23)
    a = generate_individual("cbc", problem, rng)
    b = generate_individual("cbc", problem, rng)
    for _ in range(20):
        c1, c2 = crossover("cbc", a, b, rng, problem)
        for child in (c1, c2):
            assert problem.validate(child.genes).valid
            assert problem.fitness_of(child.genes).is_finite
        a, b = c1, c2


# The operators as they were before they skipped work no draw depends on:
# references that the current ones must match exactly.

def _reference_pmx_child(head_parent, tail_parent, k, problem):
    head = list(head_parent[:k])
    tail = list(tail_parent[k:])
    tail_set = set(tail)
    mapping = {tail_parent[p]: head_parent[p] for p in range(k, len(head_parent))}
    for pos in range(len(head)):
        g = head[pos]
        seen = set()
        while g in tail_set:
            if g in seen:
                return None
            seen.add(g)
            g = mapping[g]
        if g != head[pos]:
            if g not in problem.domains[pos]:
                return None
            head[pos] = g
    child = tuple(head + tail)
    return child if all(map(child.__contains__, problem.io_indices)) else None


def _reference_construct_constrained(problem, rng):
    n_slots = problem.num_slots
    assignment = [None] * n_slots
    used = set()
    left = list(map(len, problem.compat))

    def take(var, step):
        for s in problem.holders[var]:
            left[s] -= step

    io = list(problem.io_indices)
    rng.shuffle(io)
    for var in io:
        options = [s for s in problem.holders[var] if assignment[s] is None]
        if not options:
            return None
        slot = rng.choice(options)
        assignment[slot] = var
        used.add(var)
        take(var, 1)

    budget = ga.BACKTRACK_BUDGET
    free = {s for s in range(n_slots) if assignment[s] is None}

    def extend():
        nonlocal budget
        if not free:
            return True
        slot = min(free, key=lambda s: (left[s], s))
        opts = [v for v in problem.compat[slot] if v not in used]
        if not opts:
            return False
        rng.shuffle(opts)
        free.remove(slot)
        for var in opts:
            assignment[slot] = var
            used.add(var)
            take(var, 1)
            if extend():
                return True
            assignment[slot] = None
            used.discard(var)
            take(var, -1)
            budget -= 1
            if budget < 0:
                raise ga._Exhausted
        free.add(slot)
        return False

    if not extend():
        return None
    return assignment


class _Tables:
    """The slot-domain tables the CbC operators read, without a model."""

    def __init__(self, compat, io_indices, num_variables):
        self.compat = compat
        self.domains = tuple(map(frozenset, compat))
        self.io_indices = io_indices
        self.num_slots = len(compat)
        self.holders = tuple(tuple(s for s, d in enumerate(compat) if v in d)
                             for v in range(num_variables))


@st.composite
def _tables(draw, max_slots=8):
    """Slot-domain tables over a few variables, so that domains overlap
    and many slots tie on their count of unused variables."""
    variables = draw(st.integers(1, 9))
    genes = st.integers(0, variables - 1)
    slots = draw(st.integers(1, max_slots))
    compat = tuple(tuple(sorted(draw(st.sets(genes, max_size=variables))))
                   for _ in range(slots))
    io = tuple(sorted(draw(st.sets(genes, max_size=3))))
    return _Tables(compat, io, variables)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_pmx_child_matches_the_reference(data):
    # parents with repeated genes make mapping cycles; the domains make
    # out-of-domain repairs
    tables = data.draw(_tables())
    n = tables.num_slots
    genes = st.integers(0, len(tables.holders) - 1)
    a = tuple(data.draw(st.lists(genes, min_size=n, max_size=n)))
    b = tuple(data.draw(st.lists(genes, min_size=n, max_size=n)))
    if data.draw(st.booleans()):  # injective parents, as a CbC population holds
        pool = list(range(max(n, len(tables.holders))))
        a = tuple(data.draw(st.permutations(pool))[:n])
        b = tuple(data.draw(st.permutations(pool))[:n])
    k = data.draw(st.integers(0, n - 1))
    assert ga._pmx_child(a, b, k, tables) == _reference_pmx_child(a, b, k, tables)
    assert ga._pmx_child(b, a, k, tables) == _reference_pmx_child(b, a, k, tables)


def test_pmx_child_reference_cases():
    tables = _Tables(((1, 2, 3),) * 3, (), 4)
    # head 1 collides with the tail; the mapping 1 -> 2 -> 1 cycles
    assert ga._pmx_child((1, 2, 1), (0, 1, 2), 1, tables) \
        is _reference_pmx_child((1, 2, 1), (0, 1, 2), 1, tables) is None
    # head 1 is repaired through the mapping 1 -> 3, which lies in slot 0's domain
    assert ga._pmx_child((1, 3, 2), (0, 1, 2), 1, tables) \
        == _reference_pmx_child((1, 3, 2), (0, 1, 2), 1, tables) == (3, 1, 2)
    # ... and refused where it does not
    narrow = _Tables(((0, 1),) + ((1, 2, 3),) * 2, (), 4)
    assert ga._pmx_child((1, 3, 2), (0, 1, 2), 1, narrow) is None


@settings(max_examples=300, deadline=None)
@given(_tables(), st.integers(0, 2**32))
def test_construct_constrained_matches_the_reference(tables, seed):
    # the same genes or the same end, after the same random draws
    outcomes = []
    for construct in (ga._construct_constrained, _reference_construct_constrained):
        rng = random.Random(seed)
        try:
            outcome = construct(tables, rng)
        except ga._Exhausted:
            outcome = "exhausted"
        outcomes.append((outcome, rng.getstate()))
    assert outcomes[0] == outcomes[1]


def test_construct_constrained_matches_the_reference_on_the_fixtures(all_cases):
    for name, case in all_cases.items():
        problem = case["problem"]
        for seed in range(30):
            rngs = random.Random(seed), random.Random(seed)
            assert ga._construct_constrained(problem, rngs[0]) \
                == _reference_construct_constrained(problem, rngs[1]), (name, seed)
            assert rngs[0].getstate() == rngs[1].getstate()


# ---------------------------------------------------------------------------
# run_ga
# ---------------------------------------------------------------------------

def test_run_ga_requires_reference(pi_case):
    problem = pi_case["problem"]
    stripped = GaProblem(problem.model, problem.vars, problem.input_trace, None)
    with pytest.raises(NoReferenceTrace):
        run_ga("cbc", stripped, GaConfig(population_size=4, elitism=1))


@pytest.mark.parametrize("which", ["input", "reference"])
def test_run_ga_rejects_a_column_that_is_not_one_value_per_time(pi_case, which):
    # run_ga checked every column's length; now no Trace holds such a
    # column, so no problem is built over one
    trace = {"input": pi_case["problem"].input_trace,
             "reference": pi_case["problem"].reference_trace}[which]
    name, column = next(iter(trace.columns.items()))
    with pytest.raises(MalformedTrace, match=rf"^malformed trace: column {name!r} has 1 values "
                                             rf"for {len(column)} times$"):
        Trace(trace.times, {**trace.columns, name: column[:1]})


def test_scoring_on_a_problem_without_traces_raises_no_reference_trace(pi_case):
    # fitness_of and signature raised AttributeError
    problem = pi_case["problem"]
    genes = pi_case["ground_truth"]
    for inputs, reference in ((problem.input_trace, None), (None, problem.reference_trace),
                              (None, None)):
        bare = GaProblem(problem.model, problem.vars, inputs, reference)
        for score_it in (bare.fitness_of, bare.signature):
            with pytest.raises(NoReferenceTrace):
                score_it(genes)


# each trace fault that scoring can meet, in the order it is raised: a fault
# of pi's traces or table, its class, and its message. Against the reference
# shifted by 0.005 ("times"), fitness_of scored the ground truth at MSE 0.0.
TRACE_FAULTS = [
    ("no reference", NoReferenceTrace, "the container provides no input/reference traces"),
    ("no output", ga.GaError, "the container has no output variable to score"),
    ("no output column", MalformedTrace,
     "malformed trace: reference trace lacks output column 'command'"),
    ("no input column", sim.MissingInput, "input trace lacks column 'measurement'"),
    ("rows", MalformedTrace, "malformed trace: reference trace has 200 rows, input trace 201"),
    ("grid", sim.NonUniformGrid, "non-uniform sample spacing near t=0.055"),
    ("times", MalformedTrace, "malformed trace: reference time 0.005 differs from input time 0.0"),
]


def _faulty_pi(problem, faults) -> GaProblem:
    """pi's problem with each of faults (TRACE_FAULTS) in its traces or table."""
    vars, inputs, reference = problem.vars, problem.input_trace, problem.reference_trace
    if "times" in faults:
        reference = Trace(tuple(t + 0.005 for t in reference.times), reference.columns)
    if "grid" in faults:
        times = list(inputs.times)
        times[5] += 0.005
        inputs = Trace(times, inputs.columns)
    if "rows" in faults:
        reference = Trace(reference.times[:-1], {n: c[:-1] for n, c in reference.columns.items()})
    if "no input column" in faults:
        inputs = Trace(inputs.times, {"set_point": inputs.columns["set_point"]})
    if "no output column" in faults:
        reference = Trace(reference.times, {"cmd": reference.columns["command"]})
    if "no output" in faults:
        vars = VariableTable(tuple(replace(v, causality="local") if v.causality == "output"
                                   else v for v in vars.variables))
    if "no reference" in faults:
        reference = None
    return GaProblem(problem.model, vars, inputs, reference)


@pytest.mark.parametrize("first", range(len(TRACE_FAULTS)),
                         ids=[fault for fault, _, _ in TRACE_FAULTS])
def test_the_first_trace_fault_raises_before_the_first_draw_and_at_every_score(
        pi_case, monkeypatch, first):
    # each fault together with every fault that follows it in the order
    fault, cls, message = TRACE_FAULTS[first]
    faults = {f for f, _, _ in TRACE_FAULTS[first:]}
    monkeypatch.setattr(ga, "generate_individual", None)  # raised before the first draw
    for score_it in (lambda p: run_ga("cbc", p, GaConfig(population_size=4, elitism=1)),
                     lambda p: p.fitness_of(pi_case["ground_truth"]),
                     lambda p: p.signature(pi_case["ground_truth"])):
        with pytest.raises(cls) as exc:
            score_it(_faulty_pi(pi_case["problem"], faults))
        assert type(exc.value) is cls and str(exc.value) == message, fault


def test_run_ga_rejects_unknown_mode(pi_case):
    from construct.ga import GaError
    with pytest.raises(GaError):
        run_ga("annealing", pi_case["problem"], GaConfig(population_size=4, elitism=1))


def test_run_ga_tiny_matches_brute_force(tiny_case):
    problem = tiny_case["problem"]
    fits = [problem.fitness_of(genes)
            for genes in itertools.permutations(range(3))
            if problem.validate(genes).valid]
    brute_best = min(fits)
    for seed in (0, 1, 2):
        cfg = GaConfig(population_size=20, max_generations=5, rng_seed=seed)
        result = run_ga("cbc", problem, cfg)
        assert result.best[1] == brute_best


def test_run_ga_elitism_monotone_and_fraction_one(pi_case):
    cfg = GaConfig(population_size=30, max_generations=6, rng_seed=5)
    result = run_ga("cbc", pi_case["problem"], cfg)
    curve = [g["best_mse"] for g in result.per_generation]
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    assert all(g["simulatable_fraction"] == 1.0 for g in result.per_generation)


def test_run_ga_cbt_mixed_types_collapses(pid_case):
    cfg = GaConfig(population_size=30, max_generations=5, rng_seed=0)
    result = run_ga("cbt", pid_case["problem"], cfg)
    assert all(g["simulatable_fraction"] == 0.0 for g in result.per_generation)
    assert result.best[1] == INVALID


_PI_REPORT = """
import json, sys
from construct import ga
from construct.container import load_container
problem = ga.problem_from_container(load_container(sys.argv[1]))
cfg = ga.GaConfig(population_size=20, max_generations=4, rng_seed=12)
print(json.dumps(ga.report_dict(ga.run_ga("cbc", problem, cfg), "cbc", cfg)))
"""


def test_run_ga_seed_determinism(pi_case):
    import os
    import subprocess
    import sys
    from pathlib import Path

    cfg = GaConfig(population_size=20, max_generations=4, rng_seed=12)
    blobs = set()
    # twice on one problem, whose memo of plans the second run reads,
    # then on a problem of its own
    for problem in (pi_case["problem"], pi_case["problem"],
                    ga.problem_from_container(pi_case["container"])):
        blobs.add(json.dumps(report_dict(run_ga("cbc", problem, cfg), "cbc", cfg)) + "\n")
    src = str(Path(ga.__file__).resolve().parents[1])
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        blobs.add(subprocess.run([sys.executable, "-c", _PI_REPORT, str(pi_case["root"])],
                                 env=env, capture_output=True, text=True, check=True,
                                 timeout=120).stdout)
    assert len(blobs) == 1


def test_run_ga_generation_count(pi_case):
    cfg = GaConfig(population_size=10, max_generations=7, rng_seed=1,
                   early_stop=False)
    result = run_ga("cbc", pi_case["problem"], cfg)
    assert len(result.per_generation) == 7
    assert [g["gen"] for g in result.per_generation] == list(range(7))


def test_early_stop_on_exact_hit(tiny_case):
    # the tiny instance contains the exact optimum in every CbC draw pool
    cfg = GaConfig(population_size=10, max_generations=8, rng_seed=0)
    result = run_ga("cbc", tiny_case["problem"], cfg)
    assert result.best[1].mse < 1e-12
    assert len(result.per_generation) < 8
    cfg_full = GaConfig(population_size=10, max_generations=8, rng_seed=0,
                        early_stop=False)
    assert len(run_ga("cbc", tiny_case["problem"], cfg_full).per_generation) == 8


def test_ga_config_invariants():
    with pytest.raises(ValueError):
        GaConfig(population_size=4, elitism=4)
    with pytest.raises(ValueError):
        GaConfig(crossover_rate=1.5)


@pytest.mark.parametrize("mode", ["cbc", "cbt"])
def test_run_ga_causalizes_each_genome_once(pi_case, monkeypatch, mode):
    # a problem keeps each genome's verdict: a second run of the same
    # config scores the same genomes and checks none of them again. CbT's
    # genomes are causalized, which rejects some for a repeated gene; the
    # CbC operators check theirs gene by gene (GaProblem.fits), so a CbC
    # run causalizes none
    from collections import Counter

    from construct import check, ga, sim

    checked, causalized, rejected = Counter(), Counter(), Counter()

    class Verdicts(dict):
        def __setitem__(self, genes, verdict):
            checked[genes] += 1
            super().__setitem__(genes, verdict)

    problem = ga.problem_from_container(pi_case["container"])
    problem._causal = Verdicts()
    causalize = sim.causalize

    def counting(bound):
        causalized[bound.bindings] += 1
        try:
            return causalize(bound)
        except check.CausalizeError as exc:
            rejected[type(exc).__name__] += 1
            raise

    monkeypatch.setattr(sim, "causalize", counting)
    cfg = GaConfig(population_size=30, max_generations=6, rng_seed=3, early_stop=False)
    runs = []
    for _ in range(2):
        scored = set()
        runs.append(run_ga(mode, problem, cfg,
                           on_individual=lambda c, f: scored.add(c.genes)))
    assert runs[0] == runs[1]
    assert len(checked) >= len(scored) > 1
    assert max(checked.values()) == 1
    if mode == "cbc":
        assert not causalized
    else:
        assert len(causalized) == len(checked) and max(causalized.values()) == 1
        assert rejected["DuplicateBinding"] > 0


@pytest.mark.parametrize("mode", ["cbc", "cbt"])
def test_run_ga_binds_genomes_at_slot_level(all_cases, monkeypatch, mode):
    from construct import ga, model

    calls = []
    apply_assignment = model.apply_assignment

    def counting(*args, **kwargs):
        calls.append(args)
        return apply_assignment(*args, **kwargs)

    monkeypatch.setattr(model, "apply_assignment", counting)
    monkeypatch.setattr(ga, "apply_assignment", counting)
    for name, case in all_cases.items():
        problem = case["problem"]
        cfg = GaConfig(population_size=20, max_generations=3, rng_seed=2)
        best, _ = run_ga(mode, problem, cfg).best
        assert calls == [], name
        bound = problem.bind(best.genes)
        assert bound.equations is problem.model.equations
        assert bound.structure is problem.structure
        assert bound.bindings == tuple(problem.vars.variables[g].name for g in best.genes)


@pytest.mark.parametrize("mode", ["cbc", "cbt"])
def test_run_ga_renames_no_expression(all_cases, monkeypatch, mode):
    # slot-level plans keep the Structure's own expressions, and the
    # variable table is read once per genome, not classified
    from construct import check, ga, mexpr

    problems = {name: ga.problem_from_container(case["container"])
                for name, case in all_cases.items()}
    calls = []

    def counting(attr, original):
        def counted(*args):
            calls.append(attr)
            return original(*args)
        return counted

    for module, attr in ((mexpr, "map_refs"), (check, "classify_variables")):
        monkeypatch.setattr(module, attr, counting(attr, getattr(module, attr)))
    for name, problem in problems.items():
        cfg = GaConfig(population_size=20, max_generations=3, rng_seed=2)
        run_ga(mode, problem, cfg)
        assert calls == [], name


def _scored_run(case):
    """A fresh problem and the fitness of every genome its CbC run scored."""
    from construct import ga

    problem = ga.problem_from_container(case["container"])
    scored: dict = {}
    cfg = GaConfig(population_size=50, max_generations=10, rng_seed=1)
    run_ga("cbc", problem, cfg, on_individual=lambda c, f: scored.setdefault(c.genes, f))
    return problem, scored


def test_cached_kernels_score_every_genome_as_the_uncached_path(all_cases):
    from construct import sim

    for name, case in all_cases.items():
        problem, scored = _scored_run(case)
        assert len(problem.kernels.kernels) == 1, name
        for genes, fit in scored.items():
            bound = problem.bind(genes)
            uncached = score(sim.causalize(bound), problem.input_trace, problem.reference_trace,
                             problem.classification.outputs,
                             sim.KernelCache(problem.structure), bound.bindings)
            assert repr(uncached) == repr(fit), (name, genes)


def test_search_compiles_one_kernel_per_problem(all_cases, monkeypatch):
    # every genome of a problem shares the problem's causal order, so one
    # kernel serves them all; it is compiled at the first score, not when
    # the problem is built
    from construct import ga, sim

    compiled = []

    def counting(*args):
        compiled.append(args)
        return compile(*args)

    monkeypatch.setattr(sim, "compile", counting, raising=False)
    for name, case in all_cases.items():
        compiled.clear()
        problem = ga.problem_from_container(case["container"])
        assert compiled == [] and problem.kernels.kernels == {}, name
        scored: dict = {}
        cfg = GaConfig(population_size=50, max_generations=10, rng_seed=1)
        run_ga("cbc", problem, cfg, on_individual=lambda c, f: scored.setdefault(c.genes, f))
        assert len(compiled) == len(problem.kernels.kernels) == 1, name
        assert list(problem.kernels.kernels) == [(len(problem.classification.outputs), True)]
        for genes in scored:
            plan = sim.causalize(problem.bind(genes))
            assert plan.algebraic_order is problem.structure.algebraic_order, name
        assert len(scored) > 1, name


def test_search_simulates_once_per_distinct_signature(all_cases, monkeypatch):
    from construct import ga, sim

    called = []
    fitness_of = ga.GaProblem.fitness_of

    def counting(self, genes):
        called.append(tuple(genes))
        return fitness_of(self, genes)

    monkeypatch.setattr(ga.GaProblem, "fitness_of", counting)
    for name, case in all_cases.items():
        called.clear()
        problem = ga.problem_from_container(case["container"])
        scored: dict = {}
        cfg = GaConfig(population_size=50, max_generations=10, rng_seed=1)
        result = run_ga("cbc", problem, cfg,
                        on_individual=lambda c, f: scored.setdefault(c.genes, f))
        outputs = problem.classification.outputs
        signature = problem.signature
        assert len(called) == len({signature(g) for g in called}), name
        assert {signature(g) for g in called} == {signature(g) for g in scored}, name
        assert len(called) < result.evaluations == len(scored), name
        for genes, fit in scored.items():
            bound = problem.bind(genes)
            uncached = score(sim.causalize(bound), problem.input_trace, problem.reference_trace,
                             outputs, sim.KernelCache(problem.structure), bound.bindings)
            assert repr(uncached) == repr(fit), (name, genes)


def test_cbc_search_simulates_once_per_fitness_and_returns_the_grid(all_cases, monkeypatch):
    # what the benchmark's tracer reads: one sim.simulate call per
    # GaProblem.fitness_of call, and a Trace whose times are the grid
    from construct import ga, sim

    events = []
    simulate, fitness_of = sim.simulate, ga.GaProblem.fitness_of

    def simulating(plan, inputs, *args, **kwargs):
        events.append("simulate")
        result = simulate(plan, inputs, *args, **kwargs)
        assert isinstance(result, Trace) and len(result.times) == len(inputs.times)
        return result

    def scoring(self, genes):
        events.append("fitness_of")
        return fitness_of(self, genes)

    monkeypatch.setattr(sim, "simulate", simulating)
    monkeypatch.setattr(ga.GaProblem, "fitness_of", scoring)
    for name, case in all_cases.items():
        events.clear()
        problem = ga.problem_from_container(case["container"])
        run_ga("cbc", problem, GaConfig(population_size=20, max_generations=3, rng_seed=2))
        assert events and events == ["fitness_of", "simulate"] * (len(events) // 2), name


def test_cbt_search_rejects_pid_candidates_in_causalize(pid_case, monkeypatch):
    # the benchmark counts CbT's rejections on sim.causalize, by class
    from collections import Counter

    from construct import check, ga, sim

    rejected = Counter()
    causalize, simulate = sim.causalize, sim.simulate

    def counting(bound):
        try:
            return causalize(bound)
        except check.CausalizeError as exc:
            rejected[type(exc).__name__] += 1
            raise

    def simulating(*args, **kwargs):
        rejected["simulated"] += 1
        return simulate(*args, **kwargs)

    monkeypatch.setattr(sim, "causalize", counting)
    monkeypatch.setattr(sim, "simulate", simulating)
    problem = ga.problem_from_container(pid_case["container"])
    run_ga("cbt", problem, GaConfig(population_size=12, max_generations=3, rng_seed=7))
    assert rejected["DuplicateBinding"] > 0
    assert rejected["simulated"] == 0


def test_cbc_search_causalizes_no_genome_that_lost_an_input_or_output(all_cases, monkeypatch):
    # a CbC search causalizes no genome at all, and crossover drops a child
    # that lost an input or an output (C4) before GaProblem.fits checks it
    from construct import ga, sim

    checked = []
    fits = ga.GaProblem.fits

    def recording(problem, genes):
        checked.append(set(genes))
        return fits(problem, genes)

    def refusing(bound):
        raise AssertionError(f"causalized {bound.bindings}")

    monkeypatch.setattr(ga.GaProblem, "fits", recording)
    monkeypatch.setattr(sim, "causalize", refusing)
    for name, case in all_cases.items():
        checked.clear()
        problem = ga.problem_from_container(case["container"])
        run_ga("cbc", problem, GaConfig(population_size=50, max_generations=10, rng_seed=1,
                                        early_stop=False))
        assert checked and all(set(problem.io_indices) <= genes for genes in checked), name
