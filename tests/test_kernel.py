"""The compiled simulation kernel against the tree walk over mexpr.eval_expr.

interp.tree_walk is the per-sample loop of simulate written directly over
the reference semantics. Every case must give bit-identical outputs, or
the same exception class and message, whether the kernel's run stands or
the re-run by sim._tree_walk gives the answer. A kernel cache is built
from a Structure: a hand-made or generated plan's own, name-level one
(interp.structure), or a fixture problem's, slot-level one.
"""

import io
import itertools
import math
import random
import re
import struct
import tokenize
from functools import lru_cache, partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from construct import mexpr, sim
from construct.check import CausalizeError
from construct.container import Trace, load_container
from construct.ga import crossover, generate_individual, mutate, problem_from_container
from construct.sim import INVALID, DivisionByZero, NonFiniteValue, SimPlan
from interp import feed, named, score, simulate, structure, tree_walk

Sym, Const, Binary, Unary, If = mexpr.Sym, mexpr.Const, mexpr.Binary, mexpr.Unary, mexpr.If


def _outcome(run, plan, inputs, outputs):
    """Outputs as bit patterns, or the exception class and message."""
    try:
        trace = run(plan, inputs, outputs)
    except Exception as exc:  # the class is what is compared
        return type(exc), str(exc)
    return trace.times, {name: tuple(struct.pack("<d", v) for v in values)
                         for name, values in trace.columns.items()}


def assert_same(plan, inputs, outputs, kernels=None, bindings=()):
    """simulate on plan, with kernels, against the tree walk on its
    name-level form; a slot-level plan, whose refs bindings names, runs
    through kernels, a cache of its problem's Structure."""
    expected = _outcome(tree_walk, named(plan, bindings) if bindings else plan, inputs, outputs)
    assert _outcome(partial(simulate, kernels=kernels, bindings=bindings),
                    plan, inputs, outputs) == expected
    return expected


@pytest.fixture
def reruns(monkeypatch):
    """The re-runs by sim._tree_walk that simulate makes, one entry each."""
    calls = []
    walk = sim._tree_walk

    def counting(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(sim, "_tree_walk", counting)
    return calls


def _fell_back(reruns) -> bool:
    """Whether simulate re-ran a plan by the tree walk since the last
    look, a kernel run having failed; the re-runs seen are forgotten."""
    fell_back = bool(reruns)
    reruns.clear()
    return fell_back


def _trace(inputs, n=4, value=1.0, h=0.01):
    times = tuple(k * h for k in range(n))
    return Trace(times, {name: (value,) * n for name in inputs})


def _plan(algebraic, states=(), params=None, inputs=("u",)):
    """A plan solving algebraic = [(name, expr)] in order."""
    return SimPlan(tuple(states), tuple((i, n, e) for i, (n, e) in enumerate(algebraic)),
                   dict(params or {}), frozenset(inputs))


# ---------------------------------------------------------------------------
# The committed fixtures
# ---------------------------------------------------------------------------

def _fixture_plans(case, rng, n):
    """The slot-level plans of the ground truth and of n CbC genomes, each
    with its bindings."""
    problem = case["problem"]
    genomes = [case["ground_truth"]]
    genomes += [generate_individual("cbc", problem, rng).genes for _ in range(n)]
    return [(sim.causalize(b), b.bindings) for b in map(problem.bind, genomes)]


def test_fixture_plans_match_tree_walk(all_cases):
    for name, case in all_cases.items():
        problem = case["problem"]
        outputs = problem.classification.outputs
        kernels = sim.KernelCache(problem.structure)  # one for every genome
        for plan, bindings in _fixture_plans(case, random.Random(name), 12):
            assert_same(plan, problem.input_trace, outputs, kernels, bindings)
        assert list(kernels.kernels) == [(len(outputs), False)]


@pytest.mark.parametrize("value", [0.0, 1e200, -1e200, 1e308, math.inf])
def test_fixture_plans_on_constant_inputs(all_cases, value):
    outcomes = set()
    for name, case in all_cases.items():
        problem = case["problem"]
        times = problem.input_trace.times
        inputs = _trace(problem.input_trace.columns, len(times), value, times[1])
        kernels = sim.KernelCache(problem.structure)
        for plan, bindings in _fixture_plans(case, random.Random(name), 6):
            outcome = assert_same(plan, inputs, problem.classification.outputs, kernels,
                                  bindings)
            outcomes.add(outcome[0] if isinstance(outcome[0], type) else "ok")
    if value in (1e308, math.inf):
        assert NonFiniteValue in outcomes


# ---------------------------------------------------------------------------
# Hand-made plans
# ---------------------------------------------------------------------------

def test_division_by_zero_in_untaken_branch_is_not_raised():
    div = Binary("div", Const(1.0), Sym("u"))
    plan = _plan([("y", If(Sym("u"), div, Const(2.0)))])
    _, columns = assert_same(plan, _trace(["u"], value=0.0), ["y"])
    assert columns["y"] == (struct.pack("<d", 2.0),) * 4


def test_division_by_zero_in_right_operand_of_and_is_raised():
    div = Binary("div", Const(1.0), Sym("u"))
    undecided = Binary("eq", Sym("u"), Const(0.0))
    plan = _plan([("z", Const(3.0)), ("y", Binary("and", undecided, div))])
    cls, message = assert_same(plan, _trace(["u"], value=0.0), ["y"])
    assert cls is DivisionByZero and message.endswith("in equation 1")


def test_and_or_compute_their_right_operand_only_where_the_left_does_not_decide(reruns):
    u = Sym("u")
    div = Binary("div", Const(1.0), u)
    exprs = [Binary("and", u, div), Binary("or", Unary("not", u), div),
             If(u, Const(2.0), Binary("and", u, div)),
             Binary("or", Binary("and", u, div), Binary("eq", u, Const(0.0)))]
    plan = _plan([(f"y{i}", e) for i, e in enumerate(exprs)],
                 states=[("x", 0.5, Binary("and", u, div))])
    outputs = [f"y{i}" for i in range(len(exprs))] + ["x"]
    kernels = sim.KernelCache(structure(plan))
    _, columns = assert_same(plan, _trace(["u"], value=0.0), outputs, kernels)
    assert [columns[n][-1] for n in outputs] \
        == [struct.pack("<d", v) for v in (0.0, 1.0, 0.0, 1.0, 0.5)]
    assert not _fell_back(reruns)
    # where the left operand does not decide, the right one is computed
    _, columns = assert_same(plan, _trace(["u"], value=0.5), outputs)
    assert [columns[n][0] for n in outputs] \
        == [struct.pack("<d", v) for v in (1.0, 1.0, 2.0, 1.0, 0.5)]


def test_min_and_max_operands_in_untaken_branches_and_decided_operators_are_not_computed(reruns):
    # a division by zero inside a min or max operand, where the tree walk
    # never reaches it: the kernel binds the operand where it is read,
    # inside its branch, and so runs without falling back
    u = Sym("u")
    div = Binary("div", Const(1.0), u)
    low, high = mexpr.Call("min", (div, Const(2.0))), mexpr.Call("max", (Unary("neg", u), div))
    exprs = [If(u, low, Const(3.0)), If(Unary("not", u), Const(4.0), high),
             Binary("and", u, low), Binary("or", Unary("not", u), high)]
    plan = _plan([(f"y{i}", e) for i, e in enumerate(exprs)],
                 states=[("x", 0.5, Binary("and", u, high))])
    outputs = [f"y{i}" for i in range(len(exprs))] + ["x"]
    inputs = _trace(["u"], value=0.0)
    kernels = sim.KernelCache(structure(plan))
    _, columns = assert_same(plan, inputs, outputs, kernels)
    assert [columns[n][-1] for n in outputs] \
        == [struct.pack("<d", v) for v in (3.0, 4.0, 0.0, 1.0, 0.5)]
    assert not _fell_back(reruns)
    assert_scores_as_tree_walk(plan, inputs, _trace(outputs), outputs)
    assert not _fell_back(reruns)
    # where the branch is taken, the division is computed
    _, columns = assert_same(plan, _trace(["u"], value=0.5), outputs)
    assert [columns[n][0] for n in outputs] \
        == [struct.pack("<d", v) for v in (2.0, 2.0, 1.0, 1.0, 0.5)]


def test_division_by_zero_in_derivative_names_the_state():
    plan = _plan([("y", Sym("x"))], inputs=("u",),
                 states=[("x", 1.0, Binary("div", Const(1.0), Sym("u")))])
    cls, message = assert_same(plan, _trace(["u"], value=0.0), ["y"])
    assert cls is DivisionByZero and message.endswith("in der(x)")


def test_division_by_zero_names_the_equation_that_divides():
    u = Sym("u")
    plan = _plan([("y0", Binary("div", u, Const(2.0))),
                  ("y1", Binary("div", Const(1.0), Binary("sub", u, Const(1.0)))),
                  ("y2", Binary("div", u, Const(4.0)))],
                 states=[("x", 0.0, Binary("div", Const(1.0), Binary("sub", u, Const(3.0))))])
    for value, label in ((1.0, "equation 1"), (3.0, "der(x)")):
        cls, message = assert_same(plan, _trace(["u"], value=value), ["y0"])
        assert cls is DivisionByZero and message.endswith(f"in {label}")


def test_nan_through_comparisons_min_and_max():
    u = Sym("u")
    exprs = [Binary(op, u, Const(1.0)) for op in ("lt", "le", "gt", "ge", "eq", "ne")]
    exprs += [mexpr.Call("min", (Const(1.0), u)), mexpr.Call("max", (Const(1.0), u)),
              Unary("not", u), If(u, Const(4.0), Const(5.0)),
              Binary("and", u, Const(0.0)), Binary("or", u, Const(0.0))]
    plan = _plan([(f"y{i}", e) for i, e in enumerate(exprs)])
    _, columns = assert_same(plan, _trace(["u"], value=math.nan), [f"y{i}" for i in
                                                                   range(len(exprs))])
    assert [struct.unpack("<d", columns[f"y{i}"][0])[0] for i in range(len(exprs))] \
        == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 4.0, 0.0, 1.0]
    for first in (mexpr.Call("min", (Sym("u"), Const(1.0))),
                  mexpr.Call("max", (Sym("u"), Const(1.0)))):
        cls, message = assert_same(_plan([("y", first)]),
                                   _trace(["u"], value=math.nan), ["y"])
        assert cls is NonFiniteValue and "'y'" in message


@pytest.mark.parametrize("a, b", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (1.5, 1.5)])
def test_min_and_max_of_equal_operands_return_the_builtins_operand(a, b):
    calls = [mexpr.Call(fn, operands) for fn in ("min", "max")
             for operands in ((Sym("u0"), Sym("u1")), (Sym("u1"), Sym("u0")))]
    plan = _plan([(f"y{i}", e) for i, e in enumerate(calls)], inputs=("u0", "u1"))
    inputs = Trace((0.0, 0.1), {"u0": (a, a), "u1": (b, b)})
    _, columns = assert_same(plan, inputs, [f"y{i}" for i in range(4)])
    expected = (min(a, b), min(b, a), max(a, b), max(b, a))
    assert [columns[f"y{i}"][0] for i in range(4)] == [struct.pack("<d", v) for v in expected]


@pytest.mark.parametrize("params, states", [
    ({"p": 1.5}, ()),  # reads only a parameter
    ({}, ()),  # reads no data slot
    ({}, [("x", 1.0, Unary("neg", Sym("x")))]),  # a state, no data slot
])
def test_plans_without_input_columns_run_every_sample(params, states):
    rhs = Binary("mul", Sym("p"), Const(2.0)) if params else Const(3.0)
    plan = _plan([("y", rhs)], states=states, params=params, inputs=())
    inputs = _trace([], n=5)
    _, columns = assert_same(plan, inputs, ["y"] + [x for x, _, _ in states])
    assert all(len(column) == len(inputs.times) for column in columns.values())


def test_boolean_constants_evaluate_to_one_and_zero():
    plan = _plan([("y", Binary("add", Const(True), Const(False)))], inputs=())
    _, columns = assert_same(plan, _trace([]), ["y"])
    assert columns["y"][0] == struct.pack("<d", 1.0)


def test_signed_zero_constants_stay_apart():
    plan = _plan([("y", Binary("mul", Sym("u"), Const(-0.0))),
                  ("z", Binary("mul", Sym("u"), Const(0.0)))])
    _, columns = assert_same(plan, _trace(["u"]), ["y", "z"])
    assert columns["y"][0] == struct.pack("<d", -0.0)
    assert columns["z"][0] == struct.pack("<d", 0.0)


def test_der_in_an_evaluated_position_raises_like_the_tree_walk():
    plan = _plan([("y", Binary("add", Sym("u"), mexpr.Der("u")))])
    cls, _ = assert_same(plan, _trace(["u"]), ["y"])
    assert cls is ValueError


def test_deep_if_chain_and_binary_chain():
    u = Sym("u")
    chain = Const(7.0)
    for i in range(300):
        chain = If(Binary("gt", u, Const(float(i))), Const(float(i)), chain)
    total = u
    for i in range(300):
        total = Binary("add" if i % 2 else "mul", total, Const(1.0 + i / 1000))
    plan = _plan([("y", chain), ("z", total)])
    # at inf, z is non-finite, and the tree walk re-runs the deep chains
    for value in (-1.0, 150.5, 1e9, math.inf):
        assert_same(plan, _trace(["u"], value=value), ["y", "z"])
    for scored in (False, True):
        source, _ = sim._kernel_source(structure(plan), 2, scored)
        assert max(len(line) - len(line.lstrip(" ")) for line in source.splitlines()) == 2


@pytest.mark.parametrize("names", [('a"b', "x\ny", "1/0"), ("v0", "\\", "k")])
def test_arbitrary_variable_names(names):
    u, y, p = names
    plan = _plan([(y, Binary("mul", Sym(u), Sym(p)))], params={p: 2.5}, inputs=(u,),
                 states=[(p, 0.5, Binary("div", Const(1.0), Sym(u)))])
    inputs = Trace((0.0, 0.1, 0.2), {u: (1.0, 2.0, 0.0)})
    assert_same(plan, inputs, [y, p])
    # the tree walk's re-run names the state by its name
    cls, message = assert_same(plan, Trace(inputs.times, {u: (1.0, 0.0, 2.0)}), [y, p])
    assert cls is DivisionByZero and message.endswith(f"in der({p})")
    for scored in (False, True):
        source, _ = sim._kernel_source(structure(plan), 2, scored)
        assert all(repr(name) not in source for name in names)
        assert all(_generated(ident) for ident in _identifiers(source) - FIXED)


# ---------------------------------------------------------------------------
# The kernel: per-sample checks on watched refs, an end check
# ---------------------------------------------------------------------------

INF_AT_1 = (1.0, math.inf, 1.0, 1.0)  # non-finite at one sample, not the last

HIDING = {  # y0 at a position where a non-finite value does not show
    "comparison": Binary("gt", Sym("y0"), Const(1.0)),
    "min": mexpr.Call("min", (Sym("y0"), Const(1.0))),
    "max": mexpr.Call("max", (Const(1.0), Unary("neg", Sym("y0")))),
    "untaken If branch": If(Sym("u"), Const(2.0), Sym("y0")),
    "If condition": If(Sym("y0"), Const(2.0), Const(3.0)),
    "denominator": Binary("div", Const(1.0), Sym("y0")),
    "logical operator": Binary("or", Sym("y0"), Const(0.0)),
}


@pytest.mark.parametrize("where", ["equation", "derivative"])
@pytest.mark.parametrize("hiding", HIDING)
def test_non_finite_value_hidden_from_every_later_check_is_watched(hiding, where, reruns):
    y0 = ("y0", Binary("mul", Sym("u"), Const(2.0)))
    if where == "equation":
        plan = _plan([y0, ("y1", HIDING[hiding])])
    else:
        plan = _plan([y0], states=[("x", 0.0, HIDING[hiding])])
    assert "y0" in sim._watched(structure(plan))
    kernels = sim.KernelCache(structure(plan))
    cls, message = assert_same(plan, Trace((0.0, 0.01, 0.02, 0.03), {"u": INF_AT_1}),
                               ["y0"], kernels)
    assert cls is NonFiniteValue and message == "non-finite value for 'y0' at t=0.01"
    assert _fell_back(reruns)


def test_fault_at_the_last_sample_in_a_ref_only_a_derivative_reads(reruns):
    plan = _plan([("y", Binary("mul", Sym("u"), Const(2.0)))],
                 states=[("x", 0.0, Binary("sub", Sym("y"), Sym("x")))])
    assert sim._watched(structure(plan)) == set()
    kernels = sim.KernelCache(structure(plan))
    inputs = Trace((0.0, 0.01, 0.02, 0.03), {"u": (1.0, 1.0, 1.0, math.inf)})
    cls, message = assert_same(plan, inputs, ["x"], kernels)
    assert cls is NonFiniteValue and message == "non-finite value for 'y' at t=0.03"
    assert _fell_back(reruns)
    # and at an earlier sample, through the state, which stays non-finite
    cls, message = assert_same(plan, Trace(inputs.times, {"u": INF_AT_1}), ["x"])
    assert cls is NonFiniteValue and message == "non-finite value for 'y' at t=0.01"


def test_end_check_covers_every_solved_value_of_a_long_plan():
    # 120 solved values, summed over several statements; only the last
    # overflows, at the last sample, and the derivative reads them all
    ys = [(f"y{i}", Binary("mul", Sym("u"), Const(1e300 if i == 119 else 1.0)))
          for i in range(120)]
    total = Sym("y0")
    for name, _ in ys[1:]:
        total = Binary("add", total, Sym(name))
    plan = _plan(ys, states=[("x", 0.0, total)])
    assert sim._watched(structure(plan)) == set()
    source, _ = sim._kernel_source(structure(plan), 1)
    assert source.count(" e = e + ") > 1
    inputs = Trace((0.0, 0.01, 0.02, 0.03), {"u": (1.0, 1.0, 1.0, 1e10)})
    cls, message = assert_same(plan, inputs, ["x"])
    assert cls is NonFiniteValue and message == "non-finite value for 'y119' at t=0.03"


def test_state_that_goes_inf_mid_run(reruns):
    # x: 1.0, 1e198, then inf; only a comparison reads it
    plan = _plan([("y", Binary("gt", Sym("x"), Const(0.0)))], inputs=(),
                 states=[("x", 1.0, Binary("mul", Sym("x"), Const(1e200)))])
    kernels = sim.KernelCache(structure(plan))
    cls, message = assert_same(plan, _trace([], n=6), ["y"], kernels)
    assert cls is NonFiniteValue and message == "non-finite value for 'x' at t=0.01"
    assert _fell_back(reruns)


def test_finite_values_that_overflow_the_end_sum_are_a_false_alarm(reruns):
    plan = _plan([("y0", Sym("u")), ("y1", Binary("mul", Sym("u"), Const(0.9)))],
                 states=[("x", 1e308, Binary("sub", Const(0.0), Sym("x")))])
    kernels = sim.KernelCache(structure(plan))
    times, columns = assert_same(plan, _trace(["u"], value=1e308), ["x", "y0", "y1"], kernels)
    assert times == _trace([]).times
    assert columns["y0"] == (struct.pack("<d", 1e308),) * 4
    assert _fell_back(reruns)


def test_ground_truths_keep_few_per_sample_checks_and_run_fast(all_cases, reruns):
    watched = {}
    for name, case in all_cases.items():
        problem = case["problem"]
        bound = problem.bind(case["ground_truth"])
        watched[name] = len(sim._watched(problem.structure))
        kernels = sim.KernelCache(problem.structure)
        assert_same(sim.causalize(bound), problem.input_trace, problem.classification.outputs,
                    kernels, bound.bindings)
        assert not _fell_back(reruns)
    assert watched == {"pi": 1, "pid": 2, "limpid": 1}


# ---------------------------------------------------------------------------
# Generated plans
# ---------------------------------------------------------------------------

VALUES = [0.0, -0.0, 1.0, -1.5, 0.5, 3.0, 1e200, -1e200, 1e308, math.inf, -math.inf,
          math.nan]
BINOPS = ("add", "sub", "mul", "div", "lt", "le", "gt", "ge", "eq", "ne", "and", "or")


def _expressions():
    """Expressions whose Sym/Der refs are indices, resolved by _resolve.
    One reference leaf in 40 is a der(), which eval_expr rejects."""
    refs = st.integers(0, 39).map(lambda j: mexpr.Der(0) if j == 39 else Sym(j % 10))
    leaves = st.one_of(st.sampled_from(VALUES).map(Const), st.booleans().map(Const),
                       refs, refs)

    def extend(sub):
        return st.one_of(
            st.builds(Unary, st.sampled_from(("neg", "not")), sub),
            st.builds(Binary, st.sampled_from(BINOPS), sub, sub),
            st.builds(If, sub, sub, sub),
            st.builds(mexpr.Call, st.sampled_from(("min", "max")), st.tuples(sub, sub)),
            st.builds(mexpr.Call, st.just("abs"), st.tuples(sub)))
    return st.recursive(leaves, extend, max_leaves=12)


EXPRESSIONS = _expressions()


def _resolve(e, known):
    return mexpr.map_refs(e, lambda j: known[j % len(known)])


@st.composite
def plans(draw):
    """A plan over two inputs, two parameters and up to two states whose
    algebraic equations read only names set before them."""
    known = ["u0", "u1", "p0", "p1"]
    states = [f"x{i}" for i in range(draw(st.integers(0, 2)))]
    known += states
    algebraic = []
    for i in range(draw(st.integers(1, 4))):
        algebraic.append((f"y{i}", _resolve(draw(EXPRESSIONS), known)))
        known.append(f"y{i}")
    state_vars = [(x, draw(st.sampled_from([0.0, 1.0, -2.0])),
                   _resolve(draw(EXPRESSIONS), known)) for x in states]
    params = {p: draw(st.sampled_from(VALUES[:8])) for p in ("p0", "p1")}
    plan = _plan(algebraic, state_vars, params, ("u0", "u1"))
    columns = {u: tuple(draw(st.sampled_from(VALUES)) for _ in range(3))
               for u in ("u0", "u1")}
    return plan, Trace((0.0, 0.5, 1.0), columns), [n for n, _ in algebraic] + states


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(plans())
def test_generated_plans_match_tree_walk(case):
    plan, inputs, outputs = case
    assert_same(plan, inputs, outputs)


# ---------------------------------------------------------------------------
# Scoring: the scored kernel against the tree walk's squared errors
# ---------------------------------------------------------------------------

def _score_outcome(score):
    """A score as bit patterns, or the exception class and message."""
    try:
        fit = score()
    except Exception as exc:  # the class is what is compared
        return type(exc), str(exc)
    return fit if not fit.is_finite else struct.pack("<d", fit.mse)


def _tree_walk_score(plan, inputs, reference, outputs):
    """The MSE of the tree walk's outputs: each output's errors squared,
    summed with math.fsum, Invalid where the walk or the sum fails."""
    try:
        walked = tree_walk(plan, inputs, outputs)
    except sim.SimulateError:
        return INVALID
    squares = [(o - r) * (o - r) for name in outputs
               for o, r in zip(walked.columns[name], reference.columns[name])]
    try:
        mse = math.fsum(squares) / len(squares)
    except OverflowError:
        return INVALID
    return sim.Fitness.finite(mse) if math.isfinite(mse) else INVALID


def assert_scores_as_tree_walk(plan, inputs, reference, outputs):
    """score on plan, with a KernelCache of its Structure and without,
    against the tree walk's squared errors; returns the cache."""
    kernels = sim.KernelCache(structure(plan))
    expected = _score_outcome(partial(_tree_walk_score, plan, inputs, reference, outputs))
    for cache in (kernels, None):
        assert _score_outcome(partial(score, plan, inputs, reference, outputs, cache)) \
            == expected
    return kernels


REFERENCE_VALUES = st.one_of(st.sampled_from(VALUES[:9]),
                             st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(plans(), st.data())
def test_generated_plans_score_as_tree_walk(case, data):
    plan, inputs, outputs = case
    reference = Trace(inputs.times, {
        name: tuple(data.draw(REFERENCE_VALUES) for _ in inputs.times) for name in outputs})
    assert_scores_as_tree_walk(plan, inputs, reference, outputs)


def test_scores_settled_by_the_checked_kernel_or_overflowing_a_square(reruns):
    # a false alarm: finite values overflow the kernel's end sum
    plan = _plan([("y0", Sym("u")), ("y1", Binary("mul", Sym("u"), Const(0.9)))],
                 states=[("x", 1e308, Binary("sub", Const(0.0), Sym("x")))])
    inputs = _trace(["u"], value=1e308)
    reference = Trace(inputs.times, {"y0": (1e308, 1e308, 0.0, 1.0), "y1": (9e307,) * 4})
    kernels = assert_scores_as_tree_walk(plan, inputs, reference, ["y0", "y1"])
    assert _fell_back(reruns)
    assert score(plan, inputs, reference, ["y0", "y1"], kernels) == INVALID
    assert _fell_back(reruns)
    reference = Trace(inputs.times, {"y0": (1e308,) * 4, "y1": (0.9e308,) * 4})
    kernels = assert_scores_as_tree_walk(plan, inputs, reference, ["y0", "y1"])
    assert _fell_back(reruns)
    assert score(plan, inputs, reference, ["y0", "y1"]).is_finite
    assert _fell_back(reruns)
    # a fault the tree walk names: Invalid either way, and nothing more compiled
    plan = _plan([("y", Binary("div", Const(1.0), Sym("u")))])
    kernels = assert_scores_as_tree_walk(plan, _trace(["u"], value=0.0),
                                         _trace(["y"]), ["y"])
    assert _fell_back(reruns)
    assert list(kernels.kernels) == [(1, True)]
    # one square overflows; finite squares whose sum overflows
    plan = _plan([("y", Sym("u"))])
    for value, ref in ((1e200, 0.0), (1e154, -1.3e154)):
        kernels = assert_scores_as_tree_walk(plan, _trace(["u"], value=value),
                                             _trace(["y"], value=ref), ["y"])
        assert not _fell_back(reruns)
        assert score(plan, _trace(["u"], value=value), _trace(["y"], value=ref),
                     ["y"], kernels) == INVALID


# ---------------------------------------------------------------------------
# Expressions nested past the kernel's cap
# ---------------------------------------------------------------------------

WRAPPERS = ("neg", "not", "abs", "if", "min", "max") + BINOPS


def _wrap(e, kind, side, where):
    """e one node deeper: under kind, as operand where (modulo its
    arity), with side as every other operand."""
    if kind in ("neg", "not"):
        return Unary(kind, e)
    if kind == "abs":
        return mexpr.Call("abs", (e,))
    if kind == "if":
        operands = [side, side]
        operands.insert(where, e)
        return If(*operands)
    operands = (side, e) if where % 2 else (e, side)
    return mexpr.Call(kind, operands) if kind in ("min", "max") else Binary(kind, *operands)


def _nesting(source: str) -> int:
    """The deepest nesting of parentheses in source."""
    depth = deepest = 0
    for ch in source:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


@st.composite
def deep_plans(draw):
    """plans() with one equation or derivative wrapped in a chain of
    operators longer than the kernel's nesting cap."""
    plan, inputs, outputs = draw(plans())
    i = draw(st.integers(0, len(plan.algebraic_order) + len(plan.state_vars) - 1))
    known = ["u0", "u1", "p0", "p1"] + [x for x, _, _ in plan.state_vars] \
        + [y for _, y, _ in plan.algebraic_order[:i]]
    sides = st.one_of(st.sampled_from(VALUES).map(Const), st.sampled_from(known).map(Sym))
    wraps = st.tuples(st.sampled_from(WRAPPERS), sides, st.integers(0, 2))
    chain = draw(st.lists(wraps, min_size=sim.MAX_NESTING + 1, max_size=3 * sim.MAX_NESTING))

    def deep(e):
        for kind, side, where in chain:
            e = _wrap(e, kind, side, where)
        return e
    n = len(plan.algebraic_order)
    algebraic = [(j, y, deep(e) if j == i else e) for j, y, e in plan.algebraic_order]
    states = [(x, start, deep(e) if n + j == i else e)
              for j, (x, start, e) in enumerate(plan.state_vars)]
    return SimPlan(tuple(states), tuple(algebraic), plan.param_env, plan.input_names), \
        inputs, outputs


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(deep_plans(), st.data())
def test_generated_plans_nested_past_the_cap_match_tree_walk(case, data):
    plan, inputs, outputs = case
    assert_same(plan, inputs, outputs)
    reference = Trace(inputs.times, {
        name: tuple(data.draw(REFERENCE_VALUES) for _ in inputs.times) for name in outputs})
    assert_scores_as_tree_walk(plan, inputs, reference, outputs)
    for scored in (False, True):
        source, _ = sim._kernel_source(structure(plan), len(outputs), scored=scored)
        assert _nesting(source) <= sim.MAX_NESTING
        assert re.search(r"^  t\d+ = ", source, re.MULTILINE), "an operand was spilled"


# ---------------------------------------------------------------------------
# Search genomes: scored from their genes against the causalize path
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent
GENOME_CONTAINERS = {name: REPO / "fixtures" / name for name in ("pi", "pid", "limpid")}
GENOME_CONTAINERS["tiny"] = REPO / "tests" / "data" / "tiny"


@lru_cache(maxsize=None)
def _container(name):
    return load_container(GENOME_CONTAINERS[name])


def _causalize_path_score(problem, genes):
    """The genome's fitness through bind, causalize and a fresh kernel
    cache of the problem's Structure: what GaProblem.fitness_of scores
    from the tables of GaProblem.scoring."""
    kernels = sim.KernelCache(problem.structure)
    bound = problem.bind(genes)
    try:
        run = feed(sim.causalize(bound), problem.input_trace, kernels, bound.bindings)
    except CausalizeError:
        run = None
    outputs = sorted(problem.classification.outputs)
    return sim.score(run, problem.input_trace, outputs,
                     tuple(tuple(problem.reference_trace.columns[name]) for name in outputs),
                     kernels)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(GENOME_CONTAINERS)), st.integers(0, 2 ** 32), st.integers(0, 12))
def test_generated_genomes_score_from_their_genes_as_through_causalize(name, seed, steps):
    rng = random.Random(seed)
    problem = problem_from_container(_container(name))  # fresh tables and memo
    genomes = [generate_individual("cbc", problem, rng) for _ in range(3)]
    genomes.append(generate_individual("cbt", problem, rng))  # seldom constructible
    for _ in range(steps):
        a, b = rng.sample(genomes, 2)
        if rng.random() < 0.5:
            genomes.append(mutate("cbc", a, problem, rng))
        else:
            genomes += crossover("cbc", a, b, rng, problem)
    by_signature: dict = {}
    for genes in dict.fromkeys(c.genes for c in genomes):
        fit = problem.fitness_of(genes)
        assert repr(fit) == repr(_causalize_path_score(problem, genes)), (name, genes)
        signature = problem.signature(genes)
        assert (signature is None) == (not problem.constructible(genes))
        assert repr(by_signature.setdefault(signature, fit)) == repr(fit), (name, genes)


# ---------------------------------------------------------------------------
# The generated source
# ---------------------------------------------------------------------------

FIXED = {"def", "kernel", "for", "in", "zip", "if", "and", "or", "not",
         "else", "break", "return", "T", "I", "A", "h", "last", "k", "e", "S", "C", "E",
         "o", "x", "abs"}


def _identifiers(source: str) -> set:
    return {tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.NAME}


def _generated(ident: str) -> bool:
    return ident[0] in "vctdpar" and ident[1:].isdigit()


def _numbers(source: str) -> set:
    return {tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.NUMBER}


@settings(max_examples=100, deadline=None)
@given(plans())
def test_source_holds_no_names_or_constants_and_fixed_nesting(case):
    plan, _, outputs = case
    for scored in (False, True):
        source, _ = sim._kernel_source(structure(plan), len(outputs), scored)
        assert all(_generated(ident) for ident in _identifiers(source) - FIXED)
        assert all(n in ("0.0", "1.0") or n.isdigit() for n in _numbers(source))
        assert not any(tok.type == tokenize.STRING for tok in
                       tokenize.generate_tokens(io.StringIO(source).readline))
        assert max(len(line) - len(line.lstrip(" ")) for line in source.splitlines()) <= 2


def test_fixture_sources_hold_no_names_or_constants(all_cases):
    for case in all_cases.values():
        problem = case["problem"]
        bound = problem.bind(case["ground_truth"])
        by_name = structure(named(sim.causalize(bound), bound.bindings))
        for st, scored in itertools.product((problem.structure, by_name), (False, True)):
            source, _ = sim._kernel_source(st, len(problem.classification.outputs), scored)
            constants = {repr(n.value) for _, _, e in st.algebraic_order
                         for n in mexpr.iter_nodes(e) if isinstance(n, Const)}
            assert not (_identifiers(source) & {v.name for v in problem.vars.variables})
            assert all(n in ("0.0", "1.0") or n.isdigit() for n in _numbers(source))
            assert constants - {"0.0", "1.0"}, "the fixture has constants to look for"
            for text in constants - {"0.0", "1.0"}:
                assert text not in source


_PI_KERNEL_SOURCE = """
import json, sys
from construct import check, ga, sim
from construct.container import load_container
from construct.model import apply_assignment
root = sys.argv[1]
problem = ga.problem_from_container(load_container(root))
genes = json.load(open(root + "/ground_truth.json"))["genes"]
st = check.analyse(apply_assignment(problem.model, genes, problem.vars).equations)
for scored in (False, True):
    print(sim._kernel_source(st, len(problem.classification.outputs), scored)[0])
"""


def test_name_level_kernel_source_does_not_depend_on_the_hash_seed(pi_case):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(sim.__file__).resolve().parents[1])
    sources = set()
    # pi's two inputs, in set order, take both orders over these seeds
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _PI_KERNEL_SOURCE, str(pi_case["root"])],
                             env=env, capture_output=True, text=True, check=True, timeout=60)
        sources.add(out.stdout)
    assert len(sources) == 1
    header = next(line for line in sources.pop().splitlines() if "zip(T, *I)" in line)
    assert header.count(", v") >= 2, "pi's plan reads several input columns"
