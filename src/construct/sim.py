"""Causalization and fixed-step simulation of bound models.

This is the internal stand-in for an external Modelica tool. What
causalization needs to know about an equation model (which equations
are state equations, how often each reference occurs, what each
equation solves to for each reference it can be solved for, and which
references must share a type) does not depend on the binding, so
`analyse` computes it once per model as a Structure. Each binding is
then checked against it: its types, its states, its balance, a maximum
matching of equations to unknowns, and a topological order of the
matched equations (BLT sorting). The resulting plan is integrated with
forward Euler on the input trace's time grid. Models that fail any
static or runtime check are rejected, which is exactly how
non-simulatable candidates are discovered.

Static rejection is deliberately at least as strict as the constraint
validator: with the slot-level Structure, whose type groups carry the
slots' inferred types, a mapping that violates C0 through C4 never
causalizes, let alone simulates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import total_ordering

from construct import check, mexpr
from construct.container import Trace
from construct.errors import ConstructError
from construct.model import BoundModel

GRID_RTOL = 1e-9


class SimError(ConstructError):
    pass


class CausalizeError(SimError):
    pass


class DuplicateBinding(CausalizeError):
    pass


class IllTypedModel(CausalizeError):
    pass


class InvalidStateVariable(CausalizeError):
    pass


class UnusedInput(CausalizeError):
    pass


class UnbalancedSystem(CausalizeError):
    def __init__(self, n_eq: int, n_unknowns: int):
        self.n_eq = n_eq
        self.n_unknowns = n_unknowns
        super().__init__(f"{n_eq} algebraic equations for {n_unknowns} unknowns")


class StructurallySingular(CausalizeError):
    pass


class AlgebraicLoop(CausalizeError):
    def __init__(self, members):
        self.members = tuple(members)
        super().__init__(f"algebraic loop through {', '.join(self.members)}")


class NotIsolatable(CausalizeError):
    def __init__(self, eq_index: int):
        self.eq_index = eq_index
        super().__init__(f"equation {eq_index}: matched unknown cannot be isolated")


class MultipleOccurrence(CausalizeError):
    def __init__(self, name: str, eq_index: int):
        self.name = name
        self.eq_index = eq_index
        super().__init__(f"equation {eq_index}: {name!r} occurs more than once")


class SimulateError(SimError):
    pass


class DivisionByZero(SimulateError):
    def __init__(self, t: float, eq: str):
        super().__init__(f"division by zero at t={t} in {eq}")


class NonFiniteValue(SimulateError):
    def __init__(self, t: float, name: str):
        super().__init__(f"non-finite value for {name!r} at t={t}")


class MissingInput(SimulateError):
    def __init__(self, name: str):
        super().__init__(f"input trace lacks column {name!r}")


class NonUniformGrid(SimulateError):
    pass


@total_ordering
@dataclass(frozen=True)
class Fitness:
    """Either a finite MSE or Invalid; Invalid orders worse than any
    finite value."""

    mse: float | None  # None encodes Invalid

    @classmethod
    def finite(cls, mse: float) -> "Fitness":
        if not (math.isfinite(mse) and mse >= 0.0):
            raise ValueError(f"not a valid MSE: {mse}")
        return cls(mse)

    @classmethod
    def invalid(cls) -> "Fitness":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.mse is not None

    def sort_key(self):
        return (0, self.mse) if self.mse is not None else (1, 0.0)

    def __lt__(self, other: "Fitness") -> bool:
        return self.sort_key() < other.sort_key()


INVALID = Fitness.invalid()


@dataclass(frozen=True)
class SimPlan:
    state_vars: tuple  # of (name, start, rhs expression), in model order
    algebraic_order: tuple  # of (equation index, solved name, expression)
    param_env: dict
    input_names: frozenset

    @property
    def solved_names(self) -> frozenset:
        return frozenset(n for _, n, _ in self.algebraic_order) \
            | frozenset(n for n, _, _ in self.state_vars)


# ---------------------------------------------------------------------------
# Isolation (symbolic inversion along the path to the unknown)
# ---------------------------------------------------------------------------

def _contains(e, name) -> bool:
    return name in mexpr.refs(e)


def isolate_expression(lhs, rhs, name):
    """Solve ``lhs = rhs`` for name, which must occur exactly once.
    Returns the isolated expression or None when the path is not
    invertible (only +, -, *, / and unary minus invert)."""
    if _contains(lhs, name):
        expr, target = lhs, rhs
    else:
        expr, target = rhs, lhs
    while True:
        if isinstance(expr, mexpr.Sym) and expr.ref == name:
            return target
        if isinstance(expr, mexpr.Unary) and expr.op == "neg":
            expr, target = expr.operand, mexpr.Unary("neg", target)
            continue
        if isinstance(expr, mexpr.Binary) and expr.op in mexpr.NUMERIC_BINOPS:
            a, b = expr.left, expr.right
            in_left = _contains(a, name)
            if expr.op == "add":
                expr, target = (a, mexpr.Binary("sub", target, b)) if in_left \
                    else (b, mexpr.Binary("sub", target, a))
            elif expr.op == "sub":
                expr, target = (a, mexpr.Binary("add", target, b)) if in_left \
                    else (b, mexpr.Binary("sub", a, target))
            elif expr.op == "mul":
                expr, target = (a, mexpr.Binary("div", target, b)) if in_left \
                    else (b, mexpr.Binary("div", target, a))
            else:  # div
                expr, target = (a, mexpr.Binary("mul", target, b)) if in_left \
                    else (b, mexpr.Binary("div", a, target))
            continue
        return None


# ---------------------------------------------------------------------------
# Structure: what causalization knows before any binding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Structure:
    """The binding-independent facts of an equation system, over its own
    references (slot ids, or variable names for a hand-built model)."""

    states: tuple  # of (state ref, equation index), in model order
    counts: tuple  # per algebraic equation: {ref: occurrences}, first use first
    isolated: tuple  # per algebraic equation: {ref: isolated expression}
    occurring: frozenset  # every ref in the equations
    type_groups: tuple  # of (demanded types, member refs, ordering-compared)


def analyse(equations, slots=()) -> Structure:
    """Compute the Structure of an equation system once.

    `isolated` holds, in first-use order, the refs an algebraic equation
    can be solved for (one occurrence, invertible path). Type groups come
    from check.unify_types; a clash of constants, or an ordering of
    Boolean constants, is a group without members that no binding meets.
    """
    states, counts, isolated, occurring = [], [], [], set()
    for index, (lhs, rhs) in enumerate(equations):
        refs = mexpr.refs(lhs) + mexpr.refs(rhs)
        occurring.update(refs)
        if isinstance(lhs, mexpr.Der):
            states.append((lhs.ref, index))
            continue
        count = Counter(refs)
        counts.append(count)
        isolated.append({r: e for r in count if count[r] == 1
                         and (e := isolate_expression(lhs, rhs, r)) is not None})
    try:
        groups, ordered = check.unify_types(equations, slots)
    except check.TypeConflict as exc:
        type_groups = ((frozenset(exc.demands), (), False),)
    else:
        members: dict = {}
        for r in sorted(occurring):
            members.setdefault(groups.find(r), []).append(r)
        ordered_roots = {groups.find(ref) for kind, ref in ordered if kind == "slot"}
        type_groups = tuple((frozenset(groups.demands[root]), tuple(rs),
                             root in ordered_roots) for root, rs in members.items())
        if ("type", "Boolean") in ordered:
            type_groups += ((frozenset({"Boolean"}), (), True),)
    return Structure(tuple(states), tuple(counts), tuple(isolated),
                     frozenset(occurring), type_groups)


def _max_matching(edges: list) -> dict:
    """Augmenting-path bipartite matching of equation i to the unknowns in
    edges[i], tried in list order; returns {unknown: eq_index}."""
    matched: dict = {}

    def augment(eq: int, visited: set) -> bool:
        for u in edges[eq]:
            if u in visited:
                continue
            visited.add(u)
            if u not in matched or augment(matched[u], visited):
                matched[u] = eq
                return True
        return False

    for eq in range(len(edges)):
        augment(eq, set())
    return matched


def topological_order(deps: dict) -> tuple:
    """Kahn's algorithm in levels over the sorted keys of deps, which maps
    each item to the items that must come before it. Returns the order
    and the items left over, which lie on or behind a cycle."""
    order, placed, remaining = [], set(), sorted(deps)
    while remaining:
        level = [i for i in remaining if deps[i] <= placed]
        if not level:
            break
        order.extend(level)
        placed.update(level)
        remaining = [i for i in remaining if i not in placed]
    return order, remaining


# ---------------------------------------------------------------------------
# Causalization
# ---------------------------------------------------------------------------

def causalize(b: BoundModel) -> SimPlan:
    """Build an executable plan from a bound model, or reject it.

    The model's Structure is the slot-level one it carries, read through
    its bindings, or else its own, analysed over its names. State
    equations bind their state directly. The remaining equations are
    matched one-to-one to the remaining unknowns, where a match requires
    the unknown to occur exactly once and be isolatable; matched
    equations are then ordered topologically. A state without a start
    value starts at 0.0.
    """
    if len(set(b.bindings)) != len(b.bindings):
        dupes = sorted({n for n in b.bindings if b.bindings.count(n) > 1})
        raise DuplicateBinding(f"variables bound to several slots: {', '.join(dupes)}")
    if b.structure is None:
        st, name = analyse(b.equations), (lambda r: r)
    else:
        st, name = b.structure, b.bindings.__getitem__

    table = b.variable_table
    vtype = {v.name: v.vtype for v in table.variables}
    for demanded, members, ordered in st.type_groups:
        types = demanded | {vtype[name(r)] for r in members}
        if len(types) > 1 or (ordered and "Boolean" in types):
            raise IllTypedModel(f"{sorted(map(name, members))} typed {sorted(types)}"
                                + (" under an ordering comparison" if ordered else ""))

    causality = {v.name: v.causality for v in table.variables}
    state_vars = []
    for ref, index in st.states:
        state = name(ref)
        if causality[state] not in ("output", "local"):
            raise InvalidStateVariable(
                f"der() of {causality[state]} variable {state!r}")
        if any(state == s for s, _, _ in state_vars):
            raise CausalizeError(f"two state equations for {state!r}")
        start = table.by_name(state).start
        state_vars.append((state, 0.0 if start is None else _as_real(start),
                           b.equations[index][1]))

    occurring = {name(r) for r in st.occurring}
    cls = check.classify_variables(table)
    for input_name in cls.inputs:
        if input_name not in occurring:
            raise UnusedInput(input_name)

    unknowns = (occurring & cls.unknowns) | set(cls.outputs)
    to_solve = sorted(unknowns - {s for s, _, _ in state_vars})
    if len(st.counts) != len(to_solve):
        raise UnbalancedSystem(len(st.counts), len(to_solve))

    # Edges pair an equation with an unknown it can actually be solved
    # for: one occurrence, invertible path.
    unknowns = set(to_solve)
    isolated = [{name(r): e for r, e in iso.items()} for iso in st.isolated]
    matched = _max_matching([sorted(u for u in iso if u in unknowns)
                             for iso in isolated])
    if len(matched) != len(to_solve):
        _diagnose_matching_failure(st, name, to_solve, isolated)

    solved = {eq: u for u, eq in matched.items()}
    deps = {i: {matched[u] for u in map(name, st.counts[i])
                if u in matched and u != solved[i]} for i in solved}
    order, stuck = topological_order(deps)
    if stuck:
        raise AlgebraicLoop(sorted(solved[i] for i in stuck))

    param_env = {v.name: _as_real(v.start) for v in table.variables
                 if v.causality == "parameter"}
    algebraic_order = tuple(
        (i, solved[i], mexpr.map_refs(isolated[i][solved[i]], name)) for i in order)
    return SimPlan(tuple(state_vars), algebraic_order, param_env,
                   frozenset(cls.inputs))


def _as_real(value) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    return float(value)


def _diagnose_matching_failure(st: Structure, name, to_solve, isolated) -> None:
    """Distinguish the reason no perfect matching exists. A perfect
    matching over single occurrences must use a pair that cannot be
    isolated; one over any occurrence must use a repeated one."""
    counts = [{name(r): c for r, c in count.items()} for count in st.counts]
    once = _max_matching([[u for u in to_solve if count.get(u) == 1]
                          for count in counts])
    if len(once) == len(to_solve):
        raise NotIsolatable(min(i for u, i in once.items() if u not in isolated[i]))
    if len(_max_matching([[u for u in to_solve if u in count]
                          for count in counts])) == len(to_solve):
        raise MultipleOccurrence(*next((u, i) for i, count in enumerate(counts)
                                       for u in to_solve if count.get(u, 0) > 1))
    raise StructurallySingular(
        f"no perfect matching between {len(counts)} equations and "
        f"{len(to_solve)} unknowns")


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate(plan: SimPlan, inputs: Trace, outputs_of_interest) -> Trace:
    """Forward Euler on the trace grid: read inputs (zero-order hold),
    evaluate algebraic equations, record outputs, advance states."""
    for name in sorted(plan.input_names):
        if name not in inputs.columns:
            raise MissingInput(name)
    for name in sorted(outputs_of_interest):
        if name not in plan.solved_names:
            raise SimulateError(f"output {name!r} is not computed by the plan")

    times = inputs.times
    h = times[1] - times[0]
    for a, t in zip(times, times[1:]):
        if abs((t - a) - h) > GRID_RTOL * abs(h):
            raise NonUniformGrid(f"non-uniform sample spacing near t={t}")

    env = dict(plan.param_env)
    for name, start, _ in plan.state_vars:
        env[name] = start

    out_names = sorted(outputs_of_interest)
    recorded = {n: [] for n in out_names}
    n = len(times)
    for k in range(n):
        t = times[k]
        for name in plan.input_names:
            env[name] = inputs.columns[name][k]
        for eq_index, name, expr in plan.algebraic_order:
            try:
                value = mexpr.eval_expr(expr, env)
            except ZeroDivisionError:
                raise DivisionByZero(t, f"equation {eq_index}") from None
            if not math.isfinite(value):
                raise NonFiniteValue(t, name)
            env[name] = value
        for name in out_names:
            recorded[name].append(env[name])
        if k + 1 < n:
            ders = []
            for name, _, rhs in plan.state_vars:
                try:
                    ders.append(mexpr.eval_expr(rhs, env))
                except ZeroDivisionError:
                    raise DivisionByZero(t, f"der({name})") from None
            for (name, _, _), d in zip(plan.state_vars, ders):
                nxt = env[name] + h * d
                if not math.isfinite(nxt):
                    raise NonFiniteValue(t, name)
                env[name] = nxt

    return Trace(times, {name: tuple(vals) for name, vals in recorded.items()})


def fitness(candidate: BoundModel, inputs: Trace, reference: Trace) -> Fitness:
    """Mean squared output distance against the reference; any causalize
    or simulate failure folds into Invalid."""
    outputs = check.classify_variables(candidate.variable_table).outputs
    for name in outputs:
        if name not in reference.columns:
            raise ValueError(f"reference trace lacks output column {name!r}")
    try:
        plan = causalize(candidate)
        result = simulate(plan, inputs, outputs)
    except SimError:
        return INVALID
    if len(result.times) != len(reference.times):
        raise ValueError("reference and simulation grids differ in length")
    sq = []
    for name in outputs:
        ys = result.columns[name]
        rs = reference.columns[name]
        sq.extend((y - r) * (y - r) for y, r in zip(ys, rs))
    return Fitness.finite(math.fsum(sq) / len(sq))
