"""Causalization and fixed-step simulation of bound models.

This is the internal stand-in for an external Modelica tool. What
causalization needs to know about an equation model (which equations
are state equations, how often each reference occurs, what each
equation solves to for each reference it can be solved for, and which
references must share a type) does not depend on the binding, so
`analyse` computes it once per model as a Structure. Each binding is
then checked against it: its types, its states, its balance, a maximum
matching of equations to unknowns, and a topological order of the
matched equations (BLT sorting). The plan keeps the Structure's own
references and expressions, and is integrated with forward Euler on the
input trace's time grid by a generated kernel: straight-line Python,
one statement per expression node, with mexpr.eval_expr as its
reference semantics. simulate compiles one for the plan on each call,
unless given a KernelCache, which compiles one per matching of a
problem's equations to its slots. Names, parameter values, state starts
and input columns reach a kernel as data, a column for each data slot;
KernelCache.signature tells which plans simulate alike. Models that
fail any static or runtime check are rejected, which is exactly how
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
from itertools import count

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

    @property
    def is_finite(self) -> bool:
        return self.mse is not None

    def sort_key(self):
        return (0, self.mse) if self.mse is not None else (1, 0.0)

    def __lt__(self, other: "Fitness") -> bool:
        return self.sort_key() < other.sort_key()


INVALID = Fitness(None)


@dataclass(frozen=True)
class SimPlan:
    """An executable plan over its Structure's own references and
    expressions: slot ids, each named by bindings, or variable names,
    with no bindings, for a name-level model."""

    state_vars: tuple  # of (ref, start, rhs expression), in model order
    algebraic_order: tuple  # of (equation index, solved ref, expression)
    param_env: dict  # ref -> value, for each parameter the equations read
    input_names: frozenset  # of refs
    bindings: tuple = ()  # the variable name at each slot

    def name(self, ref) -> str:
        """The variable name of a reference of this plan."""
        return self.bindings[ref] if self.bindings else ref

    @property
    def solved_names(self) -> dict:
        """The reference of each variable the plan solves for, by name."""
        return {self.name(r): r for r in
                [r for _, r, _ in self.algebraic_order] + [r for r, _, _ in self.state_vars]}


# ---------------------------------------------------------------------------
# Isolation (symbolic inversion along the path to the unknown)
# ---------------------------------------------------------------------------

def isolate_expression(lhs, rhs, name):
    """Solve ``lhs = rhs`` for name, which must occur exactly once.
    Returns the isolated expression or None when the path is not
    invertible (only +, -, *, / and unary minus invert)."""
    if name in mexpr.refs(lhs):
        expr, target = lhs, rhs
    else:
        expr, target = rhs, lhs
    while True:
        match expr:
            case mexpr.Sym(ref) if ref == name:
                return target
            case mexpr.Unary("neg", operand):
                expr, target = operand, mexpr.Unary("neg", target)
            case mexpr.Binary(op, a, b) if op in mexpr.NUMERIC_BINOPS:
                in_left = name in mexpr.refs(a)
                if op == "add":
                    expr, target = (a, mexpr.Binary("sub", target, b)) if in_left \
                        else (b, mexpr.Binary("sub", target, a))
                elif op == "sub":
                    expr, target = (a, mexpr.Binary("add", target, b)) if in_left \
                        else (b, mexpr.Binary("sub", a, target))
                elif op == "mul":
                    expr, target = (a, mexpr.Binary("div", target, b)) if in_left \
                        else (b, mexpr.Binary("div", target, a))
                else:  # div
                    expr, target = (a, mexpr.Binary("mul", target, b)) if in_left \
                        else (b, mexpr.Binary("div", a, target))
            case mexpr.Call() | mexpr.If() | mexpr.Unary() | mexpr.Binary():
                return None  # calls, conditionals, not, comparisons and logic
            case _:
                raise TypeError(f"not a ModelExpr holding {name!r}: {expr!r}")


# ---------------------------------------------------------------------------
# Structure: what causalization knows before any binding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Structure:
    """The binding-independent facts of an equation system, over its own
    references (slot ids, or variable names for a hand-built model)."""

    states: tuple  # of (state ref, right-hand side), in model order
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
    for lhs, rhs in equations:
        refs = mexpr.refs(lhs) + mexpr.refs(rhs)
        occurring.update(refs)
        if isinstance(lhs, mexpr.Der):
            states.append((lhs.ref, rhs))
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
    its bindings, or else its own, analysed over its names. The plan
    keeps the Structure's references and expressions as they are. State
    equations bind their state directly. The remaining equations are
    matched one-to-one to the remaining unknowns (one occurrence, and
    isolatable), tried in name order; matched equations are then ordered
    topologically. A state without a start value starts at 0.0.
    """
    if len(set(b.bindings)) != len(b.bindings):
        dupes = sorted({n for n in b.bindings if b.bindings.count(n) > 1})
        raise DuplicateBinding(f"variables bound to several slots: {', '.join(dupes)}")
    if b.structure is None:
        st, name = analyse(b.equations), (lambda r: r)
    else:
        st, name = b.structure, b.bindings.__getitem__

    var = {v.name: v for v in b.variable_table.variables}
    for demanded, members, ordered in st.type_groups:
        types = demanded | {var[name(r)].vtype for r in members}
        if len(types) > 1 or (ordered and "Boolean" in types):
            raise IllTypedModel(f"{sorted(map(name, members))} typed {sorted(types)}"
                                + (" under an ordering comparison" if ordered else ""))

    state_vars = []
    for ref, rhs in st.states:
        state = var[name(ref)]
        if state.causality not in ("output", "local"):
            raise InvalidStateVariable(
                f"der() of {state.causality} variable {state.name!r}")
        if any(ref == s for s, _, _ in state_vars):
            raise CausalizeError(f"two state equations for {state.name!r}")
        state_vars.append((ref, 0.0 if state.start is None else float(state.start), rhs))

    ref_of = {name(r): r for r in st.occurring}
    for v in var.values():
        if v.causality == "input" and v.name not in ref_of:
            raise UnusedInput(v.name)

    # The unknowns in name order. An output the equations do not hold
    # stays its name, which no equation can be solved for.
    unknowns = sorted(n for n, v in var.items() if v.causality == "output"
                      or v.causality == "local" and n in ref_of)
    states = {s for s, _, _ in state_vars}
    to_solve = [r for r in (ref_of.get(n, n) for n in unknowns) if r not in states]
    if len(st.counts) != len(to_solve):
        raise UnbalancedSystem(len(st.counts), len(to_solve))

    # Edges pair an equation with an unknown it can actually be solved
    # for: one occurrence, invertible path.
    matched = _max_matching([[u for u in to_solve if u in iso] for iso in st.isolated])
    if len(matched) != len(to_solve):
        _diagnose_matching_failure(st, name, to_solve)

    solved = {eq: u for u, eq in matched.items()}
    deps = {i: {matched[u] for u in st.counts[i] if u in matched and u != solved[i]}
            for i in solved}
    order, stuck = topological_order(deps)
    if stuck:
        raise AlgebraicLoop(sorted(name(solved[i]) for i in stuck))

    param_env = {r: float(var[name(r)].start) for r in sorted(st.occurring)
                 if var[name(r)].causality == "parameter"}
    inputs = frozenset(ref_of[n] for n, v in var.items() if v.causality == "input")
    algebraic_order = tuple((i, solved[i], st.isolated[i][solved[i]]) for i in order)
    return SimPlan(tuple(state_vars), algebraic_order, param_env, inputs,
                   () if b.structure is None else b.bindings)


def _diagnose_matching_failure(st: Structure, name, to_solve) -> None:
    """Distinguish the reason no perfect matching exists. A perfect
    matching over single occurrences must use a pair that cannot be
    isolated; one over any occurrence must use a repeated one."""
    once = _max_matching([[u for u in to_solve if count.get(u) == 1]
                          for count in st.counts])
    if len(once) == len(to_solve):
        raise NotIsolatable(min(i for u, i in once.items() if u not in st.isolated[i]))
    if len(_max_matching([[u for u in to_solve if u in count]
                          for count in st.counts])) == len(to_solve):
        raise MultipleOccurrence(*next((name(u), i) for i, count in enumerate(st.counts)
                                       for u in to_solve if count.get(u, 0) > 1))
    raise StructurallySingular(
        f"no perfect matching between {len(st.counts)} equations and "
        f"{len(to_solve)} unknowns")


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

# Source of the kernel statement for each operator. A comparison or a
# logical operator yields 1.0/0.0, and `and`/`or` read both operands, as
# in mexpr.eval_expr.
_BINARY = {
    "add": "{} + {}", "sub": "{} - {}", "mul": "{} * {}", "div": "{} / {}",
    "lt": "1.0 if {} < {} else 0.0", "le": "1.0 if {} <= {} else 0.0",
    "gt": "1.0 if {} > {} else 0.0", "ge": "1.0 if {} >= {} else 0.0",
    "eq": "1.0 if {} == {} else 0.0", "ne": "1.0 if {} != {} else 0.0",
    "and": "1.0 if {} != 0.0 and {} != 0.0 else 0.0",
    "or": "1.0 if {} != 0.0 or {} != 0.0 else 0.0",
}
_UNARY = {"neg": "-{}", "not": "0.0 if {} != 0.0 else 1.0"}
_CALLS = {"min": "min({}, {})", "max": "max({}, {})", "abs": "abs({})"}


def _evaluated_der():
    """Raise mexpr.eval_expr's error for der() in an evaluated position."""
    return mexpr.eval_expr(mexpr.Der(None), {})


class _KernelSource:
    """The statements of one plan's per-sample loop, one per expression
    node. Variables, constants and temporaries live in generated locals
    (v*, c*, t*); variable names and constant values stay out of the
    source and reach the kernel as data."""

    def __init__(self):
        self.lines: list = []
        self.vars: dict = {}  # ref -> local
        self.consts: dict = {}  # (type, repr) -> (local, value)
        self.temps, self.guards = count(), count()  # numbering t* and g*
        self.labels: list = []  # (error label template, ref), indexed in L
        self.label = None  # of the expression being emitted, until recorded

    def var(self, ref) -> str:
        return self.vars.setdefault(ref, f"v{len(self.vars)}")

    def const(self, value) -> str:
        if isinstance(value, bool):
            value = 1.0 if value else 0.0
        # by repr, so that 0.0 and -0.0 stay apart
        key = (type(value), repr(value))
        if key not in self.consts:
            self.consts[key] = (f"c{len(self.consts)}", value)
        return self.consts[key][0]

    def expression(self, e, dest: str, label: str, ref) -> None:
        """Emit the statements that compute e into dest. Its first
        division records label, formatted with the name of ref, for
        DivisionByZero in w."""
        self.label = (label, ref)
        self._node(e, None, dest)

    def check_finite(self, local: str, ref) -> None:
        self.lines.append(f"if {local} - {local}: raise F(T[k], L[{len(self.labels)}])")
        self.labels.append(("{}", ref))

    def _node(self, e, guard, dest=None) -> str:
        """Emit the statements computing e on the samples where guard
        holds (all, for None); return the local that holds its value.
        Each statement sits one block below the loop at most: an If
        branch is a guard flag, and its statements are predicated on it."""
        when = f"if {guard}: " if guard else ""
        match e:
            case mexpr.Sym() | mexpr.Const():
                leaf = self.var(e.ref) if isinstance(e, mexpr.Sym) else self.const(e.value)
                if dest is None:
                    return leaf
                self.lines.append(f"{when}{dest} = {leaf}")
                return dest
            case mexpr.If():
                dest = dest or f"t{next(self.temps)}"
                cond = self._node(e.cond, guard)
                then, orelse = f"g{next(self.guards)}", f"g{next(self.guards)}"
                held = f"{guard} and " if guard else ""
                self.lines += [f"{then} = {held}{cond} != 0.0",
                               f"{orelse} = {held}{cond} == 0.0"]
                self._node(e.then, then, dest)
                self._node(e.orelse, orelse, dest)
                return dest
            case mexpr.Der():
                text = "E()"
            case mexpr.Binary(op) if op in _BINARY:
                text = _BINARY[op]
            case mexpr.Unary(op) if op in _UNARY:
                text = _UNARY[op]
            case mexpr.Call(fn) if fn in _CALLS:
                text = _CALLS[fn]
            case _:
                raise TypeError(f"not a ModelExpr: {e!r}")
        dest = dest or f"t{next(self.temps)}"
        operands = [self._node(c, guard) for c in mexpr.children(e)]
        if isinstance(e, mexpr.Binary) and e.op == "div" and self.label is not None:
            self.lines.append(f"w = {len(self.labels)}")
            self.labels.append(self.label)
            self.label = None
        self.lines.append(f"{when}{dest} = {text.format(*operands)}")
        return dest


def _data_slots(plan: SimPlan) -> tuple:
    """The refs a kernel reads a column for each sample, sorted: the
    inputs and the parameters the equations read, less the states, which
    keep their Euler values."""
    states = {r for r, _, _ in plan.state_vars}
    return tuple(sorted(plan.input_names.union(plan.param_env) - states))


def _kernel_source(plan: SimPlan, out_names) -> tuple:
    """The source of the kernel for plan and the namespace it runs in,
    which also holds the kernel's data layout under "layout".

    kernel(T, I, A, S, L, h, last) runs the loop over the times T. I and
    A hold a column for each data slot (see _data_slots; a parameter's
    column repeats its value) and the append methods of the lists
    recording out_names, in the layout's orders of refs; S the state
    starts; L the layout's error label templates, formatted with names;
    h is the step and last the index of the last sample. Its locals
    follow the env of the tree walk statement by statement, so the
    results are bit-identical. `if x - x:` is the finiteness check: x - x
    is 0.0 for a finite x and nan for inf and nan.
    """
    src = _KernelSource()
    loop = src.lines
    reads = _data_slots(plan)
    for j, ref in enumerate(reads):
        loop.append(f"{src.var(ref)} = i{j}[k]")
    for eq_index, ref, expr in plan.algebraic_order:
        src.expression(expr, src.var(ref), f"equation {eq_index}", ref)
        src.check_finite(src.var(ref), ref)
    for j, ref in enumerate(out_names):
        loop.append(f"a{j}({src.var(ref)})")
    if plan.state_vars:
        loop.append("if k == last: break")
        for j, (ref, _, rhs) in enumerate(plan.state_vars):
            src.expression(rhs, f"d{j}", "der({})", ref)
        for j, (ref, _, _) in enumerate(plan.state_vars):
            local = src.var(ref)
            loop.append(f"{local} = {local} + h * d{j}")
            src.check_finite(local, ref)

    head = ["def kernel(T, I, A, S, L, h, last):"]
    for targets, data in (
            ([src.var(r) for r, _, _ in plan.state_vars], "S"),
            ([c for c, _ in src.consts.values()], "C"),
            ([f"i{j}" for j in range(len(reads))], "I"),
            ([f"a{j}" for j in range(len(out_names))], "A")):
        if targets:
            head.append(f" {', '.join(targets)}, = {data}")
    source = "\n".join(head + [" try:", "  for k in range(len(T)):"]
                       + [f"   {line}" for line in loop]
                       + [" except ZeroDivisionError:",
                          "  raise DivisionByZero(T[k], L[w]) from None", ""])
    namespace = {"C": tuple(value for _, value in src.consts.values()),
                 "E": _evaluated_der, "F": NonFiniteValue, "DivisionByZero": DivisionByZero,
                 "layout": (reads, tuple(out_names), tuple(src.labels))}
    return source, namespace


def _compile_kernel(plan: SimPlan, recorded) -> tuple:
    """The kernel of plan, recording recorded, and its data layout: (run,
    refs of I, refs of A, labels), see _kernel_source."""
    source, namespace = _kernel_source(plan, recorded)
    exec(compile(source, "<simulate kernel>", "exec"), namespace)
    # popped, so that the namespace and the kernel form no reference cycle
    return (namespace.pop("kernel"), *namespace.pop("layout"))


class KernelCache:
    """The kernels of one problem's slot-level plans, compiled once per
    matching, and the step of the last input grid checked. The matching,
    the (algebraic equation, solved slot) pairs in plan order, fixes the
    source, since every plan of a problem shares its Structure's
    expressions, states and data slots (the occurring slots neither
    solved nor states); its kernel reads a column for every data slot and
    records every solved slot, so names, values and outputs reach it as
    data."""

    def __init__(self):
        self.kernels: dict = {}
        self.grid = (None, None)  # (times, step)

    def step(self, times) -> float:
        if self.grid[0] is not times:
            self.grid = (times, grid_step(times))
        return self.grid[1]

    @staticmethod
    def matching(plan: SimPlan) -> tuple:
        """The kernel key of a plan causalized at slot level."""
        return tuple((i, s) for i, s, _ in plan.algebraic_order)

    def kernel(self, plan: SimPlan) -> tuple:
        """The compiled kernel of a plan causalized at slot level."""
        key = self.matching(plan)
        if key not in self.kernels:
            self.kernels[key] = _compile_kernel(plan, sorted(plan.solved_names.values()))
        return self.kernels[key]

    def signature(self, plan: SimPlan, outputs) -> tuple:
        """Everything the simulation of a slot-level plan, with outputs
        recorded, depends on: the kernel key, what each data slot reads
        (an input name, or a parameter value, each by repr so that they
        cannot meet, nor 0.0 and -0.0), the state starts by repr and the
        slot of each output. Plans with equal signatures simulate alike."""
        solved = plan.solved_names
        return (self.matching(plan),
                tuple(repr(plan.name(r) if r in plan.input_names else plan.param_env[r])
                      for r in _data_slots(plan)),
                tuple(repr(start) for _, start, _ in plan.state_vars),
                tuple(solved.get(name) for name in sorted(outputs)))


def grid_step(times) -> float:
    """The step of a uniform time grid; NonUniformGrid otherwise."""
    h = times[1] - times[0]
    for a, t in zip(times, times[1:]):
        if abs((t - a) - h) > GRID_RTOL * abs(h):
            raise NonUniformGrid(f"non-uniform sample spacing near t={t}")
    return h


def simulate(plan: SimPlan, inputs: Trace, outputs_of_interest,
             kernels: KernelCache | None = None) -> Trace:
    """Forward Euler on the trace grid: read inputs (zero-order hold),
    evaluate algebraic equations, record outputs, advance states.

    The per-sample loop is a kernel compiled from the plan for this call,
    recording only the outputs of interest, or, with kernels, the one of
    the plan's matching (see _kernel_source); mexpr.eval_expr is its
    reference semantics."""
    for name in sorted(map(plan.name, plan.input_names)):
        if name not in inputs.columns:
            raise MissingInput(name)
    solved = plan.solved_names
    out_names = sorted(outputs_of_interest)
    for name in out_names:
        if name not in solved:
            raise SimulateError(f"output {name!r} is not computed by the plan")

    times = inputs.times
    if kernels is None:
        h, kernel = grid_step(times), _compile_kernel(plan, [solved[n] for n in out_names])
    else:
        h, kernel = kernels.step(times), kernels.kernel(plan)
    run, reads, recorded, labels = kernel
    columns = [[] for _ in recorded]
    run(times, tuple(inputs.columns[plan.name(r)] if r in plan.input_names
                     else (plan.param_env[r],) * len(times) for r in reads),
        tuple(column.append for column in columns),
        tuple(start for _, start, _ in plan.state_vars),
        tuple(label.format(plan.name(r)) for label, r in labels), h, len(times) - 1)
    by_name = dict(zip(map(plan.name, recorded), columns))
    return Trace(times, {n: tuple(by_name[n]) for n in out_names})


def fitness(candidate: BoundModel, inputs: Trace, reference: Trace) -> Fitness:
    """Mean squared output distance against the reference; any causalize
    or simulate failure folds into Invalid."""
    try:
        plan = causalize(candidate)
    except CausalizeError:
        plan = None
    outputs = check.classify_variables(candidate.variable_table).outputs
    return score(plan, inputs, reference, outputs)


def score(plan: SimPlan | None, inputs: Trace, reference: Trace, outputs,
          kernels: KernelCache | None = None) -> Fitness:
    """Mean squared distance of the plan's outputs, simulated with
    kernels, from the reference. No plan (the model does not causalize),
    a simulate failure and a sum of squares that overflows all fold into
    Invalid."""
    for name in outputs:
        if name not in reference.columns:
            raise ValueError(f"reference trace lacks output column {name!r}")
    if plan is None:
        return INVALID
    try:
        result = simulate(plan, inputs, outputs, kernels)
    except SimError:
        return INVALID
    if len(result.times) != len(reference.times):
        raise ValueError("reference and simulation grids differ in length")
    sq = [(y - r) * (y - r) for name in outputs
          for y, r in zip(result.columns[name], reference.columns[name])]
    try:
        mse = math.fsum(sq) / len(sq)
    except OverflowError:  # finite squares whose sum overflows
        return INVALID
    return Fitness.finite(mse) if math.isfinite(mse) else INVALID
