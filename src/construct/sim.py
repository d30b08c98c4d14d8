"""Causalization and fixed-step simulation of bound models.

This is the internal stand-in for an external Modelica tool. The
decompiled step function is executable, so its equations are causal
already, in code order: each algebraic equation is solved for the
reference it writes, and each state equation integrates its state. What
causalization knows about an equation model therefore does not depend
on the binding, and check.analyse computes it once per model as a
Structure, or finds the equation that admits no causal order. A binding
is then only checked against it, by the one function that states the
binding rules, check.binding_faults, which constraint validation also
reports from. A Structure's own order, references and expressions are
integrated with forward Euler on the input trace's time grid by a
generated kernel: straight-line Python, with mexpr.eval_expr as its
reference semantics. Its loop zips the sample indices, not the times,
with one iterable per data slot (Structure.reads), binds no per-sample
time and records a fixed number of outputs;
a scored kernel also zips each output's reference column and records
the output's squared error in its place, so that score only sums what
simulate returns. The kernel computes each equation as one expression,
as lazy as the tree walk in If, `and` and `or`, stores the outputs by
sample index, and checks finiteness per sample only at the watched
refs, where a non-finite value could hide from every later check, and
once at the end over every solved value. When a run raises or fails its
end check, simulate re-runs the Structure from the start by a tree walk
over mexpr.eval_expr, which checks every solved value at every sample
and names the fault; its result or error is the answer. simulate runs a
Feed through a KernelCache, which is built from one Structure, a
problem's: it compiles that Structure's kernel once per number of
outputs and recording or scored. What a genome decides reaches a kernel
as data, in its Feed: what each data slot reads, an input column or a
parameter's value, the state starts, and the names of the solved refs,
by which outputs are found and faults named. A search builds the Feed
from its genes, over input and reference columns that its problem
checks once for every way of scoring and copies into tuples
(GaProblem.scoring), which the kernel zips without boxing a value;
simulating one mapping builds it from the genes too, over the trace's
packed array('d') columns, one boxing pass per run. Models that fail any
static or runtime check are rejected, which is exactly how
non-simulatable candidates are discovered.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import total_ordering
from itertools import chain, count, islice
from operator import sub

from construct import check, mexpr
from construct.container import Trace
from construct.errors import ConstructError
from construct.model import BoundModel

GRID_RTOL = 1e-9


class SimulateError(ConstructError):
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
    expressions: slot ids, or variable names for a name-level model."""

    state_vars: tuple  # of (ref, start, rhs expression), in model order
    algebraic_order: tuple  # of (equation index, solved ref, expression)
    param_env: dict  # ref -> value, for each parameter the equations read
    input_names: frozenset  # of refs


@dataclass(frozen=True)
class Feed:
    """What one run of a Structure's kernel reads that its genome decides:
    for each data slot (Structure.reads), an input column or an endless
    repeat of a parameter's value; each state's start, in state order;
    and the variable name of each solved ref, in kernel order (_solved),
    by which outputs are found and faults named."""

    data: tuple
    starts: tuple
    names: tuple


# ---------------------------------------------------------------------------
# Causalization
# ---------------------------------------------------------------------------

def causalize(b: BoundModel) -> SimPlan:
    """Build an executable plan from a bound model, or reject it.

    The model's Structure is the slot-level one it carries, read through
    its bindings, or else its own, analysed over its names with its
    init function's stores (BoundModel.inits). The first
    fault of check.binding_faults is raised. Otherwise the Structure's
    code order is the plan's, and the references the equations only read
    hold the inputs and parameters. A state without a start value starts
    at 0.0 (check.start_of).
    """
    st = check.analyse(b.equations, inits=b.inits) if b.structure is None else b.structure
    for _, fault in check.binding_faults(st, b.variable_table, b.bindings):
        raise fault.with_traceback(None)
    var = b.variable_table.by_name
    of = [var[n] for n in b.bindings] if st.slots else var  # each ref's variable
    return SimPlan(
        tuple((r, check.start_of(of[r]), rhs) for r, rhs in st.states),
        st.algebraic_order,
        {r: check.start_of(of[r]) for r in st.reads if of[r].causality == "parameter"},
        frozenset(r for r in st.reads if of[r].causality == "input"))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

# Source of each operator over its operands, a subexpression of the
# kernel, which _inline puts in parentheses. A comparison or a logical
# operator yields 1.0/0.0. As in mexpr.eval_expr, Python's own `and`/`or`
# compute their right operand only where the left one does not decide.
_BINARY = {
    "add": "{} + {}", "sub": "{} - {}", "mul": "{} * {}", "div": "{} / {}",
    "lt": "1.0 if {} < {} else 0.0", "le": "1.0 if {} <= {} else 0.0",
    "gt": "1.0 if {} > {} else 0.0", "ge": "1.0 if {} >= {} else 0.0",
    "eq": "1.0 if {} == {} else 0.0", "ne": "1.0 if {} != {} else 0.0",
    "and": "1.0 if {} != 0.0 and {} != 0.0 else 0.0",
    "or": "1.0 if {} != 0.0 or {} != 0.0 else 0.0",
}
_UNARY = {"neg": "-{}", "not": "0.0 if {} != 0.0 else 1.0"}
# The deepest nesting of parentheses in a kernel's expression, well below
# the 200 that CPython's parser accepts; a deeper operand is spilled to a
# temporary first.
MAX_NESTING = 50


def _evaluated_der():
    """Raise mexpr.eval_expr's error for der() in an evaluated position."""
    return mexpr.eval_expr(mexpr.Der(None), {})


class _KernelSource:
    """The statements of one Structure's per-sample loop, one expression per
    equation. Variables, constants and temporaries live in generated
    locals (v*, c*, t*); variable names and constant values stay out of
    the source and reach the kernel as data."""

    def __init__(self):
        self.lines: list = []
        self.vars: dict = {}  # ref -> local
        self.consts: dict = {}  # (type, repr) -> (local, value)
        self.temps = count()  # numbering t*

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

    def assign(self, dest: str, e) -> None:
        """Emit the statement that computes e into dest, after those of
        the temporaries it spills."""
        self.lines.append(f"{dest} = {self._inline(e)[0]}")

    def _inline(self, e) -> tuple:
        """The kernel's text of e, one expression, and its depth of
        nested parentheses, at most MAX_NESTING. An If, `and` and `or` are
        Python's own lazy operators. An operand that would nest deeper is
        spilled to a temporary, which a statement before computes on every
        sample, taken branch or not: it can only raise there, and the tree
        walk's re-run then gives the answer."""
        match e:
            case mexpr.Sym(ref):
                return self.var(ref), 0
            case mexpr.Const(value):
                return self.const(value), 0
            case mexpr.Der():
                return "E()", 1
            case mexpr.Call("abs", (operand,)):
                text, depth = self._operand(operand)
                return f"abs({text})", depth + 1
            case mexpr.Call("min" | "max" as fn, (left, right)):
                # b only where b compares below (above) a, so that this is
                # exactly what the builtin returns, NaN and -0.0 included;
                # a > b is b < a, so each operand is first read in order
                (a, first_a, da), (b, first_b, db) = self._once(left), self._once(right)
                test = f"{first_a} {'>' if fn == 'min' else '<'} {first_b}"
                return f"({b} if {test} else {a})", max(da, db) + 1
            case mexpr.If():
                text = "{1} if {0} != 0.0 else {2}"
            case mexpr.Binary(op) if op in _BINARY:
                text = _BINARY[op]
            case mexpr.Unary(op) if op in _UNARY:
                text = _UNARY[op]
            case _:
                raise TypeError(f"not a ModelExpr: {e!r}")
        operands = [self._operand(c) for c in mexpr.children(e)]
        return f"({text.format(*(t for t, _ in operands))})", max(d for _, d in operands) + 1

    def _operand(self, e, levels: int = 1) -> tuple:
        """_inline of an operand that its node nests levels deeper, spilled
        to a temporary where that would pass MAX_NESTING."""
        text, depth = self._inline(e)
        if depth + levels <= MAX_NESTING:
            return text, depth
        temp = f"t{next(self.temps)}"
        self.lines.append(f"{temp} = {text}")
        return temp, 0

    def _once(self, e) -> tuple:
        """An operand of min or max, which reads it twice: the name of its
        value, the text that computes it where it is first read, bound to
        a temporary in place unless it is a local already, and that text's
        depth."""
        text, depth = self._operand(e, 2)
        if not depth:
            return text, text, 0
        temp = f"t{next(self.temps)}"
        return temp, f"({temp} := {text})", depth + 1


def _solved(st: check.Structure) -> tuple:
    """The refs a Structure solves for, in kernel order: the algebraic
    ones in code order, then the states."""
    return tuple(r for _, r, _ in st.algebraic_order) + tuple(r for r, _ in st.states)


def _strict_refs(e) -> set:
    """The refs of e reached from its root through add, sub, mul, neg,
    abs and a division's numerator only: a non-finite value at one of
    them makes e non-finite, or raises. A comparison, a logical
    operator, an If, min, max and a division's denominator can hide one."""
    refs, todo = set(), [e]
    while todo:
        match todo.pop():
            case mexpr.Sym(ref):
                refs.add(ref)
            case mexpr.Binary("div", numerator, _):
                todo.append(numerator)
            case mexpr.Binary("add" | "sub" | "mul") | mexpr.Unary("neg") \
                    | mexpr.Call("abs") as node:
                todo += mexpr.children(node)
    return refs


def _watched(st: check.Structure) -> set:
    """The solved refs whose per-sample check the kernel keeps. A
    non-finite ref at a strict position (_strict_refs) of a derivative
    makes its state non-finite, and a state stays so (x + h*d), up to the
    end check; at a strict position of a later equation, it makes that
    equation's ref non-finite in the same sample. Walking the equations
    in reverse, a ref that no later check or derivative sees that way is
    watched, and the strict refs of its equation are then seen."""
    seen = set().union(*(_strict_refs(rhs) for _, rhs in st.states))
    watched = set()
    for _, ref, expr in reversed(st.algebraic_order):
        if ref not in seen:
            watched.add(ref)
            seen.add(ref)
        seen |= _strict_refs(expr)
    return watched


def _kernel_source(st: check.Structure, outputs: int, scored: bool = False) -> tuple:
    """The source of the kernel for the Structure st, recording outputs
    outputs or, scored, their squared errors, and the namespace it runs
    in.

    kernel(T, I, A, S, h, last) runs the loop over T, the sample indices
    (range(len(times))), which it zips with the iterables in I: one for
    each data slot, in the order of st.reads (the refs the equations only
    read, sorted, on each of which a binding that causalizes seats an
    input or a parameter), an input's column or an endless repeat of a
    parameter's value; then, scored, each output's reference column.
    The loop binds no time: only the tree walk's re-run reads the times,
    to name a fault. A holds a (position, list) pair for each output,
    the position of its ref in the tuple o of solved locals (_solved);
    only their number is in the source. A recording kernel stores each
    output's value, a scored one the square of its difference from the
    reference, at index k of the output's list, which has one slot per
    time. S holds the state starts; h is the step and last the index of
    the last sample.
    Its locals take the values of the tree walk's env, by the same
    operations on the same operands, so the results are bit-identical.
    `if x - x:` is the finiteness check: x - x is 0.0 for a finite x and
    nan for inf and nan.

    The kernel computes each equation and each derivative as one
    expression (_KernelSource._inline) and names no fault: it checks
    only the watched refs (_watched), returning the non-finite value,
    and lets Python's errors through. After its loop it returns the sum
    of every solved local, which covers the states and the last sample,
    whose derivatives are never computed. The sum is non-finite whenever
    a check of the tree walk (_tree_walk) would fail, and also when
    finite values overflow it. The squares are no part of it: a square
    that overflows is the score's to judge.
    """
    src = _KernelSource()
    loop = src.lines
    solved = _solved(st)
    watched = _watched(st)
    columns = "".join(f", {src.var(ref)}" for ref in st.reads)
    if scored:
        columns += "".join(f", r{j}" for j in range(outputs))
    for _, ref, expr in st.algebraic_order:
        local = src.var(ref)
        src.assign(local, expr)
        if ref in watched:
            loop.append(f"if {local} - {local}: return {local}")
    if outputs:
        loop.append(f"o = ({''.join(src.var(r) + ', ' for r in solved)})")
        for j in range(outputs):
            if scored:
                loop += [f"x = o[p{j}] - r{j}", f"a{j}[k] = x * x"]
            else:
                loop.append(f"a{j}[k] = o[p{j}]")
    if st.states:
        loop.append("if k == last: break")
        for j, (_, rhs) in enumerate(st.states):
            src.assign(f"d{j}", rhs)
        for j, (ref, _) in enumerate(st.states):
            local = src.var(ref)
            loop.append(f"{local} = {local} + h * d{j}")

    head = ["def kernel(T, I, A, S, h, last):"]
    for targets, data in (
            ([src.var(r) for r, _ in st.states], "S"),
            ([c for c, _ in src.consts.values()], "C"),
            ([f"(p{j}, a{j})" for j in range(outputs)], "A")):
        if targets:
            head.append(f" {', '.join(targets)}, = {data}")
    # the trailing comma unpacks k from a 1-tuple when there is no data slot
    head.append(f" for k{columns}, in zip(T, *I):")
    ends = [src.var(r) for r in solved]
    # added 50 locals a statement, so that compiling never nests deeply
    tail = [" e = 0.0"] + [f" e = e + {' + '.join(ends[i:i + 50])}"
                           for i in range(0, len(ends), 50)] + [" return e", ""]
    namespace = {"C": tuple(value for _, value in src.consts.values()), "E": _evaluated_der}
    return "\n".join(head + [f"  {line}" for line in loop] + tail), namespace


def _compile_kernel(st: check.Structure, outputs: int, scored: bool = False):
    """The kernel of the Structure st, recording outputs outputs or,
    scored, their squared errors; see _kernel_source."""
    source, namespace = _kernel_source(st, outputs, scored)
    exec(compile(source, "<simulate kernel>", "exec"), namespace)
    # popped, so that the namespace and the kernel form no reference cycle
    return namespace.pop("kernel")


def _tree_walk(st: check.Structure, names: tuple, times, data: tuple, stores: tuple,
               starts: tuple, h: float) -> None:
    """Run the Structure st as its kernel does, from the same times, data
    (for the data slots st.reads, then any reference columns), starts and
    step, but node by node with mexpr.eval_expr: the re-run that names a
    fault. Every solved value is checked at every sample; a fault raises
    DivisionByZero, naming the equation or the derivative that divides,
    or NonFiniteValue, naming the variable, by names (Feed.names). stores
    holds a (ref, list) pair for each output: its value, or, when data
    holds reference columns, its squared error against its column, is
    stored at index k."""
    reads = st.reads
    env = {ref: start for (ref, _), start in zip(st.states, starts)}
    scored = len(data) > len(reads)
    last = len(times) - 1
    state_names = names[len(st.algebraic_order):]
    for k, (t, *values) in enumerate(zip(times, *data)):
        env.update(zip(reads, values))
        for name, (eq_index, ref, expr) in zip(names, st.algebraic_order):
            try:
                value = mexpr.eval_expr(expr, env)
            except ZeroDivisionError:
                raise DivisionByZero(t, f"equation {eq_index}") from None
            if not math.isfinite(value):
                raise NonFiniteValue(t, name)
            env[ref] = value
        if scored:
            for (ref, store), r in zip(stores, values[len(reads):]):
                x = env[ref] - r
                store[k] = x * x
        else:
            for ref, store in stores:
                store[k] = env[ref]
        if k == last:
            break
        ders = []
        for name, (_, rhs) in zip(state_names, st.states):
            try:
                ders.append(mexpr.eval_expr(rhs, env))
            except ZeroDivisionError:
                raise DivisionByZero(t, f"der({name})") from None
        for name, (ref, _), d in zip(state_names, st.states, ders):
            x = env[ref] + h * d
            if not math.isfinite(x):
                raise NonFiniteValue(t, name)
            env[ref] = x


def input_columns(inputs: Trace, names) -> tuple:
    """The column of each of names in the input trace, which has one
    value per time (Trace): MissingInput for the first it lacks."""
    columns = inputs.columns
    for name in names:
        if name not in columns:
            raise MissingInput(name)
    return tuple(map(columns.__getitem__, names))


class KernelCache:
    """The kernels of one Structure, a problem's, by number of outputs
    and recording or scored, and the step of the last input grid
    checked. Every genome bound to the Structure shares its order,
    expressions, states and data slots (Structure.reads, the refs the
    equations only read), so the Structure alone fixes the kernel source
    and the order of the solved refs (solved); what a genome decides
    reaches the kernel as data, in a Feed, and only the number of
    outputs is in the source. A search scores one list of outputs, so it
    compiles one scored kernel, at its first score. A fault compiles
    nothing: the tree walk names it."""

    def __init__(self, structure: check.Structure):
        self.structure = structure
        self.kernels: dict = {}  # (outputs, scored) -> kernel
        self.solved: tuple = _solved(structure)  # the solved refs, in kernel order
        self.grid = (None, None)  # (times, step)

    def step(self, times) -> float:
        if self.grid[0] is not times:
            self.grid = (times, grid_step(times))
        return self.grid[1]

    def kernel(self, outputs: int, scored: bool = False):
        """The compiled kernel of the Structure, recording outputs
        outputs or, scored, their squared errors."""
        key = (outputs, scored)
        if key not in self.kernels:
            self.kernels[key] = _compile_kernel(self.structure, outputs, scored)
        return self.kernels[key]


def grid_step(times) -> float:
    """The step of a uniform time grid of at least two times;
    NonUniformGrid otherwise."""
    if len(times) < 2:
        raise NonUniformGrid(f"a time grid needs at least 2 times, got {len(times)}")
    h = times[1] - times[0]
    steps = list(map(sub, islice(times, 1, None), times))
    # step - h rounds monotonically, so the extreme steps deviate the most
    if max(abs(min(steps) - h), abs(max(steps) - h)) > GRID_RTOL * abs(h):
        t = next(t for a, t in zip(times, times[1:]) if abs((t - a) - h) > GRID_RTOL * abs(h))
        raise NonUniformGrid(f"non-uniform sample spacing near t={t}")
    return h


def simulate(feed: Feed, inputs: Trace, outputs_of_interest, kernels: KernelCache,
             references: tuple | None = None) -> Trace:
    """Forward Euler on the trace grid: read inputs (zero-order hold),
    evaluate algebraic equations, record outputs, advance states.

    The per-sample loop is the kernel of kernels, the cache of the
    Structure the feed was made for (see _kernel_source), stepping T,
    the sample indices, with
    the feed's data, reading its starts and recording only the outputs
    of interest into lists made with one slot per time, which the result
    packs into array('d') columns; mexpr.eval_expr is its reference
    semantics. Given references, the reference column of each output of
    interest in name order (GaProblem.scoring), it records each output's
    squared error against its column instead, in the lists, for score to
    sum. The result's times are the grid either way. When the kernel
    raises or its end check fails, _tree_walk runs the Structure again
    from the start over mexpr.eval_expr, and its result or its
    error is the answer. The feed's input columns and the references
    have one value per time: they are columns of Traces on the grid
    (GaProblem.scoring checks a reference's grid)."""
    times = inputs.times
    out_names = sorted(outputs_of_interest)
    try:
        positions = tuple(map(feed.names.index, out_names))
    except ValueError:
        name = next(n for n in out_names if n not in feed.names)
        raise SimulateError(f"output {name!r} is not computed by the model") from None

    h = kernels.step(times)
    scored = references is not None
    kernel = kernels.kernel(len(out_names), scored)
    data = feed.data + references if scored else feed.data
    columns = [[0.0] * len(times) for _ in out_names]
    try:
        end = kernel(range(len(times)), data, tuple(zip(positions, columns)), feed.starts, h,
                     len(times) - 1)
        failed = end - end  # 0.0 for a finite end sum, nan otherwise
    except Exception:  # the tree walk names it
        failed = True
    if failed:
        _tree_walk(kernels.structure, feed.names, times, data,
                   tuple(zip(map(kernels.solved.__getitem__, positions), columns)),
                   feed.starts, h)
    if not scored:
        columns = [array("d", column) for column in columns]
    return Trace(times, dict(zip(out_names, columns)))


def score(feed: Feed | None, inputs: Trace, outputs, references: tuple,
          kernels: KernelCache) -> Fitness:
    """Mean squared distance of the outputs that simulate gives for the
    feed, through kernels, from their reference columns, references
    (GaProblem.scoring, which checks the traces once): simulate records the
    squares, and math.fsum rounds their sum exactly, whatever their
    order. No feed (the model does not causalize), a simulate failure,
    which the tree walk's re-run names, and a sum of squares that
    overflows all fold into Invalid."""
    if feed is None:
        return INVALID
    try:
        squares = simulate(feed, inputs, outputs, kernels, references).columns
    except SimulateError:
        return INVALID
    try:
        mse = math.fsum(chain.from_iterable(squares.values())) \
            / (len(inputs.times) * len(squares))
    except OverflowError:  # finite squares whose sum overflows
        return INVALID
    return Fitness.finite(mse) if math.isfinite(mse) else INVALID
