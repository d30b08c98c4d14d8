"""Reference interpreter for step-function statement bodies.

Used as the independent oracle in tests: it executes the decompiled C
subset directly (memory slots keyed by byte offset, locals by name) so
translated equation models can be checked against plain statement
semantics without going through the translation path itself. `named`
renames a slot-level simulation plan through its bindings to the
name-level plan it stands for, so that plans can be compared and run
through `tree_walk`, the per-sample loop of sim.simulate over
mexpr.eval_expr. `structure` is the name-level check.Structure of a
name-level plan, from check.analyse of its equations, and `feed` the
sim.Feed of a plan for a kernel cache of a Structure, the plan's own or
a problem's; `simulate` and `score` run sim.simulate and sim.score on a
plan through such a cache. `load_trace_rows`
is container.load_trace one row and one cell at a time. `tokenize` is
cparse._tokenize with one match per run of blanks and frozen-dataclass
tokens.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import count, repeat
from pathlib import Path

from construct import check, mexpr, sim
from construct.container import MalformedTrace, Trace, read_text
from construct.cparse import (
    Assign, Decl, Deref, Ident, If, IntLit, ParseError, RealLit, Return,
)
from construct.mexpr import Binary, Call, Unary


# one alternative per token kind, blanks included, tried in order
_TOKEN_RE = re.compile(r"""
    (?P<newline>\n)
  | (?P<blank>[ \t\r]+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<unclosed>/\*)
  | (?P<hex>0[xX][0-9a-fA-F]+)
  | (?P<badhex>0[xX])
  | (?P<float>(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fF]?
             |[0-9]+[eE][+-]?[0-9]+[fF]?)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct><=|>=|==|!=|&&|\|\||[(){};,=+\-*/<>!?:])
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)
_ERRORS = {"unclosed": "closing */", "badhex": "hex digits", "other": "a token"}


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | float | punct | eof
    text: str
    value: object
    line: int
    column: int


def tokenize(text: str) -> list:
    """cparse._tokenize, one match per run of blanks: the same tokens,
    or the same ParseError."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "comment":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = m.start() + lexeme.rfind("\n") + 1
        elif kind in _ERRORS:
            raise ParseError(line, col, _ERRORS[kind], lexeme[0])
        elif kind in ("hex", "int"):
            value = 2 ** 64 if kind == "int" and len(lexeme.lstrip("0")) > 20 \
                else int(lexeme, 16 if kind == "hex" else 10)
            if value >= 2 ** 64:
                raise ParseError(line, col, "an integer literal below 2**64",
                                 lexeme if len(lexeme) <= 24 else lexeme[:20] + "...")
            tokens.append(Token("int", lexeme, value, line, col))
        elif kind == "float":
            tokens.append(Token("float", lexeme, float(lexeme.rstrip("fF")), line, col))
        elif kind != "blank":
            tokens.append(Token(kind, lexeme, lexeme, line, col))
    tokens.append(Token("eof", "", None, line, len(text) - line_start + 1))
    return tokens


def eval_code_expr(e, mem: dict, env: dict) -> float:
    if isinstance(e, IntLit):
        return float(e.value)
    if isinstance(e, RealLit):
        return e.value
    if isinstance(e, Ident):
        return env[e.name]
    if isinstance(e, Deref):
        return mem[e.offset]
    if isinstance(e, Unary):
        v = eval_code_expr(e.operand, mem, env)
        return -v if e.op == "neg" else (0.0 if v != 0.0 else 1.0)
    if isinstance(e, mexpr.If):
        if eval_code_expr(e.cond, mem, env) != 0.0:
            return eval_code_expr(e.then, mem, env)
        return eval_code_expr(e.orelse, mem, env)
    if isinstance(e, Call):
        args = [eval_code_expr(a, mem, env) for a in e.args]
        if e.fn == "min":
            return min(args)
        if e.fn == "max":
            return max(args)
        return abs(args[0])
    if isinstance(e, Binary):
        a = eval_code_expr(e.left, mem, env)
        op = e.op
        if op == "and":
            return 1.0 if (a != 0.0 and eval_code_expr(e.right, mem, env) != 0.0) else 0.0
        if op == "or":
            return 1.0 if (a != 0.0 or eval_code_expr(e.right, mem, env) != 0.0) else 0.0
        b = eval_code_expr(e.right, mem, env)
        return {
            "add": lambda: a + b, "sub": lambda: a - b,
            "mul": lambda: a * b, "div": lambda: a / b,
            "lt": lambda: 1.0 if a < b else 0.0,
            "le": lambda: 1.0 if a <= b else 0.0,
            "gt": lambda: 1.0 if a > b else 0.0,
            "ge": lambda: 1.0 if a >= b else 0.0,
            "eq": lambda: 1.0 if a == b else 0.0,
            "ne": lambda: 1.0 if a != b else 0.0,
        }[op]()
    raise TypeError(f"not a CodeExpr: {e!r}")


def exec_stmts(stmts, mem: dict, env: dict) -> None:
    """Execute statements in place: mem maps deref offsets, env maps
    identifiers (parameters and locals)."""
    for s in stmts:
        if isinstance(s, Decl):
            if s.init is not None:
                env[s.name] = eval_code_expr(s.init, mem, env)
        elif isinstance(s, Assign):
            value = eval_code_expr(s.value, mem, env)
            if isinstance(s.target, Deref):
                mem[s.target.offset] = value
            else:
                env[s.target.name] = value
        elif isinstance(s, If):
            if eval_code_expr(s.cond, mem, env) != 0.0:
                exec_stmts(s.then, mem, env)
            else:
                exec_stmts(s.orelse, mem, env)
        elif isinstance(s, Return):
            return
        else:
            raise TypeError(f"not a CodeStmt: {s!r}")


def named(plan: sim.SimPlan, bindings: tuple) -> sim.SimPlan:
    """The plan over variable names: a slot-level plan renamed through
    bindings, the variable name at each slot."""
    name = bindings.__getitem__
    return sim.SimPlan(
        tuple((name(r), start, mexpr.map_refs(rhs, name))
              for r, start, rhs in plan.state_vars),
        tuple((i, name(r), mexpr.map_refs(e, name)) for i, r, e in plan.algebraic_order),
        {name(r): value for r, value in plan.param_env.items()},
        frozenset(map(name, plan.input_names)))


def tree_walk(plan: sim.SimPlan, inputs: Trace, outputs_of_interest) -> Trace:
    """simulate's outputs for a name-level plan, evaluated node by node
    with mexpr.eval_expr: the same values, errors and messages."""
    times = inputs.times
    h = times[1] - times[0]
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
                raise sim.DivisionByZero(t, f"equation {eq_index}") from None
            if not math.isfinite(value):
                raise sim.NonFiniteValue(t, name)
            env[name] = value
        for name in out_names:
            recorded[name].append(env[name])
        if k + 1 < n:
            ders = []
            for name, _, rhs in plan.state_vars:
                try:
                    ders.append(mexpr.eval_expr(rhs, env))
                except ZeroDivisionError:
                    raise sim.DivisionByZero(t, f"der({name})") from None
            for (name, _, _), d in zip(plan.state_vars, ders):
                nxt = env[name] + h * d
                if not math.isfinite(nxt):
                    raise sim.NonFiniteValue(t, name)
                env[name] = nxt
    return Trace(times, {name: tuple(vals) for name, vals in recorded.items()})


def structure(plan: sim.SimPlan) -> check.Structure:
    """The Structure of a name-level plan: check.analyse of its
    equations, each algebraic one at its equation index and the
    derivatives, in order, at the indices left."""
    equations = {i: (mexpr.Sym(ref), e) for i, ref, e in plan.algebraic_order}
    free = (i for i in count() if i not in equations)
    for (ref, _, rhs), i in zip(plan.state_vars, free):
        equations[i] = (mexpr.Der(ref), rhs)
    return check.analyse([equations[i] for i in sorted(equations)])


def feed(plan: sim.SimPlan, inputs: Trace, kernels: sim.KernelCache,
         bindings: tuple = ()) -> sim.Feed:
    """The sim.Feed of plan over the input trace for kernels, the cache
    of the plan's Structure: sim.input_columns checks the columns of the
    plan's inputs, sorted by name. The refs of a slot-level plan are
    named by bindings."""
    name = bindings.__getitem__ if bindings else (lambda r: r)
    sim.input_columns(inputs, sorted(map(name, plan.input_names)))
    return sim.Feed(tuple(inputs.columns[name(r)] if r in plan.input_names
                          else repeat(plan.param_env[r]) for r in kernels.structure.reads),
                    tuple(start for _, start, _ in plan.state_vars),
                    tuple(map(name, kernels.solved)))


def simulate(plan: sim.SimPlan, inputs: Trace, outputs_of_interest,
             kernels: sim.KernelCache | None = None, bindings: tuple = ()) -> Trace:
    """sim.simulate of plan through kernels, or, for a name-level plan, a
    fresh cache of its own Structure."""
    kernels = sim.KernelCache(structure(plan)) if kernels is None else kernels
    return sim.simulate(feed(plan, inputs, kernels, bindings), inputs, outputs_of_interest,
                        kernels)


def score(plan: sim.SimPlan | None, inputs: Trace, reference: Trace, outputs,
          kernels: sim.KernelCache | None = None, bindings: tuple = ()) -> sim.Fitness:
    """sim.score of plan, or of no plan, against the reference trace's
    column of each output, in name order, as tuples (what
    GaProblem.scoring gives a search), through kernels, or, for a
    name-level plan, a fresh cache of its own Structure."""
    if kernels is None and plan is not None:
        kernels = sim.KernelCache(structure(plan))
    references = tuple(tuple(reference.columns[name]) for name in sorted(outputs))
    return sim.score(None if plan is None else feed(plan, inputs, kernels, bindings),
                     inputs, outputs, references, kernels)


# a trace cell: a decimal number as float reads it, in ASCII digits with
# no "_" and no whitespace; inf and nan parse, to be rejected as non-finite
TRACE_NUMBER = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)",
                          re.ASCII | re.IGNORECASE)


def load_trace_rows(path) -> Trace:
    """container.load_trace, checking each row as it is read: the same
    trace, or the same error, message and line."""
    path = Path(path)
    lines = [(k, ln) for k, ln in enumerate(
        read_text(path, newline="").replace("\r\n", "\n").split("\n"), start=1) if ln != ""]
    if not lines:
        raise MalformedTrace(f"{path.name} is empty")
    header_line, header = lines[0][0], lines[0][1].split(",")
    if header[0] != "time":
        raise MalformedTrace(f"{path.name}: first column must be 'time'", line=header_line)
    names = header[1:]
    if len(set(names)) != len(names):
        raise MalformedTrace(f"{path.name}: duplicate column names", line=header_line)
    times = []
    cols = {name: [] for name in names}
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise MalformedTrace(
                f"{path.name}: row has {len(cells)} cells, expected {len(header)}", line=lineno)
        if not all(TRACE_NUMBER.fullmatch(c) for c in cells):
            raise MalformedTrace(f"{path.name}: non-numeric cell", line=lineno)
        row = [float(c) for c in cells]
        times.append(row[0])
        for name, val in zip(names, row[1:]):
            cols[name].append(val)
    if len(times) < 2:
        raise MalformedTrace(f"{path.name}: fewer than 2 data rows")
    for column in (times, *cols.values()):
        for k, v in enumerate(column):
            if not math.isfinite(v):
                raise MalformedTrace(f"{path.name}: non-finite cell", line=lines[k + 1][0])
    for k in range(1, len(times)):
        if not times[k] > times[k - 1]:
            raise MalformedTrace(
                f"{path.name}: time not strictly increasing", line=lines[k + 1][0])
    return Trace(tuple(times), {n: tuple(vs) for n, vs in cols.items()})
