"""Localization and normalization of math primitives in decompiled code.

Decompilers distort arithmetic: divisions by constants come back as
multiplications by reciprocals, clamps are lowered to min/max chains or
branch ladders, and sign folds turn ``b - a`` into ``-(a - b)``. The
rules here undo the common distortions:

    R1  e * c        ->  e / round(1/c)   when 1/c is (nearly) a small integer
    R2  clamp forms  ->  canonical fmin(fmax(e, lo), hi)
    R3  -(a - b)     ->  b - a

Rules run innermost-first, left to right, to a fixpoint. R1's bounds are
fixed: RECIPROCAL_TOLERANCE (relative to n) and RECIPROCAL_MAX_DENOMINATOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from construct import cparse, mexpr
from construct.cparse import Assign, CodeUnit, Decl, Deref, If, IntLit, RealLit, Return
from construct.errors import ConstructError

REWRITE_CAP = 100
RECIPROCAL_TOLERANCE = 1e-9  # R1: |1/c - n| <= tolerance * n
RECIPROCAL_MAX_DENOMINATOR = 1000  # R1: the largest n it introduces


class IsolateError(ConstructError):
    pass


class NoStepFunction(IsolateError):
    pass


class AmbiguousStepFunction(IsolateError):
    def __init__(self, candidates):
        self.candidates = tuple(candidates)
        super().__init__(f"multiple step-function candidates: {', '.join(candidates)}")


class NoDerefBase(IsolateError):
    pass


class DivergingRewrite(IsolateError):
    pass


class AmbiguousInitFunction(IsolateError):
    def __init__(self, candidates):
        self.candidates = tuple(candidates)
        super().__init__(f"multiple init-function candidates: {', '.join(candidates)}")


@dataclass(frozen=True)
class RuleConfig:
    step_function_name: str | None = None
    step_param_name: str | None = None


def load_rule_config(text: str) -> RuleConfig:
    """Read a flat key/value settings file (toml-style subset).

    Recognized keys: step_function, step_param, each at most once.
    Lines starting with # are comments.
    """
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise IsolateError(f"rules file line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip('"').strip("'")
        if key not in ("step_function", "step_param"):
            raise IsolateError(f"rules file line {lineno}: unknown key {key!r}")
        if key + "_name" in kwargs:
            raise IsolateError(f"rules file line {lineno}: duplicate key {key!r}")
        kwargs[key + "_name"] = value
    return RuleConfig(**kwargs)


@dataclass(frozen=True)
class StepBody:
    """The body of the identified step function.

    base_pointer is the parameter used as the dereference base, and
    step_symbol names the communication step size passed into the
    function. inits maps each offset the init function stores to, if
    there is one, to the last constant it stores there
    (find_init_stores).
    """

    statements: tuple
    step_symbol: str
    base_pointer: str
    params: tuple = ()
    locals_: tuple = field(default=())
    inits: dict = field(default_factory=dict)


def _assigns_deref(stmts) -> bool:
    return any(isinstance(s, Assign) and isinstance(s.target, Deref)
               for s in cparse.iter_stmts(stmts))


def _deref_bases(stmts) -> set:
    bases: set = set()
    for s in cparse.iter_stmts(stmts):
        if isinstance(s, Assign):
            exprs = (s.target, s.value)
        elif isinstance(s, Decl):
            exprs = (s.init,)
        elif isinstance(s, If):
            exprs = (s.cond,)
        else:
            exprs = (s.value,)
        for e in exprs:
            if e is not None:
                bases.update(n.base for n in mexpr.iter_nodes(e) if isinstance(n, Deref))
    return bases


def _literal(e):
    """The value of a numeric literal, signed or not; None for any other
    expression."""
    sign = 1.0
    if isinstance(e, mexpr.Unary) and e.op == "neg":
        sign, e = -1.0, e.operand
    return sign * float(e.value) if isinstance(e, (IntLit, RealLit)) else None


def _literal_stores(fn) -> dict | None:
    """{offset: the last constant stored there} when every statement of
    fn stores a numeric literal through one parameter; None otherwise."""
    stores: dict = {}
    for s in fn.body:
        if not (isinstance(s, Assign) and isinstance(s.target, Deref)):
            return None
        value = _literal(s.value)
        if value is None:
            return None
        stores[s.target.offset] = value
    bases = {s.target.base for s in fn.body}
    if len(bases) != 1 or not bases <= {n for _, n in fn.params}:
        return None
    return stores


def find_init_stores(unit: CodeUnit, step: str) -> dict:
    """{offset: constant} of the init function's stores, empty when there
    is none.

    The init function is the one function other than the step function
    whose every statement stores a numeric literal through one parameter,
    at least one; two such functions are refused. The last constant
    stored at an offset counts.
    """
    found = {f.name: stores for f in unit.functions
             if f.name != step and (stores := _literal_stores(f)) is not None}
    if len(found) > 1:
        raise AmbiguousInitFunction(found)
    return next(iter(found.values()), {})


def isolate_step_function(unit: CodeUnit, cfg: RuleConfig = RuleConfig()) -> StepBody:
    """Select the step function and identify its base pointer and step
    symbol, and read the init function's stores (find_init_stores).

    Without a configured name, the step function is the single function
    whose body assigns at least one dereferenced slot.
    """
    if cfg.step_function_name is not None:
        matches = [f for f in unit.functions if f.name == cfg.step_function_name]
        if not matches:
            raise NoStepFunction(f"no function named {cfg.step_function_name!r}")
        fn = matches[0]
        if not _assigns_deref(fn.body):
            raise NoStepFunction(f"{fn.name!r} assigns no dereferenced slots")
    else:
        candidates = [f for f in unit.functions if _assigns_deref(f.body)]
        if not candidates:
            raise NoStepFunction("no function assigns a dereferenced slot")
        if len(candidates) > 1:
            raise AmbiguousStepFunction([f.name for f in candidates])
        fn = candidates[0]

    bases = _deref_bases(fn.body)
    param_names = [n for _, n in fn.params]
    if len(bases) != 1 or not bases <= set(param_names):
        raise NoDerefBase(
            f"{fn.name!r}: expected exactly one parameter used as dereference base, "
            f"got {sorted(bases)}")
    base = next(iter(bases))

    if cfg.step_param_name is not None:
        if cfg.step_param_name not in param_names:
            raise NoStepFunction(
                f"{fn.name!r} has no parameter {cfg.step_param_name!r}")
        step = cfg.step_param_name
    else:
        others = [n for n in param_names if n != base]
        if len(param_names) < 2 or not others:
            raise NoStepFunction(
                f"{fn.name!r}: cannot infer the step-size parameter")
        step = param_names[1] if param_names[1] != base else others[0]

    locals_ = tuple(s.name for s in cparse.iter_stmts(fn.body) if isinstance(s, Decl))
    return StepBody(fn.body, step_symbol=step, base_pointer=base,
                    params=tuple(param_names), locals_=locals_,
                    inits=find_init_stores(unit, fn.name))


# ---------------------------------------------------------------------------
# Rewrite rules
# ---------------------------------------------------------------------------

def _rule_reciprocal(e):
    # R1: e * c  ->  e / n for n = round(1/c), 2 <= n <= RECIPROCAL_MAX_DENOMINATOR
    if not (isinstance(e, mexpr.Binary) and e.op == "mul"):
        return None
    for operand, other in ((e.right, e.left), (e.left, e.right)):
        if isinstance(operand, RealLit) and operand.value != 0.0:
            recip = 1.0 / operand.value  # inf for a subnormal c: no n
            n = round(recip) if math.isfinite(recip) else 0
            if 2 <= n <= RECIPROCAL_MAX_DENOMINATOR and \
                    abs(recip - n) <= RECIPROCAL_TOLERANCE * n:
                return mexpr.Binary("div", other, RealLit(float(n)))
    return None


def _clamp(x, lo, hi):
    return mexpr.Call("min", (mexpr.Call("max", (x, lo)), hi))


def _rule_clamp(e):
    # R2 (expression form): fmax(fmin(e, hi), lo) -> fmin(fmax(e, lo), hi)
    if isinstance(e, mexpr.Call) and e.fn == "max":
        inner = e.args[0]
        if isinstance(inner, mexpr.Call) and inner.fn == "min":
            return _clamp(inner.args[0], e.args[1], inner.args[1])
    return None


def _rule_neg_sub(e):
    # R3: -(a - b) -> b - a
    if isinstance(e, mexpr.Unary) and e.op == "neg":
        inner = e.operand
        if isinstance(inner, mexpr.Binary) and inner.op == "sub":
            return mexpr.Binary("sub", inner.right, inner.left)
    return None


_EXPR_RULES = (_rule_reciprocal, _rule_clamp, _rule_neg_sub)


def _normalize_expr(e, line: int):
    """Rewrite passes to a fixpoint. The fixpoint test is tree equality:
    every rule returns a node that differs from its input, so a pass
    fires a rule exactly when it changes the tree. New rules must keep
    that true."""
    def first_rule(node):
        for rule in _EXPR_RULES:
            out = rule(node)
            if out is not None:
                return out
        return node

    for _ in range(REWRITE_CAP):
        e, before = mexpr.map_nodes(first_rule, e), e
        if e == before:
            return e
    raise DivergingRewrite(f"rewriting did not converge (line {line})")


def _match_clamp_chain(s):
    # R2 (statement form): the lowered branch ladder
    #   if (x < lo) { t = lo; } else { if (x > hi) { t = hi; } else { t = x; } }
    # becomes t = fmin(fmax(x, lo), hi). Comparisons may be strict or not.
    if not (isinstance(s, If) and isinstance(s.cond, mexpr.Binary)):
        return None
    if len(s.then) != 1 or len(s.orelse) != 1:
        return None
    outer_then, outer_else = s.then[0], s.orelse[0]
    if not (isinstance(outer_then, Assign) and isinstance(outer_else, If)):
        return None
    inner = outer_else
    if not (isinstance(inner.cond, mexpr.Binary) and len(inner.then) == 1
            and len(inner.orelse) == 1):
        return None
    inner_then, inner_else = inner.then[0], inner.orelse[0]
    if not (isinstance(inner_then, Assign) and isinstance(inner_else, Assign)):
        return None

    target = outer_then.target
    if inner_then.target != target or inner_else.target != target:
        return None
    if s.cond.op not in ("lt", "le") or inner.cond.op not in ("gt", "ge"):
        return None
    x, lo = s.cond.left, s.cond.right
    x2, hi = inner.cond.left, inner.cond.right
    if x != x2 or inner_else.value != x:
        return None
    if outer_then.value != lo or inner_then.value != hi:
        return None
    return Assign(target, _clamp(x, lo, hi), line=s.line)


def _normalize_stmts(stmts):
    out = []
    for s in stmts:
        if isinstance(s, If):
            folded = _match_clamp_chain(s)
            if folded is not None:
                s = folded
        if isinstance(s, Assign):
            out.append(Assign(s.target, _normalize_expr(s.value, s.line), line=s.line))
        elif isinstance(s, Decl):
            init = None if s.init is None else _normalize_expr(s.init, s.line)
            out.append(Decl(s.ctype, s.name, init, line=s.line))
        elif isinstance(s, If):
            out.append(If(_normalize_expr(s.cond, s.line),
                          _normalize_stmts(s.then),
                          _normalize_stmts(s.orelse), line=s.line))
        elif isinstance(s, Return):
            value = None if s.value is None else _normalize_expr(s.value, s.line)
            out.append(Return(value, line=s.line))
        else:
            out.append(s)
    return tuple(out)


def normalize_primitives(body: StepBody) -> StepBody:
    """Apply R1, R2, R3 to a fixpoint. Idempotent; preserves semantics
    under real arithmetic within RECIPROCAL_TOLERANCE."""
    return replace(body, statements=_normalize_stmts(body.statements))
