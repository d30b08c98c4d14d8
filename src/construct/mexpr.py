"""Model-level (equation) expression nodes.

Shared by translation, binding, validation, and simulation. Sym/Der
carry integer slot ids, in a search's plans too; model.apply_assignment
rewrites them to variable names (strings) for emission and for mappings
from outside a search. Everything else is agnostic of that distinction.
"""

from __future__ import annotations

from dataclasses import dataclass

NUMERIC_BINOPS = ("add", "sub", "mul", "div")
LOGIC_BINOPS = ("and", "or")


@dataclass(frozen=True)
class Const:
    value: float | bool


@dataclass(frozen=True)
class Sym:
    ref: int | str


@dataclass(frozen=True)
class Der:
    ref: int | str


@dataclass(frozen=True)
class Unary:
    op: str  # neg | not
    operand: "ModelExpr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "ModelExpr"
    right: "ModelExpr"


@dataclass(frozen=True)
class If:
    cond: "ModelExpr"
    then: "ModelExpr"
    orelse: "ModelExpr"


@dataclass(frozen=True)
class Min:
    left: "ModelExpr"
    right: "ModelExpr"


@dataclass(frozen=True)
class Max:
    left: "ModelExpr"
    right: "ModelExpr"


@dataclass(frozen=True)
class Abs:
    operand: "ModelExpr"


ModelExpr = Const | Sym | Der | Unary | Binary | If | Min | Max | Abs


def children(e: ModelExpr) -> tuple:
    if isinstance(e, (Const, Sym, Der)):
        return ()
    if isinstance(e, (Unary, Abs)):
        return (e.operand,)
    if isinstance(e, (Binary, Min, Max)):
        return (e.left, e.right)
    if isinstance(e, If):
        return (e.cond, e.then, e.orelse)
    raise TypeError(f"not a ModelExpr: {e!r}")


def iter_nodes(e: ModelExpr):
    yield e
    for c in children(e):
        yield from iter_nodes(c)


def refs(e: ModelExpr) -> list:
    """All Sym/Der references, in syntactic order (duplicates kept)."""
    return [n.ref for n in iter_nodes(e) if isinstance(n, (Sym, Der))]


def map_refs(e: ModelExpr, fn) -> ModelExpr:
    if isinstance(e, Sym):
        return Sym(fn(e.ref))
    if isinstance(e, Der):
        return Der(fn(e.ref))
    if isinstance(e, Const):
        return e
    if isinstance(e, Unary):
        return Unary(e.op, map_refs(e.operand, fn))
    if isinstance(e, Abs):
        return Abs(map_refs(e.operand, fn))
    if isinstance(e, Binary):
        return Binary(e.op, map_refs(e.left, fn), map_refs(e.right, fn))
    if isinstance(e, Min):
        return Min(map_refs(e.left, fn), map_refs(e.right, fn))
    if isinstance(e, Max):
        return Max(map_refs(e.left, fn), map_refs(e.right, fn))
    if isinstance(e, If):
        return If(map_refs(e.cond, fn), map_refs(e.then, fn), map_refs(e.orelse, fn))
    raise TypeError(f"not a ModelExpr: {e!r}")


def eval_expr(e: ModelExpr, env: dict) -> float:
    """Evaluate with variables bound in env (booleans as exact 0.0/1.0).

    Division by zero raises ZeroDivisionError for the caller to map to
    its own error type.
    """
    if isinstance(e, Const):
        if isinstance(e.value, bool):
            return 1.0 if e.value else 0.0
        return e.value
    if isinstance(e, Sym):
        return env[e.ref]
    if isinstance(e, Der):
        raise ValueError("der() cannot appear in an evaluated position")
    if isinstance(e, Unary):
        v = eval_expr(e.operand, env)
        if e.op == "neg":
            return -v
        return 0.0 if v != 0.0 else 1.0
    if isinstance(e, Abs):
        return abs(eval_expr(e.operand, env))
    if isinstance(e, Min):
        return min(eval_expr(e.left, env), eval_expr(e.right, env))
    if isinstance(e, Max):
        return max(eval_expr(e.left, env), eval_expr(e.right, env))
    if isinstance(e, If):
        if eval_expr(e.cond, env) != 0.0:
            return eval_expr(e.then, env)
        return eval_expr(e.orelse, env)
    if isinstance(e, Binary):
        a = eval_expr(e.left, env)
        b = eval_expr(e.right, env)
        op = e.op
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            return a / b
        if op == "lt":
            return 1.0 if a < b else 0.0
        if op == "le":
            return 1.0 if a <= b else 0.0
        if op == "gt":
            return 1.0 if a > b else 0.0
        if op == "ge":
            return 1.0 if a >= b else 0.0
        if op == "eq":
            return 1.0 if a == b else 0.0
        if op == "ne":
            return 1.0 if a != b else 0.0
        if op == "and":
            return 1.0 if (a != 0.0 and b != 0.0) else 0.0
        if op == "or":
            return 1.0 if (a != 0.0 or b != 0.0) else 0.0
    raise TypeError(f"not a ModelExpr: {e!r}")
