"""Model-level (equation) expression nodes: Const, Sym, Der, Unary (neg,
not), Binary, If, and Call, a call of a built-in function (min, max, abs).

Shared by translation, binding, validation, and simulation. Sym/Der
carry integer slot ids, in a search's plans too; model.apply_assignment
rewrites them to variable names (strings) for emission and for mappings
from outside a search. Everything else is agnostic of that distinction.
"""

from __future__ import annotations

from dataclasses import dataclass

NUMERIC_BINOPS = ("add", "sub", "mul", "div")
LOGIC_BINOPS = ("and", "or")
FUNCTIONS = {"min": min, "max": max, "abs": abs}  # the built-ins a Call names


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
class Call:
    fn: str  # a key of FUNCTIONS
    args: tuple  # of ModelExpr


ModelExpr = Const | Sym | Der | Unary | Binary | If | Call


def children(e: ModelExpr) -> tuple:
    match e:
        case Const() | Sym() | Der():
            return ()
        case Unary(_, operand):
            return (operand,)
        case Binary(_, left, right):
            return (left, right)
        case If(cond, then, orelse):
            return (cond, then, orelse)
        case Call(_, args):
            return args
    raise TypeError(f"not a ModelExpr: {e!r}")


def iter_nodes(e: ModelExpr):
    yield e
    for c in children(e):
        yield from iter_nodes(c)


def refs(e: ModelExpr) -> list:
    """All Sym/Der references, in syntactic order (duplicates kept)."""
    return [n.ref for n in iter_nodes(e) if isinstance(n, (Sym, Der))]


def map_refs(e: ModelExpr, fn) -> ModelExpr:
    match e:
        case Sym(ref):
            return Sym(fn(ref))
        case Der(ref):
            return Der(fn(ref))
        case Const():
            return e
        case Unary(op, operand):
            return Unary(op, map_refs(operand, fn))
        case Binary(op, left, right):
            return Binary(op, map_refs(left, fn), map_refs(right, fn))
        case If(cond, then, orelse):
            return If(map_refs(cond, fn), map_refs(then, fn), map_refs(orelse, fn))
        case Call(name, args):
            return Call(name, tuple(map_refs(a, fn) for a in args))
    raise TypeError(f"not a ModelExpr: {e!r}")


def eval_expr(e: ModelExpr, env: dict) -> float:
    """Evaluate with variables bound in env (booleans as exact 0.0/1.0).

    Division by zero raises ZeroDivisionError for the caller to map to
    its own error type.
    """
    match e:
        case Const(value):
            if isinstance(value, bool):
                return 1.0 if value else 0.0
            return value
        case Sym(ref):
            return env[ref]
        case Der():
            raise ValueError("der() cannot appear in an evaluated position")
        case Unary(op, operand):
            v = eval_expr(operand, env)
            if op == "neg":
                return -v
            return 0.0 if v != 0.0 else 1.0
        case Call(name, args) if name in FUNCTIONS:
            return FUNCTIONS[name](*[eval_expr(a, env) for a in args])
        case If(cond, then, orelse):
            if eval_expr(cond, env) != 0.0:
                return eval_expr(then, env)
            return eval_expr(orelse, env)
        case Binary(op, left, right):
            a = eval_expr(left, env)
            b = eval_expr(right, env)
            match op:
                case "add":
                    return a + b
                case "sub":
                    return a - b
                case "mul":
                    return a * b
                case "div":
                    return a / b
                case "lt":
                    return 1.0 if a < b else 0.0
                case "le":
                    return 1.0 if a <= b else 0.0
                case "gt":
                    return 1.0 if a > b else 0.0
                case "ge":
                    return 1.0 if a >= b else 0.0
                case "eq":
                    return 1.0 if a == b else 0.0
                case "ne":
                    return 1.0 if a != b else 0.0
                case "and":
                    return 1.0 if (a != 0.0 and b != 0.0) else 0.0
                case "or":
                    return 1.0 if (a != 0.0 or b != 0.0) else 0.0
    raise TypeError(f"not a ModelExpr: {e!r}")
