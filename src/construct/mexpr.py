"""Expression nodes. The interior nodes, Unary (neg, not), Binary, If
and Call, a call of a built-in function (min, max, abs), are one family
for C and model trees alike: the C front end (cparse) builds them over
its own leaves, and translation replaces only those leaves by the model
leaves Const, Sym and Der. children and map_nodes walk either kind.

Model trees are shared by translation, binding, validation, and
simulation. Sym/Der carry integer slot ids, in a search's plans too;
model.apply_assignment rewrites them to variable names (strings) for
emission and for mappings from outside a search. Everything else is
agnostic of that distinction.
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


def children(e) -> tuple:
    """The operands of an interior node; () for any leaf, C or model."""
    if isinstance(e, Binary):
        return (e.left, e.right)
    if isinstance(e, Unary):
        return (e.operand,)
    if isinstance(e, If):
        return (e.cond, e.then, e.orelse)
    if isinstance(e, Call):
        return e.args
    return ()


def iter_nodes(e):
    yield e
    for c in children(e):
        yield from iter_nodes(c)


def refs(e: ModelExpr) -> list:
    """All Sym/Der references, in syntactic order (duplicates kept)."""
    return [n.ref for n in iter_nodes(e) if isinstance(n, (Sym, Der))]


def map_nodes(fn, e):
    """Rebuild a C or model expression bottom-up, applying fn to every
    node, leaves included."""
    if isinstance(e, Binary):
        e = Binary(e.op, map_nodes(fn, e.left), map_nodes(fn, e.right))
    elif isinstance(e, Unary):
        e = Unary(e.op, map_nodes(fn, e.operand))
    elif isinstance(e, If):
        e = If(map_nodes(fn, e.cond), map_nodes(fn, e.then), map_nodes(fn, e.orelse))
    elif isinstance(e, Call):
        e = Call(e.fn, tuple(map_nodes(fn, a) for a in e.args))
    return fn(e)


def map_refs(e: ModelExpr, fn) -> ModelExpr:
    return map_nodes(lambda n: type(n)(fn(n.ref)) if isinstance(n, (Sym, Der)) else n, e)


def eval_expr(e: ModelExpr, env: dict) -> float:
    """Evaluate with variables bound in env (booleans as exact 0.0/1.0).

    `and` and `or` evaluate their right operand only when the left one
    does not decide, as in C. Division by zero raises ZeroDivisionError
    for the caller to map to its own error type.
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
        case Binary("and", left, right):
            return 1.0 if eval_expr(left, env) != 0.0 and eval_expr(right, env) != 0.0 else 0.0
        case Binary("or", left, right):
            return 1.0 if eval_expr(left, env) != 0.0 or eval_expr(right, env) != 0.0 else 0.0
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
    raise TypeError(f"not a ModelExpr: {e!r}")
