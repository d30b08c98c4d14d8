"""Chromosome binding and Modelica flat-model emission."""

from __future__ import annotations

import string
from dataclasses import dataclass, field

from construct import mexpr
from construct.check import GeneOutOfRange, bound_names  # GeneOutOfRange re-exported
from construct.container import VariableTable
from construct.errors import ConstructError
from construct.translate import EquationModel


class UnspellableName(ConstructError):
    pass


@dataclass(frozen=True)
class BoundModel:
    """An equation model bound to variables: equations over variable names,
    or, with a slot-level check.Structure, over slot ids, each named by
    bindings. Over names, inits maps the name bound to each slot the init
    function stores to to the constant it stores (SymbolSlot.init)."""

    equations: tuple  # of (lhs, rhs) over variable names, or slot ids
    variable_table: VariableTable
    bindings: tuple  # per-slot variable names, in slot order
    structure: object = field(default=None, compare=False, repr=False)
    inits: dict = field(default_factory=dict, compare=False, repr=False)


def apply_assignment(m: EquationModel, c, vars: VariableTable) -> BoundModel:
    """The name-level model, for emission and mappings from outside a search."""
    names = bound_names(m, c, vars)
    equations = tuple(
        (mexpr.map_refs(lhs, lambda r: names[r]), mexpr.map_refs(rhs, lambda r: names[r]))
        for lhs, rhs in m.equations)
    return BoundModel(equations, vars, names,
                      inits={names[s.id]: s.init for s in m.slots if s.init is not None})


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

_PREC = {"or": 1, "and": 2, "eq": 4, "ne": 4, "lt": 4, "le": 4, "gt": 4, "ge": 4,
         "add": 5, "sub": 5, "mul": 6, "div": 6}
_OPTEXT = {"or": "or", "and": "and", "eq": "==", "ne": "<>", "lt": "<", "le": "<=",
           "gt": ">", "ge": ">=", "add": "+", "sub": "-", "mul": "*", "div": "/"}


def _prec(e) -> int:
    match e:
        case mexpr.If():
            return 0
        case mexpr.Binary(op):
            return _PREC[op]
        case mexpr.Unary(op):
            return 3 if op == "not" else 7
        case mexpr.Const() | mexpr.Sym() | mexpr.Der() | mexpr.Call():
            return 8
    raise TypeError(f"not a ModelExpr: {e!r}")


# Modelica 3.5 §2.3.3
_KEYWORDS = frozenset("""
    algorithm and annotation block break class connect connector constant constrainedby der
    discrete each else elseif elsewhen encapsulated end enumeration equation expandable extends
    external false final flow for function if import impure in initial inner input loop model
    not operator or outer output package parameter partial protected public pure record
    redeclare replaceable return stream then true type when while within""".split())
# §2.3.1: the Q-CHARs, written as they are, and the characters an S-ESCAPE
# spells; '"' is written escaped, as every version of the grammar reads it
_Q_CHARS = frozenset(string.ascii_letters + string.digits + "_!#$%&()*+,-./:;<>=?@[]^{}|~ ")
_S_ESCAPES = {"'": "\\'", '"': '\\"', "\\": "\\\\", "\a": "\\a", "\b": "\\b",
              "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\v": "\\v"}


def modelica_name(name: str) -> str:
    """name as it is written in Modelica: itself where it is an IDENT and
    no keyword, otherwise a Q-IDENT ('ctrl.x'); UnspellableName for a
    name with a character that no Q-IDENT can spell."""
    if name.isascii() and name.isidentifier() and name not in _KEYWORDS:
        return name
    try:
        return "'" + "".join(c if c in _Q_CHARS else _S_ESCAPES[c] for c in name) + "'"
    except KeyError as exc:
        raise UnspellableName(f"variable {name!r} has no Modelica name: no identifier "
                              f"spells {exc.args[0]!r}") from None


def format_real(v: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(v))


def _fmt(e) -> str:
    match e:
        case mexpr.Const(value):
            if isinstance(value, bool):
                return "true" if value else "false"
            return format_real(value)
        case mexpr.Sym(ref):
            return modelica_name(str(ref))
        case mexpr.Der(ref):
            return f"der({modelica_name(str(ref))})"
        case mexpr.Unary(op, operand):
            inner = _fmt(operand)
            if _prec(operand) < _prec(e) or isinstance(operand, mexpr.Unary) \
                    or inner.startswith("-"):
                inner = f"({inner})"
            return f"not {inner}" if op == "not" else f"-{inner}"
        case mexpr.Binary(op, left, right):
            # a leading minus, of a negation or a negative constant, may
            # begin only an arithmetic-expression, never a term or a factor
            p = _prec(e)
            lhs, rhs = _fmt(left), _fmt(right)
            if _prec(left) < p or lhs.startswith("-"):
                lhs = f"({lhs})"
            if _prec(right) <= p or rhs.startswith("-"):
                rhs = f"({rhs})"
            return f"{lhs} {_OPTEXT[op]} {rhs}"
        case mexpr.If(cond, then, orelse):
            return f"if {_fmt(cond)} then {_fmt(then)} else {_fmt(orelse)}"
        case mexpr.Call(fn, args):
            return f"{fn}({', '.join(map(_fmt, args))})"
    raise TypeError(f"not a ModelExpr: {e!r}")


def _fmt_start(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_real(value)
    return str(value)


def emit_modelica(b: BoundModel, model_name: str) -> str:
    """Emit deterministic flat-model text.

    Only variables that occur in the equations are declared, which keeps
    the emitted model balanced. Declarations are grouped by causality
    (input, output, parameter, local) and sorted by name; parameters
    carry their start as a binding, other variables as a modifier.
    """
    used = {r for lhs, rhs in b.equations for r in mexpr.refs(lhs) + mexpr.refs(rhs)}
    groups = {"input": [], "output": [], "parameter": [], "local": []}
    for v in b.variable_table.variables:
        if v.name in used:
            groups[v.causality].append(v)

    lines = [f"model {model_name}"]
    for causality in ("input", "output", "parameter", "local"):
        prefix = "" if causality == "local" else causality + " "
        for v in sorted(groups[causality], key=lambda d: d.name):
            decl = f"  {prefix}{v.vtype} {modelica_name(v.name)}"
            if v.causality == "parameter":
                decl += f" = {_fmt_start(v.start)}"
            elif v.start is not None:
                decl += f"(start = {_fmt_start(v.start)})"
            lines.append(decl + ";")
    lines.append("equation")
    for lhs, rhs in b.equations:
        lines.append(f"  {_fmt(lhs)} = {_fmt(rhs)};")
    lines.append(f"end {model_name};")
    return "\n".join(lines) + "\n"
