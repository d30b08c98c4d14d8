"""Chromosome binding and Modelica flat-model emission."""

from __future__ import annotations

from dataclasses import dataclass, field

from construct import mexpr
from construct.check import genes_of
from construct.container import VariableTable
from construct.errors import ConstructError
from construct.translate import EquationModel


class GeneOutOfRange(ConstructError):
    def __init__(self, position: int, gene: int, limit: int):
        self.position = position
        super().__init__(f"gene {gene} at position {position} outside [0, {limit})")


@dataclass(frozen=True)
class BoundModel:
    """An equation model with slots substituted by real variable names."""

    equations: tuple  # of (lhs, rhs) over variable names
    variable_table: VariableTable
    states: frozenset  # variable names appearing under der()
    bindings: tuple  # per-slot variable names, in slot order
    # slot-level sim.Structure, if given; else causalize analyses the names
    structure: object = field(default=None, compare=False, repr=False)

    def used_names(self) -> list:
        """Names referenced by the equations, in first-use order."""
        seen: dict = {}
        for lhs, rhs in self.equations:
            for ref in mexpr.refs(lhs) + mexpr.refs(rhs):
                seen.setdefault(ref, None)
        return list(seen)


def apply_assignment(m: EquationModel, c, vars: VariableTable,
                     structure=None) -> BoundModel:
    """Rewrite every slot reference to the variable its gene selects.
    structure, the slot-level sim.Structure of m, is kept for causalize."""
    genes = genes_of(c)
    if len(genes) != m.num_slots:
        raise ValueError(f"chromosome length {len(genes)} != slot count {m.num_slots}")
    for pos, g in enumerate(genes):
        if not 0 <= g < len(vars):
            raise GeneOutOfRange(pos, g, len(vars))
    names = tuple(vars[g].name for g in genes)
    equations = tuple(
        (mexpr.map_refs(lhs, lambda r: names[r]), mexpr.map_refs(rhs, lambda r: names[r]))
        for lhs, rhs in m.equations)
    states = frozenset(names[s.id] for s in m.slots if s.is_state)
    return BoundModel(equations, vars, states, names, structure)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

_PREC = {"or": 1, "and": 2, "eq": 4, "ne": 4, "lt": 4, "le": 4, "gt": 4, "ge": 4,
         "add": 5, "sub": 5, "mul": 6, "div": 6}
_OPTEXT = {"or": "or", "and": "and", "eq": "==", "ne": "<>", "lt": "<", "le": "<=",
           "gt": ">", "ge": ">=", "add": "+", "sub": "-", "mul": "*", "div": "/"}


def _prec(e) -> int:
    if isinstance(e, mexpr.If):
        return 0
    if isinstance(e, mexpr.Binary):
        return _PREC[e.op]
    if isinstance(e, mexpr.Unary):
        return 3 if e.op == "not" else 7
    return 8


def format_real(v: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(v))


def _fmt(e) -> str:
    if isinstance(e, mexpr.Const):
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        return format_real(e.value)
    if isinstance(e, mexpr.Sym):
        return str(e.ref)
    if isinstance(e, mexpr.Der):
        return f"der({e.ref})"
    if isinstance(e, mexpr.Unary):
        inner = _fmt(e.operand)
        if _prec(e.operand) < _prec(e) or isinstance(e.operand, mexpr.Unary):
            inner = f"({inner})"
        return f"not {inner}" if e.op == "not" else f"-{inner}"
    if isinstance(e, mexpr.Binary):
        p = _prec(e)
        left = _fmt(e.left)
        if _prec(e.left) < p:
            left = f"({left})"
        right = _fmt(e.right)
        if _prec(e.right) <= p:
            right = f"({right})"
        return f"{left} {_OPTEXT[e.op]} {right}"
    if isinstance(e, mexpr.If):
        return f"if {_fmt(e.cond)} then {_fmt(e.then)} else {_fmt(e.orelse)}"
    if isinstance(e, mexpr.Min):
        return f"min({_fmt(e.left)}, {_fmt(e.right)})"
    if isinstance(e, mexpr.Max):
        return f"max({_fmt(e.left)}, {_fmt(e.right)})"
    if isinstance(e, mexpr.Abs):
        return f"abs({_fmt(e.operand)})"
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
    used = set(b.used_names())
    groups = {"input": [], "output": [], "parameter": [], "local": []}
    for v in b.variable_table.variables:
        if v.name in used:
            groups[v.causality].append(v)

    lines = [f"model {model_name}"]
    for causality in ("input", "output", "parameter", "local"):
        prefix = "" if causality == "local" else causality + " "
        for v in sorted(groups[causality], key=lambda d: d.name):
            decl = f"  {prefix}{v.vtype} {v.name}"
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
