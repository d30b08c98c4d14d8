"""Symbol type inference, variable classification, and validity checks.

A candidate mapping is only worth simulating when it satisfies:

    C0  injectivity: no two slots receive the same variable
    C1  type compliance: inferred slot type equals the variable type
    C2  each equation references at least one unknown
    C3  the number of distinct mapped unknowns equals the equation count
    C4  every input and output variable appears in the mapping image
    C5  code causality: a slot the step function writes (the left-hand
        side of an equation, or a state) takes an unknown, and a slot it
        only reads takes an input or a parameter

"Unknown" here means a variable the equation system must determine,
i.e. one of output or local causality. The decompiled step function is
executable, so it is causal already: each equation is solved for the
slot it writes (C5), which with C0 implies C2 and C3.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

from construct import mexpr
from construct.container import VariableTable
from construct.errors import ConstructError
from construct.translate import EquationModel


class TypeConflict(ConstructError):
    def __init__(self, slot_id: int | None, demands):
        self.slot_id = slot_id
        self.demands = tuple(sorted(demands))
        where = f"slot {slot_id}" if slot_id is not None else "constants"
        super().__init__(f"conflicting type demands on {where}: {self.demands}")


class GeneOutOfRange(ConstructError, ValueError):
    def __init__(self, position: int, gene: int, limit: int):
        self.position = position
        super().__init__(f"gene {gene} at position {position} outside [0, {limit})")


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple  # of (constraint id, detail)

    def __post_init__(self):
        if self.valid != (len(self.violations) == 0):
            raise ValueError("valid flag inconsistent with violations")

    def summary(self) -> str:
        if self.valid:
            return "valid"
        return "; ".join(f"{cid}: {detail}" for cid, detail in self.violations)


@dataclass(frozen=True)
class Classification:
    inputs: tuple
    outputs: tuple
    parameters: tuple
    locals: tuple

    @property
    def unknowns(self) -> frozenset:
        return frozenset(self.outputs) | frozenset(self.locals)

    @property
    def knowns(self) -> frozenset:
        return frozenset(self.inputs) | frozenset(self.parameters)


def classify_variables(vars: VariableTable) -> Classification:
    """Partition a variable table by causality."""
    groups = {"input": [], "output": [], "parameter": [], "local": []}
    for v in vars.variables:
        groups[v.causality].append(v.name)
    return Classification(tuple(groups["input"]), tuple(groups["output"]),
                          tuple(groups["parameter"]), tuple(groups["local"]))


# ---------------------------------------------------------------------------
# Type inference (union-find with per-group demands)
# ---------------------------------------------------------------------------

class _Groups:
    """Union-find over references (slot ids or variable names), each
    group with the set of types it is demanded to have."""

    def __init__(self):
        self.parent: dict = {}
        self.demands: dict = defaultdict(set)  # by group root

    def find(self, r):
        parent = self.parent
        while parent.setdefault(r, r) != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.demands[ra] |= self.demands.pop(rb, set())

    def demand(self, r, t: str) -> None:
        self.demands[self.find(r)].add(t)


def unify_types(equations, slots=()) -> tuple:
    """The type walker over model expressions, by unification.

    Equation sides share a type, as do the branches and result of a
    conditional and the operands of a comparison. Conditions and logic
    operands demand Boolean, arithmetic and der() demand Real, and so do
    the slots' known inferred types. Returns the groups and the type
    term, ("slot", ref) or ("type", name), of the operands of every
    ordering comparison. Raises TypeConflict(None, ...) on constants.
    """
    groups = _Groups()
    for s in slots:
        if s.inferred_type != "Unknown":
            groups.demand(s.id, s.inferred_type)
    ordered = []

    def unify(a, b):
        if a[0] == "slot" and b[0] == "slot":
            groups.union(a[1], b[1])
            return a
        if a[0] == "slot":
            groups.demand(a[1], b[1])
            return a
        if b[0] == "slot":
            groups.demand(b[1], a[1])
            return b
        if a[1] != b[1]:
            raise TypeConflict(None, {a[1], b[1]})
        return a

    def demand(term, t: str):
        unify(term, ("type", t))

    def ty(e):
        match e:
            case mexpr.Const(value):
                return ("type", "Boolean" if isinstance(value, bool) else "Real")
            case mexpr.Sym(ref):
                return ("slot", ref)
            case mexpr.Der(ref):
                groups.demand(ref, "Real")
                return ("type", "Real")
            case mexpr.Unary(op, operand):
                t = "Real" if op == "neg" else "Boolean"
                demand(ty(operand), t)
                return ("type", t)
            case mexpr.Call(_, args):
                for a in args:
                    demand(ty(a), "Real")
                return ("type", "Real")
            case mexpr.If(cond, then, orelse):
                demand(ty(cond), "Boolean")
                return unify(ty(then), ty(orelse))
            case mexpr.Binary(op, left, right):
                lt, rt = ty(left), ty(right)
                if op in mexpr.NUMERIC_BINOPS:
                    demand(lt, "Real")
                    demand(rt, "Real")
                    return ("type", "Real")
                if op in mexpr.LOGIC_BINOPS:
                    demand(lt, "Boolean")
                    demand(rt, "Boolean")
                    return ("type", "Boolean")
                operands = unify(lt, rt)
                if op not in ("eq", "ne"):
                    ordered.append(operands)
                return ("type", "Boolean")
        raise TypeError(f"not a ModelExpr: {e!r}")

    for lhs, rhs in equations:
        if isinstance(lhs, mexpr.Der):
            groups.demand(lhs.ref, "Real")
            demand(ty(rhs), "Real")
        else:
            unify(ty(lhs), ty(rhs))
    return groups, ordered


def infer_symbol_types(m: EquationModel) -> EquationModel:
    """Fill each slot's inferred_type by unification (unify_types).
    Raises TypeConflict when a slot is demanded to be two types."""
    groups, _ = unify_types(m.equations, m.slots)
    resolved = []
    for s in m.slots:
        ds = groups.demands[groups.find(s.id)]
        if len(ds) > 1:
            members = [t.id for t in m.slots if groups.find(t.id) == groups.find(s.id)]
            raise TypeConflict(min(members), ds)
        inferred = next(iter(ds)) if ds else "Unknown"
        resolved.append(replace(s, inferred_type=inferred))
    return EquationModel(m.equations, tuple(resolved))


# ---------------------------------------------------------------------------
# Constraint validation
# ---------------------------------------------------------------------------

def genes_of(m: EquationModel, c, vars: VariableTable) -> tuple:
    """The genes of c, a Chromosome or any sequence of gene values: one
    per slot of m (else ValueError), each the index of a variable of vars
    (else GeneOutOfRange)."""
    genes = tuple(getattr(c, "genes", c))
    if len(genes) != m.num_slots:
        raise ValueError(f"chromosome length {len(genes)} != slot count {m.num_slots}")
    for pos, g in enumerate(genes):
        if not 0 <= g < len(vars):
            raise GeneOutOfRange(pos, g, len(vars))
    return genes


def validate_assignment(m: EquationModel, vars: VariableTable, c,
                        strict_unknown: bool = False) -> ValidationReport:
    """Check a slot-to-variable mapping against C0 through C5.

    All violations are collected, never short-circuited. Slot types must
    already be inferred (infer_symbol_types). With strict_unknown, slots
    whose type could not be inferred are themselves C1 violations.
    """
    genes = genes_of(m, c, vars)
    cls = classify_variables(vars)
    violations = []

    seen: dict = {}
    for pos, g in enumerate(genes):
        if g in seen:
            violations.append(
                ("C0", f"slots {seen[g]} and {pos} both map to {vars[g].name!r}"))
        else:
            seen[g] = pos

    for slot, g in zip(m.slots, genes):
        v = vars[g]
        if slot.inferred_type == "Unknown":
            if strict_unknown:
                violations.append(
                    ("C1", f"slot {slot.id} ({slot.origin}) has no inferred type"))
            continue
        if slot.inferred_type != v.vtype:
            violations.append(
                ("C1", f"slot {slot.id} ({slot.origin}) needs {slot.inferred_type}, "
                       f"{v.name!r} is {v.vtype}"))

    unknowns = cls.unknowns
    for i, (lhs, rhs) in enumerate(m.equations):
        names = {vars[genes[r]].name for r in mexpr.refs(lhs) + mexpr.refs(rhs)}
        if not names & unknowns:
            violations.append(("C2", f"equation {i} references no unknown"))

    image = {vars[g].name for g in genes}
    if len(image & unknowns) != len(m.equations):
        violations.append(
            ("C3", f"{len(image & unknowns)} mapped unknowns for "
                   f"{len(m.equations)} equations"))

    for name in list(cls.inputs) + list(cls.outputs):
        if name not in image:
            violations.append(("C4", f"I/O variable {name!r} is not mapped"))

    written = {lhs.ref for lhs, _ in m.equations}
    for slot, g in zip(m.slots, genes):
        v = vars[g]
        if (slot.id in written) != (v.name in unknowns):
            role = "written" if slot.id in written else "only read"
            violations.append(
                ("C5", f"slot {slot.id} ({slot.origin}) is {role}, "
                       f"{v.name!r} is {v.causality}"))

    return ValidationReport(not violations, tuple(violations))
