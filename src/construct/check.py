"""Symbol type inference, variable classification, the causal structure
of an equation model, and the validity constraints on a mapping.

A candidate mapping is only worth simulating when it satisfies:

    C0  injectivity: no two slots receive the same variable
    C1  type compliance: a slot takes a variable of the type its type
        group demands, and the variables of a group with no demanded
        type share one type, which is not Boolean under an ordering
        comparison
    C2  each equation references at least one unknown
    C3  the number of distinct mapped unknowns equals the equation count
    C4  every input and output variable appears in the mapping image
    C5  code causality: a slot the step function writes (the left-hand
        side of an equation, or a state) takes an unknown, and a slot it
        only reads takes an input or a parameter
    C6  pinned starts: a state slot that the init function sets to a
        constant c takes a variable that starts at c, a variable without
        a start counting as starting at 0.0 (start_of)

"Unknown" here means a variable the equation system must determine,
i.e. one of output or local causality. The decompiled step function is
executable, so it is causal already: analyse computes what causalization
knows about a model once, as a Structure, and each equation is solved
for the slot it writes (C5), which with C0 implies C2 and C3. One
function, binding_faults, states C0, C1, C4, C5 and C6 over a Structure:
validate_assignment reports every fault it yields, sim.causalize raises
the first, and a search's slot domains (GaProblem.compat) are the
variables domain_fault lets through.
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


class CausalizeError(ConstructError):
    """Why a bound model has no causal plan."""


class DuplicateBinding(CausalizeError):
    pass


class IllTypedModel(CausalizeError):
    pass


class InvalidStateVariable(CausalizeError):
    pass


class UnusedInput(CausalizeError):
    pass


class UnbalancedSystem(CausalizeError):
    pass


class StructurallySingular(CausalizeError):
    pass


class NotIsolatable(CausalizeError):
    def __init__(self, eq_index: int):
        self.eq_index = eq_index
        super().__init__(f"equation {eq_index}: the left-hand side is not a variable")


class InexpressibleRead(CausalizeError):
    """A read that the equation model, which evaluates each sample's
    stores in code order and updates its states after them, cannot
    express: the previous step's value of a slot stored later, or a
    state after its update."""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple  # of (constraint id, detail)

    @property
    def valid(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Classification:
    inputs: tuple
    outputs: tuple
    parameters: tuple
    locals: tuple

    @property
    def unknowns(self) -> frozenset:
        return frozenset(self.outputs) | frozenset(self.locals)


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
# Structure: what causalization knows before any binding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Structure:
    """The binding-independent facts of an equation system in code form,
    over its own references (slot ids, or variable names for a name-level
    model): each algebraic equation is solved for the reference it
    assigns, in code order, and each state equation integrates its state."""

    states: tuple  # of (state ref, right-hand side), in code order
    algebraic_order: tuple  # of (equation index, written ref, right-hand side)
    written: frozenset  # every ref an equation assigns or integrates
    reads: tuple  # the refs the equations only read, sorted
    types: dict  # ref -> the one type its group demands, if it demands one
    untyped: tuple  # of (member refs, ordering-compared): groups demanding none
    slots: tuple  # the SymbolSlot of each slot id, or () over names
    error: CausalizeError | None  # why no binding of the equations causalizes
    pins: dict  # state ref -> the constant the init function stores there (C6)


def analyse(equations, slots=(), inits=None) -> Structure:
    """Compute the Structure of an equation system once.

    inits maps refs to the constant the init function stores there, by
    default the slots' own (SymbolSlot.init); only the states' are kept,
    as the pins of C6, and a store to any other ref is ignored.

    Code order is the causal order: the step function evaluates its
    stores in it, and the model evaluates every store of a sample before
    it updates the states. The first fault in code order, naming its
    equations, is the error, before any type fault: a left-hand side that is no reference (NotIsolatable), a
    reference written twice (StructurallySingular), a read of a slot that
    an algebraic store writes at or after the reading equation, or of a
    state that an earlier equation updated (InexpressibleRead), and a
    type group that no binding meets (IllTypedModel: constants of two
    types, a group demanded two types, or Boolean under an ordering
    comparison). Type groups come from unify_types.
    """
    def label(r):
        return f"sym_{slots[r].origin}" if slots else r

    stores = {lhs.ref: i for i, (lhs, _) in enumerate(equations) if isinstance(lhs, mexpr.Sym)}
    owner, updated, occurring, faults = {}, {}, set(), []
    for i, (lhs, rhs) in enumerate(equations):
        if not isinstance(lhs, (mexpr.Sym, mexpr.Der)):
            faults.append(NotIsolatable(i))
        elif lhs.ref in owner:
            faults.append(StructurallySingular(
                f"equations {owner[lhs.ref]} and {i} both write {label(lhs.ref)}"))
        for r in mexpr.refs(rhs):
            if stores.get(r, -1) >= i:
                faults.append(InexpressibleRead(
                    f"equation {i} reads {label(r)} before equation {stores[r]} stores it"))
            elif r in updated:
                faults.append(InexpressibleRead(
                    f"equation {i} reads {label(r)} after equation {updated[r]} updated it"))
        occurring.update(mexpr.refs(lhs) + mexpr.refs(rhs))
        if isinstance(lhs, (mexpr.Sym, mexpr.Der)):
            owner.setdefault(lhs.ref, i)
        if isinstance(lhs, mexpr.Der):
            updated.setdefault(lhs.ref, i)

    types, untyped = {}, []
    try:
        groups, ordered = unify_types(equations, slots)
    except TypeConflict as exc:
        faults.append(IllTypedModel(str(exc)))
    else:
        if ("type", "Boolean") in ordered:
            faults.append(IllTypedModel("Boolean constants under an ordering comparison"))
        compared = {groups.find(ref) for kind, ref in ordered if kind == "slot"}
        members: dict = {}
        for r in sorted(occurring):
            members.setdefault(groups.find(r), []).append(r)
        for root, rs in members.items():
            demanded, is_ordered = sorted(groups.demands[root]), root in compared
            if len(demanded) > 1 or is_ordered and demanded == ["Boolean"]:
                faults.append(IllTypedModel(
                    f"{list(map(label, rs))} typed {demanded}"
                    + (" under an ordering comparison" if is_ordered else "")))
            elif demanded:
                types.update(dict.fromkeys(rs, demanded[0]))
            elif len(rs) > 1 or is_ordered:
                untyped.append((tuple(rs), is_ordered))

    if inits is None:
        inits = {s.id: s.init for s in slots if s.init is not None}
    return Structure(
        tuple((lhs.ref, rhs) for lhs, rhs in equations if isinstance(lhs, mexpr.Der)),
        tuple((i, lhs.ref, rhs) for i, (lhs, rhs) in enumerate(equations)
              if isinstance(lhs, mexpr.Sym)),
        frozenset(owner), tuple(sorted(occurring - owner.keys())), types, tuple(untyped),
        tuple(slots), faults[0] if faults else None,
        {r: pin for r, pin in inits.items() if r in updated})


# ---------------------------------------------------------------------------
# The binding rules and constraint validation
# ---------------------------------------------------------------------------

def start_of(v) -> float:
    """Where variable v starts on a state slot, and what a data slot
    holding a parameter reads: its start, 0.0 when it has none."""
    return 0.0 if v.start is None else float(v.start)


def domain_fault(st: Structure, ref, v) -> str | None:
    """Why variable v lies outside the domain of ref in st: "C1" when it
    is not of the type ref's group demands, "C5" when it is an unknown on
    a ref the code only reads, or an input or a parameter on one it
    writes, "C6" when ref is a state the init function sets to a
    constant (Structure.pins) that v does not start at (start_of, so a
    variable without a start meets 0.0); None when it lies inside."""
    if st.types.get(ref, v.vtype) != v.vtype:
        return "C1"
    if (ref in st.written) != (v.causality in ("output", "local")):
        return "C5"
    if ref in st.pins and start_of(v) != st.pins[ref]:
        return "C6"
    return None


def binding_faults(st: Structure, vars: VariableTable, bindings: tuple):
    """Yield (constraint id, CausalizeError) for each rule broken by
    binding the refs of st to the variables of vars that bindings names,
    one per slot in slot order; the refs are slot ids or, over names,
    the bound names themselves. The order is fixed: C0 for each variable
    bound to a second slot; st.error, as C5; C1, C5 or C6 for each slot,
    in slot order, whose variable lies outside its domain (domain_fault),
    C6 as an InvalidStateVariable naming the constant the init function
    stores and where the variable starts;
    C4 for each input and output left unbound, in table order; C1 for
    each type group with no demanded type (Structure.untyped) whose
    variables differ in type, or are Boolean under an ordering
    comparison. Only the bound variables and the table's inputs and
    outputs are read."""
    slot_of: dict = {}
    for pos, name in enumerate(bindings):
        if name in slot_of:
            yield "C0", DuplicateBinding(f"slots {slot_of[name]} and {pos} both map to {name!r}")
        else:
            slot_of[name] = pos
    if st.error is not None:
        yield "C5", st.error
    var = vars.by_name
    for pos, name in enumerate(bindings):
        ref, v = (pos if st.slots else name), var[name]
        cid = domain_fault(st, ref, v)
        if cid is None:
            continue
        where = f"slot {pos} ({st.slots[pos].origin})" if st.slots else f"slot {pos}"
        if cid == "C1":
            yield cid, IllTypedModel(f"{where} needs {st.types[ref]}, {name!r} is {v.vtype}")
        elif cid == "C6":
            yield cid, InvalidStateVariable(f"{where} starts at {st.pins[ref]!r} in the init "
                                            f"function, {name!r} starts at {start_of(v)!r}")
        elif ref not in st.written:
            yield cid, UnbalancedSystem(f"{where} is only read, {name!r} is {v.causality}")
        else:
            error = InvalidStateVariable if ref in dict(st.states) else StructurallySingular
            yield cid, error(f"{where} is written, {name!r} is {v.causality}")
    for v in vars.io:
        if v.name not in slot_of:
            error = UnusedInput if v.causality == "input" else UnbalancedSystem
            yield "C4", error(f"{v.causality} {v.name!r} is not mapped")
    for members, ordered in st.untyped:
        names = [bindings[r] for r in members] if st.slots else list(members)
        types = sorted({var[n].vtype for n in names})
        if len(types) > 1 or ordered and types == ["Boolean"]:
            yield "C1", IllTypedModel(f"{names} typed {types}"
                                      + (" under an ordering comparison" if ordered else ""))


def genes_of(m: EquationModel, c, vars: VariableTable) -> tuple:
    """The genes of c, a Chromosome or any sequence of gene values: one
    per slot of m (else ValueError), each the index of a variable of vars
    (else GeneOutOfRange)."""
    genes = tuple(getattr(c, "genes", c))
    if len(genes) != m.num_slots:
        raise ValueError(f"chromosome length {len(genes)} != slot count {m.num_slots}")
    n = len(vars.variables)
    for pos, g in enumerate(genes):
        if not 0 <= g < n:
            raise GeneOutOfRange(pos, g, n)
    return genes


def bound_names(m: EquationModel, c, vars: VariableTable) -> tuple:
    """The variable name each gene of c selects, one gene per slot."""
    variables = vars.variables
    return tuple(variables[g].name for g in genes_of(m, c, vars))


def validate_assignment(m: EquationModel, vars: VariableTable, c,
                        st: Structure | None = None) -> ValidationReport:
    """Check a slot-to-variable mapping against C0 through C6.

    Every fault of binding_faults is collected, never short-circuited;
    C2 and C3, which C0 and C5 imply, are reported as well, and the
    violations are grouped by constraint id. Slot types must already be
    inferred (infer_symbol_types). st is m's slot-level Structure, where
    the caller holds it (GaProblem.validate); otherwise it is analysed.
    """
    names = bound_names(m, c, vars)
    st = analyse(m.equations, m.slots) if st is None else st
    violations = [(cid, str(fault)) for cid, fault in binding_faults(st, vars, names)]

    unknowns = classify_variables(vars).unknowns
    for i, (lhs, rhs) in enumerate(m.equations):
        if not {names[r] for r in mexpr.refs(lhs) + mexpr.refs(rhs)} & unknowns:
            violations.append(("C2", f"equation {i} references no unknown"))
    mapped = len(set(names) & unknowns)
    if mapped != len(m.equations):
        violations.append(("C3", f"{mapped} mapped unknowns for {len(m.equations)} equations"))

    violations.sort(key=lambda violation: violation[0])
    return ValidationReport(tuple(violations))
