"""Translation of normalized step-function bodies into symbolic equations.

Compiler temporaries are inlined first, then each surviving assignment
becomes one equation. The forward-Euler update ``x = x + h * E`` is
recognized as the state equation ``der(x) = E``. Every distinct struct
offset and surviving identifier receives one symbol slot; slot numbering
follows first occurrence in document order, which downstream chromosome
encodings rely on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from construct import mexpr
from construct.cparse import (
    MAX_EXPR_DEPTH, MAX_EXPR_NODES, Assign, Decl, Deref, Ident, If, IntLit, RealLit,
    Return, iter_stmts,
)
from construct.errors import ConstructError
from construct.isolate import StepBody

CAST_TO_TYPE = {"double": "Real", "float": "Real", "int": "Integer", "bool": "Boolean"}


class TranslateError(ConstructError):
    pass


class ReassignedTemporary(TranslateError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"local {name!r} is assigned more than once")


class UnsupportedControlFlow(TranslateError):
    def __init__(self, line: int, detail: str):
        self.line = line
        super().__init__(f"line {line}: unsupported control flow: {detail}")


class UnboundIdentifier(TranslateError):
    def __init__(self, name: str, detail: str = ""):
        self.name = name
        extra = f" ({detail})" if detail else ""
        super().__init__(f"identifier {name!r} is not a parameter, local, or slot{extra}")


@dataclass(frozen=True)
class SymbolSlot:
    """A symbolic variable position awaiting a real variable name."""

    id: int
    origin: str  # "0x<offset>" for derefs, the identifier otherwise
    inferred_type: str = "Unknown"  # Real | Integer | Boolean | Unknown
    init: float | None = None  # the constant the init function stores here, if any


@dataclass(frozen=True)
class EquationModel:
    equations: tuple  # of (lhs, rhs) ModelExpr pairs; lhs is Sym or Der
    slots: tuple  # of SymbolSlot, ids dense 0..S-1

    def __post_init__(self):
        ids = [s.id for s in self.slots]
        if ids != list(range(len(self.slots))):
            raise ValueError("slot ids must be dense 0..S-1")
        origins = [s.origin for s in self.slots]
        if len(set(origins)) != len(origins):
            raise ValueError("slot origins must be unique")
        used = set()
        der_seen = set()
        for lhs, rhs in self.equations:
            for ref in mexpr.refs(lhs) + mexpr.refs(rhs):
                if not (0 <= ref < len(self.slots)):
                    raise ValueError(f"equation references unknown slot {ref}")
                used.add(ref)
            if isinstance(lhs, mexpr.Der):
                if lhs.ref in der_seen:
                    raise ValueError(f"slot {lhs.ref} has two state equations")
                der_seen.add(lhs.ref)
        missing = set(range(len(self.slots))) - used
        if missing:
            raise ValueError(f"slots never used in equations: {sorted(missing)}")

    @property
    def num_slots(self) -> int:
        return len(self.slots)


# ---------------------------------------------------------------------------
# Temporary elimination
# ---------------------------------------------------------------------------

def _writes(stmts) -> Counter:
    """How often the given statements write each identifier, by an
    initialized declaration or an assignment."""
    names: Counter = Counter()
    for s in stmts:
        if isinstance(s, Decl) and s.init is not None:
            names[s.name] += 1
        elif isinstance(s, Assign) and isinstance(s.target, Ident):
            names[s.target.name] += 1
    return names


def _subst(pending: dict, e):
    def repl(node):
        if isinstance(node, Ident) and node.name in pending:
            return pending[node.name]
        return node

    return mexpr.map_nodes(repl, e)


def _extent(e, inlined: dict) -> tuple:
    """(tree height, node count) of e once every identifier in inlined is
    replaced by the expression it stands for. inlined holds the extents
    of those expressions, so no inlined copy is walked."""
    if isinstance(e, Ident) and e.name in inlined:
        return inlined[e.name]
    parts = [_extent(c, inlined) for c in mexpr.children(e)]
    return 1 + max((h for h, _ in parts), default=0), 1 + sum(n for _, n in parts)


def eliminate_temporaries(body: StepBody) -> StepBody:
    """Inline every local assigned exactly once at the top level.

    Dereferenced slots are never eliminated. Locals written only inside
    branch arms survive (they become identifier slots); a local written
    twice along one path is out of subset. An emitted expression deeper
    than MAX_EXPR_DEPTH or larger than MAX_EXPR_NODES after inlining
    raises TranslateError.
    """
    top = _writes(body.statements)
    branch = _writes(iter_stmts(body.statements)) - top
    for name in body.locals_:
        if top[name] >= 2 or (top[name] >= 1 and branch[name] >= 1):
            raise ReassignedTemporary(name)
    # a local written twice along one arm of a top-level branch
    for s in body.statements:
        if isinstance(s, If):
            for arm in (s.then, s.orelse):
                for name, n in _writes(iter_stmts(arm)).items():
                    if n > 1 and name in body.locals_:
                        raise ReassignedTemporary(name)

    eliminable = {name for name in body.locals_ if top[name] == 1 and branch[name] == 0}

    pending: dict = {}
    extents: dict = {}  # of the pending expressions, see _extent

    def define(name: str, e) -> None:
        extents[name] = _extent(e, extents)
        pending[name] = _subst(pending, e)

    def emit(e, line: int):
        depth, nodes = _extent(e, extents)
        if depth > MAX_EXPR_DEPTH:
            raise TranslateError(
                f"line {line}: inlining temporaries makes an expression deeper "
                f"than {MAX_EXPR_DEPTH} levels")
        if nodes > MAX_EXPR_NODES:
            raise TranslateError(
                f"line {line}: inlining temporaries makes an expression of more "
                f"than {MAX_EXPR_NODES} nodes")
        return _subst(pending, e)

    def walk(stmts):
        out = []
        for s in stmts:
            if isinstance(s, Decl):
                if s.name in eliminable and s.init is not None:
                    define(s.name, s.init)
                continue  # declarations never survive as statements
            if isinstance(s, Assign) and isinstance(s.target, Ident) \
                    and s.target.name in eliminable:
                define(s.target.name, s.value)
                continue
            if isinstance(s, Assign):
                out.append(Assign(s.target, emit(s.value, s.line), line=s.line))
            elif isinstance(s, If):
                out.append(If(emit(s.cond, s.line), walk(s.then),
                              walk(s.orelse), line=s.line))
            elif isinstance(s, Return):
                value = None if s.value is None else emit(s.value, s.line)
                out.append(Return(value, line=s.line))
            else:
                out.append(s)
        return tuple(out)

    statements = walk(body.statements)
    surviving = tuple(n for n in body.locals_ if n not in eliminable)
    return replace(body, statements=statements, locals_=surviving)


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

class _SlotTable:
    def __init__(self):
        self.by_origin: dict = {}
        self.slots: list = []

    def slot_for(self, origin: str, inferred: str) -> int:
        if origin in self.by_origin:
            return self.by_origin[origin]
        sid = len(self.slots)
        self.by_origin[origin] = sid
        self.slots.append((origin, inferred))
        return sid

    def finish(self, body: StepBody) -> tuple:
        inits = {f"0x{offset:x}": c for offset, c in body.inits.items()}
        return tuple(SymbolSlot(i, origin, inferred, inits.get(origin))
                     for i, (origin, inferred) in enumerate(self.slots))


def _match_integrator(target, value, step_symbol: str):
    """Match ``target + h * E`` (any operand order); return E or None."""
    if not (isinstance(value, mexpr.Binary) and value.op == "add"):
        return None
    for state_side, inc in ((value.left, value.right), (value.right, value.left)):
        if state_side != target:
            continue
        if isinstance(inc, mexpr.Binary) and inc.op == "mul":
            if inc.left == Ident(step_symbol):
                return inc.right
            if inc.right == Ident(step_symbol):
                return inc.left
        # reciprocal rule may have rewritten h * c into h / n
        if isinstance(inc, mexpr.Binary) and inc.op == "div" and inc.left == Ident(step_symbol) \
                and isinstance(inc.right, RealLit) and inc.right.value != 0.0:
            return RealLit(1.0 / inc.right.value)
    return None


def translate_to_equations(body: StepBody) -> EquationModel:
    """Turn a normalized, temp-eliminated step body into equations.

    Raises UnsupportedControlFlow for statement shapes outside the
    subset and UnboundIdentifier for names that are neither parameters,
    locals, nor dereferences. A slot at an offset the init function
    stores to carries that store (SymbolSlot.init); a store to an offset
    the step function never uses has no slot.
    """
    table = _SlotTable()
    states: set = set()  # the slots updated as states, each at most once
    known_idents = (set(body.params) | set(body.locals_)) \
        - {body.base_pointer, body.step_symbol}

    def leaf(e):
        """The model leaf for a C leaf; an interior node as it is."""
        if isinstance(e, (IntLit, RealLit)):
            return mexpr.Const(float(e.value))
        if isinstance(e, Deref):
            if e.base != body.base_pointer:
                raise UnboundIdentifier(e.base, "unexpected dereference base")
            sid = table.slot_for(f"0x{e.offset:x}", CAST_TO_TYPE[e.cast])
            return mexpr.Sym(sid)
        if isinstance(e, Ident):
            if e.name == body.step_symbol:
                raise UnboundIdentifier(e.name, "step size used outside an integrator update")
            if e.name == body.base_pointer:
                raise UnboundIdentifier(e.name, "raw pointer use")
            if e.name not in known_idents:
                raise UnboundIdentifier(e.name)
            return mexpr.Sym(table.slot_for(e.name, "Unknown"))
        return e

    def trans(e):
        return mexpr.map_nodes(leaf, e)

    def target_slot(target, line: int) -> int:
        lhs = trans(target)
        if not isinstance(lhs, mexpr.Sym):
            raise UnsupportedControlFlow(line, "assignment target is not a slot")
        return lhs.ref

    equations = []
    n_stmts = len(body.statements)
    for idx, s in enumerate(body.statements):
        if isinstance(s, Assign):
            integ = _match_integrator(s.target, s.value, body.step_symbol)
            if integ is not None:
                sid = target_slot(s.target, s.line)
                if sid in states:
                    raise UnsupportedControlFlow(s.line, "second state update for one slot")
                states.add(sid)
                equations.append((mexpr.Der(sid), trans(integ)))
            else:
                sid = target_slot(s.target, s.line)
                equations.append((mexpr.Sym(sid), trans(s.value)))
        elif isinstance(s, If):
            if len(s.then) == 1 and len(s.orelse) == 1 \
                    and isinstance(s.then[0], Assign) and isinstance(s.orelse[0], Assign) \
                    and s.then[0].target == s.orelse[0].target:
                cond = trans(s.cond)
                sid = target_slot(s.then[0].target, s.line)
                equations.append((
                    mexpr.Sym(sid),
                    mexpr.If(cond, trans(s.then[0].value),
                             trans(s.orelse[0].value))))
            else:
                raise UnsupportedControlFlow(
                    s.line, "branches must assign exactly one shared slot")
        elif isinstance(s, Return):
            if s.value is None and idx == n_stmts - 1:
                continue  # trailing bare return
            raise UnsupportedControlFlow(s.line, "return with a value")
        elif isinstance(s, Decl):
            raise UnsupportedControlFlow(s.line, "declaration survived elimination")
        else:
            raise UnsupportedControlFlow(getattr(s, "line", 0), repr(s))

    return EquationModel(tuple(equations), table.finish(body))
