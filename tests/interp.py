"""Reference interpreter for step-function statement bodies.

Used as the independent oracle in tests: it executes the decompiled C
subset directly (memory slots keyed by byte offset, locals by name) so
translated equation models can be checked against plain statement
semantics without going through the translation path itself. `named`
renames a slot-level simulation plan to the name-level plan it stands
for, so that plans can be compared and run through the tree walk.
"""

from __future__ import annotations

from construct import mexpr, sim
from construct.cparse import (
    Assign, Binary, Call, Decl, Deref, Ident, If, IntLit, RealLit, Return,
    Ternary, Unary,
)


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
    if isinstance(e, Ternary):
        if eval_code_expr(e.cond, mem, env) != 0.0:
            return eval_code_expr(e.then, mem, env)
        return eval_code_expr(e.orelse, mem, env)
    if isinstance(e, Call):
        args = [eval_code_expr(a, mem, env) for a in e.args]
        if e.callee in ("fmin", "fminf"):
            return min(args)
        if e.callee in ("fmax", "fmaxf"):
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


def named(plan: sim.SimPlan) -> sim.SimPlan:
    """The plan over variable names: a slot-level plan renamed through its
    bindings; a name-level plan as it is."""
    name = plan.name
    return sim.SimPlan(
        tuple((name(r), start, mexpr.map_refs(rhs, name))
              for r, start, rhs in plan.state_vars),
        tuple((i, name(r), mexpr.map_refs(e, name)) for i, r, e in plan.algebraic_order),
        {name(r): value for r, value in plan.param_env.items()},
        frozenset(map(name, plan.input_names)))
