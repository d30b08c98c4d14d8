"""A C printer for the parser's round-trip tests, with minimal
parentheses, so that parsing a printed unit gives the unit back. It
reads the parser's own precedence tables from construct.cparse."""

from __future__ import annotations

from construct import mexpr
from construct.cparse import (
    _PRECEDENCE, _PUNCT_TO_OP, _UNARY_PREC, Assign, CodeExpr, CodeStmt, CodeUnit, Decl, Deref,
    Ident, If, IntLit, RealLit, Return,
)

_OP_TO_PUNCT = {v: k for k, v in _PUNCT_TO_OP.items()}


def _expr_prec(e: CodeExpr) -> int:
    if isinstance(e, mexpr.If):
        return 0
    if isinstance(e, mexpr.Binary):
        return _PRECEDENCE[_OP_TO_PUNCT[e.op]]
    if isinstance(e, mexpr.Unary):
        return _UNARY_PREC
    return 8  # primary


def print_expr(e: CodeExpr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, RealLit):
        return repr(e.value)
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, Deref):
        return f"*({e.cast} *)({e.base} + 0x{e.offset:x})"
    if isinstance(e, mexpr.Unary):
        op = "-" if e.op == "neg" else "!"
        inner = print_expr(e.operand)
        if _expr_prec(e.operand) < _UNARY_PREC:
            inner = f"({inner})"
        elif isinstance(e.operand, mexpr.Unary):
            inner = f"({inner})"  # avoid -- / !! token gluing ambiguity
        return op + inner
    if isinstance(e, mexpr.Binary):
        prec = _expr_prec(e)
        left = print_expr(e.left)
        if _expr_prec(e.left) < prec:
            left = f"({left})"
        right = print_expr(e.right)
        if _expr_prec(e.right) <= prec:
            right = f"({right})"
        return f"{left} {_OP_TO_PUNCT[e.op]} {right}"
    if isinstance(e, mexpr.If):
        cond = print_expr(e.cond)
        if isinstance(e.cond, mexpr.If):
            cond = f"({cond})"
        return f"{cond} ? {print_expr(e.then)} : {print_expr(e.orelse)}"
    if isinstance(e, mexpr.Call):
        return f"f{e.fn}({', '.join(print_expr(a) for a in e.args)})"
    raise TypeError(f"not a CodeExpr: {e!r}")


def _print_stmt(s: CodeStmt, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(s, Decl):
        if s.init is None:
            return [f"{pad}{s.ctype} {s.name};"]
        return [f"{pad}{s.ctype} {s.name} = {print_expr(s.init)};"]
    if isinstance(s, Assign):
        return [f"{pad}{print_expr(s.target)} = {print_expr(s.value)};"]
    if isinstance(s, Return):
        if s.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {print_expr(s.value)};"]
    if isinstance(s, If):
        lines = [f"{pad}if ({print_expr(s.cond)}) {{"]
        for sub in s.then:
            lines.extend(_print_stmt(sub, indent + 1))
        if s.orelse:
            lines.append(f"{pad}}} else {{")
            for sub in s.orelse:
                lines.extend(_print_stmt(sub, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"not a CodeStmt: {s!r}")


def print_unit(unit: CodeUnit) -> str:
    chunks = []
    for f in unit.functions:
        params = ", ".join(f"{t} {n}" for t, n in f.params)
        lines = [f"{f.rtype} {f.name}({params}) {{"]
        for s in f.body:
            lines.extend(_print_stmt(s, 1))
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"
