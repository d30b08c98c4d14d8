"""Parser for decompiler-style C text (a restricted subset).

The accepted language is the flat, struct-poking shape that decompilers
emit for exported step functions:

    unit      := { function }
    function  := type ident "(" [ param { "," param } ] ")" block
    param     := type ident
    type      := "void" | "double" | "float" | "int" | "bool" | "long"
               | "undefined4" | "undefined8"
    block     := "{" { stmt } "}"
    stmt      := decl ";" | assign ";"
               | "if" "(" expr ")" block [ "else" block ]
               | "return" [ expr ] ";"
    decl      := type ident [ "=" expr ]
    assign    := lvalue "=" expr
    lvalue    := ident | "*" "(" type "*" ")" "(" ident "+" intlit ")"
    expr      := C expression over the supported operators, ternary,
                 fmin/fmax/fminf/fmaxf/fabs/fabsf calls, parentheses,
                 literals, lvalues
    intlit    := decimal | 0x-hex

Tokens are the alternatives of one pattern, _TOKEN_RE, ASCII only.

Anything outside the subset is a hard ParseError, never a best-effort
skip. Dereferences like ``*(double *)(p + 0x10)`` are kept as first-class
AST nodes because downstream passes key on their byte offsets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from construct.errors import ConstructError

TYPES = ("void", "double", "float", "int", "bool", "long", "undefined4", "undefined8")
DEREF_CASTS = ("float", "double", "int", "bool")
CALLEES = {"fmin": 2, "fmax": 2, "fminf": 2, "fmaxf": 2, "fabs": 1, "fabsf": 1}


class ParseError(ConstructError):
    def __init__(self, line: int, column: int, expected: str, found: str = ""):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        detail = f" (found {found!r})" if found else ""
        super().__init__(f"line {line}, column {column}: expected {expected}{detail}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class RealLit:
    value: float


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Deref:
    """``*(cast *)(base + offset)``, the decompiled struct-slot access."""

    base: str
    offset: int
    cast: str


@dataclass(frozen=True)
class Unary:
    op: str  # neg | not
    operand: "CodeExpr"


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div | lt | le | gt | ge | eq | ne | and | or
    left: "CodeExpr"
    right: "CodeExpr"


@dataclass(frozen=True)
class Ternary:
    cond: "CodeExpr"
    then: "CodeExpr"
    orelse: "CodeExpr"


@dataclass(frozen=True)
class Call:
    callee: str
    args: tuple


CodeExpr = IntLit | RealLit | Ident | Deref | Unary | Binary | Ternary | Call


@dataclass(frozen=True)
class Decl:
    ctype: str
    name: str
    init: CodeExpr | None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Assign:
    target: CodeExpr  # Ident or Deref
    value: CodeExpr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class If:
    cond: CodeExpr
    then: tuple
    orelse: tuple
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Return:
    value: CodeExpr | None
    line: int = field(default=0, compare=False)


CodeStmt = Decl | Assign | If | Return


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple  # of (type, name)
    body: tuple  # of CodeStmt
    rtype: str = "void"
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CodeUnit:
    functions: tuple

    def __post_init__(self):
        names = set()
        for f in self.functions:
            if f.name in names:
                raise ParseError(f.line, 1, "a unique function name", f.name)
            names.add(f.name)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One alternative per token kind, tried in order. Character classes are
# spelled out in ASCII: \d and \w would also accept "²", "٣" and "ｘ".
_TOKEN_RE = re.compile(r"""
    (?P<newline>\n)
  | (?P<blank>[ \t\r]+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<unclosed>/\*)
  | (?P<hex>0[xX][0-9a-fA-F]+)
  | (?P<badhex>0[xX])
  | (?P<float>(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fF]?
             |[0-9]+[eE][+-]?[0-9]+[fF]?)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct><=|>=|==|!=|&&|\|\||[(){};,=+\-*/<>!?:])
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)
_ERRORS = {"unclosed": "closing */", "badhex": "hex digits", "other": "a token"}


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | float | punct | eof
    text: str
    value: object
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "comment":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = m.start() + lexeme.rfind("\n") + 1
        elif kind in _ERRORS:
            raise ParseError(line, col, _ERRORS[kind], lexeme[0])
        elif kind == "hex":
            tokens.append(_Token("int", lexeme, int(lexeme, 16), line, col))
        elif kind == "float":
            tokens.append(_Token("float", lexeme, float(lexeme.rstrip("fF")), line, col))
        elif kind == "int":
            tokens.append(_Token("int", lexeme, int(lexeme), line, col))
        elif kind != "blank":
            tokens.append(_Token(kind, lexeme, lexeme, line, col))
    tokens.append(_Token("eof", "", None, line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Binary precedence, loosest first. Ternary sits below all of these.
_PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6,
}
_PUNCT_TO_OP = {
    "||": "or", "&&": "and", "==": "eq", "!=": "ne",
    "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
    "+": "add", "-": "sub", "*": "mul", "/": "div",
}
_UNARY_PREC = 7

# Deepest expression accepted, both as nesting of parentheses, unary
# operands, ternary branches and call arguments while parsing, and as
# height of the parsed tree, where each operator of a binary chain adds a
# level. Later passes recurse over expressions, so temporary elimination
# holds the expressions it builds to the same bound. The deepest parsed
# expression in the committed containers is 3 levels (pi, pid and limpid
# alike); the deepest after temporary elimination is 4 (pi) and 5 (pid,
# limpid).
MAX_EXPR_DEPTH = 64

# Most nodes in an expression that temporary elimination emits. A
# temporary used twice is inlined twice, so a chain of doubling
# temporaries stays shallow while its tree grows 2^n nodes, and every
# later walk with it. The largest emitted expression in the committed
# containers has 7 nodes (pi), 9 (pid) and 11 (limpid).
MAX_EXPR_NODES = 1023


def operands(e: CodeExpr) -> tuple:
    if isinstance(e, Unary):
        return (e.operand,)
    if isinstance(e, Binary):
        return (e.left, e.right)
    if isinstance(e, Ternary):
        return (e.cond, e.then, e.orelse)
    if isinstance(e, Call):
        return e.args
    return ()


def height(e: CodeExpr) -> int:
    """Tree height of an expression, found without recursion."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((c, depth + 1) for c in operands(node))
    return deepest


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        return ParseError(tok.line, tok.column, expected, tok.text or "end of input")

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise self.error(repr(text))
        return self.advance()

    def expect_ident(self) -> _Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in TYPES:
            raise self.error("an identifier")
        return self.advance()

    def at_type(self) -> bool:
        return self.peek().kind == "ident" and self.peek().text in TYPES

    # -- unit ---------------------------------------------------------------

    def parse_unit(self) -> CodeUnit:
        functions = []
        while self.peek().kind != "eof":
            functions.append(self.parse_function())
        return CodeUnit(tuple(functions))

    def parse_function(self) -> Function:
        if not self.at_type():
            raise self.error("a return type")
        start = self.advance()
        name = self.expect_ident().text
        self.expect("(")
        params = []
        if self.peek().text != ")":
            while True:
                if not self.at_type():
                    raise self.error("a parameter type")
                ptype = self.advance().text
                pname = self.expect_ident().text
                params.append((ptype, pname))
                if self.peek().text != ",":
                    break
                self.advance()
        self.expect(")")
        body = self.parse_block()
        return Function(name, tuple(params), body, rtype=start.text, line=start.line)

    def parse_block(self) -> tuple:
        self.expect("{")
        stmts = []
        while self.peek().text != "}":
            if self.peek().kind == "eof":
                raise self.error("'}'")
            stmts.append(self.parse_stmt())
        self.expect("}")
        return tuple(stmts)

    # -- statements ----------------------------------------------------------

    def parse_stmt(self) -> CodeStmt:
        tok = self.peek()
        if tok.text == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block()
            orelse = ()
            if self.peek().text == "else":
                self.advance()
                orelse = self.parse_block()
            return If(cond, then, orelse, line=tok.line)
        if tok.text == "return":
            self.advance()
            value = None
            if self.peek().text != ";":
                value = self.parse_expr()
            self.expect(";")
            return Return(value, line=tok.line)
        if self.at_type():
            ctype = self.advance().text
            name = self.expect_ident().text
            init = None
            if self.peek().text == "=":
                self.advance()
                init = self.parse_expr()
            self.expect(";")
            return Decl(ctype, name, init, line=tok.line)
        target = self.parse_lvalue()
        self.expect("=")
        value = self.parse_expr()
        self.expect(";")
        return Assign(target, value, line=tok.line)

    def parse_lvalue(self) -> CodeExpr:
        if self.peek().text == "*":
            return self.parse_deref()
        return Ident(self.expect_ident().text)

    def parse_deref(self) -> Deref:
        self.expect("*")
        self.expect("(")
        tok = self.peek()
        if tok.text not in DEREF_CASTS:
            raise self.error("a dereference cast type")
        cast = self.advance().text
        self.expect("*")
        self.expect(")")
        self.expect("(")
        base = self.expect_ident().text
        self.expect("+")
        off = self.peek()
        if off.kind != "int":
            raise self.error("an integer offset")
        self.advance()
        if off.value < 0:
            raise ParseError(off.line, off.column, "a non-negative offset", off.text)
        self.expect(")")
        return Deref(base, off.value, cast)

    # -- expressions ----------------------------------------------------------

    def nest(self, parse):
        """Run a sub-parser one nesting level deeper. Beyond MAX_EXPR_DEPTH
        levels, or for a whole expression beyond that tree height, raise
        ParseError."""
        if self.nesting < MAX_EXPR_DEPTH:
            self.nesting += 1
            e = parse()
            self.nesting -= 1
            if self.nesting or height(e) <= MAX_EXPR_DEPTH:
                return e
        raise self.error(f"an expression at most {MAX_EXPR_DEPTH} levels deep")

    def parse_expr(self) -> CodeExpr:
        return self.nest(self.parse_ternary)

    def parse_ternary(self) -> CodeExpr:
        cond = self.parse_binary(1)
        if self.peek().text == "?":
            self.advance()
            then = self.parse_expr()
            self.expect(":")
            orelse = self.parse_expr()
            return Ternary(cond, then, orelse)
        return cond

    def parse_binary(self, min_prec: int) -> CodeExpr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            prec = _PRECEDENCE.get(tok.text, 0)
            if prec < min_prec:
                return left
            self.advance()
            right = self.parse_binary(prec + 1)
            left = Binary(_PUNCT_TO_OP[tok.text], left, right)

    def parse_unary(self) -> CodeExpr:
        tok = self.peek()
        if tok.text not in ("-", "+", "!"):
            return self.parse_primary()
        self.advance()
        operand = self.nest(self.parse_unary)
        if tok.text == "+":
            return operand  # unary plus folds away
        return Unary("neg" if tok.text == "-" else "not", operand)

    def parse_primary(self) -> CodeExpr:
        tok = self.peek()
        if tok.text == "*":
            return self.parse_deref()
        if tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "int":
            self.advance()
            return IntLit(tok.value)
        if tok.kind == "float":
            self.advance()
            return RealLit(tok.value)
        if tok.kind == "ident" and tok.text not in TYPES:
            self.advance()
            if self.peek().text == "(":
                if tok.text not in CALLEES:
                    raise ParseError(tok.line, tok.column, "a supported callee", tok.text)
                self.advance()
                args = []
                if self.peek().text != ")":
                    while True:
                        args.append(self.parse_expr())
                        if self.peek().text != ",":
                            break
                        self.advance()
                self.expect(")")
                if len(args) != CALLEES[tok.text]:
                    raise ParseError(tok.line, tok.column,
                                     f"{CALLEES[tok.text]} argument(s) to {tok.text}",
                                     f"{len(args)} given")
                return Call(tok.text, tuple(args))
            return Ident(tok.text)
        raise self.error("an expression")


def parse_c_unit(text: str) -> CodeUnit:
    """Parse decompiled C text into a CodeUnit. Raises ParseError."""
    return _Parser(text).parse_unit()


def parse_c_expr(text: str) -> CodeExpr:
    """Parse a single expression (test and tooling convenience)."""
    p = _Parser(text)
    e = p.parse_expr()
    if p.peek().kind != "eof":
        raise p.error("end of input")
    return e


# ---------------------------------------------------------------------------
# Pretty printer (minimal parentheses; parse(print(u)) is structurally stable)
# ---------------------------------------------------------------------------

_OP_TO_PUNCT = {v: k for k, v in _PUNCT_TO_OP.items()}


def _expr_prec(e: CodeExpr) -> int:
    if isinstance(e, Ternary):
        return 0
    if isinstance(e, Binary):
        return _PRECEDENCE[_OP_TO_PUNCT[e.op]]
    if isinstance(e, Unary):
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
    if isinstance(e, Unary):
        op = "-" if e.op == "neg" else "!"
        inner = print_expr(e.operand)
        if _expr_prec(e.operand) < _UNARY_PREC:
            inner = f"({inner})"
        elif isinstance(e.operand, Unary):
            inner = f"({inner})"  # avoid -- / !! token gluing ambiguity
        return op + inner
    if isinstance(e, Binary):
        prec = _expr_prec(e)
        left = print_expr(e.left)
        if _expr_prec(e.left) < prec:
            left = f"({left})"
        right = print_expr(e.right)
        if _expr_prec(e.right) <= prec:
            right = f"({right})"
        return f"{left} {_OP_TO_PUNCT[e.op]} {right}"
    if isinstance(e, Ternary):
        cond = print_expr(e.cond)
        if isinstance(e.cond, Ternary):
            cond = f"({cond})"
        return f"{cond} ? {print_expr(e.then)} : {print_expr(e.orelse)}"
    if isinstance(e, Call):
        return f"{e.callee}({', '.join(print_expr(a) for a in e.args)})"
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


def map_expr(fn, e: CodeExpr) -> CodeExpr:
    """Rebuild an expression bottom-up, applying fn to every node."""
    if isinstance(e, Unary):
        e = Unary(e.op, map_expr(fn, e.operand))
    elif isinstance(e, Binary):
        e = Binary(e.op, map_expr(fn, e.left), map_expr(fn, e.right))
    elif isinstance(e, Ternary):
        e = Ternary(map_expr(fn, e.cond), map_expr(fn, e.then), map_expr(fn, e.orelse))
    elif isinstance(e, Call):
        e = Call(e.callee, tuple(map_expr(fn, a) for a in e.args))
    return fn(e)


def iter_stmts(stmts):
    """Yield every statement in document order: each statement, then the
    statements of its then arm, then those of its orelse arm."""
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from iter_stmts(s.then)
            yield from iter_stmts(s.orelse)
