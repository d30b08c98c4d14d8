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

Operators, ternaries and calls become the interior nodes of mexpr
(Unary, Binary, If, Call), the ones the model uses, over the leaves
defined here: IntLit, RealLit, Ident and Deref. A callee is read as the
built-in it computes (CALLEES: fminf is min), so a parsed Call names
min, max or abs, and translation replaces only the leaves.

Tokens are the alternatives of one pattern, _TOKEN_RE, ASCII only. Each
match of it is one token, newline or comment together with the blanks
before it, so the text is lexed in one regular-expression match per
token.

Anything outside the subset is a hard ParseError, never a best-effort
skip. Dereferences like ``*(double *)(p + 0x10)`` are kept as first-class
AST nodes because downstream passes key on their byte offsets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from construct import mexpr
from construct.errors import ConstructError

TYPES = ("void", "double", "float", "int", "bool", "long", "undefined4", "undefined8")
DEREF_CASTS = ("float", "double", "int", "bool")
# each callee spelling: the built-in it computes, and its arity
CALLEES = {"fmin": ("min", 2), "fmax": ("max", 2), "fminf": ("min", 2),
           "fmaxf": ("max", 2), "fabs": ("abs", 1), "fabsf": ("abs", 1)}


class ParseError(ConstructError):
    def __init__(self, line: int, column: int, expected: str, found: str = "",
                 source: str = ""):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        self.source = source
        detail = f" (found {found!r})" if found else ""
        where = f"{source}: " if source else ""
        super().__init__(f"{where}line {line}, column {column}: expected {expected}{detail}")

    def in_source(self, source: str) -> "ParseError":
        """The same error, located in the named source file."""
        return ParseError(self.line, self.column, self.expected, self.found, source)


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


CodeExpr = IntLit | RealLit | Ident | Deref \
    | mexpr.Unary | mexpr.Binary | mexpr.If | mexpr.Call


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

# One alternative per token kind, tried in order, after the blanks before
# the token; end takes the blanks at the end of the text. Character
# classes are spelled out in ASCII: \d and \w would also accept "²", "٣"
# and "ｘ".
_TOKEN_RE = re.compile(r"""
    [ \t\r]*
    (?:(?P<newline>\n)
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
      | (?P<end>\Z))
""", re.VERBOSE | re.DOTALL)
_ERRORS = {"unclosed": "closing */", "badhex": "hex digits", "other": "a token"}


class _Token:
    __slots__ = ("kind", "text", "value", "line", "column")

    def __init__(self, kind: str, text: str, value, line: int, column: int):
        self.kind = kind  # ident | int | float | punct | eof
        self.text = text
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text, then eof. Each match of _TOKEN_RE is one token,
    newline or comment with the blanks before it, so a token's column is
    where its group starts. Raises ParseError at the first lexical error."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        lexeme = m.group(kind)
        if kind == "ident" or kind == "punct":
            tokens.append(_Token(kind, lexeme, lexeme, line, m.start(kind) - line_start + 1))
        elif kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "comment":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = m.start(kind) + lexeme.rfind("\n") + 1
        elif kind != "end":
            col = m.start(kind) - line_start + 1
            if kind in _ERRORS:
                raise ParseError(line, col, _ERRORS[kind], lexeme[0])
            if kind == "float":
                value = float(lexeme.rstrip("fF"))
            else:
                # no C integer type holds 2**64, which has 20 decimal digits;
                # the length test comes first, as int() refuses very long strings
                value = 2 ** 64 if kind == "int" and len(lexeme.lstrip("0")) > 20 \
                    else int(lexeme, 16 if kind == "hex" else 10)
                if value >= 2 ** 64:
                    raise ParseError(line, col, "an integer literal below 2**64",
                                     lexeme if len(lexeme) <= 24 else lexeme[:20] + "...")
                kind = "int"
            tokens.append(_Token(kind, lexeme, value, line, col))
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


def height(e: CodeExpr) -> int:
    """Tree height of an expression, found without recursion."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((c, depth + 1) for c in mexpr.children(node))
    return deepest


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, expected: str) -> ParseError:
        tok = self.tokens[self.pos]
        return ParseError(tok.line, tok.column, expected, tok.text or "end of input")

    # an expected text is never "", the text of eof, so neither expect
    # steps past eof
    def expect(self, text: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.text != text:
            raise self.error(repr(text))
        self.pos += 1
        return tok

    def expect_ident(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "ident" or tok.text in TYPES:
            raise self.error("an identifier")
        self.pos += 1
        return tok

    def at_type(self) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "ident" and tok.text in TYPES

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
            return mexpr.If(cond, then, orelse)
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
            left = mexpr.Binary(_PUNCT_TO_OP[tok.text], left, right)

    def parse_unary(self) -> CodeExpr:
        tok = self.peek()
        if tok.text not in ("-", "+", "!"):
            return self.parse_primary()
        self.advance()
        operand = self.nest(self.parse_unary)
        if tok.text == "+":
            return operand  # unary plus folds away
        return mexpr.Unary("neg" if tok.text == "-" else "not", operand)

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
                fn, arity = CALLEES[tok.text]
                if len(args) != arity:
                    raise ParseError(tok.line, tok.column,
                                     f"{arity} argument(s) to {tok.text}",
                                     f"{len(args)} given")
                return mexpr.Call(fn, tuple(args))
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


def iter_stmts(stmts):
    """Yield every statement in document order: each statement, then the
    statements of its then arm, then those of its orelse arm."""
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from iter_stmts(s.then)
            yield from iter_stmts(s.orelse)
