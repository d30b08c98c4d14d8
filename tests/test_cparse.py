import random

import pytest

from construct import mexpr
from construct.cparse import (
    Assign, CodeUnit, Decl, Deref, Ident, If, IntLit, ParseError, RealLit, Return,
    _tokenize, parse_c_expr, parse_c_unit,
)
from construct.mexpr import Binary, Call, Unary
from cprint import print_expr, print_unit


def test_step_function_parse():
    text = ("void step(long p, double h) { *(double *)(p + 0x10) = "
            "*(double *)(p + 0x10) + h * *(double *)(p + 0x18); }")
    unit = parse_c_unit(text)
    assert len(unit.functions) == 1
    fn = unit.functions[0]
    assert fn.name == "step"
    assert fn.params == (("long", "p"), ("double", "h"))
    assert fn.body == (
        Assign(Deref("p", 16, "double"),
               Binary("add", Deref("p", 16, "double"),
                      Binary("mul", Ident("h"), Deref("p", 24, "double")))),
    )


def test_ternary_assignment():
    unit = parse_c_unit("void f(int c, int a) { x = (c) ? a : b; }")
    assert unit.functions[0].body[0] == Assign(
        Ident("x"), mexpr.If(Ident("c"), Ident("a"), Ident("b")))


def test_error_position_on_semicolon():
    with pytest.raises(ParseError) as exc:
        parse_c_unit("void f(long p, double h) { x = + ; }")
    assert exc.value.line == 1
    assert exc.value.column == 34  # the ';'
    assert exc.value.found == ";"


def test_precedence_mul_binds_tighter():
    assert parse_c_expr("a + b * c") == Binary(
        "add", Ident("a"), Binary("mul", Ident("b"), Ident("c")))


def test_hex_and_decimal_literals_equal():
    assert parse_c_expr("0x10") == parse_c_expr("16")


def test_float_suffix_and_exponent():
    assert parse_c_expr("1.5f") == RealLit(1.5)
    assert parse_c_expr("2.5e-3") == RealLit(0.0025)
    assert parse_c_expr("1e-09") == RealLit(1e-09)


def test_comments_are_skipped():
    unit = parse_c_unit(
        "// header\nvoid f(long p, double h) { /* multi\nline */ y = 1.0; }")
    assert unit.functions[0].body[0] == Assign(Ident("y"), RealLit(1.0))


def test_if_else_statement():
    unit = parse_c_unit(
        "void f(long p, double h) { if (c) { y = a; } else { y = b; } }")
    stmt = unit.functions[0].body[0]
    assert isinstance(stmt, If)
    assert stmt.then == (Assign(Ident("y"), Ident("a")),)
    assert stmt.orelse == (Assign(Ident("y"), Ident("b")),)


def test_call_arity_checked():
    with pytest.raises(ParseError):
        parse_c_expr("fmin(a)")
    with pytest.raises(ParseError):
        parse_c_expr("fabs(a, b)")


def test_unknown_callee_rejected():
    with pytest.raises(ParseError):
        parse_c_expr("sqrt(a)")


def test_negative_deref_offset_rejected():
    with pytest.raises(ParseError):
        parse_c_unit("void f(long p, double h) { *(double *)(p + -8) = 1.0; }")


def test_missing_semicolon():
    with pytest.raises(ParseError):
        parse_c_unit("void f(long p, double h) { y = 1.0 }")


def test_duplicate_function_names():
    with pytest.raises(ParseError) as exc:
        parse_c_unit("void f(long p, double h) { }\nvoid f(long q, double g) { }")
    assert (exc.value.line, exc.value.column, exc.value.found) == (2, 1, "f")


def test_return_forms():
    unit = parse_c_unit("double f(double x) { return x; }\n"
                        "void g(long p, double h) { return; }")
    assert unit.functions[0].body == (Return(Ident("x")),)
    assert unit.functions[1].body == (Return(None),)


# ---------------------------------------------------------------------------
# Parse/print stability over random ASTs
# ---------------------------------------------------------------------------

_OPS = ["add", "sub", "mul", "div", "lt", "le", "gt", "ge", "eq", "ne", "and", "or"]


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            lambda: IntLit(rng.randrange(0, 200)),
            lambda: RealLit(rng.random() * 10),
            lambda: Ident(rng.choice("abcxyz")),
            lambda: Deref("p", 8 * rng.randrange(0, 32), rng.choice(
                ("double", "float", "int", "bool"))),
        ])()
    kind = rng.randrange(4)
    if kind == 0:
        return Unary(rng.choice(("neg", "not")), _random_expr(rng, depth - 1))
    if kind == 1:
        return Binary(rng.choice(_OPS), _random_expr(rng, depth - 1),
                      _random_expr(rng, depth - 1))
    if kind == 2:
        return mexpr.If(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1),
                       _random_expr(rng, depth - 1))
    fn = rng.choice(("min", "max", "abs"))
    n = 1 if fn == "abs" else 2
    return Call(fn, tuple(_random_expr(rng, depth - 1) for _ in range(n)))


def test_expr_print_parse_stability():
    rng = random.Random(20240811)
    for _ in range(300):
        e = _random_expr(rng, 4)
        printed = print_expr(e)
        assert parse_c_expr(printed) == e, printed


def test_unit_print_parse_stability():
    rng = random.Random(7)
    stmts = []
    for i in range(12):
        target = Deref("p", 8 * i, "double") if i % 2 else Ident(f"v{i}")
        stmts.append(Assign(target, _random_expr(rng, 3)))
    unit = CodeUnit((type(parse_c_unit("void f(long p, double h) { }").functions[0])(
        "f", (("long", "p"), ("double", "h")), tuple(stmts)),))
    assert parse_c_unit(print_unit(unit)) == unit


def test_decl_roundtrip():
    text = "void f(long p, double h) {\n  double t = h * 2.0;\n  *(double *)(p + 0x8) = t;\n}\n"
    unit = parse_c_unit(text)
    assert unit.functions[0].body[0] == Decl("double", "t",
                                             Binary("mul", Ident("h"), RealLit(2.0)))
    assert parse_c_unit(print_unit(unit)) == unit


def test_deep_parentheses_are_a_parse_error():
    text = "void f(long p, double h) { y = " + "(" * 300 + "h" + ")" * 300 + "; }"
    with pytest.raises(ParseError) as exc:
        parse_c_unit(text)
    assert "levels deep" in str(exc.value)


def test_long_flat_sum_is_a_parse_error():
    text = "void f(long p, double h) { y = h" + " + h" * 2000 + "; }"
    with pytest.raises(ParseError) as exc:
        parse_c_unit(text)
    assert "levels deep" in str(exc.value)


@pytest.mark.parametrize("text", ["1²", "²", "٣", "٣ + 1"])
def test_non_ascii_digits_are_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_c_expr(text)


@pytest.mark.parametrize("text", ["x²", "dVar٣", "ｘ", "x² + dVar٣ + ｘ"])
def test_non_ascii_identifiers_are_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_c_expr(text)


# Each row: the text, then either its tokens as (kind, text, value, line,
# column), the eof token last, or the (line, column, expected, found) of
# its ParseError.
LEXICAL_GRAMMAR = [
    ("1.", [("float", "1.", 1.0, 1, 1), ("eof", "", None, 1, 3)]),
    (".5", [("float", ".5", 0.5, 1, 1), ("eof", "", None, 1, 3)]),
    ("1e5f", [("float", "1e5f", 1e5, 1, 1), ("eof", "", None, 1, 5)]),
    ("1.0F", [("float", "1.0F", 1.0, 1, 1), ("eof", "", None, 1, 5)]),
    ("08", [("int", "08", 8, 1, 1), ("eof", "", None, 1, 3)]),
    ("0x1F", [("int", "0x1F", 31, 1, 1), ("eof", "", None, 1, 5)]),
    ("0X1f", [("int", "0X1f", 31, 1, 1), ("eof", "", None, 1, 5)]),
    ("1e", [("int", "1", 1, 1, 1), ("ident", "e", "e", 1, 2), ("eof", "", None, 1, 3)]),
    ("1.5e+", [("float", "1.5", 1.5, 1, 1), ("ident", "e", "e", 1, 4),
               ("punct", "+", "+", 1, 5), ("eof", "", None, 1, 6)]),
    ("1f", [("int", "1", 1, 1, 1), ("ident", "f", "f", 1, 2), ("eof", "", None, 1, 3)]),
    ("0x", (1, 1, "hex digits", "0")),
    ("0xg", (1, 1, "hex digits", "0")),
    ("a\n  /* open", (2, 3, "closing */", "/")),
    ("a.b", (1, 2, "a token", ".")),
    ("\f", (1, 1, "a token", "\f")),
    ("/* one\ntwo\nthree */ x", [("ident", "x", "x", 3, 10), ("eof", "", None, 3, 11)]),
    ("x // c", [("ident", "x", "x", 1, 1), ("eof", "", None, 1, 7)]),
]


@pytest.mark.parametrize("text, expected", LEXICAL_GRAMMAR)
def test_lexical_grammar(text, expected):
    if isinstance(expected, tuple):
        with pytest.raises(ParseError) as exc:
            _tokenize(text)
        e = exc.value
        assert (e.line, e.column, e.expected, e.found) == expected
    else:
        assert [(t.kind, t.text, t.value, t.line, t.column)
                for t in _tokenize(text)] == expected
