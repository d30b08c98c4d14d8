"""Differential test of the C tokenizer: cparse._tokenize, one match per
token with the blanks before it folded in, against interp.tokenize, one
match per run of blanks.

Both must give the same tokens (kind, text, value, line, column), or the
same ParseError (line, column, expected, found and message), on the
committed C sources, on every damaged C source that test_mutation.py
draws for its seeds, and on strings drawn from random.Random(seed): C
fragments, comments, line endings, blanks and characters outside the
lexical grammar, non-ASCII letters and digits among them.

A longer pass over more strings (the test's strings come first):
    PYTHONPATH=src python tests/test_tokenize.py 200000
"""

import random
import sys
from pathlib import Path

import pytest

import interp
import test_mutation
from construct.cparse import ParseError, _tokenize

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted(REPO.glob("fixtures/*/sources/*.c")) + sorted(REPO.glob("tests/data/*/sources/*.c"))
# fragments that lex, each alone and mostly side by side
LEXABLE = (
    "double", "undefined8", "dVar1", "param_1", "_x9", "fmin", "if", "else", "return",
    "(", ")", "{", "}", ";", ",", "=", "+", "-", "*", "/", "<", ">", "!", "?", ":",
    "<=", ">=", "==", "!=", "&&", "||",
    "0", "7", "0x10", "0X1f", "0xffffffffffffffff", "1.25", ".5", "1.", "2e3", "1.5e-3f",
    "3F", "0.8f", "1e999", "00000000000000000000000000001", "18446744073709551615",
    "// note", "//", "/**/", "/* a */", "/* a\nb */", "/*\r\n*/", "/* \n\n */",
    " ", "  ", "\t", "\r", "\n", "\r\n", "\n\n", " \t\r ",
)
# fragments that end the text's tokens in a ParseError, or change how the
# fragments around them lex
ODD = (
    "0x", "0X", "1e", "12345678901234567890123", "18446744073709551616",
    "0x10000000000000000", "/*", "*/", "&", "|", "#", "'", '"', "\\", "@", "$",
    "²", "٣", "ｘ", "é", "\x0b", "\x0c", "\x00", "\x1c", "\xa0", "\u2028",
)
SEEDS = range(10)
PER_SEED = 1000


def outcome(tokenize, text: str):
    """Every token as a tuple, or the ParseError as one."""
    try:
        return [(t.kind, t.text, t.value, t.line, t.column) for t in tokenize(text)]
    except ParseError as e:
        return ("ParseError", e.line, e.column, e.expected, e.found, str(e))


def assert_same(text: str, where: str) -> None:
    expected = outcome(interp.tokenize, text)
    assert outcome(_tokenize, text) == expected, f"{where}: {text!r}"


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(ODD if rng.random() < 0.04 else LEXABLE)
                   for _ in range(rng.randrange(40)))


def compare_strings(seed: int, count: int) -> None:
    rng = random.Random(seed)
    for n in range(count):
        assert_same(random_text(rng), f"seed {seed} string {n}")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(REPO)))
def test_committed_sources(path):
    text = path.read_text(encoding="utf-8")
    assert outcome(_tokenize, text)[-1][0] == "eof"
    assert_same(text, str(path))


@pytest.mark.parametrize("seed", test_mutation.SEEDS)
def test_damaged_sources(seed, tmp_path):
    compared = 0
    for path, damaged, how, _ in test_mutation.draw_inputs(
            seed, test_mutation.PER_SEED, list(test_mutation.CONTAINERS), tmp_path):
        if path.suffix == ".c":
            try:
                text = damaged.decode("utf-8")
            except UnicodeDecodeError:  # never reaches the tokenizer
                continue
            assert_same(text, f"seed {seed}: {path.relative_to(REPO)} {how}")
            compared += 1
    assert compared > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_random_strings(seed):
    compare_strings(seed, PER_SEED)


def test_random_strings_reach_every_kind_and_error():
    """The drawn strings lex to every token kind and end in every error."""
    rng = random.Random(0)
    kinds, errors = set(), set()
    for _ in range(PER_SEED):
        result = outcome(_tokenize, random_text(rng))
        if result[0] == "ParseError":
            errors.add(result[3])
        else:
            kinds.update(kind for kind, *_ in result)
    assert kinds == {"ident", "int", "float", "punct", "eof"}
    assert errors == {"closing */", "hex digits", "a token", "an integer literal below 2**64"}


if __name__ == "__main__":
    total = int(sys.argv[1]) if len(sys.argv) > 1 else 200000
    seed = 0
    while total > 0:
        compare_strings(seed, min(PER_SEED, total))
        total -= PER_SEED
        seed += 1
    print(f"tokenizer pass: {seed} seeds, every string gave the same tokens or error")
