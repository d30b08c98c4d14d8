"""Seeded mutation test: a damaged container ends in an exit code, never
in a traceback.

Each input damages one file of a committed container (the C source, the
description XML, a trace CSV, ground_truth.json or limpid's rules.toml):
it inserts a C, XML or rules token, deletes, duplicates or overwrites a
span, or puts an edge value (EDGES) in place of a number, in the XML of
a start attribute. It then runs translate, synth, simulate, validate or
make-reference in-process through cli.main, with search flags drawn
from small bounded sets, and the outcome must be exit code 0, 1 or 2; a
usage error ends in SystemExit(2). Inputs are drawn from random.Random(seed), so a
failure names everything needed to replay it.

A longer pass over more seeds (the test's inputs come first):
    PYTHONPATH=src python tests/test_mutation.py 5000
"""

import contextlib
import io
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from construct.cli import main

REPO = Path(__file__).resolve().parent.parent
CONTAINERS = (REPO / "fixtures" / "pi", REPO / "fixtures" / "pid",
              REPO / "fixtures" / "limpid", REPO / "tests" / "data" / "tiny")
FILES = ("sources/controller.c", "modelDescription.xml", "traces/input.csv",
         "traces/reference.csv", "ground_truth.json", "rules.toml")
COMMANDS = ("translate", "synth", "simulate", "validate", "make-reference")
TOKENS = (b"(", b")", b"{", b"}", b";", b"*", b"/", b"-", b"+", b"?", b":",
          b"=", b",", b"0", b"0x", b"1e308", b"-1e308", b"0.0", b"nan",
          b"if", b"else", b"return", b"while", b"double", b"(double *)",
          b"*(double *)(param_1 + 0x10)", b"param_1", b"0x18", b"<", b">",
          b"/>", b"</ScalarVariable>", b"<Real/>", b'"', b'causality="input"',
          b'start="', b'name="', b"&amp;", b"\n", b"true", b"]", b"[",
          b"\xff\xfe", b"reciprocal_tolerance = ", b"reciprocal_max_denominator = ",
          b"step_function = ", b"step_param = ")
FILL = b"0123456789.-+eE,;(){}*/x<>=\"' \n\xff"
# zero, the smallest subnormal, a subnormal whose reciprocal overflows,
# an overflowing literal, an integer beyond the float range, what float
# reads but a trace cell may not hold, and a lone carriage return
EDGES = (b"0.0", b"5e-324", b"1e-320", b"1e999", b"1" + b"0" * 400,
         b"1_000", "\u0663".encode(), b" 2.5 ", b"\r")
NUMBER = re.compile(rb"(?<![\w.])\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")
START = re.compile(rb'(?<=start=")[^"]*')
# (flag, values), each flag given with probability one half
SEARCH_FLAGS = (("--pop", ("1", "2", "6")), ("--gens", ("0", "1", "2")),
                ("--seed", ("0", "7", "-1")), ("--pc", ("0", "0.9", "1.5", "nan")),
                ("--pm", ("0", "0.5", "-1")), ("--tournament", ("0", "1", "9")),
                ("--elitism", ("0", "1", "6")), ("--no-early-stop", ()))
SEEDS = (0, 1, 2)
PER_SEED = 134


def _mutate(data: bytes, rng: random.Random, numbers: re.Pattern) -> tuple:
    """(damaged bytes, what was done); an edge value replaces a match of
    numbers."""
    i = rng.randrange(len(data) + 1)
    j = min(len(data), i + rng.randrange(1, 33))
    kind = rng.choice(("insert", "delete", "duplicate", "overwrite", "edge"))
    if kind == "edge":
        edge = rng.choice(EDGES)
        spans = [m.span() for m in numbers.finditer(data)]
        if not spans:
            return data[:i] + edge + data[i:], f"insert {edge[:20]!r} at {i}"
        i, j = rng.choice(spans)
        return data[:i] + edge + data[j:], f"replace [{i}:{j}] with {edge[:20]!r}"
    if kind == "insert":
        token = rng.choice(TOKENS)
        return data[:i] + token + data[i:], f"insert {token!r} at {i}"
    if kind == "delete":
        return data[:i] + data[j:], f"delete [{i}:{j}]"
    if kind == "duplicate":
        return data[:j] + data[i:j] + data[j:], f"duplicate [{i}:{j}]"
    fill = bytes(rng.choice(FILL) for _ in range(j - i))
    return data[:i] + fill + data[j:], f"overwrite [{i}:{j}] with {fill!r}"


def _flags(table, rng: random.Random) -> list:
    flags = []
    for flag, values in table:
        if rng.random() < 0.5:
            flags += [flag, rng.choice(values)] if values else [flag]
    return flags


def _argv(command: str, root: Path, out: Path, rng: random.Random) -> list:
    mapping = str(root / "ground_truth.json")
    if command == "translate":
        return ["translate", str(root), "--out", str(out / "skeleton.mo")]
    if command == "synth":
        search = _flags(SEARCH_FLAGS, rng) if rng.random() < 0.5 else []
        return ["synth", str(root), "--mode", rng.choice(("cbc", "cbt")),
                "--pop", "6", "--gens", "2", "--seed", "0", *search]
    if command == "simulate":
        return ["simulate", str(root), "--mapping", mapping, "-o", str(out / "out.csv")]
    if command == "make-reference":
        return ["make-reference", str(root), "--mapping", mapping]
    return ["validate", str(root), "--mapping", mapping]


def draw_inputs(seed: int, count: int, roots: list, out: Path):
    """The count damaged inputs drawn from seed, in order, for copies of
    CONTAINERS at roots: (file, damaged bytes, what was done, argv). Each
    file is read when its input is drawn."""
    rng = random.Random(seed)
    for _ in range(count):
        root = rng.choice(roots)
        path = root / rng.choice([f for f in FILES if (root / f).exists()])
        damaged, how = _mutate(path.read_bytes(), rng,
                               START if path.suffix == ".xml" else NUMBER)
        yield path, damaged, how, _argv(rng.choice(COMMANDS), root, out, rng)


def run_inputs(seed: int, count: int, work: Path) -> None:
    """Run count damaged inputs drawn from seed; copies of the containers
    live under work, and each damaged file, and the reference trace that
    make-reference writes, are restored after its run."""
    out = work / "out"
    out.mkdir(exist_ok=True)
    roots = []
    for source in CONTAINERS:
        root = work / source.name
        if not root.exists():
            shutil.copytree(source, root)
        roots.append(root)
    for n, (path, damaged, how, argv) in enumerate(draw_inputs(seed, count, roots, out)):
        original = path.read_bytes()
        reference = Path(argv[1]) / "traces" / "reference.csv"
        recorded = reference.read_bytes()
        where = f"seed {seed} input {n}: {path.relative_to(work)} {how}; {argv[0]}"
        path.write_bytes(damaged)
        try:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        except SystemExit as exc:  # argparse exits 2 on a usage error
            code = exc.code
        except Exception as exc:
            raise AssertionError(f"{where}: raised {exc!r}") from exc
        finally:
            path.write_bytes(original)
            reference.write_bytes(recorded)
        assert code in (0, 1, 2), f"{where}: exit code {code!r}"


@pytest.mark.parametrize("seed", SEEDS)
def test_damaged_containers_end_in_an_exit_code(seed, tmp_path):
    run_inputs(seed, PER_SEED, tmp_path)


if __name__ == "__main__":
    total = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
    with tempfile.TemporaryDirectory() as tmp:
        seed = 0
        while total > 0:
            run_inputs(seed, min(PER_SEED, total), Path(tmp))
            total -= PER_SEED
            seed += 1
    print("mutation pass: every input ended in exit code 0, 1 or 2")
