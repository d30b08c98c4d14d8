"""Seeded mutation test: a damaged container ends in an exit code, never
in a traceback.

Each input damages one file of a committed container (the C source, the
description XML, a trace CSV or ground_truth.json): it inserts a C or
XML token, or deletes, duplicates or overwrites a span. It then runs
translate, synth, simulate or validate in-process through cli.main,
and the outcome must be exit code 0, 1 or 2. Inputs are drawn from
random.Random(seed), so a failure names everything needed to replay it.

A longer pass over more seeds (the test's inputs come first):
    PYTHONPATH=src python tests/test_mutation.py 5000
"""

import contextlib
import io
import random
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
         "traces/reference.csv", "ground_truth.json")
COMMANDS = ("translate", "synth", "simulate", "validate")
TOKENS = (b"(", b")", b"{", b"}", b";", b"*", b"/", b"-", b"+", b"?", b":",
          b"=", b",", b"0", b"0x", b"1e308", b"-1e308", b"0.0", b"nan",
          b"if", b"else", b"return", b"while", b"double", b"(double *)",
          b"*(double *)(param_1 + 0x10)", b"param_1", b"0x18", b"<", b">",
          b"/>", b"</ScalarVariable>", b"<Real/>", b'"', b'causality="input"',
          b'start="', b'name="', b"&amp;", b"\n", b"true", b"]", b"[",
          b"\xff\xfe")
FILL = b"0123456789.-+eE,;(){}*/x<>=\"' \n\xff"
SEEDS = (0, 1, 2)
PER_SEED = 134


def _mutate(data: bytes, rng: random.Random) -> tuple:
    """(damaged bytes, what was done)."""
    i = rng.randrange(len(data) + 1)
    j = min(len(data), i + rng.randrange(1, 33))
    kind = rng.choice(("insert", "delete", "duplicate", "overwrite"))
    if kind == "insert":
        token = rng.choice(TOKENS)
        return data[:i] + token + data[i:], f"insert {token!r} at {i}"
    if kind == "delete":
        return data[:i] + data[j:], f"delete [{i}:{j}]"
    if kind == "duplicate":
        return data[:j] + data[i:j] + data[j:], f"duplicate [{i}:{j}]"
    fill = bytes(rng.choice(FILL) for _ in range(j - i))
    return data[:i] + fill + data[j:], f"overwrite [{i}:{j}] with {fill!r}"


def _argv(command: str, root: Path, out: Path, rng: random.Random) -> list:
    mapping = str(root / "ground_truth.json")
    if command == "translate":
        return ["translate", str(root), "--out", str(out / "skeleton.mo")]
    if command == "synth":
        return ["synth", str(root), "--mode", rng.choice(("cbc", "cbt")),
                "--pop", "6", "--gens", "2", "--seed", "0"]
    if command == "simulate":
        return ["simulate", str(root), "--mapping", mapping,
                "-o", str(out / "out.csv")]
    return ["validate", str(root), "--mapping", mapping]


def run_inputs(seed: int, count: int, work: Path) -> None:
    """Run count damaged inputs drawn from seed; copies of the containers
    live under work, and each damaged file is restored after its run."""
    out = work / "out"
    out.mkdir(exist_ok=True)
    roots = []
    for source in CONTAINERS:
        root = work / source.name
        if not root.exists():
            shutil.copytree(source, root)
        roots.append(root)
    rng = random.Random(seed)
    for n in range(count):
        root = rng.choice(roots)
        path = root / rng.choice(FILES)
        original = path.read_bytes()
        damaged, how = _mutate(original, rng)
        argv = _argv(rng.choice(COMMANDS), root, out, rng)
        where = f"seed {seed} input {n}: {path.relative_to(work)} {how}; {argv[0]}"
        path.write_bytes(damaged)
        try:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        except Exception as exc:
            raise AssertionError(f"{where}: raised {exc!r}") from exc
        finally:
            path.write_bytes(original)
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
