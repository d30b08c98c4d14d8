import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).parent))  # for the interp helper

from construct import ga  # noqa: E402
from construct.container import load_container  # noqa: E402


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    d = REPO / "fixtures"
    assert d.is_dir(), f"committed containers missing: {d}; restore them from git"
    return d


def _bundle(root: Path):
    cm = load_container(root)
    problem = ga.problem_from_container(cm)
    genes = tuple(json.loads((root / "ground_truth.json").read_text())["genes"])
    return {"root": root, "container": cm, "problem": problem, "ground_truth": genes}


@pytest.fixture(scope="session")
def pi_case(fixtures_dir):
    return _bundle(fixtures_dir / "pi")


@pytest.fixture(scope="session")
def pid_case(fixtures_dir):
    return _bundle(fixtures_dir / "pid")


@pytest.fixture(scope="session")
def limpid_case(fixtures_dir):
    return _bundle(fixtures_dir / "limpid")


@pytest.fixture(scope="session")
def all_cases(pi_case, pid_case, limpid_case):
    return {"pi": pi_case, "pid": pid_case, "limpid": limpid_case}


@pytest.fixture(scope="session")
def tiny_case():
    """3 slots, 3 variables, 1 equation: small enough for oracle tests."""
    return _bundle(REPO / "tests" / "data" / "tiny")
