"""Same outputs for a fixed seed: translate skeletons and synth reports
and models, compared byte for byte with the files in tests/golden/seed0/.

Regenerate the golden files only when a change of output is intended:
    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

from construct.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "seed0"
CONTAINERS = ("pi", "pid", "limpid")
SYNTH = ("--pop", "20", "--gens", "5", "--seed", "0")


def write_outputs(out: Path) -> None:
    """Every golden file, written into out."""
    for name in CONTAINERS:
        root = str(REPO / "fixtures" / name)
        assert main(["translate", root, "--out", str(out / f"{name}.skeleton.mo")]) == 0
        for mode in ("cbc", "cbt"):
            stem = out / f"{name}-{mode}"
            code = main(["synth", root, "--mode", mode, *SYNTH,
                         "--report", f"{stem}.report.json", "-o", f"{stem}.mo"])
            assert code in (0, 2)  # 2: no simulatable candidate, no model


def test_outputs_match_golden_files(tmp_path, capsys):
    write_outputs(tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    write_outputs(GOLDEN)
