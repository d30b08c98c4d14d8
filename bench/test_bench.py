"""Tests of the benchmark itself.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
PRINTED_ONLY = ("op_s.pi", "op_s.tail", "gauge_s", "steps_per_s",
                "recovered_fraction", "failed_fraction")
SMALL = {"replay-long": {"samples": 2001}}


@pytest.fixture(scope="module")
def prog():
    return run.load_program()


def _bindings(prog) -> dict:
    """Every function object bound in a construct module or on GaProblem."""
    seen = {}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("construct"):
            for attr, value in vars(mod).items():
                if callable(value):
                    seen[(mod.__name__, attr)] = value
    for attr, value in vars(prog.ga.GaProblem).items():
        seen[("GaProblem", attr)] = value
    return seen


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_metric_names_are_well_formed_and_unique():
    names = [n for n, _, _ in run.END_TO_END] + [n for n, _ in run.PER_LAYER]
    names += PRINTED_ONLY
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name


def test_tracer_restores_every_wrapped_function(prog):
    before = _bindings(prog)
    tracer = Tracer()
    tracer.install()
    try:
        assert prog.cli.main is not before[("construct.cli", "main")]
        assert prog.ga.apply_assignment is not before[("construct.ga", "apply_assignment")]
        changed = {k for k, v in _bindings(prog).items() if before.get(k) is not v}
        assert len(changed) >= len(TARGETS)
    finally:
        tracer.uninstall()
    assert _bindings(prog) == before
    assert all(_bindings(prog)[k] is v for k, v in before.items())


def test_self_times_sum_to_no_more_than_wall_time(prog, tmp_path):
    tracer = Tracer()
    argv = ["synth", str(run.ROOT / "fixtures" / "pid"), "--mode", "cbc",
            "--pop", "12", "--gens", "3", "--seed", "5",
            "--report", str(tmp_path / "report.json")]
    tracer.install()
    try:
        start = time.perf_counter()
        rc = prog.cli.main(argv)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.calls["cli.main"] == 1 and tracer.calls["sim.simulate"] > 0
    assert 0.0 < tracer.total_self_s() <= wall
    assert all(v >= 0.0 for v in tracer.self_s.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_untraced_run_passes(prog, workload, tmp_path):
    result, lines = run.run(workload, 7, 0.0, False, tmp_path, prog,
                            **SMALL.get(workload, {}))
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] == 2 * len(run.CONTAINERS)
    assert list(result["metrics"]) == [n for n, _, _ in run.END_TO_END]
    for name, unit, _ in run.END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit and metric["value"] > 0, name
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert {"op_s.pi", "op_s.tail", "raw.wall_s", "failed_fraction"} <= printed
    assert all(NAME.fullmatch(name) for name in printed)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_passes_and_matches_the_design(prog, workload, tmp_path):
    result, lines = run.run(workload, 7, 0.0, True, tmp_path, prog,
                            **SMALL.get(workload, {}))
    assert result["correct"] and result["failed"] == 0, lines
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [n for n, _ in run.PER_LAYER]
    assert metrics["trace.ops"] == len(run.CONTAINERS)
    layer_self = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") and not k.startswith("trace."))
    assert layer_self <= metrics["trace.wall_s"]
    if workload == "cbt-search":
        assert metrics["sim.simulate.calls"] == 0
        assert metrics["sim.causalize.rejected.DuplicateBinding"] > 0
    if workload == "replay-long":
        assert metrics["sim.causalize.calls"] == metrics["trace.ops"]
        assert metrics["sim.simulate.steps"] == 2001 * metrics["trace.ops"]
    if workload == "cbc-search":
        assert metrics["sim.simulate.calls"] == metrics["ga.GaProblem.fitness_of.calls"]


def test_wrong_replay_output_counts_as_failed(prog, tmp_path, monkeypatch):
    write_trace = prog.container.write_trace

    def one_ulp_off(trace, path):
        name = sorted(trace.columns)[0]
        col = list(trace.columns[name])
        col[-1] = math.nextafter(col[-1], math.inf)
        write_trace(prog.container.Trace(trace.times, {**trace.columns, name: tuple(col)}),
                    path)

    monkeypatch.setattr(prog.cli, "write_trace", one_ulp_off)
    result, lines = run.run("replay-long", 7, 0.0, False, tmp_path, prog,
                            samples=2001)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any("differs from the tree walk" in line for line in lines)
    assert any(line.startswith("metric failed_fraction 1.0") for line in lines)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cbt-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
