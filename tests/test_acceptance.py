"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line on success (run with -s to see them).
The GA sweep (3 containers x 20 seeds x both operator suites, population
50, 10 generations) is shared across criteria 1 through 3.
"""

import itertools
import json
import math
import time

import pytest

from construct import ga, mexpr
from construct.container import Trace, VariableDescriptor, VariableTable
from construct.ga import GaConfig, run_ga, search_space_size
from construct.model import BoundModel
from construct.sim import Fitness, causalize
from interp import simulate

SEEDS = range(20)
POP = 50
GENS = 10


@pytest.fixture(scope="module")
def sweep(all_cases):
    """All GA runs the qualitative criteria share, plus closure stats."""
    t0 = time.monotonic()
    data = {}
    for name, case in all_cases.items():
        problem = case["problem"]
        runs = {"cbc": [], "cbt": []}
        closure_failures = []
        produced = 0
        for seed in SEEDS:
            cfg = GaConfig(population_size=POP, max_generations=GENS,
                           rng_seed=seed)

            def hook(c, fit, _p=problem, _s=seed):
                nonlocal produced
                produced += 1
                if not _p.validate(c.genes).valid or not fit.is_finite:
                    closure_failures.append((name, _s, c.genes, fit))

            runs["cbc"].append(run_ga("cbc", problem, cfg, on_individual=hook))
            runs["cbt"].append(run_ga("cbt", problem, cfg))
        data[name] = {"runs": runs, "closure_failures": closure_failures,
                      "produced": produced}
    data["elapsed"] = time.monotonic() - t0
    return data


def _median_fitness(values):
    return sorted(values)[len(values) // 2]


def test_criterion_1_cbc_closure(sweep):
    """Every CbC chromosome validates and earns finite fitness."""
    total = 0
    for name in ("pi", "pid", "limpid"):
        entry = sweep[name]
        assert entry["closure_failures"] == [], \
            f"{name}: {len(entry['closure_failures'])} closure failures"
        total += entry["produced"]
    assert total >= 3 * len(SEEDS) * POP  # at least the initial populations
    assert sweep["elapsed"] < 300.0, f"sweep took {sweep['elapsed']:.0f}s"
    print(f"\ncriterion 1 PASS: {total} CbC chromosomes, all valid and finite "
          f"({sweep['elapsed']:.0f}s)")


def test_criterion_2_cbt_collapse_on_mixed_types(sweep):
    """CbT cannot simulate on mixed-type cases; CbC always does."""
    for name in ("pid", "limpid"):
        for result in sweep[name]["runs"]["cbt"]:
            for entry in result.per_generation:
                assert entry["simulatable_fraction"] < 0.05, (name, entry)
        for result in sweep[name]["runs"]["cbc"]:
            for entry in result.per_generation:
                assert entry["simulatable_fraction"] == 1.0, (name, entry)
    print("criterion 2 PASS: CbT fraction < 0.05 and CbC fraction == 1.0 "
          "on pid and limpid")


def test_criterion_3_cbc_beats_cbt_on_pi(sweep):
    """All-Real case: CbC median final best is no worse, curves monotone."""
    finals = {}
    for mode in ("cbc", "cbt"):
        finals[mode] = [r.best[1] for r in sweep["pi"]["runs"][mode]]
    assert _median_fitness(finals["cbc"]) <= _median_fitness(finals["cbt"])
    for result in sweep["pi"]["runs"]["cbc"]:
        curve = [Fitness(e["best_mse"]) for e in result.per_generation]
        assert all(a >= b for a, b in zip(curve, curve[1:]))
    cbc_median = _median_fitness(finals["cbc"])
    print(f"criterion 3 PASS: pi CbC median best {cbc_median.mse!r} <= CbT median")


def test_criterion_4_ground_truth_optimality(all_cases):
    for name, case in all_cases.items():
        fit = case["problem"].fitness_of(case["ground_truth"])
        assert fit.is_finite and fit.mse < 1e-12, (name, fit)
    print("criterion 4 PASS: ground truths score MSE < 1e-12 on all containers")


def test_criterion_5_brute_force_oracle_equivalence(tiny_case):
    problem = tiny_case["problem"]
    valid = [genes for genes in itertools.permutations(range(3))
             if problem.validate(genes).valid]
    # slot order is (result, condition, branch): the Boolean parameter is
    # pinned to the condition slot, the output to the written result slot
    # (C5) and the input to the branch slot
    assert valid == [(0, 2, 1)]
    brute_best = min(problem.fitness_of(genes) for genes in valid)
    for seed in SEEDS:
        cfg = GaConfig(population_size=20, max_generations=5, rng_seed=seed)
        result = run_ga("cbc", problem, cfg)
        assert result.best[1] == brute_best, seed
        assert tuple(result.best[0].genes) in valid
    print(f"criterion 5 PASS: GA best equals brute-force best {brute_best.mse!r} "
          f"over {len(list(SEEDS))} seeds; valid set has 1 member")


def test_criterion_6_search_space_arithmetic():
    assert search_space_size(12, 12) == 479001600
    assert search_space_size(12, 13) == 6227020800
    print("criterion 6 PASS: P(12,12) == 479001600 and P(13,12) == 6227020800")


def test_criterion_7_euler_first_order():
    table = VariableTable((VariableDescriptor("x", 1, "Real", "output", 1.0),))
    b = BoundModel(((mexpr.Der("x"), mexpr.Unary("neg", mexpr.Sym("x"))),), table, ("x",))
    plan = causalize(b)

    def error_at_one(h):
        n = round(1.0 / h)
        times = tuple(k * h for k in range(n + 1))
        out = simulate(plan, Trace(times, {}), ["x"])
        return abs(out.columns["x"][-1] - math.exp(-1.0))

    ratios = []
    errors = [error_at_one(h) for h in (0.02, 0.01, 0.005, 0.0025)]
    for a, b_ in zip(errors, errors[1:]):
        ratio = b_ / a
        assert abs(ratio - 0.5) <= 0.1, errors  # halves within 20%
        ratios.append(ratio)
    print(f"criterion 7 PASS: error ratios under step halving {ratios}")


def test_criterion_8_byte_identical_reports(pi_case, tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    from construct.cli import main
    argv = ["synth", str(pi_case["root"]), "--mode", "cbc", "--pop", "30", "--gens", "5",
            "--seed", "3", "--report"]
    blobs = []
    for i in range(3):  # run after run in one process
        report = tmp_path / f"r{i}.json"
        assert main([*argv, str(report)]) == 0
        blobs.append(report.read_bytes())
    src = str(Path(ga.__file__).resolve().parents[1])
    for seed in ("0", "1", "2"):  # string and frozenset order differ between these
        report = tmp_path / f"hash{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "construct", *argv, str(report)], env=env,
                       capture_output=True, check=True, timeout=120)
        blobs.append(report.read_bytes())
    assert len(set(blobs)) == 1
    print("criterion 8 PASS: report bytes identical across runs and "
          "hash seeds")
