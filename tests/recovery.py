"""Recovery of the ground truth by the CbC search, measured like speed.

For each committed container and population, runs the CbC search at
seeds 0-19 (10 generations, no early stop) and reports, as JSON:
runs recovered (best MSE below RECOVERED_MSE, output-equivalent to the
ground truth); runs whose best genome has the ground truth's signature
(GaProblem.signature: what scoring simulates); the median best MSE;
evaluations (distinct genomes) and simulations (sim.simulate calls),
summed over the seeds; and the wall time of the runs.

    PYTHONPATH=src python tests/recovery.py          # populations 50 and 400
    PYTHONPATH=src python tests/recovery.py 400      # population 400 only

tests/test_recovery.py holds the population-50 counts as a floor.
"""

import json
import statistics
import sys
import time
from pathlib import Path

from construct import ga, sim
from construct.container import load_container

REPO = Path(__file__).resolve().parent.parent
CONTAINERS = ("pi", "pid", "limpid")
SEEDS = range(20)
GENERATIONS = 10
RECOVERED_MSE = 1e-12


def recovery(name: str, population: int, seeds=SEEDS) -> dict:
    """The CbC search's recovery on the committed container name at
    population, one fresh problem per seed."""
    root = REPO / "fixtures" / name
    cm = load_container(root)
    truth = tuple(json.loads((root / "ground_truth.json").read_text())["genes"])
    simulations = 0
    simulate = sim.simulate

    def counted(*args, **kwargs):
        nonlocal simulations
        simulations += 1
        return simulate(*args, **kwargs)

    recovered, same_signature, evaluations, best_mses = 0, 0, 0, []
    sim.simulate = counted
    start = time.perf_counter()
    try:
        for seed in seeds:
            problem = ga.problem_from_container(cm)
            result = ga.run_ga("cbc", problem, ga.GaConfig(
                population_size=population, max_generations=GENERATIONS,
                rng_seed=seed, early_stop=False))
            best, fitness = result.best
            evaluations += result.evaluations
            best_mses.append(fitness.mse if fitness.is_finite else float("inf"))
            recovered += fitness.is_finite and fitness.mse < RECOVERED_MSE
            same_signature += problem.signature(best.genes) == problem.signature(truth)
    finally:
        sim.simulate = simulate
    return {
        "container": name, "population": population, "runs": len(best_mses),
        "recovered": recovered, "truth_signature": same_signature,
        "median_best_mse": statistics.median(best_mses),
        "evaluations": evaluations, "simulations": simulations,
        "wall_s": round(time.perf_counter() - start, 3),
    }


def main(argv) -> None:
    populations = [int(a) for a in argv] or [50, 400]
    for population in populations:
        for name in CONTAINERS:
            print(json.dumps(recovery(name, population)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
