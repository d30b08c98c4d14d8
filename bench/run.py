#!/usr/bin/env python3
"""Benchmark of construct: CbC search, CbT search and long-trace replay.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 bench/run.py --workload cbc-search --seed 1 --seconds 35 --trace 0

One client in a closed loop: each operation is an in-process
``construct.cli.main([...])`` call, and the next starts when the previous
one has returned. Operations run in rounds of one per container (pi, pid,
limpid); one untimed warm-up round comes first, then rounds run until
--seconds have passed. Every operation's output is checked. With
--trace 0 the end-to-end metrics are measured; with --trace 1 a separate
traced body gives the per-layer metrics (see tracer.py). The last line of
standard output is one JSON object; bench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
CONTAINERS = ("pi", "pid", "limpid")
WORKLOADS = ("cbc-search", "cbt-search", "replay-long")
SEARCH_FLAGS = ("--pop", "50", "--gens", "10")
REPLAY_SAMPLES = 20001          # 200 s on the fixtures' 0.01 s grid
HOLD_SAMPLES = (20, 300)        # replay inputs hold each level 0.2-3 s
SETUP_SAMPLES = 12              # set-up passes per run, spread over the run
RECOVERED_MSE = 1e-12           # ga.EARLY_STOP_MSE
CBT_COLLAPSE = 0.05             # acceptance criterion 2
TAIL_BEYOND = 10
OVERHEAD_SHARE = 0.10           # traced run: untraced re-run length / --seconds
GAUGE_LOOPS = 45000             # about 2.4 ms of pure Python, see GAUGE_REF_S
GAUGE_REF_S = 0.0024            # the gauge in an idle process on the tuning machine

# (name, unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_s.pid", "s", "lower"),
    ("op_s.limpid", "s", "lower"),
    ("evals_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

CAUSALIZE_REJECTIONS = (
    "DuplicateBinding", "IllTypedModel", "InvalidStateVariable", "UnusedInput",
    "UnbalancedSystem", "StructurallySingular", "AlgebraicLoop",
    "NotIsolatable", "MultipleOccurrence", "CausalizeError",
)
SIMULATE_REJECTIONS = ("DivisionByZero", "NonFiniteValue")

PER_LAYER = (
    ("trace.ops", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_fraction", "fraction"),
    ("cli.main.self_s", "s"),
    ("container.load_container.self_s", "s"),
    ("container.load_trace.self_s", "s"),
    ("container.load_trace.rows", "count"),
    ("container.write_trace.self_s", "s"),
    ("cparse.parse_c_unit.self_s", "s"),
    ("isolate.isolate_step_function.self_s", "s"),
    ("isolate.normalize_primitives.self_s", "s"),
    ("translate.eliminate_temporaries.self_s", "s"),
    ("translate.translate_to_equations.self_s", "s"),
    ("check.infer_symbol_types.self_s", "s"),
    ("check.validate_assignment.calls", "count"),
    ("check.validate_assignment.self_s", "s"),
    ("check.validate_assignment.invalid_fraction", "fraction"),
    ("model.apply_assignment.calls", "count"),
    ("model.apply_assignment.self_s", "s"),
    ("model.emit_modelica.self_s", "s"),
    ("sim.causalize.calls", "count"),
    ("sim.causalize.self_s", "s"),
    ("sim.causalize.per_evaluation", "calls/eval"),
    *((f"sim.causalize.rejected.{c}", "count") for c in CAUSALIZE_REJECTIONS),
    ("sim.simulate.calls", "count"),
    ("sim.simulate.self_s", "s"),
    ("sim.simulate.steps", "count"),
    *((f"sim.simulate.rejected.{c}", "count") for c in SIMULATE_REJECTIONS),
    ("ga.run_ga.self_s", "s"),
    ("ga.generate_individual.calls", "count"),
    ("ga.generate_individual.self_s", "s"),
    ("ga.mutate.calls", "count"),
    ("ga.mutate.self_s", "s"),
    ("ga.mutate.noop_fraction", "fraction"),
    ("ga.crossover.calls", "count"),
    ("ga.crossover.self_s", "s"),
    ("ga.crossover.fallback_fraction", "fraction"),
    ("ga.GaProblem.constructible.calls", "count"),
    ("ga.GaProblem.constructible.self_s", "s"),
    ("ga.GaProblem.constructible.accept_fraction", "fraction"),
    ("ga.GaProblem.fitness_of.calls", "count"),
    ("ga.GaProblem.fitness_of.self_s", "s"),
    ("ga.cache_hit_fraction", "fraction"),
    ("ga.distinct_genomes.final", "count"),
)


class BenchError(Exception):
    """The checkout cannot be benchmarked (for example, no program in it)."""


def load_program() -> SimpleNamespace:
    """Import construct from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "construct" / "__init__.py").is_file():
        raise BenchError(f"no construct package under {src}")
    for name in CONTAINERS:
        if not (ROOT / "fixtures" / name / "ground_truth.json").is_file():
            raise BenchError(f"no committed container fixtures/{name}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"construct.{name}")
            for name in ("cli", "container", "ga", "check", "model", "sim", "mexpr")}
    origin = Path(mods["cli"].__file__).resolve()
    if not origin.is_relative_to(src.resolve()):
        raise BenchError(f"construct was imported from {origin}, not {src}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class Op:
    container: str
    seed: int            # GA seed (search) or workload seed (replay)
    argv: tuple
    output: Path         # the file the checks read


@dataclass
class Record:
    op: Op
    seconds: float
    rc: int | None
    payload: bytes       # the op's output file, empty if none was written
    digest: str
    log: str             # what the op printed
    failure: str | None = None
    gauges: tuple = ()   # machine_gauge() right before and right after


def machine_gauge() -> float:
    """Seconds a fixed pure-Python loop takes right now. It runs no
    program code, so it measures the machine itself: on a shared host,
    other tenants slow it down by up to 1.6x, for seconds to minutes."""
    start = time.perf_counter()
    total = 0
    for i in range(GAUGE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def at_reference_speed(seconds: float, gauges: tuple) -> float:
    """`seconds` rescaled to a machine whose gauge reads GAUGE_REF_S, given
    the gauges taken right before and right after the timed span."""
    return seconds * GAUGE_REF_S * len(gauges) / sum(gauges)


def execute(prog, op: Op) -> Record:
    """Run one operation; only the cli.main call is timed."""
    op.output.unlink(missing_ok=True)
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        try:
            rc = prog.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            log.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    payload = op.output.read_bytes() if op.output.is_file() else b""
    rec = Record(op, seconds, rc, payload,
                 hashlib.sha256(payload).hexdigest()[:16], log.getvalue())
    if threading.active_count() > 1:
        # a thread left running would slow the gauge as much as the ops
        rec.failure = f"{threading.active_count() - 1} threads left running"
    return rec


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Containers at `paths`, and the set-up passes timed on them."""

    def __init__(self, prog, paths: dict):
        self.prog = prog
        self.paths = paths
        self.setup_samples: list = []  # (seconds, gauges)
        for _ in range(3):
            self.problems = self.set_up()

    def set_up(self) -> dict:
        """Load every container and run the front half on it, timed."""
        before = machine_gauge()
        start = time.perf_counter()
        problems = {}
        for name, path in self.paths.items():
            cm = self.prog.container.load_container(path)
            problems[name] = self.prog.ga.problem_from_container(cm)
        seconds = time.perf_counter() - start
        self.setup_samples.append((seconds, (before, machine_gauge())))
        return problems


class SearchWorkload(Workload):
    """`construct synth --mode <mode> --pop 50 --gens 10` on the committed
    containers, one fresh GA seed per operation drawn from the workload
    seed."""

    def __init__(self, prog, mode: str, seed: int, work: Path):
        super().__init__(prog, {c: ROOT / "fixtures" / c for c in CONTAINERS})
        self.mode = mode
        self.work = work
        self._rng = random.Random(f"{mode}-search/{seed}")
        self._seeds: list = []

    def op(self, round_index: int, container: str) -> Op:
        i = round_index * len(CONTAINERS) + CONTAINERS.index(container)
        while len(self._seeds) <= i:
            self._seeds.append(self._rng.randrange(2 ** 31))
        seed = self._seeds[i]
        report = self.work / "report.json"
        argv = ("synth", str(self.paths[container]), "--mode", self.mode,
                *SEARCH_FLAGS, "--seed", str(seed),
                "-o", str(self.work / "best.mo"), "--report", str(report))
        return Op(container, seed, argv, report)

    def absorb(self, rec: Record) -> None:
        pass  # the checks need the program, so they wait for check()

    def check(self, rec: Record) -> str | None:
        try:
            report = json.loads(rec.payload)
            gens = report["per_generation"]
            fractions = [g["simulatable_fraction"] for g in gens]
            genes = tuple(report["best_genes"])
            best_mse = report["best_mse"]
        except (ValueError, KeyError, TypeError):
            return f"exit code {rec.rc}, no readable report: {rec.log[-300:]}"
        if (report.get("mode"), report.get("seed")) != (self.mode, rec.op.seed):
            return "report names another mode or seed"
        if self.mode == "cbt":
            if rec.rc not in (0, 2):
                return f"exit code {rec.rc}"
            if rec.op.container != "pi" and max(fractions) >= CBT_COLLAPSE:
                return f"a generation is {max(fractions)} simulatable"
            return None
        if rec.rc != 0:
            return f"exit code {rec.rc}"
        if min(fractions) != 1.0:
            return f"a generation is only {min(fractions)} simulatable"
        problem = self.problems[rec.op.container]
        if not problem.validate(genes).valid:
            return "best_genes do not validate"
        rescored = problem.fitness_of(genes).mse
        if rescored != best_mse:
            return f"best_mse {best_mse!r} re-scores to {rescored!r}"
        return None

    def evaluations(self, rec: Record) -> int:
        try:
            return int(json.loads(rec.payload)["evaluations"])
        except (ValueError, KeyError, TypeError):
            return 0

    def recovered(self, rec: Record) -> bool:
        try:
            mse = json.loads(rec.payload)["best_mse"]
        except (ValueError, KeyError, TypeError):
            return False
        return mse is not None and mse < RECOVERED_MSE


def _read_csv(text: str) -> tuple:
    """(header, columns) of a numeric CSV with a header row."""
    lines = text.split("\n")
    header = lines[0].split(",")
    columns = [array("d") for _ in header]
    for line in lines[1:]:
        if line:
            for col, cell in zip(columns, line.split(",")):
                col.append(float(cell))
    return header, columns


def long_input(committed_text: str, booleans: set, rng, samples: int) -> str:
    """A piecewise-constant input trace on the committed trace's step:
    each Real input holds levels drawn between its committed minimum and
    maximum, each Boolean input holds 0 or 1."""
    header, columns = _read_csv(committed_text)
    step = columns[0][1] - columns[0][0]
    out = [[k * step for k in range(samples)]]
    for name, committed in zip(header[1:], columns[1:]):
        lo, hi = min(committed), max(committed)
        col: list = []
        while len(col) < samples:
            level = float(rng.randrange(2)) if name in booleans else rng.uniform(lo, hi)
            col.extend([level] * rng.randint(*HOLD_SAMPLES))
        out.append(col[:samples])
    rows = [",".join(header)]
    rows.extend(",".join(repr(col[k]) for col in out) for k in range(samples))
    return "\n".join(rows) + "\n"


def tree_walk(prog, problem, genes, trace_text: str) -> dict:
    """The ground truth's outputs on a trace, evaluated with the reference
    semantics (mexpr.eval_expr), step by step as sim.simulate defines
    them: zero-order-hold inputs, algebraic equations in causal order,
    outputs recorded, then one forward Euler step of the states."""
    header, columns = _read_csv(trace_text)
    times, inputs = columns[0], dict(zip(header[1:], columns[1:]))
    bound = prog.model.apply_assignment(problem.model, genes, problem.vars)
    plan = prog.sim.causalize(bound)
    outputs = [v.name for v in problem.vars.variables if v.causality == "output"]
    eval_expr = prog.mexpr.eval_expr
    env = dict(plan.param_env)
    for name, start, _ in plan.state_vars:
        env[name] = start
    h = times[1] - times[0]
    recorded = {name: array("d") for name in outputs}
    for k in range(len(times)):
        for name in plan.input_names:
            env[name] = inputs[name][k]
        for _, name, expr in plan.algebraic_order:
            env[name] = eval_expr(expr, env)
        for name in outputs:
            recorded[name].append(env[name])
        if k + 1 < len(times):
            ders = [eval_expr(rhs, env) for _, _, rhs in plan.state_vars]
            for (name, _, _), d in zip(plan.state_vars, ders):
                env[name] = env[name] + h * d
    recorded["time"] = times
    return recorded


class ReplayWorkload(Workload):
    """`construct simulate <copy> --mapping ground_truth.json -o out.csv` on
    copies of the committed containers whose traces/input.csv is a long
    piecewise-constant trace drawn from the workload seed."""

    def __init__(self, prog, seed: int, work: Path,
                 samples: int = REPLAY_SAMPLES):
        self.seed = seed
        self.work = work
        rng = random.Random(f"replay-long/{seed}")
        paths = {}
        traces = {}
        for c in CONTAINERS:
            copy = work / "containers" / c
            shutil.copytree(ROOT / "fixtures" / c, copy)
            committed = copy / "traces" / "input.csv"
            table = prog.container.load_container(ROOT / "fixtures" / c).variable_table
            booleans = {v.name for v in table.variables if v.vtype == "Boolean"}
            traces[c] = long_input(committed.read_text(), booleans, rng, samples)
            committed.write_text(traces[c])
            paths[c] = copy
        super().__init__(prog, paths)
        self.expected = {}
        for c in CONTAINERS:
            genes = tuple(json.loads((ROOT / "fixtures" / c / "ground_truth.json")
                                     .read_text())["genes"])
            self.expected[c] = tree_walk(prog, self.problems[c], genes, traces[c])
        self.samples = samples
        self._verdicts: dict = {}

    def op(self, round_index: int, container: str) -> Op:
        copy = self.paths[container]
        out = self.work / "out.csv"
        argv = ("simulate", str(copy), "--mapping", str(copy / "ground_truth.json"),
                "-o", str(out))
        return Op(container, self.seed, argv, out)

    def absorb(self, rec: Record) -> None:
        """Compare the output with the tree walk now and keep only the
        verdict (outputs are large); equal bytes share one verdict."""
        key = (rec.op.container, rec.digest)
        if key not in self._verdicts:
            self._verdicts[key] = self._compare(rec)
        rec.failure = rec.failure or self._verdicts[key]
        rec.payload = b""

    def _compare(self, rec: Record) -> str | None:
        expected = self.expected[rec.op.container]
        try:
            header, columns = _read_csv(rec.payload.decode())
        except (ValueError, UnicodeDecodeError):
            return f"exit code {rec.rc}, unreadable output: {rec.log[-300:]}"
        if sorted(header) != sorted(expected):
            return f"output columns {header}, expected {sorted(expected)}"
        for name, col in zip(header, columns):
            if col.tobytes() != expected[name].tobytes():
                return f"column {name!r} differs from the tree walk"
        return None

    def check(self, rec: Record) -> str | None:
        if rec.rc != 0:
            return f"exit code {rec.rc}: {rec.log[-300:]}"
        return rec.failure

    def evaluations(self, rec: Record) -> int:
        return 1


def make_workload(prog, name: str, seed: int, work: Path, **kwargs):
    if name == "replay-long":
        return ReplayWorkload(prog, seed, work, **kwargs)
    return SearchWorkload(prog, name.split("-")[0], seed, work, **kwargs)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_round(prog, workload, round_index: int) -> list:
    records = []
    before = machine_gauge()
    for c in CONTAINERS:
        rec = execute(prog, workload.op(round_index, c))
        after = machine_gauge()
        rec.gauges = (before, after)
        before = after
        workload.absorb(rec)
        records.append(rec)
    return records


def run_for(prog, workload, seconds: float, sample_setup: bool) -> list:
    """Whole rounds until `seconds` of wall time have passed (at least
    one). With sample_setup, a set-up pass follows a round whenever
    seconds / SETUP_SAMPLES have passed since the last one, so that the
    set-up samples span the run as the operations do."""
    rounds = []
    start = last_setup = time.perf_counter()
    while True:
        rounds.append(run_round(prog, workload, 1 + len(rounds)))
        now = time.perf_counter()
        if now - start >= seconds:
            return rounds
        if sample_setup and now - last_setup >= seconds / SETUP_SAMPLES:
            workload.set_up()
            last_setup = time.perf_counter()


def tail(times: list) -> tuple:
    """The highest percentile of `times` with TAIL_BEYOND samples beyond
    it: (value, percentile, sample count)."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1  # else the maximum
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(workload, rounds: list, records: list, failed: int,
               peak_rss_mb: float) -> dict:
    """name -> (value, unit, note) for END_TO_END and the printed-only
    metrics (see README.md). Times are at the reference machine speed;
    the raw.* metrics give them as measured."""
    timed = [rec for rnd in rounds for rec in rnd]
    gauge = statistics.median(g for r in timed for g in r.gauges)
    round_evals = [sum(workload.evaluations(r) for r in rnd) for rnd in rounds]
    metrics = {}
    for prefix, time_of in (("", at_reference_speed), ("raw.", lambda s, g: s)):
        round_s = [sum(time_of(r.seconds, r.gauges) for r in rnd) for rnd in rounds]
        metrics[prefix + "setup_s"] = (statistics.median(
            time_of(s, g) for s, g in workload.setup_samples), "s", "")
        metrics[prefix + "wall_s"] = (statistics.median(round_s), "s", "")
        for c in CONTAINERS:
            metrics[f"{prefix}op_s.{c}"] = (statistics.median(
                time_of(r.seconds, r.gauges) for r in timed if r.op.container == c),
                "s", "")
        tail_s, tail_pct, n = tail([time_of(r.seconds, r.gauges) for r in timed])
        metrics[prefix + "op_s.tail"] = (tail_s, "s", f"p{tail_pct:.1f} of {n} ops")
        metrics[prefix + "evals_per_s"] = (statistics.median(
            e / s for e, s in zip(round_evals, round_s)), "1/s", "")
    metrics["gauge_s"] = (gauge, "s", f"median machine gauge, reference {GAUGE_REF_S}")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB", "")
    if isinstance(workload, ReplayWorkload):
        metrics["steps_per_s"] = (metrics["evals_per_s"][0] * workload.samples,
                                  "1/s", f"{workload.samples} samples per evaluation")
    elif workload.mode == "cbc":
        won = sum(workload.recovered(r) for r in records)
        metrics["recovered_fraction"] = (
            won / len(records), "fraction",
            f"{won} of {len(records)} CbC runs below MSE {RECOVERED_MSE}")
    metrics["failed_fraction"] = (failed / len(records), "fraction",
                                  f"{failed} of {len(records)} ops")
    return metrics


def per_layer(tracer, workload, rounds: list, overhead: float) -> dict:
    """name -> (value, unit, note) for PER_LAYER, and for rejection
    classes that no metric names yet."""
    timed = [rec for rnd in rounds for rec in rnd]
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def share(part, whole):
        return part / whole if whole else 0.0

    derived = {
        "trace.ops": len(timed),
        "trace.wall_s": sum(r.seconds for r in timed),
        "trace.overhead_fraction": overhead,
        "sim.causalize.per_evaluation": share(
            calls["sim.causalize"], sum(workload.evaluations(r) for r in timed)),
        "check.validate_assignment.invalid_fraction": share(
            counts["check.validate_assignment.invalid"],
            calls["check.validate_assignment"]),
        "ga.mutate.noop_fraction": share(counts["ga.mutate.noop"], calls["ga.mutate"]),
        "ga.crossover.fallback_fraction": share(
            counts["ga.crossover.fallback"], calls["ga.crossover"]),
        "ga.GaProblem.constructible.accept_fraction": share(
            counts["ga.GaProblem.constructible.accepted"],
            calls["ga.GaProblem.constructible"]),
        "ga.cache_hit_fraction": share(
            counts["ga.individuals_scored"] - counts["ga.distinct_evaluations"],
            counts["ga.individuals_scored"]),
        "ga.distinct_genomes.final": share(
            counts["ga.distinct_genomes.final_sum"], counts["ga.runs"]),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = calls[name.removesuffix(".calls")]
        elif name.endswith(".self_s"):
            value = self_s[name.removesuffix(".self_s")]
        else:  # a counter: rows, steps or a rejection class
            value = counts[name]
        metrics[name] = (value, unit, "")
    for name, value in sorted(counts.items()):
        if ".rejected." in name and name not in metrics:
            metrics[name] = (value, "count", "not in BENCHMARK.json")
    return metrics


def traced_body(prog, workload, seconds: float) -> tuple:
    """Timed rounds under the tracer, then the same rounds again untraced
    until the re-runs reach OVERHEAD_SHARE of `seconds`. A re-run whose
    output differs from its traced run is marked failed. Returns the
    traced rounds, the tracer, the re-run records and the overhead."""
    tracer = Tracer()
    tracer.install()
    try:
        rounds = run_for(prog, workload, seconds, sample_setup=False)
    finally:
        tracer.uninstall()
    reruns = []
    traced_s = untraced_s = 0.0
    for i, rnd in enumerate(rounds):
        for before, after in zip(rnd, run_round(prog, workload, i + 1)):
            if before.digest != after.digest:
                after.failure = "output differs from the traced run's"
            traced_s += at_reference_speed(before.seconds, before.gauges)
            untraced_s += at_reference_speed(after.seconds, after.gauges)
            reruns.append(after)
        if untraced_s >= OVERHEAD_SHARE * seconds:
            break
    return rounds, tracer, reruns, traced_s / untraced_s - 1.0


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        work: Path, prog=None, **kwargs) -> tuple:
    """One benchmark run: (the JSON result, the lines to print before it)."""
    prog = prog or load_program()
    workload = make_workload(prog, workload_name, seed, work, **kwargs)
    records = run_round(prog, workload, 0)  # warm-up
    if trace:
        rounds, tracer, reruns, overhead = traced_body(prog, workload, seconds)
    else:
        rounds = run_for(prog, workload, seconds, sample_setup=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reruns = []
    timed = [rec for rnd in rounds for rec in rnd]
    records += timed + reruns

    lines = []
    digests = {}
    failed = 0
    for rec in records:
        reason = rec.failure or workload.check(rec)
        if reason:
            failed += 1
            lines.append(f"FAILED {workload_name} {rec.op.container} "
                         f"{rec.op.seed}: {reason}")
        digests[(rec.op.container, rec.op.seed)] = rec.digest
    lines[:0] = [f"digest {workload_name} {c} {s} {d}"
                 for (c, s), d in sorted(digests.items())]
    lines.append(f"{workload_name} seed {seed}: {len(rounds)} rounds "
                 f"({len(timed)} timed ops) after 1 warm-up round; "
                 f"{len(records)} ops checked, {failed} failed")
    if trace:
        metrics = per_layer(tracer, workload, rounds, overhead)
        names = [name for name, _ in PER_LAYER]
        lines.append(f"self time covered {tracer.total_self_s():.4f} s of "
                     f"{metrics['trace.wall_s'][0]:.4f} s traced op time")
    else:
        metrics = end_to_end(workload, rounds, records, failed, peak_rss_mb)
        names = [name for name, _, _ in END_TO_END]
    for name, (value, unit, note) in metrics.items():
        lines.append(f"metric {name} {value!r} {unit}" + (f" ({note})" if note else ""))
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                          for name in names}}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prog = load_program()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as work:
            result, lines = run(args.workload, args.seed, args.seconds,
                                bool(args.trace), Path(work), prog)
    finally:
        with contextlib.suppress(OSError):
            scratch.rmdir()
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
