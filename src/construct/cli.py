"""Command-line entry point.

Subcommands:
    synth           run the full reconstruction search on a container
    translate       emit the symbolic skeleton with slot placeholders
    validate        check a mapping against the validity constraints
    simulate        simulate a mapping and write the output trace
    make-reference  simulate a ground-truth mapping into reference.csv
    space           print the size of the injective assignment space
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from pathlib import Path

from construct import check, ga
from construct.container import (
    VariableDescriptor, VariableTable, load_container, load_trace, write_trace,
)
from construct.errors import ConstructError
from construct.model import apply_assignment, emit_modelica, modelica_name


def _load_problem(args) -> tuple:
    """Container -> (container, problem)."""
    cm = load_container(args.container)
    return cm, ga.problem_from_container(cm)


def _check_out_paths(*paths) -> None:
    """Refuse a path to write to whose directory does not exist."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise ConstructError(f"{path}: no such directory to write into")


def _add_ga_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("cbc", "cbt"), required=True,
                   help="operator suite: correct-by-construction or baseline")
    p.add_argument("--pop", type=int, default=400, help="population size")
    p.add_argument("--gens", type=int, default=10, help="maximum generations")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--elitism", type=int, default=2)
    p.add_argument("--pc", type=float, default=0.9, help="crossover rate")
    p.add_argument("--pm", type=float, default=0.1, help="mutation rate")
    p.add_argument("--tournament", type=int, default=2)
    p.add_argument("--no-early-stop", action="store_true",
                   help="always run the full generation budget")


def _ga_config(args) -> ga.GaConfig:
    try:
        return ga.GaConfig(
            population_size=args.pop, max_generations=args.gens,
            crossover_rate=args.pc, mutation_rate=args.pm,
            tournament_size=args.tournament, elitism=args.elitism,
            rng_seed=args.seed, early_stop=not args.no_early_stop)
    except ValueError as exc:
        raise ConstructError(f"invalid search settings: {exc}") from None


def _load_mapping(path: str, problem: ga.GaProblem) -> tuple:
    """The genes of a {"genes": [int, ...]} file, one per slot of the
    problem, each the index of one of its variables."""
    try:
        data = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # nested past the decoder's depth
        raise ConstructError(f"{path}: not JSON: {exc}") from None
    genes = data.get("genes") if isinstance(data, dict) else None
    if not isinstance(genes, list) or not all(type(g) is int for g in genes):
        raise ConstructError(f"{path}: expected {{\"genes\": [int, ...]}}")
    try:
        return check.genes_of(problem.model, genes, problem.vars)
    except ValueError as exc:  # a GeneOutOfRange too
        raise ConstructError(f"{path}: {exc}") from None


def _model_name(container: Path) -> str:
    # a Modelica IDENT: "_", ASCII letters and digits
    stem = "".join(ch if ch.isascii() and ch.isalnum() else "_" for ch in container.name)
    if not stem or stem[0].isdigit():
        stem = "M_" + stem
    return stem[0].upper() + stem[1:]


def cmd_synth(args) -> int:
    cm, problem = _load_problem(args)
    cfg = _ga_config(args)
    _check_out_paths(args.out, args.report, args.curves)
    if args.out:  # UnspellableName before the search, not after it
        for v in problem.vars.variables:
            modelica_name(v.name)
    result = ga.run_ga(args.mode, problem, cfg)
    best_c, best_f = result.best

    report = ga.report_dict(result, args.mode, cfg)
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    if args.curves:
        rows = ["mode,generation,best_mse"]
        for entry in result.per_generation:
            mse = "" if entry["best_mse"] is None else repr(entry["best_mse"])
            rows.append(f"{args.mode},{entry['gen']},{mse}")
        Path(args.curves).write_text("\n".join(rows) + "\n")

    if not best_f.is_finite:
        print("search finished: no simulatable candidate found")
        return 2
    print(f"search finished: best MSE {best_f.mse!r} "
          f"after {result.evaluations} evaluations")
    if args.out:
        bound = apply_assignment(problem.model, best_c, problem.vars)
        name = _model_name(Path(args.container))
        Path(args.out).write_text(emit_modelica(bound, name))
        print(f"wrote {args.out}")
    return 0


def cmd_translate(args) -> int:
    _check_out_paths(args.out)
    cm, problem = _load_problem(args)
    placeholders = VariableTable(tuple(
        VariableDescriptor(f"sym_{slot.origin}", slot.id,
                           slot.inferred_type if slot.inferred_type != "Unknown"
                           else "Real", "local", None)
        for slot in problem.model.slots))
    bound = apply_assignment(problem.model, range(problem.num_slots), placeholders)
    text = emit_modelica(bound, _model_name(Path(args.container)) + "_skeleton")
    Path(args.out).write_text(text)
    print(f"wrote {args.out} ({len(bound.equations)} equations, "
          f"{problem.num_slots} slots)")
    return 0


def cmd_validate(args) -> int:
    _, problem = _load_problem(args)
    if _valid_mapping(args.mapping, problem) is None:
        return 2
    print("valid: constraints C0-C6 all hold")
    return 0


def _valid_mapping(path: str, problem: ga.GaProblem):
    """The genes of the mapping file at path when they meet C0-C6;
    otherwise None, after printing each violation."""
    genes = _load_mapping(path, problem)
    report = problem.validate(genes)
    for cid, detail in report.violations:
        print(f"{cid}: {detail}")
    return genes if report.valid else None


def cmd_simulate(args) -> int:
    _check_out_paths(args.out)
    cm, problem = _load_problem(args)
    if cm.input_trace is None:
        raise ConstructError("container has no traces/input.csv")
    genes = _valid_mapping(args.mapping, problem)
    if genes is None:
        return 1
    result = problem.simulate_outputs(genes, cm.input_trace)
    write_trace(result, args.out)
    print(f"wrote {args.out} ({len(result.times)} samples, "
          f"{len(result.columns)} outputs)")
    return 0


def cmd_make_reference(args) -> int:
    out = Path(args.container) / "traces" / "reference.csv"
    _check_out_paths(out)
    cm, problem = _load_problem(args)
    input_trace = cm.input_trace
    if args.input:
        input_trace = load_trace(args.input)
    if input_trace is None:
        raise ConstructError("no input trace given and none in the container")
    genes = _valid_mapping(args.mapping, problem)
    if genes is None:
        return 1
    # a ground truth must simulate; errors are fatal
    result = problem.simulate_outputs(genes, input_trace)
    write_trace(result, out)
    print(f"wrote {out}")
    return 0


def cmd_space(args) -> int:
    # Decimal prints every digit, past the int-to-str digit limit
    print(decimal.Decimal(ga.search_space_size(args.slots, args.variables)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="construct",
        description="Reconstruct controller models from decompiled binaries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="search for the best variable mapping")
    p.add_argument("container", help="container directory")
    _add_ga_flags(p)
    p.add_argument("-o", "--out", help="write the best model here (.mo)")
    p.add_argument("--report", help="write the report JSON here")
    p.add_argument("--curves", help="write generation,best_mse rows here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("translate", help="emit the symbolic skeleton")
    p.add_argument("container")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("validate", help="check a mapping against C0-C6")
    p.add_argument("container")
    p.add_argument("--mapping", required=True, help="JSON {\"genes\": [...]}")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="simulate a mapping")
    p.add_argument("container")
    p.add_argument("--mapping", required=True)
    p.add_argument("-o", "--out", required=True, help="output trace CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("make-reference",
                       help="write traces/reference.csv from a ground truth")
    p.add_argument("container")
    p.add_argument("--mapping", required=True)
    p.add_argument("--input", help="input trace (default: the container's)")
    p.set_defaults(func=cmd_make_reference)

    p = sub.add_parser("space", help="injective assignment count")
    p.add_argument("slots", type=int)
    p.add_argument("variables", type=int)
    p.set_defaults(func=cmd_space)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConstructError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
