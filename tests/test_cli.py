import json
import shutil
from array import array
from pathlib import Path

import pytest

from construct import cli
from construct.cli import main
from construct.container import load_trace

REPO = Path(__file__).resolve().parent.parent
REMOVED_GA_FLAGS = ("--pc", "--pm", "--tournament", "--elitism")


def test_space_outputs(capsys):
    assert main(["space", "12", "12"]) == 0
    assert capsys.readouterr().out.strip() == "479001600"
    assert main(["space", "12", "13"]) == 0
    assert capsys.readouterr().out.strip() == "6227020800"


def test_space_prints_every_digit_of_a_large_count(capsys):
    # past the int-to-str digit limit (4,300 digits) of Python 3.11+
    assert main(["space", "2000", "3000"]) == 0
    out = capsys.readouterr().out.strip()
    assert len(out) == 6564
    assert out.startswith("10311856301421854586")


def test_space_error_exit_code(capsys):
    assert main(["space", "5", "4"]) == 1
    assert "error" in capsys.readouterr().err


def test_validate_ground_truth(pi_case, capsys):
    code = main(["validate", str(pi_case["root"]),
                 "--mapping", str(pi_case["root"] / "ground_truth.json")])
    assert code == 0
    assert "valid" in capsys.readouterr().out


def test_validate_bad_mapping(pi_case, tmp_path, capsys):
    bad = dict(genes=list(pi_case["ground_truth"]))
    bad["genes"][0] = bad["genes"][1]  # duplicate
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", str(pi_case["root"]), "--mapping", str(p)]) == 2
    assert "C0" in capsys.readouterr().out


def test_simulate_writes_trace(pi_case, tmp_path):
    out = tmp_path / "out.csv"
    code = main(["simulate", str(pi_case["root"]),
                 "--mapping", str(pi_case["root"] / "ground_truth.json"),
                 "--out", str(out)])
    assert code == 0
    trace = load_trace(out)
    reference = load_trace(pi_case["root"] / "traces" / "reference.csv")
    assert trace.times.tobytes() == reference.times.tobytes()
    assert {n: c.tobytes() for n, c in trace.columns.items()} \
        == {n: c.tobytes() for n, c in reference.columns.items()}


@pytest.mark.parametrize("container", ["fixtures/pi", "fixtures/pid", "fixtures/limpid",
                                       "tests/data/tiny"],
                         ids=["pi", "pid", "limpid", "tiny"])
def test_make_reference_regenerates_byte_identical(container, tmp_path):
    work = tmp_path / "container"
    shutil.copytree(REPO / container, work)
    before = (work / "traces" / "reference.csv").read_bytes()
    code = main(["make-reference", str(work),
                 "--mapping", str(work / "ground_truth.json")])
    assert code == 0
    assert (work / "traces" / "reference.csv").read_bytes() == before


CONTAINERS = {"pi": "fixtures/pi", "pid": "fixtures/pid", "limpid": "fixtures/limpid",
              "tiny": "tests/data/tiny"}


def _tree_walk_outputs(problem, genes, inputs):
    """The genome's outputs over the input trace by interp.tree_walk, on
    its slot-level plan renamed to names."""
    from construct import sim
    from interp import named, tree_walk

    bound = problem.bind(genes)
    return tree_walk(named(sim.causalize(bound), bound.bindings), inputs,
                     problem.classification.outputs)


def _bits(trace) -> tuple:
    return (array("d", trace.times).tobytes(),
            {name: array("d", column).tobytes() for name, column in trace.columns.items()})


@pytest.mark.parametrize("command", ["simulate", "make-reference"])
@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_simulate_and_make_reference_run_the_genes_through_the_problems_kernel(
        name, command, tmp_path, monkeypatch):
    # after the problem is built: one causalize, of the genome bound at
    # slot level, and one kernel compiled from the problem's Structure into
    # its own kernel cache; nothing is bound by name or analysed again, and
    # the trace written is the tree walk's
    from construct import check, ga, model, sim

    work = tmp_path / name
    shutil.copytree(REPO / CONTAINERS[name], work)
    built, calls, written = [], [], []

    def recording(attr, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if built:
                calls.append((attr, args, result))
            return result
        return wrapper

    problem_from_container, write_trace = ga.problem_from_container, cli.write_trace

    def building(cm):
        built.append(problem_from_container(cm))
        return built[-1]

    def writing(trace, path):
        written.append(trace)
        write_trace(trace, path)

    monkeypatch.setattr(ga, "problem_from_container", building)
    monkeypatch.setattr(cli, "write_trace", writing)
    for module, attr in ((sim, "causalize"), (sim, "_compile_kernel"), (check, "analyse"),
                         (model, "apply_assignment"), (ga, "apply_assignment"),
                         (cli, "apply_assignment")):
        monkeypatch.setattr(module, attr, recording(attr, getattr(module, attr)))
    mapping = str(work / "ground_truth.json")
    argv = {"simulate": ["simulate", str(work), "--mapping", mapping,
                         "-o", str(tmp_path / "out.csv")],
            "make-reference": ["make-reference", str(work), "--mapping", mapping]}[command]
    assert main(argv) == 0
    problem, = built
    assert [attr for attr, _, _ in calls] == ["causalize", "_compile_kernel"]
    (_, (bound,), _), (_, (st, outputs, *scored), kernel) = calls
    assert bound.structure is problem.structure and st is problem.structure
    assert problem.kernels.kernels == {(outputs, False): kernel} and not any(scored)
    trace, = written
    genes = tuple(json.loads((work / "ground_truth.json").read_text())["genes"])
    assert _bits(trace) == _bits(_tree_walk_outputs(problem, genes, problem.input_trace))


@pytest.mark.parametrize("rows", [57, 403])
def test_make_reference_writes_the_length_of_the_input_it_is_given(pi_case, tmp_path, rows):
    from construct import ga
    from construct.container import Trace, load_container, write_trace

    work = tmp_path / "pi"
    shutil.copytree(pi_case["root"], work)
    committed = pi_case["container"].input_trace
    assert len(committed.times) != rows
    h = committed.times[1] - committed.times[0]
    columns = {name: [column[k % len(column)] for k in range(rows)]
               for name, column in committed.columns.items()}
    write_trace(Trace([k * h for k in range(rows)], columns), tmp_path / "input.csv")
    assert main(["make-reference", str(work), "--mapping", str(work / "ground_truth.json"),
                 "--input", str(tmp_path / "input.csv")]) == 0
    reference = load_trace(work / "traces" / "reference.csv")
    assert len(reference.times) == rows
    problem = ga.problem_from_container(load_container(work))
    expected = _tree_walk_outputs(problem, pi_case["ground_truth"],
                                  load_trace(tmp_path / "input.csv"))
    assert _bits(reference) == _bits(expected)


def test_simulate_outputs_of_a_repeated_gene_raises_duplicate_binding(pi_case):
    from construct import ga
    from construct.check import DuplicateBinding

    problem = ga.problem_from_container(pi_case["container"])
    genes = list(pi_case["ground_truth"])
    genes[0] = genes[1]
    with pytest.raises(DuplicateBinding):
        problem.simulate_outputs(genes, problem.input_trace)
    assert problem.kernels.kernels == {}


def test_make_reference_invalid_mapping(pi_case, tmp_path, capsys):
    import shutil
    work = tmp_path / "pi"
    shutil.copytree(pi_case["root"], work)
    bad = {"genes": [0] * 10}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["make-reference", str(work), "--mapping", str(p)]) == 1
    assert "C0" in capsys.readouterr().out


def test_translate_emits_skeleton(pi_case, tmp_path):
    out = tmp_path / "skel.mo"
    assert main(["translate", str(pi_case["root"]), "--out", str(out)]) == 0
    text = out.read_text()
    assert "sym_0x10" in text
    assert "der(sym_0x28)" in text
    assert text.count("=") >= 8


def test_synth_cbc_pi(pi_case, tmp_path, capsys):
    out = tmp_path / "best.mo"
    report = tmp_path / "r.json"
    curves = tmp_path / "curves.csv"
    code = main(["synth", str(pi_case["root"]), "--mode", "cbc",
                 "--pop", "50", "--gens", "10", "--seed", "7",
                 "--no-early-stop",
                 "-o", str(out), "--report", str(report), "--curves", str(curves)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["mode"] == "cbc"
    assert len(data["per_generation"]) == 10
    assert data["best_mse"] is not None
    assert out.read_text().startswith("model Pi")
    lines = curves.read_text().strip().splitlines()
    assert lines[0] == "mode,generation,best_mse"
    assert len(lines) == 11


def test_synth_early_stop_shortens_report(tiny_case, tmp_path):
    # the search stops once the best MSE drops under the threshold: on the
    # tiny container every CbC chromosome is the ground truth
    lengths = []
    for flags in ((), ("--no-early-stop",)):
        report = tmp_path / "r.json"
        code = main(["synth", str(tiny_case["root"]), "--mode", "cbc",
                     "--pop", "10", "--gens", "8", "--seed", "7",
                     "--report", str(report), *flags])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["best_mse"] < 1e-12
        lengths.append(len(data["per_generation"]))
    assert lengths == [1, 8]


def test_synth_cbt_mixed_exits_2(pid_case, tmp_path):
    report = tmp_path / "r.json"
    code = main(["synth", str(pid_case["root"]), "--mode", "cbt",
                 "--pop", "30", "--gens", "5", "--seed", "0",
                 "--report", str(report)])
    assert code == 2
    data = json.loads(report.read_text())
    assert data["best_mse"] is None


def test_synth_missing_reference_exits_1(pi_case, tmp_path, capsys):
    import shutil
    work = tmp_path / "pi"
    shutil.copytree(pi_case["root"], work)
    (work / "traces" / "reference.csv").unlink()
    code = main(["synth", str(work), "--mode", "cbc", "--pop", "10",
                 "--gens", "2", "--seed", "0"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "-inf"])
def test_synth_non_finite_reference_cell_exits_1(pi_case, tmp_path, capsys, cell):
    import shutil
    work = tmp_path / "pi"
    shutil.copytree(pi_case["root"], work)
    ref = work / "traces" / "reference.csv"
    lines = ref.read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:-1] + [cell])
    ref.write_text("\n".join(lines) + "\n")
    code = main(["synth", str(work), "--mode", "cbc", "--pop", "10",
                 "--gens", "2", "--seed", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err and "line 6" in err


def _pi_copy(pi_case, tmp_path):
    work = tmp_path / "pi"
    shutil.copytree(pi_case["root"], work)
    return work


def test_translate_non_ascii_digit_exits_1(pi_case, tmp_path, capsys):
    work = _pi_copy(pi_case, tmp_path)
    src = work / "sources" / "controller.c"
    src.write_text(src.read_text().replace("dVar1 * 1.25", "dVar1 * 1²"))
    code = main(["translate", str(work), "--out", str(tmp_path / "s.mo")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("damage", ["drop_output_column", "drop_last_row"])
def test_synth_reference_not_matching_outputs_exits_1(pi_case, tmp_path, capsys,
                                                      damage):
    work = _pi_copy(pi_case, tmp_path)
    ref = work / "traces" / "reference.csv"
    lines = ref.read_text().splitlines()
    if damage == "drop_output_column":
        lines = [line.replace(",command", ",other") for line in lines]
    else:
        lines = lines[:-1]
    ref.write_text("\n".join(lines) + "\n")
    code = main(["synth", str(work), "--mode", "cbc", "--pop", "10",
                 "--gens", "2", "--seed", "0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def _pi_with_temporary_chain(pi_case, tmp_path, links):
    """pi whose 0x30 slot is computed through a chain of single-use
    temporaries; the inlined expression is links + 2 levels deep."""
    work = _pi_copy(pi_case, tmp_path)
    src = work / "sources" / "controller.c"
    chain = ["double c0 = dVar1 * 1.25;"]
    chain += [f"double c{i} = c{i - 1} + 1.0;" for i in range(1, links + 1)]
    chain.append(f"double dVar2 = c{links};")
    src.write_text(src.read_text().replace("double dVar2 = dVar1 * 1.25;",
                                           "\n  ".join(chain)))
    return work


def test_translate_temporary_chain_at_depth_bound(pi_case, tmp_path):
    from construct.cparse import MAX_EXPR_DEPTH
    work = _pi_with_temporary_chain(pi_case, tmp_path, MAX_EXPR_DEPTH - 2)
    assert main(["translate", str(work), "--out", str(tmp_path / "s.mo")]) == 0


def test_translate_temporary_chain_past_depth_bound_exits_1(pi_case, tmp_path, capsys):
    from construct.cparse import MAX_EXPR_DEPTH
    work = _pi_with_temporary_chain(pi_case, tmp_path, MAX_EXPR_DEPTH - 1)
    assert main(["translate", str(work), "--out", str(tmp_path / "s.mo")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "levels" in err


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--mode", "--pop", "--gens", "--seed", "--no-early-stop",
                 "--report", "--curves"):
        assert flag in text
    for flag in REMOVED_GA_FLAGS:  # constants in ga.py
        assert flag not in text


def test_unknown_flag_is_hard_error(pi_case, tmp_path, capsys):
    root, mapping = str(pi_case["root"]), str(pi_case["root"] / "ground_truth.json")
    commands = (["synth", root, "--mode", "cbc"],
                ["translate", root, "--out", str(tmp_path / "s.mo")],
                ["validate", root, "--mapping", mapping],
                ["simulate", root, "--mapping", mapping, "-o", str(tmp_path / "o.csv")],
                ["make-reference", root, "--mapping", mapping])
    for flags in (["--frobnicate"], ["--cbt-repair"], ["--strict-unknown"],
                  ["--reciprocal-tolerance", "1e-9"]):
        for argv in commands:
            with pytest.raises(SystemExit) as exc:
                main(argv + flags)
            assert exc.value.code == 2, argv + flags
    assert not any(tmp_path.iterdir())


def test_translate_non_ascii_identifier_exits_1(pi_case, tmp_path, capsys):
    work = _pi_copy(pi_case, tmp_path)
    src = work / "sources" / "controller.c"
    src.write_text(src.read_text().replace("dVar2", "dVär2"))
    code = main(["translate", str(work), "--out", str(tmp_path / "s.mo")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_synth_whose_mse_sum_overflows_reports_the_mean(pi_case, tmp_path, capsys):
    # each finite MSE is 8.1e307: two of them sum past the float range
    work = _pi_copy(pi_case, tmp_path)
    for name in ("input.csv", "reference.csv"):
        trace = work / "traces" / name
        header, *rows = trace.read_text().splitlines()[:3]
        if name == "reference.csv":
            rows = [row.split(",")[0] + ",9e153" for row in rows]
        trace.write_text("\n".join([header] + rows) + "\n")
    report = tmp_path / "r.json"
    code = main(["synth", str(work), "--mode", "cbc", "--pop", "10", "--gens", "2",
                 "--report", str(report)])
    assert code == 0
    assert capsys.readouterr().out.startswith("search finished: best MSE 8.1e+307")
    for entry in json.loads(report.read_text())["per_generation"]:
        assert entry["mean_finite_mse"] == pytest.approx(8.1e307)


@pytest.mark.parametrize("name, model", [("ctrl²", "Ctrl_"), ("régulateur", "R_gulateur"),
                                         ("2π", "M_2_")])
def test_model_name_is_an_ascii_identifier(pi_case, tmp_path, name, model):
    work = tmp_path / name
    shutil.copytree(pi_case["root"], work)
    out = tmp_path / "s.mo"
    assert main(["translate", str(work), "--out", str(out)]) == 0
    assert out.read_text().startswith(f"model {model}_skeleton\n")


def test_synth_with_overflowing_mse_ends_without_traceback(pi_case, tmp_path):
    work = _pi_copy(pi_case, tmp_path)
    trace = work / "traces" / "input.csv"
    header, *rows = trace.read_text().splitlines()
    scaled = [",".join([cells[0]] + [repr(float(c) * 1e200) for c in cells[1:]])
              for cells in (row.split(",") for row in rows)]
    trace.write_text("\n".join([header] + scaled) + "\n")
    code = main(["synth", str(work), "--mode", "cbc", "--pop", "10", "--gens", "2",
                 "--seed", "0", "-o", str(tmp_path / "best.mo")])
    assert code in (0, 2)


def _pi_with_doubling_chain(pi_case, tmp_path, links):
    """pi whose 0x30 slot is computed through c0 = dVar1 and
    c(i) = c(i-1) + c(i-1): inlined, 2^(links+1) - 1 nodes."""
    work = _pi_copy(pi_case, tmp_path)
    src = work / "sources" / "controller.c"
    chain = ["double c0 = dVar1;"]
    chain += [f"double c{i} = c{i - 1} + c{i - 1};" for i in range(1, links + 1)]
    chain.append(f"double dVar2 = c{links};")
    src.write_text(src.read_text().replace("double dVar2 = dVar1 * 1.25;",
                                           "\n  ".join(chain)))
    return work


def test_translate_doubling_chain_at_node_bound(pi_case, tmp_path):
    from construct.cparse import MAX_EXPR_NODES
    links = (MAX_EXPR_NODES + 1).bit_length() - 2  # the longest chain that fits
    assert 2 ** (links + 1) - 1 <= MAX_EXPR_NODES < 2 ** (links + 2) - 1
    work = _pi_with_doubling_chain(pi_case, tmp_path, links)
    assert main(["translate", str(work), "--out", str(tmp_path / "s.mo")]) == 0
    work = _pi_with_doubling_chain(pi_case, tmp_path / "next", links + 1)
    assert main(["translate", str(work), "--out", str(tmp_path / "s.mo")]) == 1


def test_translate_long_doubling_chain_exits_1_quickly(pi_case, tmp_path, capsys):
    import time
    work = _pi_with_doubling_chain(pi_case, tmp_path, 40)
    start = time.perf_counter()
    assert main(["translate", str(work), "--out", str(tmp_path / "s.mo")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nodes" in err


def _mapping_file(tmp_path, text):
    path = tmp_path / "mapping.json"
    path.write_text(text)
    return path


def _ground_truth_with(pi_case, position, gene):
    genes = list(pi_case["ground_truth"])
    genes[position] = gene
    return json.dumps({"genes": genes})


HOSTILE_MAPPINGS = {
    "missing": None,
    "not-json": "{genes: [1, 2",
    "json-list": "[3, 1, 2]",
}


@pytest.mark.parametrize("command", ["validate", "simulate", "make-reference"])
@pytest.mark.parametrize("kind", sorted(HOSTILE_MAPPINGS))
def test_unreadable_mapping_exits_1(pi_case, tmp_path, capsys, command, kind):
    work = _pi_copy(pi_case, tmp_path)
    text = HOSTILE_MAPPINGS[kind]
    mapping = tmp_path / "absent.json" if text is None else _mapping_file(tmp_path, text)
    argv = [command, str(work), "--mapping", str(mapping)]
    if command == "simulate":
        argv += ["-o", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["validate", "make-reference"])
@pytest.mark.parametrize("kind", ["too-short", "too-long", "out-of-range", "negative"])
def test_mapping_not_fitting_the_problem_exits_1(pi_case, tmp_path, capsys, command,
                                                  kind):
    work = _pi_copy(pi_case, tmp_path)
    genes = list(pi_case["ground_truth"])
    n_vars = pi_case["problem"].num_variables
    text = {"too-short": json.dumps({"genes": genes[:-1]}),
            "too-long": json.dumps({"genes": genes + [n_vars - 1]}),
            "out-of-range": _ground_truth_with(pi_case, 0, n_vars),
            "negative": _ground_truth_with(pi_case, 0, -1)}[kind]
    argv = [command, str(work), "--mapping", str(_mapping_file(tmp_path, text))]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_deeply_nested_mapping_exits_1(pi_case, tmp_path, capsys):
    # valid JSON, nested past the decoder's recursion limit
    depth = 100_000
    mapping = _mapping_file(tmp_path, '{"genes": ' + "[" * depth + "]" * depth + "}")
    assert main(["validate", str(pi_case["root"]), "--mapping", str(mapping)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {mapping}: not JSON")


def test_boolean_gene_in_mapping_exits_1(pi_case, tmp_path, capsys):
    # true would otherwise be read as gene 1
    position = pi_case["ground_truth"].index(1)
    mapping = _mapping_file(tmp_path, _ground_truth_with(pi_case, position, True))
    assert main(["validate", str(pi_case["root"]), "--mapping", str(mapping)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_make_reference_missing_input_exits_1(pi_case, tmp_path, capsys):
    work = _pi_copy(pi_case, tmp_path)
    code = main(["make-reference", str(work), "--mapping",
                 str(work / "ground_truth.json"), "--input", str(tmp_path / "absent.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


# Stable ids; the cases for the removed GA flags are in
# test_synth_removed_ga_flag_is_a_usage_error.
@pytest.mark.parametrize("flags", [
    pytest.param(("--pop", "1"), id="flags0"),
    pytest.param(("--pop", "2"), id="flags1"),
    pytest.param(("--gens", "-1"), id="flags2"),
    pytest.param(("--gens", "0"), id="flags4"),
])
def test_synth_invalid_settings_exit_1(pi_case, capsys, flags):
    code = main(["synth", str(pi_case["root"]), "--mode", "cbc", "--pop", "20", *flags])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: invalid search settings")


@pytest.mark.parametrize("flag", REMOVED_GA_FLAGS)
def test_synth_removed_ga_flag_is_a_usage_error(pi_case, tmp_path, capsys, flag):
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["synth", str(pi_case["root"]), "--mode", "cbc", "--pop", "20",
              "--gens", "1", "--report", str(report), flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not report.exists()


def test_space_negative_slot_count_exits_1(capsys):
    assert main(["space", "-1", "3"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    # and a negative variable count, which is no slots-exceed-variables case
    assert main(["space", "3", "-2"]) == 1
    assert capsys.readouterr().err == "error: negative variable count -2\n"


def test_synth_out_into_missing_directory_exits_1(pi_case, tmp_path, capsys):
    code = main(["synth", str(pi_case["root"]), "--mode", "cbc", "--pop", "10",
                 "--gens", "1", "-o", str(tmp_path / "absent" / "best.mo")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_out_into_missing_directory_exits_1_before_loading(pi_case, tmp_path,
                                                                    capsys, monkeypatch):
    # simulate and translate into a missing directory, and make-reference
    # into a container without traces/
    def load(args):
        raise AssertionError("the container was loaded")

    monkeypatch.setattr(cli, "_load_problem", load)
    root, mapping = str(pi_case["root"]), str(pi_case["root"] / "ground_truth.json")
    work = tmp_path / "pi"
    shutil.copytree(root, work, ignore=shutil.ignore_patterns("traces"))
    before = sorted(tmp_path.rglob("*"))
    simulated, skeleton = tmp_path / "absent" / "out.csv", tmp_path / "absent" / "x.mo"
    reference = work / "traces" / "reference.csv"
    for out, argv in (
            (simulated, ["simulate", root, "--mapping", mapping, "-o", str(simulated)]),
            (skeleton, ["translate", root, "--out", str(skeleton)]),
            (reference, ["make-reference", str(work), "--mapping", mapping])):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"error: {out}: no such directory to write into\n"
        assert sorted(tmp_path.rglob("*")) == before, argv


def _renamed_pi(pi_case, tmp_path, renames):
    work = _pi_copy(pi_case, tmp_path)
    desc = work / "modelDescription.xml"
    text = desc.read_text()
    for old, new in renames.items():
        text = text.replace(f'name="{old}"', f'name="{new}"')
    desc.write_text(text)
    return work


def test_synth_writes_a_name_that_is_no_ident_quoted(pi_case, tmp_path, capsys):
    # a structured name and a keyword: the search is the golden one, and
    # the model is the golden model with each name written as a Q-IDENT
    work = _renamed_pi(pi_case, tmp_path, {"drift_comp": "ctrl.drift comp",
                                           "integ_state": "model"})
    out = tmp_path / "best.mo"
    assert main(["synth", str(work), "--mode", "cbc", "--pop", "20", "--gens", "5",
                 "--seed", "0", "-o", str(out)]) == 0
    golden = (REPO / "tests" / "golden" / "seed0" / "pi-cbc.mo").read_text()
    assert out.read_text() == golden.replace("drift_comp", "'ctrl.drift comp'") \
        .replace("integ_state", "'model'")


@pytest.mark.parametrize("name", ["drift\u00e9", "drift`comp"])
def test_synth_out_with_a_name_no_quoted_identifier_spells_exits_1_before_searching(
        pi_case, tmp_path, capsys, name):
    work = _renamed_pi(pi_case, tmp_path, {"drift_comp": name})
    out = tmp_path / "best.mo"
    code = main(["synth", str(work), "--mode", "cbc", "--pop", "20", "--gens", "5",
                 "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"error: variable {name!r} has no Modelica name: "
                            f"no identifier spells {name[5]!r}\n")
    assert "search finished" not in captured.out and not out.exists()
    # without a model to write, the search runs
    assert main(["synth", str(work), "--mode", "cbc", "--pop", "20", "--gens", "5"]) == 0


@pytest.mark.parametrize("flag", ["-o", "--report", "--curves"])
def test_synth_checks_output_paths_before_searching(pi_case, tmp_path, capsys, flag):
    code = main(["synth", str(pi_case["root"]), "--mode", "cbc",
                 flag, str(tmp_path / "missing" / "x.mo")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "search finished" not in captured.out


def test_out_of_range_gene_error_names_the_mapping_file(pi_case, tmp_path, capsys):
    n_vars = pi_case["problem"].num_variables
    mapping = _mapping_file(tmp_path, _ground_truth_with(pi_case, 0, n_vars))
    assert main(["validate", str(pi_case["root"]), "--mapping", str(mapping)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mapping}: gene {n_vars} at position 0 outside")


@pytest.mark.parametrize("relpath", ["modelDescription.xml", "sources/controller.c",
                                     "traces/input.csv", "traces/reference.csv",
                                     "rules.toml"])
def test_non_utf8_container_file_exits_1(pi_case, tmp_path, capsys, relpath):
    root = tmp_path / "pi"
    shutil.copytree(pi_case["root"], root)
    with open(root / relpath, "ab") as f:
        f.write(b"\xff\xfe")
    assert main(["translate", str(root), "--out", str(tmp_path / "skeleton.mo")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {root / relpath}: not UTF-8")


@pytest.mark.parametrize("rule", ["reciprocal_tolerance = abc", "reciprocal_tolerance = -1"])
def test_translate_bad_rule_setting_exits_1(pi_case, tmp_path, capsys, rule):
    # R1's bounds are constants, not rules.toml keys
    work = _pi_copy(pi_case, tmp_path)
    (work / "rules.toml").write_text(f"# pi\n{rule}\n")
    code = main(["translate", str(work), "--out", str(tmp_path / "s.mo")])
    assert code == 1
    key = rule.split()[0]
    assert capsys.readouterr().err == f"error: rules file line 2: unknown key {key!r}\n"


def _retime(trace, times):
    lines = trace.read_text().splitlines()
    rows = [[repr(t)] + line.split(",")[1:] for t, line in zip(times, lines[1:])]
    trace.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")


def test_synth_non_uniform_input_grid_exits_1(pi_case, tmp_path, capsys):
    work = _pi_copy(pi_case, tmp_path)
    times = list(pi_case["container"].input_trace.times)
    times[4] += 0.003
    for name in ("input.csv", "reference.csv"):
        _retime(work / "traces" / name, times)
    code = main(["synth", str(work), "--mode", "cbc", "--pop", "10", "--gens", "2"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: non-uniform sample spacing")


def test_synth_reference_on_another_time_grid_exits_1(pi_case, tmp_path, capsys):
    work = _pi_copy(pi_case, tmp_path)
    rows = len(pi_case["container"].input_trace.times)
    _retime(work / "traces" / "reference.csv", [k * 0.02 for k in range(rows)])
    code = main(["synth", str(work), "--mode", "cbc", "--pop", "10", "--gens", "2"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: malformed trace: reference time 0.02")


def test_translate_function_defined_in_two_sources_exits_1(pi_case, tmp_path, capsys):
    work = _pi_copy(pi_case, tmp_path)
    shutil.copy(work / "sources" / "controller.c", work / "sources" / "zz_copy.c")
    code = main(["translate", str(work), "--out", str(tmp_path / "s.mo")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'fmu_step'" in err


@pytest.mark.parametrize("start", ["nan", "inf", "-inf", "1e400"])
def test_synth_non_finite_start_exits_1(pi_case, tmp_path, capsys, start):
    work = _pi_copy(pi_case, tmp_path)
    desc = work / "modelDescription.xml"
    desc.write_text(desc.read_text().replace('start="0.15"', f'start="{start}"'))
    out = tmp_path / "m.mo"
    code = main(["synth", str(work), "--mode", "cbc", "--pop", "50", "--gens", "10",
                 "--seed", "0", "-o", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'track_error'" in err and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("digits", [400, 5000])
def test_translate_long_decimal_literal_exits_1(pi_case, tmp_path, capsys, digits):
    work = _pi_copy(pi_case, tmp_path)
    src = work / "sources" / "controller.c"
    src.write_text(src.read_text().replace("dVar1 * 1.25", "dVar1 * " + "7" * digits))
    code = main(["translate", str(work), "--out", str(tmp_path / "s.mo")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sources/controller.c: line 6, column 26: expected an "
                          "integer literal below 2**64 (found '77777777777777777777...')")


def test_translate_largest_integer_literal_is_accepted(pi_case, tmp_path):
    work = _pi_copy(pi_case, tmp_path)
    src = work / "sources" / "controller.c"
    src.write_text(src.read_text().replace("dVar1 * 1.25", f"dVar1 * {2 ** 64 - 1}"))
    assert main(["translate", str(work), "--out", str(tmp_path / "s.mo")]) == 0
    assert "1.8446744073709552e+19" in (tmp_path / "s.mo").read_text()


def test_parse_error_names_its_source_file(pi_case, tmp_path, capsys):
    work = _pi_copy(pi_case, tmp_path)
    shutil.copy(work / "sources" / "controller.c", work / "sources" / "zz_copy.c")
    assert main(["translate", str(work), "--out", str(tmp_path / "s.mo")]) == 1
    assert capsys.readouterr().err == (
        "error: sources/zz_copy.c: line 1, column 1: expected a unique function "
        "name (found 'fmu_step')\n")


def _chain_container(root, links: int):
    """A container whose step function is a chain of `links` stores, each
    reading the slot the one before it wrote: u -> x1 -> ... -> y."""
    names = ["u"] + [f"x{k}" for k in range(1, links)] + ["y"]
    causality = ["input"] + ["local"] * (links - 1) + ["output"]
    (root / "sources").mkdir(parents=True)
    (root / "traces").mkdir()
    (root / "modelDescription.xml").write_text("\n".join(
        ['<?xml version="1.0" encoding="UTF-8"?>',
         '<fmiModelDescription fmiVersion="2.0" modelName="chain">', "<ModelVariables>"]
        + [f'<ScalarVariable name="{n}" valueReference="{8 * k + 8}" causality="{c}">'
           "<Real/></ScalarVariable>" for k, (n, c) in enumerate(zip(names, causality))]
        + ["</ModelVariables>", "</fmiModelDescription>", ""]))
    (root / "sources" / "controller.c").write_text("\n".join(
        ["void fmu_step(long param_1, double param_2)", "{"]
        + [f"  *(double *)(param_1 + {hex(8 * k + 16)}) = "
           f"*(double *)(param_1 + {hex(8 * k + 8)}) + 1.0;" for k in range(links)]
        + ["}", ""]))
    times = [k / 100 for k in range(5)]
    (root / "traces" / "input.csv").write_text(
        "time,u\n" + "".join(f"{t!r},{t!r}\n" for t in times))
    (root / "traces" / "reference.csv").write_text(
        "time,y\n" + "".join(f"{t!r},{t + links!r}\n" for t in times))


def test_synth_on_a_long_chain_of_stores(tmp_path, capsys):
    # each store is solved for the slot it writes: no search over which
    # equation solves which slot, whose cost grew exponentially in the links
    root = tmp_path / "chain"
    _chain_container(root, 200)
    assert main(["synth", str(root), "--mode", "cbc", "--pop", "4", "--gens", "1"]) == 0
    assert "best MSE" in capsys.readouterr().out


def _one_step_container(root, rows, statements):
    """A container of one step function: rows are (name, value reference,
    causality, type element) and statements the lines of its body; the
    input trace holds u = 1, 2, 3 and the reference y = 0."""
    (root / "sources").mkdir(parents=True)
    (root / "traces").mkdir()
    (root / "modelDescription.xml").write_text("\n".join(
        ['<?xml version="1.0" encoding="UTF-8"?>',
         '<fmiModelDescription fmiVersion="2.0" modelName="one">', "<ModelVariables>"]
        + [f'<ScalarVariable name="{n}" valueReference="{r}" causality="{c}">'
           f"{element}</ScalarVariable>" for n, r, c, element in rows]
        + ["</ModelVariables>", "</fmiModelDescription>", ""]))
    (root / "sources" / "controller.c").write_text("\n".join(
        ["void fmu_step(long param_1, double param_2)", "{"]
        + [f"  {line}" for line in statements] + ["}", ""]))
    (root / "traces" / "input.csv").write_text("time,u\n0.0,1.0\n0.01,2.0\n0.02,3.0\n")
    (root / "traces" / "reference.csv").write_text("time,y\n0.0,0.0\n0.01,0.0\n0.02,0.0\n")


def test_read_of_a_later_store_exits_with_both_equations(tmp_path, capsys):
    # y = z + 1 reads the z of the previous step, which the C stores after
    # it: the C gives y = 6, 2, 3 for u = 1, 2, 3 (z starts at 5), which
    # no ordering of the equations y = z + 1 and z = u reproduces
    root = tmp_path / "stale"
    _one_step_container(
        root, [("u", 8, "input", "<Real/>"), ("y", 16, "output", "<Real/>"),
               ("z", 24, "local", '<Real start="5.0"/>')],
        ["*(double *)(param_1 + 0x10) = *(double *)(param_1 + 0x18) + 1.0;",
         "*(double *)(param_1 + 0x18) = *(double *)(param_1 + 0x8);"])
    mapping = _mapping_file(tmp_path, json.dumps({"genes": [1, 2, 0]}))
    fault = "equation 0 reads sym_0x18 before equation 1 stores it"
    assert main(["validate", str(root), "--mapping", str(mapping)]) == 2
    assert capsys.readouterr().out == f"C5: {fault}\n"
    out = tmp_path / "out.csv"
    assert main(["simulate", str(root), "--mapping", str(mapping), "-o", str(out)]) == 1
    assert capsys.readouterr().out == f"C5: {fault}\n"
    assert not out.exists()


def test_simulate_rejects_a_mapping_that_validate_rejects(tmp_path, capsys):
    # the int casts type both slots Integer, which the Real y and u break;
    # a model rewritten to names shows no casts
    root = tmp_path / "cast"
    _one_step_container(root, [("y", 16, "output", "<Real/>"), ("u", 8, "input", "<Real/>")],
                        ["*(int *)(param_1 + 0x10) = *(int *)(param_1 + 0x8);"])
    mapping = _mapping_file(tmp_path, json.dumps({"genes": [0, 1]}))
    assert main(["validate", str(root), "--mapping", str(mapping)]) == 2
    faults = capsys.readouterr().out
    assert faults.count("C1: ") == 2
    out = tmp_path / "out.csv"
    assert main(["simulate", str(root), "--mapping", str(mapping), "-o", str(out)]) == 1
    assert capsys.readouterr().out == faults
    assert not out.exists()


@pytest.mark.parametrize("literal", ["5e-324", "1e-320"])
def test_translate_multiplier_with_an_overflowing_reciprocal(pi_case, tmp_path, literal):
    # 1 / c is inf: the reciprocal rule does not fire
    work = _pi_copy(pi_case, tmp_path)
    src = work / "sources" / "controller.c"
    src.write_text(src.read_text().replace("dVar1 * 1.25", f"dVar1 * {literal}"))
    assert main(["translate", str(work), "--out", str(tmp_path / "s.mo")]) == 0
    assert f"sym_0x20 * {float(literal)!r};" in (tmp_path / "s.mo").read_text()


def test_translate_step_size_divided_by_zero_exits_1(pi_case, tmp_path, capsys):
    work = _pi_copy(pi_case, tmp_path)
    src = work / "sources" / "controller.c"
    src.write_text(src.read_text().replace(
        "*(double *)(param_1 + 0x28) + dVar13;", "*(double *)(param_1 + 0x28) + param_2 / 0.0;"))
    assert main(["translate", str(work), "--out", str(tmp_path / "s.mo")]) == 1
    assert capsys.readouterr().err == ("error: identifier 'param_2' is not a parameter, "
                                       "local, or slot (step size used outside an "
                                       "integrator update)\n")


@pytest.mark.parametrize("command", ["synth", "simulate", "make-reference"])
def test_integer_start_beyond_the_float_range_exits_1(tmp_path, capsys, command):
    root = tmp_path / "huge"
    _one_step_container(
        root, [("y", 16, "output", "<Real/>"), ("u", 8, "input", "<Integer/>"),
               ("k", 24, "parameter", f'<Integer start="1{"0" * 400}"/>')],
        ["*(double *)(param_1 + 0x10) = "
         "*(int *)(param_1 + 0x8) < *(int *)(param_1 + 0x18) ? 1.0 : 0.0;"])
    mapping = _mapping_file(tmp_path, json.dumps({"genes": [0, 1, 2]}))
    argv = {"synth": ["synth", str(root), "--mode", "cbc", "--pop", "4", "--gens", "1"],
            "simulate": ["simulate", str(root), "--mapping", str(mapping),
                         "-o", str(tmp_path / "out.csv")],
            "make-reference": ["make-reference", str(root), "--mapping", str(mapping)]}
    assert main(argv[command]) == 1
    assert capsys.readouterr().err == ("error: malformed model description: start of Integer "
                                       "variable 'k' is beyond the float range\n")


def _tiny_without_outputs(tmp_path):
    work = tmp_path / "tiny"
    shutil.copytree(REPO / "tests/data/tiny", work)
    desc = work / "modelDescription.xml"
    desc.write_text(desc.read_text().replace('causality="output"', 'causality="local"'))
    return work


@pytest.mark.parametrize("mode", ["cbc", "cbt"])
def test_synth_without_an_output_variable_exits_1(tmp_path, capsys, mode):
    work = _tiny_without_outputs(tmp_path)
    code = main(["synth", str(work), "--mode", mode, "--pop", "4", "--gens", "2"])
    assert code == 1
    assert "no output variable" in capsys.readouterr().err


def test_make_reference_without_an_output_variable_writes_a_readable_trace(tmp_path, capsys):
    work = _tiny_without_outputs(tmp_path)
    code = main(["make-reference", str(work), "--mapping", str(work / "ground_truth.json")])
    assert code == 0
    reference = load_trace(work / "traces" / "reference.csv")
    assert reference.columns == {}
    assert reference.times.tobytes() == load_trace(work / "traces" / "input.csv").times.tobytes()
    # the search then stops at the missing output, not at the trace
    assert main(["synth", str(work), "--mode", "cbc", "--pop", "4", "--gens", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name, shown", [("hold,out", "'hold,out'"),
                                         ("hold&#10;out", "'hold\\nout'")])
def test_an_output_name_a_trace_cannot_read_back_exits_1_before_writing(tmp_path, capsys,
                                                                          name, shown):
    # written, the header `time,hold,out` had 3 cells over rows of 2
    work = tmp_path / "tiny"
    shutil.copytree(REPO / "tests/data/tiny", work)
    desc = work / "modelDescription.xml"
    desc.write_text(desc.read_text().replace('name="hold_out"', f'name="{name}"'))
    reference = work / "traces" / "reference.csv"
    before = reference.read_bytes()
    mapping = str(work / "ground_truth.json")
    out = tmp_path / "out.csv"
    for argv in (["make-reference", str(work), "--mapping", mapping],
                 ["simulate", str(work), "--mapping", mapping, "-o", str(out)]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"error: cannot write column {shown} to a trace: "
                                           f"a column name holds no comma and no line break\n")
    assert reference.read_bytes() == before
    assert not out.exists()


@pytest.mark.parametrize("mode", ["cbc", "cbt"])
def test_synth_on_an_input_trace_without_an_input_column_exits_1(pi_case, tmp_path, capsys,
                                                                    mode):
    # every genome used to score Invalid, and the search ended with exit 2
    # and a report of no simulatable candidate
    work = _pi_copy(pi_case, tmp_path)
    path = work / "traces" / "input.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    column = rows[0].index("measurement")
    path.write_text("".join(",".join(r[:column] + r[column + 1:]) + "\n" for r in rows))
    report = tmp_path / "report.json"
    code = main(["synth", str(work), "--mode", mode, "--pop", "10", "--gens", "2",
                 "--seed", "0", "--report", str(report)])
    assert code == 1
    assert capsys.readouterr().err == "error: input trace lacks column 'measurement'\n"
    assert not report.exists()
