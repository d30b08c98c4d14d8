import json
import shutil

import pytest

from construct.cli import main
from construct.container import load_trace


def test_space_outputs(capsys):
    assert main(["space", "12", "12"]) == 0
    assert capsys.readouterr().out.strip() == "479001600"
    assert main(["space", "12", "13"]) == 0
    assert capsys.readouterr().out.strip() == "6227020800"


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
    assert trace.times == reference.times
    assert trace.columns == reference.columns


def test_make_reference_regenerates_byte_identical(pi_case, tmp_path):
    import shutil
    work = tmp_path / "pi"
    shutil.copytree(pi_case["root"], work)
    before = (work / "traces" / "reference.csv").read_bytes()
    code = main(["make-reference", str(work),
                 "--mapping", str(work / "ground_truth.json")])
    assert code == 0
    assert (work / "traces" / "reference.csv").read_bytes() == before


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


def test_synth_early_stop_shortens_report(pi_case, tmp_path):
    # the search stops once the best MSE drops under the threshold
    report = tmp_path / "r.json"
    code = main(["synth", str(pi_case["root"]), "--mode", "cbc",
                 "--pop", "50", "--gens", "10", "--seed", "7",
                 "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["best_mse"] < 1e-12
    assert len(data["per_generation"]) <= 10


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
    for flag in ("--mode", "--pop", "--gens", "--seed", "--elitism",
                 "--tournament", "--no-early-stop", "--cbt-repair",
                 "--report", "--curves"):
        assert flag in text


def test_unknown_flag_is_hard_error(pi_case, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", str(pi_case["root"]), "--mode", "cbc", "--frobnicate"])
    assert exc.value.code == 2
