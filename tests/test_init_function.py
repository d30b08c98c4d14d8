"""Constraint C6: the init function pins the states' starts.

limpid's fmi2Initialize stores 0.0 into slots 0x30 and 0x38, its step
function's two states, so each state slot holds only a variable that
starts at 0.0, a variable without a start counting as starting there.
The hostile cases each end as the README says: no pin, or a
ConstructError with exit code 1.
"""

import json
import math
import random
import shutil

import pytest

from construct import check, ga, sim
from construct.check import InvalidStateVariable
from construct.cli import main
from construct.container import load_container
from construct.isolate import AmbiguousInitFunction
from construct.model import apply_assignment

# ff_share (start 0.2) on the state slot 9 (0x38) and cal_intercept on the
# bias slot 12: 0.4 * 0.2 - 0.03 = 0.4 * 0.0 + 0.05, so without the pin it
# reproduces the reference to MSE 5.48e-34
ALTERNATIVE = (6, 0, 1, 9, 8, 2, 11, 7, 12, 10, 13, 14, 43, 3, 4, 15, 16, 5)
INIT = """void fmi2Initialize(long param_1)
{
  *(double *)(param_1 + 0x30) = 0.0;
  *(double *)(param_1 + 0x38) = 0.0;
}
"""


def _limpid(tmp_path, fixtures_dir, init=INIT):
    """A copy of limpid whose init function is init ("" for none)."""
    root = tmp_path / "limpid"
    shutil.copytree(fixtures_dir / "limpid", root)
    source = root / "sources" / "controller.c"
    text = source.read_text()
    assert text.startswith(INIT)
    source.write_text(init + text[len(INIT):])
    return root


def _problem(root):
    return ga.problem_from_container(load_container(root))


def _mapping(tmp_path, genes):
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps({"genes": list(genes)}))
    return str(path)


def test_limpid_state_slots_are_pinned_to_the_init_stores(limpid_case):
    problem = limpid_case["problem"]
    origins = {s.id: s.origin for s in problem.model.slots}
    assert {origins[r]: pin for r, pin in problem.structure.pins.items()} == {
        "0x30": 0.0, "0x38": 0.0}
    names = problem.names
    for slot in problem.state_slots:
        domain = [names[i] for i in problem.compat[slot]]
        assert domain == ["limited_cmd", "trace_mon", "dfilt_state", "istate"]
        assert all(check.start_of(problem.vars.variables[i]) == 0.0
                   for i in problem.compat[slot])


def test_containers_without_an_init_function_have_no_pins(pi_case, pid_case, tiny_case):
    for case in (pi_case, pid_case, tiny_case):
        assert case["problem"].structure.pins == {}
        assert all(slot.init is None for slot in case["problem"].model.slots)


def test_every_ground_truth_meets_c6(all_cases, tiny_case):
    for case in (*all_cases.values(), tiny_case):
        assert case["problem"].validate(case["ground_truth"]).valid


def test_the_pin_rules_out_limpids_alternative(limpid_case, tmp_path, capsys):
    problem = limpid_case["problem"]
    report = problem.validate(ALTERNATIVE)
    assert report.violations == (
        ("C6", "slot 9 (0x38) starts at 0.0 in the init function, 'ff_share' starts at 0.2"),)
    assert not problem.constructible(ALTERNATIVE)
    assert not problem.fits(ALTERNATIVE)
    with pytest.raises(InvalidStateVariable, match="starts at 0.0 in the init function"):
        sim.causalize(problem.bind(ALTERNATIVE))
    # the name-level model sees the same pin
    with pytest.raises(InvalidStateVariable, match="starts at 0.0 in the init function"):
        sim.causalize(apply_assignment(problem.model, ALTERNATIVE, problem.vars))
    assert problem.fitness_of(ALTERNATIVE) == sim.INVALID
    root, mapping = str(limpid_case["root"]), _mapping(tmp_path, ALTERNATIVE)
    assert main(["validate", root, "--mapping", mapping]) == 2
    assert capsys.readouterr().out == (
        "C6: slot 9 (0x38) starts at 0.0 in the init function, 'ff_share' starts at 0.2\n")
    assert main(["simulate", root, "--mapping", mapping, "-o", str(tmp_path / "o.csv")]) == 1
    assert not (tmp_path / "o.csv").exists()


def test_without_the_init_function_the_alternative_is_output_equivalent(
        fixtures_dir, tmp_path, capsys):
    root = _limpid(tmp_path, fixtures_dir, init="")
    problem = _problem(root)
    assert problem.structure.pins == {}
    assert [len(problem.compat[s]) for s in problem.state_slots] == [13, 13]
    assert problem.validate(ALTERNATIVE).valid
    assert problem.fitness_of(ALTERNATIVE).mse < 1e-30
    assert main(["validate", str(root), "--mapping", _mapping(tmp_path, ALTERNATIVE)]) == 0
    assert capsys.readouterr().out == "valid: constraints C0-C6 all hold\n"


def test_two_candidate_init_functions_are_refused(fixtures_dir, tmp_path, capsys):
    reset = "void fmi2Reset(long p)\n{\n  *(double *)(p + 0x38) = 0.2;\n}\n"
    root = _limpid(tmp_path, fixtures_dir, init=INIT + reset)
    with pytest.raises(AmbiguousInitFunction) as exc:
        _problem(root)
    assert exc.value.candidates == ("fmi2Initialize", "fmi2Reset")
    mapping = str(root / "ground_truth.json")
    assert main(["validate", str(root), "--mapping", mapping]) == 1
    assert capsys.readouterr().err == (
        "error: multiple init-function candidates: fmi2Initialize, fmi2Reset\n")


@pytest.mark.parametrize("store", ["*(double *)(param_1 + 0x28)", "param_1", "1.0 + 1.0"])
def test_a_function_storing_a_non_literal_is_no_init_function(fixtures_dir, tmp_path, store):
    init = INIT.replace("0x38) = 0.0", f"0x38) = {store}")
    problem = _problem(_limpid(tmp_path, fixtures_dir, init=init))
    assert problem.structure.pins == {}
    assert all(slot.init is None for slot in problem.model.slots)


def test_stores_to_slots_that_are_no_state_are_ignored(fixtures_dir, tmp_path, limpid_case):
    # 0x400: no slot of the step function; 0x28: an algebraic slot
    init = INIT.replace("}", "  *(double *)(param_1 + 0x400) = 1.0;\n"
                             "  *(double *)(param_1 + 0x28) = 0.7;\n}")
    problem = _problem(_limpid(tmp_path, fixtures_dir, init=init))
    assert problem.structure.pins == limpid_case["problem"].structure.pins
    assert problem.compat == limpid_case["problem"].compat
    slot = next(s for s in problem.model.slots if s.origin == "0x28")
    assert slot.init == 0.7
    assert problem.validate(limpid_case["ground_truth"]).valid


def test_the_last_store_to_a_slot_counts(fixtures_dir, tmp_path, limpid_case):
    truth = limpid_case["ground_truth"]
    twice = INIT.replace("0x38) = 0.0;", "0x38) = 0.2;\n  *(double *)(param_1 + 0x38) = 0.0;")
    problem = _problem(_limpid(tmp_path / "a", fixtures_dir, init=twice))
    assert problem.structure.pins == limpid_case["problem"].structure.pins
    assert problem.validate(truth).valid
    swapped = INIT.replace("0x38) = 0.0;", "0x38) = 0.0;\n  *(double *)(param_1 + 0x38) = -0.2;")
    problem = _problem(_limpid(tmp_path / "b", fixtures_dir, init=swapped))
    assert sorted(problem.structure.pins.values()) == [-0.2, 0.0]
    assert problem.validate(truth).violations == (
        ("C6", "slot 9 (0x38) starts at -0.2 in the init function, 'istate' starts at 0.0"),)


def test_a_non_finite_init_store_leaves_no_chromosome(fixtures_dir, tmp_path, capsys):
    root = _limpid(tmp_path, fixtures_dir, init=INIT.replace("0x30) = 0.0", "0x30) = 1e400"))
    problem = _problem(root)
    slot = next(s for s in problem.model.slots if s.origin == "0x30")
    assert problem.structure.pins[slot.id] == math.inf
    assert problem.compat[slot.id] == ()
    with pytest.raises(ga.ConstraintsUnsatisfiable):
        ga.generate_individual("cbc", problem, random.Random(0))
    assert main(["synth", str(root), "--mode", "cbc", "--pop", "4", "--gens", "1"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: could not construct a valid chromosome")
    assert main(["validate", str(root), "--mapping", str(root / "ground_truth.json")]) == 2
    assert capsys.readouterr().out == (
        "C6: slot 7 (0x30) starts at inf in the init function, 'dfilt_state' starts at 0.0\n")


def test_limpid_without_rules_translates_and_searches_as_the_fixture(
        fixtures_dir, tmp_path):
    # detection finds what rules.toml names: fmi2DoStep, not fmi2Initialize
    root = _limpid(tmp_path, fixtures_dir)
    (root / "rules.toml").unlink()
    golden = fixtures_dir.parent / "tests" / "golden" / "seed0" / "limpid.skeleton.mo"
    assert main(["translate", str(root), "--out", str(tmp_path / "s.mo")]) == 0
    assert (tmp_path / "s.mo").read_bytes() == golden.read_bytes()
    reports = []
    for name, container in (("copy", root), ("fixture", fixtures_dir / "limpid")):
        report = tmp_path / f"{name}.json"
        assert main(["synth", str(container), "--mode", "cbc", "--pop", "20",
                     "--gens", "3", "--seed", "0", "--report", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
