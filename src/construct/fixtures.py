"""Authored controller cases: pi, pid, and limpid containers.

Each fixture is a complete on-disk container: a variable description
with realistic distractor entries, synthetic decompiler-style C for the
step function, an input trace, a reference trace produced by simulating
the ground-truth mapping, and the ground truth itself for regression
use.

Authoring rules that keep every constraint-satisfying mapping
simulatable (the search must explore safely):

  * gains and time constants appear as literal constants, the way an
    exporting tool bakes non-tunable parameters into generated code;
    division only ever has a literal divisor
  * description parameters enter equations only in additive terms or
    conditional branches, never as multiplicative factors
  * state updates are the last statements of the step body, so every
    algebraic read sees the pre-update state
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

from construct import ga
from construct.container import (
    ContainerModel, Trace, VariableTable, load_container, write_trace,
)

FIXTURE_NAMES = ("pi", "pid", "limpid")

TRACE_STEP = 0.01
TRACE_SAMPLES = 201  # 0.0 .. 2.0


@dataclass(frozen=True)
class Fixture:
    name: str
    root: Path
    ground_truth: tuple
    n_equations: int
    n_variables: int
    n_slots: int
    n_symbols_pre_elimination: int
    type_mix: str  # "real" or "mixed"


# ---------------------------------------------------------------------------
# Variable tables: (name, vtype, causality, start)
# ---------------------------------------------------------------------------

_PI_VARS = [
    ("set_point", "Real", "input", None),
    ("measurement", "Real", "input", None),
    ("command", "Real", "output", None),
    ("track_error", "Real", "local", 0.15),
    ("integ_state", "Real", "local", 0.0),
    ("prop_part", "Real", "local", -0.1),
    ("integ_part", "Real", "local", 0.2),
    ("pre_sat", "Real", "local", 0.05),
    ("half_cmd", "Real", "local", -0.3),
    ("drift_comp", "Real", "local", 0.25),
    ("loop_gain", "Real", "parameter", 1.25),
    ("integ_time", "Real", "parameter", 2.0),
    ("out_bias", "Real", "parameter", 0.1),
    ("rate_limit", "Real", "parameter", 4.0),
    ("filt_pole", "Real", "parameter", 0.35),
    ("meas_scale", "Real", "parameter", 1.0),
    ("cmd_floor", "Real", "parameter", -2.5),
    ("cmd_ceil", "Real", "parameter", 2.5),
]

_PID_VARS = [
    ("cmd_ref", "Real", "input", None),
    ("sensed", "Real", "input", None),
    ("enabled", "Boolean", "input", None),
    ("actuator", "Real", "output", None),
    ("pid_err", "Real", "local", 0.4),
    ("filt_state", "Real", "local", 0.0),
    ("d_term", "Real", "local", -0.2),
    ("acc_state", "Real", "local", 0.0),
    ("pid_sum", "Real", "local", 0.1),
    ("fallback_level", "Real", "parameter", -0.25),
    ("kp_backup", "Real", "parameter", 2.0),
    ("ki_backup", "Real", "parameter", 0.5),
    ("kd_backup", "Real", "parameter", 6.0),
    ("filt_tau", "Real", "parameter", 0.25),
    ("out_min", "Real", "parameter", -3.0),
    ("out_max", "Real", "parameter", 3.0),
    ("ref_weight", "Real", "parameter", 1.0),
    ("meas_weight", "Real", "parameter", 0.9),
    ("warmup_time", "Real", "parameter", 0.5),
    ("deadband", "Real", "parameter", 0.02),
    ("trim_offset", "Real", "parameter", 0.05),
    ("filter_order", "Integer", "parameter", 2),
    ("sample_div", "Integer", "parameter", 4),
    ("mode_select", "Integer", "parameter", 1),
    ("unit_code", "Integer", "parameter", 7),
    ("chan_index", "Integer", "parameter", 3),
    ("retry_count", "Integer", "parameter", 2),
    ("log_level", "Integer", "parameter", 1),
    ("fw_version", "Integer", "parameter", 42),
    ("use_filter", "Boolean", "parameter", True),
    ("clamp_enable", "Boolean", "parameter", False),
    ("invert_sign", "Boolean", "parameter", False),
    ("track_mode", "Boolean", "parameter", True),
    ("safe_start", "Boolean", "parameter", True),
    ("diag_mode", "Boolean", "parameter", False),
    ("hold_output", "Boolean", "parameter", False),
    ("wind_guard", "Boolean", "parameter", True),
]

_LIMPID_REAL_PARAMS = [
    ("span_bias", 0.05), ("kp_shadow", 1.75), ("ki_shadow", 0.8),
    ("kd_shadow", 3.5), ("ff_gain_cal", 0.6), ("aw_gain_cal", 0.8),
    ("dfilt_tau", 0.2), ("limit_high", 1.5), ("limit_low", -1.5),
    ("ref_scale", 1.0), ("meas_offset", 0.01), ("ff_offset", 0.02),
    ("rate_up", 2.0), ("rate_down", -2.0), ("stall_guard", 0.3),
    ("temp_coeff", 0.004), ("supply_nominal", 12.0), ("load_estimate", 0.7),
    ("margin_factor", 1.1), ("notch_freq", 35.0), ("notch_width", 4.0),
    ("boost_level", 0.25), ("decay_rate", 0.6), ("idle_command", 0.05),
    ("test_amplitude", 0.5), ("cal_slope", 1.02), ("cal_intercept", -0.03),
]

_LIMPID_INT_PARAMS = [
    ("ctrl_mode", 2), ("axis_index", 1), ("pwm_divider", 8),
    ("loop_decimation", 4), ("fault_limit", 3), ("boot_count", 17),
    ("map_revision", 5), ("sensor_id", 12), ("bus_address", 33),
    ("watchdog_ticks", 250), ("startup_delay", 40), ("filter_taps", 7),
    ("log_verbosity", 1), ("cal_table_rows", 16), ("cal_table_cols", 4),
    ("fw_major", 3), ("fw_minor", 11), ("proto_version", 2),
]

_LIMPID_BOOL_PARAMS = [
    ("enable_ff", True), ("enable_aw", True), ("strict_limits", True),
    ("invert_output", False), ("bypass_filter", False), ("latch_faults", True),
    ("auto_zero", False), ("brake_assist", False), ("soft_start", True),
    ("dual_rate", False), ("mirror_axis", False), ("test_hook", False),
    ("telemetry_on", True), ("save_on_stop", False), ("legacy_map", False),
    ("fast_boot", True), ("deep_diag", False), ("spare_flag", False),
]

_LIMPID_VARS = (
    [
        ("ref_cmd", "Real", "input", None),
        ("plant_meas", "Real", "input", None),
        ("ff_signal", "Real", "input", None),
        ("drv_enable", "Boolean", "input", None),
        ("limited_cmd", "Real", "output", None),
        ("trace_mon", "Real", "output", None),
        ("lim_err", "Real", "local", 0.3),
        ("dfilt_state", "Real", "local", 0.0),
        ("istate", "Real", "local", 0.0),
        ("p_share", "Real", "local", -0.15),
        ("ff_share", "Real", "local", 0.2),
        ("d_share", "Real", "local", 0.05),
        ("i_share", "Real", "local", -0.1),
        ("sum_core", "Real", "local", 0.12),
        ("raw_total", "Real", "local", -0.08),
        ("excess_amt", "Real", "local", 0.18),
        ("aw_term", "Real", "local", -0.22),
    ]
    + [(n, "Real", "parameter", v) for n, v in _LIMPID_REAL_PARAMS]
    + [(n, "Integer", "parameter", v) for n, v in _LIMPID_INT_PARAMS]
    + [(n, "Boolean", "parameter", v) for n, v in _LIMPID_BOOL_PARAMS]
)


# ---------------------------------------------------------------------------
# Decompiled C sources
# ---------------------------------------------------------------------------

_PI_SOURCE = """\
void fmu_step(long param_1, double param_2)
{
  *(double *)(param_1 + 0x20) =
      -(*(double *)(param_1 + 0x18) - *(double *)(param_1 + 0x10));
  double dVar1 = *(double *)(param_1 + 0x20);
  double dVar2 = dVar1 * 1.25;
  *(double *)(param_1 + 0x30) = dVar2;
  double dVar3 = *(double *)(param_1 + 0x28);
  double dVar4 = dVar3 * 0.8;
  *(double *)(param_1 + 0x38) = dVar4;
  double dVar5 = *(double *)(param_1 + 0x30);
  double dVar6 = *(double *)(param_1 + 0x38);
  *(double *)(param_1 + 0x40) = dVar5 + dVar6;
  double dVar7 = *(double *)(param_1 + 0x40) * 0.5;
  *(double *)(param_1 + 0x48) = dVar7;
  double dVar8 = *(double *)(param_1 + 0x20) * 0.1;
  double dVar9 = *(double *)(param_1 + 0x48);
  *(double *)(param_1 + 0x50) = -(dVar8 - dVar9);
  double dVar10 = *(double *)(param_1 + 0x50) * 0.05;
  double dVar11 = *(double *)(param_1 + 0x48);
  *(double *)(param_1 + 0x58) = dVar11 + dVar10;
  double dVar12 = *(double *)(param_1 + 0x20) * 0.5;
  double dVar13 = param_2 * dVar12;
  *(double *)(param_1 + 0x28) = *(double *)(param_1 + 0x28) + dVar13;
}
"""

_PI_SLOT_VARS = {
    "0x20": "track_error", "0x10": "set_point", "0x18": "measurement",
    "0x30": "prop_part", "0x28": "integ_state", "0x38": "integ_part",
    "0x40": "pre_sat", "0x48": "half_cmd", "0x50": "drift_comp",
    "0x58": "command",
}

_PID_SOURCE = """\
void fmi2DoStep(long param_1, double param_2)
{
  double dVar1 = *(double *)(param_1 + 0x10) - *(double *)(param_1 + 0x18);
  *(double *)(param_1 + 0x20) = dVar1;
  double dVar2 = *(double *)(param_1 + 0x20) - *(double *)(param_1 + 0x28);
  double dVar3 = dVar2 * 6.0;
  *(double *)(param_1 + 0x30) = dVar3;
  double dVar4 = *(double *)(param_1 + 0x20) * 2.0;
  double dVar5 = *(double *)(param_1 + 0x38) * 0.5;
  double dVar6 = dVar4 + dVar5;
  *(double *)(param_1 + 0x40) = dVar6 + *(double *)(param_1 + 0x30);
  if (*(bool *)(param_1 + 0x48)) {
    *(double *)(param_1 + 0x50) = *(double *)(param_1 + 0x40);
  } else {
    *(double *)(param_1 + 0x50) = *(double *)(param_1 + 0x58);
  }
  double dVar7 = *(double *)(param_1 + 0x20) - *(double *)(param_1 + 0x28);
  double dVar8 = dVar7 * 4.0;
  *(double *)(param_1 + 0x28) = *(double *)(param_1 + 0x28) + param_2 * dVar8;
  double dVar9 = *(double *)(param_1 + 0x20) * 0.625;
  double dVar10 = param_2 * dVar9;
  *(double *)(param_1 + 0x38) = *(double *)(param_1 + 0x38) + dVar10;
}

int fmi2GetVersion(int param_1)
{
  return param_1;
}
"""

_PID_SLOT_VARS = {
    "0x10": "cmd_ref", "0x18": "sensed", "0x20": "pid_err",
    "0x28": "filt_state", "0x30": "d_term", "0x38": "acc_state",
    "0x40": "pid_sum", "0x48": "enabled", "0x50": "actuator",
    "0x58": "fallback_level",
}

_LIMPID_SOURCE = """\
void fmi2Initialize(long param_1)
{
  *(double *)(param_1 + 0x30) = 0.0;
  *(double *)(param_1 + 0x38) = 0.0;
}

void fmi2DoStep(long param_1, double param_2)
{
  double dVar1 = *(double *)(param_1 + 0x18);
  double dVar2 = *(double *)(param_1 + 0x10) - dVar1;
  *(double *)(param_1 + 0x28) = dVar2;
  double dVar3 = *(double *)(param_1 + 0x28);
  double dVar4 = dVar3 * 1.75;
  *(double *)(param_1 + 0x40) = dVar4;
  double dVar5 = *(double *)(param_1 + 0x20);
  double dVar6 = dVar5 * 0.6;
  *(double *)(param_1 + 0x48) = dVar6;
  double dVar7 = *(double *)(param_1 + 0x28) - *(double *)(param_1 + 0x30);
  double dVar8 = dVar7 * 3.5;
  *(double *)(param_1 + 0x50) = dVar8;
  double dVar9 = *(double *)(param_1 + 0x38);
  double dVar10 = dVar9 * 0.4;
  *(double *)(param_1 + 0x58) = dVar10;
  double dVar11 = *(double *)(param_1 + 0x40) + *(double *)(param_1 + 0x58);
  *(double *)(param_1 + 0x60) = dVar11 + *(double *)(param_1 + 0x50);
  double dVar12 = *(double *)(param_1 + 0x60) + *(double *)(param_1 + 0x48);
  *(double *)(param_1 + 0x68) = dVar12 + *(double *)(param_1 + 0x98);
  if (*(bool *)(param_1 + 0x70)) {
    *(double *)(param_1 + 0x78) =
        fmax(fmin(*(double *)(param_1 + 0x68), 1.5), -1.5);
  } else {
    *(double *)(param_1 + 0x78) = 0.0;
  }
  double dVar13 = *(double *)(param_1 + 0x68) - *(double *)(param_1 + 0x78);
  *(double *)(param_1 + 0x80) = dVar13;
  double dVar14 = *(double *)(param_1 + 0x80) * 0.8;
  *(double *)(param_1 + 0x88) = -dVar14;
  double dVar15 = *(double *)(param_1 + 0x78) * 0.5;
  *(double *)(param_1 + 0x90) = dVar15;
  double dVar16 = *(double *)(param_1 + 0x28) * 0.8;
  double dVar17 = *(double *)(param_1 + 0x88) * 0.5;
  double dVar18 = dVar16 + dVar17;
  double dVar19 = param_2 * dVar18;
  *(double *)(param_1 + 0x38) = *(double *)(param_1 + 0x38) + dVar19;
  double dVar20 = *(double *)(param_1 + 0x28) - *(double *)(param_1 + 0x30);
  double dVar21 = param_2 * (dVar20 * 5.0);
  *(double *)(param_1 + 0x30) = *(double *)(param_1 + 0x30) + dVar21;
}
"""

_LIMPID_SLOT_VARS = {
    "0x18": "plant_meas", "0x10": "ref_cmd", "0x28": "lim_err",
    "0x40": "p_share", "0x20": "ff_signal", "0x48": "ff_share",
    "0x30": "dfilt_state", "0x50": "d_share", "0x38": "istate",
    "0x58": "i_share", "0x60": "sum_core", "0x68": "raw_total",
    "0x98": "span_bias", "0x70": "drv_enable", "0x78": "limited_cmd",
    "0x80": "excess_amt", "0x88": "aw_term", "0x90": "trace_mon",
}

_LIMPID_RULES = """\
# normalization settings for this container
step_function = "fmi2DoStep"
step_param = "param_2"
"""


# ---------------------------------------------------------------------------
# Input signals (piecewise linear, bit-stable across platforms)
# ---------------------------------------------------------------------------

def _ramp(t: float, t0: float, t1: float, v0: float, v1: float) -> float:
    if t <= t0:
        return v0
    if t >= t1:
        return v1
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _pi_inputs(t: float) -> dict:
    return {
        "set_point": 0.0 if t < 0.25 else 1.0,
        "measurement": _ramp(t, 0.0, 1.0, 0.0, 0.6) + _ramp(t, 1.0, 2.0, 0.0, 0.2),
    }


def _pid_inputs(t: float) -> dict:
    return {
        "cmd_ref": _ramp(t, 0.1, 0.6, 0.0, 1.2) - _ramp(t, 1.2, 1.8, 0.0, 0.7),
        "sensed": _ramp(t, 0.0, 2.0, 0.0, 0.8),
        "enabled": 1.0 if (t < 0.8 or t >= 1.4) else 0.0,
    }


def _limpid_inputs(t: float) -> dict:
    return {
        "ref_cmd": _ramp(t, 0.05, 0.45, 0.0, 1.6) - _ramp(t, 1.0, 1.5, 0.0, 2.4),
        "plant_meas": _ramp(t, 0.0, 2.0, 0.0, 0.5),
        "ff_signal": _ramp(t, 0.0, 1.0, 0.0, 0.4) - _ramp(t, 1.0, 2.0, 0.0, 0.4),
        "drv_enable": 1.0 if (t < 1.1 or t >= 1.6) else 0.0,
    }


_SPECS = {
    "pi": {
        "vars": _PI_VARS,
        "source": _PI_SOURCE,
        "slot_vars": _PI_SLOT_VARS,
        "inputs": _pi_inputs,
        "rules": None,
        "equations": 8,
        "symbols": 23,
        "type_mix": "real",
        "blurb": "proportional-integral controller, all signals Real",
    },
    "pid": {
        "vars": _PID_VARS,
        "source": _PID_SOURCE,
        "slot_vars": _PID_SLOT_VARS,
        "inputs": _pid_inputs,
        "rules": None,
        "equations": 6,
        "symbols": 20,
        "type_mix": "mixed",
        "blurb": "PID with derivative filter and a Boolean enable gate",
    },
    "limpid": {
        "vars": _LIMPID_VARS,
        "source": _LIMPID_SOURCE,
        "slot_vars": _LIMPID_SLOT_VARS,
        "inputs": _limpid_inputs,
        "rules": _LIMPID_RULES,
        "equations": 13,
        "symbols": 39,
        "type_mix": "mixed",
        "blurb": "limited PID with output clamp and anti-windup feedback",
    },
}


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _fmt_start_attr(vtype: str, start) -> str:
    if start is None:
        return ""
    if vtype == "Boolean":
        text = "true" if start else "false"
    elif vtype == "Real":
        text = repr(float(start))
    else:
        text = str(start)
    return f' start="{text}"'


def _description_xml(variables, model_name: str) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<fmiModelDescription fmiVersion="2.0" modelName="{model_name}">',
        "  <ModelVariables>",
    ]
    for i, (name, vtype, causality, start) in enumerate(variables):
        vr = 8 * i + 8
        lines.append(
            f'    <ScalarVariable name="{name}" valueReference="{vr}" '
            f'causality="{causality}">'
            f"<{vtype}{_fmt_start_attr(vtype, start)}/></ScalarVariable>")
    lines.extend(["  </ModelVariables>", "</fmiModelDescription>", ""])
    return "\n".join(lines)


def _input_trace(signal_fn) -> Trace:
    times = [k * TRACE_STEP for k in range(TRACE_SAMPLES)]
    names = list(signal_fn(0.0))
    columns = {n: [] for n in names}
    for t in times:
        row = signal_fn(t)
        for n in names:
            columns[n].append(row[n])
    return Trace(tuple(times), {n: tuple(v) for n, v in columns.items()})


def ground_truth_genes(problem: ga.GaProblem, slot_vars: dict) -> tuple:
    index = problem.vars.index
    return tuple(index[slot_vars[slot.origin]] for slot in problem.model.slots)


def _fixture_readme(name: str, spec: dict, fixture: Fixture) -> str:
    return f"""\
# {name} fixture

Synthetic decompiled controller case: {spec["blurb"]}.

Counts: {fixture.n_equations} equations, {fixture.n_variables} variables,
{fixture.n_slots} symbol slots after temporary elimination
({fixture.n_symbols_pre_elimination} symbols before it). Unknown variables
(outputs plus locals) match the equation count, so exactly one balanced
assignment family exists.

Gains and time constants are baked into the code as literal constants,
as an exporting tool does for non-tunable parameters; the description
file's parameters beyond those used are realistic distractors. The
ground-truth symbol-to-variable mapping is in `ground_truth.json`
(`{{"genes": [...]}}`, position i = variable index for slot i), and
`traces/reference.csv` is the simulation of that mapping over
`traces/input.csv`.
"""


def build_fixture(name: str, dest: Path | str) -> Fixture:
    """Materialize one fixture container under dest and verify it."""
    if name not in _SPECS:
        raise ValueError(f"unknown fixture {name!r}, expected one of {FIXTURE_NAMES}")
    spec = _SPECS[name]
    root = Path(dest)
    root.mkdir(parents=True, exist_ok=True)
    (root / "sources").mkdir(exist_ok=True)
    (root / "traces").mkdir(exist_ok=True)

    (root / "modelDescription.xml").write_text(
        _description_xml(spec["vars"], f"{name}_controller"))
    (root / "sources" / "controller.c").write_text(spec["source"])
    if spec["rules"]:
        (root / "rules.toml").write_text(spec["rules"])
    write_trace(_input_trace(spec["inputs"]), root / "traces" / "input.csv")

    partial = load_container(root)
    problem = ga.problem_from_container(partial)
    genes = ground_truth_genes(problem, spec["slot_vars"])
    write_reference(root, partial, problem, genes)

    import json
    (root / "ground_truth.json").write_text(
        json.dumps({"genes": list(genes)}, indent=2) + "\n")

    fixture = Fixture(
        name=name, root=root, ground_truth=genes,
        n_equations=len(problem.model.equations),
        n_variables=len(problem.vars),
        n_slots=problem.num_slots,
        n_symbols_pre_elimination=spec["symbols"],
        type_mix=spec["type_mix"],
    )
    (root / "README.md").write_text(_fixture_readme(name, spec, fixture))
    validate_fixture(fixture)
    return fixture


def write_reference(root: Path, cm: ContainerModel, problem: ga.GaProblem,
                    genes) -> None:
    """Simulate the ground truth over the input trace and write
    traces/reference.csv."""
    write_trace(problem.simulate_outputs(genes, cm.input_trace),
                root / "traces" / "reference.csv")


def validate_fixture(fixture: Fixture) -> None:
    """Assert the invariants every fixture must hold."""
    spec = _SPECS[fixture.name]
    cm = load_container(fixture.root)
    problem = ga.problem_from_container(cm)
    cls = problem.classification

    assert len(problem.model.equations) == spec["equations"], fixture.name
    assert len(problem.vars) == len(spec["vars"]), fixture.name
    assert problem.num_slots <= len(problem.vars), fixture.name
    assert problem.num_slots == len(spec["slot_vars"]), fixture.name
    # unknowns (outputs + locals) exactly match the equation count
    assert len(cls.unknowns) == spec["equations"], fixture.name

    report = problem.validate(fixture.ground_truth)
    assert report.valid, f"{fixture.name}: ground truth invalid: {report.summary()}"
    fit = problem.fitness_of(fixture.ground_truth)
    assert fit.is_finite and fit.mse < 1e-12, \
        f"{fixture.name}: ground truth fitness {fit}"
    if spec["type_mix"] == "mixed":
        vtypes = {v.vtype for v in problem.vars.variables}
        assert "Boolean" in vtypes and len(vtypes) > 1, fixture.name


def build_all(dest_root: Path | str) -> list:
    dest_root = Path(dest_root)
    return [build_fixture(name, dest_root / name) for name in FIXTURE_NAMES]


# ---------------------------------------------------------------------------
# Miniature instance for oracle tests (3 slots, 3 variables, 1 equation)
# ---------------------------------------------------------------------------

_TINY_VARS = [
    ("hold_out", "Real", "output", None),
    ("feed_in", "Real", "input", None),
    ("pass_flag", "Boolean", "parameter", True),
]

_TINY_SOURCE = """\
void step(long param_1, double param_2)
{
  *(double *)(param_1 + 0x10) =
      *(bool *)(param_1 + 0x20) ? *(double *)(param_1 + 0x18) : 0.0;
}
"""

_TINY_SLOT_VARS = {"0x10": "hold_out", "0x20": "pass_flag", "0x18": "feed_in"}


def _tiny_inputs(t: float) -> dict:
    return {"feed_in": 0.5 + _ramp(t, 0.0, 2.0, 0.0, 1.0)}


def build_tiny_fixture(dest: Path | str) -> tuple:
    """Build the miniature container; returns (root, ground truth genes)."""
    root = Path(dest)
    root.mkdir(parents=True, exist_ok=True)
    (root / "sources").mkdir(exist_ok=True)
    (root / "traces").mkdir(exist_ok=True)
    (root / "modelDescription.xml").write_text(
        _description_xml(_TINY_VARS, "tiny_case"))
    (root / "sources" / "controller.c").write_text(_TINY_SOURCE)
    write_trace(_input_trace(_tiny_inputs), root / "traces" / "input.csv")
    partial = load_container(root)
    problem = ga.problem_from_container(partial)
    genes = ground_truth_genes(problem, _TINY_SLOT_VARS)
    write_reference(root, partial, problem, genes)
    return root, genes


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    dest = Path(args[0]) if args else Path("fixtures")
    for fixture in build_all(dest):
        print(f"built {fixture.name}: {fixture.n_equations} equations, "
              f"{fixture.n_variables} variables, {fixture.n_slots} slots "
              f"-> {fixture.root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
