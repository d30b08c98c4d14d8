import json

from construct import mexpr
from construct.check import classify_variables
from construct.container import load_container

EXPECTED = {
    "pi": {"equations": 8, "variables": 18, "slots": 10, "symbols": 23},
    "pid": {"equations": 6, "variables": 37, "slots": 10, "symbols": 20},
    "limpid": {"equations": 13, "variables": 80, "slots": 18, "symbols": 39},
}


def test_counts_match_expectations(all_cases):
    for name, case in all_cases.items():
        problem = case["problem"]
        want = EXPECTED[name]
        assert len(problem.model.equations) == want["equations"], name
        assert len(problem.vars.variables) == want["variables"], name
        assert problem.num_slots == want["slots"], name
        assert len(case["ground_truth"]) == want["slots"], name


def test_symbol_counts_before_elimination(all_cases):
    # slots plus eliminated temporaries reproduce the pre-elimination
    # symbol inventory
    from construct.cparse import parse_c_unit
    from construct.isolate import RuleConfig, isolate_step_function
    for name, case in all_cases.items():
        cfg = RuleConfig(step_function_name="fmi2DoStep") if name == "limpid" \
            else RuleConfig()
        unit = parse_c_unit(dict(case["container"].sources)["controller.c"])
        body = isolate_step_function(unit, cfg)
        n_symbols = case["problem"].num_slots + len(body.locals_)
        assert n_symbols == EXPECTED[name]["symbols"], name


def test_unknown_count_equals_equation_count(all_cases):
    for name, case in all_cases.items():
        cls = classify_variables(case["problem"].vars)
        assert len(cls.unknowns) == EXPECTED[name]["equations"], name


def test_type_mixes(pi_case, pid_case, limpid_case):
    pi_types = {v.vtype for v in pi_case["problem"].vars.variables}
    assert pi_types == {"Real"}
    for case in (pid_case, limpid_case):
        types = {v.vtype for v in case["problem"].vars.variables}
        assert types == {"Real", "Integer", "Boolean"}


def test_pid_has_boolean_slot(pid_case):
    inferred = {s.inferred_type for s in pid_case["problem"].model.slots}
    assert "Boolean" in inferred


def test_limpid_has_clamp(limpid_case):
    found = False
    for _, rhs in limpid_case["problem"].model.equations:
        for node in mexpr.iter_nodes(rhs):
            if isinstance(node, mexpr.Call) and node.fn == "min":
                inner = node.args[0]
                found = found or isinstance(inner, mexpr.Call) and inner.fn == "max"
    assert found, "canonical min(max(..)) clamp missing"


def test_normalization_rules_fired_in_pi(pi_case):
    # the authored source multiplies by 0.5; division must appear instead
    divs = [n for _, rhs in pi_case["problem"].model.equations
            for n in mexpr.iter_nodes(rhs)
            if isinstance(n, mexpr.Binary) and n.op == "div"]
    assert any(n.right == mexpr.Const(2.0) for n in divs)


def test_ground_truth_round_trips(all_cases):
    for case in all_cases.values():
        data = json.loads((case["root"] / "ground_truth.json").read_text())
        assert tuple(data["genes"]) == case["ground_truth"]


def test_boolean_input_columns_are_binary(pid_case, limpid_case):
    for case, col in ((pid_case, "enabled"), (limpid_case, "drv_enable")):
        values = set(case["container"].input_trace.columns[col])
        assert values == {0.0, 1.0}


def test_enable_gate_changes_output(pid_case):
    # with the gate off the actuator pins to the fallback level
    problem = pid_case["problem"]
    reference = pid_case["container"].reference_trace
    times = pid_case["container"].input_trace.times
    enabled = pid_case["container"].input_trace.columns["enabled"]
    actuator = reference.columns["actuator"]
    off = [a for a, e in zip(actuator, enabled) if e == 0.0]
    assert off and all(a == -0.25 for a in off)

