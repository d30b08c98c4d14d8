import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import construct
from construct import mexpr
from construct.container import VariableDescriptor, VariableTable
from construct.cparse import parse_c_unit
from construct.isolate import RuleConfig, isolate_step_function, normalize_primitives
from construct.model import apply_assignment, emit_modelica
from construct.translate import (
    EquationModel, ReassignedTemporary, SymbolSlot, UnboundIdentifier,
    UnsupportedControlFlow, eliminate_temporaries, translate_to_equations,
)
from interp import exec_stmts


def make_body(source, normalize=True):
    body = isolate_step_function(parse_c_unit(source))
    if normalize:
        body = normalize_primitives(body)
    return body


def pipeline(source):
    return translate_to_equations(eliminate_temporaries(make_body(source)))


# ---------------------------------------------------------------------------
# Temporary elimination
# ---------------------------------------------------------------------------

def test_single_use_temp_inlined():
    body = make_body(
        "void f(long p, double h) { double t = *(double *)(p + 0x8) * 3.0;"
        " *(double *)(p + 0x10) = t + 1.0; }")
    out = eliminate_temporaries(body)
    assert len(out.statements) == 1
    assert "t" not in out.locals_
    m = translate_to_equations(out)
    assert len(m.equations) == 1


def test_reassigned_temp_rejected():
    body = make_body(
        "void f(long p, double h) { double t = 1.0; t = 2.0;"
        " *(double *)(p + 0x8) = t; }")
    with pytest.raises(ReassignedTemporary):
        eliminate_temporaries(body)


def test_no_locals_identity():
    body = make_body("void f(long p, double h) { *(double *)(p + 0x8) = 1.0; }")
    assert eliminate_temporaries(body).statements == body.statements


def test_temp_chain_inlined():
    body = make_body(
        "void f(long p, double h) { double a = 2.0; double b = a + 1.0;"
        " *(double *)(p + 0x8) = b; }")
    out = eliminate_temporaries(body)
    assert len(out.statements) == 1
    m = translate_to_equations(out)
    assert m.equations[0][1] == mexpr.Binary("add", mexpr.Const(2.0), mexpr.Const(1.0))


def test_branch_written_local_survives():
    src = ("void f(long p, double h) { double m;"
           " if (*(bool *)(p + 0x8)) { m = 1.0; } else { m = 2.0; }"
           " *(double *)(p + 0x10) = m; }")
    out = eliminate_temporaries(make_body(src))
    assert "m" in out.locals_
    m = translate_to_equations(out)
    assert len(m.equations) == 2  # the branch equation and the copy


def test_twice_on_one_path_rejected():
    src = ("void f(long p, double h) { double m;"
           " if (*(bool *)(p + 0x8)) { m = 1.0; m = 2.0; } else { m = 3.0; }"
           " *(double *)(p + 0x10) = m; }")
    with pytest.raises(ReassignedTemporary):
        eliminate_temporaries(make_body(src))


_FIRST_DECLARED = """
from construct.cparse import parse_c_unit
from construct.isolate import isolate_step_function
from construct.translate import ReassignedTemporary, eliminate_temporaries
body = isolate_step_function(parse_c_unit(
    "void f(long p, double h) { double b = 1.0; double a = 2.0;"
    " b = 3.0; a = 4.0; *(double *)(p + 0x8) = a + b; }"))
try:
    eliminate_temporaries(body)
except ReassignedTemporary as exc:
    print(exc.name)
"""


def test_reassigned_temporary_names_first_declared_local():
    src = str(Path(construct.__file__).resolve().parents[1])
    names = set()
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _FIRST_DECLARED], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        names.add(out.stdout.strip())
    assert names == {"b"}


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

def test_integrator_recognition():
    m = pipeline("void f(long p, double h) { *(double *)(p + 0x10) ="
                 " *(double *)(p + 0x10) + h * *(double *)(p + 0x18); }")
    assert m.equations == ((mexpr.Der(0), mexpr.Sym(1)),)
    assert m.slots[0] == SymbolSlot(0, "0x10", "Real", is_state=True)
    assert m.slots[1].is_state is False


def test_integrator_operand_orders():
    variants = [
        "*(double *)(p + 0x10) = h * *(double *)(p + 0x18) + *(double *)(p + 0x10);",
        "*(double *)(p + 0x10) = *(double *)(p + 0x10) + *(double *)(p + 0x18) * h;",
    ]
    for stmt in variants:
        m = pipeline(f"void f(long p, double h) {{ {stmt} }}")
        assert isinstance(m.equations[0][0], mexpr.Der), stmt


def test_if_statement_becomes_conditional_equation():
    m = pipeline(
        "void f(long p, double h) { if (*(bool *)(p + 0x8)) "
        "{ *(double *)(p + 0x10) = *(double *)(p + 0x18); } else "
        "{ *(double *)(p + 0x10) = 0.0; } }")
    lhs, rhs = m.equations[0]
    assert lhs == mexpr.Sym(1)
    assert rhs == mexpr.If(mexpr.Sym(0), mexpr.Sym(2), mexpr.Const(0.0))


def test_ternary_becomes_conditional_expression():
    m = pipeline(
        "void f(long p, double h) { *(double *)(p + 0x10) = "
        "*(bool *)(p + 0x8) ? 1.0 : 2.0; }")
    assert m.equations[0][1] == mexpr.If(mexpr.Sym(1), mexpr.Const(1.0),
                                         mexpr.Const(2.0))


def test_if_with_different_targets_rejected():
    src = ("void f(long p, double h) { if (*(bool *)(p + 0x8)) "
           "{ *(double *)(p + 0x10) = 1.0; } else { *(double *)(p + 0x18) = 2.0; } }")
    with pytest.raises(UnsupportedControlFlow):
        pipeline(src)


def test_if_without_else_rejected():
    src = ("void f(long p, double h) { if (*(bool *)(p + 0x8)) "
           "{ *(double *)(p + 0x10) = 1.0; } }")
    with pytest.raises(UnsupportedControlFlow):
        pipeline(src)


def test_unbound_identifier():
    with pytest.raises(UnboundIdentifier):
        pipeline("void f(long p, double h) { *(double *)(p + 0x8) = ghost; }")


def test_step_symbol_outside_integrator_rejected():
    with pytest.raises(UnboundIdentifier):
        pipeline("void f(long p, double h) { *(double *)(p + 0x8) = h + 1.0; }")


def test_trailing_bare_return_ignored():
    m = pipeline("void f(long p, double h) { *(double *)(p + 0x8) = 1.0; return; }")
    assert len(m.equations) == 1


def test_clamp_maps_to_min_max():
    m = pipeline(
        "void f(long p, double h) { *(double *)(p + 0x10) = "
        "fmax(fmin(*(double *)(p + 0x8), 1.5), -1.5); }")
    lhs, rhs = m.equations[0]
    assert rhs == mexpr.Call("min", (
        mexpr.Call("max", (mexpr.Sym(1), mexpr.Unary("neg", mexpr.Const(1.5)))),
        mexpr.Const(1.5)))


@pytest.mark.parametrize("callee, fn", [("fmin", "min"), ("fminf", "min"), ("fmax", "max"),
                                        ("fmaxf", "max"), ("fabs", "abs"), ("fabsf", "abs")])
def test_every_callee_spelling_translates_and_emits(callee, fn):
    args = "*(double *)(p + 0x8)" if fn == "abs" else "*(double *)(p + 0x8), 1.5"
    m = pipeline(f"void f(long p, double h) {{ *(double *)(p + 0x10) = {callee}({args}); }}")
    operands = (mexpr.Sym(1),) if fn == "abs" else (mexpr.Sym(1), mexpr.Const(1.5))
    assert m.equations[0][1] == mexpr.Call(fn, operands)
    names = VariableTable(tuple(VariableDescriptor(f"s{s.id}", s.id, "Real", "local")
                                for s in m.slots))
    text = emit_modelica(apply_assignment(m, range(m.num_slots), names), "M")
    assert f"  s0 = {fn}({'s1' if fn == 'abs' else 's1, 1.5'});\n" in text


def test_slot_numbering_deterministic():
    src = ("void f(long p, double h) { *(double *)(p + 0x20) = "
           "*(double *)(p + 0x10) - *(double *)(p + 0x18); }")
    assert pipeline(src) == pipeline(src)
    origins = [s.origin for s in pipeline(src).slots]
    assert origins == ["0x20", "0x10", "0x18"]


def test_no_slot_loss(pi_case):
    import re
    source = dict(pi_case["container"].sources)["controller.c"]
    offsets = {int(m, 16) for m in re.findall(r"param_1 \+ (0x[0-9a-f]+)", source)}
    slots = {int(s.origin, 16) for s in pi_case["problem"].model.slots}
    assert slots == offsets


def test_pi_fixture_has_8_equations(pi_case):
    assert len(pi_case["problem"].model.equations) == 8


def test_equation_model_invariants():
    with pytest.raises(ValueError):
        EquationModel(((mexpr.Sym(0), mexpr.Sym(3)),),
                      (SymbolSlot(0, "a"), SymbolSlot(1, "b")))
    with pytest.raises(ValueError):  # unused slot
        EquationModel(((mexpr.Sym(0), mexpr.Const(1.0)),),
                      (SymbolSlot(0, "a"), SymbolSlot(1, "b")))


# ---------------------------------------------------------------------------
# Executable equivalence against the statement interpreter
# ---------------------------------------------------------------------------

def _equations_one_step(model, values: dict, h: float) -> dict:
    """Evaluate equations in model order, then advance states by h."""
    env = dict(values)
    ders = {}
    for lhs, rhs in model.equations:
        if isinstance(lhs, mexpr.Der):
            ders[lhs.ref] = mexpr.eval_expr(rhs, env)
        else:
            env[lhs.ref] = mexpr.eval_expr(rhs, env)
    for ref, d in ders.items():
        env[ref] = env[ref] + h * d
    return env


def test_executable_equivalence(all_cases):
    rng = random.Random(1331)
    for name, case in all_cases.items():
        cm = case["container"]
        unit = parse_c_unit(dict(cm.sources)["controller.c"])
        cfg = RuleConfig(step_function_name="fmi2DoStep") if name == "limpid" \
            else RuleConfig()
        body = eliminate_temporaries(normalize_primitives(isolate_step_function(unit, cfg)))
        model = translate_to_equations(body)

        for _ in range(100):
            h = rng.uniform(0.001, 0.1)
            mem = {}
            values = {}
            for slot in model.slots:
                v = rng.uniform(-3, 3)
                if slot.inferred_type == "Boolean":
                    v = float(rng.random() < 0.5)
                mem[int(slot.origin, 16)] = v
                values[slot.id] = v
            env = {body.base_pointer: 0.0, body.step_symbol: h}
            exec_stmts(body.statements, mem, env)
            got = _equations_one_step(model, values, h)
            for slot in model.slots:
                assert got[slot.id] == pytest.approx(
                    mem[int(slot.origin, 16)], rel=1e-12, abs=1e-15), (name, slot)
