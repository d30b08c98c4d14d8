import random

import pytest

from construct import isolate
from construct.cparse import Assign, Deref, Ident, RealLit, parse_c_expr, parse_c_unit
from construct.mexpr import Binary, Call, Unary
from construct.isolate import (
    AmbiguousStepFunction, DivergingRewrite, NoDerefBase, NoStepFunction,
    IsolateError, RuleConfig, StepBody, isolate_step_function, load_rule_config,
    normalize_primitives,
)
from interp import eval_code_expr


def norm_expr(text):
    body = StepBody((Assign(Deref("p", 0, "double"), parse_c_expr(text)),),
                    step_symbol="h", base_pointer="p")
    return normalize_primitives(body).statements[0].value


# ---------------------------------------------------------------------------
# R1: reciprocal multiply
# ---------------------------------------------------------------------------

def test_r1_half_becomes_div_two():
    assert norm_expr("e * 0.5") == Binary("div", Ident("e"), RealLit(2.0))


def test_r1_fifth():
    # 1/0.2 rounds to exactly 5.0 in binary64, so the rule must fire
    assert abs(1.0 / 0.2 - 5) <= 1e-9 * 5
    assert norm_expr("e * 0.2") == Binary("div", Ident("e"), RealLit(5.0))


def test_r1_constant_on_left():
    assert norm_expr("0.25 * e") == Binary("div", Ident("e"), RealLit(4.0))


def test_r1_does_not_fire_on_non_reciprocal():
    e = parse_c_expr("e * 0.625")  # 1/0.625 = 1.6, not near an integer
    assert norm_expr("e * 0.625") == e


def test_r1_does_not_fire_below_two():
    e = parse_c_expr("e * 2.0")  # 1/2.0 = 0.5 < 2
    assert norm_expr("e * 2.0") == e
    e1 = parse_c_expr("e * 1.0")
    assert norm_expr("e * 1.0") == e1


def test_r1_respects_max_denominator():
    assert isolate.RECIPROCAL_MAX_DENOMINATOR == 1000
    assert norm_expr("e * 0.001") == Binary("div", Ident("e"), RealLit(1000.0))
    past = f"e * {1 / 1001!r}"
    assert norm_expr(past) == parse_c_expr(past)


def test_r1_negative_constant_untouched():
    e = parse_c_expr("e * 0.5")
    neg = Binary("mul", Ident("e"), Unary("neg", RealLit(0.5)))
    body = StepBody((Assign(Deref("p", 0, "double"), neg),), "h", "p")
    assert normalize_primitives(body).statements[0].value == neg
    assert norm_expr("e * 0.5") != e


def test_r1_tolerance_gate():
    # 1/0.5000001 is near 2 but misses the relative tolerance
    val = 0.5000001
    assert norm_expr(f"e * {val!r}") == Binary("mul", Ident("e"), RealLit(val))
    # 1/c off 2 by a tenth of the tolerance fires; by ten times it, not
    for miss, fires in ((0.1, True), (10, False)):
        c = 1 / (2 * (1 + miss * isolate.RECIPROCAL_TOLERANCE))
        expected = Binary("div", Ident("e"), RealLit(2.0)) if fires \
            else Binary("mul", Ident("e"), RealLit(c))
        assert norm_expr(f"e * {c!r}") == expected


# ---------------------------------------------------------------------------
# R2: clamp canonicalization
# ---------------------------------------------------------------------------

def test_r2_max_of_min():
    out = norm_expr("fmax(fmin(x, 1.0), -1.0)")
    assert out == Call("min", (Call("max", (Ident("x"), Unary("neg", RealLit(1.0)))),
                               RealLit(1.0)))


def test_r2_canonical_form_stable():
    canon = "fmin(fmax(x, lo), hi)"
    assert norm_expr(canon) == parse_c_expr(canon)


def test_r2_if_chain():
    text = """void f(long p, double h) {
      if (x < lo) { *(double *)(p + 0x8) = lo; }
      else { if (x > hi) { *(double *)(p + 0x8) = hi; } else { *(double *)(p + 0x8) = x; } }
    }"""
    unit = parse_c_unit(text)
    body = StepBody(unit.functions[0].body, "h", "p")
    out = normalize_primitives(body).statements
    assert len(out) == 1
    assert out[0] == Assign(Deref("p", 8, "double"),
                            Call("min", (Call("max", (Ident("x"), Ident("lo"))),
                                         Ident("hi"))))


# ---------------------------------------------------------------------------
# R3: negated subtract
# ---------------------------------------------------------------------------

def test_r3_neg_sub():
    assert norm_expr("-(a - b)") == Binary("sub", Ident("b"), Ident("a"))


def test_r3_nested_under_r1():
    out = norm_expr("-(a - b) * 0.5")
    assert out == Binary("div", Binary("sub", Ident("b"), Ident("a")), RealLit(2.0))


# ---------------------------------------------------------------------------
# Properties: idempotence and semantic preservation
# ---------------------------------------------------------------------------

_SNIPPETS = [
    "e * 0.5", "0.2 * e", "-(a - b)", "fmax(fmin(x, hi), lo)",
    "-(a - b) * 0.25", "a + b * 0.1", "fabs(a - b) * 0.5",
    "(c) ? a * 0.5 : -(b - a)", "a / 4.0 + e * 0.125",
]


def test_rule_that_never_settles_diverges(monkeypatch):
    def swap_add(e):
        if isinstance(e, Binary) and e.op == "add":
            return Binary("add", e.right, e.left)
        return None

    monkeypatch.setattr(isolate, "_EXPR_RULES", (swap_add,))
    with pytest.raises(DivergingRewrite):
        norm_expr("a + b")


def test_idempotence():
    for text in _SNIPPETS:
        body = StepBody((Assign(Deref("p", 0, "double"), parse_c_expr(text)),),
                        "h", "p")
        once = normalize_primitives(body)
        twice = normalize_primitives(once)
        assert once.statements == twice.statements, text


def test_semantic_preservation_1000_random_inputs():
    rng = random.Random(4242)
    names = ("a", "b", "c", "e", "x", "lo", "hi")
    for text in _SNIPPETS:
        before = parse_c_expr(text)
        after = norm_expr(text)
        for _ in range(120):
            env = {n: rng.uniform(-10, 10) for n in names}
            env["lo"], env["hi"] = min(env["lo"], env["hi"]), max(env["lo"], env["hi"])
            v0 = eval_code_expr(before, {}, env)
            v1 = eval_code_expr(after, {}, env)
            assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-15), text


# ---------------------------------------------------------------------------
# Step function selection
# ---------------------------------------------------------------------------

STEP = "void step(long p, double h) { *(double *)(p + 0x8) = h; }\n"
HELPER = "double helper(double x) { return x; }\n"


def test_select_single_deref_assigner():
    body = isolate_step_function(parse_c_unit(STEP + HELPER))
    assert body.base_pointer == "p"
    assert body.step_symbol == "h"


def test_ambiguous_when_two_candidates():
    other = STEP.replace("step", "step2")
    with pytest.raises(AmbiguousStepFunction):
        isolate_step_function(parse_c_unit(STEP + other))


def test_config_override_selects_by_name():
    other = STEP.replace("step", "fmi2DoStep")
    cfg = RuleConfig(step_function_name="fmi2DoStep")
    body = isolate_step_function(parse_c_unit(STEP + other), cfg)
    assert body.statements[0].target.offset == 8


def test_no_step_function():
    with pytest.raises(NoStepFunction):
        isolate_step_function(parse_c_unit(HELPER))


def test_no_deref_base_when_base_is_not_a_param():
    text = "void f(long p, double h) { *(double *)(q + 0x8) = h; }"
    with pytest.raises(NoDerefBase):
        isolate_step_function(parse_c_unit(text))


NESTED = ("void f(long p, double h, long q) {"
          " *(double *)(p + 0x8) = h;"
          " if (h > 0.0) { *(double *)(p + 0x20) = h; }"
          " else { if (COND) { *(double *)(p + 0x10) = 1.0; }"
          " else { *(double *)(p + 0x10) = 2.0; } }"
          " return RET; }")


@pytest.mark.parametrize("cond, ret", [
    ("*(bool *)(B + 0x18)", "h"),
    ("h > 1.0", "*(double *)(B + 0x18)"),
])
def test_deref_base_found_in_nested_condition_and_return(cond, ret):
    text = NESTED.replace("COND", cond).replace("RET", ret)
    assert isolate_step_function(parse_c_unit(text.replace("B", "p"))).base_pointer == "p"
    with pytest.raises(NoDerefBase) as exc:
        isolate_step_function(parse_c_unit(text.replace("B", "q")))
    assert "['p', 'q']" in str(exc.value)


def test_locals_in_nested_arms_keep_document_order():
    text = ("void f(long p, double h) { double z = h;"
            " if (h > 0.0) { double y = 1.0;"
            " if (h > 1.0) { double x = 2.0; } else { double w = 3.0; }"
            " double v = 4.0; } else { double u = 5.0; }"
            " double a = 6.0; *(double *)(p + 0x8) = z; }")
    body = isolate_step_function(parse_c_unit(text))
    assert body.locals_ == ("z", "y", "x", "w", "v", "u", "a")


def test_step_param_override():
    text = "void f(long p, double dt, double h) { *(double *)(p + 0x8) = dt; }"
    cfg = RuleConfig(step_param_name="dt")
    assert isolate_step_function(parse_c_unit(text), cfg).step_symbol == "dt"


# ---------------------------------------------------------------------------
# Rules file
# ---------------------------------------------------------------------------

def test_load_rule_config():
    cfg = load_rule_config('# comment\nstep_function = "fmi2DoStep"\nstep_param = param_2\n')
    assert cfg == RuleConfig(step_function_name="fmi2DoStep", step_param_name="param_2")
    # R1's bounds are constants, not settings
    for key in ("reciprocal_tolerance", "reciprocal_max_denominator"):
        with pytest.raises(IsolateError, match=f"^rules file line 2: unknown key '{key}'$"):
            load_rule_config(f"# comment\n{key} = 2\n")
    with pytest.raises(IsolateError, match="^rules file line 3: duplicate key 'step_function'$"):
        load_rule_config('step_function = "fmi2Initialize"\nstep_param = h\n'
                         'step_function = "fmi2DoStep"\n')
