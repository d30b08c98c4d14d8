"""The front half on generated C against the statement interpreter.

Each case is a step function that declares a temporary and stores one
expression, built from every interior kind, every callee spelling and
`&&`/`||` guarding a division. It goes through parse, isolate,
eliminate and translate; normalize is left out, since R1 is exact only
within a tolerance. mexpr.eval_expr on the equation must give the bits
that interp.eval_code_expr gives on the C, or both must raise
ZeroDivisionError.
"""

import math
import struct
from array import array

from hypothesis import HealthCheck, given, settings, strategies as st

from construct import mexpr, sim
from construct.container import Trace
from construct.cparse import parse_c_unit
from construct.isolate import isolate_step_function, normalize_primitives
from construct.translate import eliminate_temporaries, translate_to_equations
from interp import exec_stmts, simulate

OFFSETS = (0x8, 0x10, 0x18)  # the slots read; the store goes to 0x20
VALUES = [0.0, -0.0, 1.0, -1.5, 0.5, 2.0, 1e308, math.inf, -math.inf, math.nan]
OPERATORS = ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "&&", "||")


def _expressions(temporary: bool):
    """C expression texts over the slots at OFFSETS, and t if temporary."""
    reads = st.tuples(st.sampled_from(("double", "float", "int", "bool")),
                      st.sampled_from(OFFSETS)).map(lambda r: f"*({r[0]} *)(p + 0x{r[1]:x})")
    literals = st.sampled_from(("0", "2", "0x3", "0.0", "0.5", "1.5f", "2e0", ".25"))
    leaves = st.one_of(reads, literals, *([st.just("t")] if temporary else []))

    def extend(sub):
        return st.one_of(
            st.builds("{}({})".format, st.sampled_from("-+!"), sub),
            st.builds("({}) {} ({})".format, sub, st.sampled_from(OPERATORS), sub),
            st.builds("({}) ? ({}) : ({})".format, sub, sub, sub),
            st.builds(lambda callee, args: f"{callee}({', '.join(args)})",
                      st.sampled_from(("fmin", "fmax", "fminf", "fmaxf")),
                      st.tuples(sub, sub)),
            st.builds("{}({})".format, st.sampled_from(("fabs", "fabsf")), sub),
            # a division only where the left operand lets it run
            st.builds("({0}) != 0.0 && ({1}) / ({0}) > ({2})".format, sub, sub, sub),
            st.builds("({0}) == 0.0 || ({1}) / ({0}) > ({2})".format, sub, sub, sub))
    return st.recursive(leaves, extend, max_leaves=10)


INITS, VALUES_WITH_T = _expressions(False), _expressions(True)


@st.composite
def step_functions(draw):
    """A step function that declares t and stores an expression whose
    left operand is t, so that t is evaluated first in the C and in the
    inlined equation alike."""
    init = draw(INITS)
    op = draw(st.sampled_from(OPERATORS))
    value = draw(VALUES_WITH_T)
    text = (f"void step(long p, double h) {{\n  double t = {init};\n"
            f"  *(double *)(p + 0x20) = (t) {op} ({value});\n}}\n")
    return text, {off: draw(st.sampled_from(VALUES)) for off in OFFSETS}


def _bits(run):
    """The float run returns, as bits, or ZeroDivisionError. A NaN is
    only NaN: the sign of a NaN times a NaN depends on whether CPython's
    generic or its specialized float multiplication ran."""
    try:
        value = run()
    except ZeroDivisionError:
        return ZeroDivisionError
    return "nan" if math.isnan(value) else struct.pack("<d", value)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(step_functions())
def test_generated_front_half_matches_the_interpreter(case):
    text, memory = case
    body = isolate_step_function(parse_c_unit(text))
    model = translate_to_equations(eliminate_temporaries(body))
    (lhs, rhs), = model.equations
    assert model.slots[lhs.ref].origin == "0x20"
    env = {s.id: memory[int(s.origin, 16)] for s in model.slots if s.id != lhs.ref}

    def interpret():
        mem = dict(memory)
        exec_stmts(body.statements, mem, {})
        return mem[0x20]

    assert _bits(lambda: mexpr.eval_expr(rhs, env)) == _bits(interpret), text


REPRO = ("void step(long p, double h) { *(double *)(p + 0x10) = (*(double *)(p + 0x8) != 0.0"
         " && 1.0 / *(double *)(p + 0x8) > 2.0) ? 1.0 : 0.0; }")


def test_and_guarding_a_division_short_circuits_as_in_c():
    body = normalize_primitives(isolate_step_function(parse_c_unit(REPRO)))
    mem = {0x8: 0.0}
    exec_stmts(body.statements, mem, {})
    model = translate_to_equations(eliminate_temporaries(body))
    (lhs, rhs), = model.equations
    origin = [s.origin for s in model.slots]
    assert mexpr.eval_expr(rhs, {origin.index("0x8"): 0.0}) == mem[0x10] == 0.0
    plan = sim.SimPlan((), ((0, origin[lhs.ref], mexpr.map_refs(rhs, origin.__getitem__)),),
                       {}, frozenset({"0x8"}))
    out = simulate(plan, Trace((0.0, 0.1), {"0x8": (0.0, 0.25)}), ["0x10"])
    assert out.columns["0x10"].tobytes() == array("d", (0.0, 1.0)).tobytes()
