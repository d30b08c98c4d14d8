import itertools
import shutil

import pytest

from construct import mexpr
from construct.cli import main
from construct.container import VariableDescriptor, VariableTable
from construct.model import (
    BoundModel, GeneOutOfRange, UnspellableName, apply_assignment, emit_modelica, modelica_name,
)
from construct.translate import EquationModel, SymbolSlot


def table(*rows):
    return VariableTable(tuple(VariableDescriptor(*r) for r in rows))


SMALL = EquationModel(
    ((mexpr.Sym(0), mexpr.Binary("mul", mexpr.Sym(1), mexpr.Sym(0))),),
    (SymbolSlot(0, "s0", "Real"), SymbolSlot(1, "s1", "Real")))


def test_apply_assignment_substitutes_names():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("k", 3, "Real", "parameter", 2.0))
    bound = apply_assignment(SMALL, (2, 0), vars)
    lhs, rhs = bound.equations[0]
    assert lhs == mexpr.Sym("k")
    assert rhs == mexpr.Binary("mul", mexpr.Sym("u"), mexpr.Sym("k"))
    assert bound.bindings == ("k", "u")


def test_gene_out_of_range():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("k", 3, "Real", "parameter", 2.0))
    with pytest.raises(GeneOutOfRange) as exc:
        apply_assignment(SMALL, (5, 0), vars)
    assert exc.value.position == 0


def test_duplicates_pass_through_binding():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None))
    bound = apply_assignment(SMALL, (1, 1), vars)
    assert bound.bindings == ("y", "y")


def test_identity_binding_matches_ground_truth_structure(pi_case):
    problem = pi_case["problem"]
    bound = apply_assignment(problem.model, pi_case["ground_truth"], problem.vars)
    names = {s.origin: bound.bindings[s.id] for s in problem.model.slots}
    expected = tuple(
        (mexpr.map_refs(lhs, lambda r: names[problem.model.slots[r].origin]),
         mexpr.map_refs(rhs, lambda r: names[problem.model.slots[r].origin]))
        for lhs, rhs in problem.model.equations)
    assert bound.equations == expected
    assert [lhs for lhs, _ in bound.equations if isinstance(lhs, mexpr.Der)] \
        == [mexpr.Der("integ_state")]


def test_distinct_chromosomes_distinct_models():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("k", 3, "Real", "parameter", 2.0))
    seen = set()
    for genes in itertools.permutations(range(3), 2):
        bound = apply_assignment(SMALL, genes, vars)
        seen.add(bound.equations)
    assert len(seen) == 6


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def test_emit_basic_model():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("k", 3, "Real", "parameter", 2.0))
    bound = BoundModel(
        ((mexpr.Sym("y"), mexpr.Binary("mul", mexpr.Sym("k"), mexpr.Sym("u"))),),
        vars, ("y", "k", "u"))
    text = emit_modelica(bound, "Gain")
    assert "model Gain" in text
    assert "  input Real u;" in text
    assert "  output Real y;" in text
    assert "  parameter Real k = 2.0;" in text
    assert "  y = k * u;" in text
    assert text.endswith("end Gain;\n")


def test_emit_der_equation():
    vars = table(("u", 1, "Real", "input", None), ("x", 2, "Real", "local", 0.0))
    bound = BoundModel(((mexpr.Der("x"), mexpr.Sym("u")),), vars, ("x", "u"))
    text = emit_modelica(bound, "Integ")
    assert "  der(x) = u;" in text
    assert "  Real x(start = 0.0);" in text


def test_emit_if_expression():
    vars = table(("c", 1, "Boolean", "input", None), ("a", 2, "Real", "input", None),
                 ("b", 3, "Real", "parameter", 0.5), ("y", 4, "Real", "output", None))
    bound = BoundModel(
        ((mexpr.Sym("y"), mexpr.If(mexpr.Sym("c"), mexpr.Sym("a"), mexpr.Sym("b"))),),
        vars, ("y", "c", "a", "b"))
    assert "  y = if c then a else b;" in emit_modelica(bound, "Pick")


def test_emit_only_used_variables_declared():
    vars = table(("u", 1, "Real", "input", None), ("y", 2, "Real", "output", None),
                 ("ghost", 3, "Real", "parameter", 1.0))
    bound = BoundModel(((mexpr.Sym("y"), mexpr.Sym("u")),), vars, ("y", "u"))
    assert "ghost" not in emit_modelica(bound, "M")


def test_emit_parenthesization():
    vars = table(("a", 1, "Real", "input", None), ("b", 2, "Real", "input", None),
                 ("c", 3, "Real", "input", None), ("y", 4, "Real", "output", None))
    e = mexpr.Binary("mul", mexpr.Binary("add", mexpr.Sym("a"), mexpr.Sym("b")),
                     mexpr.Sym("c"))
    bound = BoundModel(((mexpr.Sym("y"), e),), vars, ("y", "a", "b", "c"))
    assert "  y = (a + b) * c;" in emit_modelica(bound, "M")
    e2 = mexpr.Binary("sub", mexpr.Sym("a"),
                      mexpr.Binary("sub", mexpr.Sym("b"), mexpr.Sym("c")))
    bound2 = BoundModel(((mexpr.Sym("y"), e2),), vars, ("y", "a", "b", "c"))
    assert "  y = a - (b - c);" in emit_modelica(bound2, "M")


def _emitted_rhs(e) -> str:
    vars = table(("a", 1, "Real", "input", None), ("b", 2, "Real", "input", None),
                 ("c", 3, "Real", "input", None), ("y", 4, "Real", "output", None))
    bound = BoundModel(((mexpr.Sym("y"), e),), vars, ("y", "a", "b", "c"))
    line = next(line for line in emit_modelica(bound, "M").splitlines()
                if line.startswith("  y = "))
    return line[len("  y = "):-1]


A, B, C = mexpr.Sym("a"), mexpr.Sym("b"), mexpr.Sym("c")


@pytest.mark.parametrize("e, text", [
    # a unary minus may begin only an arithmetic-expression (Modelica 3.5,
    # Appendix B), never a term or a factor
    (mexpr.Binary("mul", A, mexpr.Const(-0.8)), "a * (-0.8)"),
    (mexpr.Binary("mul", A, mexpr.Unary("neg", mexpr.Const(0.8))), "a * (-0.8)"),
    (mexpr.Binary("sub", mexpr.Const(0.5), mexpr.Unary("neg", A)), "0.5 - (-a)"),
    (mexpr.Binary("add", A, mexpr.Const(-0.0)), "a + (-0.0)"),
    (mexpr.Binary("div", mexpr.Unary("neg", A), B), "(-a) / b"),
    (mexpr.Binary("add", C, mexpr.Binary("mul", mexpr.Unary("neg", A), B)), "c + (-a) * b"),
    (mexpr.Binary("lt", A, mexpr.Const(-1.5)), "a < (-1.5)"),
    (mexpr.Unary("neg", mexpr.Const(-0.8)), "-(-0.8)"),
    (mexpr.Unary("neg", mexpr.Unary("neg", A)), "-(-a)"),
    # a whole right-hand side, a function argument and an If branch are
    # expressions, which may begin with one
    (mexpr.Unary("neg", mexpr.Binary("mul", A, mexpr.Const(0.8))), "-(a * 0.8)"),
    (mexpr.Const(-0.8), "-0.8"),
    (mexpr.Call("max", (A, mexpr.Const(-1.5))), "max(a, -1.5)"),
    (mexpr.If(A, mexpr.Unary("neg", B), mexpr.Const(-1.0)), "if a then -b else -1.0"),
])
def test_emit_parenthesizes_a_negated_operand(e, text):
    assert _emitted_rhs(e) == text


def test_translate_parenthesizes_a_negated_operand(pi_case, tmp_path):
    work = tmp_path / "pi"
    shutil.copytree(pi_case["root"], work)
    source = work / "sources" / "controller.c"
    text = source.read_text()
    for old, new in (("dVar3 * 0.8", "dVar3 * -0.8"), ("dVar7 = ", "dVar7 = 0.5 - -dVar3 + ")):
        assert old in text
        text = text.replace(old, new)
    source.write_text(text)
    out = tmp_path / "skeleton.mo"
    assert main(["translate", str(work), "--out", str(out)]) == 0
    emitted = out.read_text()
    assert "  sym_0x38 = sym_0x28 * (-0.8);\n" in emitted
    assert "0.5 - (-sym_0x28)" in emitted
    assert " -sym" not in emitted and " --" not in emitted


@pytest.mark.parametrize("name, written", [
    ("drift_comp", "drift_comp"),
    ("_x1", "_x1"),
    ("ctrl.x", "'ctrl.x'"),
    ("ctrl.drift comp", "'ctrl.drift comp'"),
    ("it's", "'it\\'s'"),
    ("a\\b", "'a\\\\b'"),
    ('say "hi"', "'say \\\"hi\\\"'"),
    ("tab\there", "'tab\\there'"),
    ("1st", "'1st'"),
    ("x[1]", "'x[1]'"),
    ("model", "'model'"),
    ("der", "'der'"),
    ("end", "'end'"),
    ("Model", "Model"),
])
def test_a_name_that_is_no_ident_is_written_quoted(name, written):
    assert modelica_name(name) == written


@pytest.mark.parametrize("name", ["drift\u00e9", "a`b", "nul\x00", "del\x7f"])
def test_a_name_no_quoted_identifier_spells_is_refused(name):
    with pytest.raises(UnspellableName, match="no Modelica name"):
        modelica_name(name)


def test_emit_writes_quoted_names_everywhere():
    vars = table(("ctrl.u", 1, "Real", "input", None), ("model", 2, "Real", "output", None),
                 ("it's", 3, "Real", "parameter", 2.0), ("x y", 4, "Real", "local", 0.5))
    eqs = ((mexpr.Sym("model"), mexpr.Binary("mul", mexpr.Sym("it's"), mexpr.Sym("x y"))),
           (mexpr.Der("x y"), mexpr.Sym("ctrl.u")))
    text = emit_modelica(BoundModel(eqs, vars, ("model", "it's", "x y", "ctrl.u")), "M")
    assert text.splitlines()[1:-1] == [
        "  input Real 'ctrl.u';",
        "  output Real 'model';",
        "  parameter Real 'it\\'s' = 2.0;",
        "  Real 'x y'(start = 0.5);",
        "equation",
        "  'model' = 'it\\'s' * 'x y';",
        "  der('x y') = 'ctrl.u';",
    ]


def test_emit_deterministic_and_golden(pi_case, tmp_path):
    problem = pi_case["problem"]
    bound = apply_assignment(problem.model, pi_case["ground_truth"], problem.vars)
    text1 = emit_modelica(bound, "PiGroundTruth")
    text2 = emit_modelica(bound, "PiGroundTruth")
    assert text1 == text2
    golden = (pi_case["root"].parent.parent / "tests" / "golden"
              / "pi_ground_truth.mo")
    assert text1 == golden.read_text()
