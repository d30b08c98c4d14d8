import itertools

import pytest

from construct import mexpr
from construct.check import (
    GeneOutOfRange, TypeConflict, classify_variables, infer_symbol_types,
    validate_assignment,
)
from construct.container import VariableDescriptor, VariableTable
from construct.translate import EquationModel, SymbolSlot


def slots(*types, states=()):
    return tuple(SymbolSlot(i, f"s{i}", t, is_state=(i in states))
                 for i, t in enumerate(types))


def var(name, vtype="Real", causality="local", start=None):
    if causality == "parameter" and start is None:
        start = {"Real": 1.0, "Integer": 1, "Boolean": True}[vtype]
    return VariableDescriptor(name, hash(name) % 10_000, vtype, causality, start)


# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------

def test_condition_slot_inferred_boolean():
    m = EquationModel(
        ((mexpr.Sym(0), mexpr.If(mexpr.Sym(1), mexpr.Sym(2), mexpr.Sym(3))),),
        slots("Unknown", "Unknown", "Unknown", "Unknown"))
    out = infer_symbol_types(m)
    assert out.slots[1].inferred_type == "Boolean"
    # s0, s2, s3 unify but see no arithmetic: they stay Unknown
    assert {out.slots[i].inferred_type for i in (0, 2, 3)} == {"Unknown"}


def test_branch_unification_picks_up_arithmetic():
    m = EquationModel(
        ((mexpr.Sym(0), mexpr.If(mexpr.Sym(1), mexpr.Sym(2), mexpr.Sym(3))),
         (mexpr.Sym(4), mexpr.Binary("mul", mexpr.Sym(2), mexpr.Const(2.0)))),
        slots("Unknown", "Unknown", "Unknown", "Unknown", "Unknown"))
    out = infer_symbol_types(m)
    for i in (0, 2, 3, 4):
        assert out.slots[i].inferred_type == "Real"
    assert out.slots[1].inferred_type == "Boolean"


def test_der_and_arithmetic_are_real():
    m = EquationModel(
        ((mexpr.Der(0), mexpr.Binary("mul", mexpr.Sym(1), mexpr.Const(2.0))),),
        slots("Unknown", "Unknown", states=(0,)))
    out = infer_symbol_types(m)
    assert out.slots[0].inferred_type == "Real"
    assert out.slots[1].inferred_type == "Real"


def test_type_conflict_detected():
    m = EquationModel(
        ((mexpr.Sym(0), mexpr.If(mexpr.Sym(1), mexpr.Sym(2), mexpr.Sym(3))),
         (mexpr.Sym(4), mexpr.Binary("add", mexpr.Sym(1), mexpr.Const(1.0))),),
        slots("Unknown", "Unknown", "Unknown", "Unknown", "Unknown"))
    with pytest.raises(TypeConflict) as exc:
        infer_symbol_types(m)
    assert exc.value.slot_id == 1
    assert set(exc.value.demands) == {"Boolean", "Real"}


def test_cast_seeds_are_kept():
    m = EquationModel(
        ((mexpr.Sym(0), mexpr.If(mexpr.Sym(1), mexpr.Const(1.0), mexpr.Const(0.0))),),
        slots("Unknown", "Boolean"))
    out = infer_symbol_types(m)
    assert out.slots[1].inferred_type == "Boolean"


def test_comparison_with_real_constant():
    m = EquationModel(
        ((mexpr.Sym(0), mexpr.Binary("gt", mexpr.Sym(1), mexpr.Const(0.5))),),
        slots("Unknown", "Unknown"))
    out = infer_symbol_types(m)
    assert out.slots[1].inferred_type == "Real"
    assert out.slots[0].inferred_type == "Boolean"


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classification_partition():
    table = VariableTable((var("u", causality="input"), var("y", causality="output"),
                           var("k", causality="parameter"), var("x")))
    cls = classify_variables(table)
    assert cls.unknowns == {"y", "x"}
    assert {v.name for v in table.variables} - cls.unknowns == {"u", "k"}


def test_all_parameter_table():
    table = VariableTable((var("k1", causality="parameter"),
                           var("k2", causality="parameter")))
    assert classify_variables(table).unknowns == frozenset()


def test_pi_fixture_unknown_count(pi_case):
    cls = classify_variables(pi_case["problem"].vars)
    assert len(cls.inputs) + len(cls.outputs) >= 2
    assert len(cls.unknowns) == 8


# ---------------------------------------------------------------------------
# validate_assignment on the tiny instance
# ---------------------------------------------------------------------------

@pytest.fixture()
def tiny_model():
    m = EquationModel(
        ((mexpr.Sym(0), mexpr.If(mexpr.Sym(2), mexpr.Sym(1), mexpr.Const(0.0))),),
        slots("Real", "Real", "Boolean"))
    vars = VariableTable((
        var("y", "Real", "output"), var("u", "Real", "input"),
        var("f", "Boolean", "parameter", True)))
    return m, vars


def test_tiny_instance_exactly_one_valid(tiny_model):
    m, vars = tiny_model
    valid = [genes for genes in itertools.permutations(range(3))
             if validate_assignment(m, vars, genes).valid]
    # slot order is (result, branch, condition): f is pinned to the
    # Boolean slot, and the result slot, which the code writes, takes y
    assert valid == [(0, 1, 2)]
    report = validate_assignment(m, vars, (1, 0, 2))
    assert report.violations == (("C5", "slot 0 (s0) is written, 'u' is input"),
                                 ("C5", "slot 1 (s1) is only read, 'y' is output"))


def test_tiny_boolean_on_real_slot_violates_c1(tiny_model):
    m, vars = tiny_model
    report = validate_assignment(m, vars, (2, 1, 0))
    assert not report.valid
    assert any(cid == "C1" for cid, _ in report.violations)


def test_duplicate_gene_violates_c0(tiny_model):
    m, vars = tiny_model
    report = validate_assignment(m, vars, (0, 0, 2))
    assert any(cid == "C0" for cid, _ in report.violations)


def test_all_violations_collected(tiny_model):
    m, vars = tiny_model
    # duplicates and a Boolean on a Real slot and missing I/O at once
    report = validate_assignment(m, vars, (2, 2, 2))
    ids = {cid for cid, _ in report.violations}
    assert {"C0", "C1", "C4"} <= ids


def test_length_precondition(tiny_model):
    m, vars = tiny_model
    with pytest.raises(ValueError):
        validate_assignment(m, vars, (0, 1))


def test_c2_and_c3_are_independent():
    # two equations over disjoint slots: balance can hold while one
    # equation still has no unknown
    m = EquationModel(
        ((mexpr.Sym(0), mexpr.Const(1.0)),
         (mexpr.Sym(1), mexpr.Binary("add", mexpr.Sym(2), mexpr.Const(1.0)))),
        slots("Real", "Real", "Real"))
    vars = VariableTable((var("k", "Real", "parameter"), var("a", "Real", "local"),
                          var("b", "Real", "local")))
    report = validate_assignment(m, vars, (0, 1, 2))
    ids = [cid for cid, _ in report.violations]
    assert "C2" in ids and "C3" not in ids


def test_ground_truths_validate(all_cases):
    for case in all_cases.values():
        problem = case["problem"]
        report = validate_assignment(problem.model, problem.vars,
                                     case["ground_truth"])
        assert report.valid, report.violations


def test_out_of_range_gene_precondition(tiny_model):
    m, vars = tiny_model
    for gene in (-1, len(vars.variables)):
        with pytest.raises(GeneOutOfRange) as exc:
            validate_assignment(m, vars, (0, 1, gene))
        assert exc.value.position == 2
        assert isinstance(exc.value, ValueError)
