import random
import re
import struct
import tracemalloc

import pytest

from construct.container import (
    MalformedDescription, MalformedTrace, MissingDescription, MissingSources,
    Trace, VariableDescriptor, VariableTable, load_container, load_trace,
    parse_model_description, write_trace,
)
from interp import load_trace_rows

DESC_3 = """<?xml version="1.0" encoding="UTF-8"?>
<fmiModelDescription fmiVersion="2.0" modelName="m">
  <ModelVariables>
    <ScalarVariable name="u" valueReference="16" causality="input"><Real/></ScalarVariable>
    <ScalarVariable name="y" valueReference="24" causality="output"><Real/></ScalarVariable>
    <ScalarVariable name="k" valueReference="32" causality="parameter"><Real start="2.0"/></ScalarVariable>
  </ModelVariables>
</fmiModelDescription>
"""

SOURCE = "void step(long p, double h) { *(double *)(p + 0x18) = *(double *)(p + 0x10); }\n"


def make_container(tmp_path, desc=DESC_3, source=SOURCE, traces=True):
    (tmp_path / "sources").mkdir()
    (tmp_path / "modelDescription.xml").write_text(desc)
    (tmp_path / "sources" / "model.c").write_text(source)
    if traces:
        (tmp_path / "traces").mkdir()
        (tmp_path / "traces" / "input.csv").write_text("time,u\n0.0,1.0\n0.1,1.0\n")
        (tmp_path / "traces" / "reference.csv").write_text("time,y\n0.0,1.0\n0.1,1.0\n")
    return tmp_path


def test_load_container_roundtrip(tmp_path):
    cm = load_container(make_container(tmp_path))
    assert len(cm.variable_table.variables) == 3
    assert len(cm.sources) == 1
    assert cm.input_trace is not None and cm.reference_trace is not None


def test_missing_sources(tmp_path):
    (tmp_path / "modelDescription.xml").write_text(DESC_3)
    with pytest.raises(MissingSources):
        load_container(tmp_path)


def test_missing_description(tmp_path):
    (tmp_path / "sources").mkdir()
    with pytest.raises(MissingDescription):
        load_container(tmp_path)


def test_traces_optional(tmp_path):
    cm = load_container(make_container(tmp_path, traces=False))
    assert cm.input_trace is None and cm.reference_trace is None


def test_pi_fixture_has_18_variables(pi_case):
    assert len(pi_case["container"].variable_table.variables) == 18


def test_parse_description_fields():
    table = parse_model_description(DESC_3)
    assert table.variables[0] == VariableDescriptor("u", 16, "Real", "input", None)
    assert table.variables[2] == VariableDescriptor("k", 32, "Real", "parameter", 2.0)


def test_parse_description_causality_default_and_types():
    text = """<d><ModelVariables>
    <ScalarVariable name="n" valueReference="1"><Integer start="3"/></ScalarVariable>
    <ScalarVariable name="b" valueReference="2"><Boolean start="true"/></ScalarVariable>
    </ModelVariables></d>"""
    table = parse_model_description(text)
    assert table.variables[0].causality == "local"
    assert table.variables[0].start == 3
    assert table.variables[1].vtype == "Boolean" and table.variables[1].start is True


def test_parse_description_order_preserved():
    names = [f"v{i}" for i in range(20)]
    rows = "".join(
        f'<ScalarVariable name="{n}" valueReference="{i}"><Real/></ScalarVariable>'
        for i, n in enumerate(names))
    table = parse_model_description(f"<d><ModelVariables>{rows}</ModelVariables></d>")
    assert [v.name for v in table.variables] == names


def test_duplicate_name_rejected():
    text = """<d><ModelVariables>
    <ScalarVariable name="x" valueReference="1"><Real/></ScalarVariable>
    <ScalarVariable name="x" valueReference="2"><Real/></ScalarVariable>
    </ModelVariables></d>"""
    with pytest.raises(MalformedDescription):
        parse_model_description(text)


def test_duplicate_value_reference_rejected():
    text = """<d><ModelVariables>
    <ScalarVariable name="x" valueReference="1"><Real/></ScalarVariable>
    <ScalarVariable name="y" valueReference="1"><Real/></ScalarVariable>
    </ModelVariables></d>"""
    with pytest.raises(MalformedDescription):
        parse_model_description(text)


def test_unknown_type_element_rejected():
    text = ('<d><ModelVariables><ScalarVariable name="s" valueReference="1">'
            "<String/></ScalarVariable></ModelVariables></d>")
    with pytest.raises(MalformedDescription):
        parse_model_description(text)


def test_unparseable_start_rejected():
    text = ('<d><ModelVariables><ScalarVariable name="x" valueReference="1">'
            '<Real start="wide"/></ScalarVariable></ModelVariables></d>')
    with pytest.raises(MalformedDescription):
        parse_model_description(text)


def test_parameter_without_start_rejected():
    text = ('<d><ModelVariables><ScalarVariable name="k" valueReference="1" '
            'causality="parameter"><Real/></ScalarVariable></ModelVariables></d>')
    with pytest.raises(MalformedDescription):
        parse_model_description(text)


def test_unknown_content_is_ignored_not_an_error():
    # description, variability, unit, an extra element and Annotations
    text = """<d><ModelVariables>
    <ScalarVariable name="x" valueReference="1" description="d" variability="continuous">
      <Real start="1.0" unit="m"/><Extra/></ScalarVariable>
    <Annotations/>
    </ModelVariables></d>"""
    table = parse_model_description(text)
    assert table.variables == (VariableDescriptor("x", 1, "Real", "local", 1.0),)


def test_load_trace_basic(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("time,u\n0.0,1.0\n0.1,1.0\n")
    t = load_trace(p)
    assert bits(t.times) == bits((0.0, 0.1))
    assert {n: bits(c) for n, c in t.columns.items()} == {"u": bits((1.0, 1.0))}


def test_load_trace_crlf(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"time,u\r\n0.0,1.0\r\n0.1,2.0\r\n")
    assert bits(load_trace(p).columns["u"]) == bits((1.0, 2.0))


def test_load_trace_reads_a_crlf_file_bit_for_bit(tmp_path, fixtures_dir):
    reference = fixtures_dir / "pi" / "traces" / "reference.csv"
    p = tmp_path / "t.csv"
    p.write_bytes(reference.read_bytes().replace(b"\n", b"\r\n"))
    assert b"\r\n" in p.read_bytes()
    assert load_outcome(load_trace, p) == load_outcome(load_trace, reference)


def trace_fault(tmp_path, text: str) -> tuple:
    """The message and line of the MalformedTrace that loading text raises."""
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode())
    with pytest.raises(MalformedTrace) as exc:
        load_trace(p)
    return str(exc.value), exc.value.line


def test_load_trace_non_monotone(tmp_path):
    assert trace_fault(tmp_path, "time,u\n0.1,1.0\n0.1,1.0\n") == (
        "malformed trace (line 3): t.csv: time not strictly increasing", 3)


def test_load_trace_single_row(tmp_path):
    assert trace_fault(tmp_path, "time,u\n0.0,1.0\n") == (
        "malformed trace: t.csv: fewer than 2 data rows", None)


def test_load_trace_ragged_row(tmp_path):
    assert trace_fault(tmp_path, "time,u\n0.0,1.0\n0.1\n") == (
        "malformed trace (line 3): t.csv: row has 1 cells, expected 2", 3)


def test_load_trace_non_numeric(tmp_path):
    assert trace_fault(tmp_path, "time,u\n0.0,one\n0.1,2.0\n") == (
        "malformed trace (line 2): t.csv: non-numeric cell", 2)


@pytest.mark.parametrize("cell", ["1_000", "\u0663", " 2.5 ", "2.5\t", "\x0c2.5", "\x0b2.5",
                                  "\r2.5", "2\r.5", "2.5\r\r"])
def test_load_trace_rejects_what_float_reads_beyond_ascii_numbers(tmp_path, cell):
    # float reads these as 1000.0, 3.0 and 2.5
    text = f"time,u_1,v\n0.0,1.0,2.0\n\n0.1,1.0,{cell}\n0.2,x,1.0\n"
    assert trace_fault(tmp_path, text) == (
        "malformed trace (line 4): t.csv: non-numeric cell", 4)
    # a wrong cell count in the same row still comes first
    assert trace_fault(tmp_path, text.replace(f",{cell}\n", f",{cell},3.0\n")) == (
        "malformed trace (line 4): t.csv: row has 4 cells, expected 3", 4)


def test_load_trace_reads_names_beyond_ascii_numbers(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes("time,\u00fc_1,a b\n0.0,1.0,2.0\n0.1,1e0,-inf\n".encode())
    with pytest.raises(MalformedTrace, match="non-finite cell"):
        load_trace(p)
    p.write_bytes("time,\u00fc_1,a b\n0.0,1.0,2.0\n0.1,1e0,+.5\n".encode())
    assert {n: bits(c) for n, c in load_trace(p).columns.items()} \
        == {"\u00fc_1": bits((1.0, 1.0)), "a b": bits((2.0, 0.5))}


@pytest.mark.parametrize("text, reason, line", [
    ("", "t.csv is empty", None),
    ("\n\r\n\n", "t.csv is empty", None),
    ("\n\nstep,u\n0.0,1.0\n0.1,1.0\n", "t.csv: first column must be 'time'", 3),
    ("\ntime,u,u\n0.0,1.0,1.0\n0.1,1.0,1.0\n", "t.csv: duplicate column names", 2),
    ("time,u\n0.0,1.0\n\n0.01,2.0\n0.02,x\n", "t.csv: non-numeric cell", 5),
    ("time,u\r\n\r\n0.0,1.0\r\n0.1,2.0,3.0\r\n", "t.csv: row has 3 cells, expected 2", 4),
    ("time,u\n\n0.0,1.0\n\n\n0.1,nan\n", "t.csv: non-finite cell", 6),
    ("time,u\n0.0,1.0\n\n0.1,1.0\n\n0.1,1.0\n", "t.csv: time not strictly increasing", 6),
], ids=["empty", "blank", "header", "duplicate", "blank-then-non-numeric",
        "crlf-blank-then-ragged", "blank-then-non-finite", "blank-then-time-order"])
def test_load_trace_error_names_the_line_of_the_file(tmp_path, text, reason, line):
    where = "" if line is None else f" (line {line})"
    assert trace_fault(tmp_path, text) == (f"malformed trace{where}: {reason}", line)


@pytest.mark.parametrize("text, reason, line", [
    ("time,u\r0.0,1.0\r0.1,2.0", "fewer than 2 data rows", None),
    ("time,u\r0.0,1.0\n0.1,x\n", "row has 2 cells, expected 3", 2),
    ("time,u\n0.0,1.0\r0.1,2.0\n0.2,3.0\n", "row has 3 cells, expected 2", 2),
    ("time,u\n0.0,1.0\n0.1,2.0\r", "non-numeric cell", 3),
    ("time,u\r\n0.0,1.0\r\r\n0.1,2.0\r\n", "non-numeric cell", 2),
], ids=["lone-cr-rows", "lone-cr-header", "lone-cr-row", "cr-at-the-end", "cr-before-crlf"])
def test_load_trace_ends_a_line_only_at_newline(tmp_path, text, reason, line):
    # universal newlines read the first as a trace of two rows
    where = "" if line is None else f" (line {line})"
    assert trace_fault(tmp_path, text) == (f"malformed trace{where}: t.csv: {reason}", line)
    p = tmp_path / "t.csv"
    assert load_outcome(load_trace_rows, p) == load_outcome(load_trace, p)


@pytest.mark.parametrize("text, reason, line", [
    ("time,u\n0.0,1.0\n0.1,x\n0.2\n", "non-numeric cell", 3),
    ("time,u\n0.0,1.0\n0.1\n0.2,x\n", "row has 1 cells, expected 2", 3),
    ("time,u\n0.0,1.0\n0.1,x,2.0\n", "row has 3 cells, expected 2", 3),
    ("time,u\n0.0,inf\n0.1,x\n", "non-numeric cell", 3),
    ("time,u\n0.0,x\n", "non-numeric cell", 2),
    ("time,u\n0.0,nan\n", "fewer than 2 data rows", None),
    ("time,u\n0.0,inf\n0.1,1.0\nnan,1.0\n", "non-finite cell", 4),
    ("time,u,v\n0.0,1.0,inf\n0.1,-inf,1.0\n", "non-finite cell", 3),
    ("time,u\n0.1,1.0\n0.0,inf\n", "non-finite cell", 3),
], ids=["non-numeric-before-ragged", "ragged-before-non-numeric",
        "count-before-non-numeric-in-a-row", "non-numeric-before-non-finite",
        "non-numeric-before-row-count", "row-count-before-non-finite",
        "time-column-first", "columns-in-header-order", "non-finite-before-time-order"])
def test_load_trace_reports_the_first_fault_in_rule_order(tmp_path, text, reason, line):
    where = "" if line is None else f" (line {line})"
    assert trace_fault(tmp_path, text) == (f"malformed trace{where}: t.csv: {reason}", line)


def bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def trace_bits(trace) -> tuple:
    """The bits of a trace's times and of each of its columns."""
    return bits(trace.times), {n: bits(c) for n, c in trace.columns.items()}


def test_trace_roundtrip_bit_exact(tmp_path):
    rng = random.Random(99)
    times = []
    t = 0.0
    for _ in range(50):
        t += rng.random() + 1e-6
        times.append(t)
    cols = {name: tuple(rng.uniform(-1e6, 1e6) for _ in times)
            for name in ("a", "b", "c")}
    awkward = (-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, -5e-324)
    cols["d"] = awkward * 10
    # the second trace has no column but time, as a model without outputs records
    for trace in (Trace((-0.0, *times[1:]), cols), Trace(tuple(times), {})):
        p = tmp_path / "t.csv"
        write_trace(trace, p)
        back = load_trace(p)
        assert trace_bits(back) == trace_bits(trace)
        write_trace(back, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == p.read_bytes()


@pytest.mark.parametrize("column", [(1.0,), (1.0, 2.0, 3.0, 4.0)])
def test_write_trace_refuses_a_column_without_one_value_per_time(column):
    # zipped with the times, a short column cut the trace to its length and
    # a long one lost its tail, and the write returned normally; now no
    # Trace holds such a column, so none reaches write_trace
    with pytest.raises(MalformedTrace, match=rf"^malformed trace: column 'y' has "
                                             rf"{len(column)} values for 3 times$"):
        Trace((0.0, 0.1, 0.2), {"u": (1.0, 2.0, 3.0), "y": column})


def damaged_csv(rng) -> str:
    """A small trace, damaged zero or more times: blank lines, odd or
    non-finite cells, ragged rows, moved or repeated rows, header damage,
    CRLF endings."""
    width = rng.randint(1, 4)
    lines = [",".join(["time"] + [f"c{j}" for j in range(1, width)])]
    lines += [",".join([repr(k * 0.01)] + [repr(rng.uniform(-5, 5)) for _ in range(1, width)])
              for k in range(rng.randint(0, 6))]
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(len(lines))
        cells = lines[k].split(",")
        kind = rng.randrange(7)
        if kind == 0:
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", "", "\r"]))
        elif kind == 1:
            cells[rng.randrange(len(cells))] = rng.choice(
                ["x", "nan", "inf", "-inf", "1e999", "", " 1.5 ", "1_0", "-0.0", "5e-324"])
            lines[k] = ",".join(cells)
        elif kind == 2:
            lines[k] = ",".join(cells[:-1] if rng.random() < 0.5 else cells + ["1.0"])
        elif kind == 3:
            lines.insert(rng.randint(0, len(lines)), lines[k])
        elif kind == 4:
            lines[0] = rng.choice(["t,c1", "time,c1,c1", "time,c1", "time"])
        elif kind == 5 and len(lines) > 1:
            del lines[k]
        elif kind == 6:
            lines = [ln + "\r" for ln in lines]
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n", "\r\n"])


def load_outcome(load, path) -> tuple:
    """What loading path gives: the trace's bits, or the error's class,
    message and line."""
    try:
        trace = load(path)
    except MalformedTrace as exc:
        return type(exc), str(exc), exc.line
    return trace_bits(trace)


def test_load_trace_matches_the_row_by_row_loader_on_damaged_csvs(tmp_path):
    rng = random.Random(15)
    p = tmp_path / "t.csv"
    outcomes = set()
    for _ in range(600):
        p.write_bytes(damaged_csv(rng).encode())
        expected = load_outcome(load_trace_rows, p)
        assert load_outcome(load_trace, p) == expected, p.read_bytes()
        outcomes.add(re.sub(r"\d", "", expected[1]) if len(expected) == 3 else "trace")
    assert len(outcomes) == 9  # a trace and each of the eight error kinds


def test_loading_a_long_trace_peaks_under_eight_times_its_size(tmp_path):
    rng = random.Random(20001)
    times = tuple(k * 0.01 for k in range(20001))
    trace = Trace(times, {f"c{j}": tuple(round(rng.uniform(-10, 10), 8) for _ in times)
                          for j in range(1, 6)})
    p = tmp_path / "long.csv"
    write_trace(trace, p)
    tracemalloc.start()
    try:
        loaded = load_trace(p)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace_bits(loaded) == trace_bits(trace)
    assert peak < 8 * p.stat().st_size
    # packed: a double per value, not a float object and a pointer to it
    assert held <= 9 * len(times) * 6


def test_variable_table_invariants():
    with pytest.raises(MalformedDescription):
        VariableTable((VariableDescriptor("", 0, "Real", "local", None),))
    with pytest.raises(MalformedDescription):
        VariableTable((VariableDescriptor("k", 0, "Real", "parameter", None),))
