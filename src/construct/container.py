"""FMU-like container loading: variable descriptions, sources, traces.

A container is a plain directory (kept unzipped so fixtures stay
diffable):

    modelDescription.xml     variable names, types, causalities, starts
    sources/*.c              decompiled C text
    traces/input.csv         optional input trace
    traces/reference.csv     optional reference output trace
    rules.toml               optional normalization settings

Only the ModelVariables/ScalarVariable subset of the description format
is read; unrecognized elements and attributes are ignored, not errors.
A trace holds one value per time in each column (Trace), so a consumer
of its columns checks only which columns it has.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, repeat
from operator import eq, lt
from pathlib import Path

from construct.errors import ConstructError

CAUSALITIES = ("input", "output", "parameter", "local")
VTYPES = ("Real", "Integer", "Boolean")


class ContainerError(ConstructError):
    pass


class MissingDescription(ContainerError):
    pass


class MissingSources(ContainerError):
    pass


class UndecodableText(ContainerError):
    pass


class MalformedDescription(ContainerError):
    def __init__(self, reason: str, line: int | None = None):
        self.reason = reason
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"malformed model description{where}: {reason}")


class MalformedTrace(ContainerError):
    def __init__(self, reason: str, line: int | None = None):
        self.reason = reason
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"malformed trace{where}: {reason}")


@dataclass(frozen=True)
class VariableDescriptor:
    name: str
    value_reference: int
    vtype: str  # Real | Integer | Boolean
    causality: str  # input | output | parameter | local
    start: float | int | bool | None = None


@dataclass(frozen=True)
class VariableTable:
    """Ordered variable list; positions are stable and gene values refer
    to them."""

    variables: tuple

    def __post_init__(self):
        seen_names = set()
        seen_refs = set()
        for v in self.variables:
            if not v.name:
                raise MalformedDescription("empty variable name")
            if v.name in seen_names:
                raise MalformedDescription(f"duplicate variable name {v.name!r}")
            if v.value_reference in seen_refs:
                raise MalformedDescription(
                    f"duplicate valueReference {v.value_reference} ({v.name!r})")
            if v.value_reference < 0:
                raise MalformedDescription(f"negative valueReference on {v.name!r}")
            if v.vtype not in VTYPES:
                raise MalformedDescription(f"unknown type {v.vtype!r} on {v.name!r}")
            if v.causality not in CAUSALITIES:
                raise MalformedDescription(f"unknown causality {v.causality!r} on {v.name!r}")
            if v.causality == "parameter" and v.start is None:
                raise MalformedDescription(f"parameter {v.name!r} lacks a start value")
            seen_names.add(v.name)
            seen_refs.add(v.value_reference)

    @cached_property
    def index(self) -> dict:
        return {v.name: i for i, v in enumerate(self.variables)}

    @cached_property
    def by_name(self) -> dict:
        return {v.name: v for v in self.variables}

    @cached_property
    def io(self) -> tuple:
        """The input and output variables, in table order."""
        return tuple(v for v in self.variables if v.causality in ("input", "output"))


@dataclass(frozen=True)
class Trace:
    """Time-indexed series of named signal values: the times and each
    column, a sequence of floats with one value per time, else
    MalformedTrace naming the column. A loaded trace holds each as an
    array('d'), 8 bytes per value; simulate records its outputs the same
    way."""

    times: Sequence[float]
    columns: dict  # name -> Sequence[float]

    def __post_init__(self):
        for name, column in self.columns.items():
            if len(column) != len(self.times):
                raise MalformedTrace(
                    f"column {name!r} has {len(column)} values for {len(self.times)} times")


@dataclass(frozen=True)
class ContainerModel:
    variable_table: VariableTable
    sources: tuple  # of (filename, text)
    reference_trace: Trace | None = None
    input_trace: Trace | None = None
    root: Path | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.sources:
            raise MissingSources("container has no source files")


def _parse_start(text: str, vtype: str, name: str):
    try:
        if vtype == "Real":
            value = float(text)
            if not math.isfinite(value):
                raise MalformedDescription(
                    f"non-finite start {text!r} for Real variable {name!r}")
            return value
        if vtype == "Integer":
            value = int(text)
            float(value)  # simulated as a float: OverflowError past its range
            return value
        if text == "true":
            return True
        if text == "false":
            return False
        raise ValueError(text)
    except ValueError:
        raise MalformedDescription(
            f"unparseable start {text!r} for {vtype} variable {name!r}") from None
    except OverflowError:
        raise MalformedDescription(
            f"start of Integer variable {name!r} is beyond the float range") from None


def parse_model_description(text: str) -> VariableTable:
    """Parse the ModelVariables section of a description document.

    Document order is preserved: variables[i] corresponds to the i-th
    ScalarVariable. Causality defaults to local, the type is read from
    the child element name, and start attributes are parsed with the
    declared type. Unsupported content is ignored.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else None
        raise MalformedDescription(str(exc), line) from None

    model_vars = root.find("ModelVariables")
    if model_vars is None:
        raise MalformedDescription("no ModelVariables element")

    variables = []
    for sv in model_vars:
        if sv.tag != "ScalarVariable":
            continue
        name = sv.get("name")
        if name is None:
            raise MalformedDescription("ScalarVariable without a name")
        vr_text = sv.get("valueReference")
        if vr_text is None:
            raise MalformedDescription(f"variable {name!r} lacks valueReference")
        try:
            vr = int(vr_text)
        except ValueError:
            raise MalformedDescription(
                f"non-integer valueReference {vr_text!r} on {name!r}") from None
        causality = sv.get("causality", "local")
        if causality not in CAUSALITIES:
            raise MalformedDescription(f"unknown causality {causality!r} on {name!r}")
        type_elems = list(sv)
        if not type_elems:
            raise MalformedDescription(f"variable {name!r} has no type element")
        elem = type_elems[0]
        if elem.tag not in VTYPES:
            raise MalformedDescription(f"unknown type element {elem.tag!r} on {name!r}")
        start = None
        if "start" in elem.keys():
            start = _parse_start(elem.get("start"), elem.tag, name)
        variables.append(VariableDescriptor(name, vr, elem.tag, causality, start))
    return VariableTable(tuple(variables))


def read_text(path: Path, newline: str | None = None) -> str:
    r"""The text of a container file, which must be UTF-8, with line
    endings read as open() reads them: by default \n, \r\n and \r all end
    a line and are read as \n; with newline="" the text is as stored."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise UndecodableText(f"{path}: not UTF-8 text (byte {exc.start})") from None


# float also reads "_" between digits, whitespace around a number and the
# digits of other scripts; a cell holds none of them. These are "_" and
# the ASCII characters str.isspace accepts in a line of a trace, where
# only \n ends a line.
_NOT_IN_CELLS = "_ \t\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _cell(text: str) -> float:
    """The number in a trace cell: what float reads, in ASCII, with no
    "_" and no surrounding whitespace; ValueError otherwise."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not a trace number: {text!r}")
    return float(text)


def load_trace(path: Path | str) -> Trace:
    r"""Load a CSV trace: header ``time,<name>,...``, finite numeric
    cells (see _cell), strictly increasing time; blank lines are
    skipped. An error names its line of the file; the first reported is
    the first row with a wrong cell count, else a non-numeric cell, then
    the first non-finite cell by column, then the first time that does
    not increase. Only \n ends a line: \r\n is read as \n, and any other
    \r is part of its line. The cells are checked as parsed floats and
    then packed: the times and each column are an array('d'), every
    value with its bits."""
    path = Path(path)
    text = read_text(path, newline="")
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    rows = list(filter(None, lines))

    def fault(reason: str, row: int | None = None) -> MalformedTrace:
        """The error of rows[row], on the line of the file it came from."""
        line = None if row is None else [k for k, ln in enumerate(lines, 1) if ln][row]
        return MalformedTrace(f"{path.name}{reason}", line)

    if not rows:
        raise fault(" is empty")
    header = rows[0].split(",")
    names, width, body = header[1:], len(header), rows[1:]
    if header[0] != "time":
        raise fault(": first column must be 'time'", 0)
    if len(set(names)) != len(names):
        raise fault(": duplicate column names", 0)
    body_at = text.index(rows[0]) + len(rows[0])
    # in an ASCII body free of _NOT_IN_CELLS, float reads each cell as _cell does
    plain = text.isascii() and all(text.find(c, body_at) < 0 for c in _NOT_IN_CELLS)
    del text  # not held while the cells are parsed, when memory peaks
    try:
        if not all(map(eq, map(str.count, body, repeat(",")), repeat(width - 1))):
            raise ValueError  # a wrong cell count: find the first bad row below
        cells = list(map(float if plain else _cell,
                         chain.from_iterable(map(str.split, body, repeat(",")))))
    except ValueError:
        for row, row_cells in enumerate(map(str.split, body, repeat(",")), start=1):
            if len(row_cells) != width:
                raise fault(f": row has {len(row_cells)} cells, expected {width}", row) from None
            try:
                list(map(_cell, row_cells))
            except ValueError:
                raise fault(": non-numeric cell", row) from None
    if len(body) < 2:
        raise fault(": fewer than 2 data rows")
    if not all(map(math.isfinite, cells)):
        for j in range(width):
            finite = list(map(math.isfinite, cells[j::width]))
            if not all(finite):
                raise fault(": non-finite cell", 1 + finite.index(False))
    times = cells[::width]
    if not all(map(lt, times, islice(times, 1, None))):
        k = list(map(lt, times, times[1:])).index(False)  # times[k + 1] <= times[k]
        raise fault(": time not strictly increasing", k + 2)
    del lines, rows, body  # every check has passed: the lines go before the packing
    columns = [array("d", cells[j::width]) for j in range(width)]
    return Trace(columns[0], dict(zip(names, columns[1:])))


def write_trace(trace: Trace, path: Path | str) -> None:
    """Write a trace as CSV: its times and columns may be any sequences
    of floats. Floats use shortest round-trip formatting, so
    load_trace(write_trace(t)) reproduces t bit-exactly. A column name
    holding a comma or a line break would not read back, so it is
    refused before the file is opened."""
    for name in trace.columns:
        if any(c in name for c in ",\n\r"):
            raise ContainerError(f"cannot write column {name!r} to a trace: "
                                 f"a column name holds no comma and no line break")
    cells = (map(repr, column) for column in (trace.times, *trace.columns.values()))
    rows = map(",".join, zip(*cells))
    Path(path).write_text("\n".join(chain([",".join(("time", *trace.columns))], rows, [""])))


def load_container(path: Path | str) -> ContainerModel:
    """Load and validate a container directory."""
    root = Path(path)
    desc = root / "modelDescription.xml"
    if not desc.is_file():
        raise MissingDescription(f"{desc} not found")
    src_dir = root / "sources"
    if not src_dir.is_dir():
        raise MissingSources(f"{src_dir} not found")
    table = parse_model_description(read_text(desc))
    sources = tuple(
        (p.name, read_text(p)) for p in sorted(src_dir.glob("*.c")))
    if not sources:
        raise MissingSources(f"no .c files under {src_dir}")
    input_trace = None
    reference_trace = None
    if (root / "traces" / "input.csv").is_file():
        input_trace = load_trace(root / "traces" / "input.csv")
    if (root / "traces" / "reference.csv").is_file():
        reference_trace = load_trace(root / "traces" / "reference.csv")
    return ContainerModel(table, sources, reference_trace, input_trace, root=root)
