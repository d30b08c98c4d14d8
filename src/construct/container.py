"""FMU-like container loading: variable descriptions, sources, traces.

A container is a plain directory (kept unzipped so fixtures stay
diffable):

    modelDescription.xml     variable names, types, causalities, starts
    sources/*.c              decompiled C text
    traces/input.csv         optional input trace
    traces/reference.csv     optional reference output trace
    rules.toml               optional normalization settings

Only the ModelVariables/ScalarVariable subset of the description format
is read; unrecognized elements and attributes are collected as warnings,
not errors.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
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

    @property
    def index(self) -> dict:
        return {v.name: i for i, v in enumerate(self.variables)}

    def __len__(self) -> int:
        return len(self.variables)

    def __getitem__(self, i: int) -> VariableDescriptor:
        return self.variables[i]


@dataclass(frozen=True)
class Trace:
    """Time-indexed series of named signal values."""

    times: tuple
    columns: dict

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class ContainerModel:
    variable_table: VariableTable
    sources: tuple  # of (filename, text)
    reference_trace: Trace | None = None
    input_trace: Trace | None = None
    warnings: tuple = ()
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
            return int(text)
        if text == "true":
            return True
        if text == "false":
            return False
        raise ValueError(text)
    except ValueError:
        raise MalformedDescription(
            f"unparseable start {text!r} for {vtype} variable {name!r}") from None


def parse_model_description(text: str, warnings: list | None = None) -> VariableTable:
    """Parse the ModelVariables section of a description document.

    Document order is preserved: variables[i] corresponds to the i-th
    ScalarVariable. Causality defaults to local, the type is read from
    the child element name, and start attributes are parsed with the
    declared type. Unsupported content is appended to `warnings`.
    """
    sink = warnings if warnings is not None else []
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else None
        raise MalformedDescription(str(exc), line) from None

    model_vars = root.find("ModelVariables")
    if model_vars is None:
        raise MalformedDescription("no ModelVariables element")

    known_attrs = {"name", "valueReference", "causality"}
    variables = []
    for sv in model_vars:
        if sv.tag != "ScalarVariable":
            sink.append(f"ignored element {sv.tag!r} in ModelVariables")
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
        for attr in sv.keys():
            if attr not in known_attrs:
                sink.append(f"ignored attribute {attr!r} on variable {name!r}")
        type_elems = list(sv)
        if not type_elems:
            raise MalformedDescription(f"variable {name!r} has no type element")
        elem = type_elems[0]
        for extra in type_elems[1:]:
            sink.append(f"ignored extra element {extra.tag!r} on variable {name!r}")
        if elem.tag not in VTYPES:
            raise MalformedDescription(f"unknown type element {elem.tag!r} on {name!r}")
        start = None
        if "start" in elem.keys():
            start = _parse_start(elem.get("start"), elem.tag, name)
        for attr in elem.keys():
            if attr != "start":
                sink.append(f"ignored attribute {attr!r} on {elem.tag} of {name!r}")
        variables.append(VariableDescriptor(name, vr, elem.tag, causality, start))
    return VariableTable(tuple(variables))


def read_text(path: Path) -> str:
    """The text of a container file, which must be UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableText(f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_trace(path: Path | str) -> Trace:
    """Load a CSV trace: header ``time,<name>,...``, finite numeric
    cells, strictly increasing time."""
    path = Path(path)
    text = read_text(path)
    lines = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln != ""]
    if not lines:
        raise MalformedTrace(f"{path.name} is empty")
    header = lines[0].split(",")
    if header[0] != "time":
        raise MalformedTrace(f"{path.name}: first column must be 'time'", line=1)
    names = header[1:]
    if len(set(names)) != len(names):
        raise MalformedTrace(f"{path.name}: duplicate column names", line=1)
    times = []
    cols = {name: [] for name in names}
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise MalformedTrace(
                f"{path.name}: row has {len(cells)} cells, expected {len(header)}", line=lineno)
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise MalformedTrace(f"{path.name}: non-numeric cell", line=lineno) from None
        times.append(row[0])
        for name, val in zip(names, row[1:]):
            cols[name].append(val)
    if len(times) < 2:
        raise MalformedTrace(f"{path.name}: fewer than 2 data rows")
    for column in (times, *cols.values()):
        if not all(map(math.isfinite, column)):
            k = next(k for k, v in enumerate(column) if not math.isfinite(v))
            raise MalformedTrace(f"{path.name}: non-finite cell", line=k + 2)
    for i in range(1, len(times)):
        if not times[i] > times[i - 1]:
            raise MalformedTrace(
                f"{path.name}: time not strictly increasing", line=i + 2)
    return Trace(tuple(times), {n: tuple(vs) for n, vs in cols.items()})


def write_trace(trace: Trace, path: Path | str) -> None:
    """Write a trace as CSV. Floats use shortest round-trip formatting,
    so load_trace(write_trace(t)) reproduces t bit-exactly."""
    path = Path(path)
    names = list(trace.columns)
    lines = ["time," + ",".join(names)]
    for k, t in enumerate(trace.times):
        cells = [repr(t)] + [repr(trace.columns[n][k]) for n in names]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def load_container(path: Path | str) -> ContainerModel:
    """Load and validate a container directory."""
    root = Path(path)
    desc = root / "modelDescription.xml"
    if not desc.is_file():
        raise MissingDescription(f"{desc} not found")
    src_dir = root / "sources"
    if not src_dir.is_dir():
        raise MissingSources(f"{src_dir} not found")
    warnings: list = []
    table = parse_model_description(read_text(desc), warnings)
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
    return ContainerModel(table, sources, reference_trace, input_trace,
                          tuple(warnings), root=root)
