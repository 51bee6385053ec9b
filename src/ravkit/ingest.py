"""Parsers for the three input artifacts: scope JSON, scanner XML, applicant CSV.

Scope documents use the ``ravkit-scope/1`` JSON schema (see
``docs/formats.md``): unknown fields are rejected with their JSON path,
missing counts default to zero, and ``parse_scope_document`` round-trips
with :func:`render_scope_document` on canonical documents.

The scanner import reads the documented subset of nmap-style XML output:
host status and port state only.  Visibility is the number of hosts with
``up`` status, access the number of ``open`` ports, trust is never
derivable from a scan; everything else is ignored but tallied in the
diagnostics.  Parsers only ever raise structured errors, never crash on
arbitrary bytes, and never silently return zero counts for unknown input.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping, Sequence, Union

from .errors import (
    CsvFormatError,
    DigitLimitError,
    DomainError,
    InputError,
    ScanFormatError,
    ScopeFormatError,
)
from .metrics import (
    AGGREGATE_CHANNEL,
    CHANNELS,
    LIMITATION_CATEGORIES,
    UNIT_KINDS,
    ControlClass,
    ControlCounts,
    LimitationCounts,
    PorosityCounts,
    Scope,
)

if TYPE_CHECKING:
    from .trust import ApplicantRecord

SCOPE_SCHEMA = "ravkit-scope/1"

# The keys each object of a scope document may have.
_DOCUMENT_KEYS = frozenset(("schema", "scopes"))
_SCOPE_KEYS = frozenset(
    ("id", "channel", "vector", "index", "porosity", "controls", "limitations", "units")
)
_POROSITY_KEYS = frozenset(("visibility", "access", "trust"))
_CONTROL_KEYS = frozenset(cls.value for cls in ControlClass)
_LIMITATION_KEYS = frozenset(LIMITATION_CATEGORIES)
_UNIT_KEYS = frozenset(UNIT_KINDS)
_SCOPE_CHANNELS = frozenset((*CHANNELS, AGGREGATE_CHANNEL))
#: Stands in for an absent count group or unit map; never mutated.
_EMPTY_OBJECT: dict = {}


@dataclass(frozen=True, slots=True)
class ScopeEntry:
    """One scope plus its optional unit-variable names for symbolic mode."""

    scope: Scope
    units: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ScopeDocument:
    entries: tuple[ScopeEntry, ...]

    @property
    def scopes(self) -> list[Scope]:
        return [entry.scope for entry in self.entries]


def load_json(text: str, error: type[InputError], what: str) -> Any:
    """``json.loads`` whose every failure is raised as ``error``: a syntax
    error, an integer past the int-digit limit, or nesting past the
    recursion limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:
        # json.loads refuses integers past the interpreter's int-digit limit.
        raise error(
            f"{what}: a number has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise error(f"{what}: nested too deeply") from None


def _expect_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScopeFormatError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_count(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScopeFormatError(f"{path}: expected an integer count, got {value!r}")
    if value < 0:
        raise ScopeFormatError(f"{path}: count must be >= 0, got {value}")
    return value


def _expect_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ScopeFormatError(f"{path}: expected a string, got {value!r}")
    if not value.isascii():
        _expect_text(value, path)
    return value


def _expect_text(text: str, path: str, what: str = "string") -> None:
    """Reject a lone surrogate (a JSON ``\\ud800`` escape): no report could
    write it as UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ScopeFormatError(
            f"{path}: {what} has a lone surrogate {text[exc.start]!r} at index {exc.start}"
        ) from None


def _reject_unknown(obj: dict, allowed: frozenset, path: str, what: str = "field(s)") -> None:
    if not obj.keys() <= allowed:
        unknown = sorted(obj.keys() - allowed)
        for name in unknown:
            _expect_text(name, path, "field name")
        raise ScopeFormatError(f"{path}: unknown {what} {', '.join(unknown)}")


# The two readers below check one member of a scope object in one pass, and
# build its JSON path only for an error message.


def _string_member(obj: dict, key: str, default: str, path: str) -> str:
    value = obj.get(key, default)
    if type(value) is not str or not value.isascii():
        _expect_string(value, f"{path}.{key}")
    return value


def _count_member(obj: dict, key: str, allowed: frozenset, path: str) -> dict[str, int]:
    """A count group, checked item by item; the parsed object itself is returned."""
    group = obj.get(key, _EMPTY_OBJECT)
    if type(group) is not dict or not group.keys() <= allowed:
        _reject_unknown(_expect_object(group, f"{path}.{key}"), allowed, f"{path}.{key}")
    for name, value in group.items():
        if type(value) is not int or value < 0:
            _expect_count(value, f"{path}.{key}.{name}")
    return group


def parse_scope_document(data: Union[bytes, str]) -> ScopeDocument:
    """Parse a ``ravkit-scope/1`` document into scopes with unit maps."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScopeFormatError(f"scope file is not valid UTF-8: {exc}") from None
    doc = _expect_object(load_json(data, ScopeFormatError, "invalid JSON"), "$")
    _reject_unknown(doc, _DOCUMENT_KEYS, "$")
    if doc.get("schema") != SCOPE_SCHEMA:
        raise ScopeFormatError(
            f"$.schema: expected {SCOPE_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    scopes_raw = doc.get("scopes")
    if not isinstance(scopes_raw, list):
        raise ScopeFormatError("$.scopes: expected a list")
    entries = []
    for i, raw in enumerate(scopes_raw):
        entries.append(_parse_scope_obj(raw, f"$.scopes[{i}]"))
    return ScopeDocument(entries=tuple(entries))


def _parse_scope_obj(raw: Any, path: str) -> ScopeEntry:
    obj = _expect_object(raw, path)
    _reject_unknown(obj, _SCOPE_KEYS, path)
    if "id" not in obj:
        raise ScopeFormatError(f"{path}: missing required field 'id'")
    scope_id = _string_member(obj, "id", "", path)
    channel = _string_member(obj, "channel", "data-network", path)
    if channel not in _SCOPE_CHANNELS:
        raise ScopeFormatError(
            f"{path}.channel: unknown channel {channel!r}; expected one of "
            f"{', '.join(CHANNELS)} (or {AGGREGATE_CHANNEL!r})"
        )
    vector = _string_member(obj, "vector", "", path)
    index = _string_member(obj, "index", "", path)
    porosity = _count_member(obj, "porosity", _POROSITY_KEYS, path)
    controls = _count_member(obj, "controls", _CONTROL_KEYS, path)
    limitations = _count_member(obj, "limitations", _LIMITATION_KEYS, path)

    units_obj = _expect_object(obj.get("units", _EMPTY_OBJECT), f"{path}.units")
    _reject_unknown(units_obj, _UNIT_KEYS, f"{path}.units", "count kind(s)")
    units = {kind: _expect_string(name, f"{path}.units.{kind}") for kind, name in units_obj.items()}

    try:
        scope = Scope(
            id=scope_id,
            channel=channel,
            vector=vector,
            index=index,
            porosity=PorosityCounts(**porosity),
            controls=ControlCounts.from_mapping(controls),
            limitations=LimitationCounts(**limitations),
        )
    except DomainError as exc:
        raise ScopeFormatError(f"{path}: {exc}") from None
    return ScopeEntry(scope=scope, units=units)


def parse_scope_file(data: Union[bytes, str]) -> list[Scope]:
    """Parse a scope document and return just the validated scopes."""
    return parse_scope_document(data).scopes


def scope_to_obj(scope: Scope, units: Mapping[str, str] | None = None) -> dict:
    """The JSON object form of one scope (all counts explicit)."""
    obj: dict[str, Any] = {
        "id": scope.id,
        "channel": scope.channel,
        "vector": scope.vector,
        "index": scope.index,
        "porosity": scope.porosity.as_dict(),
        "controls": {cls.value: scope.controls.get(cls) for cls in ControlClass},
        "limitations": scope.limitations.as_dict(),
    }
    if units:
        obj["units"] = dict(units)
    return obj


def render_scope_document(
    document: Union[ScopeDocument, Sequence[Scope]],
) -> bytes:
    """Canonical rendering of scopes as a ``ravkit-scope/1`` document."""
    if isinstance(document, ScopeDocument):
        entries = document.entries
    else:
        entries = tuple(ScopeEntry(scope=s) for s in document)
    doc = {
        "schema": SCOPE_SCHEMA,
        "scopes": [scope_to_obj(e.scope, e.units or None) for e in entries],
    }
    try:
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    except ValueError:
        # A merged count can pass the int-digit limit its parts were under.
        raise DigitLimitError() from None


# ---------------------------------------------------------------------------
# Scanner XML
# ---------------------------------------------------------------------------

#: Elements the importer reads; everything else is ignored but counted.
SCAN_ELEMENTS = ("nmaprun", "host", "status", "ports", "port", "state")


@dataclass(frozen=True, slots=True)
class ScanReport:
    """Porosity derived from one scan plus import diagnostics."""

    porosity: PorosityCounts
    hosts_up: int
    hosts_total: int
    open_ports: int
    ignored_elements: Mapping[str, int]


def import_scan_report(data: Union[bytes, str]) -> ScanReport:
    """Parse the scanner XML subset and count hosts/ports."""
    import xml.etree.ElementTree as ElementTree

    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise ScanFormatError(f"malformed scanner XML: {exc}") from None
    if root.tag != "nmaprun":
        raise ScanFormatError(
            f"unknown scanner schema: expected <nmaprun> root, got <{root.tag}>"
        )
    version = root.get("xmloutputversion")
    if version is not None and not version.startswith("1."):
        raise ScanFormatError(f"unsupported scanner XML output version {version!r}")

    hosts_total = 0
    hosts_up = 0
    open_ports = 0
    ignored: dict[str, int] = {}
    for element in root.iter():
        if element.tag not in SCAN_ELEMENTS:
            ignored[element.tag] = ignored.get(element.tag, 0) + 1
    for host in root.findall("host"):
        hosts_total += 1
        status = host.find("status")
        if status is not None and status.get("state") == "up":
            hosts_up += 1
        ports = host.find("ports")
        if ports is None:
            continue
        for port in ports.findall("port"):
            state = port.find("state")
            if state is not None and state.get("state") == "open":
                open_ports += 1
    porosity = PorosityCounts(visibility=hosts_up, access=open_ports, trust=0)
    return ScanReport(
        porosity=porosity,
        hosts_up=hosts_up,
        hosts_total=hosts_total,
        open_ports=open_ports,
        ignored_elements=dict(sorted(ignored.items())),
    )


def import_scan_xml(data: Union[bytes, str]) -> PorosityCounts:
    """Porosity counts from a scan: up hosts, open ports, and zero trust."""
    return import_scan_report(data).porosity


def merge_scan_into_scope(porosity: PorosityCounts, scope: Scope) -> Scope:
    """Add scanned porosity onto a scope, keeping its other counts and labels.

    Addition (rather than replacement) lets the scope file carry
    analyst-supplied counts a scan cannot see, such as trust.
    """
    merged = PorosityCounts(
        visibility=scope.porosity.visibility + porosity.visibility,
        access=scope.porosity.access + porosity.access,
        trust=scope.porosity.trust + porosity.trust,
    )
    return Scope(
        id=scope.id,
        channel=scope.channel,
        vector=scope.vector,
        index=scope.index,
        porosity=merged,
        controls=scope.controls,
        limitations=scope.limitations,
    )


# ---------------------------------------------------------------------------
# Applicant CSV
# ---------------------------------------------------------------------------

_CSV_INT_COLUMNS = (
    "months_unemployed",
    "months_eligible",
    "criminal_offenses_known",
    "age_years",
    "legal_adult_age",
    "references_positive",
    "references_neutral",
    "references_negative",
    "past_employer_count",
    "employees_in_community",
    "community_population",
)
_CSV_RATIONAL_COLUMNS = ("hours_alone_per_day", "working_hours_per_day")
CSV_COLUMNS = ("applicant_id",) + _CSV_INT_COLUMNS + _CSV_RATIONAL_COLUMNS


def parse_applicants_csv(
    data: Union[bytes, str], required_columns: Sequence[str] = ()
) -> list[ApplicantRecord]:
    """Parse applicant records from CSV with a header row.

    Header names must all be known columns; absent columns default to zero
    (``legal_adult_age`` defaults to 18).  References are encoded as counts
    of positive/neutral/negative.  Row-level problems are collected and
    reported together with their line numbers.
    """
    import csv

    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"applicant CSV is not valid UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(data))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError("applicant CSV has no header row") from None
    except csv.Error as exc:
        raise CsvFormatError(f"malformed CSV: {exc}") from None
    header = [h.strip() for h in header]
    unknown = sorted(set(header) - set(CSV_COLUMNS))
    if unknown:
        raise CsvFormatError(f"unknown column(s): {', '.join(unknown)}")
    if len(set(header)) != len(header):
        raise CsvFormatError("duplicate column names in header")
    missing = sorted(set(required_columns) - set(header))
    if missing:
        raise CsvFormatError(f"missing required column(s): {', '.join(missing)}")

    records: list[ApplicantRecord] = []
    errors: list[str] = []
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise CsvFormatError(f"malformed CSV: {exc}") from None
    for line_no, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) > len(header):
            errors.append(f"line {line_no}: more cells than header columns")
            continue
        cells = {name: row[i].strip() if i < len(row) else "" for i, name in enumerate(header)}
        try:
            records.append(_record_from_cells(cells, line_no))
        except (CsvFormatError, DomainError, ValueError) as exc:
            errors.append(f"line {line_no}: {exc}")
    if errors:
        raise CsvFormatError("; ".join(errors))
    return records


def _record_from_cells(cells: Mapping[str, str], line_no: int) -> ApplicantRecord:
    from .trust import ApplicantRecord, Polarity, Reference

    def int_cell(name: str, default: int = 0) -> int:
        text = cells.get(name, "")
        if text == "":
            return default
        try:
            return int(text)
        except ValueError:
            raise CsvFormatError(f"column {name!r}: not an integer count: {text!r}") from None

    def rational_cell(name: str) -> Fraction:
        text = cells.get(name, "")
        if text == "":
            return Fraction(0)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise CsvFormatError(f"column {name!r}: not a rational number: {text!r}") from None

    # One Reference is built per counted reference, so the counts are
    # checked the way ApplicantRecord checks them before any is built.
    columns = {polarity: f"references_{polarity.value}" for polarity in Polarity}
    counts = {name: int_cell(name) for name in (*columns.values(), "past_employer_count")}
    for name, count in counts.items():
        if count < 0:
            raise DomainError(f"{name} must be a non-negative integer, got {count!r}")
    past_employer_count = counts.pop("past_employer_count")
    total = sum(counts.values())
    if past_employer_count == 0 and total:
        raise DomainError("references require at least one past employer")
    if past_employer_count < total:
        raise DomainError("more references than past employers")
    references = [
        Reference(f"{polarity.value}-{i + 1}", polarity)
        for polarity, name in columns.items()
        for i in range(counts[name])
    ]

    return ApplicantRecord(
        applicant_id=cells.get("applicant_id", "") or f"row-{line_no}",
        months_unemployed=int_cell("months_unemployed"),
        months_eligible=int_cell("months_eligible"),
        criminal_offenses_known=int_cell("criminal_offenses_known"),
        age_years=int_cell("age_years"),
        legal_adult_age=int_cell("legal_adult_age", default=18),
        references=tuple(references),
        past_employer_count=past_employer_count,
        hours_alone_per_day=rational_cell("hours_alone_per_day"),
        working_hours_per_day=rational_cell("working_hours_per_day"),
        employees_in_community=int_cell("employees_in_community"),
        community_population=int_cell("community_population"),
    )
