"""Parsers for the three input artifacts: scope JSON, scanner XML, applicant CSV.

Scope documents use the ``ravkit-scope/1`` JSON schema (see
``docs/formats.md``): unknown fields are rejected with their JSON path,
missing counts default to zero, and ``parse_scope_document`` round-trips
with :func:`render_scope_document` on canonical documents.

Each value is checked once, by the parser, in the order the format
documents.  The records are then built from the checked values directly,
through ``Record._trusted``, so no constructor checks a value again.  The
applicant CSV is parsed row by row as the ``csv`` reader yields it; a row
whose cells parse is checked by ``trust._checked``, the function the public
``ApplicantRecord`` constructor calls, where its ints and ``Fraction``
hours pass the type checks at once.

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
from fractions import Fraction
from operator import add, itemgetter
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Union

from .errors import (
    CsvFormatError,
    DigitLimitError,
    DomainError,
    InputError,
    ScanFormatError,
    ScopeFormatError,
    shown,
)
from .metrics import (
    AGGREGATE_CHANNEL,
    CHANNELS,
    LIMITATION_CATEGORIES,
    UNIT_KINDS,
    _EMPTY_SCOPE_ID,
    _check_label,
    _NO_CONTROLS,
    _NO_LIMITATIONS,
    _NO_POROSITY,
    _POROSITY_FIELDS,
    ControlClass,
    ControlCounts,
    LimitationCounts,
    PorosityCounts,
    Record,
    Scope,
    _exact,
    _porosity_counts,
    _unknown_channel,
)

if TYPE_CHECKING:
    from .trust import ApplicantRecord

SCOPE_SCHEMA = "ravkit-scope/1"

# The keys each object of a scope document may have.
_DOCUMENT_KEYS = frozenset(("schema", "scopes"))
_SCOPE_KEYS = frozenset(
    ("id", "channel", "vector", "index", "porosity", "controls", "limitations", "units")
)
_UNIT_KEYS = frozenset(UNIT_KINDS)
_SCOPE_CHANNELS = frozenset((*CHANNELS, AGGREGATE_CHANNEL))
#: Stands in for an absent count group; never mutated.
_EMPTY_OBJECT: dict = {}


def _count_group(record: type[Record], names: tuple[str, ...], none: Record) -> tuple:
    """How a count group is read: its record class, the JSON names of the
    record's fields in slot order, those names as a set and as one getter,
    and the record of an absent or empty group."""
    return record, names, frozenset(names), itemgetter(*names), none


_POROSITY_GROUP = _count_group(PorosityCounts, _POROSITY_FIELDS, _NO_POROSITY)
_CONTROL_GROUP = _count_group(
    ControlCounts, tuple(cls.value for cls in ControlClass), _NO_CONTROLS
)
_LIMITATION_GROUP = _count_group(LimitationCounts, LIMITATION_CATEGORIES, _NO_LIMITATIONS)


class ScopeEntry(Record):
    """One scope plus its optional unit-variable names for symbolic mode.

    ``units`` defaults to a new empty mapping.  The constructor refuses what
    the scope parser refuses in a unit map: a kind outside ``UNIT_KINDS``,
    and a name that is not a ``str`` or has a lone surrogate.  It keeps a
    copy of the map it checked, so a later change to the caller's map
    cannot reach the entry.
    """

    __slots__ = __match_args__ = ("scope", "units")
    scope: Scope
    units: Mapping[str, str]

    def __init__(self, scope: Scope, units: Mapping[str, str] | None = None) -> None:
        units = {} if units is None else units
        for kind, name in units.items():
            if kind not in _UNIT_KEYS:
                raise DomainError(
                    f"unknown count kind {kind!r} in units; expected one of {', '.join(UNIT_KINDS)}"
                )
            _check_label(f"unit variable for {kind!r}", name)
        self.__setstate__((scope, dict(units)))


class ScopeDocument(Record):
    """The scope entries of one ``ravkit-scope/1`` document, in file order."""

    __slots__ = __match_args__ = ("entries",)
    entries: tuple[ScopeEntry, ...]

    def __init__(self, entries: tuple[ScopeEntry, ...]) -> None:
        self.__setstate__((entries,))


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


def parse_rational(text: str, what: str) -> Fraction:
    """``Fraction(text)`` for one input value, or an :class:`InputError`
    naming ``what``.

    A decimal exponent past the int-digit limit is refused before the
    ``Fraction`` is built: ``1e10000000`` is ten characters, but its power
    of ten takes seconds to compute, and the same number written out in
    digits would be refused anyway.
    """
    _, e, exponent = text.upper().partition("E")
    if e:
        limit = sys.get_int_max_str_digits()
        try:
            huge = limit and abs(int(exponent)) > limit
        except ValueError:
            huge = False  # not an exponent Fraction accepts: reported below
        if huge:
            raise InputError(
                f"{what}: decimal exponent past {limit}, far outside the float range: {text!r}"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{what}: not a rational number: {text!r}") from None


def _expect_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScopeFormatError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_count(value: Any, path: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScopeFormatError(f"{path}: expected an integer count, got {value!r}")
    if value < 0:
        raise ScopeFormatError(f"{path}: count must be >= 0, got {value}")


def _expect_string(value: Any, path: str) -> None:
    if not isinstance(value, str):
        raise ScopeFormatError(f"{path}: expected a string, got {value!r}")
    _expect_text(value, path)


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
        raise ScopeFormatError(f"{path}: unknown {what} {', '.join(map(shown, unknown))}")


# The readers below check one member of a scope object in one pass.  Their
# errors name a path relative to the scope object, built only when one is
# raised; the caller puts the scope's own path in front.


def _string_member(obj: dict, key: str, default: str) -> str:
    value = obj.get(key, default)
    if type(value) is not str or not value.isascii():
        _expect_string(value, f".{key}")
    return value


def _count_member(obj: dict, key: str, group: tuple) -> Record:
    """A count group, checked item by item in document order, as its record."""
    record, names, allowed, by_name, none = group
    counts = obj.get(key, _EMPTY_OBJECT)
    if type(counts) is not dict or not counts.keys() <= allowed:
        _reject_unknown(_expect_object(counts, f".{key}"), allowed, f".{key}")
    if not counts:
        return none
    for name, value in counts.items():
        if type(value) is not int or value < 0:
            _expect_count(value, f".{key}.{name}")
    if len(counts) == len(names):
        return record._trusted(by_name(counts))
    return record._trusted([counts.get(name, 0) for name in names])


def parse_scope_document(data: Union[bytes, str]) -> ScopeDocument:
    """Parse a ``ravkit-scope/1`` document into scopes with unit maps."""
    entries = [ScopeEntry._trusted(pair) for pair in _parse_scopes(data)]
    return ScopeDocument(entries=tuple(entries))


def parse_scope_file(data: Union[bytes, str]) -> list[Scope]:
    """Parse a scope document and return just the validated scopes."""
    return [scope for scope, _ in _parse_scopes(data)]


def _parse_scopes(data: Union[bytes, str]) -> list[tuple[Scope, dict]]:
    """Each scope of a document with its unit map, in file order."""
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
    scopes: list[tuple[Scope, dict]] = []
    try:
        for raw in scopes_raw:
            scopes.append(_parse_scope_obj(raw))
    except ScopeFormatError as exc:
        # The scope that failed is the one after the last one parsed.
        raise ScopeFormatError(f"$.scopes[{len(scopes)}]{exc}") from None
    return scopes


def _parse_scope_obj(raw: Any) -> tuple[Scope, dict]:
    """One scope object as its scope and unit map, each value checked once,
    in the order ``docs/formats.md`` gives.  The records are built from the
    checked values directly, without their constructors' checks."""
    obj = _expect_object(raw, "")
    _reject_unknown(obj, _SCOPE_KEYS, "")
    if "id" not in obj:
        raise ScopeFormatError(": missing required field 'id'")
    scope_id = _string_member(obj, "id", "")
    channel = _string_member(obj, "channel", "data-network")
    if channel not in _SCOPE_CHANNELS:
        raise ScopeFormatError(f".channel: {_unknown_channel(channel)}")
    vector = _string_member(obj, "vector", "")
    index = _string_member(obj, "index", "")
    porosity = _count_member(obj, "porosity", _POROSITY_GROUP)
    controls = _count_member(obj, "controls", _CONTROL_GROUP)
    limitations = _count_member(obj, "limitations", _LIMITATION_GROUP)
    if "units" in obj:
        units = _expect_object(obj["units"], ".units")
        _reject_unknown(units, _UNIT_KEYS, ".units", "count kind(s)")
        for kind, name in units.items():
            if type(name) is not str or not name.isascii():
                _expect_string(name, f".units.{kind}")
    else:
        units = {}
    if not scope_id:
        raise ScopeFormatError(f": {_EMPTY_SCOPE_ID}")
    scope = Scope._trusted((scope_id, channel, vector, index, porosity, controls, limitations))
    return scope, units


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


def render_scope_document(document: ScopeDocument) -> bytes:
    """Canonical rendering of a document's scopes as ``ravkit-scope/1``."""
    doc = {
        "schema": SCOPE_SCHEMA,
        "scopes": [scope_to_obj(e.scope, e.units or None) for e in document.entries],
    }
    try:
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    except ValueError:
        # A merged count can pass the int-digit limit its parts were under.
        raise DigitLimitError() from None


# ---------------------------------------------------------------------------
# Scanner XML
# ---------------------------------------------------------------------------

#: Each element the importer reads, and the children it reads of it: every
#: child of that tag (True) or only the first (False).  Every other element,
#: a known one elsewhere or a second ``status`` included, is ignored but
#: tallied under its tag.
_SCAN_READS: dict[str, dict[str, bool]] = {
    "nmaprun": {"host": True},
    "host": {"status": False, "ports": False},
    "status": {},
    "ports": {"port": True},
    "port": {"state": False},
    "state": {},
}


class ScanReport(Record):
    """Porosity derived from one scan plus import diagnostics."""

    __slots__ = __match_args__ = (
        "porosity", "hosts_up", "hosts_total", "open_ports", "ignored_elements"
    )
    porosity: PorosityCounts
    hosts_up: int
    hosts_total: int
    open_ports: int
    ignored_elements: Mapping[str, int]

    def __init__(
        self,
        porosity: PorosityCounts,
        hosts_up: int,
        hosts_total: int,
        open_ports: int,
        ignored_elements: Mapping[str, int],
    ) -> None:
        self.__setstate__((porosity, hosts_up, hosts_total, open_ports, ignored_elements))


def import_scan_report(data: Union[bytes, str]) -> ScanReport:
    """Parse the scanner XML subset and count hosts/ports."""
    import xml.etree.ElementTree as ElementTree

    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise ScanFormatError(f"malformed scanner XML: {exc}") from None
    except (LookupError, ValueError) as exc:
        # The declared encoding is unknown to Python, not a text encoding,
        # or a multi-byte one the XML parser cannot read.
        raise ScanFormatError(f"unsupported scanner XML encoding: {exc}") from None
    if root.tag != "nmaprun":
        raise ScanFormatError(
            f"unknown scanner schema: expected <nmaprun> root, got <{root.tag}>"
        )
    version = root.get("xmloutputversion")
    if version is not None and not version.startswith("1."):
        raise ScanFormatError(f"unsupported scanner XML output version {version!r}")

    hosts_total = hosts_up = open_ports = 0
    ignored: dict[str, int] = {}
    unread = [root]  # elements read whose children are still to walk
    while unread:
        element = unread.pop()
        reads = _SCAN_READS[element.tag]
        taken = set()  # the tags read once under this element
        for child in element:
            tag = child.tag
            if tag in reads and tag not in taken:
                if not reads[tag]:
                    taken.add(tag)
                unread.append(child)
                if tag == "host":
                    hosts_total += 1
                elif tag == "status":
                    hosts_up += child.get("state") == "up"
                elif tag == "state":
                    open_ports += child.get("state") == "open"
            else:
                for inner in child.iter():
                    ignored[inner.tag] = ignored.get(inner.tag, 0) + 1
    porosity = PorosityCounts(visibility=hosts_up, access=open_ports, trust=0)
    return ScanReport(
        porosity=porosity,
        hosts_up=hosts_up,
        hosts_total=hosts_total,
        open_ports=open_ports,
        ignored_elements=dict(sorted(ignored.items())),
    )


def merge_scan_into_scope(porosity: PorosityCounts, scope: Scope) -> Scope:
    """Add scanned porosity onto a scope, keeping its other counts and labels.

    Addition (rather than replacement) lets the scope file carry
    analyst-supplied counts a scan cannot see, such as trust.
    """
    # Every value was checked when the scope and the scanned counts were built.
    counts = map(add, _porosity_counts(scope.porosity), _porosity_counts(porosity))
    return Scope._trusted((
        scope.id, scope.channel, scope.vector, scope.index,
        PorosityCounts._trusted(counts), scope.controls, scope.limitations,
    ))


# ---------------------------------------------------------------------------
# Applicant CSV
# ---------------------------------------------------------------------------

#: Each column, the kind of its cells (a count, an hours value or the id) and
#: the value of an empty cell, in the order a row's cells are read.  The
#: first malformed cell in this order is the one reported: the reference
#: columns come first, and an empty id becomes the row's (``row-<line>``).
_CSV_READ_ORDER = (
    ("references_positive", "count", 0),
    ("references_neutral", "count", 0),
    ("references_negative", "count", 0),
    ("past_employer_count", "count", 0),
    ("applicant_id", "id", None),
    ("months_unemployed", "count", 0),
    ("months_eligible", "count", 0),
    ("criminal_offenses_known", "count", 0),
    ("age_years", "count", 0),
    ("legal_adult_age", "count", 18),
    ("hours_alone_per_day", "hours", Fraction(0)),
    ("working_hours_per_day", "hours", Fraction(0)),
    ("employees_in_community", "count", 0),
    ("community_population", "count", 0),
)
#: Every column a header may name, in any order; listed in read order.
CSV_COLUMNS = tuple(name for name, _, _ in _CSV_READ_ORDER)


def parse_applicants_csv(data: Union[bytes, str]) -> list[ApplicantRecord]:
    """Parse applicant records from CSV with a header row.

    Header names must all be known columns; absent columns default to zero
    (``legal_adult_age`` defaults to 18).  References are encoded as counts
    of positive/neutral/negative.  Row-level problems are collected and
    reported together with their line numbers.
    """
    from .trust import ApplicantRecord, _checked

    if isinstance(data, bytes):
        try:
            # utf-8-sig drops the byte-order mark spreadsheet programs write.
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"applicant CSV is not valid UTF-8: {exc}") from None
    rows = _csv_rows(data)
    header = next(rows, None)
    if header is None:
        raise CsvFormatError("applicant CSV has no header row")
    header = [h.strip() for h in header]
    unknown = sorted(set(header) - set(CSV_COLUMNS))
    if unknown:
        raise CsvFormatError(f"unknown column(s): {', '.join(map(repr, unknown))}")
    if len(set(header)) != len(header):
        raise CsvFormatError("duplicate column names in header")
    # Each column's cell position in read order; an absent column is placed
    # past every row that is not refused, so it reads as empty.
    width = len(header)
    positions = [header.index(name) if name in header else width for name in CSV_COLUMNS]
    # A row's values, from read order to the record's slot order.
    slot_order = itemgetter(*map(CSV_COLUMNS.index, ApplicantRecord.__slots__))

    records: list[ApplicantRecord] = []
    errors: list[str] = []
    # Rows are parsed as they are read.  Row errors are raised only after
    # the last row, so a CSV error in any row is the one reported.
    for line_no, row in enumerate(rows, start=2):
        n = len(row)
        if n > width:
            if any(cell.strip() for cell in row):
                errors.append(f"line {line_no}: more cells than header columns")
            continue
        # Every header column has a position, so these are all of the row's cells.
        cells = [row[i].strip() if i < n else "" for i in positions]
        if not any(cells):
            continue  # a blank row
        try:
            values = _checked(*slot_order(_row_values(cells, line_no)))
        except (InputError, DomainError) as exc:
            errors.append(f"line {line_no}: {exc}")
        else:
            records.append(ApplicantRecord._trusted(values))
    if errors:
        raise CsvFormatError("; ".join(errors))
    return records


def _csv_rows(text: str) -> Iterator[list[str]]:
    """The ``csv`` reader's rows of ``text``; its error is a :class:`CsvFormatError`."""
    import csv

    try:
        yield from csv.reader(io.StringIO(text))
    except csv.Error as exc:
        raise CsvFormatError(f"malformed CSV: {exc}") from None


def _hours_cell(text: str, name: str) -> Fraction:
    """The value of an hours cell of column ``name``: plain digits and
    ASCII ``digits/digits`` with a nonzero denominator are read directly,
    anything else by ``parse_rational``, with its error."""
    try:
        if text.isdigit():
            return _exact(int(text), 1)
        num, slash, den = text.partition("/")
        if slash and text.isascii() and num.isdigit() and den.isdigit() and int(den):
            return _exact(int(num), int(den))
    except ValueError:
        pass  # past the int-digit limit, or digits int() refuses
    return parse_rational(text, f"column {name!r}")


def _row_values(cells: list[str], line_no: int) -> list:
    """The values of one row's stripped cells, given and returned in
    ``_CSV_READ_ORDER``: ints, ``Fraction`` hours and the id.  Each cell is
    parsed once, and the first malformed one raises."""
    values = []
    for (name, kind, empty), text in zip(_CSV_READ_ORDER, cells):
        if not text:
            values.append(f"row-{line_no}" if empty is None else empty)
        elif kind == "count":
            try:
                values.append(int(text))
            except ValueError:
                raise CsvFormatError(f"column {name!r}: not an integer count: {text!r}") from None
        elif kind == "hours":
            values.append(_hours_cell(text, name))
        else:
            values.append(text)
    return values
