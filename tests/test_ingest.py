"""Parser tests: scope JSON, scanner XML, applicant CSV.

Parsers must return a value or raise a structured error on any byte input,
never crash, and never coerce unknown input into silent zero counts.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ravkit.cli import dispatch
from ravkit.errors import (
    CsvFormatError,
    DomainError,
    InputError,
    RavkitError,
    ScanFormatError,
    ScopeFormatError,
    shown,
)
from ravkit.ingest import (
    _CSV_READ_ORDER,
    CSV_COLUMNS,
    ScopeDocument,
    ScopeEntry,
    _hours_cell,
    import_scan_report,
    merge_scan_into_scope,
    parse_applicants_csv,
    parse_rational,
    parse_scope_document,
    parse_scope_file,
    render_scope_document,
)
from ravkit.metrics import (
    LIMITATION_CATEGORIES,
    ControlClass,
    ControlCounts,
    LimitationCounts,
    PorosityCounts,
    Scope,
)
from ravkit.trust import ApplicantRecord


class TestScopeParsing:
    def test_toy_fixture_matches_worked_example(self, fixtures, toy):
        document = parse_scope_document((fixtures / "toy.json").read_bytes())
        assert len(document.entries) == 1
        entry = document.entries[0]
        assert entry.scope == toy
        assert entry.units == {"visibility": "h", "access": "p", "authentication": "l"}

    def test_empty_counts_default_to_zero(self, fixtures):
        scopes = parse_scope_file((fixtures / "empty.json").read_bytes())
        assert scopes[0].porosity == PorosityCounts(0, 0, 0)
        assert scopes[0].controls.total == 0
        assert scopes[0].limitations.total == 0

    def test_byte_order_mark_is_a_clear_error(self, fixtures):
        # Scope documents are JSON, which RFC 8259 says is written without one.
        data = b"\xef\xbb\xbf" + (fixtures / "toy.json").read_bytes()
        with pytest.raises(ScopeFormatError, match=r"line 1, column 1: Unexpected UTF-8 BOM"):
            parse_scope_document(data)

    def test_negative_count_names_the_field(self):
        doc = b'{"schema": "ravkit-scope/1", "scopes": [{"id": "x", "porosity": {"access": -1}}]}'
        with pytest.raises(ScopeFormatError, match=r"porosity\.access"):
            parse_scope_file(doc)

    def test_unknown_channel_rejected(self):
        doc = b'{"schema": "ravkit-scope/1", "scopes": [{"id": "x", "channel": "astral"}]}'
        with pytest.raises(ScopeFormatError, match="astral"):
            parse_scope_file(doc)

    def test_unknown_fields_rejected(self):
        doc = b'{"schema": "ravkit-scope/1", "scopes": [{"id": "x", "extra": 1}]}'
        with pytest.raises(ScopeFormatError, match="extra"):
            parse_scope_file(doc)
        doc = b'{"schema": "ravkit-scope/1", "scopes": [{"id": "x", "controls": {"firewall": 1}}]}'
        with pytest.raises(ScopeFormatError, match="firewall"):
            parse_scope_file(doc)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ScopeFormatError, match=r"line 2"):
            parse_scope_file(b'{\n  "schema": ,}')

    def test_wrong_schema_rejected(self):
        with pytest.raises(ScopeFormatError, match="schema"):
            parse_scope_file(b'{"schema": "other/9", "scopes": []}')

    def test_missing_id_rejected(self):
        doc = b'{"schema": "ravkit-scope/1", "scopes": [{"channel": "human"}]}'
        with pytest.raises(ScopeFormatError, match="id"):
            parse_scope_file(doc)

    def test_non_utf8_rejected(self):
        with pytest.raises(ScopeFormatError, match="UTF-8"):
            parse_scope_file(b"\xff\xfe{}")

    @pytest.mark.parametrize(
        "scopes, message",
        [
            pytest.param([{"id": "a", "zeta": 1, "alpha": 2}],
                         "$.scopes[0]: unknown field(s) alpha, zeta", id="unknown scope field"),
            pytest.param([{"id": "a", "z\nline": 1, "a\tb": 2, "b c": 3}],
                         "$.scopes[0]: unknown field(s) 'a\\tb', b c, 'z\\nline'",
                         id="unknown field with a control character"),
            pytest.param([{"id": "a", "porosity": {"visibility": 1, "pores": 2}}],
                         "$.scopes[0].porosity: unknown field(s) pores",
                         id="unknown porosity field"),
            pytest.param([{"id": "a", "controls": {"firewall": 1, "alarm": 1}}],
                         "$.scopes[0].controls: unknown field(s) firewall",
                         id="unknown controls field"),
            pytest.param([{"id": "a", "limitations": {"bugs": 1}}],
                         "$.scopes[0].limitations: unknown field(s) bugs",
                         id="unknown limitations field"),
            pytest.param([{"id": "a", "units": {"visibility": "v", "speed": "s"}}],
                         "$.scopes[0].units: unknown count kind(s) speed",
                         id="unknown units field"),
            pytest.param([{"channel": "human"}],
                         "$.scopes[0]: missing required field 'id'", id="missing id"),
            pytest.param([{"id": 5}], "$.scopes[0].id: expected a string, got 5",
                         id="non-string id"),
            pytest.param([{"id": "a", "channel": None}],
                         "$.scopes[0].channel: expected a string, got None",
                         id="non-string channel"),
            pytest.param([{"id": "a", "vector": 1.5}],
                         "$.scopes[0].vector: expected a string, got 1.5",
                         id="non-string vector"),
            pytest.param([{"id": "a", "index": ["x"]}],
                         "$.scopes[0].index: expected a string, got ['x']",
                         id="non-string index"),
            pytest.param([{"id": "a", "units": {"access": 3}}],
                         "$.scopes[0].units.access: expected a string, got 3",
                         id="non-string unit name"),
            pytest.param([{"id": "a", "porosity": {"visibility": True}}],
                         "$.scopes[0].porosity.visibility: expected an integer count, got True",
                         id="bool count"),
            pytest.param([{"id": "a", "controls": {"alarm": 1.5}}],
                         "$.scopes[0].controls.alarm: expected an integer count, got 1.5",
                         id="float count"),
            pytest.param([{"id": "a", "limitations": {"concerns": -2}}],
                         "$.scopes[0].limitations.concerns: count must be >= 0, got -2",
                         id="negative count"),
            pytest.param([{"id": "a", "porosity": {"trust": "3"}}],
                         "$.scopes[0].porosity.trust: expected an integer count, got '3'",
                         id="string count"),
            pytest.param([{"id": "a", "channel": "astral"}],
                         "$.scopes[0].channel: unknown channel 'astral'; expected one of "
                         "human, physical, wireless, telecom, data-network (or 'aggregate')",
                         id="unknown channel"),
            pytest.param([{"id": ""}], "$.scopes[0]: scope id must be non-empty",
                         id="empty id"),
            pytest.param({}, "$.scopes: expected a list", id="scopes not a list"),
            pytest.param([[1]], "$.scopes[0]: expected an object, got list",
                         id="non-object scope"),
            pytest.param([{"id": "a", "porosity": []}],
                         "$.scopes[0].porosity: expected an object, got list",
                         id="non-object porosity"),
            pytest.param([{"id": "a", "units": None}],
                         "$.scopes[0].units: expected an object, got NoneType",
                         id="null units"),
            # With several faults, the checks run in the same order as before.
            pytest.param([{"id": 5, "zeta": 1}], "$.scopes[0]: unknown field(s) zeta",
                         id="unknown field before a bad id"),
            pytest.param([{"id": 5, "porosity": {"visibility": -1}}],
                         "$.scopes[0].id: expected a string, got 5",
                         id="bad id before a bad count"),
            pytest.param([{"id": "a", "controls": {"privacy": -1, "alarm": True}}],
                         "$.scopes[0].controls.privacy: count must be >= 0, got -1",
                         id="first bad count in document order"),
            pytest.param([{"id": "a", "controls": {"alarm": -1}, "porosity": {"access": -1}}],
                         "$.scopes[0].porosity.access: count must be >= 0, got -1",
                         id="porosity before controls"),
            pytest.param([{"id": "a"}, {"id": "b", "porosity": {"access": -3}}],
                         "$.scopes[1].porosity.access: count must be >= 0, got -3",
                         id="second scope"),
        ],
    )
    def test_error_messages_are_pinned(self, scopes, message):
        doc = json.dumps({"schema": "ravkit-scope/1", "scopes": scopes})
        with pytest.raises(ScopeFormatError) as exc:
            parse_scope_document(doc)
        assert str(exc.value) == message

    def test_unknown_top_level_field_message_is_pinned(self):
        doc = json.dumps({"schema": "ravkit-scope/1", "scopes": [], "extra": 1})
        with pytest.raises(ScopeFormatError) as exc:
            parse_scope_document(doc)
        assert str(exc.value) == "$: unknown field(s) extra"

    @pytest.mark.parametrize(("units", "message"), [
        ({"visibility": 5}, "unit variable for 'visibility' must be a string, got 5"),
        ({"access": None}, "unit variable for 'access' must be a string, got None"),
        ({"alarm": "h\ud800"}, "unit variable for 'alarm' has a lone surrogate: 'h\\ud800'"),
        ({"nope": "h"}, "unknown count kind 'nope' in units; expected one of visibility, "),
        ({5: "h"}, "unknown count kind 5 in units; expected one of visibility, "),
        ({"non_repudiation": "h"}, "unknown count kind 'non_repudiation' in units; "),
    ], ids=["int", "none", "surrogate", "unknown", "int-kind", "field-name"])
    def test_scope_entry_refuses_a_unit_map_the_parser_refuses(self, units, message):
        # Else render_scope_document would write a document that
        # parse_scope_document refuses.
        with pytest.raises(DomainError) as raised:
            ScopeEntry(Scope("x"), units)
        assert str(raised.value).startswith(message)
        assert "\n" not in str(raised.value)
        doc = json.dumps({"schema": "ravkit-scope/1",
                          "scopes": [{"id": "x", "units": units}]}, default=str)
        with pytest.raises(ScopeFormatError):
            parse_scope_document(doc)

    def test_scope_entry_units_round_trip(self):
        entry = ScopeEntry(Scope("x", porosity=PorosityCounts(1)),
                           {"visibility": "h", "non-repudiation": "é"})
        document = ScopeDocument((entry,))
        assert parse_scope_document(render_scope_document(document)) == document

    def test_scope_entry_keeps_its_own_units(self):
        # A later change to the caller's map cannot reach the entry, so the
        # entry's document still parses.
        units = {"visibility": "h"}
        entry = ScopeEntry(Scope("x", porosity=PorosityCounts(1)), units)
        units["nope"] = 5
        units["visibility"] = "g"
        assert entry.units == {"visibility": "h"}
        document = ScopeDocument((entry,))
        assert parse_scope_document(render_scope_document(document)) == document

    def test_round_trip_identity(self, fixtures):
        for name in ("toy.json", "empty.json", "fifty.json", "hundred.json"):
            document = parse_scope_document((fixtures / name).read_bytes())
            rendered = render_scope_document(document)
            assert parse_scope_document(rendered) == document
            # Rendering is canonical: a second round trip is byte-identical.
            assert render_scope_document(parse_scope_document(rendered)) == rendered

    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_never_crashes_on_arbitrary_bytes(self, data):
        try:
            parse_scope_file(data)
        except RavkitError:
            pass

    @pytest.mark.parametrize(
        "case", ["5000-digit count", "2000-digit count", "nested 100000 deep"]
    )
    def test_rav_on_extreme_documents_is_one_line_input_error(self, tmp_path, case):
        # 2000 digits parse, but the limitation sum passes the int-to-str
        # digit limit when the report renders it.
        digits = {"5000-digit count": 5000, "2000-digit count": 2000}.get(case)
        if digits is None:
            text = "[" * 100_000 + "]" * 100_000
        else:
            text = (
                '{"schema": "ravkit-scope/1", "scopes": [{"id": "x", "porosity": '
                '{"visibility": 1%s, "access": 3, "trust": 1}, "controls": '
                '{"authentication": 7}, "limitations": {"vulnerabilities": 1, '
                '"exposures": 1, "anomalies": 2}}]}' % ("7" * (digits - 1))
            )
        path = tmp_path / "extreme.json"
        path.write_text(text)
        for fmt in ("text", "json"):
            code, out, err = dispatch(["rav", str(path), "--format", fmt])
            assert code == 1 and out == b""
            assert len(err.splitlines()) == 1 and b"Traceback" not in err


class TestScanImport:
    def test_one_host_one_port(self, fixtures):
        porosity = import_scan_report((fixtures / "scan_1host_1port.xml").read_bytes()).porosity
        assert porosity == PorosityCounts(visibility=1, access=1, trust=0)

    def test_one_host_three_ports(self, fixtures):
        porosity = import_scan_report((fixtures / "scan_1host_3ports.xml").read_bytes()).porosity
        assert porosity == PorosityCounts(visibility=1, access=3, trust=0)

    def test_no_up_hosts(self, fixtures):
        porosity = import_scan_report((fixtures / "scan_0hosts.xml").read_bytes()).porosity
        assert porosity == PorosityCounts(0, 0, 0)

    def test_diagnostics_count_ignored_elements(self, fixtures):
        report = import_scan_report((fixtures / "scan_1host_1port.xml").read_bytes())
        assert report.hosts_total == 1
        assert report.ignored_elements.get("address") == 1
        assert report.ignored_elements.get("extraports") == 1
        assert "service" in report.ignored_elements

    # A known element the importer does not read, where it stands, is tallied
    # under its tag like any unknown one.
    @pytest.mark.parametrize("xml, ignored", [
        pytest.param(
            b'<nmaprun><foo><host><status state="up"/><ports><port><state state="open"/>'
            b"</port></ports></host></foo></nmaprun>",
            {"foo": 1, "host": 1, "port": 1, "ports": 1, "state": 1, "status": 1},
            id="host under an unknown element",
        ),
        pytest.param(
            b'<nmaprun><port><state state="open"/></port><host><status state="down"/>'
            b"</host></nmaprun>",
            {"port": 1, "state": 1},
            id="port under the root",
        ),
    ])
    def test_misplaced_known_elements_are_tallied(self, xml, ignored):
        report = import_scan_report(xml)
        assert report.porosity == PorosityCounts(0, 0, 0)
        assert report.ignored_elements == ignored

    def test_only_the_first_status_ports_and_state_are_read(self):
        report = import_scan_report(
            b'<nmaprun><host><status state="down"/><status state="up"/>'
            b'<ports><port><state state="open"/><state state="closed"/></port></ports>'
            b'<ports><port><state state="open"/></port></ports></host></nmaprun>'
        )
        assert (report.hosts_total, report.hosts_up, report.open_ports) == (1, 0, 1)
        assert report.ignored_elements == {"port": 1, "ports": 1, "state": 2, "status": 1}

    def test_malformed_xml_rejected(self):
        with pytest.raises(ScanFormatError, match="malformed"):
            import_scan_report(b"<nmaprun><host>").porosity

    def test_unknown_root_rejected_not_zeroed(self):
        with pytest.raises(ScanFormatError, match="schema"):
            import_scan_report(b"<scandata></scandata>").porosity

    def test_unknown_output_version_rejected(self):
        with pytest.raises(ScanFormatError, match="version"):
            import_scan_report(b'<nmaprun xmloutputversion="9.99"></nmaprun>').porosity

    def test_adding_open_port_increases_access_by_one(self, fixtures):
        base = (fixtures / "scan_1host_1port.xml").read_text()
        extra_port = (
            '<port protocol="tcp" portid="8080">'
            '<state state="open" reason="syn-ack"/></port>'
        )
        grown = base.replace("</ports>", extra_port + "</ports>")
        before = import_scan_report(base.encode()).porosity
        after = import_scan_report(grown.encode()).porosity
        assert after.access == before.access + 1
        assert after.visibility == before.visibility

    def test_closed_and_filtered_ports_not_counted(self, fixtures):
        report = import_scan_report((fixtures / "scan_1host_3ports.xml").read_bytes())
        assert report.open_ports == 3

    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_never_crashes_on_arbitrary_bytes(self, data):
        try:
            import_scan_report(data).porosity
        except RavkitError:
            pass

    def test_merge_sums_porosity_and_keeps_the_rest(self, toy):
        merged = merge_scan_into_scope(PorosityCounts(1, 3, 0), toy)
        assert merged.porosity == PorosityCounts(2, 4, 0)
        assert merged.controls == toy.controls
        assert merged.limitations == toy.limitations
        assert merged.id == toy.id


class TestApplicantCsv:
    def test_columns_are_the_record_fields(self):
        assert len(set(CSV_COLUMNS)) == len(CSV_COLUMNS)
        assert set(_HEADER) == set(CSV_COLUMNS) and _HEADER != CSV_COLUMNS
        assert set(CSV_COLUMNS) == set(ApplicantRecord.__slots__)

    def test_empty_cells_take_the_record_defaults(self):
        defaults = {f.name: f.default for f in dataclasses.fields(ApplicantRecord)}
        for name, _, empty in _CSV_READ_ORDER:
            if name != "applicant_id":
                assert empty == defaults[name], name

    def test_fixture_rows(self, fixtures):
        records = parse_applicants_csv((fixtures / "applicants.csv").read_bytes())
        assert [r.applicant_id for r in records] == [
            "conviction-case", "community-case", "mixed-case", "young-case",
        ]
        conviction = records[0]
        assert conviction.age_years == 50
        assert conviction.criminal_offenses_known == 1
        community = records[1]
        assert community.employees_in_community == 156
        assert community.community_population == 5000
        mixed = records[2]
        assert mixed.hours_alone_per_day == Fraction(2)
        assert (mixed.references_positive, mixed.references_neutral,
                mixed.references_negative, mixed.past_employer_count) == (3, 1, 0, 4)

    def test_reproduces_published_ratio(self, fixtures):
        from ravkit.trust import consistency_score

        records = parse_applicants_csv((fixtures / "applicants.csv").read_bytes())
        assert consistency_score(records[0]).value == Fraction(1, 32)

    def test_minor_age_row_accepted(self, fixtures):
        from ravkit.trust import consistency_ratios

        records = parse_applicants_csv((fixtures / "applicants.csv").read_bytes())
        young = records[3]
        assert young.age_years == 16
        assert not consistency_ratios(young)[1].defined

    def test_empty_data_section(self):
        assert parse_applicants_csv(b"applicant_id,age_years\n") == []

    def test_utf8_byte_order_mark_is_dropped(self, fixtures):
        data = (fixtures / "applicants.csv").read_bytes()
        assert parse_applicants_csv(b"\xef\xbb\xbf" + data) == parse_applicants_csv(data)

    def test_unknown_column_rejected(self):
        with pytest.raises(CsvFormatError, match="shoe_size"):
            parse_applicants_csv(b"applicant_id,shoe_size\nx,9\n")

    def test_non_numeric_count_reports_row(self):
        data = b"applicant_id,age_years\nok,30\nbad,thirty\n"
        with pytest.raises(CsvFormatError, match="line 3"):
            parse_applicants_csv(data)

    def test_row_errors_collected_together(self):
        data = b"applicant_id,age_years,months_eligible\na,x,0\nb,20,y\n"
        with pytest.raises(CsvFormatError, match=r"line 2.*line 3"):
            parse_applicants_csv(data)

    def test_rational_hours(self):
        data = b"applicant_id,hours_alone_per_day,working_hours_per_day\nx,2.5,8\ny,1/4,8\n"
        records = parse_applicants_csv(data)
        assert records[0].hours_alone_per_day == Fraction(5, 2)
        assert records[1].hours_alone_per_day == Fraction(1, 4)

    def test_defaults(self):
        records = parse_applicants_csv(b"age_years\n50\n")
        assert records[0].legal_adult_age == 18
        assert records[0].applicant_id == "row-2"

    def test_invariant_violations_reported_per_row(self):
        data = b"applicant_id,months_unemployed,months_eligible\nx,10,5\n"
        with pytest.raises(CsvFormatError, match="line 2"):
            parse_applicants_csv(data)

    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_never_crashes_on_arbitrary_bytes(self, data):
        try:
            parse_applicants_csv(data)
        except RavkitError:
            pass


#: Every column, in an order that is not read order, so a case with two bad
#: cells tells the first one read from the first one in the header.
_HEADER = (
    "applicant_id", "months_unemployed", "months_eligible", "criminal_offenses_known",
    "age_years", "legal_adult_age", "references_positive", "references_neutral",
    "references_negative", "past_employer_count", "employees_in_community",
    "community_population", "hours_alone_per_day", "working_hours_per_day",
)


def _csv(*rows: dict, extra: str = "") -> bytes:
    """A CSV with every column in the header and one line per row; a row
    names only its non-empty cells, and ``extra`` is appended to the last."""
    lines = [",".join(_HEADER)]
    lines += [",".join(row.get(name, "") for name in _HEADER) for row in rows]
    return ("\n".join(lines) + extra + "\n").encode()


_LIMIT = sys.get_int_max_str_digits()

#: case -> (CSV bytes, the full CsvFormatError text).
CSV_ERRORS = {
    "non-integer count": (
        _csv({"age_years": "thirty"}),
        "line 2: column 'age_years': not an integer count: 'thirty'",
    ),
    "decimal count": (
        _csv({"months_eligible": "1.5"}),
        "line 2: column 'months_eligible': not an integer count: '1.5'",
    ),
    "count past the digit limit": (
        _csv({"community_population": "9" * (_LIMIT + 1)}),
        f"line 2: column 'community_population': not an integer count: '{'9' * (_LIMIT + 1)}'",
    ),
    "negative count": (
        _csv({"months_unemployed": "-3"}),
        "line 2: months_unemployed must be a non-negative integer, got -3",
    ),
    "negative reference count": (
        _csv({"references_neutral": "-1", "age_years": "-2"}),
        "line 2: references_neutral must be a non-negative integer, got -1",
    ),
    "malformed hours": (
        _csv({"hours_alone_per_day": "two"}),
        "line 2: column 'hours_alone_per_day': not a rational number: 'two'",
    ),
    "superscript hours": (
        _csv({"working_hours_per_day": "\u00b2"}),
        "line 2: column 'working_hours_per_day': not a rational number: '\u00b2'",
    ),
    "hours past the digit limit": (
        _csv({"working_hours_per_day": "8" * (_LIMIT + 1)}),
        f"line 2: column 'working_hours_per_day': not a rational number: '{'8' * (_LIMIT + 1)}'",
    ),
    "hours exponent past the digit limit": (
        _csv({"working_hours_per_day": f"1e{_LIMIT + 1}"}),
        f"line 2: column 'working_hours_per_day': decimal exponent past {_LIMIT}, "
        f"far outside the float range: '1e{_LIMIT + 1}'",
    ),
    "negative hours": (
        _csv({"hours_alone_per_day": "-1/2", "working_hours_per_day": "8"}),
        "line 2: hours_alone_per_day must be >= 0, got -1/2",
    ),
    "more cells than header columns": (
        _csv({"applicant_id": "x"}, extra=",7"),
        "line 2: more cells than header columns",
    ),
    "malformed reference beside a malformed count": (
        _csv({"age_years": "x", "references_negative": "y"}),
        "line 2: column 'references_negative': not an integer count: 'y'",
    ),
    "malformed reference beside malformed hours": (
        _csv({"hours_alone_per_day": "h", "past_employer_count": "p"}),
        "line 2: column 'past_employer_count': not an integer count: 'p'",
    ),
    "malformed count before malformed hours": (
        _csv({"legal_adult_age": "adult", "hours_alone_per_day": "h"}),
        "line 2: column 'legal_adult_age': not an integer count: 'adult'",
    ),
    "malformed hours before a malformed count": (
        _csv({"employees_in_community": "many", "working_hours_per_day": "w"}),
        "line 2: column 'working_hours_per_day': not a rational number: 'w'",
    ),
    "malformed count after the hours": (
        b"applicant_id,hours_alone_per_day,working_hours_per_day,community_population\n"
        b"a,1/2,8,x\n",
        "line 2: column 'community_population': not an integer count: 'x'",
    ),
    "zero-denominator hours before a malformed count": (
        b"applicant_id,community_population,hours_alone_per_day\na,x,1/0\n",
        "line 2: column 'hours_alone_per_day': not a rational number: '1/0'",
    ),
    "references without a past employer": (
        _csv({"references_positive": "1"}),
        "line 2: references require at least one past employer",
    ),
    "more references than past employers": (
        _csv({"references_positive": "2", "references_negative": "1",
              "past_employer_count": "2"}),
        "line 2: more references than past employers",
    ),
    "unemployment past the eligible months": (
        _csv({"months_unemployed": "10", "months_eligible": "5"}),
        "line 2: months_unemployed cannot exceed months_eligible",
    ),
    "hours alone past the working hours": (
        _csv({"hours_alone_per_day": "9", "working_hours_per_day": "17/2"}),
        "line 2: hours_alone_per_day cannot exceed working_hours_per_day",
    ),
    "employees past the population": (
        _csv({"employees_in_community": "11", "community_population": "10"}),
        "line 2: employees_in_community cannot exceed community_population",
    ),
    "duplicate column": (
        (",".join(CSV_COLUMNS + CSV_COLUMNS[:1]) + "\n").encode(),
        "duplicate column names in header",
    ),
    "header field past the csv field limit": (
        b"x" * 131073 + b"\n",
        "malformed CSV: field larger than field limit (131072)",
    ),
    "row field past the csv field limit": (
        _csv({"applicant_id": "x" * 131073}),
        "malformed CSV: field larger than field limit (131072)",
    ),
    "two bad rows": (
        _csv({"applicant_id": "a", "age_years": "x"}, {"applicant_id": "ok"},
             {"applicant_id": "c", "months_unemployed": "3", "months_eligible": "2"}),
        "line 2: column 'age_years': not an integer count: 'x'; "
        "line 4: months_unemployed cannot exceed months_eligible",
    ),
}


@pytest.mark.parametrize("case", CSV_ERRORS)
def test_csv_error_text(case):
    data, message = CSV_ERRORS[case]
    with pytest.raises(CsvFormatError) as raised:
        parse_applicants_csv(data)
    assert str(raised.value) == message


def test_csv_rows_that_are_not_errors():
    # Blank rows are skipped, even past the header's width; cells are
    # stripped; an empty id becomes the row's.
    data = _csv(
        {"applicant_id": " a ", "age_years": " 40 ", "hours_alone_per_day": "0007",
         "working_hours_per_day": "\u0668"},
        {},
        {"months_unemployed": "1"},
    )
    data += b"\n, ,\n" + b"," * len(CSV_COLUMNS) + b"\n"
    records = parse_applicants_csv(data)
    assert [r.applicant_id for r in records] == ["a", "row-4"]
    assert records[0].age_years == 40 and records[1].months_unemployed == 1
    assert records[0].hours_alone_per_day == 7 and records[0].working_hours_per_day == 8
    assert type(records[0].hours_alone_per_day) is Fraction


_DIGITS = "0123456789\u0660\u0669\u06f4\u07c0\u0e53\uff19\U0001d7d8\u00b2\u00b9\u2155_"


@given(
    st.one_of(
        st.text(st.characters(whitelist_categories=("Nd",)), min_size=1, max_size=12),
        st.text(st.sampled_from(_DIGITS), min_size=1, max_size=12),
        st.builds(lambda zeros, n: "0" * zeros + str(n),
                  st.integers(0, 5), st.integers(0, 10**30)),
        st.builds(lambda digit, n: digit * n,
                  st.sampled_from("19\u0661"), st.integers(_LIMIT - 2, _LIMIT + 2)),
    )
)
@settings(max_examples=300)
def test_hours_fast_path_agrees_with_parse_rational(text):
    def outcome(read):
        try:
            return Fraction(read())
        except InputError as exc:
            return type(exc), str(exc)

    fast = outcome(lambda: _hours_cell(text, "hours_alone_per_day"))
    assert fast == outcome(lambda: parse_rational(text, "column 'hours_alone_per_day'"))


_RATIO_PARTS = st.one_of(
    st.text(st.sampled_from("0123456789"), min_size=0, max_size=8),
    st.text(st.sampled_from(_DIGITS + "+- ./e"), min_size=0, max_size=6),
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 3), st.integers(0, 10**30)),
    st.builds(
        lambda digit, n: digit * n, st.sampled_from("10"), st.integers(_LIMIT - 1, _LIMIT + 1)
    ),
)


@given(st.builds(lambda num, den: f"{num}/{den}", _RATIO_PARTS, _RATIO_PARTS))
@settings(max_examples=400)
def test_hours_ratio_fast_path_agrees_with_fraction(text):
    # ``digits/digits`` cells skip Fraction's parser; every other cell,
    # a zero denominator, a sign, a space or a part past the int-digit
    # limit among them, must read and fail exactly as parse_rational does.
    def outcome(read):
        try:
            value = read()
        except InputError as exc:
            return type(exc), str(exc)
        return type(value), value

    fast = outcome(lambda: _hours_cell(text, "working_hours_per_day"))
    assert fast == outcome(lambda: parse_rational(text, "column 'working_hours_per_day'"))
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        assert fast[0] is InputError
    else:
        assert fast == (Fraction, expected)


# ---------------------------------------------------------------------------
# The parsers build their records without the constructors' checks, so each
# parsed record is compared with the one the public constructors build, and
# each refusal with the text the documented check order gives.
# ---------------------------------------------------------------------------

_CONTROL_NAMES = tuple(cls.value for cls in ControlClass)
_GROUPS = {
    "porosity": ("visibility", "access", "trust"),
    "controls": _CONTROL_NAMES,
    "limitations": LIMITATION_CATEGORIES,
}
_UNIT_KINDS = ("visibility", "access", "trust", *_CONTROL_NAMES, *LIMITATION_CATEGORIES)
#: Strings, some of them non-ASCII; none spells a key.
_TEXT = st.text(st.sampled_from("aZ0 -é中"), max_size=4)
#: Values that are not a string a report could write: a lone surrogate
#: (a JSON ``\ud800`` escape) is not one either.
_NOT_TEXT = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(allow_nan=False), st.just([]),
    st.builds(lambda a, ch, b: a + ch + b, _TEXT, st.sampled_from("\ud800\udfff"), _TEXT),
)
_GOOD_COUNT = st.one_of(st.integers(0, 3), st.integers(0, 10**40))
_BAD_COUNT = st.one_of(
    st.booleans(), st.integers(-10**40, -1), st.floats(allow_nan=False), st.just("3"),
    st.none(),
)
_CHANNELS = ("human", "physical", "wireless", "telecom", "data-network", "aggregate")


#: Where a drawn scope object may carry a fault.
_FAULT_SITES = ("object", "missing id", "id", "channel", "vector", "index", *_GROUPS, "units",
                "unknown field")


@st.composite
def _scope_objects(draw):
    """A scope object with faults at none, one or two of ``_FAULT_SITES``;
    an empty id, refused last, may come on top."""
    faults = draw(st.sets(st.sampled_from(_FAULT_SITES), max_size=2))
    if "object" in faults:
        return draw(st.one_of(_NOT_TEXT, _TEXT))
    obj = {}
    if "missing id" not in faults:
        obj["id"] = draw(_NOT_TEXT if "id" in faults else _TEXT)
    for key, good, bad in (
        ("channel", st.sampled_from(_CHANNELS), st.one_of(_NOT_TEXT, _TEXT)),
        ("vector", _TEXT, _NOT_TEXT),
        ("index", _TEXT, _NOT_TEXT),
    ):
        if key in faults:
            obj[key] = draw(bad)
        elif draw(st.booleans()):
            obj[key] = draw(good)
    for key, names in _GROUPS.items():
        fault = draw(st.sampled_from(("object", "unknown", "count"))) if key in faults else None
        if fault == "object":
            obj[key] = draw(_NOT_TEXT)
            continue
        members = draw(st.lists(st.sampled_from(names), unique=True, min_size=fault == "count"))
        if not (members or fault or draw(st.booleans())):
            continue  # an absent group
        bad = ()
        if fault == "count":
            bad = draw(st.sets(st.sampled_from(members), min_size=1, max_size=2))
        obj[key] = {name: draw(_BAD_COUNT if name in bad else _GOOD_COUNT) for name in members}
        if fault == "unknown":
            obj[key][draw(_TEXT)] = 1
    if "units" in faults or draw(st.booleans()):
        fault = draw(st.sampled_from(("object", "unknown", "name"))) if "units" in faults else None
        kinds = draw(st.lists(
            st.sampled_from(_UNIT_KINDS), unique=True, min_size=fault == "name", max_size=5
        ))
        bad = draw(st.sampled_from(kinds)) if fault == "name" else None
        obj["units"] = {kind: draw(_NOT_TEXT if kind == bad else _TEXT) for kind in kinds}
        if fault == "unknown":
            obj["units"][draw(_TEXT)] = "x"
        elif fault == "object":
            obj["units"] = draw(_NOT_TEXT)
    if "unknown field" in faults:
        obj[draw(st.one_of(_TEXT, st.sampled_from(("\ud800", "a\udfff"))))] = 1
    return obj


def _first_fault(obj, path: str = "$.scopes[0]") -> str | None:
    """The error text of the first failed check on a scope object, checking
    each value in the order ``docs/formats.md`` gives; None if it is valid."""

    def surrogate(text: str, where: str, what: str) -> str | None:
        for i, ch in enumerate(text):
            if "\ud800" <= ch <= "\udfff":
                return f"{where}: {what} has a lone surrogate {ch!r} at index {i}"
        return None

    def string(value, where: str) -> str | None:
        if not isinstance(value, str):
            return f"{where}: expected a string, got {value!r}"
        return surrogate(value, where, "string")

    def members(value, allowed, where: str, what: str = "field(s)") -> str | None:
        if not isinstance(value, dict):
            return f"{where}: expected an object, got {type(value).__name__}"
        unknown = sorted(value.keys() - set(allowed))
        for name in unknown:
            fault = surrogate(name, where, "field name")
            if fault:
                return fault
        if unknown:
            return f"{where}: unknown {what} {', '.join(map(shown, unknown))}"
        return None

    fault = members(obj, ("id", "channel", "vector", "index", "units", *_GROUPS), path)
    if fault:
        return fault
    if "id" not in obj:
        return f"{path}: missing required field 'id'"
    fault = string(obj["id"], f"{path}.id")
    if fault:
        return fault
    channel = obj.get("channel", "data-network")
    fault = string(channel, f"{path}.channel")
    if fault:
        return fault
    if channel not in ("human", "physical", "wireless", "telecom", "data-network", "aggregate"):
        return (f"{path}.channel: unknown channel {channel!r}; expected one of human, physical, "
                "wireless, telecom, data-network (or 'aggregate')")
    for key in ("vector", "index"):
        fault = string(obj.get(key, ""), f"{path}.{key}")
        if fault:
            return fault
    for key, names in _GROUPS.items():
        group = obj.get(key, {})
        fault = members(group, names, f"{path}.{key}")
        if fault:
            return fault
        for name, count in group.items():
            if not isinstance(count, int) or isinstance(count, bool):
                return f"{path}.{key}.{name}: expected an integer count, got {count!r}"
            if count < 0:
                return f"{path}.{key}.{name}: count must be >= 0, got {count}"
    units = obj.get("units", {})
    fault = members(units, _UNIT_KINDS, f"{path}.units", "count kind(s)")
    if fault:
        return fault
    for kind, name in units.items():
        fault = string(name, f"{path}.units.{kind}")
        if fault:
            return fault
    if not obj["id"]:
        return f"{path}: scope id must be non-empty"
    return None


@given(_scope_objects())
@settings(max_examples=600)
def test_parsed_scope_is_the_constructors_scope(raw):
    doc = json.dumps({"schema": "ravkit-scope/1", "scopes": [{"id": "first"}, raw]})
    obj = json.loads(doc)["scopes"][1]
    fault = _first_fault(obj, "$.scopes[1]")
    if fault is not None:
        with pytest.raises(ScopeFormatError) as raised:
            parse_scope_document(doc)
        assert str(raised.value) == fault
        return
    entry = parse_scope_document(doc).entries[1]
    expected = Scope(
        id=obj["id"],
        channel=obj.get("channel", "data-network"),
        vector=obj.get("vector", ""),
        index=obj.get("index", ""),
        porosity=PorosityCounts(**obj.get("porosity", {})),
        controls=ControlCounts.from_mapping(obj.get("controls", {})),
        limitations=LimitationCounts(**obj.get("limitations", {})),
    )
    scope = entry.scope
    assert scope == expected and hash(scope) == hash(expected)
    assert repr(scope) == repr(expected)
    assert pickle.loads(pickle.dumps(scope)) == expected
    assert entry == ScopeEntry(expected, obj.get("units"))
    assert repr(entry) == repr(ScopeEntry(expected, obj.get("units")))


#: One fault per step of the documented scope check order, in that order:
#: the members it sets (``None`` removes one) and the error it gives alone.
_ORDERED_FAULTS = (
    ("unknown field", {"zeta": 1}, "$.scopes[0]: unknown field(s) zeta"),
    ("missing id", {"id": None}, "$.scopes[0]: missing required field 'id'"),
    ("id not a string", {"id": 7}, "$.scopes[0].id: expected a string, got 7"),
    ("channel not a string", {"channel": 1}, "$.scopes[0].channel: expected a string, got 1"),
    ("vector", {"vector": 1.5}, "$.scopes[0].vector: expected a string, got 1.5"),
    ("index", {"index": ["x"]}, "$.scopes[0].index: expected a string, got ['x']"),
    ("porosity", {"porosity": {"access": -1}},
     "$.scopes[0].porosity.access: count must be >= 0, got -1"),
    ("controls", {"controls": {"alarm": True}},
     "$.scopes[0].controls.alarm: expected an integer count, got True"),
    ("limitations", {"limitations": {"bugs": 1}},
     "$.scopes[0].limitations: unknown field(s) bugs"),
    ("units", {"units": {"access": 3}}, "$.scopes[0].units.access: expected a string, got 3"),
    ("empty id", {"id": ""}, "$.scopes[0]: scope id must be non-empty"),
)


@pytest.mark.parametrize(
    "earlier, later",
    [
        pytest.param(a, b, id=f"{a[0]} before {b[0]}")
        for i, a in enumerate(_ORDERED_FAULTS)
        for b in _ORDERED_FAULTS[i + 1:]
        if not a[1].keys() & b[1].keys()
    ],
)
def test_scope_check_order(earlier, later):
    obj = {"id": "a"}
    for _, members, _ in (later, earlier):
        obj.update(members)
    obj = {key: value for key, value in obj.items() if value is not None}
    doc = json.dumps({"schema": "ravkit-scope/1", "scopes": [obj]})
    with pytest.raises(ScopeFormatError) as raised:
        parse_scope_document(doc)
    assert str(raised.value) == earlier[2]
    assert _first_fault(obj) == earlier[2]


_COUNT_FIELDS = tuple(name for name, kind, _ in _CSV_READ_ORDER if kind == "count")
_HOURS_FIELDS = tuple(name for name, kind, _ in _CSV_READ_ORDER if kind == "hours")


@st.composite
def _applicant_rows(draw):
    """The header, the one row and the ``ApplicantRecord`` keyword arguments
    of an applicant CSV: a valid record with, now and then, faults in its
    counts, its hours or the relations between them."""
    past = draw(st.integers(0, 4))
    positive = draw(st.integers(0, past))
    neutral = draw(st.integers(0, past - positive))
    eligible = draw(st.one_of(st.just(0), st.integers(1, 240)))
    population = draw(st.one_of(st.just(0), st.integers(1, 10**30)))
    working = draw(st.fractions(0, 24, max_denominator=12))
    fields = {
        "applicant_id": draw(st.text(st.sampled_from("ab-é中"), max_size=5)),
        "references_positive": positive,
        "references_neutral": neutral,
        "references_negative": draw(st.integers(0, past - positive - neutral)),
        "past_employer_count": past,
        "months_eligible": eligible,
        "months_unemployed": draw(st.integers(0, eligible)),
        "criminal_offenses_known": draw(st.integers(0, 3)),
        "age_years": draw(st.integers(0, 90)),
        "legal_adult_age": draw(st.sampled_from((18, 21))),
        "working_hours_per_day": working,
        "hours_alone_per_day": working * draw(st.fractions(0, 1, max_denominator=8)),
        "community_population": population,
        "employees_in_community": draw(st.integers(0, min(population, 5000))),
    }
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(("negative", "references", "unemployed", "hours",
                                      "negative hours", "employees")))
        if fault == "negative":
            fields[draw(st.sampled_from(_COUNT_FIELDS))] = -draw(st.integers(1, 10**30))
        elif fault == "references":
            fields["references_negative"] = fields["past_employer_count"] + 1
        elif fault == "unemployed":
            fields["months_unemployed"] = fields["months_eligible"] + draw(st.integers(1, 9))
        elif fault == "hours":
            fields["hours_alone_per_day"] = fields["working_hours_per_day"] + Fraction(1, 3)
        elif fault == "negative hours":
            fields[draw(st.sampled_from(_HOURS_FIELDS))] = -draw(st.fractions(0, 9)) - 1
        else:
            fields["employees_in_community"] = fields["community_population"] + 1
    defaults = {name: empty for name, _, empty in _CSV_READ_ORDER}
    cells = {}
    for name, value in fields.items():
        if value == defaults[name] and draw(st.booleans()):
            cells[name] = ""  # an empty cell reads as the default
        elif isinstance(value, Fraction):
            cells[name] = draw(st.sampled_from(
                (str(value), f"{value.numerator}/{value.denominator}", f" {value} ")
            ))
        else:
            cells[name] = draw(st.sampled_from((str(value), f" {value}")))
    header = draw(st.permutations(CSV_COLUMNS))
    return header, [cells[name] for name in header], fields


@given(_applicant_rows())
@settings(max_examples=500)
def test_parsed_record_is_the_constructors_record(case):
    header, row, fields = case
    out = io.StringIO()
    ok = ["ok" if name == "applicant_id" else "" for name in header]
    csv.writer(out).writerows([header, ok, row])
    data = out.getvalue().encode()
    if not any(row):
        assert parse_applicants_csv(data) == [ApplicantRecord("ok")]  # a blank row
        return
    if not fields["applicant_id"]:
        fields["applicant_id"] = "row-3"
    try:
        expected = ApplicantRecord(**fields)
    except DomainError as exc:
        with pytest.raises(CsvFormatError) as raised:
            parse_applicants_csv(data)
        assert str(raised.value) == f"line 3: {exc}"
        return
    first, record = parse_applicants_csv(data)
    assert first == ApplicantRecord("ok")
    assert record == expected and hash(record) == hash(expected)
    assert repr(record) == repr(expected)
    assert pickle.loads(pickle.dumps(record)) == expected
    assert [type(getattr(record, name)) for name in record.__slots__] == [
        type(getattr(expected, name)) for name in expected.__slots__
    ]


def test_csv_error_in_the_last_row_wins_over_earlier_row_errors():
    # Rows are parsed as they stream, but a row error is only raised once
    # the reader has reached the end without a CSV error.
    data = _csv({"months_unemployed": "-3"}, {"applicant_id": "ok"},
                {"applicant_id": "x" * 131073})
    with pytest.raises(CsvFormatError) as raised:
        parse_applicants_csv(data)
    assert str(raised.value) == "malformed CSV: field larger than field limit (131072)"
