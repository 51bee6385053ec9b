"""Parser tests: scope JSON, scanner XML, applicant CSV.

Parsers must return a value or raise a structured error on any byte input,
never crash, and never coerce unknown input into silent zero counts.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ravkit.cli import dispatch
from ravkit.errors import CsvFormatError, ScanFormatError, ScopeFormatError, RavkitError
from ravkit.ingest import (
    import_scan_report,
    import_scan_xml,
    merge_scan_into_scope,
    parse_applicants_csv,
    parse_scope_document,
    parse_scope_file,
    render_scope_document,
)
from ravkit.metrics import PorosityCounts


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
        porosity = import_scan_xml((fixtures / "scan_1host_1port.xml").read_bytes())
        assert porosity == PorosityCounts(visibility=1, access=1, trust=0)

    def test_one_host_three_ports(self, fixtures):
        porosity = import_scan_xml((fixtures / "scan_1host_3ports.xml").read_bytes())
        assert porosity == PorosityCounts(visibility=1, access=3, trust=0)

    def test_no_up_hosts(self, fixtures):
        porosity = import_scan_xml((fixtures / "scan_0hosts.xml").read_bytes())
        assert porosity == PorosityCounts(0, 0, 0)

    def test_diagnostics_count_ignored_elements(self, fixtures):
        report = import_scan_report((fixtures / "scan_1host_1port.xml").read_bytes())
        assert report.hosts_total == 1
        assert report.ignored_elements.get("address") == 1
        assert report.ignored_elements.get("extraports") == 1
        assert "service" in report.ignored_elements

    def test_malformed_xml_rejected(self):
        with pytest.raises(ScanFormatError, match="malformed"):
            import_scan_xml(b"<nmaprun><host>")

    def test_unknown_root_rejected_not_zeroed(self):
        with pytest.raises(ScanFormatError, match="schema"):
            import_scan_xml(b"<scandata></scandata>")

    def test_unknown_output_version_rejected(self):
        with pytest.raises(ScanFormatError, match="version"):
            import_scan_xml(b'<nmaprun xmloutputversion="9.99"></nmaprun>')

    def test_adding_open_port_increases_access_by_one(self, fixtures):
        base = (fixtures / "scan_1host_1port.xml").read_text()
        extra_port = (
            '<port protocol="tcp" portid="8080">'
            '<state state="open" reason="syn-ack"/></port>'
        )
        grown = base.replace("</ports>", extra_port + "</ports>")
        before = import_scan_xml(base.encode())
        after = import_scan_xml(grown.encode())
        assert after.access == before.access + 1
        assert after.visibility == before.visibility

    def test_closed_and_filtered_ports_not_counted(self, fixtures):
        report = import_scan_report((fixtures / "scan_1host_3ports.xml").read_bytes())
        assert report.open_ports == 3

    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_never_crashes_on_arbitrary_bytes(self, data):
        try:
            import_scan_xml(data)
        except RavkitError:
            pass

    def test_merge_sums_porosity_and_keeps_the_rest(self, toy):
        merged = merge_scan_into_scope(PorosityCounts(1, 3, 0), toy)
        assert merged.porosity == PorosityCounts(2, 4, 0)
        assert merged.controls == toy.controls
        assert merged.limitations == toy.limitations
        assert merged.id == toy.id


class TestApplicantCsv:
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
        assert len(mixed.references) == 4

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

    def test_missing_required_column(self):
        with pytest.raises(CsvFormatError, match="age_years"):
            parse_applicants_csv(b"applicant_id\nx\n", required_columns=("age_years",))

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
