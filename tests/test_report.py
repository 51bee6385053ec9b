"""Report rendering: golden fixtures, determinism, exact round-trips."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from ravkit.errors import InputError
from ravkit.metrics import Scope, actual_security
from ravkit.report import (
    emit_json,
    fraction_str,
    parse_fraction,
    parse_report,
    render_report,
    render_trust_report,
)
from ravkit.trust import ApplicantRecord, score_applicant

from conftest import random_scope


class TestFractionStrings:
    def test_round_trip(self):
        for value in (Fraction(19, 20), Fraction(2), Fraction(0), Fraction(-7, 3)):
            assert parse_fraction(fraction_str(value)) == value

    def test_bad_input(self):
        with pytest.raises(InputError):
            parse_fraction("1.5")
        with pytest.raises(InputError):
            parse_fraction("1/0")


class TestJsonEmitter:
    def test_sorted_keys_and_fixed_floats(self):
        out = emit_json({"b": 1.5, "a": [True, None, "x"]})
        assert out == b'{"a": [true, null, "x"], "b": 1.500000}\n'

    def test_six_decimal_floats(self):
        assert emit_json(1 / 3) == b"0.333333\n"


class TestRavReport:
    def test_json_fields(self, toy):
        doc = json.loads(render_report(actual_security(toy), toy, "json"))
        assert doc["schema"] == "ravkit-report/1"
        assert doc["breakdown"]["seclim_sum"] == "176121/400"
        assert doc["breakdown"]["actsec"] == pytest.approx(-12.744, abs=0.01)
        # Input echo is part of the document.
        assert doc["scope"]["porosity"] == {"visibility": 1, "access": 1, "trust": 0}
        assert doc["scope"]["controls"]["authentication"] == 1

    def test_text_golden(self, fixtures, toy):
        got = render_report(actual_security(toy), toy, "text")
        assert got == (fixtures / "toy_report.txt").read_bytes()

    def test_json_golden(self, fixtures, toy):
        got = render_report(actual_security(toy), toy, "json")
        assert got == (fixtures / "toy_report.json").read_bytes()

    def test_empty_scope_text_states_100(self):
        scope = Scope(id="empty")
        text = render_report(actual_security(scope), scope, "text").decode()
        assert "actsec       100.000000" in text

    def test_input_echo_always_present(self):
        import random

        rng = random.Random(3)
        for _ in range(20):
            scope = random_scope(rng)
            text = render_report(actual_security(scope), scope, "text").decode()
            assert f"visibility={scope.porosity.visibility}" in text
            assert f"vulnerabilities={scope.limitations.vulnerabilities}" in text

    def test_byte_identical_across_runs(self, toy):
        for fmt in ("text", "json"):
            first = render_report(actual_security(toy), toy, fmt)
            second = render_report(actual_security(toy), toy, fmt)
            assert first == second

    def test_unknown_format_rejected(self, toy):
        with pytest.raises(InputError):
            render_report(actual_security(toy), toy, "yaml")

    def test_round_trip_recovers_every_intermediate_exactly(self, toy):
        b = actual_security(toy)
        scope, parsed = parse_report(render_report(b, toy, "json"))
        assert scope == toy
        assert parsed.opsec_sum == b.opsec_sum
        assert parsed.lc_sum == b.lc_sum
        assert parsed.mc_sum == b.mc_sum
        assert parsed.mc_class_a == b.mc_class_a
        assert parsed.mc_class_b == b.mc_class_b
        assert parsed.mc_vg == b.mc_vg
        assert parsed.seclim_sum == b.seclim_sum
        assert dict(parsed.mc_per_class) == dict(b.mc_per_class)
        assert dict(parsed.tc_per_class) == dict(b.tc_per_class)
        assert parsed.weights == b.weights
        # Floats are stored at six decimals by design.
        assert parsed.actsec == pytest.approx(b.actsec, abs=1e-6)

    def test_round_trip_render_is_stable(self, toy):
        b = actual_security(toy)
        rendered = render_report(b, toy, "json")
        scope, parsed = parse_report(rendered)
        assert render_report(parsed, scope, "json") == rendered

    def test_parse_rejects_other_documents(self):
        with pytest.raises(InputError):
            parse_report(b'{"schema": "other/1"}')
        with pytest.raises(InputError):
            parse_report(b"not json")

    @pytest.mark.parametrize("case", ["5000-digit number", "nested 100000 deep"])
    def test_parse_extreme_documents_is_input_error(self, case):
        if case == "nested 100000 deep":
            text = "[" * 100_000 + "]" * 100_000
        else:
            text = '{"schema": "ravkit-report/1", "breakdown": {"actsec": 1%s}}' % ("0" * 4999)
        with pytest.raises(InputError):
            parse_report(text)

    @pytest.mark.parametrize(
        "value",
        [None, "x", "1/0", [], {}, True, 10**400],
        ids=["null", "string", "zero-den", "list", "object", "bool", "1e400"],
    )
    @pytest.mark.parametrize("field", ["actsec", "mc_sum", "mc_per_class", "weights"])
    def test_parse_wrongly_typed_field_is_input_error(self, toy, field, value):
        doc = json.loads(render_report(actual_security(toy), toy, "json"))
        doc["breakdown"][field] = value
        with pytest.raises(InputError):
            parse_report(json.dumps(doc))


class TestTrustReport:
    def test_json_shape(self):
        record = ApplicantRecord(applicant_id="x", criminal_offenses_known=1, age_years=50)
        results, score = score_applicant(record)
        doc = json.loads(render_trust_report([(record.applicant_id, results, score)], "json"))
        assert doc["schema"] == "ravkit-trust/1"
        applicant = doc["applicants"][0]
        assert applicant["combined"] == "1/32"
        rules = {r["rule_id"]: r for r in applicant["rules"]}
        assert rules["consistency"]["value"] == "1/32"
        assert rules["porosity/community"]["value"] is None

    def test_text_lists_undefined_reasons(self):
        record = ApplicantRecord(applicant_id="x", criminal_offenses_known=1, age_years=50)
        results, score = score_applicant(record)
        text = render_trust_report([(record.applicant_id, results, score)], "text").decode()
        assert "consistency" in text
        assert "undefined" in text
        assert "combined(average)" in text
