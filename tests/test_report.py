"""Report rendering: golden fixtures, determinism, exact round-trips."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ravkit.errors import DigitLimitError, InputError, UndefinedTrustError
from ravkit.ingest import scope_to_obj
from ravkit.metrics import (
    CHANNELS,
    LIMITATION_CATEGORIES,
    ControlClass,
    ControlCounts,
    LimitationCounts,
    PorosityCounts,
    Scope,
    actual_security,
)
from ravkit.report import (
    emit_json,
    fraction_str,
    parse_fraction,
    parse_report,
    render_report,
    render_trust_report,
)
from ravkit.trust import (
    ApplicantRecord,
    Polarity,
    RatioRule,
    Reference,
    RuleResult,
    TrustProperty,
    score_applicant,
    trust_combine,
)

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

    def test_unencodable_text_is_not_reported_as_a_digit_limit(self, toy):
        # A library caller can build a scope id that no parser accepts; the
        # text report fails on the encoding, not with the digit-limit error.
        scope = replace(toy, id="\ud800x")
        with pytest.raises(UnicodeEncodeError):
            render_report(actual_security(scope), scope, "text")
        assert b'"\\ud800x"' in render_report(actual_security(scope), scope, "json")

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


# ---------------------------------------------------------------------------
# Differential tests: the fixed-schema emitters against the generic emitter
# ---------------------------------------------------------------------------
#
# The oracles below are the renderers the fixed-schema emitters replaced:
# dicts fed to ``emit_json`` for JSON, and line lists for text.


def oracle_breakdown_to_obj(breakdown) -> dict:
    return {
        "opsec_sum": fraction_str(breakdown.opsec_sum),
        "opsec_base": breakdown.opsec_base,
        "lc_sum": fraction_str(breakdown.lc_sum),
        "mc_per_class": {
            cls.value: fraction_str(breakdown.mc_per_class[cls]) for cls in ControlClass
        },
        "mc_sum": fraction_str(breakdown.mc_sum),
        "mc_class_a": fraction_str(breakdown.mc_class_a),
        "mc_class_b": fraction_str(breakdown.mc_class_b),
        "mc_vg": fraction_str(breakdown.mc_vg),
        "tc_per_class": {
            cls.value: fraction_str(breakdown.tc_per_class[cls]) for cls in ControlClass
        },
        "tc_base": breakdown.tc_base,
        "fc_base": breakdown.fc_base,
        "weights": {
            name: fraction_str(breakdown.weights.for_category(name))
            for name in LIMITATION_CATEGORIES
        },
        "seclim_sum": fraction_str(breakdown.seclim_sum),
        "seclim_base": breakdown.seclim_base,
        "actsec": breakdown.actsec,
    }


def oracle_report(b, scope: Scope, format: str) -> bytes:
    try:
        if format == "json":
            return emit_json(
                {
                    "schema": "ravkit-report/1",
                    "scope": scope_to_obj(scope),
                    "breakdown": oracle_breakdown_to_obj(b),
                }
            )
        return oracle_report_text(b, scope)
    except ValueError:
        raise DigitLimitError() from None


def oracle_class_pairs(values) -> str:
    return " ".join(
        f"{cls.abbreviation}={fraction_str(values[cls])}" for cls in ControlClass
    )


def oracle_report_text(b, scope: Scope) -> bytes:
    lines = [
        f"rav report: {scope.id}",
        f"scope: channel={scope.channel} vector={scope.vector or '-'} index={scope.index or '-'}",
        "",
        "inputs",
        "  porosity     visibility={visibility} access={access} trust={trust}".format(
            **scope.porosity.as_dict()
        ),
        "  controls     "
        + " ".join(f"{cls.abbreviation}={scope.controls.get(cls)}" for cls in ControlClass),
        "  limitations  "
        + " ".join(f"{name}={getattr(scope.limitations, name)}" for name in LIMITATION_CATEGORIES),
        "",
        "pipeline",
        f"  opsec_sum    {fraction_str(b.opsec_sum)}",
        f"  opsec_base   {b.opsec_base:.6f}",
        f"  lc_sum       {fraction_str(b.lc_sum)}",
        f"  fc_base      {b.fc_base:.6f}",
        f"  mc_per_class {oracle_class_pairs(b.mc_per_class)}",
        f"  mc_sum       {fraction_str(b.mc_sum)} (class_a {fraction_str(b.mc_class_a)},"
        f" class_b {fraction_str(b.mc_class_b)}, vg {fraction_str(b.mc_vg)})",
        f"  tc_per_class {oracle_class_pairs(b.tc_per_class)}",
        f"  tc_base      {b.tc_base:.6f}",
        "  weights      "
        + " ".join(
            f"{name}={fraction_str(b.weights.for_category(name))}"
            for name in LIMITATION_CATEGORIES
        ),
        f"  seclim_sum   {fraction_str(b.seclim_sum)}",
        f"  seclim_base  {b.seclim_base:.6f}",
        f"  actsec       {b.actsec:.6f}",
        "",
    ]
    return "\n".join(lines).encode("utf-8")


def oracle_trust_to_obj(applicant_id, results, score) -> dict:
    return {
        "applicant_id": applicant_id,
        "rules": [
            {
                "rule_id": r.rule_id,
                "property": r.property.value,
                "value": fraction_str(r.value) if r.defined else None,
                "undefined_reason": r.undefined_reason,
                "excluded": [list(pair) for pair in r.excluded],
            }
            for r in results
        ],
        "per_property": {
            prop.value: (fraction_str(v) if v is not None else None)
            for prop, v in score.per_property.items()
        },
        "combined": fraction_str(score.combined),
        "combined_decimal": float(score.combined),
        "mode": score.mode,
    }


def oracle_trust_report(scored, format: str) -> bytes:
    if format == "json":
        return emit_json(
            {
                "schema": "ravkit-trust/1",
                "applicants": [oracle_trust_to_obj(aid, res, sc) for aid, res, sc in scored],
            }
        )
    lines: list[str] = []
    for applicant_id, results, score in scored:
        lines.append(f"applicant: {applicant_id}")
        for r in results:
            if r.defined:
                lines.append(
                    f"  {r.rule_id:<32}{fraction_str(r.value)} ({float(r.value):.6f})"
                )
            else:
                lines.append(f"  {r.rule_id:<32}undefined: {r.undefined_reason}")
            for rule_id, reason in r.excluded:
                lines.append(f"    excluded {rule_id}: {reason}")
        label = f"combined({score.mode})"
        lines.append(f"  {label:<32}{fraction_str(score.combined)} ({float(score.combined):.6f})")
        lines.append("")
    return "\n".join(lines).encode("utf-8")


#: Labels that need escaping in JSON: quotes, backslashes, control
#: characters, non-ASCII text and a character outside the BMP.
AWKWARD = ['q"uote', "back\\slash", "tab\there", "nl\nx\x00\x1f\x7f", "naïve-日本", "emoji-\U0001F512", " "]


def differential_count(rng: random.Random) -> int:
    band = rng.random()
    if band < 0.4:
        return rng.randint(0, 3)
    if band < 0.7:
        return rng.randint(0, 50)
    if band < 0.95:
        return rng.randint(0, 10**6)
    return rng.randint(0, 10**300)


def differential_scope(rng: random.Random, i: int) -> Scope:
    def label(default: str) -> str:
        return rng.choice([default, "", *AWKWARD]) if rng.random() < 0.3 else default

    porosity = PorosityCounts(*(differential_count(rng) for _ in range(3)))
    empty = rng.random() < 0.05
    if empty:
        porosity = PorosityCounts()
    elif porosity.total == 0:
        porosity = PorosityCounts(visibility=1)
    limitations = (
        LimitationCounts()
        if empty
        else LimitationCounts(*(differential_count(rng) for _ in range(5)))
    )
    controls = ControlCounts.from_mapping(
        {cls: differential_count(rng) for cls in ControlClass if rng.random() < 0.7}
    )
    return Scope(
        id=label(f"s{i}") or f"s{i}",
        channel=rng.choice((*CHANNELS, "aggregate")),
        vector=label("internet"),
        index=label("ipv4"),
        porosity=porosity,
        controls=controls,
        limitations=limitations,
    )


class TestFixedSchemaEmittersMatchGenericEmitter:
    @pytest.mark.parametrize("format", ["json", "text"])
    def test_rav_reports_byte_identical_on_2000_seeded_scopes(self, format):
        rng = random.Random(20260)
        shapes = {"empty": 0, "huge": 0, "awkward": 0}
        for i in range(2000):
            scope = differential_scope(rng, i)
            breakdown = actual_security(scope)
            assert render_report(breakdown, scope, format) == oracle_report(
                breakdown, scope, format
            ), scope
            shapes["empty"] += scope.porosity.total == 0
            shapes["huge"] += scope.porosity.total > 10**200
            shapes["awkward"] += scope.vector in AWKWARD or scope.id in AWKWARD
        assert min(shapes.values()) >= 20, shapes

    @pytest.mark.parametrize("format", ["json", "text"])
    def test_rav_report_past_the_digit_limit_fails_alike(self, format):
        scope = Scope(id="big", porosity=PorosityCounts(visibility=10**4400))
        breakdown = actual_security(Scope(id="small", porosity=PorosityCounts(visibility=1)))
        with pytest.raises(DigitLimitError):
            render_report(breakdown, scope, format)
        with pytest.raises(DigitLimitError):
            oracle_report(breakdown, scope, format)

    @pytest.mark.parametrize("mode", ["average", "sum", "max"])
    def test_trust_reports_byte_identical_on_2000_seeded_records(self, mode):
        rng = random.Random(f"trust/{mode}")
        extra = [
            RatioRule("size/community", TrustProperty.SIZE,
                      "employees_in_community", "community_population"),
            RatioRule("value/offenses", TrustProperty.VALUE,
                      "criminal_offenses_known", "months_eligible"),
            RatioRule(AWKWARD[0], TrustProperty.COMPONENTS, "age_years", "legal_adult_age"),
            RatioRule(AWKWARD[4], TrustProperty.VISIBILITY, "months_unemployed", "age_years"),
        ]
        scored = []
        shapes = {"undefined": 0, "excluded": 0}
        while len(scored) < 2000:
            record = differential_record(rng, len(scored))
            rules = rng.sample(extra, rng.randint(0, len(extra)))
            try:
                results, score = score_applicant(record, mode=mode, extra_rules=rules)
            except UndefinedTrustError:
                continue
            if rng.random() < 0.1:
                results.append(RuleResult(
                    rng.choice(list(TrustProperty)), rng.choice(AWKWARD), None,
                    rng.choice(AWKWARD), excluded=((rng.choice(AWKWARD), rng.choice(AWKWARD)),),
                ))
                score = trust_combine(results, mode)
            scored.append((record.applicant_id, results, score))
            shapes["undefined"] += any(not r.defined for r in results)
            shapes["excluded"] += any(r.excluded for r in results)
        assert min(shapes.values()) >= 100, shapes
        for format in ("json", "text"):
            assert render_trust_report(scored, format) == oracle_trust_report(scored, format)
            # One record at a time too, so a mismatch names its record.
            for entry in scored[:200]:
                assert render_trust_report([entry], format) == oracle_trust_report(
                    [entry], format
                ), entry[0]

    def test_empty_trust_report_matches(self):
        for format in ("json", "text"):
            assert render_trust_report([], format) == oracle_trust_report([], format)


def differential_record(rng: random.Random, i: int) -> ApplicantRecord:
    eligible = rng.choice((0, rng.randint(1, 240)))
    past = rng.randint(0, 6)
    polarities = [rng.choice(list(Polarity)) for _ in range(rng.randint(0, past))]
    working = Fraction(rng.choice((0, 6, 8, 10)), rng.choice((1, 2, 3)))
    population = rng.choice((0, rng.randint(1, 10**6)))
    return ApplicantRecord(
        applicant_id=rng.choice([f"app-{i}", *AWKWARD]),
        months_unemployed=rng.randint(0, eligible),
        months_eligible=eligible,
        criminal_offenses_known=rng.choice((0, 1, 2, 10**300)),
        age_years=rng.randint(14, 70),
        legal_adult_age=rng.choice((18, 21)),
        references=tuple(Reference(f"e{k}", p) for k, p in enumerate(polarities)),
        past_employer_count=past,
        hours_alone_per_day=working * Fraction(rng.randint(0, 4), 4),
        working_hours_per_day=working,
        employees_in_community=rng.randint(0, min(population, 5000)),
        community_population=population,
    )
