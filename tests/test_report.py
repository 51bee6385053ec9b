"""Report rendering: golden fixtures, determinism, exact round-trips."""

from __future__ import annotations

import copy
import importlib.util
import json
import pickle
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ravkit.cli import dispatch
from ravkit.errors import DigitLimitError, DomainError, InputError, UndefinedTrustError
from ravkit.ingest import parse_applicants_csv, scope_to_obj
from ravkit.metrics import (
    _RATIONAL_AGGREGATES,
    CHANNELS,
    LIMITATION_CATEGORIES,
    ControlClass,
    ControlCounts,
    LimitationCounts,
    PorosityCounts,
    Scope,
    actual_security,
    toy_scope,
)
from ravkit import report, trust
from ravkit.report import (
    emit_json,
    parse_report,
    render_report,
    render_trust_report,
)
from ravkit.trust import COMBINE_MODES, ApplicantRecord, score_applicant

from conftest import FIXTURES, fraction_str, oracle_trust_report, random_scope


class TestJsonEmitter:
    def test_sorted_keys_and_fixed_floats(self):
        out = emit_json({"b": 1.5, "a": [True, None, "x"]})
        assert out == b'{"a": [true, null, "x"], "b": 1.500000}\n'

    def test_six_decimal_floats(self):
        assert emit_json(1 / 3) == b"0.333333\n"

    @pytest.mark.parametrize("value, message", [
        ({1: "x"}, "JSON object keys must be strings, got 1"),
        ({1: "a", "b": 2}, "JSON object keys must be strings, got 1"),
        ({"a": [Fraction(1, 3)]}, "cannot render Fraction in a report"),
    ])
    def test_what_json_cannot_hold_is_an_input_error(self, value, message):
        with pytest.raises(InputError) as raised:
            emit_json(value)
        assert str(raised.value) == message


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
        # Scope refuses a lone surrogate in a label, but a scope built
        # without its checks can hold one; the text report then fails on
        # the encoding, not with the digit-limit error.
        with pytest.raises(DomainError, match="^scope id has a lone surrogate"):
            replace(toy, id="\ud800x")
        scope = Scope._trusted(("\ud800x", *toy.__getstate__()[1:]))
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
        # The breakdown is the kernel's, so its floats are not cut to six decimals.
        assert parsed.actsec == b.actsec

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


def _leaf_paths(obj: dict, prefix: tuple = ()) -> list[tuple]:
    """The key path of every non-object value under ``obj``."""
    paths = []
    for key, value in obj.items():
        if isinstance(value, dict):
            paths.extend(_leaf_paths(value, (*prefix, key)))
        else:
            paths.append((*prefix, key))
    return paths


def _toy_doc() -> dict:
    return json.loads((FIXTURES / "toy_report.json").read_bytes())


_BREAKDOWN_LEAVES = _leaf_paths(_toy_doc()["breakdown"])


def _refusal(doc: dict) -> str:
    """The one-line message ``parse_report`` refuses ``doc`` with."""
    with pytest.raises(InputError) as exc:
        parse_report(json.dumps(doc))
    message = str(exc.value)
    assert message and "\n" not in message
    return message


class TestReportVerifier:
    """``parse_report`` scores the echoed scope and returns the kernel's
    breakdown, or refuses a report whose breakdown disagrees with it."""

    @pytest.mark.parametrize(
        "golden", ["toy_report.json", "multi_scope_report.json", "units_shapes_report.json"]
    )
    def test_every_golden_line_parses_to_a_kernel_breakdown(self, golden):
        lines = (FIXTURES / golden).read_bytes().splitlines(keepends=True)
        for line in lines:
            scope, parsed = parse_report(line)
            assert parsed._kernel is not None
            assert parsed == actual_security(scope)
            assert render_report(parsed, scope, "json") == line
        assert len(lines) == {
            "toy_report.json": 1, "multi_scope_report.json": 6, "units_shapes_report.json": 16
        }[golden]

    def test_the_breakdown_has_37_leaves(self):
        # 7 rationals, 5 floats, 10 + 10 per-class values and 5 weights.
        assert len(_BREAKDOWN_LEAVES) == 37
        assert sorted(map(len, _BREAKDOWN_LEAVES)).count(2) == 25

    @pytest.mark.parametrize("path", _BREAKDOWN_LEAVES, ids=".".join)
    def test_each_tampered_leaf_is_refused_by_path(self, path):
        def holder(doc: dict) -> dict:
            obj = doc["breakdown"]
            for key in path[:-1]:
                obj = obj[key]
            return obj

        value = holder(_toy_doc())[path[-1]]
        if isinstance(value, str):
            num, den = value.split("/")
            tampered = (f"{int(num) + 1}/{den}", f"{2 * int(num)}/{2 * int(den)}", float(num))
        else:
            tampered = (value + 0.5, value + 1e-6, f"{value:.6f}")
        where = "$.breakdown." + ".".join(path)
        for bad in tampered:
            doc = _toy_doc()
            holder(doc)[path[-1]] = bad
            assert _refusal(doc) == f"{where}: disagrees with the breakdown computed from $.scope"

    def test_missing_leaf_is_refused_by_path(self):
        doc = _toy_doc()
        del doc["breakdown"]["weights"]["concerns"]
        assert _refusal(doc) == "$.breakdown.weights.concerns: missing"

    @pytest.mark.parametrize("where", [(), ("weights",), ("mc_per_class",)])
    def test_extra_key_is_refused(self, where):
        doc = _toy_doc()
        parent = doc["breakdown"]
        for key in where:
            parent = parent[key]
        parent["extra\nkey"] = "0/1"
        path = ".".join(("$.breakdown", *where))
        assert _refusal(doc) == f"{path}: unknown field(s) 'extra\\nkey'"

    @pytest.mark.parametrize("value", [False, 0, "0/1", None])
    def test_zero_float_is_not_false_or_an_int(self, value):
        scope = Scope(id="empty")
        doc = json.loads(render_report(actual_security(scope), scope, "json"))
        assert doc["breakdown"]["opsec_base"] == 0.0
        doc["breakdown"]["opsec_base"] = value
        assert _refusal(doc).startswith("$.breakdown.opsec_base: ")

    def test_unscorable_scope_is_input_error(self):
        doc = _toy_doc()
        doc["scope"]["porosity"] = {"visibility": 0, "access": 0, "trust": 0}
        assert _refusal(doc) == (
            "$.scope: scope 'toy' has zero porosity but nonzero limitations; "
            "limitation weights are undefined"
        )

    def test_rational_fields_read_back_as_the_fractions_written(self):
        # 19/20, 2, 0 and an awkward ratio, as the report writes and reads them.
        scopes = [toy_scope(), Scope(id="empty"),
                  Scope(id="ratio", porosity=PorosityCounts(3, 4, 5),
                        controls=ControlCounts(alarm=2), limitations=LimitationCounts(0, 1, 2, 0, 7))]
        for scope in scopes:
            doc = json.loads(render_report(actual_security(scope), scope, "json"))
            _, parsed = parse_report(json.dumps(doc))
            for name in _RATIONAL_AGGREGATES:
                value = getattr(parsed, name)
                assert fraction_str(value) == doc["breakdown"][name]
                assert Fraction(doc["breakdown"][name]) == value

    @pytest.mark.parametrize("text", ["1.5", "1/0", "19/20 ", "+19/20", "0x13/20"])
    def test_rational_not_as_written_is_refused(self, text):
        doc = _toy_doc()
        assert doc["breakdown"]["mc_vg"] == "19/20"
        doc["breakdown"]["mc_vg"] = text
        assert _refusal(doc).startswith("$.breakdown.mc_vg: ")

    def test_undecodable_bytes_are_input_error(self):
        with pytest.raises(InputError, match="not valid UTF-8"):
            parse_report(b"\xff" + (FIXTURES / "toy_report.json").read_bytes())


@pytest.mark.parametrize("field", ["mc_per_class", "tc_per_class", "per_property"])
def test_an_edited_field_dict_changes_nothing(field):
    # A field read hands out a new dict each time, so a caller who edits
    # it changes neither the record nor its copies nor its reports.
    if field == "per_property":
        record = ApplicantRecord(applicant_id="x", employees_in_community=1,
                                 community_population=4, months_eligible=2)

        def make():
            return score_applicant(record, "sum")

        def render(results, obj, fmt):
            return render_trust_report([("x", results, obj)], fmt)

        key = "not a property"
    else:
        scope = toy_scope()

        def make():
            return None, actual_security(scope)

        def render(_, obj, fmt):
            return render_report(obj, scope, fmt)

        key = ControlClass.ALARM
    results, untouched = make()
    _, edited = make()
    getattr(edited, field)[key] = Fraction(99)
    assert getattr(edited, field) == getattr(untouched, field)
    for obj in (edited, copy.copy(edited), copy.deepcopy(edited),
                pickle.loads(pickle.dumps(edited))):
        assert obj == untouched and repr(obj) == repr(untouched)
        for fmt in ("json", "text"):
            assert render(results, obj, fmt) == render(results, untouched, fmt)


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

    def test_unknown_format_rejected(self):
        with pytest.raises(InputError) as raised:
            render_trust_report([], "xml")
        assert str(raised.value) == "unknown report format 'xml'; expected text or json"

    def test_copies_render_as_the_untouched_score(self):
        # A caller who changes the per_property dict a score hands out
        # changes neither the kernel the report is written from nor the one
        # a copy or an unpickled twin is rebuilt from.
        record = ApplicantRecord(applicant_id="x", criminal_offenses_known=1, age_years=50,
                                 employees_in_community=1, community_population=4)
        want = {fmt: render_trust_report([("x", *score_applicant(record, "max"))], fmt)
                for fmt in ("json", "text")}
        results, score = score_applicant(record, "max")
        score.per_property["not a property"] = Fraction(1, 2)
        for twin in (copy.copy(score), copy.deepcopy(score), pickle.loads(pickle.dumps(score))):
            assert "not a property" not in twin.per_property
            for fmt in ("json", "text"):
                assert render_trust_report([("x", results, twin)], fmt) == want[fmt]
        for fmt in ("json", "text"):
            assert render_trust_report([("x", results, score)], fmt) == want[fmt]

    def test_pieces_hold_only_the_published_heads(self, monkeypatch):
        published = {*trust._CONSISTENCY_HEADS, *trust._POROSITY_HEADS,
                     *trust._UNMONITORED_HEADS, *(h for pair in trust._RATIO_HEADS for h in pair)}
        assert len(published) == 18
        records = parse_applicants_csv(score_batch_applicants(7, monkeypatch))
        assert len(records) == 5000
        for mode in COMBINE_MODES:
            scored = [(r.applicant_id, *score_applicant(r, mode)) for r in records]
            for fmt in ("json", "text"):
                assert render_trust_report(scored, fmt) == oracle_trust_report(scored, fmt)
        assert report._PIECES and set(report._PIECES) <= published


def score_batch_applicants(seed: int, monkeypatch) -> bytes:
    """The applicant CSV of the benchmark's ``score-batch`` workload at ``seed``."""
    path = FIXTURES.parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    return workloads.make("score-batch", seed, path.parents[1]).files["applicants.csv"]


# ---------------------------------------------------------------------------
# Differential tests: the fixed-schema emitters against the generic emitter
# ---------------------------------------------------------------------------
#
# The oracles below, and ``oracle_trust_report`` in conftest, are the
# renderers the fixed-schema emitters replaced: dicts fed to ``emit_json``
# for JSON, and line lists for text.


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


class TestKernelFill:
    """A breakdown from ``actual_security`` is rendered from its kernel ints;
    one built field by field, from its ``Fraction``s.  Both give the same bytes."""

    @pytest.mark.parametrize("format, golden", [("text", "multi_scope_report.txt"),
                                                ("json", "multi_scope_report.json")])
    def test_multi_scope_golden(self, fixtures, format, golden):
        # Six scopes: empty, zero porosity with controls, counts of 10**6
        # and 10**300, non-ASCII ids and labels.
        argv = ["rav", str(fixtures / "multi_scope.json"), "--format", format]
        assert dispatch(argv) == (0, (fixtures / golden).read_bytes(), b"")

    @pytest.mark.parametrize(("field", "label", "message"), [
        ("id", 5, "scope id must be a string, got 5"),
        ("vector", None, "scope vector must be a string, got None"),
        ("index", b"x", "scope index must be a string, got b'x'"),
        ("id", "a\ud800", "scope id has a lone surrogate: 'a\\ud800'"),
        ("vector", "\udfff", "scope vector has a lone surrogate: '\\udfff'"),
        ("index", "é\udc80", "scope index has a lone surrogate: 'é\\udc80'"),
    ], ids=["id-int", "vector-none", "index-bytes", "id-surrogate", "vector-surrogate",
            "index-surrogate"])
    def test_labels_no_report_could_carry_are_refused(self, field, label, message):
        # A label that is not a str, or that has no UTF-8 form, would give a
        # JSON report parse_report refuses and a text report that cannot be
        # encoded, so Scope refuses it; an empty id is refused after it.
        labels = {"id": "x", field: label}
        with pytest.raises(DomainError) as raised:
            Scope(**labels)
        assert str(raised.value) == message
        if field != "id":
            with pytest.raises(DomainError, match="^scope " + field):
                Scope(**{**labels, "id": ""})

    def test_non_ascii_labels_survive_a_json_round_trip(self):
        scope = Scope(id="naïve-日本", vector="emoji-\U0001F512", index="é",
                      porosity=PorosityCounts(1, 1, 0))
        text = render_report(actual_security(scope), scope, "json")
        assert text.isascii() and b'"\\u00e9"' in text
        parsed_scope, parsed = parse_report(text)
        assert parsed_scope == scope
        assert render_report(parsed, parsed_scope, "json") == text
        lines = render_report(parsed, parsed_scope, "text").decode("utf-8").splitlines()
        assert lines[:2] == ["rav report: naïve-日本",
                             "scope: channel=data-network vector=emoji-\U0001F512 index=é"]

    def test_units_shapes_golden(self, fixtures):
        # Sixteen scopes, each with a units map, which rav reads past.
        argv = ["rav", str(fixtures / "units_shapes.json"), "--format", "json"]
        assert dispatch(argv) == (0, (fixtures / "units_shapes_report.json").read_bytes(), b"")

    def test_kernel_fill_matches_the_fraction_fill_on_500_seeded_scopes(self):
        rng = random.Random("kernel-fill")
        shapes = {"empty": 0, "huge": 0, "awkward": 0}
        for i in range(500):
            scope = differential_scope(rng, i)
            b = actual_security(scope)
            text, json_report = render_report(b, scope, "text"), render_report(b, scope, "json")
            _, parsed = parse_report(json_report)
            assert b._kernel is not None and parsed._kernel is not None
            assert render_report(parsed, scope, "json") == json_report, scope
            assert render_report(parsed, scope, "text") == text, scope
            # An equal scope object that is not the breakdown's own: the
            # breakdown is checked against it, then written alike.
            twin = copy.copy(scope)
            assert twin is not scope and twin == scope
            assert render_report(b, twin, "text") == text, scope
            assert render_report(b, twin, "json") == json_report, scope
            shapes["empty"] += scope.porosity.total == 0
            shapes["huge"] += scope.porosity.total > 10**200
            shapes["awkward"] += scope.vector in AWKWARD or scope.id in AWKWARD
        assert min(shapes.values()) >= 5, shapes

    @pytest.mark.parametrize("format", ["json", "text"])
    def test_unpickled_breakdown_is_checked_against_its_scope(self, format):
        toy = toy_scope()
        b = actual_security(toy)
        expected = render_report(b, toy, format)
        # The twin holds an unpickled copy of the scope, so it is checked
        # against toy, which it equals.
        same = pickle.loads(pickle.dumps(b))
        assert same._kernel[-1] is not toy and render_report(same, toy, format) == expected
        # A breakdown that is not the scope's own is refused, not written
        # into a report that parse_report would refuse.
        undefined = Scope("undefined", limitations=LimitationCounts(1))
        for scope in (Scope("other", porosity=PorosityCounts(1)), undefined):
            with pytest.raises(InputError) as raised:
                render_report(same, scope, format)
            assert str(raised.value) == (
                f"breakdown disagrees with the one computed from scope {scope.id!r}"
            )

    @pytest.mark.parametrize("format", ["json", "text"])
    def test_kernel_breakdown_is_checked_against_another_scope(self, format):
        b = actual_security(toy_scope())
        # An equal scope object is written from the breakdown's own kernel.
        expected = render_report(b, toy_scope(), format)
        assert expected == render_report(copy.deepcopy(b), toy_scope(), format)
        if format == "json":
            assert parse_report(expected) == (toy_scope(), b)
        other = Scope("other", porosity=PorosityCounts(1))
        with pytest.raises(InputError) as raised:
            render_report(b, other, format)
        assert str(raised.value) == "breakdown disagrees with the one computed from scope 'other'"

    @pytest.mark.parametrize("format", ["json", "text"])
    def test_kernel_field_past_the_digit_limit(self, format):
        # Every count has fewer digits than the limit, but the limitation
        # sum in lowest terms has more.
        big = 10 ** (sys.get_int_max_str_digits() // 2) + 7
        scope = Scope(id="big", porosity=PorosityCounts(big, 3, 1),
                      controls=ControlCounts(authentication=7),
                      limitations=LimitationCounts(1, 0, 0, 1, 2))
        b = actual_security(scope)
        with pytest.raises(ValueError):
            str(b.seclim_sum.denominator)
        with pytest.raises(DigitLimitError):
            render_report(b, scope, format)
        with pytest.raises(DigitLimitError):
            render_report(copy.deepcopy(b), scope, format)


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
        # The scope's own breakdown: an echoed count is past the limit.
        scope = Scope(id="big", porosity=PorosityCounts(visibility=10**4400))
        breakdown = actual_security(scope)
        with pytest.raises(DigitLimitError):
            render_report(breakdown, scope, format)
        with pytest.raises(DigitLimitError):
            oracle_report(breakdown, scope, format)

    @pytest.mark.parametrize("mode", ["average", "sum", "max"])
    def test_trust_reports_byte_identical_on_2000_seeded_records(self, mode):
        rng = random.Random(f"trust/{mode}")
        scored = []
        shapes = {"undefined": 0, "excluded": 0}
        while len(scored) < 2000:
            record = differential_record(rng, len(scored))
            try:
                results, score = score_applicant(record, mode)
            except UndefinedTrustError:
                continue
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


POLARITIES = ("positive", "neutral", "negative")


def differential_record(rng: random.Random, i: int) -> ApplicantRecord:
    eligible = rng.choice((0, rng.randint(1, 240)))
    past = rng.randint(0, 6)
    polarities = [rng.choice(POLARITIES) for _ in range(rng.randint(0, past))]
    working = Fraction(rng.choice((0, 6, 8, 10)), rng.choice((1, 2, 3)))
    population = rng.choice((0, rng.randint(1, 10**6)))
    return ApplicantRecord(
        applicant_id=rng.choice([f"app-{i}", *AWKWARD]),
        months_unemployed=rng.randint(0, eligible),
        months_eligible=eligible,
        criminal_offenses_known=rng.choice((0, 1, 2, 10**300)),
        age_years=rng.randint(14, 70),
        legal_adult_age=rng.choice((18, 21)),
        **{f"references_{p}": polarities.count(p) for p in POLARITIES},
        past_employer_count=past,
        hours_alone_per_day=working * Fraction(rng.randint(0, 4), 4),
        working_hours_per_day=working,
        employees_in_community=rng.randint(0, min(population, 5000)),
        community_population=population,
    )


# ---------------------------------------------------------------------------
# Mutated reports: every outcome is a verified breakdown or one error line
# ---------------------------------------------------------------------------

def _json_containers(children):
    """Lists and objects of ``children``; a named function, since hypothesis
    can misread a lambda's source and warn that it ignores its argument."""
    return st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3)


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["0/1", "1/1", "19/20", "1/0", "1.5", "-1/2", "2/4", "100.000000"]),
    _json_containers,
    max_leaves=4,
)


def _near_misses(value) -> list:
    """Values a hand edit might put in place of ``value``: the same number
    in another type or spelling, or a count group set to zero."""
    if isinstance(value, dict):
        return [{}, dict.fromkeys(value, 0)]
    if isinstance(value, list) or isinstance(value, bool) or value is None:
        return [0, 0.0, "false"]
    if isinstance(value, float):
        return [int(value), bool(value), -value, value + 1e-6, f"{value:.6f}"]
    if isinstance(value, int):
        return [0, value + 1, float(value), bool(value), str(value)]
    num, _, den = value.partition("/")
    return [f"{num}/{den}0", f"{num} / {den}", num, "0/1", value.upper() + "x"]


def _members_of(doc: dict) -> list[tuple[dict, str]]:
    """Every (object, key) pair in a parsed JSON document."""
    found, stack = [], [doc]
    while stack:
        obj = stack.pop()
        for key, value in obj.items():
            found.append((obj, key))
            if isinstance(value, dict):
                stack.append(value)
    return found


def _typed(value):
    """A JSON value with every scalar paired with its type, so that
    ``false`` and ``0.0`` compare unequal."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_typed(item) for item in value]
    return type(value), value


@given(st.integers(0, 10**6), st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_mutated_report_is_verified_or_refused_in_one_line(seed, data):
    # One scope in four is empty, so that zero floats are common.
    scope = differential_scope(random.Random(seed), seed) if seed % 4 else Scope(id="empty")
    report = json.loads(render_report(actual_security(scope), scope, "json"))
    doc = {"report": report}
    # Mutations land anywhere in the document, or only in its breakdown.
    root = data.draw(st.sampled_from([doc, report["breakdown"]]), label="root")
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        obj, key = data.draw(st.sampled_from(_members_of(root)), label="at")
        action = data.draw(st.sampled_from(["nudge", "replace", "copy", "delete", "rename", "add"]))
        if action == "nudge":
            obj[key] = data.draw(st.sampled_from(_near_misses(obj[key])), label="value")
        elif action == "replace":
            obj[key] = data.draw(_JSON_VALUES, label="value")
        elif action == "copy":
            # Another member's value, often of the right type for this key.
            other, other_key = data.draw(st.sampled_from(_members_of(doc)), label="from")
            obj[key] = json.loads(json.dumps(other[other_key]))
        elif action == "delete" and obj is not doc:
            del obj[key]
        elif action == "rename" and obj is not doc:
            obj[data.draw(st.text(max_size=6), label="name")] = obj.pop(key)
        elif action == "add" and isinstance(obj[key], dict):
            obj[key][data.draw(st.text(max_size=6), label="name")] = data.draw(_JSON_VALUES)
    text = json.dumps(doc["report"])
    try:
        parsed_scope, parsed = parse_report(text.encode() if seed % 2 else text)
    except InputError as exc:
        assert str(exc) and "\n" not in str(exc), str(exc)
    else:
        rendered = json.loads(render_report(parsed, parsed_scope, "json"))
        assert _typed(rendered["breakdown"]) == _typed(doc["report"]["breakdown"])
