"""Acceptance criteria, one test per criterion with its stated tolerance.

Each test prints one PASS line when its assertions hold (run with ``-s`` to
see them on success; pytest shows them on failure regardless).
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from ravkit.cli import dispatch
from ravkit.critique import collision_search, cross_class_counterexample
from ravkit.ingest import import_scan_xml, parse_scope_file
from ravkit.metrics import (
    ControlClass,
    PorosityCounts,
    Scope,
    actual_security,
    aggregate_scopes,
    toy_scope,
)
from ravkit.report import render_findings
from ravkit.symbolic import equivalent, symbolic_breakdown
from ravkit.trust import (
    ApplicantRecord,
    consistency_ratios,
    porosity_rule,
    ratios_equal,
)

from conftest import FIXTURES, random_scope
from test_metrics import _swap_within_meta
from test_symbolic import TOY_UNITS, UNIT_POINT, reference_score


def _report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n:2d}: PASS - {detail}")


def test_c01_worked_example_numeric():
    scope = toy_scope()
    breakdown = actual_security(scope)
    assert breakdown.actsec == pytest.approx(-12.744, abs=0.01)
    actual_security(scope)  # warm
    best = float("inf")
    for _ in range(20):
        start = time.perf_counter()
        actual_security(scope)
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3, f"actual_security took {best * 1e3:.3f} ms"
    _report(1, f"toy scope actsec={breakdown.actsec:.6f} (-12.744 +/- 0.01), "
               f"best runtime {best * 1e6:.0f} us < 1 ms")


def test_c02_worked_example_symbolic():
    start = time.perf_counter()
    sb = symbolic_breakdown(toy_scope(), TOY_UNITS)
    reference = reference_score()
    structural = equivalent(sb.score, reference)
    sampled = equivalent(sb.score, reference, trials=100, seed=42)
    elapsed = time.perf_counter() - start
    assert structural.equivalent and structural.method == "structural"
    assert sampled.equivalent
    seclim_at_units = (sb.seclim_argument.evaluate(UNIT_POINT) - 1) / 100
    assert seclim_at_units == Fraction(176121, 400)
    assert elapsed < 1.0, f"symbolic reproduction took {elapsed:.2f} s"
    _report(2, f"pipeline score structurally equals the transcription, 100 random "
               f"points agree at 1e-9, seclim argument = 176121/400, {elapsed:.2f} s < 1 s")


def test_c03_intermediates_exact():
    # Independent derivation from the per-class definitions.
    opsec = Fraction(2)
    per_class = {
        cls: max(opsec - (1 if cls is ControlClass.AUTHENTICATION else 0), Fraction(0))
        for cls in ControlClass
    }
    expected_mc = sum(per_class.values(), Fraction(0))
    expected_a = sum(v for c, v in per_class.items() if c.meta_class == "A")
    expected_b = expected_mc - expected_a
    assert (expected_mc, expected_a, expected_b) == (19, 9, 10)
    b = actual_security(toy_scope())
    assert (b.mc_sum, b.mc_class_a, b.mc_class_b) == (19, 9, 10)
    assert (
        b.weights.vulnerabilities,
        b.weights.weaknesses,
        b.weights.concerns,
        b.weights.exposures,
        b.weights.anomalies,
    ) == (Fraction(21, 2), Fraction(11, 2), Fraction(6), Fraction(239, 20), Fraction(11))
    _report(3, "mc_sum=19, class_a=9, class_b=10, weights "
               "(21/2, 11/2, 6, 239/20, 11), all exact rationals")


def test_c04_trivial_anchors():
    b = actual_security(Scope(id="empty"))
    assert b.actsec == 100.0
    assert (b.opsec_base, b.fc_base, b.tc_base, b.seclim_base) == (0.0, 0.0, 0.0, 0.0)
    _report(4, "empty scope scores exactly 100; each of its bases is exactly 0")


def test_c05_permutation_invariance_and_counterexample():
    rng = random.Random(20240501)
    for _ in range(1000):
        scope = random_scope(rng)
        permuted = _swap_within_meta(scope, rng)
        b1, b2 = actual_security(scope), actual_security(permuted)
        assert b1.opsec_sum == b2.opsec_sum
        assert b1.lc_sum == b2.lc_sum
        assert b1.mc_sum == b2.mc_sum
        assert b1.mc_class_a == b2.mc_class_a
        assert b1.mc_class_b == b2.mc_class_b
        assert b1.mc_vg == b2.mc_vg
        assert b1.weights == b2.weights
        assert b1.seclim_sum == b2.seclim_sum
        assert b1.actsec == b2.actsec
    finding = cross_class_counterexample()
    assert finding.verdict == "violated"
    assert finding.scores["actsec_before"] != finding.scores["actsec_after"]
    _report(5, "1000 random within-meta-class permutations bit-identical; "
               f"cross-class counterexample {finding.inputs['source']} -> "
               f"{finding.inputs['target']} moves the score by "
               f"{abs(float(finding.scores['delta'])):.4f}")


def test_c06_formula_discrepancy():
    from ravkit.critique import prose_actual_security

    toy = toy_scope()
    figure = actual_security(toy).actsec
    prose = prose_actual_security(toy)
    prose_sq = prose_actual_security(toy, squared=True)
    assert abs(prose - figure) > 10
    assert abs(prose_sq - figure) > 10
    empty = Scope(id="empty")
    assert actual_security(empty).actsec == 100.0
    assert prose_actual_security(empty) == 100.0
    assert prose_actual_security(empty, squared=True) == 100.0
    _report(6, f"text form {prose:.3f} vs expanded form {figure:.3f} "
               f"(gap {abs(prose - figure):.1f} > 10); both 100 on the empty scope")


def test_c07_aggregation():
    fifty = parse_scope_file((FIXTURES / "fifty.json").read_bytes())[0]
    hundred = parse_scope_file((FIXTURES / "hundred.json").read_bytes())[0]
    agg = aggregate_scopes([fifty, hundred])
    assert agg.porosity.visibility == 150
    assert agg.porosity.access == fifty.porosity.access + hundred.porosity.access
    assert agg.porosity.trust == fifty.porosity.trust + hundred.porosity.trust
    for cls in ControlClass:
        assert agg.controls.get(cls) == fifty.controls.get(cls) + hundred.controls.get(cls)
    assert agg.limitations.vulnerabilities == 2
    assert agg.limitations.weaknesses == 4
    breakdown = actual_security(agg)
    assert breakdown.opsec_sum == agg.porosity.total
    _report(7, "50-target + 100-target scopes aggregate to 150 targets with "
               "summed controls and limitations")


def test_c08_trust_rules():
    conviction = ApplicantRecord(criminal_offenses_known=1, age_years=50)
    r2 = consistency_ratios(conviction)[1]
    assert r2.value == Fraction(1, 32)
    community = ApplicantRecord(employees_in_community=156, community_population=5000)
    ratio = porosity_rule(community).value
    assert ratio == Fraction(39, 1250)
    assert ratios_equal(r2.value, ratio, tolerance=1e-3)
    assert not ratios_equal(r2.value, ratio)
    _report(8, "offense ratio exactly 1/32, community ratio exactly 39/1250; "
               "their claimed equivalence holds at 1e-3 and fails exactly")


def test_c09_collision_search():
    start = time.perf_counter()
    findings = collision_search(3, 1e-9, 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"collision search took {elapsed:.1f} s"
    structural = [f for f in findings if f.kind == "score-collision"]
    assert structural, "no non-permutation collision pair found"
    assert structural[0].scores["coverage"]["states"] == 8_639_519
    for finding in structural:
        a, b = finding.inputs["scope_a"], finding.inputs["scope_b"]
        assert a["porosity"] != b["porosity"] or a["limitations"] != b["limitations"]
    again = collision_search(3, 1e-9, 0)
    assert render_findings(findings) == render_findings(again)
    _report(9, f"bounds<=3 exhaustive search: {len(structural)} non-permutation "
               f"collision pairs in {elapsed:.1f} s < 60 s, reproducible byte-for-byte")


def test_c10_ingestion_end_to_end(tmp_path):
    three = import_scan_xml((FIXTURES / "scan_1host_3ports.xml").read_bytes())
    assert three == PorosityCounts(visibility=1, access=3, trust=0)

    code, merged, err = dispatch([
        "import-nmap", str(FIXTURES / "scan_1host_1port.xml"),
        "--merge", str(FIXTURES / "controls_limits.json"),
    ])
    assert code == 0, err
    merged_path = tmp_path / "merged.json"
    merged_path.write_bytes(merged)
    code, out, err = dispatch(["rav", str(merged_path), "--format", "json"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["breakdown"]["actsec"] == pytest.approx(-12.744, abs=0.01)
    _report(10, "scan fixture merged through the CLI reproduces the worked "
                "example; 3-open-port fixture yields access=3")
