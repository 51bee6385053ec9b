"""The integer trust kernel against the ``Fraction`` rules it replaced.

``reference_*`` below are the rules and ``trust_combine`` as they were
written on ``Fraction`` arithmetic, kept here as the oracle.  Records are
drawn with counts up to 10**300.  Beside each record's built-in results,
``trust_combine`` gets extra rule results built by the caller: ratios of
record fields (several per property, so within-property averaging runs)
and results that are always undefined.  Every rule value, every
per-property value, the combined score and the rendered report must
match exactly.  The results and score of ``score_applicant``, which hold
only the kernel's ints until a field is read, must be the oracle's in
every record method, and must render to the bytes (or the error) of
their unpickled twins, which hold only fields.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from ravkit.errors import DigitLimitError, DomainError, FloatRangeError, UndefinedTrustError
from ravkit.report import render_trust_report
from ravkit.trust import (
    COMBINE_MODES,
    ApplicantRecord,
    RuleResult,
    TrustProperty,
    TrustScore,
    consistency_score,
    porosity_rule,
    score_applicant,
    trust_combine,
    unmonitored_hours_rule,
)

from conftest import ratio_result

RECORDS_PER_MODE = 2000


# ---------------------------------------------------------------------------
# The Fraction oracle
# ---------------------------------------------------------------------------


def reference_consistency(record: ApplicantRecord) -> RuleResult:
    prop = TrustProperty.CONSISTENCY
    if record.months_eligible > 0:
        r1 = RuleResult(prop, "consistency/unemployment",
                        Fraction(record.months_unemployed, record.months_eligible))
    else:
        r1 = RuleResult(prop, "consistency/unemployment", None,
                        "no eligible workforce months on record")
    adult_years = record.age_years - record.legal_adult_age
    if adult_years > 0:
        r2 = RuleResult(prop, "consistency/offenses",
                        Fraction(record.criminal_offenses_known, adult_years))
    else:
        r2 = RuleResult(prop, "consistency/offenses", None,
                        "applicant not beyond the legal adult age")
    if record.past_employer_count > 0:
        flagged = record.references_neutral + record.references_negative
        r3 = RuleResult(prop, "consistency/references",
                        Fraction(flagged, record.past_employer_count))
    else:
        r3 = RuleResult(prop, "consistency/references", None, "no past employers")
    ratios = (r1, r2, r3)
    defined = [r.value for r in ratios if r.defined]
    excluded = tuple((r.rule_id, r.undefined_reason) for r in ratios if not r.defined)
    if not defined:
        return RuleResult(prop, "consistency", None,
                          "all three consistency ratios undefined", excluded)
    return RuleResult(prop, "consistency", sum(defined, Fraction(0)) / len(defined),
                      None, excluded)


def reference_porosity(record: ApplicantRecord) -> RuleResult:
    if record.community_population == 0:
        return RuleResult(TrustProperty.POROSITY, "porosity/community", None,
                          "community population not recorded")
    return RuleResult(TrustProperty.POROSITY, "porosity/community",
                      Fraction(record.employees_in_community, record.community_population))


def reference_unmonitored(record: ApplicantRecord) -> RuleResult:
    prop = TrustProperty.SUBJUGATION
    if record.working_hours_per_day == 0:
        return RuleResult(prop, "subjugation/unmonitored-hours", None,
                          "no working hours recorded")
    return RuleResult(prop, "subjugation/unmonitored-hours",
                      record.hours_alone_per_day / record.working_hours_per_day)


def reference_combine(results, mode: str) -> TrustScore:
    results = list(results)
    groups: dict = {}
    for result in results:
        groups.setdefault(result.property, []).append(result)
    per_property: dict = {}
    reasons = []
    for prop in TrustProperty:
        if prop not in groups:
            continue
        defined = [r.value for r in groups[prop] if r.defined]
        for r in groups[prop]:
            if not r.defined:
                reasons.append((r.rule_id, r.undefined_reason or ""))
        per_property[prop] = sum(defined, Fraction(0)) / len(defined) if defined else None
    values = [v for v in per_property.values() if v is not None]
    if not values:
        raise UndefinedTrustError("every supplied rule result is undefined")
    if mode == "average":
        combined = sum(values, Fraction(0)) / len(values)
    elif mode == "sum":
        combined = sum(values, Fraction(0))
    else:
        combined = max(values)
    return TrustScore(per_property=per_property, combined=combined, mode=mode,
                      undefined_reasons=tuple(reasons))


def reference_score(record, mode, extra):
    results = [reference_consistency(record), reference_porosity(record),
               reference_unmonitored(record), *extra]
    return results, reference_combine(results, mode)


def kernel_score(record, mode, extra):
    """``score_applicant`` when there is no ``extra``; otherwise the three
    rules' results with ``extra`` beside them, combined by ``trust_combine``."""
    if not extra:
        return score_applicant(record, mode)
    results = [consistency_score(record), porosity_rule(record),
               unmonitored_hours_rule(record), *extra]
    return results, trust_combine(results, mode)


# ---------------------------------------------------------------------------
# Seeded records and rules
# ---------------------------------------------------------------------------


def _count(rng: random.Random) -> int:
    """Small counts mostly, some zeros, some up to 10**300."""
    roll = rng.random()
    if roll < 0.2:
        return 0
    if roll < 0.8:
        return rng.randint(1, 60)
    return rng.randint(1, 10 ** rng.randint(2, 300))


def _hours(rng: random.Random) -> tuple[Fraction, Fraction]:
    working = Fraction(_count(rng), rng.choice((1, 2, 3, 8, _count(rng) or 1)))
    alone = working * Fraction(rng.randint(0, 8), 8)
    return alone, working


def kernel_record(rng: random.Random, i: int) -> ApplicantRecord:
    eligible = _count(rng)
    past = _count(rng)
    negative = rng.randint(0, past)
    neutral = rng.randint(0, past - negative)
    positive = rng.randint(0, past - negative - neutral)
    population = _count(rng)
    alone, working = _hours(rng)
    legal = rng.choice((18, 21, _count(rng)))
    return ApplicantRecord(
        applicant_id=f"app-{i}",
        months_unemployed=rng.randint(0, eligible),
        months_eligible=eligible,
        criminal_offenses_known=_count(rng),
        age_years=rng.choice((legal, legal + _count(rng), rng.randint(0, legal))),
        legal_adult_age=legal,
        references_positive=positive,
        references_neutral=neutral,
        references_negative=negative,
        past_employer_count=past,
        hours_alone_per_day=alone,
        working_hours_per_day=working,
        employees_in_community=rng.randint(0, population),
        community_population=population,
    )


_NUMBER_FIELDS = (
    "months_unemployed", "months_eligible", "criminal_offenses_known", "age_years",
    "legal_adult_age", "references_positive", "references_neutral", "references_negative",
    "past_employer_count", "hours_alone_per_day", "working_hours_per_day",
    "employees_in_community", "community_population",
)


NEVER_DEFINED = RuleResult(TrustProperty.INTEGRITY, "integrity/never", None, "never recorded")


def kernel_extra(rng: random.Random, record: ApplicantRecord) -> tuple:
    """0-4 extra results: ratios of any numeric fields, some sharing a
    property with a built-in rule, and sometimes a result never defined."""
    extra: list = []
    for k in range(rng.randint(0, 3)):
        prop = rng.choice((TrustProperty.SIZE, TrustProperty.CONSISTENCY,
                           TrustProperty.POROSITY, TrustProperty.VALUE))
        extra.append(ratio_result(record, f"extra/{k}", prop,
                                  rng.choice(_NUMBER_FIELDS), rng.choice(_NUMBER_FIELDS)))
    if rng.random() < 0.3:
        extra.insert(rng.randint(0, len(extra)), NEVER_DEFINED)
    return tuple(extra)


def _assert_normal(value) -> None:
    """A Fraction in lowest terms, as Fraction(n, d) would build it."""
    assert type(value) is Fraction
    assert value.denominator > 0 and gcd(value.numerator, value.denominator) == 1
    assert hash(value) == hash(Fraction(value.numerator, value.denominator))


@pytest.mark.parametrize("mode", COMBINE_MODES)
def test_kernel_matches_fraction_rules(mode):
    rng = random.Random(f"trust-kernel/{mode}")
    scored, expected = [], []
    undefined = 0
    for i in range(RECORDS_PER_MODE):
        record = kernel_record(rng, i)
        extra = kernel_extra(rng, record)
        try:
            want = reference_score(record, mode, extra)
        except UndefinedTrustError:
            undefined += 1
            with pytest.raises(UndefinedTrustError):
                kernel_score(record, mode, extra)
            continue
        results, score = kernel_score(record, mode, extra)
        assert (results, score) == want
        for r in results:
            if r.value is not None:
                _assert_normal(r.value)
        for value in score.per_property.values():
            if value is not None:
                _assert_normal(value)
        _assert_normal(score.combined)
        assert list(score.per_property) == list(want[1].per_property)
        scored.append((record.applicant_id, results, score))
        expected.append((record.applicant_id, *want))
    assert len(scored) > RECORDS_PER_MODE // 2 and undefined > 0
    # Values past the float range are a render error on both sides; the
    # rest must render to the same bytes.
    renderable = [
        (a, b) for a, b in zip(scored, expected)
        if max(abs(a[2].combined), *(r.value for r in a[1] if r.value is not None))
        < 10**300
    ]
    assert len(renderable) > RECORDS_PER_MODE // 4
    for fmt in ("text", "json"):
        assert (render_trust_report([a for a, _ in renderable], fmt)
                == render_trust_report([b for _, b in renderable], fmt))


KERNEL_RECORDS = 400
_DIGITS = sys.get_int_max_str_digits()
#: Records whose values a report cannot write: past the float range as a
#: decimal, or past the int-digit limit as num/den, or both.
LIMIT_RECORDS = (
    ApplicantRecord("float", criminal_offenses_known=10**400, age_years=19),
    ApplicantRecord("float-sum", criminal_offenses_known=10**308, age_years=19,
                    months_unemployed=1, months_eligible=1),
    ApplicantRecord("digits", employees_in_community=10**_DIGITS,
                    community_population=10**_DIGITS + 1),
    ApplicantRecord("digits-hours", hours_alone_per_day=1,
                    working_hours_per_day=Fraction(10**_DIGITS)),
    ApplicantRecord("both", criminal_offenses_known=10**400, age_years=19,
                    employees_in_community=10**_DIGITS, community_population=10**_DIGITS + 1),
)


def _kernel_cases(mode: str):
    """Seeded records with at least one defined rule, then ``LIMIT_RECORDS``:
    each with the oracle's results and score."""
    rng = random.Random(f"trust-kernel-objects/{mode}")
    cases = []
    while len(cases) < KERNEL_RECORDS:
        record = kernel_record(rng, len(cases))
        try:
            cases.append((record, reference_score(record, mode, ())))
        except UndefinedTrustError:
            continue
    return cases + [(record, reference_score(record, mode, ())) for record in LIMIT_RECORDS]


@pytest.mark.parametrize("mode", COMBINE_MODES)
def test_score_applicant_objects_are_the_oracles(mode):
    excluded = set()
    cases = _kernel_cases(mode)
    for record, wants in cases[KERNEL_RECORDS:]:
        # Past the int-digit limit, repr fails, so these compare by value.
        results, score = score_applicant(record, mode)
        assert (results, score) == wants
        assert pickle.loads(pickle.dumps((results, score))) == wants
    for record, (want_results, want_score) in cases[:KERNEL_RECORDS]:
        wants = (*want_results, want_score)

        def fresh():
            results, score = score_applicant(record, mode)
            assert type(results) is list and len(results) == 3
            return (*results, score)

        # Each check on objects no field of which has been read.
        assert fresh() == wants
        assert repr(fresh()) == repr(wants)  # per_property and reasons in order
        assert [hash(r) for r in fresh()[:3]] == [hash(r) for r in want_results]
        twins = pickle.loads(pickle.dumps(fresh()))
        assert twins == wants and all(t._kernel is None for t in twins)
        assert repr(twins) == repr(wants)
        replaced = [dataclasses.replace(obj) for obj in fresh()]
        assert replaced == list(wants) and all(r._kernel is None for r in replaced)
        changed = dataclasses.replace(fresh()[3], mode="other")
        assert changed.mode == "other" and changed.per_property == want_score.per_property
        assert list(fresh()[3].undefined_reasons) == list(want_score.undefined_reasons)
        excluded.add(want_results[0].excluded)
    assert len(excluded) == 8  # every subset of undefined consistency ratios


def _outcome(render):
    """The bytes ``render()`` returns, or the type and text of its error."""
    try:
        return render()
    except (DigitLimitError, FloatRangeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("mode", COMBINE_MODES)
def test_kernel_objects_render_as_their_unpickled_twins(mode):
    entries = []
    for record, _ in _kernel_cases(mode):
        results, score = score_applicant(record, mode)
        entries.append((record.applicant_id, results, score))
    twins = pickle.loads(pickle.dumps(entries))
    assert all(t._kernel is None for _, results, score in twins for t in (*results, score))
    failed = set()
    for fmt in ("text", "json"):
        for (i, results, score), (_, twin_results, twin_score) in zip(entries, twins):
            want = _outcome(lambda: render_trust_report([(i, twin_results, twin_score)], fmt))
            # Kernel results beside a twin score, and the other way round.
            for mixed in ((results, score), (results, twin_score), (twin_results, score)):
                assert _outcome(lambda: render_trust_report([(i, *mixed)], fmt)) == want
            if type(want) is tuple:
                failed.add((fmt, want[0]))
        renderable = [
            pair for pair in zip(entries, twins)
            if type(_outcome(lambda: render_trust_report([pair[1]], fmt))) is bytes
        ]
        assert len(renderable) > KERNEL_RECORDS // 2
        assert (render_trust_report(iter([e for e, _ in renderable]), fmt)
                == render_trust_report([t for _, t in renderable], fmt))
    assert failed == {(fmt, error) for fmt in ("text", "json")
                      for error in (DigitLimitError, FloatRangeError)}


def test_a_record_past_both_limits_fails_alike():
    # The offenses ratio is past the float range and the community ratio
    # past the int-digit limit.  The text report writes the consistency
    # line first and meets the float first; the JSON report writes every
    # num/den before its one decimal, the combined score, and meets the
    # digit limit first.
    record = LIMIT_RECORDS[-1]
    results, score = score_applicant(record, "sum")
    twin = pickle.loads(pickle.dumps(("both", results, score)))
    for fmt, error in (("text", FloatRangeError), ("json", DigitLimitError)):
        for entry in (("both", results, score), twin):
            with pytest.raises(error):
                render_trust_report([entry], fmt)


@pytest.mark.parametrize("mode", COMBINE_MODES)
def test_combine_matches_fraction_combine(mode):
    rng = random.Random(f"trust-combine/{mode}")
    properties = list(TrustProperty)
    for _ in range(RECORDS_PER_MODE):
        results = []
        for k in range(rng.randint(1, 8)):
            if rng.random() < 0.2:
                results.append(RuleResult(rng.choice(properties), f"u{k}", None, "why"))
            else:
                value = Fraction(_count(rng), _count(rng) or 1)
                results.append(RuleResult(rng.choice(properties), f"r{k}", value))
        try:
            want = reference_combine(results, mode)
        except UndefinedTrustError:
            with pytest.raises(UndefinedTrustError):
                trust_combine(results, mode)
            continue
        got = trust_combine(results, mode)
        assert got == want
        assert list(got.per_property) == list(want.per_property)
        _assert_normal(got.combined)


def test_combine_accepts_int_values():
    results = [RuleResult(TrustProperty.SIZE, "a", 1), RuleResult(TrustProperty.VALUE, "b", 0)]
    for mode in COMBINE_MODES:
        assert trust_combine(results, mode) == reference_combine(results, mode)


class TestReferencesArgument:
    @pytest.mark.parametrize("counts, message", [
        ({"references_neutral": 2, "past_employer_count": 1},
         "more references than past employers"),
        ({"references_negative": 1}, "references require at least one past employer"),
        ({"references_positive": -1, "past_employer_count": 1},
         "references_positive must be a non-negative integer, got -1"),
        ({"references_neutral": True, "past_employer_count": 1},
         "references_neutral must be a non-negative integer, got True"),
    ])
    def test_count_messages(self, counts, message):
        with pytest.raises(DomainError, match=message):
            ApplicantRecord(**counts)

    def test_huge_counts_cost_nothing(self):
        n = 10**400
        record = ApplicantRecord(references_neutral=n, past_employer_count=n)
        results, score = score_applicant(record)
        assert results[0].value == 1 and score.combined == 1
