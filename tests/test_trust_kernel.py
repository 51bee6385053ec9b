"""The integer trust kernel against the ``Fraction`` rules it replaced.

``reference_*`` below are the rules and their combination as they were
written on ``Fraction`` arithmetic, kept here as the oracle; they build
named tuples with the fields, and so the repr and hash, of ``RuleResult``
and ``TrustScore``.  Records are drawn with counts up to 10**300.  Every
rule value, every per-property value, the combined score and the
rendered report must match exactly: the report against
``oracle_trust_report``, which writes the oracle's fields.  The results
and score of ``score_applicant``, which hold only the kernel's ints until
a field is read, must be the oracle's in every record method, and their
copies and unpickled twins, rebuilt from the kernel, must render to the
same bytes (or the same error).
"""

from __future__ import annotations

import copy
import pickle
import random
import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd

import pytest

from ravkit.errors import DigitLimitError, DomainError, FloatRangeError, UndefinedTrustError
from ravkit.report import render_trust_report
from ravkit.trust import COMBINE_MODES, ApplicantRecord, TrustProperty, _combine, score_applicant

from conftest import carries_kernel, oracle_trust_report

RECORDS_PER_MODE = 2000


# ---------------------------------------------------------------------------
# The Fraction oracle
# ---------------------------------------------------------------------------

Result = namedtuple("RuleResult", "property rule_id value undefined_reason excluded",
                    defaults=(None, ()))
Result.defined = property(lambda r: r.value is not None)
Score = namedtuple("TrustScore", "per_property combined mode undefined_reasons")


def fields(obj) -> tuple:
    """A result's or score's fields, in slot order, to compare with the oracle's."""
    return obj.__getstate__()


def reference_consistency(record: ApplicantRecord) -> Result:
    prop = TrustProperty.CONSISTENCY
    if record.months_eligible > 0:
        r1 = Result(prop, "consistency/unemployment",
                    Fraction(record.months_unemployed, record.months_eligible))
    else:
        r1 = Result(prop, "consistency/unemployment", None,
                    "no eligible workforce months on record")
    adult_years = record.age_years - record.legal_adult_age
    if adult_years > 0:
        r2 = Result(prop, "consistency/offenses",
                    Fraction(record.criminal_offenses_known, adult_years))
    else:
        r2 = Result(prop, "consistency/offenses", None,
                    "applicant not beyond the legal adult age")
    if record.past_employer_count > 0:
        flagged = record.references_neutral + record.references_negative
        r3 = Result(prop, "consistency/references",
                    Fraction(flagged, record.past_employer_count))
    else:
        r3 = Result(prop, "consistency/references", None, "no past employers")
    ratios = (r1, r2, r3)
    defined = [r.value for r in ratios if r.defined]
    excluded = tuple((r.rule_id, r.undefined_reason) for r in ratios if not r.defined)
    if not defined:
        return Result(prop, "consistency", None,
                      "all three consistency ratios undefined", excluded)
    return Result(prop, "consistency", sum(defined, Fraction(0)) / len(defined),
                  None, excluded)


def reference_porosity(record: ApplicantRecord) -> Result:
    if record.community_population == 0:
        return Result(TrustProperty.POROSITY, "porosity/community", None,
                      "community population not recorded")
    return Result(TrustProperty.POROSITY, "porosity/community",
                  Fraction(record.employees_in_community, record.community_population))


def reference_unmonitored(record: ApplicantRecord) -> Result:
    prop = TrustProperty.SUBJUGATION
    if record.working_hours_per_day == 0:
        return Result(prop, "subjugation/unmonitored-hours", None,
                      "no working hours recorded")
    return Result(prop, "subjugation/unmonitored-hours",
                  record.hours_alone_per_day / record.working_hours_per_day)


def reference_mode(values: list, mode: str) -> Fraction:
    if mode == "average":
        return sum(values, Fraction(0)) / len(values)
    if mode == "sum":
        return sum(values, Fraction(0))
    return max(values)


def reference_combine(results, mode: str) -> Score:
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
    return Score(per_property, reference_mode(values, mode), mode, tuple(reasons))


def reference_score(record, mode):
    results = [reference_consistency(record), reference_porosity(record),
               reference_unmonitored(record)]
    return results, reference_combine(results, mode)


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
        try:
            want_results, want_score = reference_score(record, mode)
        except UndefinedTrustError:
            undefined += 1
            with pytest.raises(UndefinedTrustError):
                score_applicant(record, mode)
            continue
        results, score = score_applicant(record, mode)
        assert [fields(r) for r in results] == want_results
        assert fields(score) == want_score
        for r in results:
            if r.value is not None:
                _assert_normal(r.value)
        for value in score.per_property.values():
            if value is not None:
                _assert_normal(value)
        _assert_normal(score.combined)
        assert list(score.per_property) == list(want_score.per_property)
        scored.append((record.applicant_id, results, score))
        expected.append((record.applicant_id, want_results, want_score))
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
                == oracle_trust_report([b for _, b in renderable], fmt))


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
            cases.append((record, reference_score(record, mode)))
        except UndefinedTrustError:
            continue
    return cases + [(record, reference_score(record, mode)) for record in LIMIT_RECORDS]


def _twins(objects) -> list:
    """A copy, a deep copy and an unpickled twin of ``objects``."""
    return [list(map(copy.copy, objects)), copy.deepcopy(objects),
            pickle.loads(pickle.dumps(objects))]


@pytest.mark.parametrize("mode", COMBINE_MODES)
def test_score_applicant_objects_are_the_oracles(mode):
    excluded = set()
    cases = _kernel_cases(mode)
    for record, (want_results, want_score) in cases[KERNEL_RECORDS:]:
        # Past the int-digit limit, repr fails, so these compare by value.
        results, score = score_applicant(record, mode)
        for objects in ((*results, score), *_twins((*results, score))):
            assert list(map(fields, objects)) == [*want_results, want_score]
    for record, (want_results, want_score) in cases[:KERNEL_RECORDS]:
        wants = (*want_results, want_score)

        def fresh():
            results, score = score_applicant(record, mode)
            assert type(results) is list and len(results) == 3
            return (*results, score)

        # Each check on objects no field of which has been read.
        assert tuple(map(fields, fresh())) == wants
        assert repr(fresh()) == repr(wants)  # per_property and reasons in order
        assert [hash(r) for r in fresh()[:3]] == [hash(r) for r in want_results]
        originals = fresh()
        for twins in _twins(originals):
            assert tuple(map(fields, twins)) == wants
            assert all(map(carries_kernel, twins, originals))
            assert repr(tuple(twins)) == repr(wants)
        assert fresh()[:3] == fresh()[:3] and fresh()[3] == fresh()[3]
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
    for twins in (pickle.loads(pickle.dumps(entries)), copy.deepcopy(entries)):
        _assert_twins_render_alike(entries, twins)


def _assert_twins_render_alike(entries: list, twins: list) -> None:
    for (_, twin_results, twin_score), (_, results, score) in zip(twins, entries):
        assert all(map(carries_kernel, (*twin_results, twin_score), (*results, score)))
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
    # The one combination helper, on pairs in and out of lowest terms.
    rng = random.Random(f"trust-combine/{mode}")
    for _ in range(RECORDS_PER_MODE):
        pairs = [(_count(rng), _count(rng) or 1) for _ in range(rng.randint(1, 8))]
        num, den = _combine(pairs, mode)
        assert den > 0 and gcd(num, den) == 1
        assert Fraction(num, den) == reference_mode([Fraction(*pair) for pair in pairs], mode)


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
