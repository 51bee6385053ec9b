"""Trust rule and combination tests; all values are exact rationals."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest

import ravkit
from ravkit import trust
from ravkit.errors import DomainError, UndefinedTrustError
from ravkit.trust import (
    ApplicantRecord,
    RuleResult,
    TrustProperty,
    TrustScore,
    consistency_ratios,
    consistency_score,
    porosity_rule,
    ratios_equal,
    score_applicant,
    unmonitored_hours_rule,
)


def refs(neutral: int = 0, negative: int = 0, positive: int = 0) -> dict[str, int]:
    """The reference-count arguments of an ApplicantRecord."""
    return {"references_neutral": neutral, "references_negative": negative,
            "references_positive": positive}


class TestTrustProperty:
    def test_exactly_ten_members(self):
        assert len(TrustProperty) == 10
        assert {p.value for p in TrustProperty} == {
            "size", "symmetry", "visibility", "subjugation", "consistency",
            "integrity", "offsets", "value", "components", "porosity",
        }


class TestRecordInvariants:
    def test_unemployment_bounded_by_eligibility(self):
        with pytest.raises(DomainError):
            ApplicantRecord(months_unemployed=10, months_eligible=5)

    def test_alone_hours_bounded_by_working_hours(self):
        with pytest.raises(DomainError):
            ApplicantRecord(hours_alone_per_day=Fraction(9), working_hours_per_day=Fraction(8))

    def test_community_bounded_by_population(self):
        with pytest.raises(DomainError):
            ApplicantRecord(employees_in_community=10, community_population=5)

    def test_references_bounded_by_employers(self):
        with pytest.raises(DomainError):
            ApplicantRecord(**refs(neutral=2), past_employer_count=1)
        with pytest.raises(DomainError):
            ApplicantRecord(**refs(neutral=1), past_employer_count=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            ApplicantRecord(age_years=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), None, True, "3/2"])
    @pytest.mark.parametrize("field", ["hours_alone_per_day", "working_hours_per_day"])
    def test_hours_that_are_not_numbers_rejected(self, field, value):
        message = f"{field} must be an int, a Fraction or a finite float, got {value!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            ApplicantRecord(**{field: value})

    @pytest.mark.parametrize("value, hours", [
        (8, Fraction(8)), (Fraction(15, 2), Fraction(15, 2)), (7.5, Fraction(15, 2)),
    ])
    def test_hours_as_int_fraction_or_finite_float(self, value, hours):
        assert ApplicantRecord(working_hours_per_day=value).working_hours_per_day == hours


class TestConsistency:
    def test_published_one_in_thirtytwo(self):
        record = ApplicantRecord(criminal_offenses_known=1, age_years=50)
        _, r2, _ = consistency_ratios(record)
        assert r2.value == Fraction(1, 32)
        # Singleton average: the other two ratios are undefined.
        score = consistency_score(record)
        assert score.value == Fraction(1, 32)
        assert len(score.excluded) == 2

    def test_spotless_record_scores_zero(self):
        record = ApplicantRecord(
            months_unemployed=0,
            months_eligible=120,
            criminal_offenses_known=0,
            age_years=40,
            **refs(positive=3),
            past_employer_count=3,
        )
        assert consistency_score(record).value == 0

    def test_three_ratio_average(self):
        record = ApplicantRecord(
            months_unemployed=12,
            months_eligible=60,
            criminal_offenses_known=1,
            age_years=30,
            **refs(neutral=1),
            past_employer_count=4,
        )
        r1, r2, r3 = consistency_ratios(record)
        assert (r1.value, r2.value, r3.value) == (
            Fraction(1, 5), Fraction(1, 12), Fraction(1, 4))
        # Oracle: independent fraction arithmetic.
        expected = (Fraction(1, 5) + Fraction(1, 12) + Fraction(1, 4)) / 3
        assert expected == Fraction(8, 45)
        assert consistency_score(record).value == expected

    def test_minor_age_gives_undefined_offense_ratio(self):
        record = ApplicantRecord(criminal_offenses_known=0, age_years=16)
        _, r2, _ = consistency_ratios(record)
        assert not r2.defined
        assert "adult" in r2.undefined_reason

    def test_all_undefined(self):
        score = consistency_score(ApplicantRecord(age_years=18))
        assert not score.defined
        assert len(score.excluded) == 3

    def test_negative_references_count(self):
        record = ApplicantRecord(
            age_years=18, **refs(neutral=1, negative=2, positive=3),
            past_employer_count=6,
        )
        _, _, r3 = consistency_ratios(record)
        assert r3.value == Fraction(3, 6)


class TestPorosityRule:
    def test_published_community_case(self):
        record = ApplicantRecord(employees_in_community=156, community_population=5000)
        result = porosity_rule(record)
        assert result.value == Fraction(39, 1250)
        assert float(result.value) == 0.0312

    def test_zero_employees(self):
        record = ApplicantRecord(community_population=100)
        assert porosity_rule(record).value == 0

    def test_zero_population_undefined(self):
        result = porosity_rule(ApplicantRecord())
        assert not result.defined

    def test_published_rounding_equivalence(self):
        community = Fraction(39, 1250)
        conviction = Fraction(1, 32)
        assert not ratios_equal(community, conviction)
        assert ratios_equal(community, conviction, tolerance=1e-3)
        assert not ratios_equal(community, conviction, tolerance=1e-5)
        assert abs(community - conviction) == Fraction(1, 20000)

    @pytest.mark.parametrize("tolerance, shown", [
        (-1, "-1"), (-1e-9, "-1e-09"), (float("nan"), "nan"), ("x", "'x'"), (None, "None"),
        (-(10**5000), "-<5001 digits>"),
    ], ids=["-1", "-1e-09", "nan", "str", "None", "past-the-digit-limit"])
    def test_negative_or_nan_tolerance_rejected(self, tolerance, shown):
        with pytest.raises(DomainError) as raised:
            ratios_equal(1, 1, tolerance=tolerance)
        assert str(raised.value) == f"tolerance must be a number >= 0, got {shown}"

    @pytest.mark.parametrize("a, b, shown", [
        (float("nan"), 2, "nan"), (float("inf"), 2, "inf"), (1, float("-inf"), "-inf"),
        ("x", 1, "'x'"), (None, 1, "None"), (1, 1j, "1j"),
    ], ids=["nan", "inf", "-inf", "str", "None", "complex"])
    def test_ratios_that_are_not_finite_numbers_rejected(self, a, b, shown):
        with pytest.raises(DomainError) as raised:
            ratios_equal(a, b, 0.1)
        assert str(raised.value) == f"ratios must be finite numbers, got {shown}"

    @pytest.mark.parametrize("a, b, tolerance, equal", [
        (Fraction(1, 3), 10**400, 1e-9, False),
        (1, 10**400, float("inf"), True),
        (10**400, 0, 1.7976931348623157e308, False),
        (10**400, -(10**400), 10**401, True),
        (10**400, -(10**400), 10**400, False),
    ], ids=["finite", "inf", "float-max", "int-within", "int-beyond"])
    def test_difference_past_the_float_range_is_compared(self, a, b, tolerance, equal):
        assert ratios_equal(a, b, tolerance) is equal
        assert ratios_equal(b, a, tolerance) is equal


class TestUnmonitoredHours:
    @pytest.mark.parametrize(
        "alone, working, expected",
        [(2, 8, Fraction(1, 4)), (0, 8, 0), (8, 8, 1)],
    )
    def test_examples(self, alone, working, expected):
        record = ApplicantRecord(
            hours_alone_per_day=Fraction(alone), working_hours_per_day=Fraction(working)
        )
        assert unmonitored_hours_rule(record).value == expected

    def test_zero_working_hours_undefined(self):
        assert not unmonitored_hours_rule(ApplicantRecord()).defined

    def test_filed_under_subjugation(self):
        record = ApplicantRecord(hours_alone_per_day=Fraction(1), working_hours_per_day=Fraction(8))
        assert unmonitored_hours_rule(record).property is TrustProperty.SUBJUGATION


def scored(consistency=None, porosity=None, unmonitored=None, mode="average"):
    """``score_applicant`` on a record whose three rules take the given
    values, None leaving a rule undefined.  The consistency rule takes its
    value from the offenses ratio alone, so it may exceed 1; the porosity
    and unmonitored-hours rules are parts of a whole, so at most 1."""
    fields = {}
    if consistency is not None:
        value = Fraction(consistency)
        fields.update(criminal_offenses_known=value.numerator,
                      age_years=18 + value.denominator)
    if porosity is not None:
        value = Fraction(porosity)
        fields.update(employees_in_community=value.numerator,
                      community_population=value.denominator)
    if unmonitored is not None:
        fields.update(hours_alone_per_day=unmonitored, working_hours_per_day=1)
    results, score = score_applicant(ApplicantRecord(**fields), mode)
    assert [r.value for r in results] == [consistency, porosity, unmonitored]
    return results, score


def _random_values(rng: random.Random, top: int, defined: int) -> list:
    """Values for the three rules, ``defined`` of them at random places and
    the rest None, with numerators and denominators below ``top``.  Only
    the consistency rule's value may exceed 1."""
    values = [None, None, None]
    for i in rng.sample(range(3), defined):
        den = rng.randrange(1, top)
        values[i] = Fraction(rng.randrange(0, top if i == 0 else den + 1), den)
    return values


class TestCombination:
    """The average, sum and max of the three rules' values, taken by
    ``score_applicant`` on records chosen to give those values."""

    def test_average_and_max_on_distinct_properties(self):
        values = (Fraction(1, 5), Fraction(1, 12), Fraction(1, 4))
        assert scored(*values, mode="average")[1].combined == Fraction(8, 45)
        assert scored(*values, mode="max")[1].combined == Fraction(1, 4)
        assert scored(*values, mode="sum")[1].combined == Fraction(8, 15)

    def test_single_value_any_mode(self):
        for mode in ("average", "sum", "max"):
            assert scored(Fraction(3, 7), mode=mode)[1].combined == Fraction(3, 7)
            assert scored(porosity=Fraction(3, 7), mode=mode)[1].combined == Fraction(3, 7)

    def test_all_zero_values(self):
        for mode in ("average", "sum", "max"):
            assert scored(0, 0, 0, mode=mode)[1].combined == 0

    def test_within_property_averaging(self):
        # The consistency rule averages its defined ratios, 1/2 and 1/4.
        record = ApplicantRecord(months_unemployed=1, months_eligible=2,
                                 criminal_offenses_known=1, age_years=22,
                                 employees_in_community=1, community_population=8)
        _, score = score_applicant(record, "max")
        assert [r.value for r in consistency_ratios(record)] == [Fraction(1, 2), Fraction(1, 4),
                                                                  None]
        assert score.per_property[TrustProperty.CONSISTENCY] == Fraction(3, 8)
        assert score.per_property[TrustProperty.POROSITY] == Fraction(1, 8)
        assert score.combined == Fraction(3, 8)

    def test_undefined_results_reported(self):
        _, score = scored(Fraction(1, 2))
        assert score.per_property[TrustProperty.POROSITY] is None
        assert score.per_property[TrustProperty.SUBJUGATION] is None
        assert score.undefined_reasons == (
            ("subjugation/unmonitored-hours", "no working hours recorded"),
            ("porosity/community", "community population not recorded"),
        )
        assert score.combined == Fraction(1, 2)

    def test_all_undefined_rejected(self):
        with pytest.raises(UndefinedTrustError):
            scored()

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError, match="^unknown mode 'median'; expected one of "):
            scored(Fraction(1), mode="median")

    def test_max_at_least_average_at_least_zero(self):
        rng = random.Random(5)
        for _ in range(200):
            values = _random_values(rng, 30, rng.randint(1, 3))
            avg = scored(*values, mode="average")[1].combined
            top = scored(*values, mode="max")[1].combined
            assert top >= avg >= 0

    def test_permutation_invariant(self):
        # Which rule carries which value does not change the combination.
        values = (Fraction(1, 3), Fraction(2, 5), Fraction(1, 7))
        for mode in ("average", "sum", "max"):
            want = scored(*values, mode=mode)[1].combined
            for permuted in itertools.permutations(values):
                assert scored(*permuted, mode=mode)[1].combined == want

    def test_adding_zero_result_never_increases_max_or_sum(self):
        rng = random.Random(8)
        for _ in range(100):
            values = _random_values(rng, 20, rng.randint(1, 2))
            with_zero = list(values)
            with_zero[with_zero.index(None)] = Fraction(0)
            for mode in ("max", "sum"):
                before = scored(*values, mode=mode)[1].combined
                after = scored(*with_zero, mode=mode)[1].combined
                assert after <= before


class TestScoreApplicant:
    def test_built_in_rules_and_extra(self):
        record = ApplicantRecord(
            criminal_offenses_known=1,
            age_years=50,
            hours_alone_per_day=Fraction(2),
            working_hours_per_day=Fraction(8),
            employees_in_community=156,
            community_population=5000,
        )
        results, score = score_applicant(record, mode="max")
        assert len(results) == 3
        assert score.combined == Fraction(1, 4)
        assert list(score.per_property) == [
            TrustProperty.SUBJUGATION, TrustProperty.CONSISTENCY, TrustProperty.POROSITY]
        # A rule of the caller's own is combined with the rules' values by
        # Fraction arithmetic.
        size = Fraction(3, 4)
        assert max([*(r.value for r in results if r.defined), size]) == Fraction(3, 4)
        assert max(score.combined, size) == Fraction(3, 4)

    def test_structurally_bounded_rules_stay_below_one(self):
        # porosity, unmonitored hours, unemployment, references: ratios of a
        # part to its whole under the record invariants.
        rng = random.Random(11)
        for _ in range(200):
            population = rng.randrange(1, 100)
            working = rng.randrange(1, 24)
            eligible = rng.randrange(1, 240)
            employers = rng.randrange(1, 8)
            record = ApplicantRecord(
                months_unemployed=rng.randrange(0, eligible + 1),
                months_eligible=eligible,
                **refs(neutral=rng.randrange(0, employers + 1)),
                past_employer_count=employers,
                hours_alone_per_day=Fraction(rng.randrange(0, working + 1)),
                working_hours_per_day=Fraction(working),
                employees_in_community=rng.randrange(0, population + 1),
                community_population=population,
            )
            r1, _, r3 = consistency_ratios(record)
            assert 0 <= r1.value <= 1
            assert 0 <= r3.value <= 1
            assert 0 <= porosity_rule(record).value <= 1
            assert 0 <= unmonitored_hours_rule(record).value <= 1


class TestOutputsOnly:
    """Rule results and scores are built by the published rules and
    ``score_applicant`` alone."""

    @pytest.mark.parametrize("call", [
        lambda: RuleResult(TrustProperty.SIZE, "r", Fraction(1)),
        lambda: RuleResult(),
        lambda: TrustScore({TrustProperty.SIZE: Fraction(1)}, Fraction(1), "sum"),
        lambda: TrustScore(),
    ], ids=["RuleResult", "RuleResult-no-arguments", "TrustScore", "TrustScore-no-arguments"])
    def test_no_public_constructor(self, call):
        with pytest.raises(TypeError, match="^cannot create '(RuleResult|TrustScore)' instances"):
            call()

    def test_no_replace_and_no_combine(self):
        results, score = score_applicant(ApplicantRecord(community_population=3))
        for obj in (*results, score):
            assert not dataclasses.is_dataclass(obj)
            with pytest.raises(TypeError):
                dataclasses.replace(obj)
        assert "trust_combine" not in ravkit.__all__
        assert not hasattr(trust, "trust_combine")
