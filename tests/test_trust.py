"""Trust rule and combination tests; all values are exact rationals."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from ravkit.errors import DomainError, UndefinedTrustError
from ravkit.report import render_trust_report
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
    trust_combine,
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

    @pytest.mark.parametrize("tolerance", [-1, -1e-9, float("nan")])
    def test_negative_or_nan_tolerance_rejected(self, tolerance):
        with pytest.raises(DomainError, match="tolerance must be a number >= 0"):
            ratios_equal(1, 1, tolerance=tolerance)


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


def _results(*values: Fraction) -> list[RuleResult]:
    properties = list(TrustProperty)
    return [
        RuleResult(properties[i], f"rule-{i}", Fraction(v)) for i, v in enumerate(values)
    ]


class TestTrustCombine:
    def test_average_and_max_on_distinct_properties(self):
        results = _results(Fraction(1, 5), Fraction(1, 12), Fraction(1, 4))
        assert trust_combine(results, "average").combined == Fraction(8, 45)
        assert trust_combine(results, "max").combined == Fraction(1, 4)
        assert trust_combine(results, "sum").combined == Fraction(8, 15)

    def test_single_value_any_mode(self):
        for mode in ("average", "sum", "max"):
            assert trust_combine(_results(Fraction(3, 7)), mode).combined == Fraction(3, 7)

    def test_all_zero_values(self):
        for mode in ("average", "sum", "max"):
            assert trust_combine(_results(0, 0, 0), mode).combined == 0

    def test_within_property_averaging(self):
        results = [
            RuleResult(TrustProperty.CONSISTENCY, "a", Fraction(1, 2)),
            RuleResult(TrustProperty.CONSISTENCY, "b", Fraction(1, 4)),
            RuleResult(TrustProperty.POROSITY, "c", Fraction(1, 8)),
        ]
        score = trust_combine(results, "max")
        assert score.per_property[TrustProperty.CONSISTENCY] == Fraction(3, 8)
        assert score.combined == Fraction(3, 8)

    def test_undefined_results_reported(self):
        results = [
            RuleResult(TrustProperty.CONSISTENCY, "a", Fraction(1, 2)),
            RuleResult(TrustProperty.POROSITY, "b", None, "no population"),
        ]
        score = trust_combine(results, "average")
        assert score.per_property[TrustProperty.POROSITY] is None
        assert score.undefined_reasons == (("b", "no population"),)
        assert score.combined == Fraction(1, 2)

    def test_all_undefined_rejected(self):
        results = [RuleResult(TrustProperty.POROSITY, "b", None, "no population")]
        with pytest.raises(UndefinedTrustError):
            trust_combine(results, "average")

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            trust_combine(_results(Fraction(1)), "median")

    def test_max_at_least_average_at_least_zero(self):
        rng = random.Random(5)
        for _ in range(200):
            values = [Fraction(rng.randrange(0, 30), rng.randrange(1, 30)) for _ in
                      range(rng.randint(1, 8))]
            results = [
                RuleResult(list(TrustProperty)[i % 10], f"r{i}", v)
                for i, v in enumerate(values)
            ]
            avg = trust_combine(results, "average").combined
            top = trust_combine(results, "max").combined
            assert top >= avg >= 0

    def test_permutation_invariant(self):
        rng = random.Random(6)
        results = _results(Fraction(1, 3), Fraction(2, 5), Fraction(1, 7), Fraction(3, 4))
        for mode in ("average", "sum", "max"):
            want = trust_combine(results, mode).combined
            for _ in range(10):
                shuffled = list(results)
                rng.shuffle(shuffled)
                assert trust_combine(shuffled, mode).combined == want

    def test_adding_zero_result_never_increases_max_or_sum(self):
        rng = random.Random(8)
        for _ in range(100):
            values = [Fraction(rng.randrange(0, 20), rng.randrange(1, 20)) for _ in
                      range(rng.randint(1, 6))]
            results = [
                RuleResult(list(TrustProperty)[i % 10], f"r{i}", v)
                for i, v in enumerate(values)
            ]
            zero = RuleResult(list(TrustProperty)[rng.randrange(10)], "zero", Fraction(0))
            for mode in ("max", "sum"):
                before = trust_combine(results, mode).combined
                after = trust_combine(results + [zero], mode).combined
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
        # A rule of the caller's own is a RuleResult combined beside them.
        extra = RuleResult(TrustProperty.SIZE, "size/team", Fraction(3, 4))
        score2 = trust_combine([*results, extra], "max")
        assert score2.per_property[TrustProperty.SIZE] == Fraction(3, 4)
        assert score2.combined == Fraction(3, 4)
        assert list(score2.per_property) == [TrustProperty.SIZE, *score.per_property]

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


SIZE, VALUE = TrustProperty.SIZE, TrustProperty.VALUE


class TestResultAndScoreChecks:
    """A result or score that ``trust_combine`` or the report could not
    take is refused by its constructor, with one line."""

    @pytest.mark.parametrize("args, message", [
        (("size", "x", Fraction(1)), "rule property must be a TrustProperty, got 'size'"),
        ((SIZE, 5, Fraction(1)), "rule id must be a str, got 5"),
        ((SIZE, "r", 0.5), "rule 'r' value must be an int or a Fraction, got 0.5"),
        ((SIZE, "r", True), "rule 'r' value must be an int or a Fraction, got True"),
        ((SIZE, "r", "1/2"), "rule 'r' value must be an int or a Fraction, got '1/2'"),
        ((SIZE, "r", -1), "rule 'r' value must be >= 0, got -1"),
        ((SIZE, "r", None, 7), "rule 'r' reason must be a str, got 7"),
        ((SIZE, "r", 1, None, [("a", "why")]),
         r"rule 'r' excluded must be a tuple of \(str, str\) pairs, got \[\('a', 'why'\)\]"),
        ((SIZE, "r", 1, None, (("a",),)),
         r"rule 'r' excluded must be a tuple of \(str, str\) pairs, got \(\('a',\),\)"),
        ((SIZE, "r", 1, None, (("a", 2),)),
         r"rule 'r' excluded must be a tuple of \(str, str\) pairs, got \(\('a', 2\),\)"),
    ], ids=["str-property", "int-rule-id", "float", "bool", "str-value", "negative",
            "int-reason", "list-excluded", "short-pair", "int-in-pair"])
    def test_rule_result_refusals(self, args, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            RuleResult(*args)

    @pytest.mark.parametrize("args, message", [
        (({}, 0.5, "average"), "combined score must be an int or a Fraction, got 0.5"),
        (({}, Fraction(-1), "max"), "combined score must be >= 0, got -1"),
        (({}, False, "max"), "combined score must be an int or a Fraction, got False"),
        (({}, 1, "nope"), "unknown mode 'nope'; expected one of average, sum, max"),
        (({"size": Fraction(1)}, 1, "sum"),
         "per_property key must be a TrustProperty, got 'size'"),
        (({SIZE: 0.5}, 1, "sum"), "per_property value of 'size' must be an int or a "
                                  "Fraction, got 0.5"),
        (({SIZE: Fraction(-1, 2)}, 1, "sum"), "per_property value of 'size' must be >= 0, "
                                              "got -1/2"),
        (({}, 1, "sum", [("a", "why")]),
         r"undefined_reasons must be a tuple of \(str, str\) pairs, got \[\('a', 'why'\)\]"),
    ], ids=["float", "negative", "bool", "unknown-mode", "str-key", "float-value",
            "negative-value", "list-reasons"])
    def test_trust_score_refusals(self, args, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            TrustScore(*args)

    def test_int_values_and_undefined_properties_are_accepted(self):
        result = RuleResult(SIZE, "r", 3, "a reason a defined result may carry")
        score = TrustScore({SIZE: 3, VALUE: None}, 3, "max", (("v", "why"),))
        assert result.defined and score.combined == 3
        assert result._kernel == ((SIZE, "r", "a reason a defined result may carry", ()), 3, 1)
        assert score._kernel == (((SIZE, 3, 1), (VALUE, 0, 0)), 3, 1, "max", (("v", "why"),))

    def test_combine_no_longer_drops_a_result(self):
        # A str property used to be grouped under no property and dropped.
        with pytest.raises(DomainError, match="^rule property must be a TrustProperty"):
            trust_combine([RuleResult(SIZE, "a", Fraction(1, 2)),
                           RuleResult("size", "x", Fraction(1))], "sum")

    def test_kernel_follows_a_changed_mapping(self):
        # A score's kernel is derived from its fields at every read, so a
        # caller who changes their mapping later cannot make the two disagree.
        values = {SIZE: Fraction(1, 2)}
        score = TrustScore(values, Fraction(1, 2), "sum")
        assert score._kernel[0] == ((SIZE, 1, 2),)
        values[VALUE] = Fraction(3)
        assert score._kernel[0] == ((SIZE, 1, 2), (VALUE, 3, 1))
        assert b'"value": "3/1"' in render_trust_report([("a", [], score)], "json")
