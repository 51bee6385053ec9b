"""Trust Properties and the published Trust Rules over applicant records.

Implements the hiring rules quoted from OSSTMM v3 chapter 5, and only
those: the three consistency ratios (unemployment gaps, criminal offenses
per adult year, neutral-or-negative references per past employer)
averaged per rule 5.4, the community-porosity ratio, and the
unmonitored-hours ratio.  Every rule value is an exact non-negative
rational; degenerate denominators make a ratio *undefined* rather than
silently zero, and undefined ratios are excluded from averages but
reported with their reason.

A rule of the caller's own is a :class:`RuleResult` built with the public
constructor and passed to :func:`trust_combine` beside the three rules'
results, ``[consistency_score(r), porosity_rule(r),
unmonitored_hours_rule(r)]``; it averages the results of each property.
Reference polarity is an explicit input, never inferred: a record holds
its references as three polarity counts, so a record with millions of
references costs no more than one with none.

The rules and :func:`trust_combine` work on int numerators and
denominators: each ratio is reduced with one gcd, and averages and sums are
taken over a common denominator (the max by cross-multiplication).
``Fraction`` objects are built only for the returned values, and each
result is built once: the rules and :func:`trust_combine` construct their
:class:`RuleResult` and :class:`TrustScore` directly, without re-checking
values they derived themselves, and a property or a combination with a
single value takes that value as it is.  The ``trust`` command scores one
applicant at a time as its report is written, so a batch never holds more
than one applicant's results.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import isfinite, lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import DomainError, UndefinedTrustError
from .metrics import Record, _exact

Rational = Union[int, Fraction]

COMBINE_MODES = ("average", "sum", "max")


class TrustProperty(enum.Enum):
    """The ten properties OSSTMM v3 claims make trust quantifiable."""

    SIZE = "size"
    SYMMETRY = "symmetry"
    VISIBILITY = "visibility"
    SUBJUGATION = "subjugation"
    CONSISTENCY = "consistency"
    INTEGRITY = "integrity"
    OFFSETS = "offsets"
    VALUE = "value"
    COMPONENTS = "components"
    POROSITY = "porosity"

    # Members compare by identity, so they may hash by it too; Enum's own
    # __hash__ is a Python call, paid on every dict lookup of a property.
    __hash__ = object.__hash__


_PROPERTIES = tuple(TrustProperty)


def _quotient(a: Rational, b: Rational) -> Fraction:
    """``a / b`` of two non-negative rationals with ``b > 0``."""
    return _exact(a.numerator * b.denominator, a.denominator * b.numerator)


def _sum(pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The sum of (numerator, denominator) pairs, unreduced, over their
    least common denominator."""
    if len(pairs) == 1:
        return pairs[0]
    den = lcm(*[d for _, d in pairs])
    return sum([n * (den // d) for n, d in pairs]), den


def _mean(pairs: Sequence[tuple[int, int]]) -> Fraction:
    num, den = _sum(pairs)
    return _exact(num, den * len(pairs))


def _coerce_hours(name: str, value: Rational | float) -> Fraction:
    if type(value) is not Fraction:
        number = isfinite(value) if isinstance(value, float) else isinstance(value, (int, Fraction))
        if not number or type(value) is bool:
            raise DomainError(f"{name} must be an int, a Fraction or a finite float, got {value!r}")
        value = Fraction(value)
    if value.numerator < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")
    return value


class ApplicantRecord(Record):
    """Inputs to the hiring Trust Rules.

    References are given and stored as three counts by polarity.  They must
    not outnumber past employers, unemployment months must fit inside the
    eligible months, unmonitored hours must fit inside the working hours,
    and community employees must fit inside the community population (when
    the respective denominators are nonzero).
    """

    __slots__ = __match_args__ = (
        "applicant_id",
        "months_unemployed",
        "months_eligible",
        "criminal_offenses_known",
        "age_years",
        "legal_adult_age",
        "past_employer_count",
        "hours_alone_per_day",
        "working_hours_per_day",
        "employees_in_community",
        "community_population",
        "references_positive",
        "references_neutral",
        "references_negative",
    )
    applicant_id: str
    months_unemployed: int
    months_eligible: int
    criminal_offenses_known: int
    age_years: int
    legal_adult_age: int
    past_employer_count: int
    hours_alone_per_day: Fraction
    working_hours_per_day: Fraction
    employees_in_community: int
    community_population: int
    references_positive: int
    references_neutral: int
    references_negative: int

    def __init__(
        self,
        applicant_id: str = "",
        months_unemployed: int = 0,
        months_eligible: int = 0,
        criminal_offenses_known: int = 0,
        age_years: int = 0,
        legal_adult_age: int = 18,
        past_employer_count: int = 0,
        hours_alone_per_day: Fraction = Fraction(0),
        working_hours_per_day: Fraction = Fraction(0),
        employees_in_community: int = 0,
        community_population: int = 0,
        references_positive: int = 0,
        references_neutral: int = 0,
        references_negative: int = 0,
    ) -> None:
        # The checked values fill the slots as unpickling fills them.
        self.__setstate__(_checked(
            applicant_id, months_unemployed, months_eligible, criminal_offenses_known,
            age_years, legal_adult_age, past_employer_count, hours_alone_per_day,
            working_hours_per_day, employees_in_community, community_population,
            references_positive, references_neutral, references_negative,
        ))


def _check_count(name: str, value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")


# The count fields of an ApplicantRecord, in the order they are checked.
_REFERENCE_COUNTS = (
    "references_positive", "references_neutral", "references_negative", "past_employer_count"
)
_OTHER_COUNTS = (
    "months_unemployed", "months_eligible", "criminal_offenses_known", "age_years",
    "legal_adult_age", "employees_in_community", "community_population",
)


def _check_counts(names: Sequence[str], values: Sequence[object]) -> None:
    for name, value in zip(names, values):
        if type(value) is not int or value < 0:
            _check_count(name, value)


def _checked(
    applicant_id: str,
    months_unemployed: int,
    months_eligible: int,
    criminal_offenses_known: int,
    age_years: int,
    legal_adult_age: int,
    past_employer_count: int,
    hours_alone_per_day: Rational | float,
    working_hours_per_day: Rational | float,
    employees_in_community: int,
    community_population: int,
    references_positive: int,
    references_neutral: int,
    references_negative: int,
) -> tuple:
    """The values of an :class:`ApplicantRecord`, in slot order, once every
    check passes; the hours are returned as ``Fraction`` values.

    The public constructor and the CSV parser both call this.  A count that
    is already an int, and hours that are already a ``Fraction``, skip the
    type checks, so a parsed row pays for its range checks only.
    """
    # The reference counts are checked first, so a record with a reference
    # fault reports it before any other count fault.
    _check_counts(
        _REFERENCE_COUNTS,
        (references_positive, references_neutral, references_negative, past_employer_count),
    )
    total = references_positive + references_neutral + references_negative
    if total and past_employer_count == 0:
        raise DomainError("references require at least one past employer")
    if past_employer_count < total:
        raise DomainError("more references than past employers")
    _check_counts(
        _OTHER_COUNTS,
        (
            months_unemployed, months_eligible, criminal_offenses_known, age_years,
            legal_adult_age, employees_in_community, community_population,
        ),
    )
    alone = _coerce_hours("hours_alone_per_day", hours_alone_per_day)
    working = _coerce_hours("working_hours_per_day", working_hours_per_day)
    if months_eligible > 0 and months_unemployed > months_eligible:
        raise DomainError("months_unemployed cannot exceed months_eligible")
    if alone.numerator * working.denominator > working.numerator * alone.denominator:
        raise DomainError("hours_alone_per_day cannot exceed working_hours_per_day")
    if community_population > 0 and employees_in_community > community_population:
        raise DomainError("employees_in_community cannot exceed community_population")
    return (
        applicant_id, months_unemployed, months_eligible, criminal_offenses_known, age_years,
        legal_adult_age, past_employer_count, alone, working, employees_in_community,
        community_population, references_positive, references_neutral, references_negative,
    )


class RuleResult(Record):
    """Value of one trust rule: an exact ratio, or undefined with a reason."""

    __slots__ = __match_args__ = ("property", "rule_id", "value", "undefined_reason", "excluded")
    property: TrustProperty
    rule_id: str
    value: Fraction | None
    undefined_reason: str | None
    excluded: tuple[tuple[str, str], ...]

    def __init__(
        self,
        property: TrustProperty,
        rule_id: str,
        value: Fraction | None,
        undefined_reason: str | None = None,
        excluded: tuple[tuple[str, str], ...] = (),
    ) -> None:
        if value is None and not undefined_reason:
            raise DomainError(f"undefined rule {rule_id!r} needs a reason")
        if value is not None and value.numerator < 0:
            raise DomainError(f"rule {rule_id!r} value must be >= 0, got {value}")
        self.__setstate__((property, rule_id, value, undefined_reason, excluded))

    @property
    def defined(self) -> bool:
        return self.value is not None


class TrustScore(Record):
    """Per-property trust values and their combination under one mode."""

    __slots__ = __match_args__ = ("per_property", "combined", "mode", "undefined_reasons")
    per_property: Mapping[TrustProperty, Fraction | None]
    combined: Fraction
    mode: str
    undefined_reasons: tuple[tuple[str, str], ...]

    def __init__(
        self,
        per_property: Mapping[TrustProperty, Fraction | None],
        combined: Fraction,
        mode: str,
        undefined_reasons: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.__setstate__((per_property, combined, mode, undefined_reasons))


# ---------------------------------------------------------------------------
# Built-in rules
# ---------------------------------------------------------------------------


#: The consistency ratios' rule ids and the reason each is undefined.
_CONSISTENCY_RULES = (
    ("consistency/unemployment", "no eligible workforce months on record"),
    ("consistency/offenses", "applicant not beyond the legal adult age"),
    ("consistency/references", "no past employers"),
)


def _consistency_terms(record: ApplicantRecord) -> tuple[tuple[int, int], ...]:
    """The three consistency ratios as (numerator, denominator), in
    ``_CONSISTENCY_RULES`` order; a zero denominator marks an undefined ratio."""
    return (
        (record.months_unemployed, record.months_eligible),
        (record.criminal_offenses_known, max(record.age_years - record.legal_adult_age, 0)),
        (record.references_neutral + record.references_negative, record.past_employer_count),
    )


def consistency_ratios(record: ApplicantRecord) -> tuple[RuleResult, RuleResult, RuleResult]:
    """The three consistency ratios, before the rule-5.4 averaging."""
    prop = TrustProperty.CONSISTENCY
    r1, r2, r3 = (
        RuleResult._trusted((prop, rule_id, _exact(num, den), None, ())) if den
        else RuleResult._trusted((prop, rule_id, None, reason, ()))
        for (rule_id, reason), (num, den) in zip(_CONSISTENCY_RULES, _consistency_terms(record))
    )
    return r1, r2, r3


def consistency_score(record: ApplicantRecord) -> RuleResult:
    """Average of the defined consistency ratios; excluded ratios are reported."""
    terms = _consistency_terms(record)
    defined = [term for term in terms if term[1]]
    excluded = tuple([rule for rule, (_, den) in zip(_CONSISTENCY_RULES, terms) if not den])
    prop, rule_id = TrustProperty.CONSISTENCY, "consistency"
    if not defined:
        reason = "all three consistency ratios undefined"
        return RuleResult._trusted((prop, rule_id, None, reason, excluded))
    return RuleResult._trusted((prop, rule_id, _mean(defined), None, excluded))


def porosity_rule(record: ApplicantRecord) -> RuleResult:
    """Community employees divided by the community population."""
    prop, rule_id = TrustProperty.POROSITY, "porosity/community"
    if record.community_population == 0:
        return RuleResult._trusted((prop, rule_id, None, "community population not recorded", ()))
    value = _exact(record.employees_in_community, record.community_population)
    return RuleResult._trusted((prop, rule_id, value, None, ()))


def unmonitored_hours_rule(record: ApplicantRecord) -> RuleResult:
    """Hours working alone, unassisted, unmonitored per working hour.

    OSSTMM does not name the property this rule instantiates; it is filed
    under Subjugation.
    """
    prop, rule_id = TrustProperty.SUBJUGATION, "subjugation/unmonitored-hours"
    if record.working_hours_per_day == 0:
        return RuleResult._trusted((prop, rule_id, None, "no working hours recorded", ()))
    value = _quotient(record.hours_alone_per_day, record.working_hours_per_day)
    return RuleResult._trusted((prop, rule_id, value, None, ()))


def trust_combine(results: Iterable[RuleResult], mode: str = "average") -> TrustScore:
    """Group results per property (averaging within a property), then combine
    the defined per-property values under ``average``, ``sum`` or ``max``."""
    if mode not in COMBINE_MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {', '.join(COMBINE_MODES)}")
    groups: dict[TrustProperty, list[RuleResult]] = {}
    for result in results:
        group = groups.get(result.property)
        if group is None:
            groups[result.property] = [result]
        else:
            group.append(result)

    per_property: dict[TrustProperty, Fraction | None] = {}
    values: list[Fraction] = []
    reasons: list[tuple[str, str]] = []
    for prop in _PROPERTIES:
        group = groups.get(prop)
        if group is None:
            continue
        defined = []
        for r in group:
            if r.value is None:
                reasons.append((r.rule_id, r.undefined_reason or ""))
            else:
                defined.append(r.value)
        if not defined:
            per_property[prop] = None
            continue
        if len(defined) == 1 and type(defined[0]) is Fraction:
            value = defined[0]
        else:
            value = _mean([(v.numerator, v.denominator) for v in defined])
        per_property[prop] = value
        values.append(value)

    if not values:
        raise UndefinedTrustError("every supplied rule result is undefined")
    # A lone value is every mode's combination of it.
    combined = values[0]
    if mode == "max":
        for value in values[1:]:
            if value.numerator * combined.denominator > combined.numerator * value.denominator:
                combined = value
    elif len(values) > 1:
        num, den = _sum([(v.numerator, v.denominator) for v in values])
        combined = _exact(num, den * len(values) if mode == "average" else den)
    return TrustScore._trusted((per_property, combined, mode, tuple(reasons)))


def score_applicant(
    record: ApplicantRecord, mode: str = "average"
) -> tuple[list[RuleResult], TrustScore]:
    """Evaluate the three published rules and combine them."""
    results = [consistency_score(record), porosity_rule(record), unmonitored_hours_rule(record)]
    return results, trust_combine(results, mode)


def ratios_equal(a: Rational, b: Rational, tolerance: float = 0.0) -> bool:
    """Compare two ratios exactly (tolerance 0) or within an absolute tolerance."""
    if not tolerance >= 0:  # negative or NaN
        raise DomainError(f"tolerance must be a number >= 0, got {tolerance!r}")
    a, b = Fraction(a), Fraction(b)
    if tolerance == 0:
        return a == b
    return float(abs(a - b)) <= tolerance
