"""Trust Properties and ratio-based Trust Rules over applicant records.

Implements the hiring rules quoted from OSSTMM v3 chapter 5: the three
consistency ratios (unemployment gaps, criminal offenses per adult year,
neutral-or-negative references per past employer) averaged per rule 5.4,
the community-porosity ratio, and the unmonitored-hours ratio.  Every rule
value is an exact non-negative rational; degenerate denominators make a
ratio *undefined* rather than silently zero, and undefined ratios are
excluded from averages but reported with their reason.

Additional ratio rules can be attached declaratively via :class:`RatioRule`
(numerator field / denominator field / property); reference polarity is an
explicit input, never inferred.  A record holds its references as three
polarity counts, so a record with millions of references costs no more
than one with none.

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
from math import gcd, isfinite, lcm
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import DomainError, UndefinedTrustError
from .metrics import Record

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


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


class Reference(Record):
    """One reference from a past employer with an explicitly labelled polarity."""

    __slots__ = __match_args__ = ("employer_id", "polarity")
    employer_id: str
    polarity: Polarity

    def __init__(self, employer_id: str, polarity: Polarity) -> None:
        object.__setattr__(self, "employer_id", employer_id)
        object.__setattr__(self, "polarity", polarity)


def _exact(num: int, den: int) -> Fraction:
    """The ``Fraction`` ``num/den`` (``den > 0``), reduced with one gcd.

    The reduced pair is stored directly, as ``Fraction`` itself does for
    pairs it knows are coprime, so no second gcd is taken.
    """
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    value = object.__new__(Fraction)
    value._numerator = num
    value._denominator = den
    return value


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

    References are stored as three counts by polarity.  ``references=``
    takes :class:`Reference` objects instead and counts them; it cannot be
    combined with nonzero counts.

    Reference entries must not outnumber past employers, unemployment months
    must fit inside the eligible months, unmonitored hours must fit inside
    the working hours, and community employees must fit inside the community
    population (when the respective denominators are nonzero).
    """

    __slots__ = (
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
    __match_args__ = __slots__[:6] + ("references",) + __slots__[6:]
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
    #: ``references`` is an init-only argument, never stored; this default is
    #: what ``dataclasses.replace`` and pattern matching read for it.
    references = None

    def __init__(
        self,
        applicant_id: str = "",
        months_unemployed: int = 0,
        months_eligible: int = 0,
        criminal_offenses_known: int = 0,
        age_years: int = 0,
        legal_adult_age: int = 18,
        references: Iterable[Reference] | None = None,
        past_employer_count: int = 0,
        hours_alone_per_day: Fraction = Fraction(0),
        working_hours_per_day: Fraction = Fraction(0),
        employees_in_community: int = 0,
        community_population: int = 0,
        references_positive: int = 0,
        references_neutral: int = 0,
        references_negative: int = 0,
    ) -> None:
        if references is not None:
            if references_positive or references_neutral or references_negative:
                raise DomainError("give references or reference counts, not both")
            counts = dict.fromkeys(Polarity, 0)
            for ref in references:
                counts[ref.polarity] += 1
            references_positive = counts[Polarity.POSITIVE]
            references_neutral = counts[Polarity.NEUTRAL]
            references_negative = counts[Polarity.NEGATIVE]
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
        hours_alone_per_day = _coerce_hours("hours_alone_per_day", hours_alone_per_day)
        working_hours_per_day = _coerce_hours("working_hours_per_day", working_hours_per_day)
        if months_eligible > 0 and months_unemployed > months_eligible:
            raise DomainError("months_unemployed cannot exceed months_eligible")
        if hours_alone_per_day > working_hours_per_day:
            raise DomainError("hours_alone_per_day cannot exceed working_hours_per_day")
        if community_population > 0 and employees_in_community > community_population:
            raise DomainError("employees_in_community cannot exceed community_population")
        set_ = object.__setattr__
        set_(self, "applicant_id", applicant_id)
        set_(self, "months_unemployed", months_unemployed)
        set_(self, "months_eligible", months_eligible)
        set_(self, "criminal_offenses_known", criminal_offenses_known)
        set_(self, "age_years", age_years)
        set_(self, "legal_adult_age", legal_adult_age)
        set_(self, "past_employer_count", past_employer_count)
        set_(self, "hours_alone_per_day", hours_alone_per_day)
        set_(self, "working_hours_per_day", working_hours_per_day)
        set_(self, "employees_in_community", employees_in_community)
        set_(self, "community_population", community_population)
        set_(self, "references_positive", references_positive)
        set_(self, "references_neutral", references_neutral)
        set_(self, "references_negative", references_negative)

    def reference_count(self, *polarities: Polarity) -> int:
        return sum(getattr(self, f"references_{p.value}") for p in set(polarities))


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
        set_ = object.__setattr__
        set_(self, "property", property)
        set_(self, "rule_id", rule_id)
        set_(self, "value", value)
        set_(self, "undefined_reason", undefined_reason)
        set_(self, "excluded", excluded)
        if value is None and not undefined_reason:
            raise DomainError(f"undefined rule {rule_id!r} needs a reason")
        if value is not None and value.numerator < 0:
            raise DomainError(f"rule {rule_id!r} value must be >= 0, got {value}")

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
        set_ = object.__setattr__
        set_(self, "per_property", per_property)
        set_(self, "combined", combined)
        set_(self, "mode", mode)
        set_(self, "undefined_reasons", undefined_reasons)


def _rule_result(prop: TrustProperty, rule_id: str, value: Fraction | None,
                 reason: str | None = None, excluded: tuple = ()) -> RuleResult:
    """A :class:`RuleResult` of values a rule here derived itself, so
    without the checks of its public constructor."""
    r = object.__new__(RuleResult)
    set_ = object.__setattr__
    set_(r, "property", prop)
    set_(r, "rule_id", rule_id)
    set_(r, "value", value)
    set_(r, "undefined_reason", reason)
    set_(r, "excluded", excluded)
    return r


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
        _rule_result(prop, rule_id, _exact(num, den)) if den
        else _rule_result(prop, rule_id, None, reason)
        for (rule_id, reason), (num, den) in zip(_CONSISTENCY_RULES, _consistency_terms(record))
    )
    return r1, r2, r3


def consistency_score(record: ApplicantRecord) -> RuleResult:
    """Average of the defined consistency ratios; excluded ratios are reported."""
    terms = _consistency_terms(record)
    defined = [term for term in terms if term[1]]
    excluded = tuple([rule for rule, (_, den) in zip(_CONSISTENCY_RULES, terms) if not den])
    if not defined:
        return _rule_result(TrustProperty.CONSISTENCY, "consistency", None,
                            "all three consistency ratios undefined", excluded)
    return _rule_result(TrustProperty.CONSISTENCY, "consistency", _mean(defined), None, excluded)


def porosity_rule(record: ApplicantRecord) -> RuleResult:
    """Community employees divided by the community population."""
    if record.community_population == 0:
        return _rule_result(TrustProperty.POROSITY, "porosity/community", None,
                            "community population not recorded")
    return _rule_result(TrustProperty.POROSITY, "porosity/community",
                        _exact(record.employees_in_community, record.community_population))


def unmonitored_hours_rule(
    record: ApplicantRecord, property: TrustProperty = TrustProperty.SUBJUGATION
) -> RuleResult:
    """Hours working alone, unassisted, unmonitored per working hour.

    OSSTMM does not name the property this rule instantiates; it is filed
    under Subjugation by default and the assignment is configurable.
    """
    if record.working_hours_per_day == 0:
        return _rule_result(property, "subjugation/unmonitored-hours", None,
                            "no working hours recorded")
    return _rule_result(property, "subjugation/unmonitored-hours",
                        _quotient(record.hours_alone_per_day, record.working_hours_per_day))


#: The record fields a :class:`RatioRule` may divide: every field but the id.
_RATIO_FIELDS = frozenset(ApplicantRecord.__slots__) - {"applicant_id"}


class RatioRule(Record):
    """Declarative extra rule: one record field divided by another."""

    __slots__ = __match_args__ = ("rule_id", "property", "numerator", "denominator")
    rule_id: str
    property: TrustProperty
    numerator: str
    denominator: str

    def __init__(
        self, rule_id: str, property: TrustProperty, numerator: str, denominator: str
    ) -> None:
        set_ = object.__setattr__
        set_(self, "rule_id", rule_id)
        set_(self, "property", property)
        set_(self, "numerator", numerator)
        set_(self, "denominator", denominator)

    def evaluate(self, record: ApplicantRecord) -> RuleResult:
        for name in (self.numerator, self.denominator):
            if name not in _RATIO_FIELDS:
                detail = (f"record field {name!r} is not a number" if name == "applicant_id"
                          else f"unknown record field {name!r}")
                raise DomainError(f"rule {self.rule_id!r}: {detail}")
        den = getattr(record, self.denominator)
        if den == 0:
            return _rule_result(self.property, self.rule_id, None, f"{self.denominator} is zero")
        return _rule_result(self.property, self.rule_id,
                            _quotient(getattr(record, self.numerator), den))


RuleFn = Callable[[ApplicantRecord], RuleResult]

#: The rules quoted in OSSTMM v3 and built in here.
DEFAULT_RULES: tuple[RuleFn, ...] = (
    consistency_score,
    porosity_rule,
    unmonitored_hours_rule,
)


def evaluate_rules(
    record: ApplicantRecord,
    rules: Sequence[Union[RuleFn, RatioRule]] = DEFAULT_RULES,
) -> list[RuleResult]:
    return [rule.evaluate(record) if isinstance(rule, RatioRule) else rule(record)
            for rule in rules]


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
    score = object.__new__(TrustScore)
    set_ = object.__setattr__
    set_(score, "per_property", per_property)
    set_(score, "combined", combined)
    set_(score, "mode", mode)
    set_(score, "undefined_reasons", tuple(reasons))
    return score


def score_applicant(
    record: ApplicantRecord,
    mode: str = "average",
    extra_rules: Sequence[Union[RuleFn, RatioRule]] = (),
) -> tuple[list[RuleResult], TrustScore]:
    """Evaluate the built-in rules (plus any extra) and combine them."""
    results = evaluate_rules(record, DEFAULT_RULES + tuple(extra_rules))
    return results, trust_combine(results, mode)


def ratios_equal(a: Rational, b: Rational, tolerance: float = 0.0) -> bool:
    """Compare two ratios exactly (tolerance 0) or within an absolute tolerance."""
    if not tolerance >= 0:  # negative or NaN
        raise DomainError(f"tolerance must be a number >= 0, got {tolerance!r}")
    a, b = Fraction(a), Fraction(b)
    if tolerance == 0:
        return a == b
    return float(abs(a - b)) <= tolerance
