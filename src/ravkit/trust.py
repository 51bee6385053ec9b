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

Every ratio and every combination is taken by one int helper:
``_reduced`` puts a pair in lowest terms with one gcd, and ``_combine``
takes the average, sum or max of pairs and reduces it once.  The three rules compute their kernels with
them: ``(rule, num, den, excluded)``, the value in lowest terms with
``den`` 0 when undefined and a bit mask of the consistency ratios left
out.  :func:`score_applicant` combines those ints under the mode and
returns results and a score that hold only the kernels; their fields, and
the ``Fraction`` values among them, are built on first read, and
``render_trust_report`` writes them from the ints without reading a field.
:func:`trust_combine`, for results of any origin, groups them per property
and combines through the same helpers.  The ``trust`` command scores one
applicant at a time as its report is written, so a batch never holds more
than one applicant's results.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, isfinite
from typing import Iterable, Mapping, Sequence, Union

from .errors import DomainError, UndefinedTrustError
from .metrics import Record, _exact, _KernelInts

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


def _reduced(num: int, den: int) -> tuple[int, int]:
    """``num/den`` (``den > 0``) in lowest terms, with one gcd."""
    g = gcd(num, den)
    return (num, den) if g == 1 else (num // g, den // g)


def _combine(pairs: Sequence[tuple[int, int]], mode: str) -> tuple[int, int]:
    """The average, sum or max of (numerator, denominator) pairs with
    positive denominators, in lowest terms.  Sums are taken pair by pair
    over the product of the distinct denominators and reduced once; the
    max is found by cross-multiplication."""
    num, den = pairs[0]
    if mode == "max":
        for n, d in pairs[1:]:
            if n * den > num * d:
                num, den = n, d
    else:
        for n, d in pairs[1:]:
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
        if mode == "average":
            den *= len(pairs)
    return _reduced(num, den)


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


class RuleResult(_KernelInts):
    """Value of one trust rule: an exact ratio, or undefined with a reason.

    A result of one of the three published rules holds only its kernel,
    ``(rule, num, den, excluded)``: the rule's index in ``_RULES``, its
    value in lowest terms (``den`` 0 when undefined) and the bit mask of
    the consistency ratios it excludes.  Its fields fill on first read.
    """

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

    @staticmethod
    def _fields(kernel: tuple) -> tuple:
        rule, num, den, excluded = kernel
        prop, rule_id, reason = _RULES[rule]
        if den:
            return prop, rule_id, _exact(num, den), None, _EXCLUDED[excluded]
        return prop, rule_id, None, reason, _EXCLUDED[excluded]


class TrustScore(_KernelInts):
    """Per-property trust values and their combination under one mode.

    A score from :func:`score_applicant` holds only its kernel, ``(rules,
    num, den, mode)``: the kernels of its three rule results, in ``_RULES``
    order, and the combination in lowest terms.  Its fields fill on first
    read.
    """

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

    @staticmethod
    def _fields(kernel: tuple) -> tuple:
        rules, num, den, mode = kernel
        per_property: dict[TrustProperty, Fraction | None] = {}
        reasons = []
        for i in _RULE_ORDER:
            _, n, d, _ = rules[i]
            prop, rule_id, reason = _RULES[i]
            if d:
                per_property[prop] = _exact(n, d)
            else:
                per_property[prop] = None
                reasons.append((rule_id, reason))
        return per_property, _exact(num, den), mode, tuple(reasons)


# ---------------------------------------------------------------------------
# Built-in rules
# ---------------------------------------------------------------------------


#: The consistency ratios' rule ids and the reason each is undefined.
_CONSISTENCY_RULES = (
    ("consistency/unemployment", "no eligible workforce months on record"),
    ("consistency/offenses", "applicant not beyond the legal adult age"),
    ("consistency/references", "no past employers"),
)
#: The consistency ratios an excluded mask names: bit i is ratio i.
_EXCLUDED = tuple(
    tuple(rule for i, rule in enumerate(_CONSISTENCY_RULES) if mask >> i & 1)
    for mask in range(8)
)
#: The three published rules, as ``score_applicant`` returns their results:
#: each one's property, rule id and the reason it is undefined.
_RULES = (
    (TrustProperty.CONSISTENCY, "consistency", "all three consistency ratios undefined"),
    (TrustProperty.POROSITY, "porosity/community", "community population not recorded"),
    (TrustProperty.SUBJUGATION, "subjugation/unmonitored-hours", "no working hours recorded"),
)
#: The rules' indices in the order of their properties, the order in which
#: ``trust_combine`` groups results.
_RULE_ORDER = tuple(sorted(range(3), key=lambda i: _PROPERTIES.index(_RULES[i][0])))


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


# The kernel of each published rule: ``(rule, num, den, excluded)``, as a
# RuleResult holds it.


def _consistency(record: ApplicantRecord) -> tuple[int, int, int, int]:
    terms = _consistency_terms(record)
    defined = [term for term in terms if term[1]]
    excluded = (not terms[0][1]) | (not terms[1][1]) << 1 | (not terms[2][1]) << 2
    if not defined:
        return 0, 0, 0, excluded
    num, den = _combine(defined, "average")
    return 0, num, den, excluded


def _porosity(record: ApplicantRecord) -> tuple[int, int, int, int]:
    if record.community_population == 0:
        return 1, 0, 0, 0
    num, den = _reduced(record.employees_in_community, record.community_population)
    return 1, num, den, 0


def _unmonitored(record: ApplicantRecord) -> tuple[int, int, int, int]:
    alone, working = record.hours_alone_per_day, record.working_hours_per_day
    if working.numerator == 0:
        return 2, 0, 0, 0
    num, den = _reduced(
        alone.numerator * working.denominator, alone.denominator * working.numerator
    )
    return 2, num, den, 0


def consistency_score(record: ApplicantRecord) -> RuleResult:
    """Average of the defined consistency ratios; excluded ratios are reported."""
    return RuleResult._holding(_consistency(record))


def porosity_rule(record: ApplicantRecord) -> RuleResult:
    """Community employees divided by the community population."""
    return RuleResult._holding(_porosity(record))


def unmonitored_hours_rule(record: ApplicantRecord) -> RuleResult:
    """Hours working alone, unassisted, unmonitored per working hour.

    OSSTMM does not name the property this rule instantiates; it is filed
    under Subjugation.
    """
    return RuleResult._holding(_unmonitored(record))


def _check_mode(mode: str) -> None:
    if mode not in COMBINE_MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {', '.join(COMBINE_MODES)}")


_ALL_UNDEFINED = "every supplied rule result is undefined"


def trust_combine(results: Iterable[RuleResult], mode: str = "average") -> TrustScore:
    """Group results per property (averaging within a property), then combine
    the defined per-property values under ``average``, ``sum`` or ``max``."""
    _check_mode(mode)
    groups: dict[TrustProperty, list[RuleResult]] = {}
    for result in results:
        group = groups.get(result.property)
        if group is None:
            groups[result.property] = [result]
        else:
            group.append(result)

    per_property: dict[TrustProperty, Fraction | None] = {}
    values: list[tuple[int, int]] = []
    reasons: list[tuple[str, str]] = []
    for prop in _PROPERTIES:
        group = groups.get(prop)
        if group is None:
            continue
        defined = []
        for r in group:
            value = r.value
            if value is None:
                reasons.append((r.rule_id, r.undefined_reason or ""))
            else:
                defined.append((value.numerator, value.denominator))
        if not defined:
            per_property[prop] = None
            continue
        pair = _combine(defined, "average")
        per_property[prop] = _exact(*pair)
        values.append(pair)

    if not values:
        raise UndefinedTrustError(_ALL_UNDEFINED)
    combined = _exact(*_combine(values, mode))
    return TrustScore._trusted((per_property, combined, mode, tuple(reasons)))


def score_applicant(
    record: ApplicantRecord, mode: str = "average"
) -> tuple[list[RuleResult], TrustScore]:
    """Evaluate the three published rules and combine them.

    The results and the score hold only the rules' kernels and the
    combination, and fill their fields on first read.
    """
    _check_mode(mode)
    rules = (_consistency(record), _porosity(record), _unmonitored(record))
    values = [(num, den) for _, num, den, _ in rules if den]
    if not values:
        raise UndefinedTrustError(_ALL_UNDEFINED)
    holding = RuleResult._holding
    results = [holding(rules[0]), holding(rules[1]), holding(rules[2])]
    return results, TrustScore._holding((rules, *_combine(values, mode), mode))


def ratios_equal(a: Rational, b: Rational, tolerance: float = 0.0) -> bool:
    """Compare two ratios exactly (tolerance 0) or within an absolute tolerance."""
    if not tolerance >= 0:  # negative or NaN
        raise DomainError(f"tolerance must be a number >= 0, got {tolerance!r}")
    a, b = Fraction(a), Fraction(b)
    if tolerance == 0:
        return a == b
    return float(abs(a - b)) <= tolerance
