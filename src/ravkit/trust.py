"""Trust Properties and the published Trust Rules over applicant records.

Implements the hiring rules quoted from OSSTMM v3 chapter 5, and only
those: the three consistency ratios (unemployment gaps, criminal offenses
per adult year, neutral-or-negative references per past employer)
averaged per rule 5.4, the community-porosity ratio, and the
unmonitored-hours ratio.  Every rule value is an exact non-negative
rational; degenerate denominators make a ratio *undefined* rather than
silently zero, and undefined ratios are excluded from averages but
reported with their reason.

Reference polarity is an explicit input, never inferred: a record holds
its references as three polarity counts, so a record with millions of
references costs no more than one with none.

Every ratio and every combination is taken by one int helper:
``_reduced`` puts a pair in lowest terms with one gcd, and ``_combine``
takes the average, sum or max of pairs and reduces it once.
:class:`RuleResult` and :class:`TrustScore` are outputs only: the three
rules, :func:`consistency_ratios` and :func:`score_applicant` build them,
and neither has a public constructor.  Each holds one kernel of ints, the
only thing ``render_trust_report`` writes from, and reads each field,
``Fraction`` values included, from it when the field is read; a copy or
an unpickled twin is rebuilt from the kernel.  A caller with rules of
their own combines the ``result.value``s with ``Fraction`` arithmetic.
The ``trust`` command scores one applicant at a time as its report is
written, so a batch never holds more than one applicant's results.
"""
from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, isfinite
from operator import itemgetter
from typing import Sequence, Union

from .errors import DomainError, UndefinedTrustError, shown_number
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


# The published rules' properties, read as globals on the scoring path,
# where a read of a member through its class is a slow attribute lookup.
_SUBJUGATION, _CONSISTENCY, _POROSITY = (
    TrustProperty.SUBJUGATION, TrustProperty.CONSISTENCY, TrustProperty.POROSITY
)


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
        raise DomainError(f"{name} must be >= 0, got {shown_number(value, str)}")
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
        raise DomainError(f"{name} must be a non-negative integer, got {shown_number(value)}")


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

    Its kernel is ``(head, num, den)``: ``head`` is ``(property, rule_id,
    undefined_reason, excluded)``, one of the few constants below, and
    ``num/den`` the value in lowest terms, with ``den`` 0 when the result
    is undefined.  Each field is read from the kernel.
    """

    __slots__ = ()
    property: TrustProperty
    rule_id: str
    value: Fraction | None
    undefined_reason: str | None
    excluded: tuple[tuple[str, str], ...]
    _built_by = "the published rules and score_applicant"
    _readers = {
        "property": lambda k: k[0][0],
        "rule_id": lambda k: k[0][1],
        "value": lambda k: _exact(k[1], k[2]) if k[2] else None,
        "undefined_reason": lambda k: k[0][2],
        "excluded": lambda k: k[0][3],
    }

    @property
    def defined(self) -> bool:
        return self._kernel[2] != 0


class TrustScore(_KernelInts):
    """Per-property trust values and their combination under one mode.

    Its kernel is ``(per_property, num, den, mode, undefined_reasons)``:
    ``per_property`` is a tuple of ``(property, num, den)`` in field order,
    ``den`` 0 for an undefined property, and ``num/den`` the combination in
    lowest terms.  Each field is read from the kernel; ``per_property`` is
    a new dict at every read.
    """

    __slots__ = ()
    per_property: dict[TrustProperty, Fraction | None]
    combined: Fraction
    mode: str
    undefined_reasons: tuple[tuple[str, str], ...]
    _built_by = RuleResult._built_by
    _readers = {
        "per_property": lambda k: {prop: _exact(n, d) if d else None for prop, n, d in k[0]},
        "combined": lambda k: _exact(k[1], k[2]),
        "mode": itemgetter(3),
        "undefined_reasons": itemgetter(4),
    }


# ---------------------------------------------------------------------------
# Built-in rules
# ---------------------------------------------------------------------------


def _heads(prop: TrustProperty, rule_id: str, reason: str, excluded: tuple = ()) -> tuple:
    """A rule's kernel heads: when its value is defined, and when it is not."""
    return (prop, rule_id, None, excluded), (prop, rule_id, reason, excluded)


#: The consistency ratios' rule ids and the reason each is undefined.
_CONSISTENCY_RULES = (
    ("consistency/unemployment", "no eligible workforce months on record"),
    ("consistency/offenses", "applicant not beyond the legal adult age"),
    ("consistency/references", "no past employers"),
)
_RATIO_HEADS = tuple(_heads(_CONSISTENCY, *rule) for rule in _CONSISTENCY_RULES)
#: The consistency rule's head for each mask of excluded ratios (bit i is
#: ratio i): defined unless all three are excluded.
_CONSISTENCY_HEADS = tuple(
    _heads(
        _CONSISTENCY, "consistency", "all three consistency ratios undefined",
        tuple(rule for i, rule in enumerate(_CONSISTENCY_RULES) if mask >> i & 1),
    )[mask == 7]
    for mask in range(8)
)
_POROSITY_HEADS = _heads(_POROSITY, "porosity/community", "community population not recorded")
_UNMONITORED_HEADS = _heads(
    _SUBJUGATION, "subjugation/unmonitored-hours", "no working hours recorded"
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
    r1, r2, r3 = (
        RuleResult._holding((defined, *_reduced(num, den)) if den else (undefined, 0, 0))
        for (defined, undefined), (num, den) in zip(_RATIO_HEADS, _consistency_terms(record))
    )
    return r1, r2, r3


# The kernel of each published rule, ``(head, num, den)``, as a RuleResult
# holds it.


def _consistency(record: ApplicantRecord) -> tuple:
    terms = _consistency_terms(record)
    defined = [term for term in terms if term[1]]
    if not defined:
        return _CONSISTENCY_HEADS[7], 0, 0
    excluded = (not terms[0][1]) | (not terms[1][1]) << 1 | (not terms[2][1]) << 2
    num, den = _combine(defined, "average")
    return _CONSISTENCY_HEADS[excluded], num, den


def _porosity(record: ApplicantRecord) -> tuple:
    if record.community_population == 0:
        return _POROSITY_HEADS[1], 0, 0
    num, den = _reduced(record.employees_in_community, record.community_population)
    return _POROSITY_HEADS[0], num, den


def _unmonitored(record: ApplicantRecord) -> tuple:
    alone, working = record.hours_alone_per_day, record.working_hours_per_day
    if working.numerator == 0:
        return _UNMONITORED_HEADS[1], 0, 0
    num, den = _reduced(
        alone.numerator * working.denominator, alone.denominator * working.numerator
    )
    return _UNMONITORED_HEADS[0], num, den


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
        raise DomainError(
            f"unknown mode {shown_number(mode)}; expected one of {', '.join(COMBINE_MODES)}"
        )


def score_applicant(
    record: ApplicantRecord, mode: str = "average"
) -> tuple[list[RuleResult], TrustScore]:
    """Evaluate the three published rules and combine them.

    The results and the score hold only their kernels.
    """
    _check_mode(mode)
    c, p, u = _consistency(record), _porosity(record), _unmonitored(record)
    values = [(num, den) for _, num, den in (c, p, u) if den]
    if not values:
        raise UndefinedTrustError("every supplied rule result is undefined")
    num, den = _combine(values, mode)
    # The undefined rules' reasons, in the order of their properties.
    reasons = () if len(values) == 3 else tuple(
        [(head[1], head[2]) for head, _, d in (u, c, p) if not d]
    )
    score = TrustScore._holding((
        ((_SUBJUGATION, u[1], u[2]), (_CONSISTENCY, c[1], c[2]), (_POROSITY, p[1], p[2])),
        num, den, mode, reasons,
    ))
    holding = RuleResult._holding
    return [holding(c), holding(p), holding(u)], score


def _ratio(value: object) -> Fraction:
    """``value`` as ``Fraction`` takes it; refused when it is not a finite
    number, a number string included."""
    if not isinstance(value, str):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise DomainError(f"ratios must be finite numbers, got {shown_number(value)}")


def ratios_equal(a: Rational, b: Rational, tolerance: float = 0.0) -> bool:
    """Compare two ratios exactly (tolerance 0) or within an absolute tolerance.

    A difference past the float range is compared exactly with the
    tolerance: within ``inf``, and beyond any float tolerance.
    """
    try:
        valid = tolerance >= 0  # False when negative or NaN
    except (TypeError, ArithmeticError):
        valid = False
    if not valid:
        raise DomainError(f"tolerance must be a number >= 0, got {shown_number(tolerance)}")
    a, b = _ratio(a), _ratio(b)
    if tolerance == 0:
        return a == b
    try:
        return float(abs(a - b)) <= tolerance
    except OverflowError:
        return abs(a - b) <= tolerance
