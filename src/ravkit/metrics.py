"""Exact rav (Actual Security) pipeline over porosity, control, and limitation counts.

The score is computed in three stages:

1. Porosity: ``opsec_sum = visibility + access + trust``.
2. Controls: per-class shortfalls ``MC = max(opsec_sum - LC, 0)`` against the
   ten control classes, grouped into meta-classes A and B.
3. Limitations: five weights derived from porosity and missing controls, then
   ``seclim_sum = sum(count * weight**2)`` over the five limitation categories.

Each of the three sections is squashed through ``ln(1 + scale * x)**2``
(scale 100 for porosity and limitations, 10 for the control sum) and combined
into the final polynomial:

    actsec = S*((A - F)/100 - 1) - (F + 100)*A/100 + F + 100

with ``A`` the porosity base, ``F`` the control base and ``S`` the limitation
base.  Every intermediate is an integer over a known denominator (the weights
over ``10*s**2``, ``seclim_sum`` over ``(10*s**2)**2``, ``s`` the porosity
total), computed by :func:`weight_numerators` and :func:`seclim_numerator` on
ints here and on numpy int64 arrays in the collision search.  Floats enter
only at the four logarithms, each of an exact int ratio, and in their
combination; an empty scope scores exactly 100.

All values are immutable and all functions are pure, so concurrent use on
independent data is safe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Mapping, Sequence, Union

from .errors import DomainError, UndefinedWeightError

Rational = Union[int, Fraction]

#: The five scope channels plus the synthetic label given to merged scopes.
CHANNELS = ("human", "physical", "wireless", "telecom", "data-network")
AGGREGATE_CHANNEL = "aggregate"

#: The five limitation categories, in pipeline order.
LIMITATION_CATEGORIES = (
    "vulnerabilities",
    "weaknesses",
    "concerns",
    "exposures",
    "anomalies",
)
#: The five per-category values of a LimitationCounts or Weights, as a tuple.
_by_category = attrgetter(*LIMITATION_CATEGORIES)


class ControlClass(enum.Enum):
    """The ten loss-control classes, split into meta-classes A and B."""

    AUTHENTICATION = "authentication"
    INDEMNIFICATION = "indemnification"
    RESILIENCE = "resilience"
    SUBJUGATION = "subjugation"
    CONTINUITY = "continuity"
    NON_REPUDIATION = "non-repudiation"
    INTEGRITY = "integrity"
    PRIVACY = "privacy"
    CONFIDENTIALITY = "confidentiality"
    ALARM = "alarm"

    @property
    def abbreviation(self) -> str:
        return _ABBREVIATIONS[self]

    @property
    def meta_class(self) -> str:
        return "A" if self in META_CLASS_A else "B"


_ABBREVIATIONS = {
    ControlClass.AUTHENTICATION: "Au",
    ControlClass.INDEMNIFICATION: "Id",
    ControlClass.RESILIENCE: "Re",
    ControlClass.SUBJUGATION: "Su",
    ControlClass.CONTINUITY: "Ct",
    ControlClass.NON_REPUDIATION: "NR",
    ControlClass.INTEGRITY: "It",
    ControlClass.PRIVACY: "Pr",
    ControlClass.CONFIDENTIALITY: "Cf",
    ControlClass.ALARM: "Al",
}

META_CLASS_A = frozenset(
    {
        ControlClass.AUTHENTICATION,
        ControlClass.INDEMNIFICATION,
        ControlClass.RESILIENCE,
        ControlClass.SUBJUGATION,
        ControlClass.CONTINUITY,
    }
)
META_CLASS_B = frozenset(set(ControlClass) - META_CLASS_A)
#: The control classes and their count fields; meta-class A's five come first.
#: The fields of ControlCounts are declared in this order too.
_CLASSES = tuple(ControlClass)
_CONTROL_FIELDS = tuple(cls.value.replace("-", "_") for cls in _CLASSES)
_control_counts = attrgetter(*_CONTROL_FIELDS)
#: The count field of each control class, keyed by the class and by its value.
_CONTROL_FIELD_OF = {
    key: name for cls, name in zip(_CLASSES, _CONTROL_FIELDS) for key in (cls, cls.value)
}
_POROSITY_FIELDS = ("visibility", "access", "trust")
_porosity_counts = attrgetter(*_POROSITY_FIELDS)
#: Count kinds accepted as unit_map keys (porosity, control classes, limitations).
UNIT_KINDS = (
    _POROSITY_FIELDS + tuple(cls.value for cls in ControlClass) + LIMITATION_CATEGORIES
)


def _check_count(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer count, got {value!r}")
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")


def _check_counts(names: Sequence[str], values: Sequence[int]) -> None:
    for name, value in zip(names, values):
        if type(value) is not int or value < 0:
            _check_count(name, value)


@dataclass(frozen=True, slots=True)
class PorosityCounts:
    """Visibility, access, and trust counts of one scope."""

    visibility: int = 0
    access: int = 0
    trust: int = 0

    def __post_init__(self) -> None:
        _check_counts(_POROSITY_FIELDS, _porosity_counts(self))

    @property
    def total(self) -> int:
        return self.visibility + self.access + self.trust

    def as_dict(self) -> dict[str, int]:
        return {
            "visibility": self.visibility,
            "access": self.access,
            "trust": self.trust,
        }


@dataclass(frozen=True, slots=True)
class ControlCounts:
    """Per-class loss-control counts; absent classes count as zero."""

    authentication: int = 0
    indemnification: int = 0
    resilience: int = 0
    subjugation: int = 0
    continuity: int = 0
    non_repudiation: int = 0
    integrity: int = 0
    privacy: int = 0
    confidentiality: int = 0
    alarm: int = 0

    def __post_init__(self) -> None:
        _check_counts(_CONTROL_FIELDS, _control_counts(self))

    def get(self, cls: ControlClass) -> int:
        return getattr(self, _CONTROL_FIELD_OF[cls])

    @property
    def total(self) -> int:
        return sum(self.get(cls) for cls in ControlClass)

    def as_dict(self) -> dict[ControlClass, int]:
        return {cls: self.get(cls) for cls in ControlClass}

    @classmethod
    def from_mapping(cls, counts: Mapping[Union[ControlClass, str], int]) -> "ControlCounts":
        return cls(
            **{
                _CONTROL_FIELD_OF.get(key) or str(key).replace("-", "_"): value
                for key, value in counts.items()
            }
        )


@dataclass(frozen=True, slots=True)
class LimitationCounts:
    """Counts per limitation category, declared in pipeline order."""

    vulnerabilities: int = 0
    weaknesses: int = 0
    concerns: int = 0
    exposures: int = 0
    anomalies: int = 0

    def __post_init__(self) -> None:
        _check_counts(LIMITATION_CATEGORIES, _by_category(self))

    @property
    def total(self) -> int:
        return sum(getattr(self, name) for name in LIMITATION_CATEGORIES)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in LIMITATION_CATEGORIES}


@dataclass(frozen=True, slots=True)
class Scope:
    """One testable unit: a channel/vector/index with its three count groups.

    A change of channel, vector, or index is a new scope; merged scopes carry
    the synthetic channel label ``"aggregate"``.
    """

    id: str
    channel: str = "data-network"
    vector: str = ""
    index: str = ""
    porosity: PorosityCounts = field(default_factory=PorosityCounts)
    controls: ControlCounts = field(default_factory=ControlCounts)
    limitations: LimitationCounts = field(default_factory=LimitationCounts)

    def __post_init__(self) -> None:
        if not self.id:
            raise DomainError("scope id must be non-empty")
        if self.channel not in CHANNELS and self.channel != AGGREGATE_CHANNEL:
            raise DomainError(
                f"unknown channel {self.channel!r}; expected one of "
                f"{', '.join(CHANNELS)} (or {AGGREGATE_CHANNEL!r})"
            )


@dataclass(frozen=True, slots=True)
class MissingControls:
    """Per-class and grouped control shortfalls, plus the true-control counts."""

    per_class: Mapping[ControlClass, Fraction]
    total: Fraction
    class_a: Fraction
    class_b: Fraction
    true_per_class: Mapping[ControlClass, Fraction]


@dataclass(frozen=True, slots=True)
class Weights:
    """The five limitation weights and the normalized missing-control ratio."""

    vulnerabilities: Fraction
    weaknesses: Fraction
    concerns: Fraction
    exposures: Fraction
    anomalies: Fraction
    mc_vg: Fraction

    def for_category(self, category: str) -> Fraction:
        return getattr(self, category)


@dataclass(frozen=True, slots=True)
class RavBreakdown:
    """Every intermediate of the pipeline plus the final Actual Security value."""

    opsec_sum: Fraction
    opsec_base: float
    lc_sum: Fraction
    mc_per_class: Mapping[ControlClass, Fraction]
    mc_sum: Fraction
    mc_class_a: Fraction
    mc_class_b: Fraction
    mc_vg: Fraction
    tc_per_class: Mapping[ControlClass, Fraction]
    tc_base: float
    fc_base: float
    weights: Weights
    seclim_sum: Fraction
    seclim_base: float
    actsec: float


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


def opsec_sum(porosity: PorosityCounts) -> Fraction:
    """Sum of the three porosity counts (the scope's operational security)."""
    return Fraction(porosity.total)


def weight_numerators(s, ext, trust, mc_sum, mc_a, mc_b, lims):
    """The five limitation weights as numerators over ``10*s**2``.

    ``ext`` counts the visibility+access pores, ``lims`` the limitations in
    pipeline order.  Plain operators only: runs on ints, Fractions and
    broadcast numpy int64 arrays alike.
    """
    nv, nw, nc = lims[:3]
    u10 = 10 * (nv * (s + mc_sum) + nw * (s + mc_a) + nc * (s + mc_b))
    wv, ww, wc = 10 * s * (s + mc_sum), 10 * s * (s + mc_a), 10 * s * (s + mc_b)
    return wv, ww, wc, ext * mc_sum + u10, trust * mc_sum + u10


def seclim_numerator(lims, weights):
    """``sum(count * weight**2)``, over ``(10*s**2)**2`` for weight numerators."""
    (nv, nw, nc, ne, na), (wv, ww, wc, we, wa) = lims, weights
    return nv * wv**2 + nw * ww**2 + nc * wc**2 + ne * we**2 + na * wa**2


def combine_bases(a, f, s):
    """Actual Security from the three bases, as floats or float arrays alike."""
    return s * ((a - f) / 100 - 1) - (f + 100) * a / 100 + f + 100


def _log_ratio(num: int, den: int) -> float:
    """``ln(num/den)`` of positive ints, past the float range as a difference of logs."""
    try:
        return math.log(num / den)
    except OverflowError:
        return math.log(num) - math.log(den)


def base_value(scale: Rational, magnitude: Rational) -> float:
    """``ln(1 + scale*magnitude)**2``; exactly 0 iff ``magnitude`` is 0.

    The argument is assembled in exact arithmetic before the single
    correctly rounded division, so equal rational magnitudes always give
    bit-identical results.
    """
    scale = Fraction(scale)
    magnitude = Fraction(magnitude)
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")
    if magnitude < 0:
        raise DomainError(f"magnitude must be >= 0, got {magnitude}")
    if magnitude == 0:
        return 0.0
    arg = 1 + scale * magnitude
    return _log_ratio(arg.numerator, arg.denominator) ** 2


def missing_controls(opsec: Rational, controls: ControlCounts) -> MissingControls:
    """Per-class shortfalls ``max(opsec - LC, 0)`` and the grouped sums.

    Also returns the true controls ``min(LC, opsec)``: one cannot miss fewer
    than zero controls, nor apply more than the porosity admits.
    """
    opsec = Fraction(opsec)
    if opsec < 0:
        raise DomainError(f"opsec_sum must be >= 0, got {opsec}")
    lc = {cls: Fraction(controls.get(cls)) for cls in _CLASSES}
    per_class = {cls: max(opsec - n, Fraction(0)) for cls, n in lc.items()}
    total = sum(per_class.values(), Fraction(0))
    class_a = sum((per_class[cls] for cls in META_CLASS_A), Fraction(0))
    return MissingControls(
        per_class=per_class,
        total=total,
        class_a=class_a,
        class_b=total - class_a,
        true_per_class={cls: min(n, opsec) for cls, n in lc.items()},
    )


def limitation_weights(
    porosity: PorosityCounts,
    limitations: LimitationCounts,
    opsec: Rational,
    mc_sum: Rational,
    mc_class_a: Rational,
    mc_class_b: Rational,
) -> Weights:
    """The five limitation weights for one scope.

    Vulnerabilities weigh against all missing controls, weaknesses against
    meta-class A, concerns against meta-class B; exposures and anomalies
    weigh the already-weighted first three categories plus the normalized
    missing-control ratio ``mc_vg = mc_sum / (10 * opsec)`` applied to the
    external (visibility+access) and internal (trust) pores respectively.

    Undefined for zero porosity: callers must bypass this stage (the whole
    limitation section is zero only when every limitation count is zero).
    """
    opsec, mc_sum, mc_a, mc_b = map(Fraction, (opsec, mc_sum, mc_class_a, mc_class_b))
    if opsec == 0:
        raise UndefinedWeightError(
            "limitation weights are undefined for a scope with zero porosity"
        )
    ext, lims = porosity.visibility + porosity.access, _by_category(limitations)
    numerators = weight_numerators(opsec, ext, porosity.trust, mc_sum, mc_a, mc_b, lims)
    den = 10 * opsec**2
    return Weights(*(w / den for w in numerators), mc_vg=mc_sum / (10 * opsec))


def security_limitations_sum(limitations: LimitationCounts, weights: Weights) -> Fraction:
    """``sum(count * weight**2)`` over the five limitation categories."""
    return seclim_numerator(_by_category(limitations), _by_category(weights))


_ZERO_WEIGHTS = Weights(*(Fraction(0),) * 6)


def actual_security(scope: Scope) -> RavBreakdown:
    """Run the full pipeline on one scope and return every intermediate.

    The counts go through the integer kernel; ``Fraction``s are built only
    for the returned fields, and each log is taken of an exact int ratio.
    Raises :class:`UndefinedWeightError` for a zero-porosity scope with any
    nonzero limitation count.
    """
    p, lims = scope.porosity, _by_category(scope.limitations)
    s = p.visibility + p.access + p.trust
    lc = _control_counts(scope.controls)
    mc = [s - n if n < s else 0 for n in lc]
    lc_sum, mc_a, mc_b = sum(lc), sum(mc[:5]), sum(mc[5:])
    mc_sum = mc_a + mc_b

    if s == 0:
        if any(lims):
            raise UndefinedWeightError(
                f"scope {scope.id!r} has zero porosity but nonzero limitations; "
                "limitation weights are undefined"
            )
        weights, seclim, seclim_base = _ZERO_WEIGHTS, Fraction(0), 0.0
    else:
        numerators = weight_numerators(
            s, p.visibility + p.access, p.trust, mc_sum, mc_a, mc_b, lims
        )
        key, den = seclim_numerator(lims, numerators), 10 * s * s
        weights = Weights(
            *(Fraction(w, den) for w in numerators), mc_vg=Fraction(mc_sum, 10 * s)
        )
        seclim = Fraction(key, den * den)
        # 1 + 100*seclim == (s**4 + key) / s**4
        seclim_base = _log_ratio(s**4 + key, s**4) ** 2

    # Each shortfall is capped by s, so the tc argument 1 + 100*s - 10*mc_sum >= 1.
    opsec_base = _log_ratio(1 + 100 * s, 1) ** 2
    fc_base = _log_ratio(1 + 10 * lc_sum, 1) ** 2
    tc_base = _log_ratio(1 + 100 * s - 10 * mc_sum, 1) ** 2
    return RavBreakdown(
        opsec_sum=Fraction(s),
        opsec_base=opsec_base,
        lc_sum=Fraction(lc_sum),
        mc_per_class=dict(zip(_CLASSES, map(Fraction, mc))),
        mc_sum=Fraction(mc_sum),
        mc_class_a=Fraction(mc_a),
        mc_class_b=Fraction(mc_b),
        mc_vg=weights.mc_vg,
        tc_per_class=dict(zip(_CLASSES, map(Fraction, [n if n < s else s for n in lc]))),
        tc_base=tc_base,
        fc_base=fc_base,
        weights=weights,
        seclim_sum=seclim,
        seclim_base=seclim_base,
        actsec=combine_bases(opsec_base, fc_base, seclim_base),
    )


def aggregate_scopes(scopes: Sequence[Scope]) -> Scope:
    """Combine scopes by summing all counts component-wise.

    The result carries the synthetic ``"aggregate"`` channel/vector/index
    labels and the joined ids.  Aggregation is associative and commutative
    on counts.
    """
    if not scopes:
        raise DomainError("cannot aggregate an empty list of scopes")
    porosity = PorosityCounts(
        visibility=sum(s.porosity.visibility for s in scopes),
        access=sum(s.porosity.access for s in scopes),
        trust=sum(s.porosity.trust for s in scopes),
    )
    controls = ControlCounts.from_mapping(
        {cls: sum(s.controls.get(cls) for s in scopes) for cls in ControlClass}
    )
    limitations = LimitationCounts(
        **{
            name: sum(getattr(s.limitations, name) for s in scopes)
            for name in LIMITATION_CATEGORIES
        }
    )
    return Scope(
        id="+".join(s.id for s in scopes),
        channel=AGGREGATE_CHANNEL,
        vector=AGGREGATE_CHANNEL,
        index=AGGREGATE_CHANNEL,
        porosity=porosity,
        controls=controls,
        limitations=limitations,
    )


def toy_scope() -> Scope:
    """The single-host login-service worked example: one visible host, one
    open port, one authentication control, one limitation of each category."""
    return Scope(
        id="toy",
        channel="data-network",
        vector="internet",
        index="ipv4",
        porosity=PorosityCounts(visibility=1, access=1, trust=0),
        controls=ControlCounts(authentication=1),
        limitations=LimitationCounts(1, 1, 1, 1, 1),
    )
