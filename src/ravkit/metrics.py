"""Exact rav (Actual Security) of one scope from its three groups of counts.

:func:`actual_security` is the one entry point: it runs the whole pipeline
on a :class:`Scope` and returns a :class:`RavBreakdown` holding every
intermediate.  The pipeline has three stages:

1. Porosity: ``opsec_sum = visibility + access + trust``.
2. Controls: per-class shortfalls ``MC = max(opsec_sum - LC, 0)`` against the
   ten control classes, grouped into meta-classes A and B, and the true
   controls ``min(LC, opsec_sum)``.
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
combination; a base is exactly 0.0 when its magnitude is 0, so an empty
scope scores exactly 100.

All values are immutable and all functions are pure, so concurrent use on
independent data is safe.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from operator import attrgetter
from typing import Mapping, NoReturn, Sequence, Union

from .errors import DomainError, UndefinedWeightError

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


class _DataclassFields:
    """The ``__dataclass_fields__`` of a :class:`Record` class, built the
    first time it is read, so that :func:`dataclasses.fields` and
    :func:`dataclasses.replace` accept the class and its instances.

    The fields are those of a ``dataclasses.make_dataclass`` twin made from
    the class's ``__init__``: its parameters in order, each a field if it is
    a slot and an ``InitVar`` if not, with the same defaults.  The result is
    stored on the class, so later reads skip this descriptor.
    """

    def __get__(self, instance, owner):
        init = owner.__dict__.get("__init__")
        if init is None:
            raise AttributeError("__dataclass_fields__")
        import dataclasses

        code = init.__code__
        params = code.co_varnames[1:code.co_argcount]
        defaults = init.__defaults__ or ()
        first_default = len(params) - len(defaults)
        spec = []
        for i, name in enumerate(params):
            if name in owner.__slots__:
                kind = owner.__annotations__[name]
            else:
                kind = dataclasses.InitVar(init.__annotations__.get(name))
            if i < first_default:
                spec.append((name, kind))
            else:
                spec.append((name, kind, dataclasses.field(default=defaults[i - first_default])))
        twin = dataclasses.make_dataclass(owner.__qualname__, spec, init=False, repr=False, eq=False)
        owner.__dataclass_fields__ = fields = twin.__dataclass_fields__
        return fields


def _refuse(message: str) -> NoReturn:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(message)


class Record:
    """Base of ravkit's frozen record classes.

    A subclass lists its fields, in order, as ``__slots__`` and sets them in
    an explicit ``__init__`` with ``object.__setattr__``.  This base supplies
    the rest of what ``@dataclass(frozen=True, slots=True)`` would generate:
    equality and hashing by the field tuple, the same repr, refusal to assign
    or delete, pickling and copying, and ``__dataclass_fields__`` for
    :func:`dataclasses.fields` and :func:`dataclasses.replace`.  Written out
    in source, the classes import no ``dataclasses`` and generate no code
    when the module loads.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        _refuse(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        _refuse(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    __dataclass_fields__ = _DataclassFields()


class PorosityCounts(Record):
    """Visibility, access, and trust counts of one scope."""

    __slots__ = __match_args__ = _POROSITY_FIELDS
    visibility: int
    access: int
    trust: int

    def __init__(self, visibility: int = 0, access: int = 0, trust: int = 0) -> None:
        set_ = object.__setattr__
        set_(self, "visibility", visibility)
        set_(self, "access", access)
        set_(self, "trust", trust)
        _check_counts(_POROSITY_FIELDS, (visibility, access, trust))

    @property
    def total(self) -> int:
        return self.visibility + self.access + self.trust

    def as_dict(self) -> dict[str, int]:
        return {
            "visibility": self.visibility,
            "access": self.access,
            "trust": self.trust,
        }


class ControlCounts(Record):
    """Per-class loss-control counts; absent classes count as zero."""

    __slots__ = __match_args__ = _CONTROL_FIELDS
    authentication: int
    indemnification: int
    resilience: int
    subjugation: int
    continuity: int
    non_repudiation: int
    integrity: int
    privacy: int
    confidentiality: int
    alarm: int

    def __init__(
        self,
        authentication: int = 0,
        indemnification: int = 0,
        resilience: int = 0,
        subjugation: int = 0,
        continuity: int = 0,
        non_repudiation: int = 0,
        integrity: int = 0,
        privacy: int = 0,
        confidentiality: int = 0,
        alarm: int = 0,
    ) -> None:
        set_ = object.__setattr__
        set_(self, "authentication", authentication)
        set_(self, "indemnification", indemnification)
        set_(self, "resilience", resilience)
        set_(self, "subjugation", subjugation)
        set_(self, "continuity", continuity)
        set_(self, "non_repudiation", non_repudiation)
        set_(self, "integrity", integrity)
        set_(self, "privacy", privacy)
        set_(self, "confidentiality", confidentiality)
        set_(self, "alarm", alarm)
        _check_counts(
            _CONTROL_FIELDS,
            (
                authentication, indemnification, resilience, subjugation, continuity,
                non_repudiation, integrity, privacy, confidentiality, alarm,
            ),
        )

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


class LimitationCounts(Record):
    """Counts per limitation category, declared in pipeline order."""

    __slots__ = __match_args__ = LIMITATION_CATEGORIES
    vulnerabilities: int
    weaknesses: int
    concerns: int
    exposures: int
    anomalies: int

    def __init__(
        self,
        vulnerabilities: int = 0,
        weaknesses: int = 0,
        concerns: int = 0,
        exposures: int = 0,
        anomalies: int = 0,
    ) -> None:
        set_ = object.__setattr__
        set_(self, "vulnerabilities", vulnerabilities)
        set_(self, "weaknesses", weaknesses)
        set_(self, "concerns", concerns)
        set_(self, "exposures", exposures)
        set_(self, "anomalies", anomalies)
        _check_counts(
            LIMITATION_CATEGORIES, (vulnerabilities, weaknesses, concerns, exposures, anomalies)
        )

    @property
    def total(self) -> int:
        return sum(getattr(self, name) for name in LIMITATION_CATEGORIES)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in LIMITATION_CATEGORIES}


# The default count groups of a Scope; immutable, so every Scope may share them.
_NO_POROSITY = PorosityCounts()
_NO_CONTROLS = ControlCounts()
_NO_LIMITATIONS = LimitationCounts()


class Scope(Record):
    """One testable unit: a channel/vector/index with its three count groups.

    A change of channel, vector, or index is a new scope; merged scopes carry
    the synthetic channel label ``"aggregate"``.
    """

    __slots__ = __match_args__ = (
        "id", "channel", "vector", "index", "porosity", "controls", "limitations"
    )
    id: str
    channel: str
    vector: str
    index: str
    porosity: PorosityCounts
    controls: ControlCounts
    limitations: LimitationCounts

    def __init__(
        self,
        id: str,
        channel: str = "data-network",
        vector: str = "",
        index: str = "",
        porosity: PorosityCounts = _NO_POROSITY,
        controls: ControlCounts = _NO_CONTROLS,
        limitations: LimitationCounts = _NO_LIMITATIONS,
    ) -> None:
        set_ = object.__setattr__
        set_(self, "id", id)
        set_(self, "channel", channel)
        set_(self, "vector", vector)
        set_(self, "index", index)
        set_(self, "porosity", porosity)
        set_(self, "controls", controls)
        set_(self, "limitations", limitations)
        if not id:
            raise DomainError("scope id must be non-empty")
        if channel not in CHANNELS and channel != AGGREGATE_CHANNEL:
            raise DomainError(
                f"unknown channel {channel!r}; expected one of "
                f"{', '.join(CHANNELS)} (or {AGGREGATE_CHANNEL!r})"
            )


class Weights(Record):
    """The five limitation weights and the normalized missing-control ratio."""

    __slots__ = __match_args__ = LIMITATION_CATEGORIES + ("mc_vg",)
    vulnerabilities: Fraction
    weaknesses: Fraction
    concerns: Fraction
    exposures: Fraction
    anomalies: Fraction
    mc_vg: Fraction

    def __init__(
        self,
        vulnerabilities: Fraction,
        weaknesses: Fraction,
        concerns: Fraction,
        exposures: Fraction,
        anomalies: Fraction,
        mc_vg: Fraction,
    ) -> None:
        set_ = object.__setattr__
        set_(self, "vulnerabilities", vulnerabilities)
        set_(self, "weaknesses", weaknesses)
        set_(self, "concerns", concerns)
        set_(self, "exposures", exposures)
        set_(self, "anomalies", anomalies)
        set_(self, "mc_vg", mc_vg)

    def for_category(self, category: str) -> Fraction:
        return getattr(self, category)


class RavBreakdown(Record):
    """Every intermediate of the pipeline plus the final Actual Security value."""

    __slots__ = __match_args__ = (
        "opsec_sum", "opsec_base", "lc_sum", "mc_per_class", "mc_sum", "mc_class_a",
        "mc_class_b", "mc_vg", "tc_per_class", "tc_base", "fc_base", "weights",
        "seclim_sum", "seclim_base", "actsec",
    )
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

    def __init__(
        self,
        opsec_sum: Fraction,
        opsec_base: float,
        lc_sum: Fraction,
        mc_per_class: Mapping[ControlClass, Fraction],
        mc_sum: Fraction,
        mc_class_a: Fraction,
        mc_class_b: Fraction,
        mc_vg: Fraction,
        tc_per_class: Mapping[ControlClass, Fraction],
        tc_base: float,
        fc_base: float,
        weights: Weights,
        seclim_sum: Fraction,
        seclim_base: float,
        actsec: float,
    ) -> None:
        set_ = object.__setattr__
        set_(self, "opsec_sum", opsec_sum)
        set_(self, "opsec_base", opsec_base)
        set_(self, "lc_sum", lc_sum)
        set_(self, "mc_per_class", mc_per_class)
        set_(self, "mc_sum", mc_sum)
        set_(self, "mc_class_a", mc_class_a)
        set_(self, "mc_class_b", mc_class_b)
        set_(self, "mc_vg", mc_vg)
        set_(self, "tc_per_class", tc_per_class)
        set_(self, "tc_base", tc_base)
        set_(self, "fc_base", fc_base)
        set_(self, "weights", weights)
        set_(self, "seclim_sum", seclim_sum)
        set_(self, "seclim_base", seclim_base)
        set_(self, "actsec", actsec)


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


def weight_numerators(s, ext, trust, mc_sum, mc_a, mc_b, lims):
    """The five limitation weights as numerators over ``10*s**2``.

    ``ext`` counts the visibility+access pores, ``lims`` the limitations in
    pipeline order.  Plain operators only: runs on ints and broadcast numpy
    int64 arrays alike.
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
    # One column of counts per field, across the scopes.
    porosity = zip(*(_porosity_counts(s.porosity) for s in scopes))
    controls = zip(*(_control_counts(s.controls) for s in scopes))
    limitations = zip(*(_by_category(s.limitations) for s in scopes))
    return Scope(
        id="+".join(s.id for s in scopes),
        channel=AGGREGATE_CHANNEL,
        vector=AGGREGATE_CHANNEL,
        index=AGGREGATE_CHANNEL,
        porosity=PorosityCounts(*map(sum, porosity)),
        controls=ControlCounts(*map(sum, controls)),
        limitations=LimitationCounts(*map(sum, limitations)),
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
