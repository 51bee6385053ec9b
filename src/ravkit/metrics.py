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

from .errors import DomainError, UndefinedWeightError, shown_number

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


def _exact(num: int, den: int) -> Fraction:
    """The ``Fraction`` ``num/den`` of ints (``den > 0``), reduced with one gcd.

    The reduced pair is stored directly, as ``Fraction`` itself does for
    pairs it knows are coprime, so no second gcd is taken.
    """
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    value = object.__new__(Fraction)
    value._numerator = num
    value._denominator = den
    return value


def _check_count(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer count, got {shown_number(value)}")
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {shown_number(value, str)}")


def _check_counts(names: Sequence[str], values: Sequence[int]) -> None:
    for name, value in zip(names, values):
        if type(value) is not int or value < 0:
            _check_count(name, value)


class _DataclassFields:
    """The ``__dataclass_fields__`` of a :class:`Record` class, built the
    first time it is read, so that :func:`dataclasses.fields` and
    :func:`dataclasses.replace` accept the class and its instances.

    The fields are those of a ``dataclasses.make_dataclass`` twin made from
    the class's slots, in order, with the defaults of its ``__init__``,
    whose parameters are those slots.  The result is stored on the class, so
    later reads skip this descriptor.
    """

    def __get__(self, instance, owner):
        init = owner.__dict__.get("__init__")
        if init is None:
            raise AttributeError("__dataclass_fields__")
        import dataclasses

        defaults = init.__defaults__ or ()
        first_default = len(owner.__slots__) - len(defaults)
        spec = []
        for i, name in enumerate(owner.__slots__):
            kind = owner.__annotations__[name]
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

    A subclass lists its fields, in order, as ``__slots__``, and each
    class collects its slots' setters once, when it is defined.
    :meth:`__setstate__` fills the slots through them and is the one fill:
    an explicit ``__init__`` checks the values and then calls it,
    unpickling calls it, and :meth:`_trusted` builds an instance through it
    without the checks.  This base supplies
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

    def __init_subclass__(cls) -> None:
        # Each slot's member descriptor writes it past the refusing
        # __setattr__, and faster than a write by name.
        cls._setters = tuple([cls.__dict__[name].__set__ for name in cls.__slots__])

    def __setstate__(self, state: Sequence) -> None:
        for set_, value in zip(self._setters, state):
            set_(self, value)

    @classmethod
    def _trusted(cls, values: Sequence):
        """An instance holding ``values``, one per slot in order, built
        without the public constructor's checks: for values the caller has
        already checked, as a parser does."""
        self = object.__new__(cls)
        self.__setstate__(values)
        return self

    __dataclass_fields__ = _DataclassFields()


class PorosityCounts(Record):
    """Visibility, access, and trust counts of one scope."""

    __slots__ = __match_args__ = _POROSITY_FIELDS
    visibility: int
    access: int
    trust: int

    def __init__(self, visibility: int = 0, access: int = 0, trust: int = 0) -> None:
        values = (visibility, access, trust)
        _check_counts(_POROSITY_FIELDS, values)
        self.__setstate__(values)

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
        values = (
            authentication, indemnification, resilience, subjugation, continuity,
            non_repudiation, integrity, privacy, confidentiality, alarm,
        )
        _check_counts(_CONTROL_FIELDS, values)
        self.__setstate__(values)

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
        values = (vulnerabilities, weaknesses, concerns, exposures, anomalies)
        _check_counts(LIMITATION_CATEGORIES, values)
        self.__setstate__(values)

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
        for name, label in (("scope id", id), ("scope vector", vector), ("scope index", index)):
            _check_label(name, label)
        if not id:
            raise DomainError(_EMPTY_SCOPE_ID)
        if channel not in CHANNELS and channel != AGGREGATE_CHANNEL:
            raise DomainError(_unknown_channel(channel))
        self.__setstate__((id, channel, vector, index, porosity, controls, limitations))


#: The refusal of an empty scope id, by ``Scope`` and by the scope parser.
_EMPTY_SCOPE_ID = "scope id must be non-empty"


def _check_label(what: str, label: object) -> None:
    """Refuse a label that no document could write: one that is not a
    ``str``, or one with a lone surrogate, which has no UTF-8 form."""
    if not isinstance(label, str):
        raise DomainError(f"{what} must be a string, got {shown_number(label)}")
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        raise DomainError(f"{what} has a lone surrogate: {label!r}") from None


def _unknown_channel(channel: str) -> str:
    """The refusal of a channel outside ``CHANNELS`` and the aggregate label."""
    return (
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
        self.__setstate__((vulnerabilities, weaknesses, concerns, exposures, anomalies, mc_vg))

    def for_category(self, category: str) -> Fraction:
        return getattr(self, category)


class _KernelInts(Record):
    """Private base of a record that may hold only its kernel's ints.

    ``_kernel`` is this class's one slot.  A subclass's ``__slots__`` names
    its public fields only, so ``Record`` compares, hashes, prints and
    pickles those and never this slot.  An instance built by
    :meth:`_holding` has ``_kernel`` set and its fields unset; the first read
    of any field fills them all, in one :meth:`__setstate__`, from
    ``_fields(kernel)``, which each subclass supplies.  An instance built
    from its fields leaves ``_kernel`` unset, and a read of it returns None.
    """

    __slots__ = ("_kernel",)

    @classmethod
    def _holding(cls, kernel: tuple):
        """An instance that holds ``kernel`` and fills its fields on first read."""
        self = object.__new__(cls)
        _set_kernel(self, kernel)
        return self

    def __getattr__(self, name: str):
        # Reached only for an unset slot or an unknown name.
        if name == "_kernel":
            return None
        if name not in self.__slots__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__setstate__(self._fields(self._kernel))
        return object.__getattribute__(self, name)


#: Sets a record's ``_kernel`` slot.
(_set_kernel,) = _KernelInts._setters


#: The seven aggregate rational fields of a RavBreakdown, in report order.
_RATIONAL_AGGREGATES = (
    "opsec_sum", "lc_sum", "mc_sum", "mc_class_a", "mc_class_b", "mc_vg", "seclim_sum"
)


class RavBreakdown(_KernelInts):
    """Every intermediate of the pipeline plus the final Actual Security value.

    A breakdown from :func:`actual_security` holds only ``_kernel``, the
    tuple ``(s, lc_sum, mc_a, mc_b, mc, tc, vg_den, weights, den, key,
    opsec_base, tc_base, fc_base, seclim_base, actsec, scope)``: the porosity
    total, the control sum, the two meta-class shortfall sums, the ten
    shortfalls and ten true controls in pipeline order, the denominator of
    ``mc_vg`` (over which ``mc_a + mc_b`` is its numerator), the five weight
    numerators over ``den``, the limitation key over ``den**2``, the five
    float fields and the scope it was computed from.  Its fields fill from
    the tuple on first read (see :class:`_KernelInts`), and ``render_report``
    writes it from the tuple directly when given that same scope.  A
    breakdown built from its fields derives no kernel; it, or a breakdown
    given another scope, is checked against ``actual_security`` of the scope
    it is rendered with.
    """

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
        self.__setstate__((
            opsec_sum, opsec_base, lc_sum, mc_per_class, mc_sum, mc_class_a, mc_class_b, mc_vg,
            tc_per_class, tc_base, fc_base, weights, seclim_sum, seclim_base, actsec,
        ))

    @staticmethod
    def _fields(kernel: tuple) -> tuple:
        (s, lc_sum, mc_a, mc_b, mc, tc, vg_den, weights, den, key,
         opsec_base, tc_base, fc_base, seclim_base, actsec, _) = kernel
        mc_vg = Fraction(mc_a + mc_b, vg_den)
        return (
            Fraction(s), opsec_base, Fraction(lc_sum), dict(zip(_CLASSES, map(Fraction, mc))),
            Fraction(mc_a + mc_b), Fraction(mc_a), Fraction(mc_b), mc_vg,
            dict(zip(_CLASSES, map(Fraction, tc))), tc_base, fc_base,
            Weights(*(Fraction(w, den) for w in weights), mc_vg=mc_vg),
            Fraction(key, den * den), seclim_base, actsec,
        )


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


def actual_security(scope: Scope) -> RavBreakdown:
    """Run the full pipeline on one scope and return every intermediate.

    The counts go through the integer kernel, and each log is taken of an
    exact int ratio.  The breakdown keeps the kernel's ints and builds its
    ``Fraction`` fields only when they are read.  Raises
    :class:`UndefinedWeightError` for a zero-porosity scope with any nonzero
    limitation count.
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
        # Every weight, mc_vg and the limitation sum are 0/1.
        weights, den, key, vg_den, seclim_base = (0,) * 5, 1, 0, 1, 0.0
    else:
        weights = weight_numerators(
            s, p.visibility + p.access, p.trust, mc_sum, mc_a, mc_b, lims
        )
        key, den, vg_den = seclim_numerator(lims, weights), 10 * s * s, 10 * s
        # 1 + 100*seclim == (s**4 + key) / s**4
        seclim_base = _log_ratio(s**4 + key, s**4) ** 2

    # Each shortfall is capped by s, so the tc argument 1 + 100*s - 10*mc_sum >= 1.
    opsec_base = _log_ratio(1 + 100 * s, 1) ** 2
    fc_base = _log_ratio(1 + 10 * lc_sum, 1) ** 2
    tc_base = _log_ratio(1 + 100 * s - 10 * mc_sum, 1) ** 2
    return RavBreakdown._holding((
        s, lc_sum, mc_a, mc_b, mc, [n if n < s else s for n in lc], vg_den, weights, den, key,
        opsec_base, tc_base, fc_base, seclim_base, combine_bases(opsec_base, fc_base, seclim_base),
        scope,
    ))


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
