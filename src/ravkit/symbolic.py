"""Symbolic Actual Security: exact scores built from log-square atoms.

A :class:`SymbolicScore` is a rational-coefficient combination of products
of ``ln(arg)**2`` atoms, where each argument is a reduced rational function
of formal unit variables.  :func:`symbolic_rav` rebuilds the whole numeric
pipeline symbolically: counts are scaled by optional per-kind unit
variables (one host visible becomes ``1*h``), the shortfall branches
``max(x, 0)`` are resolved by evaluating their arguments with every unit
set to 1 (the same convention the numeric evaluation uses), and the three
squashed sections combine into the final score

    S*((A - F)/100 - 1) - (F + 100)*A/100 + F + 100

Scores are exact until :func:`SymbolicScore.evaluate` substitutes rational
values and takes natural logs in floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DomainError, UnassignedVariableError, UndefinedWeightError
from .metrics import (
    LIMITATION_CATEGORIES,
    ControlClass,
    META_CLASS_A,
    UNIT_KINDS,
    Scope,
)
from .polynomial import Point, Polynomial, Scalar, try_divide_exact
from .ratfun import RationalFunction


@dataclass(frozen=True, slots=True)
class FormalVar:
    """A named formal unit variable (e.g. ``h`` for one visible host)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise DomainError("formal variable name must be non-empty")


def _var_name(var: Union[FormalVar, str]) -> str:
    return var.name if isinstance(var, FormalVar) else str(var)


class LogSquareAtom:
    """``ln(arg)**2`` for a canonical rational-function argument."""

    __slots__ = ("arg", "_key")

    def __init__(self, arg: RationalFunction):
        self.arg = arg
        self._key = None

    @property
    def key(self) -> str:
        if self._key is None:
            self._key = self.arg.render()
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogSquareAtom):
            return NotImplemented
        return self.arg == other.arg

    def __hash__(self) -> int:
        return hash(self.arg)

    def render(self) -> str:
        return f"ln({self.key})^2"

    def __repr__(self) -> str:
        return f"LogSquareAtom({self.key})"


Term = tuple[Fraction, tuple[LogSquareAtom, ...]]


class SymbolicScore:
    """Sum of rational multiples of products of log-square atoms.

    Terms are kept canonical: atoms sorted within a term, terms merged and
    sorted (most atoms first, then by atom keys, constant last), zero
    coefficients dropped.  Structural equality of canonical forms therefore
    implies functional equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[Scalar, Iterable[LogSquareAtom]]] = ()):
        merged: dict[tuple[LogSquareAtom, ...], Fraction] = {}
        for coeff, atoms in terms:
            c = Fraction(coeff)
            if c == 0:
                continue
            key = tuple(sorted(atoms, key=lambda a: a.key))
            total = merged.get(key, Fraction(0)) + c
            if total == 0:
                merged.pop(key, None)
            else:
                merged[key] = total
        ordered = sorted(
            merged.items(), key=lambda kv: (-len(kv[0]), [a.key for a in kv[0]])
        )
        self.terms = tuple((coeff, atoms) for atoms, coeff in ordered)

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar) -> "SymbolicScore":
        return cls([(Fraction(value), ())])

    @classmethod
    def atom(cls, arg: RationalFunction, coeff: Scalar = 1) -> "SymbolicScore":
        """Score ``coeff * ln(arg)**2``; an argument of exactly 1 is zero."""
        if arg == RationalFunction.constant(1):
            return cls()
        return cls([(Fraction(coeff), (LogSquareAtom(arg),))])

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "SymbolicScore | Scalar") -> "SymbolicScore":
        other = _coerce_score(other)
        return SymbolicScore(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self) -> "SymbolicScore":
        return SymbolicScore([(-c, atoms) for c, atoms in self.terms])

    def __sub__(self, other: "SymbolicScore | Scalar") -> "SymbolicScore":
        return self + (-_coerce_score(other))

    def __rsub__(self, other: Scalar) -> "SymbolicScore":
        return _coerce_score(other) - self

    def __mul__(self, other: "SymbolicScore | Scalar") -> "SymbolicScore":
        if isinstance(other, SymbolicScore):
            out = []
            for c1, a1 in self.terms:
                for c2, a2 in other.terms:
                    out.append((c1 * c2, a1 + a2))
            return SymbolicScore(out)
        return SymbolicScore([(c * Fraction(other), atoms) for c, atoms in self.terms])

    __rmul__ = __mul__

    def __truediv__(self, divisor: Scalar) -> "SymbolicScore":
        return self * (Fraction(1) / Fraction(divisor))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicScore):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    # -- inspection -------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return all(not atoms for _, atoms in self.terms)

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for atom in self.atoms():
            out |= atom.arg.variables()
        return frozenset(out)

    def atoms(self) -> tuple[LogSquareAtom, ...]:
        seen: dict[str, LogSquareAtom] = {}
        for _, atoms in self.terms:
            for atom in atoms:
                seen.setdefault(atom.key, atom)
        return tuple(seen[k] for k in sorted(seen))

    def canonical(self) -> "SymbolicScore":
        return SymbolicScore(self.terms)

    # -- evaluation and rendering -------------------------------------------------

    def evaluate(self, assignment: Mapping[Union[str, FormalVar], Scalar]) -> float:
        """Substitute exactly, then apply natural logs in floating point.

        Every variable must be assigned a positive rational; every atom
        argument must evaluate to at least 1.  All atom arguments are
        evaluated at one shared :class:`~ravkit.polynomial.Point`, so each
        power of a variable is computed once and each argument is one
        division of two exact integers.
        """
        import math

        values = {_var_name(k): Fraction(v) for k, v in assignment.items()}
        for name, value in values.items():
            if value <= 0:
                raise DomainError(f"assignment for {name!r} must be positive, got {value}")
        missing = self.variables() - set(values)
        if missing:
            raise UnassignedVariableError(
                f"no value assigned to variable(s) {', '.join(sorted(missing))}"
            )
        atoms = self.atoms()
        point = Point(values, (p for atom in atoms for p in (atom.arg.den, atom.arg.num)))
        log_sq: dict[str, float] = {}
        for atom in atoms:
            arg = atom.arg.value_at(point)
            if arg < 1:
                raise DomainError(
                    f"atom argument {atom.key} evaluates to {arg} < 1"
                )
            try:
                log_arg = math.log(arg)
            except OverflowError:  # arg exceeds the float range
                log_arg = math.log(arg.numerator) - math.log(arg.denominator)
            log_sq[atom.key] = log_arg**2
        total = 0.0
        for coeff, atoms in self.terms:
            value = float(coeff)
            for atom in atoms:
                value *= log_sq[atom.key]
            total += value
        return total

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for coeff, atoms in self.terms:
            mag = abs(coeff)
            body = "*".join(a.render() for a in atoms)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SymbolicScore({self.render()})"


def _coerce_score(value: "SymbolicScore | Scalar") -> SymbolicScore:
    if isinstance(value, SymbolicScore):
        return value
    return SymbolicScore.constant(value)


# ---------------------------------------------------------------------------
# Symbolic pipeline
# ---------------------------------------------------------------------------


_ONE = Polynomial.constant(1)


def _branch_max_zero(value: Polynomial) -> Polynomial:
    """``max(value, 0)`` with the branch picked at the all-units point."""
    at_units = value.evaluate({v: 1 for v in value.variables()})
    return value if at_units >= 0 else Polynomial()


def _validate_units(
    unit_map: Mapping[str, Union[str, FormalVar]] | None,
) -> dict[str, str]:
    if not unit_map:
        return {}
    out: dict[str, str] = {}
    for kind, var in unit_map.items():
        if kind not in UNIT_KINDS:
            raise DomainError(
                f"unknown count kind {kind!r} in unit map; expected one of {', '.join(UNIT_KINDS)}"
            )
        out[kind] = _var_name(var)
    names = list(out.values())
    if len(set(names)) != len(names):
        raise DomainError("unit map must assign distinct variables to distinct count kinds")
    return out


@dataclass(frozen=True, slots=True)
class SymbolicBreakdown:
    """The three atom arguments of a scope's score, plus the score itself."""

    opsec_argument: RationalFunction
    controls_argument: RationalFunction
    seclim_argument: RationalFunction
    score: SymbolicScore


def symbolic_breakdown(
    scope: Scope, unit_map: Mapping[str, Union[str, FormalVar]] | None = None
) -> SymbolicBreakdown:
    """Run the symbolic pipeline and return the atom arguments with the score.

    All intermediates are polynomial numerators over powers of the (linear,
    hence irreducible) porosity polynomial, so the one reduction needed for
    the limitation argument is dividing that linear factor out of the
    numerator as often as it goes.
    """
    units = _validate_units(unit_map)
    one = RationalFunction.constant(1)

    def counted(kind: str, count: int) -> Polynomial:
        if count and kind in units:
            return Polynomial.variable(units[kind]) * count
        return Polynomial.constant(count)

    pv = counted("visibility", scope.porosity.visibility)
    pa = counted("access", scope.porosity.access)
    pt = counted("trust", scope.porosity.trust)
    opsec = pv + pa + pt

    lc = {cls: counted(cls.value, scope.controls.get(cls)) for cls in ControlClass}
    lc_sum = sum(lc.values(), Polynomial())
    # 1 + 10*lc_sum and 1 + 100*opsec have denominator 1: no gcd to take.
    f_arg = RationalFunction.from_coprime(1 + 10 * lc_sum, _ONE)

    if opsec.is_zero:
        if scope.limitations.total != 0:
            raise UndefinedWeightError(
                f"scope {scope.id!r} has zero porosity but nonzero limitations; "
                "limitation weights are undefined"
            )
        return SymbolicBreakdown(one, f_arg, one, SymbolicScore.atom(f_arg) + 100)

    mc = {cls: _branch_max_zero(opsec - lc[cls]) for cls in ControlClass}
    mc_sum = sum(mc.values(), Polynomial())
    mc_a = sum((mc[c] for c in ControlClass if c in META_CLASS_A), Polynomial())
    mc_b = mc_sum - mc_a

    # Weight numerators: w_v, w_w, w_c over opsec; w_e, w_a over 10*opsec**2.
    wv_n = opsec + mc_sum
    ww_n = opsec + mc_a
    wc_n = opsec + mc_b

    n = {
        category: counted(category, getattr(scope.limitations, category))
        for category in LIMITATION_CATEGORIES
    }
    weighted_vwc = n["vulnerabilities"] * wv_n + n["weaknesses"] * ww_n + n["concerns"] * wc_n
    we_n = (pv + pa) * mc_sum + 10 * weighted_vwc
    wa_n = pt * mc_sum + 10 * weighted_vwc

    # seclim_sum = [100*L**2*(n_v*wv_n**2 + n_w*ww_n**2 + n_c*wc_n**2)
    #               + n_e*we_n**2 + n_a*wa_n**2] / (100*L**4)
    l_sq = opsec * opsec
    vwc_part = (
        n["vulnerabilities"] * wv_n * wv_n
        + n["weaknesses"] * ww_n * ww_n
        + n["concerns"] * wc_n * wc_n
    )
    seclim_num = 100 * l_sq * vwc_part + n["exposures"] * we_n * we_n + n["anomalies"] * wa_n * wa_n
    # 1 + 100*seclim_sum over the common denominator 100*L**4.
    l_four = l_sq * l_sq
    s_num = 100 * l_four + 100 * seclim_num
    s_den_power = 4
    while s_den_power > 0:
        quotient = try_divide_exact(s_num, opsec)
        if quotient is None:
            break
        s_num = quotient
        s_den_power -= 1
    s_arg = RationalFunction.from_coprime(s_num, 100 * opsec**s_den_power)

    a_arg = RationalFunction.from_coprime(1 + 100 * opsec, _ONE)
    a_score = SymbolicScore.atom(a_arg)
    f_score = SymbolicScore.atom(f_arg)
    s_score = SymbolicScore.atom(s_arg)

    hundredth = Fraction(1, 100)
    score = (
        s_score * (a_score - f_score) * hundredth
        - s_score
        - (f_score + 100) * a_score * hundredth
        + f_score
        + 100
    )
    return SymbolicBreakdown(a_arg, f_arg, s_arg, score)


def symbolic_rav(
    scope: Scope, unit_map: Mapping[str, Union[str, FormalVar]] | None = None
) -> SymbolicScore:
    """Build the Actual Security score of a scope as a symbolic expression.

    ``unit_map`` maps count kinds (``visibility``, ``access``, ``trust``,
    a control class value, or a limitation category) to formal variables;
    kinds without a unit contribute their bare count.  Evaluating the
    result with every unit set to 1 reproduces the numeric pipeline.
    """
    return symbolic_breakdown(scope, unit_map).score


@dataclass(frozen=True, slots=True)
class EquivalenceResult:
    """Outcome of an equivalence check, with a witness point on failure."""

    equivalent: bool
    method: str
    witness: Mapping[str, Fraction] | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def equivalent(
    a: SymbolicScore, b: SymbolicScore, trials: int = 100, seed: int = 0
) -> EquivalenceResult:
    """Decide score equivalence: structural match first, else seeded random
    rational points (all >= 1) compared at 1e-9 relative tolerance."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if a.canonical() == b.canonical():
        return EquivalenceResult(True, "structural")
    rng = random.Random(seed)
    names = sorted(a.variables() | b.variables())
    for _ in range(trials):
        point = {
            name: 1 + Fraction(rng.randrange(0, 4000), rng.randrange(1, 64))
            for name in names
        }
        values: list[float] = []
        errors = 0
        for score in (a, b):
            try:
                values.append(score.evaluate(point))
            except DomainError:
                errors += 1
        if errors == 2:
            continue
        if errors == 1:
            return EquivalenceResult(False, "sampled", witness=point)
        va, vb = values
        if abs(va - vb) > 1e-9 * max(1.0, abs(va), abs(vb)):
            return EquivalenceResult(False, "sampled", witness=point)
    return EquivalenceResult(True, "sampled")
