"""Reduced rational functions: quotients of polynomials in canonical form.

Canonical form means numerator and denominator are coprime polynomials with
integer coefficients (each stored over ``den == 1``) of joint content 1 and
a positive leading denominator coefficient under graded-lex order.
Equality of canonical forms is plain structural equality, which makes
canonicalization idempotent and bit-exact.

Every sum, product and quotient is built by the reducing constructor, which
divides out the gcd of the pair and normalizes the integer scaling; the
canonical form is unique, so no operation needs a reduction of its own.
Negations and powers of a coprime pair are still coprime, so those, and
unpickling, go through :meth:`RationalFunction.from_coprime`, which
normalizes the integer scaling only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import ZeroDenominatorError
from .polynomial import (
    Point,
    Polynomial,
    Scalar,
    divide_exact,
    integer_primitive,
    polynomial_gcd,
)

_ONE = Polynomial.constant(1)
_ZERO = Polynomial()


def _scale_normalize(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Normalize a polynomial-coprime pair to the canonical integer scaling."""
    if num.is_zero:
        return _ZERO, _ONE
    num_prim, num_factor = integer_primitive(num)
    den_prim, den_factor = integer_primitive(den)
    ratio = num_factor / den_factor
    return num_prim * ratio.numerator, den_prim * ratio.denominator


def _reduce(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    if num.is_zero:
        return _ZERO, _ONE
    g = polynomial_gcd(num, den)
    if g != _ONE:
        num = divide_exact(num, g)
        den = divide_exact(den, g)
    return _scale_normalize(num, den)


class RationalFunction:
    """Immutable quotient of two polynomials, always stored reduced."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Polynomial | Scalar, den: Polynomial | Scalar = 1):
        num = Polynomial.coerce(num)
        den = Polynomial.coerce(den)
        if den.is_zero:
            raise ZeroDenominatorError("denominator is the zero polynomial")
        self.num, self.den = _reduce(num, den)
        self._hash = None

    def __reduce__(self):
        # Leaves out the cached hash: string hashes differ between processes.
        return RationalFunction.from_coprime, (self.num, self.den)

    @classmethod
    def from_coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Build from a pair the caller guarantees polynomial-coprime.

        Only the integer scaling is normalized; used where the reduction has
        already been performed by construction.
        """
        if den.is_zero:
            raise ZeroDenominatorError("denominator is the zero polynomial")
        out = cls.__new__(cls)
        out.num, out.den = _scale_normalize(num, den)
        out._hash = None
        return out

    @classmethod
    def constant(cls, value: Scalar) -> "RationalFunction":
        return cls(Polynomial.constant(value))

    @classmethod
    def variable(cls, name: str) -> "RationalFunction":
        return cls(Polynomial.variable(name))

    @staticmethod
    def coerce(value: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        return RationalFunction(Polynomial.coerce(value))

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def variables(self) -> frozenset[str]:
        return self.num.variables() | self.den.variables()

    def canonical(self) -> "RationalFunction":
        return RationalFunction(self.num, self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        other = RationalFunction.coerce(other)
        if self.den == other.den:
            num, den = self.num + other.num, self.den
        else:
            num, den = self.num * other.den + other.num * self.den, self.den * other.den
        return RationalFunction(num, den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction.from_coprime(-self.num, self.den)

    def __sub__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        return self + (-RationalFunction.coerce(other))

    def __rsub__(self, other: Scalar) -> "RationalFunction":
        return RationalFunction.coerce(other) - self

    def __mul__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        other = RationalFunction.coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        other = RationalFunction.coerce(other)
        if other.is_zero:
            raise ZeroDenominatorError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: Scalar) -> "RationalFunction":
        return RationalFunction.coerce(other) / self

    def __pow__(self, exponent: int) -> "RationalFunction":
        num, den = self.num, self.den
        if exponent < 0:
            if self.is_zero:
                raise ZeroDenominatorError("zero rational function has no inverse")
            num, den, exponent = den, num, -exponent
        return RationalFunction.from_coprime(num**exponent, den**exponent)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Polynomial)):
            other = RationalFunction.coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # Over a constant denominator (1 included) hash as the equal
        # polynomial, so the hash agrees with an equal Polynomial, int or
        # Fraction.
        if self._hash is None:
            if self.den.is_constant:
                self._hash = hash(self.num * (1 / self.den.constant_value()))
            else:
                self._hash = hash((self.num, self.den))
        return self._hash

    # -- evaluation and rendering ---------------------------------------------

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        return self.value_at(Point(assignment, (self.den, self.num)))

    def value_at(self, point: Point) -> Fraction:
        """The exact value at a point that covers both polynomials."""
        den = point.scaled_value(self.den)
        if den == 0:
            raise ZeroDenominatorError("evaluation at a pole of the rational function")
        return Fraction(point.scaled_value(self.num) * self.den.den, den * self.num.den)

    def render(self) -> str:
        if self.den == _ONE:
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.render()})"
