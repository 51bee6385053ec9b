"""Reduced rational functions: quotients of polynomials in canonical form.

Canonical form means numerator and denominator are coprime polynomials with
integer coefficients (each stored over ``den == 1``) of joint content 1 and
a positive leading denominator coefficient under graded-lex order.
Equality of canonical forms is plain structural equality, which makes
canonicalization idempotent and bit-exact.

Arithmetic keeps operands reduced throughout, so it can use the classic
reduced-fraction shortcuts: addition only needs a gcd against the small
common denominator factor, multiplication and division only need the cross
gcds, and powers of a reduced quotient need no gcd at all.  Bringing a
coprime pair to canonical scaling needs only the integer content of each.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import DomainError, ZeroDenominatorError
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


def _is_one(poly: Polynomial) -> bool:
    return poly == _ONE


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
    if not _is_one(g):
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

    @classmethod
    def _raw(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap an already-canonical pair without re-reducing."""
        out = cls.__new__(cls)
        out.num, out.den = num, den
        out._hash = None
        return out

    @classmethod
    def from_coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Build from a pair the caller guarantees polynomial-coprime.

        Only the integer scaling is normalized; used where the reduction has
        already been performed by construction.
        """
        if den.is_zero:
            raise ZeroDenominatorError("denominator is the zero polynomial")
        return cls._raw(*_scale_normalize(num, den))

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
        if self.num.is_zero:
            return other
        if other.num.is_zero:
            return self
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        g = polynomial_gcd(self.den, other.den)
        if _is_one(g):
            num = self.num * other.den + other.num * self.den
            if num.is_zero:
                return RationalFunction._raw(_ZERO, _ONE)
            return RationalFunction._raw(*_scale_normalize(num, self.den * other.den))
        d1 = divide_exact(self.den, g)
        d2 = divide_exact(other.den, g)
        t = self.num * d2 + other.num * d1
        if t.is_zero:
            return RationalFunction._raw(_ZERO, _ONE)
        g2 = polynomial_gcd(t, g)
        if not _is_one(g2):
            t = divide_exact(t, g2)
            g = divide_exact(g, g2)
        return RationalFunction._raw(*_scale_normalize(t, d1 * d2 * g))

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._raw(-self.num, self.den)

    def __sub__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        return self + (-RationalFunction.coerce(other))

    def __rsub__(self, other: Scalar) -> "RationalFunction":
        return RationalFunction.coerce(other) - self

    def __mul__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        other = RationalFunction.coerce(other)
        if self.num.is_zero or other.num.is_zero:
            return RationalFunction._raw(_ZERO, _ONE)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g1 = polynomial_gcd(n1, d2)
        if not _is_one(g1):
            n1 = divide_exact(n1, g1)
            d2 = divide_exact(d2, g1)
        g2 = polynomial_gcd(n2, d1)
        if not _is_one(g2):
            n2 = divide_exact(n2, g2)
            d1 = divide_exact(d1, g2)
        return RationalFunction._raw(*_scale_normalize(n1 * n2, d1 * d2))

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        other = RationalFunction.coerce(other)
        if other.is_zero:
            raise ZeroDenominatorError("division by the zero rational function")
        return self * RationalFunction._raw(other.den, other.num)

    def __rtruediv__(self, other: Scalar) -> "RationalFunction":
        return RationalFunction.coerce(other) / self

    def __pow__(self, exponent: int) -> "RationalFunction":
        if exponent < 0:
            if self.is_zero:
                raise ZeroDenominatorError("zero rational function has no inverse")
            return RationalFunction._raw(
                *_scale_normalize(self.den**-exponent, self.num**-exponent)
            )
        if exponent == 0:
            return RationalFunction._raw(_ONE, _ONE)
        return RationalFunction._raw(
            *_scale_normalize(self.num**exponent, self.den**exponent)
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Polynomial)):
            other = RationalFunction.coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
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


def ratfun_arith(a: RationalFunction, b: RationalFunction, op: str) -> RationalFunction:
    """Apply one of ``add|sub|mul|div`` and return the reduced result."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise DomainError(f"unknown operation {op!r}; expected add|sub|mul|div")
