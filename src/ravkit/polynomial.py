"""Multivariate polynomials over the rationals with exact gcd.

Just enough of a polynomial ring for reduced rational functions: arithmetic,
evaluation, exact division, and a primitive-remainder-sequence gcd.  A
polynomial is stored as integer numerators over one common denominator:
``terms`` maps monomials to nonzero ints and ``den`` is a positive int
coprime to their content, so coefficient ``m`` is ``terms[m] / den`` and
the pair is unique.  All arithmetic runs on ints; ``Fraction`` appears only
at the public boundary (the constructor, ``constant_value``,
``leading_term``, ``sorted_terms`` and ``evaluate``).  A monomial is a tuple
of ``(variable, exponent)`` pairs sorted by variable name with all
exponents positive.  Rendering and leading-term selection use graded-lex
order with alphabetical variables.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DigitLimitError, DomainError, UnassignedVariableError

Mono = tuple  # tuple[tuple[str, int], ...]
Scalar = Union[int, Fraction]

_EMPTY_MONO: Mono = ()


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    exps: dict[str, int] = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def _mono_degree(mono: Mono) -> int:
    return sum(e for _, e in mono)


def _mono_sort_key(mono: Mono):
    # Ascending sort under this key is descending graded-lex.
    return (-_mono_degree(mono), tuple((v, -e) for v, e in mono))


def _mono_divide(a: Mono, b: Mono) -> Mono | None:
    """a / b, or None when b does not divide a."""
    out: dict[str, int] = dict(a)
    for var, e in b:
        have = out.get(var, 0)
        if have < e:
            return None
        if have == e:
            del out[var]
        else:
            out[var] = have - e
    return tuple(sorted(out.items()))


def _mono_render(mono: Mono) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)


class Polynomial:
    """Immutable sparse polynomial: int numerators over one positive int."""

    __slots__ = ("terms", "den", "_hash")

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None):
        coeffs = {m: Fraction(c) for m, c in (terms or {}).items()}
        coeffs = {m: c for m, c in coeffs.items() if c}
        # The lcm of reduced denominators is coprime to the numerators' content.
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.terms = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}
        self.den = den
        self._hash = None

    @classmethod
    def _from_numerators(cls, terms: dict[Mono, int], den: int = 1) -> "Polynomial":
        """Wrap nonzero int numerators over ``den > 0`` (taking ownership of
        ``terms``), reduced to lowest terms."""
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                terms = {m: c // g for m, c in terms.items()}
                den //= g
        out = cls.__new__(cls)
        out.terms = terms
        out.den = den
        out._hash = None
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        if type(value) is int:
            return cls._from_numerators({_EMPTY_MONO: value} if value else {})
        return cls({_EMPTY_MONO: value})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        if not name or any(ch in name for ch in " \t\n*^+-/()"):
            raise DomainError(f"invalid variable name {name!r}")
        return cls._from_numerators({((name, 1),): 1})

    @staticmethod
    def coerce(value: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return Polynomial.constant(value)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _EMPTY_MONO in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise DomainError("polynomial is not constant")
        return Fraction(self.terms.get(_EMPTY_MONO, 0), self.den)

    def variables(self) -> frozenset[str]:
        return frozenset(v for mono in self.terms for v, _ in mono)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(_mono_degree(m) for m in self.terms)

    def degree_in(self, var: str) -> int:
        deg = 0
        for mono in self.terms:
            for v, e in mono:
                if v == var and e > deg:
                    deg = e
        return deg

    def _leading_mono(self) -> Mono:
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        return min(self.terms, key=_mono_sort_key)

    def leading_term(self) -> tuple[Mono, Fraction]:
        """Leading (monomial, coefficient) under graded-lex order."""
        mono = self._leading_mono()
        return mono, Fraction(self.terms[mono], self.den)

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        return [(m, Fraction(self.terms[m], self.den))
                for m in sorted(self.terms, key=_mono_sort_key)]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = Polynomial.coerce(other)
        den = self.den * other.den // math.gcd(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        res = dict(self.terms) if ka == 1 else {m: c * ka for m, c in self.terms.items()}
        for mono, coeff in other.terms.items():
            c = res.get(mono, 0) + coeff * kb
            if c:
                res[mono] = c
            else:
                del res[mono]
        return Polynomial._from_numerators(res, den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_numerators({m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self + (-Polynomial.coerce(other))

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return Polynomial.coerce(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if type(other) is int:
            if not other:
                return Polynomial()
            return Polynomial._from_numerators(
                {m: c * other for m, c in self.terms.items()}, self.den
            )
        other = Polynomial.coerce(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        res: dict[Mono, int] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = _mono_mul(m1, m2)
                c = res.get(mono, 0) + c1 * c2
                if c:
                    res[mono] = c
                else:
                    del res[mono]
        return Polynomial._from_numerators(res, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise DomainError("negative polynomial powers are not defined")
        result = Polynomial.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self) -> int:
        # The hash of the {monomial: Fraction coefficient} items; an int
        # numerator over 1 hashes like the equal Fraction.
        if self._hash is None:
            items = self.terms.items()
            if self.den != 1:
                items = ((m, Fraction(c, self.den)) for m, c in items)
            self._hash = hash(frozenset(items))
        return self._hash

    # -- evaluation and rendering -------------------------------------------

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        point = Point(assignment, (self,))
        return Fraction(point.scaled_value(self), self.den * point.scale)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono in sorted(self.terms, key=_mono_sort_key):
            coeff = self.terms[mono]
            mag = abs(coeff) if self.den == 1 else Fraction(abs(coeff), self.den)
            body = _mono_render(mono)
            try:
                if not body:
                    text = str(mag)
                elif mag == 1:
                    text = body
                else:
                    text = f"{mag}*{body}"
            except ValueError:
                # str() of a coefficient past the int-digit limit.
                raise DigitLimitError() from None
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


class Point:
    """A rational point at which polynomials are evaluated exactly.

    With each variable ``v = p/q`` and ``D`` its highest exponent among the
    polynomials given, ``poly * den * prod(q**D)`` is an integer: a monomial
    contributes ``p**e * q**(D - e)`` for each variable in it and ``q**D``
    for each variable not in it.  The powers are computed once per
    ``(variable, exponent)`` and shared by every polynomial evaluated here,
    so the sums run on ints and a value costs one ``Fraction`` division.
    """

    __slots__ = ("_values", "_top", "_powers", "_absent", "scale")

    def __init__(self, assignment: Mapping[str, Scalar], polys: Iterable[Polynomial]):
        top: dict[str, int] = {}
        for poly in polys:
            for mono in poly.terms:
                for var, e in mono:
                    if var not in assignment:
                        raise UnassignedVariableError(f"no value assigned to variable {var!r}")
                    if e > top.get(var, 0):
                        top[var] = e
        self._values = {var: Fraction(assignment[var]) for var in top}
        self._top = top
        self._powers: dict[tuple[str, int], int] = {}
        # q**D of each non-integer value, the factor of monomials without it.
        self._absent = {
            var: value.denominator ** top[var]
            for var, value in self._values.items()
            if value.denominator != 1
        }
        self.scale = math.prod(self._absent.values())

    def scaled_value(self, poly: Polynomial) -> int:
        """``poly``'s value times ``poly.den * self.scale``: an int."""
        powers = self._powers
        total = 0
        for mono, coeff in poly.terms.items():
            for ve in mono:
                power = powers.get(ve)
                if power is None:
                    var, e = ve
                    value = self._values[var]
                    power = powers[ve] = (
                        value.numerator**e * value.denominator ** (self._top[var] - e)
                    )
                coeff *= power
            if self._absent:
                present = {v for v, _ in mono}
                for var, factor in self._absent.items():
                    if var not in present:
                        coeff *= factor
            total += coeff
        return total


# ---------------------------------------------------------------------------
# Exact division and gcd
# ---------------------------------------------------------------------------


def _content(poly: Polynomial) -> int:
    """The gcd of the int numerators (0 for the zero polynomial)."""
    return math.gcd(*poly.terms.values())


def divide_exact(num: Polynomial, den: Polynomial) -> Polynomial:
    """Exact quotient num/den; raises DomainError when the division is inexact.

    Runs on the int numerators.  Once ``den``'s numerators are divided by
    their content, an exact quotient of integer polynomials has integer
    coefficients (Gauss's lemma), so each step must divide the remainder's
    leading coefficient exactly.  The remainder's monomials wait in a heap
    under graded-lex order, so each step pops the leading one instead of
    scanning the remainder.
    """
    if den.is_zero:
        raise DomainError("division by the zero polynomial")
    # num/den = (num.terms / den.terms) * den.den / num.den, and with
    # den.terms = content * primitive the quotient's numerators are
    # (num.terms / primitive) * den.den over num.den * content.
    content = _content(den)
    scale = den.den
    if den.is_constant:
        if den.terms[_EMPTY_MONO] < 0:
            scale = -scale
        quotient = {m: c * scale for m, c in num.terms.items()}
        return Polynomial._from_numerators(quotient, num.den * content)
    lead_mono = den._leading_mono()
    lead_coeff = den.terms[lead_mono] // content
    rest = [(m, c // content) for m, c in den.terms.items() if m != lead_mono]
    rem = dict(num.terms)
    heap = [(_mono_sort_key(m), m) for m in rem]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        mono = heapq.heappop(heap)[1]
        # A popped monomial never reappears: every later product is smaller.
        # Stale heap entries (cancelled or already taken) find nothing here.
        coeff = rem.pop(mono, 0)
        if not coeff:
            continue
        q_mono = _mono_divide(mono, lead_mono)
        if q_mono is None:
            raise DomainError("inexact polynomial division")
        q_coeff, residue = divmod(coeff, lead_coeff)
        if residue:
            raise DomainError("inexact polynomial division")
        quotient[q_mono] = q_coeff * scale
        for m, c in rest:
            key = _mono_mul(m, q_mono)
            left = rem.get(key, 0) - c * q_coeff
            if not left:
                del rem[key]
                continue
            if key not in rem:
                heapq.heappush(heap, (_mono_sort_key(key), key))
            rem[key] = left
    return Polynomial._from_numerators(quotient, num.den * content)


def try_divide_exact(num: Polynomial, den: Polynomial) -> Polynomial | None:
    """Exact quotient num/den, or None when den does not divide num."""
    try:
        return divide_exact(num, den)
    except DomainError:
        return None


def integer_primitive(poly: Polynomial) -> tuple[Polynomial, Fraction]:
    """Return (primitive, factor) with integer coprime coefficients, positive
    leading coefficient, and ``poly == factor * primitive``."""
    if poly.is_zero:
        return poly, Fraction(1)
    content = _content(poly)
    if poly.terms[poly._leading_mono()] < 0:
        content = -content
    primitive = {m: c // content for m, c in poly.terms.items()}
    return Polynomial._from_numerators(primitive), Fraction(content, poly.den)


def polynomial_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Gcd with positive leading coefficient, including the integer content
    gcd (so ``gcd(6, 4) == 2``); constant 1 for coprime primitive inputs.
    Rational coefficients are cleared per operand (the gcd runs on the
    numerators) before the integer gcd."""
    if f.is_zero:
        return _sign_normalized(g)
    if g.is_zero:
        return _sign_normalized(f)
    return _igcd(Polynomial._from_numerators(f.terms), Polynomial._from_numerators(g.terms))


def _sign_normalized(poly: Polynomial) -> Polynomial:
    if poly.is_zero or poly.terms[poly._leading_mono()] > 0:
        return poly
    return -poly


def _coefficients_in(poly: Polynomial, var: str) -> dict[int, Polynomial]:
    """Coefficients of poly as a polynomial in var, keyed by degree."""
    out: dict[int, dict[Mono, int]] = {}
    for mono, c in poly.terms.items():
        deg = 0
        rest = []
        for v, e in mono:
            if v == var:
                deg = e
            else:
                rest.append((v, e))
        out.setdefault(deg, {})[tuple(rest)] = c
    return {deg: Polynomial._from_numerators(terms) for deg, terms in out.items()}


def _igcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Gcd of nonzero integer polynomials, content included, positive
    leading coefficient: a primitive remainder sequence in the first shared
    variable, with contents handled recursively in the other variables."""
    shared = f.variables() & g.variables()
    if not shared:
        return Polynomial.constant(math.gcd(_content(f), _content(g)))
    var = min(shared)
    cont_f, a = _content_and_primitive(f, var)
    cont_g, b = _content_and_primitive(g, var)
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while b.degree_in(var):
        r = _prem(a, b, var)
        if r.is_zero:
            break
        a, b = b, _content_and_primitive(r, var)[1]
    else:
        b = Polynomial.constant(1)
    return _sign_normalized(_igcd(cont_f, cont_g) * b)


def _content_and_primitive(poly: Polynomial, var: str) -> tuple[Polynomial, Polynomial]:
    """Content of poly in var (a gcd over the other variables, integer
    content included) and the primitive part poly / content."""
    coeffs = iter(_coefficients_in(poly, var).values())
    cont = _sign_normalized(next(coeffs))
    for c in coeffs:
        if cont == 1:
            break
        cont = _igcd(cont, c)
    return cont, poly if cont == 1 else divide_exact(poly, cont)


def _prem(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Pseudo-remainder of f by g in var."""
    deg_g = g.degree_in(var)
    lc_g = _coefficients_in(g, var)[deg_g]
    rem = f
    while not rem.is_zero:
        deg_r = rem.degree_in(var)
        if deg_r < deg_g:
            break
        lc_r = _coefficients_in(rem, var)[deg_r]
        shift = Polynomial._from_numerators({((var, deg_r - deg_g),) if deg_r > deg_g else (): 1})
        rem = rem * lc_g - lc_r * shift * g
    return rem
