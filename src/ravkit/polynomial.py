"""Multivariate polynomials over the rationals with exact gcd.

Just enough of a polynomial ring for reduced rational functions: arithmetic,
evaluation, exact division, and a primitive-remainder-sequence gcd.  Terms
map monomials to nonzero Fraction coefficients; a monomial is a tuple of
``(variable, exponent)`` pairs sorted by variable name with all exponents
positive.  Rendering and leading-term selection use graded-lexicographic
order with alphabetical variables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

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
    exps = dict(a)
    out: dict[str, int] = dict(a)
    for var, e in b:
        have = exps.get(var, 0)
        if have < e:
            return None
        if have == e:
            del out[var]
        else:
            out[var] = have - e
    return tuple(sorted(out.items()))


def _mono_gcd(a: Mono, b: Mono) -> Mono:
    if not a or not b:
        return _EMPTY_MONO
    eb = dict(b)
    out = []
    for var, e in a:
        m = min(e, eb.get(var, 0))
        if m > 0:
            out.append((var, m))
    return tuple(out)


def _mono_render(mono: Mono) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None):
        clean: dict[Mono, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c != 0:
                    clean[mono] = c
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls({_EMPTY_MONO: Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        if not name or any(ch in name for ch in " \t\n*^+-/()"):
            raise DomainError(f"invalid variable name {name!r}")
        return cls({((name, 1),): Fraction(1)})

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
        return self.terms.get(_EMPTY_MONO, Fraction(0))

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

    def leading_term(self) -> tuple[Mono, Fraction]:
        """Leading (monomial, coefficient) under graded-lex order."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        mono = min(self.terms, key=_mono_sort_key)
        return mono, self.terms[mono]

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        return [(m, self.terms[m]) for m in sorted(self.terms, key=_mono_sort_key)]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = Polynomial.coerce(other)
        res = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = res.get(mono, Fraction(0)) + coeff
            if c == 0:
                res.pop(mono, None)
            else:
                res[mono] = c
        out = Polynomial.__new__(Polynomial)
        out.terms = res
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        out = Polynomial.__new__(Polynomial)
        out.terms = {m: -c for m, c in self.terms.items()}
        out._hash = None
        return out

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self + (-Polynomial.coerce(other))

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return Polynomial.coerce(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = Polynomial.coerce(other)
        if not self.terms or not other.terms:
            return Polynomial()
        res: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                c = res.get(mono, Fraction(0)) + c1 * c2
                if c == 0:
                    res.pop(mono, None)
                else:
                    res[mono] = c
        out = Polynomial.__new__(Polynomial)
        out.terms = res
        out._hash = None
        return out

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
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- evaluation and rendering -------------------------------------------

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for var, e in mono:
                if var not in assignment:
                    raise UnassignedVariableError(f"no value assigned to variable {var!r}")
                value *= Fraction(assignment[var]) ** e
            total += value
        return total

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            mag = abs(coeff)
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


# ---------------------------------------------------------------------------
# Exact division and gcd
#
# The gcd machinery runs on plain-int coefficient dicts (the inputs are made
# integer-primitive first); Fractions only cross the boundary.
# ---------------------------------------------------------------------------

IntPoly = dict  # dict[Mono, int], no zero values


def divide_exact(num: Polynomial, den: Polynomial) -> Polynomial:
    """Exact quotient num/den; raises DomainError when the division is inexact."""
    if den.is_zero:
        raise DomainError("division by the zero polynomial")
    if den.is_constant:
        c = den.constant_value()
        return Polynomial({m: coeff / c for m, coeff in num.terms.items()})
    quotient: dict[Mono, Fraction] = {}
    rem = dict(num.terms)
    den_mono, den_coeff = den.leading_term()
    den_terms = den.terms
    while rem:
        rem_mono = min(rem, key=_mono_sort_key)
        q_mono = _mono_divide(rem_mono, den_mono)
        if q_mono is None:
            raise DomainError("inexact polynomial division")
        q_coeff = rem[rem_mono] / den_coeff
        quotient[q_mono] = quotient.get(q_mono, Fraction(0)) + q_coeff
        for m, c in den_terms.items():
            key = _mono_mul(m, q_mono)
            left = rem.get(key, Fraction(0)) - c * q_coeff
            if left == 0:
                rem.pop(key, None)
            else:
                rem[key] = left
    return Polynomial(quotient)


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
    den_lcm = 1
    for c in poly.terms.values():
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    num_gcd = 0
    for c in poly.terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
    factor = Fraction(num_gcd, den_lcm)
    if poly.leading_term()[1] < 0:
        factor = -factor
    primitive = Polynomial({m: c / factor for m, c in poly.terms.items()})
    return primitive, factor


def polynomial_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Gcd with positive leading coefficient, including the integer content
    gcd (so ``gcd(6, 4) == 2``); constant 1 for coprime primitive inputs.
    Rational coefficients are cleared per operand before the integer gcd."""
    if f.is_zero:
        return _sign_normalized(g)
    if g.is_zero:
        return _sign_normalized(f)
    return Polynomial({m: Fraction(c) for m, c in _igcd(_to_int(f), _to_int(g)).items()})


def _sign_normalized(poly: Polynomial) -> Polynomial:
    if poly.is_zero or poly.leading_term()[1] > 0:
        return poly
    return -poly


def _to_int(poly: Polynomial) -> IntPoly:
    """Clear denominators (keep content): the integer polynomial lcm*poly."""
    lcm = 1
    for c in poly.terms.values():
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return {m: c.numerator * (lcm // c.denominator) for m, c in poly.terms.items()}


# -- int-dict polynomial helpers ---------------------------------------------


def _imul(a: IntPoly, b: IntPoly) -> IntPoly:
    out: IntPoly = {}
    if len(a) > len(b):
        a, b = b, a
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _mono_mul(m1, m2)
            c = out.get(mono, 0) + c1 * c2
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return out


def _iscale(a: IntPoly, k: int) -> IntPoly:
    return {m: c * k for m, c in a.items()} if k != 1 else a


def _isub_scaled(a: IntPoly, ka: int, b: IntPoly, kb: int) -> IntPoly:
    """ka*a - kb*b."""
    out = {m: c * ka for m, c in a.items()}
    for m, c in b.items():
        v = out.get(m, 0) - c * kb
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _icontent(a: IntPoly) -> int:
    c = 0
    for v in a.values():
        c = math.gcd(c, v)
        if c == 1:
            return 1
    return c


def _idiv_int(a: IntPoly, k: int) -> IntPoly:
    return {m: c // k for m, c in a.items()} if k != 1 else a


def _idegree_in(a: IntPoly, var: str) -> int:
    deg = 0
    for mono in a:
        for v, e in mono:
            if v == var and e > deg:
                deg = e
    return deg


def _ivariables(a: IntPoly) -> set[str]:
    return {v for mono in a for v, _ in mono}


def _ilead_sign(a: IntPoly) -> int:
    mono = min(a, key=_mono_sort_key)
    return 1 if a[mono] > 0 else -1


def _icoefficients_in(a: IntPoly, var: str) -> dict[int, IntPoly]:
    out: dict[int, IntPoly] = {}
    for mono, c in a.items():
        deg = 0
        rest = []
        for v, e in mono:
            if v == var:
                deg = e
            else:
                rest.append((v, e))
        out.setdefault(deg, {})[tuple(rest)] = c
    return out


def _idivide_exact(num: IntPoly, den: IntPoly) -> IntPoly:
    """Exact division of int polynomials (den primitive or exact scalar)."""
    if not num:
        return {}
    if len(den) == 1 and () in den:
        return _idiv_int(num, den[()])
    quotient: IntPoly = {}
    rem = dict(num)
    den_mono = min(den, key=_mono_sort_key)
    den_coeff = den[den_mono]
    while rem:
        rem_mono = min(rem, key=_mono_sort_key)
        q_mono = _mono_divide(rem_mono, den_mono)
        if q_mono is None:
            raise DomainError("inexact polynomial division")
        q_coeff, residue = divmod(rem[rem_mono], den_coeff)
        if residue:
            raise DomainError("inexact polynomial division")
        quotient[q_mono] = quotient.get(q_mono, 0) + q_coeff
        for m, c in den.items():
            key = _mono_mul(m, q_mono)
            left = rem.get(key, 0) - c * q_coeff
            if left:
                rem[key] = left
            else:
                rem.pop(key, None)
    return quotient


def _imono_content(a: IntPoly) -> Mono:
    mono = None
    for m in a:
        mono = m if mono is None else _mono_gcd(mono, m)
        if not mono:
            break
    return mono or _EMPTY_MONO


def _istrip_mono(a: IntPoly, mono: Mono) -> IntPoly:
    if not mono:
        return a
    return {_mono_divide(m, mono): c for m, c in a.items()}


def _igcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Gcd of int polynomials (content included), positive leading coefficient."""
    if not f or not g:
        other = g if not f else f
        if not other:
            return {}
        return other if _ilead_sign(other) > 0 else _iscale(other, -1)
    if f == g:
        return f if _ilead_sign(f) > 0 else _iscale(f, -1)
    mono_f = _imono_content(f)
    mono_g = _imono_content(g)
    common = _mono_gcd(mono_f, mono_g)
    f = _istrip_mono(f, mono_f)
    g = _istrip_mono(g, mono_g)
    core = _igcd_core(f, g)
    if common:
        core = {_mono_mul(m, common): c for m, c in core.items()}
    return core


def _igcd_core(f: IntPoly, g: IntPoly) -> IntPoly:
    const_f = len(f) == 1 and () in f
    const_g = len(g) == 1 and () in g
    if const_f or const_g:
        return {(): math.gcd(_icontent(f), _icontent(g))}
    shared = _ivariables(f) & _ivariables(g)
    if not shared:
        return {(): math.gcd(_icontent(f), _icontent(g))}
    var = min(shared)

    def content_and_pp(p: IntPoly) -> tuple[IntPoly, IntPoly]:
        # Chain from the structurally smallest coefficient: the content
        # usually collapses to a constant immediately.
        coeffs = sorted(
            _icoefficients_in(p, var).values(),
            key=lambda c: (len(c), max(_mono_degree(m) for m in c)),
        )
        cont = coeffs[0]
        for c in coeffs[1:]:
            if len(cont) == 1 and () in cont:
                cont = {(): math.gcd(cont[()], _icontent(c))}
                if abs(cont[()]) == 1:
                    break
            else:
                cont = _igcd(cont, c)
        if cont == {(): 1}:
            return cont, p
        return cont, _idivide_exact(p, cont)

    cont_f, pp_f = content_and_pp(f)
    cont_g, pp_g = content_and_pp(g)
    cont = _igcd(cont_f, cont_g)

    a, b = pp_f, pp_g
    if _idegree_in(a, var) < _idegree_in(b, var):
        a, b = b, a
    while True:
        deg_b = _idegree_in(b, var)
        if deg_b == 0:
            pp_gcd = {(): 1}
            break
        r = _iprem(a, b, var, deg_b)
        if not r:
            pp_gcd = content_and_pp(b)[1]
            break
        c = _icontent(r)
        a, b = b, content_and_pp(_idiv_int(r, c))[1]
    # gcd = gcd(contents) * gcd(primitive parts); pp_gcd is primitive, so no
    # further content division is wanted here.
    result = _imul(cont, pp_gcd)
    if _ilead_sign(result) < 0:
        result = _iscale(result, -1)
    return result


def _iprem(f: IntPoly, g: IntPoly, var: str, deg_g: int) -> IntPoly:
    lc_g = _icoefficients_in(g, var)[deg_g]
    rem = f
    while rem:
        deg_r = _idegree_in(rem, var)
        if deg_r < deg_g:
            break
        lc_r = _icoefficients_in(rem, var)[deg_r]
        shift = ((var, deg_r - deg_g),) if deg_r > deg_g else _EMPTY_MONO
        shifted = {_mono_mul(m, shift): c for m, c in lc_r.items()}
        rem = _isub_scaled(_imul(rem, lc_g), 1, _imul(shifted, g), 1)
    return rem
