"""Multivariate polynomials over the rationals with exact gcd.

Just enough of a polynomial ring for reduced rational functions: arithmetic,
evaluation, exact division, and a gcd (a heuristic by evaluation and
interpolation, with a subresultant remainder sequence behind it).  A
polynomial is stored as integer numerators over one common denominator:
``terms`` maps monomials to nonzero ints and ``den`` is a positive int
coprime to their content, so coefficient ``m`` is ``terms[m] / den`` and
the pair is unique.  All arithmetic runs on ints; ``Fraction`` appears only
at the public boundary (the constructor, ``constant_value``,
``leading_term``, ``sorted_terms`` and ``evaluate``).  A monomial is a tuple
of ``(variable, exponent)`` pairs sorted by variable name with all
exponents positive; the constructor brings any monomial it is given to
that form.  Rendering and leading-term selection use graded-lex order with
alphabetical variables.

The monomial algebra is done once per distinct monomial or pair:

- every monomial a polynomial stores is interned, so equal monomials are
  one object and dict lookups compare them by identity;
- ``_PRODUCTS`` maps a monomial ``a`` to ``{b: a*b}``; multiplication and
  exact division read it inline and call ``_mono_mul`` only on a miss;
- ``_SORT_KEYS`` holds the graded-lex sort key of each monomial, used by
  ``render``, ``sorted_terms``, the leading term and the division heap;
- ``_RENDERED`` holds the text ``render`` writes for each monomial.

The intern table and the three memos are cleared together, all at once, when
any of them reaches ``_MEMO_CAP`` (16384) entries; clearing only costs
recomputation.  At the cap they hold about 12 MB when every product is a
new three-variable monomial.  A 100-scope file with 5-8 unit variables
stores about 7.8k products of 1.2k monomials, half the cap, and about
1 MB.  Every entry is a function of its key alone, so threads racing on
the memos can lose entries but never store a wrong one.
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

# ---------------------------------------------------------------------------
# Monomials: interned, with memoized products and sort keys
# ---------------------------------------------------------------------------

_MEMO_CAP = 1 << 14

_MONOS: dict[Mono, Mono] = {}
_PRODUCTS: dict[Mono, dict[Mono, Mono]] = {}
_NO_ROW: dict[Mono, Mono] = {}  # stands in for a missing row; never written
_products_stored = 0


class _Memo(dict):
    """Monomial -> ``fn(monomial)``, computed on first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, mono: Mono):
        if len(self) >= _MEMO_CAP:
            _clear_memos()
        value = self[mono] = self.fn(mono)
        return value


# Ascending sort under the key is descending graded-lex: higher total degree
# first, then alphabetical variables with higher exponents first.
_SORT_KEYS = _Memo(lambda mono: (-sum(e for _, e in mono), tuple((v, -e) for v, e in mono)))
_mono_sort_key = _SORT_KEYS.__getitem__
# The text ``render`` writes for a monomial, such as ``h^2*p``.
_RENDERED = _Memo(lambda mono: "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono))
_mono_render = _RENDERED.__getitem__


def _clear_memos() -> None:
    global _products_stored
    _MONOS.clear()
    _PRODUCTS.clear()
    _SORT_KEYS.clear()
    _RENDERED.clear()
    _products_stored = 0


def _intern(mono: Mono) -> Mono:
    """The one stored copy of a canonical monomial."""
    got = _MONOS.get(mono)
    if got is None:
        if len(_MONOS) >= _MEMO_CAP:
            _clear_memos()
        got = _MONOS[mono] = mono
    return got


def _mono_mul(a: Mono, b: Mono) -> Mono:
    """a*b through the product memo, computed and stored on a miss."""
    global _products_stored
    product = _PRODUCTS.get(a, _NO_ROW).get(b)
    if product is not None:
        return product
    if not a:
        product = b
    elif not b:
        product = a
    else:
        exps: dict[str, int] = dict(a)
        for var, e in b:
            exps[var] = exps.get(var, 0) + e
        product = tuple(sorted(exps.items()))
    if _products_stored >= _MEMO_CAP:
        _clear_memos()
    product = _intern(product)
    row = _PRODUCTS.get(a)  # after _intern, which may have cleared the memos
    if row is None:
        row = _PRODUCTS[a] = {}
    row[b] = product
    _products_stored += 1
    return product


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
    return _intern(tuple(sorted(out.items())))


def _check_name(name: object) -> None:
    if not isinstance(name, str) or not name or any(ch in name for ch in " \t\n*^+-/()"):
        raise DomainError(f"invalid variable name {name!r}")


def _canonical_mono(mono: object) -> Mono:
    """A caller's monomial sorted by variable, with repeated variables
    merged and zero exponents dropped, interned."""
    if _MONOS.get(mono) is mono:  # an interned monomial is canonical
        return mono
    exps: dict[str, int] = {}
    try:
        for var, e in mono:
            _check_name(var)
            if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                raise DomainError(f"exponent of {var!r} must be a non-negative int, got {e!r}")
            exps[var] = exps.get(var, 0) + int(e)
    except (TypeError, ValueError):
        raise DomainError(f"monomial {mono!r} is not (variable, exponent) pairs") from None
    return _intern(tuple(sorted((v, e) for v, e in exps.items() if e)))


class Polynomial:
    """Immutable sparse polynomial: int numerators over one positive int."""

    __slots__ = ("terms", "den", "_hash", "_vars")

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None):
        coeffs: dict[Mono, Fraction] = {}
        for mono, c in (terms or {}).items():
            mono = _canonical_mono(mono)
            coeffs[mono] = coeffs.get(mono, 0) + Fraction(c)
        coeffs = {m: c for m, c in coeffs.items() if c}
        # The lcm of reduced denominators is coprime to the numerators' content.
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.terms = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}
        self.den = den
        self._hash = None
        self._vars = None

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
        out._vars = None
        return out

    def __reduce__(self):
        # Rebuilt by the constructor, which interns the monomials again and
        # leaves out the cached hash (string hashes differ between processes)
        # and the cached variable set.
        return Polynomial, ({m: Fraction(c, self.den) for m, c in self.terms.items()},)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        if type(value) is int:
            return cls._from_numerators({_EMPTY_MONO: value} if value else {})
        return cls({_EMPTY_MONO: value})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        _check_name(name)
        return cls._from_numerators({_intern(((name, 1),)): 1})

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
        if self._vars is None:
            self._vars = frozenset(v for mono in self.terms for v, _ in mono)
        return self._vars

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
            row = _PRODUCTS.get(m1, _NO_ROW)
            for m2, c2 in b.items():
                mono = row.get(m2)
                if mono is None:
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
        # A constant hashes as its value, like the equal int or Fraction;
        # otherwise the hash of the {monomial: Fraction coefficient} items.
        if self._hash is None:
            if self.is_constant:
                self._hash = hash(self.constant_value())
            else:
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
        terms, den = self.terms, self.den
        return render_sum(
            (terms[m] if den == 1 else Fraction(terms[m], den), _mono_render(m))
            for m in sorted(terms, key=_mono_sort_key)
        )

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def render_sum(terms: Iterable[tuple[Scalar, str]]) -> str:
    """Join ``(nonzero coefficient, product text)`` terms by the rendering
    grammar of docs/formats.md.

    The first term carries its own sign and the rest join with `` + `` or
    `` - ``; a magnitude of 1 is left out before a product (``""`` for a
    constant term), and an empty sum renders as ``0``.
    """
    parts: list[str] = []
    for coeff, body in terms:
        mag = abs(coeff)
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
        if parts:
            parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
        else:
            parts.append(text if coeff > 0 else f"-{text}")
    return " ".join(parts) or "0"


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
        row = _PRODUCTS.get(q_mono, _NO_ROW)
        for m, c in rest:
            key = row.get(m)
            if key is None:
                key = _mono_mul(q_mono, m)
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
        out.setdefault(deg, {})[_intern(tuple(rest))] = c
    return {deg: Polynomial._from_numerators(terms) for deg, terms in out.items()}


# Evaluation points for the heuristic gcd stop at this many bits; the
# remainder sequence takes over past it.
_HEURISTIC_BITS = 1 << 14


def _igcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Gcd of nonzero integer polynomials, content included, positive
    leading coefficient: the heuristic gcd, or the subresultant remainder
    sequence when that finds none."""
    if not f.variables() & g.variables():
        return Polynomial.constant(math.gcd(_content(f), _content(g)))
    gcd = _heuristic_gcd(f, g)
    return gcd if gcd is not None else _subresultant_gcd(f, g)


def _heuristic_gcd(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Gcd by evaluation and interpolation (Char, Geddes and Gonnet's
    GCDHEU), or None when it finds none.

    The last shared variable is set to an integer ``xi`` above twice the
    smaller coefficient norm, the gcd of the two images is taken by
    ``_igcd`` in the remaining variables, and its coefficients are read back
    as balanced base-``xi`` digits.  With ``xi`` that large, a primitive
    result that divides both f and g is their gcd up to the integer content.
    Six points are tried, each larger than the last.
    """
    var = max(f.variables() & g.variables())
    content = math.gcd(_content(f), _content(g))
    norm = min(max(map(abs, f.terms.values())), max(map(abs, g.terms.values())))
    xi = 2 * norm + 29
    for _ in range(6):
        if xi.bit_length() > _HEURISTIC_BITS:
            break
        f_image, g_image = _substitute(f, var, xi), _substitute(g, var, xi)
        if not (f_image.is_zero or g_image.is_zero):
            image = _igcd(f_image, g_image)
            gcd = integer_primitive(_interpolate(image, var, xi))[0]
            if try_divide_exact(f, gcd) is not None and try_divide_exact(g, gcd) is not None:
                return gcd * content
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _substitute(poly: Polynomial, var: str, value: int) -> Polynomial:
    """poly with the integer value put in for var."""
    out: dict[Mono, int] = {}
    for mono, c in poly.terms.items():
        rest = []
        for v, e in mono:
            if v == var:
                c *= value**e
            else:
                rest.append((v, e))
        key = _intern(tuple(rest))
        out[key] = out.get(key, 0) + c
    return Polynomial._from_numerators({m: c for m, c in out.items() if c})


def _interpolate(image: Polynomial, var: str, xi: int) -> Polynomial:
    """The polynomial whose coefficients in var are the balanced base-xi
    digits of image's.  Every variable of image sorts before var, so var's
    power goes last in each monomial."""
    out: dict[Mono, int] = {}
    half = xi // 2
    for mono, c in image.terms.items():
        e = 0
        while c:
            digit = c % xi
            if digit > half:
                digit -= xi
            if digit:
                out[_intern(mono + ((var, e),) if e else mono)] = digit
            c = (c - digit) // xi
            e += 1
    return Polynomial._from_numerators(out)


def _subresultant_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """_igcd by a subresultant remainder sequence in the first shared
    variable, with contents handled recursively in the other variables.

    Each pseudo-remainder is divided by ``lc * h**delta`` (Collins and
    Brown's scheme), which keeps its coefficients at the size of a
    subresultant determinant without a content gcd per step; only the last
    nonzero remainder is made primitive.
    """
    var = min(f.variables() & g.variables())
    cont_f, a = _content_and_primitive(f, var)
    cont_g, b = _content_and_primitive(g, var)
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    lc = h = Polynomial.constant(1)
    while b.degree_in(var):
        delta = a.degree_in(var) - b.degree_in(var)
        r = _prem(a, b, var)
        if r.is_zero:
            b = _content_and_primitive(b, var)[1]
            break
        a, b = b, divide_exact(r, lc * h**delta)
        lc = _coefficients_in(a, var)[a.degree_in(var)]
        if delta == 1:
            h = lc
        elif delta:
            h = divide_exact(lc**delta, h ** (delta - 1))
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
    """Pseudo-remainder of f by g in var: the remainder of
    ``lc(g)**(deg f - deg g + 1) * f``, the multiple the subresultant
    divisions assume."""
    deg_g = g.degree_in(var)
    lc_g = _coefficients_in(g, var)[deg_g]
    rem = f
    steps = f.degree_in(var) - deg_g + 1
    while not rem.is_zero:
        deg_r = rem.degree_in(var)
        if deg_r < deg_g:
            break
        lc_r = _coefficients_in(rem, var)[deg_r]
        shift = Polynomial._from_numerators(
            {_intern(((var, deg_r - deg_g),)) if deg_r > deg_g else _EMPTY_MONO: 1}
        )
        rem = rem * lc_g - lc_r * shift * g
        steps -= 1
    return rem * lc_g**steps if steps else rem
