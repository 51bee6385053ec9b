"""Polynomial ring tests: arithmetic, exact division, gcd, rendering."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from ravkit import polynomial
from ravkit.errors import DomainError
from ravkit.polynomial import Polynomial, divide_exact, polynomial_gcd, try_divide_exact
from ravkit.ratfun import RationalFunction


def var(name: str) -> Polynomial:
    return Polynomial.variable(name)


H, P, L = var("h"), var("p"), var("l")


def random_poly(rng: random.Random, nvars: int = 2, terms: int = 4, degree: int = 3) -> Polynomial:
    names = ["x", "y", "z"][:nvars]
    poly = Polynomial()
    for _ in range(terms):
        term = Polynomial.constant(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for name in names:
            term = term * var(name) ** rng.randrange(degree + 1)
        poly = poly + term
    return poly


class TestArithmetic:
    def test_addition_and_cancellation(self):
        assert (H + P) - H == P
        assert H - H == Polynomial()
        assert (H + P) + (H - P) == 2 * H

    def test_multiplication(self):
        square = (H + P) * (H + P)
        assert square == H**2 + 2 * H * P + P**2
        assert (H + 1) * (H - 1) == H**2 - 1

    def test_power(self):
        assert (H + P) ** 0 == Polynomial.constant(1)
        assert (H + P) ** 4 == (H + P) * (H + P) * (H + P) * (H + P)
        with pytest.raises(DomainError):
            H ** -1

    def test_scalar_mixing(self):
        assert 2 * H + H == 3 * H
        assert (H + P) * 0 == 0 * (H + P) == Polynomial()
        assert ((H + P) * 0).is_zero
        assert (H + Fraction(1, 2)) * 2 == 2 * H + 1

    def test_evaluate(self):
        poly = 3 * H**2 * P - Fraction(1, 2) * P + 7
        assert poly.evaluate({"h": 2, "p": Fraction(1, 3)}) == Fraction(
            3 * 4, 3) - Fraction(1, 6) + 7

    def test_zero_coefficients_never_stored(self):
        poly = H + P - H - P
        assert poly.terms == {}
        assert poly.is_zero


class TestRendering:
    def test_graded_lex_descending(self):
        poly = 1 + H + P + P**2 + H * P + 100 * H**2
        assert poly.render() == "100*h^2 + h*p + p^2 + h + p + 1"

    def test_signs_and_coefficients(self):
        poly = -3 * H**2 + Fraction(1, 2) * P - 1
        assert poly.render() == "-3*h^2 + 1/2*p - 1"

    def test_zero(self):
        assert Polynomial().render() == "0"


class TestExactDivision:
    def test_divides(self):
        product = (H + P) ** 3 * (H - 2 * P)
        assert divide_exact(product, (H + P) ** 3) == H - 2 * P

    def test_inexact_raises(self):
        with pytest.raises(DomainError):
            divide_exact(H**2 + 1, H + 1)
        assert try_divide_exact(H**2 + 1, H + 1) is None

    def test_by_constant(self):
        assert divide_exact(2 * H + 4, Polynomial.constant(2)) == H + 2

    def test_by_zero_raises(self):
        with pytest.raises(DomainError):
            divide_exact(H, Polynomial())


class TestGcd:
    def test_identical(self):
        assert polynomial_gcd(H + P, H + P) == H + P

    def test_powers_of_common_factor(self):
        assert polynomial_gcd((H + P) ** 2, (H + P) ** 4) == (H + P) ** 2

    def test_coprime(self):
        assert polynomial_gcd(H + 1, H + 2) == Polynomial.constant(1)
        assert polynomial_gcd(H, P) == Polynomial.constant(1)

    def test_content_is_integer_gcd(self):
        assert polynomial_gcd(Polynomial.constant(6), Polynomial.constant(4)) == Polynomial.constant(2)
        assert polynomial_gcd(6 * H, 4 * P) == Polynomial.constant(2)

    def test_monomial_factor(self):
        assert polynomial_gcd(H**2 * P, H * P**2) == H * P

    def test_multivariate(self):
        common = H + 2 * P + L
        f = common * (H - P)
        g = common * (P + 3 * L)
        assert polynomial_gcd(f, g) == common

    def test_primitive_positive_normalization(self):
        got = polynomial_gcd(-2 * H - 2 * P, 4 * H + 4 * P)
        assert got == 2 * (H + P)

    def test_zero_operands(self):
        assert polynomial_gcd(Polynomial(), H + P) == H + P
        assert polynomial_gcd(H + P, Polynomial()) == H + P

    def test_random_products_share_their_factor(self):
        rng = random.Random(42)
        for _ in range(40):
            common = random_poly(rng, nvars=2, terms=2, degree=2)
            if common.is_zero or common.is_constant:
                continue
            f = common * random_poly(rng, nvars=2, terms=2, degree=1)
            g = common * random_poly(rng, nvars=2, terms=2, degree=1)
            if f.is_zero or g.is_zero:
                continue
            gcd = polynomial_gcd(f, g)
            assert try_divide_exact(gcd, polynomial_gcd(gcd, common)) is not None
            assert try_divide_exact(f, gcd) is not None
            assert try_divide_exact(g, gcd) is not None

    def test_gcd_divides_both_on_random_pairs(self):
        rng = random.Random(43)
        for _ in range(40):
            f = random_poly(rng, nvars=3, terms=3, degree=2)
            g = random_poly(rng, nvars=3, terms=3, degree=2)
            if f.is_zero or g.is_zero:
                continue
            gcd = polynomial_gcd(f, g)
            assert try_divide_exact(f, gcd) is not None
            assert try_divide_exact(g, gcd) is not None


    def test_a_zero_image_moves_to_the_next_point(self):
        # The first evaluation point is 2 * 1 + 29 = 31, where y - 31 vanishes.
        x, y = var("x"), var("y")
        assert polynomial_gcd(y - 31, y + 1) == 1
        assert polynomial_gcd((y - 31) * (x + 1), (y + 1) * (x + 1)) == x + 1


class TestSubresultantFallback:
    """The remainder sequence behind the heuristic gcd gives the same gcds
    when it runs alone."""

    @staticmethod
    def cases() -> list[tuple[Polynomial, Polynomial]]:
        x, y, z = var("x"), var("y"), var("z")
        out = [
            # Degree gaps of 3 and 0 in x, besides the usual 1.
            ((x**5 + y * x + 1) * (x + y), (x**2 * y + z) * (x + y)),
            ((x**2 + y) * (x * z + 1), (x**2 - y) * (x * z + 1)),
            (6 * x * y, 4 * y * z),
        ]
        rng = random.Random(44)
        for _ in range(30):
            common = random_poly(rng, nvars=3, terms=2, degree=2)
            f = common * random_poly(rng, nvars=3, terms=3, degree=2)
            g = common * random_poly(rng, nvars=3, terms=3, degree=2)
            if not (f.is_zero or g.is_zero):
                out.append((f, g))
        return out

    def test_without_the_heuristic(self, monkeypatch):
        cases = self.cases()
        expected = [polynomial_gcd(f, g) for f, g in cases]
        monkeypatch.setattr(polynomial, "_heuristic_gcd", lambda f, g: None)
        assert [polynomial_gcd(f, g) for f, g in cases] == expected

    def test_past_the_bit_limit_of_the_heuristic(self, monkeypatch):
        cases = self.cases()
        expected = [polynomial_gcd(f, g) for f, g in cases]
        monkeypatch.setattr(polynomial, "_HEURISTIC_BITS", 4)
        assert [polynomial_gcd(f, g) for f, g in cases] == expected


class TestCanonicalMonomials:
    """The constructor brings every monomial to the stored form: sorted by
    variable, repeated variables merged, zero exponents dropped."""

    X, Y = var("x"), var("y")

    def test_unsorted_monomial_equals_the_sorted_one(self):
        poly = Polynomial({(("y", 1), ("x", 1)): 1})
        assert poly == self.X * self.Y
        assert (poly - self.X * self.Y).is_zero
        assert poly.render() == "x*y"
        assert list(poly.terms) == [(("x", 1), ("y", 1))]

    def test_zero_exponent_dropped(self):
        poly = Polynomial({(("x", 0),): 3})
        assert poly == 3 and poly.is_constant
        assert poly.render() == "3"
        assert Polynomial({(("x", 0), ("y", 2)): 1}) == self.Y**2

    def test_repeated_variable_merged(self):
        assert Polynomial({(("x", 1), ("x", 1)): 1}) == self.X**2
        assert Polynomial({(("y", 1), ("x", 2), ("y", 2)): 5}) == 5 * self.X**2 * self.Y**3

    def test_monomials_that_become_equal_add_up(self):
        xy = self.X * self.Y
        assert Polynomial({(("x", 1), ("y", 1)): 1, (("y", 1), ("x", 1)): 2}) == 3 * xy
        assert Polynomial({(("x", 1), ("y", 1)): 1, (("y", 1), ("x", 1)): -1}).is_zero
        assert Polynomial({(): 1, (("x", 0),): Fraction(1, 2)}) == Fraction(3, 2)

    @pytest.mark.parametrize("exponent", [-1, 1.0, 2.5, "1", True, Fraction(1), None])
    def test_negative_or_non_int_exponent_refused(self, exponent):
        with pytest.raises(DomainError, match="exponent of 'x' must be a non-negative int"):
            Polynomial({(("x", exponent),): 1})

    @pytest.mark.parametrize("name", ["", "a b", "x*y", "x^2", "-x", "(x)", "a/b", 3, None])
    def test_name_variable_would_reject_refused(self, name):
        with pytest.raises(DomainError, match="invalid variable name"):
            Polynomial.variable(name)
        with pytest.raises(DomainError, match="invalid variable name"):
            Polynomial({((name, 1),): 1})

    @pytest.mark.parametrize("mono", [(("x",),), (("x", 1, 2),), ("x",), 5])
    def test_malformed_monomial_refused(self, mono):
        with pytest.raises(DomainError):
            Polynomial({mono: 1})

    def test_equal_monomials_are_one_object(self):
        given = Polynomial({(("y", 1), ("x", 1)): 1})
        product = self.X * self.Y
        (a,), (b,) = given.terms, product.terms
        assert a is b
        quotient = divide_exact(product * self.X, self.X)
        assert next(iter(quotient.terms)) is a


class TestHashAgreesWithEquality:
    X = var("x")

    def values(self):
        x = self.X
        return [
            0, 1, 5, -3, Fraction(5), Fraction(1, 2), Fraction(-3),
            Polynomial(), Polynomial.constant(5), Polynomial.constant(Fraction(10, 2)),
            Polynomial.constant(Fraction(1, 2)), Polynomial({(("x", 0),): 5}),
            Polynomial.constant(-3), x, x + 1, 2 * x, Polynomial({(("x", 1),): Fraction(4, 2)}),
            RationalFunction.constant(0), RationalFunction.constant(5),
            RationalFunction.constant(Fraction(1, 2)), RationalFunction(x),
            RationalFunction(2 * x + 2, 2), RationalFunction(x * x, x), RationalFunction(x, x + 1),
            RationalFunction(2 * x, 2 * x + 2),
            RationalFunction(x, 2), Polynomial({(("x", 1),): Fraction(1, 2)}),
            RationalFunction(3 * x + 1, 6), (3 * x + 1) * Fraction(1, 6),
        ]

    def test_hash_agrees_wherever_equality_holds(self):
        values = self.values()
        equal_pairs = 0
        for a in values:
            for b in values:
                if a == b:
                    equal_pairs += 1
                    assert hash(a) == hash(b), (a, b)
        # Every value with itself, plus the cross-type equalities.
        assert equal_pairs > len(values) + 30

    def test_constant_polynomial_finds_the_equal_number_in_a_dict(self):
        assert {Polynomial.constant(5): 1}.get(5) == 1
        assert {5: 1}.get(Polynomial.constant(5)) == 1
        assert {Fraction(1, 2): 1}.get(Polynomial.constant(Fraction(1, 2))) == 1
        assert {RationalFunction(self.X): 1}.get(self.X) == 1
        assert {RationalFunction.constant(7): 1}.get(7) == 1


@pytest.fixture
def cold_memos():
    polynomial._clear_memos()
    yield
    polynomial._clear_memos()


def naive_product(f: Polynomial, g: Polynomial) -> dict:
    """f*g as {monomial: Fraction}, without the product memo."""
    out: dict = {}
    for m1, c1 in f.sorted_terms():
        for m2, c2 in g.sorted_terms():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            mono = tuple(sorted(exps.items()))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def graded_lex(mono) -> tuple:
    return (-sum(e for _, e in mono), [(v, -e) for v, e in mono])


class TestMemosPastTheirCap:
    """Filling the monomial memos past ``_MEMO_CAP`` clears them; results,
    renders and sorted terms come out the same as with cold memos."""

    def small_cases(self):
        rng = random.Random(77)
        return [(random_poly(rng, 3, 5, 3), random_poly(rng, 3, 4, 2)) for _ in range(10)]

    def observe(self, cases):
        out = []
        for f, g in cases:
            product = f * g
            out.append((product.render(), product.sorted_terms(), product.leading_term()
                        if not product.is_zero else None,
                        try_divide_exact(product, g) if not g.is_zero else None,
                        polynomial_gcd(f, g).render()))
        return out

    def test_results_unchanged_after_the_memos_overflow(self, cold_memos):
        cap = polynomial._MEMO_CAP
        cold = self.observe(self.small_cases())
        # side**2 distinct pairs and as many distinct products: more than
        # the cap, so the memos are cleared while one product is formed.
        side = math.isqrt(cap) + 10
        f = sum((var("x") ** i * (i + 1) for i in range(side)), Polynomial())
        g = sum((var("y") ** j * (j + 2) for j in range(side)), Polynomial())
        big = f * g
        assert polynomial._products_stored < side * side
        assert {m: c for m, c in big.sorted_terms()} == naive_product(f, g)
        ordered = big.sorted_terms()
        assert [m for m, _ in ordered] == sorted(big.terms, key=graded_lex)
        assert big.render().startswith(f"{side * (side + 1)}*x^{side - 1}*y^{side - 1} + ")
        assert divide_exact(big, g) == f
        assert polynomial._products_stored <= cap
        assert sum(len(row) for row in polynomial._PRODUCTS.values()) == polynomial._products_stored
        assert len(polynomial._MONOS) <= cap and len(polynomial._SORT_KEYS) <= cap
        assert len(polynomial._RENDERED) <= cap
        # Pairs past the cap over few distinct monomials: the product memo
        # alone overflows.
        f = sum((var("x") ** i for i in range(side)), Polynomial())
        square = f * f
        assert polynomial._products_stored <= cap and len(polynomial._MONOS) < cap
        assert square == Polynomial(
            {(("x", k),): min(k, 2 * side - 2 - k) + 1 for k in range(2 * side - 1)}
        )
        # Warm from the big products, then cleared again: same answers.
        assert self.observe(self.small_cases()) == cold
        polynomial._clear_memos()
        assert self.observe(self.small_cases()) == cold


def test_repeated_product_is_read_from_the_memo(cold_memos):
    rng = random.Random(78)
    f, g = random_poly(rng, 3, 6, 3), random_poly(rng, 3, 5, 3)
    before = polynomial._products_stored
    first = f * g
    stored = polynomial._products_stored
    assert before < stored <= before + len(f.terms) * len(g.terms)
    assert f * g == first and g * f == first
    assert polynomial._products_stored == stored
    assert divide_exact(first, g) == f
    stored = polynomial._products_stored
    assert divide_exact(first, g) == f
    assert polynomial._products_stored == stored


def test_rendered_monomials_are_memoized(cold_memos):
    poly = var("h") ** 2 * var("p") * 3 - var("z") + 1
    text = poly.render()
    assert text == "3*h^2*p - z + 1"
    assert polynomial._RENDERED == {(("h", 2), ("p", 1)): "h^2*p", (("z", 1),): "z", (): ""}
    assert poly.render() == text and len(polynomial._RENDERED) == 3


def test_cached_variables_match_a_fresh_scan(fixtures, monkeypatch):
    # Every polynomial the symbolic pipeline builds for the units fixture,
    # scored and evaluated as `ravkit symbolic --eval` does: the cached set
    # is the set a scan of the monomials gives, and a pickle carries no
    # cache, so the loaded copy scans again and agrees.
    import pickle

    from ravkit.ingest import parse_scope_document
    from ravkit.symbolic import symbolic_rav

    built: list[Polynomial] = []
    init, wrap = Polynomial.__init__, Polynomial._from_numerators.__func__

    def record_init(self, *args):
        init(self, *args)
        built.append(self)

    def record_wrap(cls, *args):
        built.append(wrap(cls, *args))
        return built[-1]

    monkeypatch.setattr(Polynomial, "__init__", record_init)
    monkeypatch.setattr(Polynomial, "_from_numerators", classmethod(record_wrap))
    document = parse_scope_document((fixtures / "units_symbolic.json").read_bytes())
    for entry in document.entries:
        score = symbolic_rav(entry.scope, entry.units)
        score.evaluate({name: Fraction(3, 2) for name in score.variables()})
    monkeypatch.undo()

    assert len(built) > 1000 and any(poly._vars is not None for poly in built)
    for poly in built:
        scanned = frozenset(v for mono in poly.terms for v, _ in mono)
        assert poly.variables() == scanned and poly.variables() is poly.variables()
        loaded = pickle.loads(pickle.dumps(poly))
        assert loaded._vars is None
        assert loaded.variables() == scanned
