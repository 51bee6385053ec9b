"""Differential tests of the polynomial layer against sympy.

Seeded random sparse polynomials in 2-4 variables with small rational
coefficients go through ravkit's gcd, reduction, exact division and
evaluation, and sympy computes the same thing independently.  A second set
has the shape of the ``symbolic-units`` benchmark input: 5-8 variables,
each term a product of at most three of them.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from ravkit.polynomial import Polynomial, divide_exact, polynomial_gcd, try_divide_exact
from ravkit.ratfun import RationalFunction

sympy = pytest.importorskip("sympy")

NAMES = ("w", "x", "y", "z")
UNIT_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES + UNIT_NAMES}
# Alphabetical, so sympy's grlex order is ravkit's graded-lex order.
GENS = [SYMBOLS[name] for name in sorted(SYMBOLS)]


def random_poly(rng: random.Random, nvars: int, terms: int, degree: int) -> Polynomial:
    names = NAMES[:nvars]
    coeffs: dict[tuple, Fraction] = {}
    for _ in range(terms):
        exps = {name: rng.randrange(degree + 1) for name in names}
        mono = tuple((name, e) for name, e in sorted(exps.items()) if e)
        coeffs[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(coeffs)


def random_nonzero(rng: random.Random, nvars: int, terms: int, degree: int) -> Polynomial:
    while True:
        poly = random_poly(rng, nvars, terms, degree)
        if not poly.is_zero:
            return poly


def to_sympy(poly: Polynomial):
    total = sympy.Integer(0)
    for mono, coeff in poly.sorted_terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for name, e in mono:
            term *= SYMBOLS[name] ** e
        total += term
    return total


def from_sympy(expr) -> Polynomial:
    expr = sympy.expand(expr)
    if expr == 0:
        return Polynomial()
    coeffs = {}
    for exps, coeff in sympy.Poly(expr, *GENS).terms():
        mono = tuple((str(gen), e) for gen, e in zip(GENS, exps) if e)
        coeffs[mono] = Fraction(int(coeff.p), int(coeff.q))
    return Polynomial(coeffs)


def cleared(poly: Polynomial):
    """The integer polynomial lcm(denominators) * poly, as sympy sees it."""
    lcm = reduce(lambda a, b: a * b // gcd(a, b), (c.denominator for _, c in poly.sorted_terms()), 1)
    return sympy.expand(to_sympy(poly) * lcm)


def pairs(seed: int, count: int):
    """Random (f, g) pairs, half of them sharing a random common factor."""
    rng = random.Random(seed)
    for i in range(count):
        nvars = 2 + i % 3
        f = random_nonzero(rng, nvars, rng.randint(1, 4), 2)
        g = random_nonzero(rng, nvars, rng.randint(1, 4), 2)
        if i % 2:
            common = random_nonzero(rng, nvars, rng.randint(1, 3), 2)
            f, g = f * common, g * common
        yield f, g


class TestGcdAgainstSympy:
    def test_gcd_equals_sympy_up_to_sign(self):
        for f, g in pairs(5101, 60):
            got = polynomial_gcd(f, g)
            expected = from_sympy(sympy.gcd(cleared(f), cleared(g)))
            assert got in (expected, -expected)
            assert got.leading_term()[1] > 0
            assert all(c.denominator == 1 for _, c in got.sorted_terms())

    def test_gcd_of_a_three_variable_sum(self):
        # The unreduced sum of (4w^2 + 4x) / (14w^2x - 5w^2 + 8w) and
        # (24wxy + 28xy + 72x) / (36xy^2 + 12w^2 + 24y + 21): coprime, but a
        # primitive remainder sequence in w took seconds on it.
        w, x, y = (Polynomial.variable(n) for n in "wxy")
        a_num, a_den = 4 * w**2 + 4 * x, 14 * w**2 * x - 5 * w**2 + 8 * w
        b_num, b_den = 24 * w * x * y + 28 * x * y + 72 * x, 36 * x * y**2 + 12 * w**2 + 24 * y + 21
        num, den = a_num * b_den + b_num * a_den, a_den * b_den
        assert polynomial_gcd(num, den) == Polynomial.constant(1)
        common = x * y + 3 * w - 1
        assert polynomial_gcd(num * common, den * common) == common
        assert sympy.gcd(to_sympy(num), to_sympy(den)) == 1

    def test_gcd_of_integer_multiples_keeps_the_content(self):
        for f, g in pairs(5102, 20):
            f6, g4 = polynomial_gcd(f, f) * 6, polynomial_gcd(g, g) * 4
            got = polynomial_gcd(f6, g4)
            expected = from_sympy(sympy.gcd(to_sympy(f6), to_sympy(g4)))
            assert got in (expected, -expected)


class TestCancelAgainstSympy:
    def test_reduced_form_is_canonical_and_equals_cancel(self):
        for f, g in pairs(5103, 60):
            rf = RationalFunction(f, g)
            assert polynomial_gcd(rf.num, rf.den) == Polynomial.constant(1)
            coeffs = [c for _, c in rf.num.sorted_terms() + rf.den.sorted_terms()]
            assert all(c.denominator == 1 for c in coeffs)
            assert reduce(gcd, (c.numerator for c in coeffs), 0) == 1
            assert rf.den.leading_term()[1] > 0
            p, q = sympy.fraction(sympy.cancel(to_sympy(f) / to_sympy(g)))
            assert sympy.expand(to_sympy(rf.num) * q - p * to_sympy(rf.den)) == 0

    def test_arithmetic_results_are_canonical_and_equal_cancel(self):
        rng = random.Random(5108)
        operands = [RationalFunction(f, g) for f, g in pairs(5109, 40)]
        for a, b in zip(operands[::2], operands[1::2]):
            if rng.random() < 0.3:
                b = RationalFunction(b.num, a.den)  # the shared-denominator sum
            sa, sb = to_sympy(a.num) / to_sympy(a.den), to_sympy(b.num) / to_sympy(b.den)
            k = rng.choice([-2, -1, 0, 1, 2, 3])
            cases = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb), (-a, -sa),
                     (a / b, sa / sb), (a**k, sa**k)]
            for got, expected in cases:
                assert got == RationalFunction(got.num, got.den)
                p, q = sympy.fraction(sympy.cancel(expected))
                assert sympy.expand(to_sympy(got.num) * q - p * to_sympy(got.den)) == 0


    def test_three_variable_arithmetic_stays_within_a_time_budget(self):
        # Every sum and product hands polynomial_gcd the whole unreduced
        # pair, and undoing one cancels a large common factor.  These 30
        # pairs take about 0.1 s; the budget catches a gcd whose
        # coefficients grow out of hand, which takes seconds per pair.
        rng = random.Random(5110)
        operands = [
            RationalFunction(random_poly(rng, 3, 4, 2), random_nonzero(rng, 3, 4, 2))
            for _ in range(60)
        ]
        start = time.process_time()
        results = [(a + b, a * b) for a, b in zip(operands[::2], operands[1::2])]
        assert time.process_time() - start < 10
        for (a, b), (total, product) in zip(zip(operands[::2], operands[1::2]), results):
            assert total - b == a
            if not b.is_zero:
                assert product / b == a


class TestDivisionAgainstSympy:
    def test_exact_quotient_recovered(self):
        for f, g in pairs(5104, 60):
            assert divide_exact(f * g, g) == f
            assert try_divide_exact(f * g, g) == f
            for c in (-3, Fraction(-2, 5), Fraction(7, 2)):
                assert divide_exact(f * c, Polynomial.constant(c)) == f

    def test_inexact_division_is_none(self):
        inexact = 0
        for f, g in pairs(5105, 60):
            # Adding a constant leaves a remainder term that no leading
            # monomial divides; adding the leading monomial of f*g does not.
            lead = Polynomial({(f * g).leading_term()[0]: 1})
            for num in (f * g + 1, f * g + lead):
                _, remainder = sympy.div(to_sympy(num), to_sympy(g), *SYMBOLS.values())
                if remainder != 0:
                    inexact += 1
                    assert try_divide_exact(num, g) is None
                else:
                    assert divide_exact(num, g) * g == num
        assert inexact > 80


class TestEvaluationAgainstSympy:
    def test_evaluate_equals_subs_exactly(self):
        rng = random.Random(5106)
        for f, _ in pairs(5107, 60):
            point = {
                name: Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for name in NAMES
            }
            expected = to_sympy(f).subs(
                {SYMBOLS[n]: sympy.Rational(v.numerator, v.denominator) for n, v in point.items()}
            )
            got = f.evaluate(point)
            assert got == Fraction(int(expected.p), int(expected.q))


class TestPublicTypes:
    """The coefficient types the public API hands out."""

    MONO = (("h", 1),)

    def test_boundary_values_are_fractions(self):
        poly = Polynomial({self.MONO: 3, (): Fraction(1, 2)})
        assert type(Polynomial.constant(2).constant_value()) is Fraction
        assert type(poly.leading_term()[1]) is Fraction
        assert type(poly.evaluate({"h": 2})) is Fraction
        assert type(Polynomial.constant(5).evaluate({})) is Fraction
        assert all(type(c) is Fraction for _, c in poly.sorted_terms())

    def test_int_and_fraction_coefficients_are_one_polynomial(self):
        a = Polynomial({self.MONO: 2})
        b = Polynomial({self.MONO: Fraction(2)})
        assert a == b and hash(a) == hash(b)
        assert Polynomial.constant(3) == 3 == Polynomial.constant(Fraction(6, 2))
        assert Polynomial.constant(Fraction(1, 2)) == Fraction(1, 2)


def unit_poly(rng: random.Random, nvars: int, terms: int) -> Polynomial:
    """Each term a product of up to three of the first ``nvars`` unit
    variables with exponents 1-2, its pairs handed over in random order."""
    coeffs: dict[tuple, Fraction] = {}
    for _ in range(terms):
        chosen = rng.sample(UNIT_NAMES[:nvars], rng.randint(0, 3))
        mono = [(name, rng.randint(1, 2)) for name in chosen]
        rng.shuffle(mono)
        coeffs[tuple(mono)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(coeffs)


def unit_nonzero(rng: random.Random, nvars: int, terms: int) -> Polynomial:
    while True:
        poly = unit_poly(rng, nvars, terms)
        if not poly.is_zero:
            return poly


def unit_pairs(seed: int, count: int):
    """Random (f, g) pairs in 5-8 variables, half sharing a common factor."""
    rng = random.Random(seed)
    for i in range(count):
        nvars = 5 + i % 4
        f = unit_nonzero(rng, nvars, rng.randint(1, 5))
        g = unit_nonzero(rng, nvars, rng.randint(1, 5))
        if i % 2:
            common = unit_nonzero(rng, nvars, rng.randint(1, 4))
            f, g = f * common, g * common
        yield f, g


class TestUnitShapedAgainstSympy:
    """The same checks on 5-8 variable polynomials, as ``symbolic-units``
    builds them."""

    def test_products_expand_like_sympy(self):
        for f, g in unit_pairs(5201, 60):
            assert f * g == from_sympy(to_sympy(f) * to_sympy(g))
            assert (f + g) * (f - g) == f * f - g * g

    def test_gcd_equals_sympy_up_to_sign(self):
        for f, g in unit_pairs(5202, 60):
            got = polynomial_gcd(f, g)
            expected = from_sympy(sympy.gcd(cleared(f), cleared(g)))
            assert got in (expected, -expected)
            assert got.leading_term()[1] > 0

    def test_exact_division_recovers_the_factor(self):
        for f, g in unit_pairs(5203, 60):
            assert divide_exact(f * g, g) == f
            assert divide_exact(f * g * g, g * g) == f
            num = f * g + 1
            _, remainder = sympy.div(to_sympy(num), to_sympy(g), *GENS)
            if remainder != 0:
                assert try_divide_exact(num, g) is None

    def test_sorted_terms_and_leading_term_follow_grlex(self):
        for f, g in unit_pairs(5204, 30):
            for poly in (f, g, f * g, f * f - g):
                if poly.is_zero:
                    continue
                terms = sympy.Poly(to_sympy(poly), *GENS).terms(order="grlex")
                expected = [
                    tuple((str(gen), e) for gen, e in zip(GENS, exps) if e) for exps, _ in terms
                ]
                got = [mono for mono, _ in poly.sorted_terms()]
                assert got == expected
                assert poly.leading_term()[0] == expected[0]

    def test_reduced_form_equals_cancel(self):
        for f, g in unit_pairs(5205, 40):
            rf = RationalFunction(f, g)
            assert polynomial_gcd(rf.num, rf.den) == Polynomial.constant(1)
            p, q = sympy.fraction(sympy.cancel(to_sympy(f) / to_sympy(g)))
            assert sympy.expand(to_sympy(rf.num) * q - p * to_sympy(rf.den)) == 0

    def test_evaluate_equals_subs_exactly(self):
        rng = random.Random(5206)
        for f, _ in unit_pairs(5207, 40):
            point = {name: Fraction(rng.randint(1, 30), rng.randint(1, 12)) for name in UNIT_NAMES}
            expected = to_sympy(f).subs(
                {SYMBOLS[n]: sympy.Rational(v.numerator, v.denominator) for n, v in point.items()}
            )
            assert f.evaluate(point) == Fraction(int(expected.p), int(expected.q))
