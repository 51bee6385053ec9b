"""Symbolic engine tests.

The reference expression for the single-host login example was transcribed
by hand from the published expanded closed form and is verified here both
against its unit-value total (704500/16) and structurally against the
pipeline-built score.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ravkit.errors import (
    DigitLimitError,
    DomainError,
    UnassignedVariableError,
    UndefinedWeightError,
)
from ravkit.metrics import (
    ControlClass,
    LimitationCounts,
    PorosityCounts,
    Scope,
    actual_security,
    toy_scope,
)
from ravkit.polynomial import Polynomial
from ravkit.ratfun import RationalFunction
from ravkit.symbolic import (
    EquivalenceResult,
    LogSquareAtom,
    SymbolicScore,
    _branch_max_zero,
    equivalent,
    symbolic_breakdown,
    symbolic_rav,
)

from conftest import random_scope
from test_metrics import TOY_ACTSEC

TOY_UNITS = {"visibility": "h", "access": "p", "authentication": "l"}
UNIT_POINT = {"h": 1, "p": 1, "l": 1}

H = Polynomial.variable("h")
P = Polynomial.variable("p")
L = Polynomial.variable("l")

# Hand transcription of the worked example's expanded limitation argument:
# (coefficient, h-exponent, l-exponent, p-exponent) over (h + p)**4.
REFERENCE_SECLIM_TERMS = [
    (19401, 4, 0, 0), (-3420, 3, 1, 0), (201, 2, 2, 0), (77604, 3, 0, 1),
    (-10260, 2, 1, 1), (402, 1, 2, 1), (116406, 2, 0, 2), (-10260, 1, 1, 2),
    (201, 0, 2, 2), (77604, 1, 0, 3), (-3420, 0, 1, 3), (19401, 0, 0, 4),
    (4600, 3, 0, 0), (-860, 2, 1, 0), (40, 1, 2, 0), (13800, 2, 0, 1),
    (-1720, 1, 1, 1), (40, 0, 2, 1), (13800, 1, 0, 2), (-860, 0, 1, 2),
    (4600, 0, 0, 3), (105800, 2, 0, 0), (-18400, 1, 1, 0), (800, 0, 2, 0),
    (211600, 1, 0, 1), (-18400, 0, 1, 1), (105800, 0, 0, 2),
]


def reference_seclim_argument() -> RationalFunction:
    num = Polynomial()
    for coeff, eh, el, ep in REFERENCE_SECLIM_TERMS:
        num = num + coeff * H**eh * L**el * P**ep
    return RationalFunction(num, (H + P) ** 4)


def reference_score() -> SymbolicScore:
    """The published final combination, entered atom by atom."""
    s = SymbolicScore.atom(reference_seclim_argument())
    a = SymbolicScore.atom(RationalFunction(100 * H + 100 * P + 1))
    f = SymbolicScore.atom(RationalFunction(10 * L + 1))
    c = Fraction(1, 100)
    return s * (a * c - f * c - 1) - (f + 100) * a * c + f + 100


def prose_variant_score() -> SymbolicScore:
    """The running-text combination with squared logs: the cross term of
    controls and limitations carries the opposite sign."""
    s = SymbolicScore.atom(reference_seclim_argument())
    a = SymbolicScore.atom(RationalFunction(100 * H + 100 * P + 1))
    f = SymbolicScore.atom(RationalFunction(10 * L + 1))
    c = Fraction(1, 100)
    return 100 + f - a - s - a * (f - s) * c + f * s * c


class TestRatfunArithmetic:
    def test_vulnerability_weight_composition(self):
        opsec = RationalFunction(H + P)
        mc_sum = RationalFunction(10 * H + 10 * P - L)
        weight = (opsec + mc_sum) / opsec
        assert weight == RationalFunction(11 * H - L + 11 * P, H + P)
        assert weight.render() == "(11*h - l + 11*p) / (h + p)"

    def test_x_over_x_is_one(self):
        x = RationalFunction(H)
        assert x / x == RationalFunction.constant(1)

    def test_additive_inverse(self):
        a = RationalFunction(3 * H + P, H + 1)
        assert (a - a).is_zero

    def test_division_by_zero_rejected(self):
        with pytest.raises(DomainError):
            RationalFunction(H) / RationalFunction.constant(0)

    def test_canonical_idempotence_bit_exact(self):
        a = RationalFunction((H + P) ** 2 * (10 * H - L), 4 * (H + P) ** 3)
        again = a.canonical()
        assert a == again
        assert a.num.terms == again.num.terms
        assert a.den.terms == again.den.terms
        assert a.render() == again.render()

    def test_reduction_examples(self):
        assert RationalFunction(2 * H + 2 * P, 4 * H + 4 * P) == RationalFunction.constant(
            Fraction(1, 2)
        )
        assert RationalFunction((H + P) ** 3, (H + P)) == RationalFunction((H + P) ** 2)

    def test_evaluate_at_pole_rejected(self):
        a = RationalFunction(Polynomial.constant(1), H)
        with pytest.raises(DomainError):
            a.evaluate({"h": 0})

    def test_powers_match_repeated_multiplication(self):
        a = RationalFunction(2 * H - P, 3 * H + 6)
        one = RationalFunction.constant(1)
        assert a**0 == one and RationalFunction.constant(0) ** 0 == one
        product = one
        for k in range(1, 4):
            product = product * a
            assert a**k == product
            assert a**-k == one / product
        assert (a**-2).render() == "(9*h^2 + 36*h + 36) / (4*h^2 - 4*h*p + p^2)"
        assert RationalFunction.constant(0) ** 3 == RationalFunction.constant(0)

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(DomainError, match="^zero rational function has no inverse$"):
            RationalFunction.constant(0) ** -1
        with pytest.raises(DomainError, match="^division by the zero rational function$"):
            RationalFunction(H) / 0

    def test_zero_denominator_rejected_by_both_constructors(self):
        for build in (RationalFunction, RationalFunction.from_coprime):
            with pytest.raises(DomainError, match="^denominator is the zero polynomial$"):
                build(H, Polynomial())

    def test_reflected_operations_and_repr(self):
        a = RationalFunction(H, H + 1)
        assert 1 - a == RationalFunction(1, H + 1)
        assert a * a == RationalFunction(H * H, (H + 1) ** 2)
        assert a != "h/(h + 1)"
        assert repr(a) == "RationalFunction((h) / (h + 1))"

    def test_variable_and_constants(self):
        h = RationalFunction.variable("h")
        assert h == RationalFunction(H) and h.variables() == {"h"}
        assert not h.is_constant
        half = RationalFunction(Polynomial.constant(3), 6)
        assert half.is_constant and half.constant_value() == Fraction(1, 2)
        assert type(half.constant_value()) is Fraction
        assert (h / h).is_constant and (h / h).constant_value() == 1


def _random_ratfun(rng: random.Random) -> RationalFunction:
    def poly() -> Polynomial:
        out = Polynomial()
        for _ in range(rng.randint(1, 3)):
            term = Polynomial.constant(rng.randint(-5, 5))
            term = term * H ** rng.randrange(3) * P ** rng.randrange(2)
            out = out + term
        return out

    num = poly()
    den = poly()
    while den.is_zero:
        den = poly()
    return RationalFunction(num, den)


class TestFieldAxioms:
    def test_on_random_samples(self):
        rng = random.Random(19)
        for _ in range(60):
            a, b, c = (_random_ratfun(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + 0 == a
            assert a * 1 == a
            if not a.is_zero:
                assert a / a == RationalFunction.constant(1)
                assert a * (1 / a) == RationalFunction.constant(1)
            assert a - a == RationalFunction.constant(0)


class TestSymbolicScoreAlgebra:
    def test_constant_and_zero(self):
        assert SymbolicScore.constant(100).render() == "100"
        assert (SymbolicScore.constant(1) - 1).render() == "0"

    def test_signs_and_unit_magnitudes_render_like_polynomials(self):
        a = SymbolicScore.atom(RationalFunction(10 * L + 1))
        assert (-a - Fraction(1, 3)).render() == "-ln(10*l + 1)^2 - 1/3"
        assert (2 * a + 1).render() == "2*ln(10*l + 1)^2 + 1"
        assert (1 - 10 * L + 2 * L * L).render() == "2*l^2 - 10*l + 1"
        assert (-L - Polynomial.constant(Fraction(1, 3))).render() == "-l - 1/3"

    def test_coefficient_past_the_digit_limit_is_a_digit_limit_error(self):
        # Both renderers share one guard: a str() past the int-digit limit.
        huge = 10 ** (sys.get_int_max_str_digits() + 1)
        with pytest.raises(DigitLimitError):
            SymbolicScore.constant(huge).render()
        with pytest.raises(DigitLimitError):
            (huge * L).render()

    def test_atom_of_one_vanishes(self):
        assert SymbolicScore.atom(RationalFunction.constant(1)).terms == ()

    def test_merge_and_cancel(self):
        a = SymbolicScore.atom(RationalFunction(10 * L + 1))
        assert (a + a - 2 * a).terms == ()
        assert (a * 3 - a).terms == (2 * a).terms

    def test_canonical_idempotence(self):
        score = reference_score()
        assert score.canonical() == score
        assert score.canonical().render() == score.render()

    def test_division_reflected_subtraction_and_is_constant(self):
        a = SymbolicScore.atom(RationalFunction(10 * L + 1))
        assert (a / 4).terms == ((Fraction(1, 4), a.terms[0][1]),)
        assert (a / Fraction(1, 2)) == 2 * a
        assert (3 - a).render() == "-ln(10*l + 1)^2 + 3"
        assert (3 - a) == -(a - 3)
        assert not a.is_constant and not (a + 1).is_constant
        assert SymbolicScore().is_constant and SymbolicScore.constant(5).is_constant
        assert (a - a + 7).is_constant

    def test_product_multiplies_atom_multisets(self):
        a = SymbolicScore.atom(RationalFunction(10 * L + 1))
        b = SymbolicScore.atom(RationalFunction(100 * H + 1))
        product = a * b
        assert len(product.terms) == 1
        coeff, atoms = product.terms[0]
        assert coeff == 1 and len(atoms) == 2


class TestSymbolicPipeline:
    def test_toy_seclim_argument_matches_reference(self, toy):
        sb = symbolic_breakdown(toy, TOY_UNITS)
        assert sb.seclim_argument == reference_seclim_argument()

    def test_toy_seclim_argument_unit_values(self, toy):
        sb = symbolic_breakdown(toy, TOY_UNITS)
        arg = sb.seclim_argument.evaluate(UNIT_POINT)
        assert arg == Fraction(704500, 16)
        assert (arg - 1) / 100 == Fraction(176121, 400)

    def test_toy_score_structurally_equals_reference(self, toy):
        result = equivalent(symbolic_rav(toy, TOY_UNITS), reference_score())
        assert result.equivalent
        assert result.method == "structural"

    def test_toy_score_random_point_equivalence(self, toy):
        # Force the sampled path by comparing against a rearranged build.
        pipeline = symbolic_rav(toy, TOY_UNITS)
        result = equivalent(pipeline, reference_score(), trials=100, seed=20240801)
        assert result.equivalent

    def test_toy_score_rendering_golden(self, toy, fixtures):
        rendered = symbolic_rav(toy, TOY_UNITS).render() + "\n"
        assert rendered == (fixtures / "toy_symbolic.txt").read_text()

    def test_unit_evaluation_matches_numeric(self, toy):
        value = symbolic_rav(toy, TOY_UNITS).evaluate(UNIT_POINT)
        assert value == pytest.approx(TOY_ACTSEC, abs=1e-9)
        assert value == pytest.approx(actual_security(toy).actsec, rel=1e-9)

    def test_empty_scope_is_constant_100(self):
        score = symbolic_rav(Scope(id="empty"))
        assert score.render() == "100"
        assert score.evaluate({}) == 100.0

    def test_zero_porosity_with_limitations_rejected(self):
        scope = Scope(id="bad", limitations=LimitationCounts(anomalies=1))
        with pytest.raises(UndefinedWeightError):
            symbolic_rav(scope)

    def test_scaled_units_match_numeric_with_scaled_counts(self, toy):
        value = symbolic_rav(toy, TOY_UNITS).evaluate({"h": 2, "p": 1, "l": 1})
        doubled = Scope(
            id="toy2",
            porosity=PorosityCounts(2, 1, 0),
            controls=toy.controls,
            limitations=toy.limitations,
        )
        assert value == pytest.approx(actual_security(doubled).actsec, rel=1e-9)

    def test_unit_map_validation(self, toy):
        with pytest.raises(DomainError):
            symbolic_rav(toy, {"visibility": "h", "access": "h"})
        with pytest.raises(DomainError):
            symbolic_rav(toy, {"not-a-kind": "x"})

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 3)), max_size=3).map(tuple),
            st.integers(-20, 20),
            max_size=6,
        ),
        st.integers(1, 6),
    )
    def test_branch_max_zero_matches_all_ones_evaluation(self, terms, den):
        # Monomials given unsorted, repeated or with zero exponents merge, so
        # the terms may cancel; a denominator above 1 is kept.
        value = Polynomial({mono: Fraction(c, den) for mono, c in terms.items()})
        at_ones = value.evaluate({v: 1 for v in value.variables()})
        assert _branch_max_zero(value) == (value if at_ones >= 0 else Polynomial())

    def test_formal_var_names(self, toy):
        score = symbolic_rav(toy, {"visibility": "h", "access": "p", "authentication": "l"})
        assert score.variables() == {"h", "p", "l"}
        with pytest.raises(DomainError, match="^invalid variable name ''$"):
            symbolic_rav(toy, {"visibility": ""})
        # A name that is not a str is refused, not named by its str().
        for name in (5, None, ("h",)):
            message = f"unit variable for 'visibility' must be a string, got {name!r}"
            for build in (symbolic_rav, symbolic_breakdown):
                with pytest.raises(DomainError) as raised:
                    build(toy, {"visibility": name})
                assert str(raised.value) == message


def _rational_pipeline_oracle(h: Fraction, p: Fraction, l: Fraction) -> float:
    """Independent oracle: the toy pipeline at rational count values."""
    import math

    opsec = h + p
    lc = {ControlClass.AUTHENTICATION: l}
    mc = {cls: max(opsec - lc.get(cls, Fraction(0)), Fraction(0)) for cls in ControlClass}
    mc_sum = sum(mc.values(), Fraction(0))
    mc_a = sum((mc[c] for c in ControlClass if c.meta_class == "A"), Fraction(0))
    mc_b = mc_sum - mc_a
    w_v = (opsec + mc_sum) / opsec
    w_w = (opsec + mc_a) / opsec
    w_c = (opsec + mc_b) / opsec
    mc_vg = mc_sum / (10 * opsec)
    vwc = w_v + w_w + w_c
    w_e = ((h + p) * mc_vg + vwc) / opsec
    w_a = (0 * mc_vg + vwc) / opsec
    seclim = w_v**2 + w_w**2 + w_c**2 + w_e**2 + w_a**2
    a = math.log(1 + 100 * opsec) ** 2
    f = math.log(1 + 10 * l) ** 2
    s = math.log(1 + 100 * seclim) ** 2
    return s * ((a - f) / 100 - 1) - (f + 100) * a / 100 + f + 100


class TestCrossPipelineAgreement:
    def test_toy_score_at_100_random_rational_points(self, toy):
        score = symbolic_rav(toy, TOY_UNITS)
        rng = random.Random(77)
        for _ in range(100):
            point = {
                name: 1 + Fraction(rng.randrange(0, 500), rng.randrange(1, 20))
                for name in ("h", "p", "l")
            }
            # Keep the shortfall branch consistent with the unit-point choice.
            if point["l"] > point["h"] + point["p"]:
                point["l"] = point["h"]
            got = score.evaluate(point)
            want = _rational_pipeline_oracle(point["h"], point["p"], point["l"])
            assert got == pytest.approx(want, rel=1e-9)

    def test_1000_random_scopes_agree_with_numeric_pipeline(self):
        units = {"visibility": "h", "access": "p", "trust": "t", "authentication": "l"}
        point = {"h": 1, "p": 1, "t": 1, "l": 1}
        rng = random.Random(2024)
        for _ in range(1000):
            scope = random_scope(rng)
            got = symbolic_rav(scope, units).evaluate(point)
            want = actual_security(scope).actsec
            assert got == pytest.approx(want, rel=1e-9), scope


class TestEvaluationErrors:
    def test_unassigned_variable(self, toy):
        with pytest.raises(UnassignedVariableError):
            symbolic_rav(toy, TOY_UNITS).evaluate({"h": 1, "p": 1})

    def test_argument_below_one_rejected(self):
        score = SymbolicScore.atom(RationalFunction(H))
        with pytest.raises(DomainError):
            score.evaluate({"h": Fraction(1, 2)})

    def test_nonpositive_assignment_rejected(self, toy):
        with pytest.raises(DomainError):
            symbolic_rav(toy, TOY_UNITS).evaluate({"h": 0, "p": 1, "l": 1})

    @pytest.mark.parametrize("value, shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), ("x", "'x'"), (None, "None"), (1j, "1j"),
        ("2", "'2'"), ("3/2", "'3/2'"),
    ], ids=["nan", "inf", "str", "none", "complex", "number-string", "ratio-string"])
    def test_assignment_that_is_not_a_number_rejected(self, toy, value, shown):
        score = symbolic_rav(toy, {"visibility": "h"})
        with pytest.raises(DomainError) as raised:
            score.evaluate({"h": value})
        assert str(raised.value) == f"assignment for 'h' must be a finite number, got {shown}"

    @pytest.mark.parametrize("key", [5, None, ("h",)], ids=["int", "none", "tuple"])
    def test_assignment_key_that_is_not_a_string_rejected(self, toy, key):
        # Not ignored: no variable could have that name.
        score = symbolic_rav(toy, {"visibility": "h"})
        with pytest.raises(DomainError) as raised:
            score.evaluate({"h": 1, key: 2})
        assert str(raised.value) == f"assignment variable must be a string, got {key!r}"


class TestEquivalence:
    def test_score_vs_score_plus_one(self):
        a = reference_score()
        result = equivalent(a, a + 1)
        assert not result.equivalent
        assert result.witness is not None
        assert a.evaluate(result.witness) != (a + 1).evaluate(result.witness)

    def test_figure_vs_prose_variant_differ(self, toy):
        pipeline = symbolic_rav(toy, TOY_UNITS)
        prose = prose_variant_score()
        result = equivalent(pipeline, prose, trials=50, seed=3)
        assert not result.equivalent
        assert result.witness is not None
        gap = abs(pipeline.evaluate(UNIT_POINT) - prose.evaluate(UNIT_POINT))
        assert gap > 10

    def test_reflexive_and_symmetric(self, toy):
        scores = [
            symbolic_rav(toy, TOY_UNITS),
            reference_score(),
            prose_variant_score(),
            SymbolicScore.constant(100),
        ]
        for a in scores:
            assert equivalent(a, a).equivalent
        for a in scores:
            for b in scores:
                assert equivalent(a, b).equivalent == equivalent(b, a).equivalent

    def test_trials_validated(self):
        with pytest.raises(DomainError):
            equivalent(SymbolicScore.constant(1), SymbolicScore.constant(1), trials=0)

    def test_sampled_equivalence(self):
        # ln(h^2)^2 = 4*ln(h)^2 at every h >= 1, with no structural match.
        a = SymbolicScore.atom(RationalFunction(H * H))
        b = SymbolicScore.atom(RationalFunction(H), 4)
        assert a.canonical() != b.canonical()
        assert equivalent(a, b) == EquivalenceResult(True, "sampled")

    def test_point_outside_one_domain_is_a_witness(self):
        # Equal where both are defined (h <= 2), but only a is defined at h >= 4.
        a = SymbolicScore.atom(RationalFunction((3 - H) ** 2))
        b = SymbolicScore.atom(RationalFunction(3 - H), 4)
        result = equivalent(a, b)
        assert not result.equivalent and result.method == "sampled"
        a.evaluate(result.witness)
        with pytest.raises(DomainError):
            b.evaluate(result.witness)

    def test_points_outside_both_domains_are_skipped(self):
        # Both are defined only at h <= 100, where they agree.
        a = SymbolicScore.atom(RationalFunction(101 - H)) + SymbolicScore.atom(
            RationalFunction(L * L)
        )
        b = SymbolicScore.atom(RationalFunction(101 - H)) + SymbolicScore.atom(
            RationalFunction(L), 4
        )
        outside = [point for point in _trial_points(["h", "l"], 100, 0) if point["h"] > 100]
        assert 0 < len(outside) < 100
        assert equivalent(a, b, trials=100, seed=0) == EquivalenceResult(True, "sampled")

    def test_no_point_in_both_domains_is_an_error(self):
        # Every trial point has h > 2, where 3 - h < 1: nothing is compared,
        # so there is no verdict to give.
        c = SymbolicScore.atom(RationalFunction(3 - H))
        assert all(point["h"] > 2 for point in _trial_points(["h"], 100, 0))
        assert c.evaluate({"h": 1}) != (2 * c).evaluate({"h": 1})
        with pytest.raises(DomainError) as excinfo:
            equivalent(c, 2 * c)
        assert str(excinfo.value) == (
            "none of the 100 trial points is in the domain of both scores"
        )


def _trial_points(names: list[str], trials: int, seed: int) -> list[dict[str, Fraction]]:
    """The points ``equivalent`` samples for these variables, trials and seed."""
    rng = random.Random(seed)
    return [
        {name: 1 + Fraction(rng.randrange(0, 4000), rng.randrange(1, 64)) for name in names}
        for _ in range(trials)
    ]



def _symbolic_values() -> list:
    """One value of each slotted symbolic class, zeros included."""
    b = symbolic_breakdown(toy_scope(), TOY_UNITS)
    return [b.seclim_argument.num, Polynomial(), b.seclim_argument, b.score.atoms()[0],
            b.score, SymbolicScore(), b]


# Run in fresh interpreters: pickle _symbolic_values() at every protocol with
# their hashes cached, then load the pickles under another hash seed and find
# each value equal to, hashed as, and in a set with the one built there.
_DUMP = """
import pickle, sys
from test_symbolic import _symbolic_values
values = _symbolic_values()
for value in values:
    hash(value)
dumps = {p: pickle.dumps(values, p) for p in range(pickle.HIGHEST_PROTOCOL + 1)}
sys.stdout.buffer.write(pickle.dumps(dumps))
"""
_LOAD = """
import pickle, sys
from test_symbolic import _symbolic_values
dumps = pickle.loads(sys.stdin.buffer.read())
assert sorted(dumps) == list(range(pickle.HIGHEST_PROTOCOL + 1))
for protocol, data in dumps.items():
    for loaded, fresh in zip(pickle.loads(data), _symbolic_values(), strict=True):
        assert loaded == fresh, (protocol, fresh)
        assert hash(loaded) == hash(fresh), (protocol, fresh)
        assert loaded in {fresh}, (protocol, fresh)
print("ok")
"""


class TestPickling:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trip(self, protocol):
        values = _symbolic_values()
        assert isinstance(values[3], LogSquareAtom)
        for value in values:
            hash(value)
            loaded = pickle.loads(pickle.dumps(value, protocol))
            assert type(loaded) is type(value) and loaded is not value
            assert loaded == value and hash(loaded) == hash(value)

    def test_loaded_hash_is_the_loading_process_hash(self):
        here = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(here.parent / "src"), str(here), env.get("PYTHONPATH")) if p
        )

        def run(code: str, seed: str, stdin: bytes = b"") -> bytes:
            proc = subprocess.run([sys.executable, "-c", code], input=stdin,
                                  capture_output=True, timeout=120,
                                  env=dict(env, PYTHONHASHSEED=seed))
            assert proc.returncode == 0, proc.stderr.decode()
            return proc.stdout

        assert run(_LOAD, "2", run(_DUMP, "1")) == b"ok\n"
