"""Numeric pipeline tests.

Expected values are frozen from independent oracles computed before the
pipeline existed: per-class shortfall definitions applied by hand, the
five-term expansion of the limitation sum, and 60-digit decimal evaluation
of the final log combination (see ``decimal_actsec`` below).
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import fields
from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from ravkit.errors import DomainError, UndefinedWeightError
from ravkit.metrics import (
    LIMITATION_CATEGORIES,
    ControlClass,
    ControlCounts,
    LimitationCounts,
    META_CLASS_A,
    META_CLASS_B,
    PorosityCounts,
    RavBreakdown,
    Scope,
    Weights,
    actual_security,
    aggregate_scopes,
)

from conftest import random_scope

getcontext().prec = 60


def decimal_ln_squared(arg: Fraction) -> Decimal:
    """60-digit oracle for ln(arg)**2."""
    return (Decimal(arg.numerator) / Decimal(arg.denominator)).ln() ** 2


def decimal_actsec(opsec: Fraction, lc_sum: Fraction, seclim: Fraction) -> float:
    """60-digit oracle for the final combination, from the three exact sums."""
    a = decimal_ln_squared(1 + 100 * opsec) if opsec else Decimal(0)
    f = decimal_ln_squared(1 + 10 * lc_sum) if lc_sum else Decimal(0)
    s = decimal_ln_squared(1 + 100 * seclim) if seclim else Decimal(0)
    return float(s * ((a - f) / 100 - 1) - (f + 100) * a / 100 + f + 100)


# Frozen from the oracle at the toy scope (opsec 2, lc 1, seclim 176121/400).
TOY_ACTSEC = -12.743031310693671


def _all_controls(count: int) -> ControlCounts:
    return ControlCounts(*(count for _ in ControlClass))


def _bases_and_magnitudes(b: RavBreakdown):
    """Each base of a breakdown beside the exact magnitude it is the log of."""
    return (
        (b.opsec_base, b.opsec_sum),
        (b.fc_base, b.lc_sum),
        (b.tc_base, sum(b.tc_per_class.values())),
        (b.seclim_base, b.seclim_sum),
    )


class TestBases:
    def test_zero_magnitude_is_exactly_zero(self):
        b = actual_security(Scope(id="empty"))
        assert (b.opsec_base, b.fc_base, b.tc_base, b.seclim_base) == (0.0, 0.0, 0.0, 0.0)

    def test_against_high_precision_oracle(self, toy):
        b = actual_security(toy)
        assert b.opsec_base == pytest.approx(
            float(decimal_ln_squared(Fraction(201))), abs=1e-12
        )
        assert b.fc_base == pytest.approx(float(decimal_ln_squared(Fraction(11))), abs=1e-12)
        assert b.opsec_base == pytest.approx(28.1250, abs=1e-4)
        assert b.fc_base == pytest.approx(5.7499, abs=1e-4)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    def test_strictly_increasing_in_magnitude(self, total, step):
        def opsec_base(visibility: int) -> float:
            return actual_security(
                Scope(id="p", porosity=PorosityCounts(visibility=visibility))
            ).opsec_base

        assert opsec_base(total + step) > opsec_base(total)

    def test_zero_iff_zero(self):
        rng = random.Random(5)
        scopes = [
            Scope(id="empty"),
            Scope(id="controls-only", controls=ControlCounts(alarm=2)),
            Scope(id="porosity-only", porosity=PorosityCounts(0, 0, 3)),
            # Fully controlled: exposures and anomalies weigh nothing.
            Scope(id="weightless", porosity=PorosityCounts(1, 1, 0),
                  controls=_all_controls(2), limitations=LimitationCounts(0, 0, 0, 1, 1)),
            # One alarm short: one exposure weighs 10**-7, seclim_sum 10**-14.
            Scope(id="tiny", porosity=PorosityCounts(visibility=10**6),
                  controls=ControlCounts(*[10**6] * 9, alarm=10**6 - 1),
                  limitations=LimitationCounts(exposures=1)),
        ]
        scopes.extend(random_scope(rng, allow_empty=True) for _ in range(200))
        zeros = set()
        for scope in scopes:
            for i, (base, magnitude) in enumerate(_bases_and_magnitudes(actual_security(scope))):
                assert (base == 0.0) == (magnitude == 0), (scope.id, i)
                assert base >= 0.0
                if magnitude == 0:
                    zeros.add(i)
        assert actual_security(scopes[4]).seclim_sum == Fraction(1, 10**14)
        assert zeros == {0, 1, 2, 3}


class TestOpsecSum:
    @pytest.mark.parametrize(
        "counts, expected",
        [((1, 1, 0), 2), ((0, 0, 0), 0), ((50, 100, 3), 153)],
    )
    def test_examples(self, counts, expected):
        assert actual_security(Scope(id="p", porosity=PorosityCounts(*counts))).opsec_sum == expected

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            PorosityCounts(-1, 0, 0)


class TestCountValidation:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PorosityCounts(1, True, 0), "access must be an integer count, got True"),
            (lambda: PorosityCounts(trust=-4), "trust must be >= 0, got -4"),
            (lambda: ControlCounts(non_repudiation=-1), "non_repudiation must be >= 0, got -1"),
            (lambda: ControlCounts(alarm=-1, authentication="x"),
             "authentication must be an integer count, got 'x'"),
            (lambda: LimitationCounts(anomalies=1.5), "anomalies must be an integer count, got 1.5"),
            (lambda: LimitationCounts(concerns=None, weaknesses=-2), "weaknesses must be >= 0, got -2"),
        ],
    )
    def test_first_bad_field_in_declaration_order_is_named(self, build, message):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == message

    def test_checked_names_are_the_declared_fields(self):
        assert tuple(f.name for f in fields(ControlCounts)) == tuple(
            cls.value.replace("-", "_") for cls in ControlClass
        )
        assert tuple(f.name for f in fields(LimitationCounts)) == LIMITATION_CATEGORIES
        assert tuple(f.name for f in fields(PorosityCounts)) == ("visibility", "access", "trust")

    def test_from_mapping_takes_classes_values_and_field_names(self):
        expected = ControlCounts(non_repudiation=3, alarm=1, privacy=2)
        assert ControlCounts.from_mapping(
            {ControlClass.NON_REPUDIATION: 3, "alarm": 1, "privacy": 2}
        ) == expected
        assert ControlCounts.from_mapping({"non-repudiation": 3, "alarm": 1, "privacy": 2}) == expected
        assert ControlCounts.from_mapping({"non_repudiation": 3, "alarm": 1, "privacy": 2}) == expected
        with pytest.raises(TypeError):
            ControlCounts.from_mapping({"firewall": 1})


class TestMissingControls:
    def test_toy_example_against_per_class_oracle(self, toy):
        # Independent oracle: apply the shortfall definition class by class.
        opsec = Fraction(2)
        counts = {ControlClass.AUTHENTICATION: 1}
        expected = {
            cls: max(opsec - counts.get(cls, 0), Fraction(0)) for cls in ControlClass
        }
        b = actual_security(toy)
        assert dict(b.mc_per_class) == expected
        assert b.mc_per_class[ControlClass.AUTHENTICATION] == 1
        assert b.mc_sum == 19
        assert b.mc_class_a == 9
        assert b.mc_class_b == 10
        assert all(b.mc_per_class[c] == 2 for c in ControlClass if c != ControlClass.AUTHENTICATION)

    def test_zero_opsec_all_zero(self):
        b = actual_security(Scope(id="z", controls=ControlCounts(authentication=3, alarm=1)))
        assert b.mc_sum == 0
        assert all(v == 0 for v in b.mc_per_class.values())
        assert all(v == 0 for v in b.tc_per_class.values())

    def test_fully_controlled(self):
        b = actual_security(Scope(id="f", porosity=PorosityCounts(1, 1, 0),
                                  controls=_all_controls(2)))
        assert b.mc_sum == 0

    def test_true_controls_cap_and_complement(self):
        b = actual_security(Scope(id="c", porosity=PorosityCounts(1, 1, 0),
                                  controls=ControlCounts(authentication=5, alarm=1)))
        assert b.tc_per_class[ControlClass.AUTHENTICATION] == 2
        assert b.tc_per_class[ControlClass.ALARM] == 1
        for cls in ControlClass:
            assert 0 <= b.mc_per_class[cls] <= 2
            assert b.tc_per_class[cls] + b.mc_per_class[cls] == 2


class TestLimitationWeights:
    def test_toy_weights_exact(self, toy):
        w = actual_security(toy).weights
        assert w.vulnerabilities == Fraction(21, 2)
        assert w.weaknesses == Fraction(11, 2)
        assert w.concerns == Fraction(6)
        assert w.exposures == Fraction(239, 20)
        assert w.anomalies == Fraction(11)
        assert w.mc_vg == Fraction(19, 20)

    def test_no_missing_controls_gives_unit_weights(self):
        w = actual_security(Scope(id="f", porosity=PorosityCounts(1, 1, 0),
                                  controls=_all_controls(2))).weights
        assert (w.vulnerabilities, w.weaknesses, w.concerns) == (1, 1, 1)
        assert w.mc_vg == 0

    def test_anomaly_weight_vanishes_without_trust_or_flaws(self):
        w = actual_security(Scope(id="a", porosity=PorosityCounts(1, 1, 0),
                                  controls=ControlCounts(authentication=1))).weights
        assert w.mc_vg == Fraction(19, 20)
        assert w.anomalies == 0


class TestSecurityLimitationsSum:
    def test_toy_against_expansion_terms(self, toy):
        # Independent oracle: the five expansion terms at unit counts.
        expected = (
            Fraction(441, 4) + Fraction(121, 4) + 36 + Fraction(57121, 400) + 121
        )
        assert expected == Fraction(176121, 400)
        assert actual_security(toy).seclim_sum == expected

    def test_zero_counts(self):
        b = actual_security(Scope(id="n", porosity=PorosityCounts(1, 1, 0),
                                  controls=ControlCounts(authentication=1)))
        assert b.seclim_sum == 0
        assert b.seclim_base == 0.0


class TestActualSecurity:
    def test_toy_reproduces_published_value(self, toy):
        b = actual_security(toy)
        assert b.actsec == pytest.approx(-12.744, abs=0.01)
        assert b.actsec == pytest.approx(TOY_ACTSEC, abs=1e-9)
        assert b.actsec == pytest.approx(
            decimal_actsec(Fraction(2), Fraction(1), Fraction(176121, 400)), abs=1e-9
        )

    def test_toy_intermediates(self, toy):
        b = actual_security(toy)
        assert b.opsec_sum == 2
        assert b.lc_sum == 1
        assert b.mc_sum == 19
        assert b.mc_class_a == 9
        assert b.mc_class_b == 10
        assert b.seclim_sum == Fraction(176121, 400)
        assert b.opsec_base == pytest.approx(28.1250, abs=1e-4)
        assert b.fc_base == pytest.approx(5.7499, abs=1e-4)
        assert b.tc_base == pytest.approx(b.fc_base, abs=1e-12)

    def test_empty_scope_scores_exactly_100(self):
        b = actual_security(Scope(id="empty"))
        assert b.actsec == 100.0
        assert b.opsec_base == 0.0 and b.fc_base == 0.0 and b.seclim_base == 0.0

    def test_fully_controlled_scope(self):
        # All ten classes at the porosity level, no limitations: the
        # control base equals the porosity base and the score is
        # 100 - opsec_base**2/100, not 100.
        controls = ControlCounts(**{c.value.replace("-", "_"): 2 for c in ControlClass})
        scope = Scope(id="full", porosity=PorosityCounts(1, 1, 0), controls=controls)
        b = actual_security(scope)
        assert b.fc_base == pytest.approx(b.opsec_base, abs=1e-12)
        assert b.actsec == pytest.approx(100 - b.opsec_base**2 / 100, abs=1e-9)
        assert b.actsec != 100.0

    def test_zero_porosity_with_limitations_rejected(self):
        scope = Scope(id="bad", limitations=LimitationCounts(1, 0, 0, 0, 0))
        with pytest.raises(UndefinedWeightError):
            actual_security(scope)

    def test_zero_porosity_with_controls_scores_above_100(self):
        scope = Scope(id="over", controls=ControlCounts(authentication=2))
        b = actual_security(scope)
        assert b.actsec == pytest.approx(100 + b.fc_base, abs=1e-12)
        assert b.actsec > 100

    def test_repeated_runs_bit_identical(self, toy):
        b1 = actual_security(toy)
        b2 = actual_security(toy)
        assert b1.seclim_sum == b2.seclim_sum
        assert b1.weights == b2.weights
        assert dict(b1.mc_per_class) == dict(b2.mc_per_class)
        assert b1.actsec == b2.actsec

    def test_rational_types_exact(self, toy):
        b = actual_security(toy)
        for value in (b.opsec_sum, b.lc_sum, b.mc_sum, b.mc_class_a, b.mc_class_b,
                      b.mc_vg, b.seclim_sum):
            assert isinstance(value, Fraction)
        assert isinstance(b.actsec, float)

    def test_shortfall_bounds_on_random_scopes(self):
        rng = random.Random(101)
        for _ in range(200):
            scope = random_scope(rng)
            b = actual_security(scope)
            opsec = b.opsec_sum
            for cls in ControlClass:
                assert 0 <= b.mc_per_class[cls] <= opsec
                if scope.controls.get(cls) <= opsec:
                    assert b.tc_per_class[cls] + b.mc_per_class[cls] == opsec
            assert b.seclim_sum >= 0
            assert b.mc_class_a + b.mc_class_b == b.mc_sum


def _swap_within_meta(scope: Scope, rng: random.Random) -> Scope:
    meta = list(META_CLASS_A if rng.random() < 0.5 else META_CLASS_B)
    rng.shuffle(meta)
    counts = {cls: scope.controls.get(cls) for cls in ControlClass}
    values = [counts[cls] for cls in meta]
    rng.shuffle(values)
    for cls, value in zip(meta, values):
        counts[cls] = value
    return Scope(
        id=scope.id + "-perm",
        porosity=scope.porosity,
        controls=ControlCounts.from_mapping(counts),
        limitations=scope.limitations,
    )


class TestPermutationInvariance:
    def test_within_meta_class_permutations_do_not_move_the_score(self):
        rng = random.Random(7)
        for _ in range(300):
            scope = random_scope(rng)
            permuted = _swap_within_meta(scope, rng)
            b1, b2 = actual_security(scope), actual_security(permuted)
            assert b1.mc_sum == b2.mc_sum
            assert b1.mc_class_a == b2.mc_class_a
            assert b1.mc_class_b == b2.mc_class_b
            assert b1.weights == b2.weights
            assert b1.seclim_sum == b2.seclim_sum
            assert b1.actsec == b2.actsec

    def test_cross_meta_class_moves_can_change_the_score(self):
        # Concrete violating instance: moving one authentication count to
        # non-repudiation shifts the class-A/class-B split asymmetrically.
        base = Scope(
            id="cross",
            porosity=PorosityCounts(1, 1, 0),
            controls=ControlCounts(authentication=1, indemnification=1),
            limitations=LimitationCounts(1, 1, 1, 1, 1),
        )
        moved = Scope(
            id="cross-moved",
            porosity=base.porosity,
            controls=ControlCounts(indemnification=1, non_repudiation=1),
            limitations=base.limitations,
        )
        assert actual_security(base).actsec != actual_security(moved).actsec


class TestAggregation:
    def test_fifty_plus_hundred_targets(self):
        a = Scope(id="a", porosity=PorosityCounts(50, 10, 0),
                  controls=ControlCounts(authentication=5),
                  limitations=LimitationCounts(vulnerabilities=2))
        b = Scope(id="b", porosity=PorosityCounts(100, 20, 5),
                  controls=ControlCounts(authentication=3),
                  limitations=LimitationCounts(weaknesses=4))
        agg = aggregate_scopes([a, b])
        assert agg.porosity.visibility == 150
        assert agg.porosity == PorosityCounts(150, 30, 5)
        assert agg.controls.authentication == 8
        assert agg.limitations.vulnerabilities == 2
        assert agg.limitations.weaknesses == 4
        assert agg.channel == "aggregate"
        assert actual_security(agg).opsec_sum == 185

    def test_single_scope_identity(self, toy):
        agg = aggregate_scopes([toy])
        assert agg.porosity == toy.porosity
        assert agg.controls == toy.controls
        assert agg.limitations == toy.limitations

    def test_zero_scope_is_additive_identity(self, toy):
        agg = aggregate_scopes([toy, Scope(id="zero")])
        assert agg.porosity == toy.porosity
        assert agg.controls == toy.controls
        assert agg.limitations == toy.limitations

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            aggregate_scopes([])

    def test_associative_and_commutative_on_counts(self):
        rng = random.Random(13)
        for _ in range(50):
            scopes = [random_scope(rng, allow_empty=True) for _ in range(3)]
            left = aggregate_scopes([aggregate_scopes(scopes[:2]), scopes[2]])
            right = aggregate_scopes([scopes[0], aggregate_scopes(scopes[1:])])
            shuffled = list(scopes)
            rng.shuffle(shuffled)
            again = aggregate_scopes(shuffled)
            for other in (right, again):
                assert left.porosity == other.porosity
                assert left.controls == other.controls
                assert left.limitations == other.limitations


# ---------------------------------------------------------------------------
# The integer kernel against the stage-by-stage Fraction pipeline
# ---------------------------------------------------------------------------


def _reference_rationals(scope: Scope) -> dict:
    """Every rational of the Fraction pipeline as it stood before the
    integer kernel, one stage after another."""
    opsec = Fraction(scope.porosity.total)
    per_class, true_per_class = {}, {}
    for cls in ControlClass:
        lc = Fraction(scope.controls.get(cls))
        per_class[cls] = max(opsec - lc, Fraction(0))
        true_per_class[cls] = min(lc, opsec)
    mc_sum = sum(per_class.values(), Fraction(0))
    mc_a = sum((per_class[c] for c in ControlClass if c in META_CLASS_A), Fraction(0))
    lims = scope.limitations
    if opsec == 0:
        if lims.total != 0:
            raise UndefinedWeightError(
                f"scope {scope.id!r} has zero porosity but nonzero limitations; "
                "limitation weights are undefined"
            )
        weights = Weights(*(Fraction(0),) * 6)
    else:
        mc_b = mc_sum - mc_a
        w_v, w_w, w_c = (opsec + mc_sum) / opsec, (opsec + mc_a) / opsec, (opsec + mc_b) / opsec
        mc_vg = mc_sum / (10 * opsec)
        vwc = lims.vulnerabilities * w_v + lims.weaknesses * w_w + lims.concerns * w_c
        w_e = ((scope.porosity.visibility + scope.porosity.access) * mc_vg + vwc) / opsec
        w_a = (scope.porosity.trust * mc_vg + vwc) / opsec
        weights = Weights(w_v, w_w, w_c, w_e, w_a, mc_vg)
    return dict(
        opsec_sum=opsec,
        lc_sum=Fraction(scope.controls.total),
        mc_per_class=per_class,
        mc_sum=mc_sum,
        mc_class_a=mc_a,
        mc_class_b=mc_sum - mc_a,
        mc_vg=weights.mc_vg,
        tc_per_class=true_per_class,
        weights=weights,
        seclim_sum=sum(
            (Fraction(getattr(lims, n)) * weights.for_category(n) ** 2
             for n in LIMITATION_CATEGORIES),
            Fraction(0),
        ),
    )


#: The oracle's breakdown: the fields of a RavBreakdown, in the same order.
ReferenceBreakdown = namedtuple("RavBreakdown", (
    "opsec_sum", "opsec_base", "lc_sum", "mc_per_class", "mc_sum", "mc_class_a",
    "mc_class_b", "mc_vg", "tc_per_class", "tc_base", "fc_base", "weights",
    "seclim_sum", "seclim_base", "actsec",
))


def _reference_actual_security(scope: Scope) -> ReferenceBreakdown:
    """The reference rationals, with ``math.log`` taken of each Fraction."""
    r = _reference_rationals(scope)

    def base(magnitude: Fraction) -> float:
        return 0.0 if magnitude == 0 else math.log(1 + 100 * magnitude) ** 2

    a, f, s = base(r["opsec_sum"]), base(r["lc_sum"] / 10), base(r["seclim_sum"])
    return ReferenceBreakdown(
        **r,
        opsec_base=a,
        tc_base=base(max(r["opsec_sum"] - r["mc_sum"] / 10, Fraction(0))),
        fc_base=f,
        seclim_base=s,
        actsec=s * ((a - f) / 100 - 1) - (f + 100) * a / 100 + f + 100,
    )


def _draw_scope(rng: random.Random, lo: int, hi: int, i: int) -> Scope:
    """Each count is zero one time in four, else uniform in [lo, hi]."""
    def count() -> int:
        return 0 if rng.random() < 0.25 else rng.randint(lo, hi)

    return Scope(
        id=f"draw-{i}",
        porosity=PorosityCounts(count(), count(), count()),
        controls=ControlCounts(*(count() for _ in ControlClass)),
        limitations=LimitationCounts(*(count() for _ in LIMITATION_CATEGORIES)),
    )


class TestIntegerKernelBitExact:
    RANGES = ((0, 3), (0, 50), (0, 10**6), (10**20, 10**40))

    def test_every_field_equals_the_fraction_pipeline(self):
        rng = random.Random(20261018)
        scopes = [Scope(id="empty"), Scope(id="controls-only", controls=ControlCounts(alarm=4))]
        for lo, hi in self.RANGES:
            scopes.extend(_draw_scope(rng, lo, hi, len(scopes)) for _ in range(500))
        undefined = 0
        for scope in scopes:
            try:
                expected = _reference_actual_security(scope)
            except UndefinedWeightError as exc:
                undefined += 1
                with pytest.raises(UndefinedWeightError) as raised:
                    actual_security(scope)
                assert str(raised.value) == str(exc)
                continue
            got = actual_security(scope)
            assert RavBreakdown.__match_args__ == expected._fields
            for name in expected._fields:
                want, have = getattr(expected, name), getattr(got, name)
                if isinstance(want, dict):
                    assert all(type(v) is Fraction for v in have.values())
                    want, have = dict(want), dict(have)
                assert type(have) is type(want) and have == want, (scope, name)
        # Zero porosity with limitations occurs in the small ranges.
        assert undefined > 0

    def test_collision_keys_match_seclim_numerators(self):
        from ravkit.critique import CollisionBounds, _StateSpace, _collision_slabs

        space = _StateSpace(CollisionBounds.coerce(2))
        rng = random.Random(77)
        checked = 0
        for s, lc_sum, keys, base_ids in _collision_slabs(space):
            # Each porosity layout's first and last state in the slab; over
            # the slabs of one total these reach both ends of its id range.
            n = keys.size
            block = n // len(base_ids)
            ends = {*range(0, n, block), *range(block - 1, n, block)}
            for i in ends.union(rng.sample(range(n), min(8, n))):
                code = int(space.codes(base_ids.reshape(-1), n // base_ids.size, i))
                scope = space.scope(code, "state")
                bd = actual_security(scope)
                assert bd.opsec_sum == s and bd.lc_sum == lc_sum
                assert int(keys[i]) == bd.seclim_sum * (10 * s**2) ** 2
                checked += 1
        assert checked > 100


class TestHugeCounts:
    """Counts past the float range score instead of overflowing."""

    def test_bases_past_the_float_range(self):
        def opsec_base(visibility: int) -> float:
            return actual_security(
                Scope(id="big", porosity=PorosityCounts(visibility=visibility))
            ).opsec_base

        value = opsec_base(10**400)
        assert math.isfinite(value)
        assert value == pytest.approx((402 * math.log(10)) ** 2, rel=1e-12)
        assert opsec_base(10**400 // 3) < value

    @pytest.mark.parametrize("exponent", [307, 400])
    def test_actsec_matches_mpmath_oracle(self, exponent):
        mpmath = pytest.importorskip("mpmath")
        big = 10**exponent
        scopes = [
            Scope(id="visible", porosity=PorosityCounts(visibility=big)),
            Scope(
                id="mixed",
                porosity=PorosityCounts(big, 3 * big + 1, 7),
                controls=ControlCounts(authentication=big, alarm=5 * big),
                limitations=LimitationCounts(big, 2, 0, big // 7, 1),
            ),
        ]
        for scope in scopes:
            got = actual_security(scope)
            r = _reference_rationals(scope)
            assert got.seclim_sum == r["seclim_sum"]
            with mpmath.workdps(50):
                def base(magnitude: Fraction):
                    arg = 1 + magnitude
                    return mpmath.log(mpmath.mpf(arg.numerator) / arg.denominator) ** 2

                a, f = base(100 * r["opsec_sum"]), base(10 * r["lc_sum"])
                s = base(100 * r["seclim_sum"])
                want = s * ((a - f) / 100 - 1) - (f + 100) * a / 100 + f + 100
                assert math.isfinite(got.actsec)
                assert abs(got.actsec - want) <= 1e-12 * abs(want), scope.id
