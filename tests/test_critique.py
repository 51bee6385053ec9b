"""Critique suite tests.

Every finding is checked against an independent recomputation through the
exact pipeline, and every demo must serialize byte-identically when re-run
with the same inputs.
"""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations_with_replacement, count, permutations, product

import numpy as np
import pytest

from ravkit.critique import (
    CollisionBounds,
    CritiqueFinding,
    collision_search,
    cross_class_counterexample,
    exact_scores_equal,
    formula_discrepancy_demo,
    permutation_demo,
    prose_actual_security,
    trust_aggregation_demo,
    trust_equivalence_demo,
)
from ravkit import critique
from ravkit.cli import dispatch
from ravkit.critique import (
    _close_gaps,
    _collision_slabs,
    _collision_tables,
    _float_scores,
    _group_keys,
    _packed_key_bits,
    _seclim_num_bound,
    _slab_size_bound,
    _state_scope,
    _witness_codes,
)
from ravkit.errors import DomainError
from ravkit.metrics import (
    ControlClass,
    ControlCounts,
    LimitationCounts,
    PorosityCounts,
    Scope,
    actual_security,
    seclim_numerator,
    weight_numerators,
)
from ravkit.report import render_findings
from ravkit.trust import ApplicantRecord, Polarity, Reference, consistency_ratios


def scope_from_obj(obj: dict) -> Scope:
    """Rebuild a finding's scope input through the ingest validation path."""
    import json

    from ravkit.ingest import parse_scope_file

    doc = {"schema": "ravkit-scope/1", "scopes": [obj]}
    return parse_scope_file(json.dumps(doc).encode())[0]


class TestPermutationDemo:
    def test_same_meta_class_swap_holds_with_identical_intermediates(self, toy):
        finding = permutation_demo(toy, ControlClass.AUTHENTICATION, ControlClass.CONTINUITY)
        assert finding.verdict == "holds"
        assert finding.scores["rational_intermediates_identical"] is True
        assert finding.scores["actsec_before"] == finding.scores["actsec_after"]
        assert finding.scores["invariance_structural"] is True

    def test_zero_count_swap_holds(self, toy):
        finding = permutation_demo(toy, ControlClass.RESILIENCE, ControlClass.ALARM)
        assert finding.verdict == "holds"
        assert finding.scores["invariance_structural"] is True

    def test_toy_cross_class_swap_is_a_discovered_equality(self, toy):
        # Direct recomputation: swapping authentication and alarm maps the
        # (missing-A, missing-B) pair to its mirror image, and with equal
        # weakness and concern counts the limitation sum is symmetric in it,
        # so the score does not move even though the split does.
        finding = permutation_demo(toy, ControlClass.AUTHENTICATION, ControlClass.ALARM)
        assert finding.verdict == "holds"
        assert finding.scores["rational_intermediates_identical"] is False
        assert finding.scores["invariance_structural"] is False
        before = actual_security(toy)
        after = actual_security(
            Scope(
                id="swapped",
                porosity=toy.porosity,
                controls=ControlCounts(alarm=1),
                limitations=toy.limitations,
            )
        )
        assert before.actsec == after.actsec
        assert before.mc_class_a != after.mc_class_a

    def test_cross_class_counterexample_found_automatically(self):
        finding = cross_class_counterexample()
        assert finding.verdict == "violated"
        scope_a = scope_from_obj(dict(finding.inputs["scope"]))
        scope_b = scope_from_obj(dict(finding.inputs["swapped_scope"]))
        before = actual_security(scope_a).actsec
        after = actual_security(scope_b).actsec
        assert before != after
        assert finding.scores["actsec_before"] == before
        assert finding.scores["actsec_after"] == after
        source = ControlClass(finding.inputs["source"])
        target = ControlClass(finding.inputs["target"])
        assert source.meta_class != target.meta_class

    @pytest.mark.parametrize(
        "source, target",
        [
            (source, target)
            for source, target in permutations(ControlClass, 2)
            if source.meta_class == target.meta_class
        ],
        ids=lambda cls: cls.value,
    )
    def test_same_meta_class_swap_is_an_exact_collision(self, source, target):
        # Every class holds a different count, so each swap moves counts.
        scope = Scope(
            id="swap",
            porosity=PorosityCounts(2, 3, 1),
            controls=ControlCounts.from_mapping(
                {cls: i + 1 for i, cls in enumerate(ControlClass)}
            ),
            limitations=LimitationCounts(1, 2, 0, 1, 1),
        )
        finding = permutation_demo(scope, source, target)
        assert finding.verdict == "holds"
        assert finding.scores["rational_intermediates_identical"] is True
        scope_a = scope_from_obj(dict(finding.inputs["scope"]))
        scope_b = scope_from_obj(dict(finding.inputs["swapped_scope"]))
        assert scope_a.porosity == scope_b.porosity
        assert scope_a.limitations == scope_b.limitations
        assert scope_a.controls != scope_b.controls
        ba, bb = actual_security(scope_a), actual_security(scope_b)
        assert exact_scores_equal(ba, bb) and ba.actsec == bb.actsec

    def test_same_class_rejected(self, toy):
        with pytest.raises(DomainError):
            permutation_demo(toy, ControlClass.ALARM, ControlClass.ALARM)

    def test_finding_serialization_reproducible(self, toy):
        first = render_findings(
            [permutation_demo(toy, ControlClass.AUTHENTICATION, ControlClass.CONTINUITY)]
        )
        second = render_findings(
            [permutation_demo(toy, ControlClass.AUTHENTICATION, ControlClass.CONTINUITY)]
        )
        assert first == second


class TestCollisionSearch:
    def test_bounds_zero_empty(self):
        assert collision_search(0, 1e-9, 0) == []

    def test_small_bounds_find_structural_collisions(self):
        findings = collision_search(2, 1e-9, 0, max_findings=10)
        assert findings
        for finding in findings:
            scope_a = scope_from_obj(dict(finding.inputs["scope_a"]))
            scope_b = scope_from_obj(dict(finding.inputs["scope_b"]))
            ba, bb = actual_security(scope_a), actual_security(scope_b)
            differs_porosity = scope_a.porosity != scope_b.porosity
            differs_lims = scope_a.limitations != scope_b.limitations
            assert differs_porosity or differs_lims
            if finding.scores["exact"]:
                assert (ba.opsec_sum, ba.lc_sum, ba.seclim_sum) == (
                    bb.opsec_sum, bb.lc_sum, bb.seclim_sum)
            assert abs(ba.actsec - bb.actsec) <= 1e-9

    def test_deterministic_and_reproducible(self):
        first = render_findings(collision_search(2, 1e-9, 0, max_findings=6))
        second = render_findings(collision_search(2, 1e-9, 0, max_findings=6))
        assert first == second

    def test_epsilon_zero_reports_exact_collisions_only(self):
        findings = collision_search(1, 0.0, 0, max_findings=8)
        assert findings
        assert all(f.scores["exact"] for f in findings)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DomainError):
            collision_search(1, -1e-9, 0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(DomainError):
            collision_search(1, epsilon, 0)

    @pytest.mark.parametrize(
        "bounds",
        [CollisionBounds(1, 1, 1), CollisionBounds(1, 1, 2)],
        ids=["1-1-1", "1-1-2"],
    )
    def test_distinct_keys_match_brute_force_oracle(self, bounds):
        # Every scope within bounds, scored one by one: all porosity triples,
        # every control multiset per meta-class, every limitation tuple.
        keys = set()
        lims = [
            LimitationCounts(*lim)
            for lim in product(range(bounds.limitation + 1), repeat=5)
        ]
        multisets = list(combinations_with_replacement(range(bounds.control + 1), 5))
        meta_a = [cls for cls in ControlClass if cls.meta_class == "A"]
        meta_b = [cls for cls in ControlClass if cls.meta_class == "B"]
        for pv, pa, pt in product(range(bounds.porosity + 1), repeat=3):
            base = Scope(id="oracle", porosity=PorosityCounts(pv, pa, pt))
            for counts_a, counts_b in product(multisets, repeat=2):
                controls = ControlCounts.from_mapping(
                    {**dict(zip(meta_a, counts_a)), **dict(zip(meta_b, counts_b))}
                )
                for lim in lims if pv + pa + pt else lims[:1]:
                    r = actual_security(replace(base, controls=controls, limitations=lim))
                    keys.add((r.opsec_sum, r.lc_sum, r.seclim_sum))
        findings = collision_search(bounds, 1e-9, 0, max_findings=1)
        assert findings[0].scores["coverage"]["distinct_keys"] == len(keys)

    def test_key_bound_covers_every_key_and_fits_int64_to_bounds_five(self):
        bounds = CollisionBounds(2, 2, 2)
        lims = np.array(list(product(range(3), repeat=5)), dtype=np.int64)
        triples_by_s, layouts = _collision_tables(bounds)
        largest = max(
            int(slab.keys.max()) for slab in _collision_slabs(triples_by_s, layouts, lims)
        )
        assert 0 < largest <= _seclim_num_bound(bounds)
        assert _seclim_num_bound(CollisionBounds.coerce(5)) < np.iinfo(np.int64).max

    def test_bounds_three_peak_memory_stays_small(self):
        # The search holds one slab at a time, never the whole state space.
        tracemalloc.start()
        try:
            findings = collision_search(3, 1e-9, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250e6, f"peak {peak / 1e6:.0f} MB"
        assert findings[0].scores["coverage"]["states"] == 8_639_519

    def test_bounds_three_near_pass_peak_under_fifty_mb(self):
        # The near pass keeps one float score per distinct key (2,381,746
        # at bounds 3, 19 MB), never a witness or a sort index beside it.
        tracemalloc.start()
        try:
            collision_search(3, 1e-9, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("bound", range(1, 7))
    def test_packed_keys_fit_int64_for_every_slab_through_bounds_six(self, bound):
        # Slab sizes come from the control triples and porosity layouts
        # alone, so no state is enumerated even at bounds 6.
        bounds = CollisionBounds.coerce(bound)
        key_bits = _seclim_num_bound(bounds).bit_length()
        triples_by_s, layouts = _collision_tables(bounds)
        for s, layout in layouts.items():
            n_lims = (bound + 1) ** 5 if s else 1
            for triples in Counter(key[0] for key, _ in triples_by_s[s]).values():
                n = len(layout) * triples * n_lims
                assert n <= _slab_size_bound(bounds)
                assert key_bits + (n - 1).bit_length() <= 63
        assert _packed_key_bits(bounds) <= 63

    @pytest.mark.parametrize("bound", range(4))
    def test_state_scopes_cover_every_layout_and_split(self, bound):
        # Oracle: every (pv, pa) within the bound that sums to the layout's
        # pv+pa, in ascending pv; zero porosity has the one split (0, 0).
        b = CollisionBounds.coerce(bound)
        lims = np.array(list(product(range(bound + 1), repeat=5)), dtype=np.int64)
        triples_by_s, layouts = _collision_tables(b)
        by_id = sorted(chain.from_iterable(layouts.values()))
        ends = [first_id + len(triples_by_s[pvpa + pt]) for first_id, pvpa, pt in by_id]
        assert len(by_id) == (bound + 1) * (2 * bound + 1)
        assert [first_id for first_id, _, _ in by_id] == [0, *ends[:-1]]
        for (first_id, pvpa, pt), end in zip(by_id, ends):
            pairs = [(pv, pvpa - pv) for pv in range(bound + 1) if 0 <= pvpa - pv <= bound]
            for base_id in (first_id, end - 1):
                for split, (pv, pa) in enumerate(pairs):
                    code = base_id * len(lims) + len(lims) - 1
                    scope = _state_scope(code, "s", b, triples_by_s, by_id, lims, split)
                    assert scope.porosity == PorosityCounts(pv, pa, pt)
                    assert scope.limitations == LimitationCounts(*(bound,) * 5)

    def test_slab_sizes_match_the_enumeration(self):
        bounds = CollisionBounds.coerce(2)
        lims = np.array(list(product(range(3), repeat=5)), dtype=np.int64)
        triples_by_s, layouts = _collision_tables(bounds)
        sizes = [slab.keys.size for slab in _collision_slabs(triples_by_s, layouts, lims)]
        expected = [
            len(layouts[s]) * triples * (len(lims) if s else 1)
            for s in sorted(layouts)
            for triples in Counter(key[0] for key, _ in triples_by_s[s]).values()
        ]
        assert sizes == expected and max(sizes) <= _slab_size_bound(bounds)

    def test_first_bound_past_the_packed_width_refused_before_enumerating(
        self, monkeypatch
    ):
        first = next(b for b in count(1) if _packed_key_bits(CollisionBounds.coerce(b)) > 63)
        assert first == 7

        def no_enumeration(*args):
            raise AssertionError("the state space was enumerated")

        monkeypatch.setattr(critique, "_collision_tables", no_enumeration)
        code, out, err = dispatch(["demo", "--kind", "collision", "--bounds", str(first)])
        assert code == 2 and out == b""
        assert len(err.splitlines()) == 1 and b"packed collision keys" in err
        assert err.startswith(b"ravkit: domain error: ")

    @pytest.mark.parametrize("bound, epsilon", [(2, 1e-6), (2, 1e-3)])
    def test_near_witnesses_match_a_stable_argsort_oracle(self, bound, epsilon):
        # The oracle holds every distinct key's score and head together and
        # sorts them once, stably: equal scores in slab order, then key order.
        bounds = CollisionBounds.coerce(bound)
        lims = np.array(list(product(range(bound + 1), repeat=5)), dtype=np.int64)
        triples_by_s, layouts = _collision_tables(bounds)
        scores, codes = [], []
        for slab in _collision_slabs(triples_by_s, layouts, lims):
            order = np.argsort(slab.keys, kind="stable")
            keys = slab.keys[order]
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            scores.append(_float_scores(slab.s, slab.lc_sum, keys[starts]))
            base_ids, lim_ids = slab.locate(order[starts])
            codes.append(base_ids * len(lims) + lim_ids)
        scores = np.concatenate(scores)
        by_score = np.argsort(scores, kind="stable")
        sorted_scores = scores[by_score]
        close = np.flatnonzero(np.diff(sorted_scores) <= epsilon)
        assert np.count_nonzero(np.diff(sorted_scores) == 0) > 0  # ties occur
        codes = np.concatenate(codes)[by_score]

        scores.sort()
        assert np.array_equal(_close_gaps(scores, epsilon), close)
        needed = np.union1d(close, close + 1)
        values = np.unique(scores[needed])
        found = _witness_codes(
            _collision_slabs(triples_by_s, layouts, lims),
            values,
            np.searchsorted(scores, values),
            needed,
            len(lims),
        )
        assert np.array_equal(found, codes[needed])

    def test_witness_ties_rank_by_slab_then_key(self):
        # No two keys of one slab share a float score through bounds 4, so
        # fake slabs stand in: at s = 0 every key scores the same.
        def slab(keys, first_id):
            return critique._Slab(
                s=0, lc_sum=1, keys=np.array(keys, dtype=np.int64),
                first_ids=np.array([first_id]), lo=0, triples=len(keys), lims=1,
            )

        value = _float_scores(0, 1, np.zeros(1))
        needed = np.arange(5)
        codes = _witness_codes(
            [slab([5, 3, 5, 7], 0), slab([2, 2, 9], 10)], value, np.array([0]), needed, 1
        )
        # Keys 3, 5 (first at index 0), 7, then the second slab's 2 and 9.
        assert codes.tolist() == [1, 0, 3, 10, 12]

    def test_witness_position_no_slab_fills_is_an_internal_error(self):
        # A needed score that no enumerated state has leaves its slot unset;
        # it is refused rather than decoded into an arbitrary state.
        bounds = CollisionBounds.coerce(1)
        lims = np.array(list(product(range(2), repeat=5)), dtype=np.int64)
        triples_by_s, layouts = _collision_tables(bounds)
        held = _float_scores(1, 0, np.zeros(1))
        assert np.isfinite(held).all()
        for values in (np.array([1e300]), np.array([held[0], 1e300])):
            with pytest.raises(RuntimeError, match="^internal error: 1 of .* matched no"):
                _witness_codes(
                    _collision_slabs(triples_by_s, layouts, lims),
                    values,
                    np.arange(len(values)),
                    np.arange(len(values)),
                    len(lims),
                )

    @pytest.mark.parametrize("bound, n_slabs", [(1, 44), (2, 147), (3, 310)])
    def test_grid_keys_match_the_kernel_on_flat_columns(self, bound, n_slabs):
        # The open-grid kernel against the same kernel on one flat column per
        # limitation count, shaped (layout, triple, limitation tuple).
        bounds = CollisionBounds.coerce(bound)
        lims = np.array(list(product(range(bound + 1), repeat=5)), dtype=np.int64)
        triples_by_s, layouts = _collision_tables(bounds)
        slabs = 0
        for slab in _collision_slabs(triples_by_s, layouts, lims):
            layout = layouts[slab.s]
            assert slab.first_ids.tolist() == [first_id for first_id, _, _ in layout]
            assert slab.lims == (len(lims) if slab.s else 1)
            trip = np.array(
                [key for key, _ in triples_by_s[slab.s]][slab.lo : slab.lo + slab.triples],
                dtype=np.int64,
            )
            assert (trip[:, 0] == slab.lc_sum).all()
            pvpa = np.array([pvpa for _, pvpa, _ in layout], dtype=np.int64)[:, None, None]
            pt = np.array([pt for _, _, pt in layout], dtype=np.int64)[:, None, None]
            mca, mcb = trip[:, 1:2], trip[:, 2:3]
            columns = tuple(lims[: slab.lims].T)
            expected = seclim_numerator(
                columns, weight_numerators(slab.s, pvpa, pt, mca + mcb, mca, mcb, columns)
            )
            assert np.array_equal(slab.keys, expected.reshape(-1)), (slab.s, slab.lc_sum)
            slabs += 1
        assert slabs == n_slabs

    @pytest.mark.parametrize("bound, n_slabs", [(1, 44), (2, 147), (3, 310), (4, 533)])
    def test_slab_scores_strictly_decrease_in_key_order(self, bound, n_slabs):
        # Within a slab the score falls as the limitation key grows, so one
        # score interval is one key interval: a near-pass filter on key
        # ranges rests on this, checked in float as the search computes it.
        bounds = CollisionBounds.coerce(bound)
        lims = np.array(list(product(range(bound + 1), repeat=5)), dtype=np.int64)
        triples_by_s, layouts = _collision_tables(bounds)
        slabs = 0
        for slab in _collision_slabs(triples_by_s, layouts, lims):
            keys, _, starts = _group_keys(slab)
            scores = _float_scores(slab.s, slab.lc_sum, keys[starts])
            assert np.all(np.diff(scores) < 0), (slab.s, slab.lc_sum)
            slabs += 1
        assert slabs == n_slabs

    def test_close_gaps_across_block_boundaries(self):
        # Gaps are taken a block of 2**20 at a time; close pairs that
        # straddle a block edge must still be found.
        scores = np.arange(3 * 2**20 + 5, dtype=float)
        for edge in (2**20, 2 * 2**20, 3 * 2**20):
            scores[edge] = scores[edge - 1] + 1e-12
            scores[edge + 2] = scores[edge + 1]
        expected = np.flatnonzero(np.diff(scores) <= 1e-9)
        assert len(expected) == 6
        assert np.array_equal(_close_gaps(scores, 1e-9), expected)
        assert len(_close_gaps(scores[:1], 1e-9)) == 0

    def test_group_keys_orders_equal_keys_by_enumeration_index(self):
        bounds = CollisionBounds.coerce(2)
        lims = np.array(list(product(range(3), repeat=5)), dtype=np.int64)
        triples_by_s, layouts = _collision_tables(bounds)
        for slab in _collision_slabs(triples_by_s, layouts, lims):
            expected_order = np.argsort(slab.keys, kind="stable")
            expected_keys = slab.keys[expected_order]
            keys, order, starts = _group_keys(slab)
            assert np.array_equal(order, expected_order)
            assert np.array_equal(keys, expected_keys)
            assert np.array_equal(starts, np.flatnonzero(np.diff(keys, prepend=-1)))

    @pytest.mark.parametrize("bound", [2, 3], ids=["b2", "b3"])
    @pytest.mark.parametrize(
        "epsilon, tag",
        [
            pytest.param(0.0, "0", id="eps0"),
            pytest.param(1e-9, "1e-9", id="eps1e-9"),
            pytest.param(1e-6, "1e-6", id="eps1e-6"),
        ],
    )
    def test_findings_match_golden(self, bound, epsilon, tag, fixtures):
        # Recorded before the packed-key sort and the scores-only near pass;
        # the coverage records pin the near-pair and skip counts.
        golden = fixtures / f"collision_b{bound}_eps{tag}.json"
        assert render_findings(collision_search(bound, epsilon, 0)) == golden.read_bytes()

    def test_truncated_when_pairs_exceed_max_findings(self):
        findings = collision_search(2, 1e-9, 0, max_findings=5)
        assert len(findings) == 5
        coverage = findings[0].scores["coverage"]
        assert coverage["truncated"] is True
        assert coverage["pairs_verified"] == 5
        assert coverage["exact_groups"] + coverage["near_pairs"] + 1 > 5
        assert all(f.scores["coverage"] == coverage for f in findings)

    def test_not_truncated_when_every_pair_fits(self):
        findings = collision_search(CollisionBounds(1, 1, 0), 0.05, 0, max_findings=25)
        coverage = findings[0].scores["coverage"]
        assert coverage["truncated"] is False
        assert len(findings) == 1 + coverage["exact_groups"] + coverage["near_pairs"] < 25
        assert coverage["near_pairs"] >= 1

    def test_emission_order_split_exact_near(self):
        findings = collision_search(CollisionBounds(1, 0, 2), 0.05, 0, max_findings=500)
        assert findings[0].scores["coverage"]["truncated"] is False
        scopes = [
            (scope_from_obj(dict(f.inputs["scope_a"])), scope_from_obj(dict(f.inputs["scope_b"])))
            for f in findings
        ]
        split_a, split_b = scopes[0]
        assert split_a.porosity != split_b.porosity
        assert split_a.porosity.total == split_b.porosity.total
        exact = [f.scores["exact"] for f in findings]
        n_exact = exact.count(True)
        assert exact == [True] * n_exact + [False] * (len(exact) - n_exact)
        keys = []
        for scope_a, scope_b in scopes[1:n_exact]:
            ra, rb = actual_security(scope_a), actual_security(scope_b)
            assert exact_scores_equal(ra, rb)
            keys.append((ra.opsec_sum, ra.lc_sum, ra.seclim_sum))
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        lows = [min(f.scores["actsec_a"], f.scores["actsec_b"]) for f in findings[n_exact:]]
        assert lows and all(x <= y + 1e-9 for x, y in zip(lows, lows[1:]))
        for f in findings[n_exact:]:
            assert abs(f.scores["actsec_a"] - f.scores["actsec_b"]) <= 0.05

    def test_bounds_coercion(self):
        assert CollisionBounds.coerce(2) == CollisionBounds(2, 2, 2)
        assert CollisionBounds.coerce(CollisionBounds(1, 2, 3)).limitation == 3
        with pytest.raises(DomainError):
            CollisionBounds.coerce(-1)


class TestFormulaDiscrepancy:
    def test_toy_scope(self, toy):
        finding = formula_discrepancy_demo(toy)
        assert finding.verdict == "violated"
        figure = finding.scores["figure_form"]
        assert figure == pytest.approx(-12.744, abs=0.01)
        assert abs(finding.scores["prose_single_log"] - figure) > 10
        assert abs(finding.scores["prose_log_squared"] - figure) > 10

    def test_empty_scope_both_forms_agree_at_100(self):
        scope = Scope(id="empty")
        assert actual_security(scope).actsec == 100.0
        assert prose_actual_security(scope, squared=False) == 100.0
        assert prose_actual_security(scope, squared=True) == 100.0
        finding = formula_discrepancy_demo(scope)
        assert finding.verdict == "holds"

    def test_limitation_sum_past_the_float_range(self):
        mpmath = pytest.importorskip("mpmath")
        # 1 + 100*seclim_sum is about 10**202: its log is taken as a
        # difference of logs, as actual_security takes its own.
        scope = Scope(
            id="huge",
            porosity=PorosityCounts(visibility=10**200),
            limitations=LimitationCounts(vulnerabilities=10**400),
        )
        single = prose_actual_security(scope)
        squared = prose_actual_security(scope, squared=True)
        assert math.isfinite(single) and math.isfinite(squared)
        b = actual_security(scope)
        arg = 1 + 100 * b.seclim_sum
        s_lin = float(mpmath.log(mpmath.mpf(arg.numerator) / arg.denominator))
        a, f = b.opsec_base, b.fc_base
        for got, s_term in ((single, s_lin), (squared, s_lin**2)):
            want = 100 + f - a - s_term - a * (f - s_term) / 100 + f * s_term / 100
            assert got == pytest.approx(want, rel=1e-12)
        finding = formula_discrepancy_demo(scope)
        assert finding.scores["figure_form"] == actual_security(scope).actsec
        assert finding.scores["prose_single_log"] == single
        assert finding.scores["prose_log_squared"] == squared
        assert math.isfinite(float(finding.scores["max_divergence"]))

    def test_reproducible(self, toy):
        assert render_findings([formula_discrepancy_demo(toy)]) == render_findings(
            [formula_discrepancy_demo(toy)]
        )


class TestTrustAggregation:
    def test_default_search_finds_ordering_disagreement(self):
        finding = trust_aggregation_demo()
        assert finding.verdict == "violated"
        avg_a = Fraction(finding.scores["average_a"])
        avg_b = Fraction(finding.scores["average_b"])
        max_a = Fraction(finding.scores["max_a"])
        max_b = Fraction(finding.scores["max_b"])
        # Exhaustive-comparison oracle for the two orderings.
        assert avg_b > avg_a and max_a > max_b

    def test_record_values_verified_independently(self):
        finding = trust_aggregation_demo()
        ratios_a = [Fraction(r) for r in finding.inputs["applicant_a"]["consistency_ratios"]]
        assert sorted(ratios_a) == [Fraction(1, 12), Fraction(1, 5), Fraction(1, 4)]
        assert Fraction(finding.scores["average_a"]) == sum(ratios_a, Fraction(0)) / 3
        assert Fraction(finding.scores["max_a"]) == max(ratios_a)

    def test_uniform_record_has_equal_average_and_max(self):
        record = ApplicantRecord(
            months_unemployed=1,
            months_eligible=6,
            criminal_offenses_known=1,
            age_years=24,
            references=(Reference("e", Polarity.NEUTRAL),),
            past_employer_count=6,
        )
        ratios = [r.value for r in consistency_ratios(record)]
        assert len(set(ratios)) == 1
        with pytest.raises(DomainError):
            trust_aggregation_demo(record)

    def test_single_defined_ratio_rejected(self):
        record = ApplicantRecord(criminal_offenses_known=1, age_years=50)
        with pytest.raises(DomainError):
            trust_aggregation_demo(record)

    def test_reproducible(self):
        assert render_findings([trust_aggregation_demo()]) == render_findings(
            [trust_aggregation_demo()]
        )


class TestTrustEquivalence:
    def test_holds_at_published_tolerance_fails_exactly(self):
        finding = trust_equivalence_demo(tolerance=1e-3)
        assert finding.verdict == "holds"
        assert finding.scores["equal_at_tolerance"] is True
        assert finding.scores["equal_exactly"] is False
        assert Fraction(finding.scores["consistency_ratio"]) == Fraction(1, 32)
        assert Fraction(finding.scores["community_ratio"]) == Fraction(39, 1250)

    def test_violated_at_tight_tolerance(self):
        assert trust_equivalence_demo(tolerance=1e-5).verdict == "violated"


class TestFindingInvariants:
    def test_verdict_validation(self):
        with pytest.raises(DomainError):
            CritiqueFinding("k", {}, {}, "maybe", "n")

    def test_to_obj_round_trips_through_renderer(self, toy):
        findings = [
            formula_discrepancy_demo(toy),
            trust_equivalence_demo(),
        ]
        data = render_findings(findings)
        import json

        doc = json.loads(data)
        assert doc["schema"] == "ravkit-finding/1"
        assert [f["kind"] for f in doc["findings"]] == [
            "formula-discrepancy", "trust-equivalence",
        ]
