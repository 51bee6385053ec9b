"""Critique suite tests.

Every finding is checked against an independent recomputation through the
exact pipeline, and every demo must serialize byte-identically when re-run
with the same inputs.
"""

from __future__ import annotations

import math
import re
import tempfile
import tracemalloc
import warnings
from bisect import bisect_right
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
    _RUN_RECORD,
    _StateSpace,
    _close_gaps,
    _collision_slabs,
    _float_scores,
    _INT_KERNEL_STATES,
    _group_keys,
    _int_kernel,
    _int_scores,
    _int_slabs,
    _numpy_kernel,
    _packed_key_bits,
    _range_records,
    _refusal,
    _seclim_num_bound,
    _slab_size_bound,
    _value_ranges,
    _witness_positions,
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
from ravkit.trust import ApplicantRecord, consistency_ratios


def slab_runs(space, slabs):
    """Each slab's run as the first pass of ``collision_search`` spills it:
    its distinct-key scores in key order, and the state code in ``space``
    of each key's head."""
    for s, lc_sum, keys, base_ids in slabs:
        n = keys.size
        keys, order, starts = _group_keys(keys)
        codes = space.codes(base_ids.reshape(-1), n // base_ids.size, order[starts])
        yield _float_scores(s, lc_sum, keys[starts]), codes


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

    @pytest.mark.parametrize("epsilon", [
        math.nan, math.inf, -math.inf, 10**400,
        pytest.param(10**5000, id="10**5000"), pytest.param(-(10**5000), id="-10**5000"),
    ])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(DomainError, match="epsilon must be finite"):
            collision_search(1, epsilon, 0)

    @pytest.fixture
    def no_tables(self, monkeypatch):
        """A refused argument is refused before any table is built."""
        def refuse(*args):
            raise AssertionError("a state-space table was built")
        monkeypatch.setattr("ravkit.critique._StateSpace", refuse)

    @pytest.mark.parametrize("epsilon", [0, np.float64(0.0)])
    def test_epsilon_is_echoed_as_a_float(self, epsilon):
        (finding,) = collision_search(1, epsilon, 0, max_findings=1)
        assert finding.inputs["epsilon"] == "0.0"

    @pytest.mark.parametrize("max_findings, message", [
        (-1, "must be >= 0, got -1"),
        (2.5, "must be an int, got 2.5"),
        (None, "must be an int, got None"),
        (True, "must be an int, got True"),
    ])
    def test_bad_max_findings_rejected(self, max_findings, message, no_tables):
        with pytest.raises(DomainError, match=f"^max_findings {re.escape(message)}$"):
            collision_search(1, 1e-9, 0, max_findings=max_findings)

    def test_zero_max_findings_finds_nothing(self):
        assert collision_search(1, 1e-9, 0, max_findings=0) == []

    @pytest.mark.parametrize("seed", [1.5, "x", None, True])
    def test_non_int_seed_rejected(self, seed, no_tables):
        message = f"seed must be an int, got {seed!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            collision_search(1, 1e-9, seed)

    @pytest.mark.parametrize("epsilon", [True, "1e-9"])
    def test_epsilon_that_is_not_a_number_rejected(self, epsilon, no_tables):
        message = f"epsilon must be an int or a float, got {epsilon!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
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
        largest = max(int(keys.max()) for _, _, keys, _ in _collision_slabs(_StateSpace(bounds)))
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
        # The near pass holds one value range of at most 2**18 scores and
        # every 64th score, never one float per distinct key (2,381,746 at
        # bounds 3).
        tracemalloc.start()
        try:
            collision_search(3, 1e-9, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("epsilon", [1e-9, 1e-6])
    def test_bounds_three_near_pass_peak_under_twenty_mb(self, epsilon):
        # At 1e-6 a third of the scores are witnesses of close pairs; still
        # one range at a time.  The enumeration alone peaks near 14 MB.
        tracemalloc.start()
        try:
            collision_search(3, epsilon, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("bound", range(1, 7))
    def test_packed_keys_fit_int64_for_every_slab_through_bounds_six(self, bound):
        # Slab sizes come from the control triples and porosity layouts
        # alone, so no state is enumerated even at bounds 6.
        bounds = CollisionBounds.coerce(bound)
        key_bits = _seclim_num_bound(bounds).bit_length()
        space = _StateSpace(bounds)
        for s, layout in space.layouts.items():
            n_lims = (bound + 1) ** 5 if s else 1
            for triples in Counter(key[0] for key, _ in space.triples_by_s[s]).values():
                n = len(layout) * triples * n_lims
                assert n <= _slab_size_bound(bounds)
                assert key_bits + (n - 1).bit_length() <= 63
        assert _packed_key_bits(bounds) <= 63

    def test_spill_heads_fit_u4_wherever_the_keys_pack(self):
        # A run record stores each head, an index into its slab, as <u4.
        # On this grid, from the bound helpers alone (nothing enumerated),
        # every bound the packed-key rule accepts has slabs under 2**32
        # states; the largest is 1,045,529,856 at (1, 4, 20), and 68,169,192
        # at bounds 6.  Past the grid the rule alone does not promise it:
        # (350, 1051, 0) packs in 33 bits with a slab bound over 2**32.
        assert dict(_RUN_RECORD)["head"] == "<u4"
        accepted = 0
        for p, c, lim in product(range(12), range(40), range(90)):
            bounds = CollisionBounds(p, c, lim)
            if _packed_key_bits(bounds) <= 63:
                accepted += 1
                assert _slab_size_bound(bounds) < 2**32, bounds
        assert accepted == 7614
        assert _slab_size_bound(CollisionBounds.coerce(6)) == 68_169_192

    @pytest.mark.parametrize("bound", range(4))
    def test_state_scopes_cover_every_layout_and_split(self, bound):
        # Oracle: every (pv, pa) within the bound that sums to the layout's
        # pv+pa, in ascending pv; zero porosity has the one split (0, 0).
        space = _StateSpace(CollisionBounds.coerce(bound))
        n_lims = (bound + 1) ** 5
        by_id = space.by_id
        ends = [first_id + len(space.triples_by_s[pvpa + pt]) for first_id, pvpa, pt in by_id]
        assert len(by_id) == (bound + 1) * (2 * bound + 1)
        assert [first_id for first_id, _, _ in by_id] == [0, *ends[:-1]]
        assert by_id == sorted(chain.from_iterable(space.layouts.values()))
        for (first_id, pvpa, pt), end in zip(by_id, ends):
            pairs = [(pv, pvpa - pv) for pv in range(bound + 1) if 0 <= pvpa - pv <= bound]
            for base_id in (first_id, end - 1):
                for split, (pv, pa) in enumerate(pairs):
                    code = base_id * n_lims + n_lims - 1
                    scope = space.scope(code, "s", split)
                    assert scope.porosity == PorosityCounts(pv, pa, pt)
                    assert scope.limitations == LimitationCounts(*(bound,) * 5)

    @pytest.mark.parametrize("bound", range(1, 7))
    def test_layout_index_matches_the_bisect_rule(self, bound):
        # The per-base layout index against the rule it replaced: the last
        # layout, in base id order, whose first base id is <= the base id.
        space = _StateSpace(CollisionBounds.coerce(bound))
        by_id = space.by_id
        first_id, pvpa, pt = by_id[-1]
        n_bases = first_id + len(space.triples_by_s[pvpa + pt])
        assert space.layout_of == [
            bisect_right(by_id, (base_id, math.inf)) - 1 for base_id in range(n_bases)
        ]
        assert space.layout_array.tolist() == space.layout_of

    def test_slab_sizes_match_the_enumeration(self):
        bounds = CollisionBounds.coerce(2)
        space = _StateSpace(bounds)
        sizes = [keys.size for _, _, keys, _ in _collision_slabs(space)]
        expected = [
            len(space.layouts[s]) * triples * (space.n_lims if s else 1)
            for s in sorted(space.layouts)
            for triples in Counter(key[0] for key, _ in space.triples_by_s[s]).values()
        ]
        assert sizes == expected and max(sizes) <= _slab_size_bound(bounds)

    def test_first_bound_past_the_packed_width_refused_before_enumerating(
        self, monkeypatch
    ):
        first = next(b for b in count(1) if _packed_key_bits(CollisionBounds.coerce(b)) > 63)
        assert first == 7

        def no_enumeration(*args):
            raise AssertionError("the state space was enumerated")

        monkeypatch.setattr(critique, "_StateSpace", no_enumeration)
        code, out, err = dispatch(["demo", "--kind", "collision", "--bounds", str(first)])
        assert code == 2 and out == b""
        assert len(err.splitlines()) == 1 and b"packed collision keys" in err
        assert err.startswith(b"ravkit: domain error: ")

    @pytest.mark.parametrize("bounds, reason", [
        # C(1005, 5) control multisets, packed keys of 35 bits.
        ((1, 1000, 1), "more than 16,777,216 control multisets"),
        # 61**5 limitation tuples, packed keys of 0 bits.
        ((0, 0, 60), "more than 16,777,216 limitation tuples"),
        # Packed keys of 33 bits, slabs of up to 4,302,212,600 states.
        ((350, 1051, 0), "more than 16,777,216 control multisets"),
        # Past the cap before any slab bound is walked.
        ((10**9, 0, 0), "more than 16,777,216 porosity layouts"),
        ((7, 20, 0), "more than 16,777,216 control signature pairs"),
    ])
    def test_bounds_past_a_table_cap_refused_before_any_table(
        self, monkeypatch, bounds, reason
    ):
        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(critique, "_StateSpace", no_table)
        monkeypatch.setattr(critique, "_control_signatures", no_table)
        with pytest.raises(DomainError, match=rf"^bounds .* {re.escape(reason)}$"):
            collision_search(CollisionBounds(*bounds), 0)

    def test_the_old_rule_accepted_bounds_that_cannot_be_built(self):
        # The packed-key rule alone let these through.
        for bounds in ((1, 1000, 1), (0, 0, 60), (350, 1051, 0)):
            assert _packed_key_bits(CollisionBounds(*bounds)) <= 63
        assert _slab_size_bound(CollisionBounds(350, 1051, 0)) == 4_302_212_600

    def test_slabs_past_a_u4_head_are_refused(self, monkeypatch):
        # With the table caps lifted, (350, 1051, 0) passes the packed-key
        # rule and is refused for its slab bound alone.
        monkeypatch.setattr(critique, "_TABLE_CAP", 10**20)
        assert _refusal(CollisionBounds(350, 1051, 0)) == (
            "allow slabs past 2**32 states, more than a 32-bit head can index"
        )

    @pytest.mark.parametrize("bound", range(7))
    def test_cli_bounds_clear_every_cap_with_room(self, bound):
        assert _refusal(CollisionBounds.coerce(bound)) is None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(critique, "_TABLE_CAP", critique._TABLE_CAP // 64)
            assert _refusal(CollisionBounds.coerce(bound)) is None

    @pytest.mark.parametrize("bound, epsilon", [(2, 1e-6), (2, 1e-3), (3, 1e-6)])
    def test_near_witnesses_match_a_stable_argsort_oracle(self, bound, epsilon):
        # The oracle holds every distinct key's score and head together and
        # sorts them once, stably: equal scores in slab order, then key order.
        space = _StateSpace(CollisionBounds.coerce(bound))
        n_lims = (bound + 1) ** 5
        scores, codes = [], []
        for s, lc_sum, slab_keys, base_ids in _collision_slabs(space):
            order = np.argsort(slab_keys, kind="stable")
            keys = slab_keys[order]
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            scores.append(_float_scores(s, lc_sum, keys[starts]))
            # Each head decoded from the layout grid by hand: (layout,
            # triple, limitation tuple) order, over the slab's base ids.
            slab_lims = keys.size // base_ids.size
            base, lim_ids = np.divmod(order[starts], slab_lims)
            codes.append(base_ids.reshape(-1)[base] * n_lims + lim_ids)
            assert np.array_equal(
                space.codes(base_ids.reshape(-1), slab_lims, order[starts]), codes[-1]
            )
        scores, codes = np.concatenate(scores), np.concatenate(codes)
        by_score = np.argsort(scores, kind="stable")
        sorted_scores = scores[by_score]
        close = np.flatnonzero(np.diff(sorted_scores) <= epsilon)
        assert np.count_nonzero(np.diff(sorted_scores) == 0) > 0  # ties occur

        # The runs in slab order, as one value range covering them all.
        ordered = np.sort(scores)
        assert np.array_equal(_close_gaps(ordered, epsilon), close)
        needed = np.union1d(close, close + 1)
        values = np.unique(ordered[needed])
        found = _witness_positions(scores, values, np.searchsorted(ordered, values), needed)
        assert np.array_equal(found, by_score[needed])
        assert np.array_equal(codes[found], codes[by_score][needed])

    @pytest.mark.parametrize("epsilon", [0.0, 1e-9, 1e-6])
    def test_state_space_is_enumerated_once(self, monkeypatch, epsilon):
        # The near pass reads the witnesses back from the first pass's spill.
        calls = []

        def counted(*args):
            calls.append(args)
            return _collision_slabs(*args)

        monkeypatch.setattr(critique, "_collision_slabs", counted)
        coverage = collision_search(2, epsilon, 0)[0].scores["coverage"]
        assert len(calls) == 1
        assert (coverage["near_pairs"] > 0) == (epsilon > 0)

    def test_spill_is_closed_when_the_search_raises(self, monkeypatch):
        opened = []
        real = tempfile.TemporaryFile

        def recorded(*args, **kwargs):
            opened.append(real(*args, **kwargs))
            return opened[-1]

        def failing(*args):
            raise RuntimeError("witness pass failed")

        monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
        monkeypatch.setattr(critique, "_witness_positions", failing)
        with pytest.raises(RuntimeError, match="witness pass failed"):
            collision_search(2, 1e-9, 0)
        assert len(opened) == 1 and opened[0].closed

    @pytest.mark.parametrize("size, every", [(1, 1), (7, 1), (64, 4), (300, 16)])
    def test_value_ranges_bracket_every_score_once(self, monkeypatch, size, every):
        # Runs that never rise, over few values, so ties are common within
        # and across runs; one value has more copies than a range holds.
        monkeypatch.setattr(critique, "_RANGE_SCORES", size)
        monkeypatch.setattr(critique, "_SAMPLE_EVERY", every)
        rng = np.random.default_rng(size)
        runs = [-np.sort(-rng.integers(0, 40, rng.integers(1, 200)).astype(float))
                for _ in range(9)] + [np.full(500, 17.0)]
        samples = [run[::every] for run in runs]
        ranges = list(_value_ranges(samples, [len(run) for run in runs]))
        assert ranges[0][0] == -math.inf and ranges[-1][1] == math.inf
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert len(ranges) > 5
        for lo, hi, first, stop in ranges:
            held = 0
            for run, a, b in zip(runs, first.tolist(), stop.tolist()):
                inside = np.flatnonzero((run >= lo) & (run < hi))
                held += len(inside)
                if len(inside):
                    assert a <= inside[0] and inside[-1] < b
                assert max(0, b - a) - len(inside) <= 2 * (every - 1)
            sampled = {x for run in samples for x in run.tolist() if lo <= x < hi}
            assert held <= size or len(sampled) == 1, (lo, hi, held)

    def test_range_size_moves_no_near_pair(self, monkeypatch):
        # Against the default ranges (one holds all of bounds 2), on the same
        # spill and with every near pair kept.  At the default spacing of
        # samples, ranges of 1, 7 or 64 scores all come out as one range per
        # distinct sample; with every score a sample, ranges of 64 scores.
        # Close pairs straddle thousands of range edges, the edges fall
        # inside runs, and ties across slabs must keep their order.  The
        # close pairs at 1e-3 include every pair at 1e-6 and 1e-9, ties too.
        real, default_every = critique._near_pass, critique._SAMPLE_EVERY
        cases = {(1, 64): (1e-3,), (7, 64): (), (64, 64): (), (64, 1): (1e-9, 1e-6, 1e-3)}
        edges = {}

        def compare(spill, runs, samples, epsilon, max_findings, *rest):
            expected = {eps: real(spill, runs, samples, eps, 10**6, *rest)
                        for eps in (1e-9, 1e-6, 1e-3)}
            assert [n_near for n_near, _, _ in expected.values()] == [12, 306, 105293]
            lengths = np.array([length for length, _, _ in runs])
            records, _, starts = _range_records(spill, np.cumsum(lengths) - lengths,
                                                0 * lengths, lengths)
            for (size, every), epsilons in cases.items():
                monkeypatch.setattr(critique, "_RANGE_SCORES", size)
                monkeypatch.setattr(critique, "_SAMPLE_EVERY", every)
                resampled = [records["score"][start : start + n : every]
                             for start, n in zip(starts.tolist(), lengths.tolist())]
                edges[size, every] = [lo for lo, *_ in _value_ranges(resampled, lengths)]
                for eps in epsilons:
                    assert real(spill, runs, resampled, eps, 10**6, *rest) == expected[eps]
            monkeypatch.setattr(critique, "_SAMPLE_EVERY", default_every)
            n_near, skipped, pairs = expected[epsilon]
            return n_near, skipped, pairs[:max_findings]

        monkeypatch.setattr(critique, "_near_pass", compare)
        collision_search(2, 1e-9, 0)
        assert edges[1, 64] == edges[7, 64] == edges[64, 64]
        assert len(edges[1, 64]) > 2000 and len(edges[64, 1]) > 2000

    def test_range_records_read_back_each_block_and_refuse_a_short_file(self):
        run_starts = np.array([0, 2])
        with tempfile.TemporaryFile() as spill:
            for scores, heads in (([3.5, 2.5], [5, 0]), ([1.5], [2])):
                run = np.empty(len(scores), dtype=_RUN_RECORD)
                run["score"], run["head"] = scores, heads
                spill.write(run)

            def read(first, stop):
                records, runs_read, starts = _range_records(
                    spill, run_starts, np.array(first), np.array(stop)
                )
                return (records["score"].tolist(), records["head"].tolist(),
                        runs_read.tolist(), starts.tolist())

            assert read([0, 0], [2, 1]) == ([3.5, 2.5, 1.5], [5, 0, 2], [0, 1], [0, 2])
            assert read([1, 0], [2, 1]) == ([2.5, 1.5], [0, 2], [0, 1], [0, 1])
            assert read([1, 0], [2, 0]) == ([2.5], [0], [0], [0])
            assert read([0, 1], [0, 1]) == ([], [], [], [])
            spill.truncate(30)
            with pytest.raises(OSError, match="ended early"):
                read([0, 0], [2, 1])

    def test_witness_ties_rank_by_slab_then_key(self):
        # No two keys of one slab share a float score through bounds 4, so
        # fake slabs stand in: at s = 0 every key scores the same.
        def slab(keys, first_id):
            base_ids = first_id + np.arange(len(keys))[None, :]
            return 0, 1, np.array(keys, dtype=np.int64), base_ids

        # One limitation tuple, so a state's code is its base id.
        space = _StateSpace(CollisionBounds(0, 0, 0))
        runs = list(slab_runs(space, [slab([5, 3, 5, 7], 0), slab([2, 2, 9], 10)]))
        scores, codes = (np.concatenate(column) for column in zip(*runs))
        value = _float_scores(0, 1, np.zeros(1))
        found = _witness_positions(scores, value, np.array([0]), np.arange(5))
        # Keys 3, 5 (first at index 0), 7, then the second slab's 2 and 9.
        assert codes[found].tolist() == [1, 0, 3, 10, 12]

    def test_witness_position_no_slab_fills_is_an_internal_error(self):
        # A needed score that no enumerated state has leaves its slot unset;
        # it is refused rather than decoded into an arbitrary state.
        space = _StateSpace(CollisionBounds.coerce(1))
        scores = np.concatenate([run for run, _ in slab_runs(space, _collision_slabs(space))])
        held = _float_scores(1, 0, np.zeros(1))
        assert np.isfinite(held).all() and held[0] in scores
        for values in (np.array([1e300]), np.array([held[0], 1e300])):
            with pytest.raises(RuntimeError, match="^internal error: 1 of .* matched no"):
                _witness_positions(
                    scores, values, np.arange(len(values)), np.arange(len(values))
                )

    @pytest.mark.parametrize("bound, n_slabs", [(1, 44), (2, 147), (3, 310)])
    def test_grid_keys_match_the_kernel_on_flat_columns(self, bound, n_slabs):
        # The open-grid kernel against the same kernel on one flat column per
        # limitation count, shaped (layout, triple, limitation tuple).
        space = _StateSpace(CollisionBounds.coerce(bound))
        assert space.lim_tuples == list(product(range(bound + 1), repeat=5))
        lims = np.array(space.lim_tuples, dtype=np.int64)
        slabs = 0
        for s, lc_sum, keys, base_ids in _collision_slabs(space):
            layout = space.layouts[s]
            # The slab's triples are the run of sorted triples with its lc_sum.
            lc_sums = [key[0] for key, _ in space.triples_by_s[s]]
            lo, n_triples = lc_sums.index(lc_sum), lc_sums.count(lc_sum)
            assert base_ids.tolist() == [
                [first_id + lo + i for i in range(n_triples)] for first_id, _, _ in layout
            ]
            slab_lims = len(lims) if s else 1
            assert keys.size == base_ids.size * slab_lims
            trip = np.array(
                [key for key, _ in space.triples_by_s[s]][lo : lo + n_triples], dtype=np.int64
            )
            assert (trip[:, 0] == lc_sum).all()
            pvpa = np.array([pvpa for _, pvpa, _ in layout], dtype=np.int64)[:, None, None]
            pt = np.array([pt for _, _, pt in layout], dtype=np.int64)[:, None, None]
            mca, mcb = trip[:, 1:2], trip[:, 2:3]
            columns = tuple(lims[:slab_lims].T)
            expected = seclim_numerator(
                columns, weight_numerators(s, pvpa, pt, mca + mcb, mca, mcb, columns)
            )
            assert np.array_equal(keys, expected.reshape(-1)), (s, lc_sum)
            slabs += 1
        assert slabs == n_slabs

    @pytest.mark.parametrize("bound, n_slabs", [(1, 44), (2, 147), (3, 310), (4, 533)])
    def test_slab_scores_strictly_decrease_in_key_order(self, bound, n_slabs):
        # Within a slab the score falls as the limitation key grows, so one
        # score interval is one key interval: a near-pass filter on key
        # ranges rests on this, checked in float as the search computes it.
        slabs = 0
        for s, lc_sum, keys, _ in _collision_slabs(_StateSpace(CollisionBounds.coerce(bound))):
            keys, _, starts = _group_keys(keys)
            scores = _float_scores(s, lc_sum, keys[starts])
            assert np.all(np.diff(scores) < 0), (s, lc_sum)
            slabs += 1
        assert slabs == n_slabs

    def test_close_gaps_across_block_boundaries(self):
        # Gaps are taken a block of 2**16 at a time; close pairs that
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
        for _, _, slab_keys, _ in _collision_slabs(_StateSpace(CollisionBounds.coerce(2))):
            expected_order = np.argsort(slab_keys, kind="stable")
            expected_keys = slab_keys[expected_order]
            keys, order, starts = _group_keys(slab_keys)
            assert np.array_equal(order, expected_order)
            assert np.array_equal(keys, expected_keys)
            assert np.array_equal(starts, np.flatnonzero(np.diff(keys, prepend=-1)))

    @pytest.mark.parametrize("bound", [1, 2, 3], ids=["b1", "b2", "b3"])
    @pytest.mark.parametrize(
        "epsilon, tag",
        [
            pytest.param(0.0, "0", id="eps0"),
            pytest.param(1e-9, "1e-9", id="eps1e-9"),
            pytest.param(1e-6, "1e-6", id="eps1e-6"),
        ],
    )
    def test_findings_match_golden(self, bound, epsilon, tag, fixtures):
        # Recorded before the packed-key sort and the scores-only near pass,
        # and bounds 1 before the int kernel; bounds 1 runs on the int
        # kernel, 2 and 3 on numpy.  The coverage records pin the near-pair
        # and skip counts.
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
        with pytest.raises(DomainError, match=r"^bounds must be >= 0, got -1$"):
            CollisionBounds.coerce(-1)
        # Each field is checked where the record is built, before numpy
        # sees it; a bool or a float is refused, not truncated.
        for args, message in [
            ((-1, 2, 2), "bounds.porosity must be >= 0, got -1"),
            ((2, -1, 2), "bounds.control must be >= 0, got -1"),
            ((2, 2, -1), "bounds.limitation must be >= 0, got -1"),
            ((2.0, 2, 2), "bounds.porosity must be an int, got 2.0"),
            ((2, True, 2), "bounds.control must be an int, got True"),
            ((2, 2, "2"), "bounds.limitation must be an int, got '2'"),
        ]:
            with pytest.raises(DomainError) as raised:
                CollisionBounds(*args)
            assert str(raised.value) == message
        code, out, err = dispatch(["demo", "--kind", "collision", "--bounds", "-1"])
        assert (code, out) == (2, b"")
        assert err == b"ravkit: domain error: bounds must be >= 0, got -1\n"
        for bounds, message in [(2.7, "got 2.7"), (True, "got True"), (False, "got False")]:
            with pytest.raises(DomainError, match=f"^bounds must be an int, {message}$"):
                collision_search(bounds)


# Every bounds (p, c, l) in {0, 1, 2}**3 that the int kernel serves.
INT_KERNEL_BOUNDS = [
    bounds for bounds in product(range(3), repeat=3)
    if _StateSpace(CollisionBounds(*bounds)).n_states <= _INT_KERNEL_STATES
]



def bounds_id(bounds: tuple[int, int, int]) -> str:
    return "-".join(map(str, bounds))


class TestIntKernel:
    """The int kernel against the numpy kernel, both called directly: the
    same coverage, exact pairs and near pairs as state codes, and the same
    float score, bit for bit, for every distinct key."""

    EPSILONS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.1)

    def test_the_limit_splits_the_grid(self):
        assert _INT_KERNEL_STATES == 2**16
        # Past it: (1, 2, 2) 193,206 states, (2, 1, 2) 122,483, (2, 2, 2) 457,833.
        assert len(INT_KERNEL_BOUNDS) == 24
        assert (2, 2, 1) in INT_KERNEL_BOUNDS  # 60,309 states

    @pytest.mark.parametrize("bounds", INT_KERNEL_BOUNDS, ids=bounds_id)
    def test_kernels_agree(self, bounds):
        space = _StateSpace(CollisionBounds(*bounds))
        for epsilon in self.EPSILONS:
            for max_findings in (10**6, 3):
                got = _int_kernel(space, epsilon, max_findings)
                assert got == _numpy_kernel(space, epsilon, max_findings), (epsilon, max_findings)

    @pytest.mark.parametrize("bounds", INT_KERNEL_BOUNDS, ids=bounds_id)
    def test_every_distinct_key_scores_the_same_bits(self, bounds, monkeypatch):
        # The int kernel takes math.log1p, the numpy kernel numpy's log1p.
        # Given numpy's log1p, the int kernel scores every distinct key to
        # the same bits: one formula, in one order.  Each with its own, a
        # score may differ only where the two log1p differ, and a host
        # where they do is reported: numpy's SIMD log1p is not the C
        # library's on every CPU.
        space = _StateSpace(CollisionBounds(*bounds))
        slabs = []
        for (s, lc_sum, groups), (s_np, lc_np, keys, _) in zip(
            _int_slabs(space), _collision_slabs(space), strict=True
        ):
            assert (s, lc_sum) == (s_np, lc_np)
            sorted_keys, _, starts = _group_keys(keys)
            assert sorted(groups) == sorted_keys[starts].tolist()
            slabs.append((s, lc_sum, sorted_keys[starts]))

        def differ(s, lc_sum, keys):
            ints = np.array(_int_scores(s, lc_sum, keys.tolist()), dtype=float)
            return ints.view(np.uint64) != _float_scores(s, lc_sum, keys).view(np.uint64)

        with monkeypatch.context() as patched:
            patched.setattr(math, "log1p", np.log1p)
            assert not any(differ(*slab).any() for slab in slabs)
        scores = differing = 0
        for s, lc_sum, keys in slabs:
            x = (100.0 * keys / float((10 * s * s) ** 2)).tolist() if s else []
            log1p_differs = np.array([math.log1p(v) != np.log1p(v) for v in x], dtype=bool)
            mask = differ(s, lc_sum, keys)
            assert not (mask & ~log1p_differs if s else mask).any(), (s, lc_sum)
            scores, differing = scores + len(keys), differing + int(mask.sum())
        if differing:
            warnings.warn(
                f"numpy's log1p is not math.log1p on this host: {differing} of {scores} "
                f"distinct-key scores at bounds {bounds} differ between the kernels"
            )

    def test_tied_scores_keep_slab_then_key_order(self, monkeypatch):
        # As test_witness_ties_rank_by_slab_then_key for the numpy kernel:
        # at s = 0 every key scores the same, so fake slabs stand in, each
        # key a group of one whose head code is also its structure.
        slabs = [(0, 1, {5: [7, 7, None, 1], 3: [1, 1, None, 1]}), (0, 1, {2: [0, 0, None, 1]})]
        monkeypatch.setattr(critique, "_int_slabs", lambda space: iter(slabs))
        coverage, exact_pairs, near_pairs = _int_kernel(None, 1e-9, 10)
        # Keys 3 and 5 of the first slab, then the second slab's 2.
        assert near_pairs == [(1, 7), (7, 0)] and exact_pairs == []
        assert coverage["near_pairs"] == 2 and coverage["distinct_keys"] == 3

    def test_int_kernel_forced_at_bounds_two(self):
        space = _StateSpace(CollisionBounds.coerce(2))
        assert space.n_states == 457_833 > _INT_KERNEL_STATES
        got = _int_kernel(space, 1e-6, 10**6)
        assert got == _numpy_kernel(space, 1e-6, 10**6)
        assert got[0]["near_pairs"] == 306

    @pytest.mark.parametrize("limit, bounds, kernel", [
        (2**16, CollisionBounds(2, 2, 1), "_int_kernel"),
        (2**16, CollisionBounds(2, 2, 2), "_numpy_kernel"),
        (5_771, CollisionBounds(1, 1, 1), "_int_kernel"),
        (5_770, CollisionBounds(1, 1, 1), "_numpy_kernel"),
    ])
    def test_search_picks_the_kernel_by_state_count(self, monkeypatch, limit, bounds, kernel):
        calls = []
        for name in ("_int_kernel", "_numpy_kernel"):
            real = getattr(critique, name)

            def recorded(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(critique, name, recorded)
        monkeypatch.setattr(critique, "_INT_KERNEL_STATES", limit)
        collision_search(bounds, 0, max_findings=1)
        assert calls == [kernel]


class TestFloatScoreBound:
    """The near pass ranks each distinct key by ``_float_scores``, a float
    formula on the key; the pipeline scores the key's witness scope with
    ``actual_security``.  The two may differ in the last bits, and the
    tolerance a near pair needs to be certain of its order is derived from
    how far.  Measured with this test: bounds 1, none of 1,789 keys differ;
    bounds 2, 58 of 128,959 keys differ, by at most 2.842e-14 (2 *
    np.spacing(100.0)); bounds 3, seed-0 sample, 13 of 19,946 keys differ,
    by at most 5.684e-14 (4 * np.spacing(100.0), 2 * np.spacing(128.0))."""

    BOUND = 4 * np.spacing(128.0)

    # (bound, share of distinct keys checked, how many that is)
    @pytest.mark.parametrize("bound, sampled, expected", [
        (1, None, 1_789), (2, None, 128_959), (3, 20_000 / 2_381_746, 19_946),
    ], ids=["bounds-1", "bounds-2", "bounds-3-sample"])
    def test_float_scores_match_the_pipeline(self, bound, sampled, expected):
        space = _StateSpace(CollisionBounds.coerce(bound))
        rng = np.random.default_rng(0)
        checked, worst = 0, 0.0
        for s, lc_sum, keys, base_ids in _collision_slabs(space):
            sorted_keys, order, starts = _group_keys(keys)
            if sampled is not None:
                starts = starts[rng.random(len(starts)) < sampled]
            scores = _float_scores(s, lc_sum, sorted_keys[starts])
            codes = space.codes(base_ids.reshape(-1), order.size // base_ids.size, order[starts])
            for code, score in zip(codes.tolist(), scores.tolist()):
                actsec = actual_security(space.scope(code, "witness")).actsec
                worst = max(worst, abs(score - actsec))
            checked += len(starts)
        assert checked == expected
        assert worst <= self.BOUND, f"{worst!r} past {self.BOUND!r}"


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
            references_neutral=1,
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

    @pytest.mark.parametrize("tolerance", [-1e-3, float("nan")])
    def test_negative_or_nan_tolerance_rejected(self, tolerance):
        with pytest.raises(DomainError, match="tolerance must be a number >= 0"):
            trust_equivalence_demo(tolerance=tolerance)


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
