"""Executable critiques of the rav and Trust calculus.

Each check produces a reproducible :class:`CritiqueFinding` (inputs, scores,
verdict, narrative) rather than prose alone:

* :func:`permutation_demo` swaps two control classes' counts and compares
  Actual Security: within a meta-class the pipeline provably cannot tell
  which control covers a pore ("each control is valued as 10% of a pore",
  OSSTMM v3 ch.4 p.67).
* :func:`collision_search` exhaustively enumerates scope configurations
  within small count bounds and emits pairs with (near-)equal scores that
  differ in porosity or limitation structure, operationalising "the rav
  tells us nothing that we have not previously told the rav".
* :func:`formula_discrepancy_demo` evaluates the two published forms of the
  final Actual Security combination, which disagree in the sign of the
  control/limitation cross term and in squaring the limitation log.
* :func:`trust_aggregation_demo` exhibits applicant pairs that the
  average-combined consistency rule and a worst-case (max) combination rank
  in opposite order; :func:`trust_equivalence_demo` reproduces the claimed
  1/32 equivalence of a prior-conviction record and a small-town-community
  record, which holds only up to rounding.

numpy serves the collision search alone and is imported inside it, so
importing this module (and with it ``ravkit``) does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .errors import DomainError
from .ingest import scope_to_obj
from .metrics import (
    ControlClass,
    ControlCounts,
    LimitationCounts,
    PorosityCounts,
    RavBreakdown,
    Scope,
    actual_security,
    combine_bases,
    seclim_numerator,
    toy_scope,
    weight_numerators,
)

if TYPE_CHECKING:
    import numpy as np

    from .trust import ApplicantRecord

_META_A = tuple(cls for cls in ControlClass if cls.meta_class == "A")
_META_B = tuple(cls for cls in ControlClass if cls.meta_class == "B")


@dataclass(frozen=True, slots=True)
class CritiqueFinding:
    """One reproducible demonstration: inputs, scores, verdict, explanation."""

    kind: str
    inputs: Mapping[str, Any]
    scores: Mapping[str, Any]
    verdict: str
    narrative: str

    def __post_init__(self) -> None:
        if self.verdict not in ("holds", "violated"):
            raise DomainError(f"verdict must be holds|violated, got {self.verdict!r}")

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "inputs": dict(self.inputs),
            "scores": dict(self.scores),
            "verdict": self.verdict,
            "narrative": self.narrative,
        }


# ---------------------------------------------------------------------------
# Control permutations
# ---------------------------------------------------------------------------

_RATIONAL_FIELDS = (
    "opsec_sum",
    "lc_sum",
    "mc_sum",
    "mc_class_a",
    "mc_class_b",
    "mc_vg",
    "seclim_sum",
)


def rational_signature(breakdown: RavBreakdown) -> tuple:
    """The aggregate exact-rational intermediates that determine the score."""
    return tuple(getattr(breakdown, name) for name in _RATIONAL_FIELDS) + (
        breakdown.weights,
    )


def swap_control_counts(scope: Scope, source: ControlClass, target: ControlClass) -> Scope:
    counts = {cls: scope.controls.get(cls) for cls in ControlClass}
    counts[source], counts[target] = counts[target], counts[source]
    return replace(scope, controls=ControlCounts.from_mapping(counts))


def permutation_demo(
    scope: Scope, source: ControlClass, target: ControlClass
) -> CritiqueFinding:
    """Swap two classes' counts and compare Actual Security.

    Within one meta-class (or when the two counts are equal) the score is
    guaranteed unchanged; across meta-classes the delta is whatever direct
    recomputation says it is, which can be zero as well: the pipeline sees
    controls only through four sums.
    """
    if source == target:
        raise DomainError("source and target control classes must differ")
    before = actual_security(scope)
    swapped_scope = swap_control_counts(scope, source, target)
    after = actual_security(swapped_scope)
    same_meta = source.meta_class == target.meta_class
    equal_counts = scope.controls.get(source) == scope.controls.get(target)
    rational_equal = rational_signature(before) == rational_signature(after)
    holds = exact_scores_equal(before, after) and before.actsec == after.actsec
    delta = after.actsec - before.actsec
    if same_meta:
        detail = "the classes share a meta-class, so invariance is structural"
    elif equal_counts:
        detail = "the swapped counts are equal, so the scope is unchanged"
    elif holds:
        detail = (
            "the swap crosses meta-classes yet the score is unchanged: the "
            "pipeline only sees the missing-control sums, and this swap "
            "permutes them into the same weight multiset"
        )
    else:
        detail = "the swap crosses meta-classes and moves the class-A/class-B split"
    narrative = (
        f"OSSTMM v3 weighs every control class identically ('Each control is "
        f"valued as 10% of a pore', ch.4 p.67). Swapping the "
        f"{source.value} and {target.value} counts "
        f"{'leaves Actual Security unchanged' if holds else 'changes Actual Security'}"
        f" on scope {scope.id!r}: {detail}. A score that cannot distinguish "
        f"which protection is present tells the reader less than the input "
        f"counts themselves."
    )
    return CritiqueFinding(
        kind="control-permutation",
        inputs={
            "scope": scope_to_obj(scope),
            "swapped_scope": scope_to_obj(swapped_scope),
            "source": source.value,
            "target": target.value,
        },
        scores={
            "actsec_before": before.actsec,
            "actsec_after": after.actsec,
            "delta": repr(delta),
            "rational_intermediates_identical": rational_equal,
            "same_meta_class": same_meta,
            "invariance_structural": same_meta or equal_counts,
        },
        verdict="holds" if holds else "violated",
        narrative=narrative,
    )


def cross_class_counterexample(limit: int = 3) -> CritiqueFinding:
    """Search small scopes for a cross-meta-class swap that changes the score.

    Deterministic: first violating instance in enumeration order wins.
    """
    for pv, pa in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for au in range(limit + 1):
            for extra in range(limit + 1):
                controls = ControlCounts.from_mapping(
                    {ControlClass.AUTHENTICATION: au, ControlClass.INDEMNIFICATION: extra}
                )
                scope = Scope(
                    id=f"cross-{pv}{pa}-{au}{extra}",
                    porosity=PorosityCounts(pv, pa, 0),
                    controls=controls,
                    limitations=LimitationCounts(1, 1, 1, 1, 1),
                )
                for source in _META_A:
                    for target in _META_B:
                        if scope.controls.get(source) == scope.controls.get(target):
                            continue
                        finding = permutation_demo(scope, source, target)
                        if finding.verdict == "violated":
                            return finding
    raise DomainError(f"no cross-meta-class counterexample found with counts <= {limit}")


# ---------------------------------------------------------------------------
# Score collisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CollisionBounds:
    """Per-count maxima for the exhaustive enumeration."""

    porosity: int = 3
    control: int = 3
    limitation: int = 3

    @classmethod
    def coerce(cls, bounds: "CollisionBounds | int") -> "CollisionBounds":
        if isinstance(bounds, CollisionBounds):
            return bounds
        b = int(bounds)
        if b < 0:
            raise DomainError(f"bounds must be >= 0, got {b}")
        return cls(porosity=b, control=b, limitation=b)

    def to_obj(self) -> dict:
        return {
            "porosity": self.porosity,
            "control": self.control,
            "limitation": self.limitation,
        }


def _control_signatures(bound: int, opsec: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """Distinct (lc_sum, mc_sum) pairs achievable by one meta-class, with a
    witness count multiset each."""
    seen: dict[tuple[int, int], tuple[int, ...]] = {}
    for multiset in combinations_with_replacement(range(bound + 1), 5):
        lc = sum(multiset)
        mc = sum(max(opsec - c, 0) for c in multiset)
        seen.setdefault((lc, mc), multiset)
    return seen


@dataclass(frozen=True, slots=True)
class _Base:
    pv: int
    pa: int
    pt: int
    splits: tuple[tuple[int, int], ...]
    lc_sum: int
    mc_a: int
    mc_b: int
    witness_a: tuple[int, ...]
    witness_b: tuple[int, ...]


def _base_scope(base: _Base, lim: Sequence[int], scope_id: str, split: int = 0) -> Scope:
    pv, pa = base.splits[split]
    counts: dict[ControlClass, int] = {}
    for cls, count in zip(_META_A, base.witness_a):
        counts[cls] = count
    for cls, count in zip(_META_B, base.witness_b):
        counts[cls] = count
    return Scope(
        id=scope_id,
        porosity=PorosityCounts(pv, pa, base.pt),
        controls=ControlCounts.from_mapping(counts),
        limitations=LimitationCounts(*(int(x) for x in lim)),
    )


def exact_scores_equal(a: RavBreakdown, b: RavBreakdown) -> bool:
    """Exact collision: the rational triple feeding the logs is identical."""
    return (
        a.opsec_sum == b.opsec_sum
        and a.lc_sum == b.lc_sum
        and a.seclim_sum == b.seclim_sum
    )


@dataclass(frozen=True, slots=True)
class _Slab:
    """All states of one (porosity total, lc_sum) slab, keyed exactly.

    ``keys`` holds each state's limitation-sum numerator over the
    denominator ``(10*s**2)**2``, flattened from the shape (porosity
    layout, control triple, limitation tuple); a flat index is a state's
    position in enumeration order.
    """

    s: int
    lc_sum: int
    keys: np.ndarray
    first_ids: np.ndarray  # first base id of each porosity layout
    lo: int  # offset of the slab's first control triple within its layout
    triples: int
    lims: int

    def structure(self, idx):
        """Porosity layout and limitation tuple, as one comparable integer."""
        return idx // (self.triples * self.lims) * self.lims + idx % self.lims

    def locate(self, idx):
        """Base id and limitation id of the states at ``idx``."""
        base = self.first_ids[idx // (self.triples * self.lims)] + self.lo
        return base + idx // self.lims % self.triples, idx % self.lims


def _collision_bases(
    b: CollisionBounds,
) -> tuple[list[_Base], dict[int, list], dict[int, list[tuple[int, int, int]]]]:
    """Every (porosity layout, control triple) base within ``b``.

    Bases come in enumeration order: trust outer, visibility+access inner,
    control triples sorted.  The control triples depend on the porosity
    total ``s`` alone, so all layouts of one ``s`` share them.  Returns the
    bases, the sorted triples with witnesses of each ``s``, and the layouts
    of each ``s`` as ``(first base id, pv+pa, pt)``.
    """
    bases: list[_Base] = []
    triples_by_s: dict[int, list] = {}
    layouts: dict[int, list[tuple[int, int, int]]] = {}
    for pt in range(b.porosity + 1):
        for pvpa in range(2 * b.porosity + 1):
            s = pvpa + pt
            if s == 0:
                splits = ((0, 0),)
            else:
                splits = tuple(
                    (pv, pvpa - pv)
                    for pv in range(max(0, pvpa - b.porosity), min(pvpa, b.porosity) + 1)
                )
            if s not in triples_by_s:
                sigs = _control_signatures(b.control, s)
                triples: dict[tuple[int, int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
                for (lca, mca), wa in sigs.items():
                    for (lcb, mcb), wb in sigs.items():
                        triples.setdefault((lca + lcb, mca, mcb), (wa, wb))
                triples_by_s[s] = sorted(triples.items())
            layouts.setdefault(s, []).append((len(bases), pvpa, pt))
            for (lc, mca, mcb), (wa, wb) in triples_by_s[s]:
                bases.append(
                    _Base(
                        pv=splits[0][0],
                        pa=splits[0][1],
                        pt=pt,
                        splits=splits,
                        lc_sum=lc,
                        mc_a=mca,
                        mc_b=mcb,
                        witness_a=wa,
                        witness_b=wb,
                    )
                )
    return bases, triples_by_s, layouts


def _collision_slabs(
    triples_by_s: Mapping[int, list],
    layouts: Mapping[int, list[tuple[int, int, int]]],
    lim_tuples: np.ndarray,
):
    """Yield every slab of the enumeration in ``(s, lc_sum)`` order."""
    import numpy as np

    for s, layout in sorted(layouts.items()):
        trip = np.array([key for key, _ in triples_by_s[s]], dtype=np.int64)
        first_ids = np.array([fid for fid, _, _ in layout], dtype=np.int64)
        pvpa = np.array([p for _, p, _ in layout], dtype=np.int64)[:, None, None]
        pt = np.array([t for _, _, t in layout], dtype=np.int64)[:, None, None]
        # Zero porosity admits only the all-zero limitation tuple.
        n_l = 1 if s == 0 else len(lim_tuples)
        lims = tuple(lim_tuples[:n_l].T)
        edges = [0, *(np.flatnonzero(np.diff(trip[:, 0])) + 1).tolist(), len(trip)]
        for lo, hi in zip(edges, edges[1:]):
            mca, mcb = trip[lo:hi, 1:2], trip[lo:hi, 2:3]
            keys = seclim_numerator(
                lims, weight_numerators(s, pvpa, pt, mca + mcb, mca, mcb, lims)
            )
            yield _Slab(
                s=s,
                lc_sum=int(trip[lo, 0]),
                keys=keys.reshape(-1),
                first_ids=first_ids,
                lo=lo,
                triples=hi - lo,
                lims=n_l,
            )


def _seclim_num_bound(b: CollisionBounds) -> int:
    """An upper bound on every collision key within ``b``: the key grows with
    every kernel argument, taken at its largest (``mc <= 10*s``, ``5*s``)."""
    s, lims = 3 * b.porosity, (b.limitation,) * 5
    return seclim_numerator(
        lims, weight_numerators(s, 2 * b.porosity, b.porosity, 10 * s, 5 * s, 5 * s, lims)
    )


def _slab_size_bound(b: CollisionBounds) -> int:
    """An upper bound on the states of one slab within ``b``, from the bounds alone.

    A slab holds the porosity layouts of one total ``s``, the control
    triples of one ``lc_sum`` and every limitation tuple.  Once ``s`` reaches
    the control bound, every class misses ``s - count`` controls, so a triple
    is fixed by its meta-class A count sum: at most ``5*c + 1`` per slab.
    Below that the two missing sums take at most ``5*s + 1`` values each.
    """
    p, c = b.porosity, b.control
    largest = 1
    for s in range(1, 3 * p + 1):
        layouts = min(p, s) - max(0, s - 2 * p) + 1
        triples = 5 * c + 1 if s >= c else (5 * s + 1) ** 2
        largest = max(largest, layouts * triples * (b.limitation + 1) ** 5)
    return largest


def _packed_key_bits(b: CollisionBounds) -> int:
    """Bits of the largest packed sort key ``key << shift | index`` within ``b``.

    Past 63 key bits the index bits cannot matter, and the slab bound, which
    walks every porosity total, is not computed: huge bounds fail at once.
    """
    key_bits = _seclim_num_bound(b).bit_length()
    if key_bits > 63:
        return key_bits
    return key_bits + (_slab_size_bound(b) - 1).bit_length()


def _group_keys(slab: _Slab) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort a slab's states by key, equal keys in enumeration order.

    One in-place sort of ``key << shift | index`` (``slab.keys`` is
    consumed).  Returns the sorted keys, the enumeration index of each
    sorted state, and the start of each run of equal keys.
    """
    import numpy as np

    keys = slab.keys
    n = keys.size
    shift = (n - 1).bit_length()
    keys <<= shift
    keys |= np.arange(n, dtype=np.int64)
    keys.sort()
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    new_key = np.ones(n, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new_key[1:])
    return keys, order, np.flatnonzero(new_key)


def _float_scores(s: int, lc_sum: int, seclim_num: np.ndarray) -> np.ndarray:
    """Actual Security of states sharing ``s`` and ``lc_sum``, in float."""
    import numpy as np

    f = math.log1p(10.0 * lc_sum) ** 2
    a = math.log1p(100.0 * s) ** 2
    if s:
        s_base = np.log1p(100.0 * seclim_num / float((10 * s * s) ** 2)) ** 2
    else:
        s_base = np.zeros(len(seclim_num))
    return combine_bases(a, f, s_base)


def _close_gaps(scores: np.ndarray, epsilon: float) -> np.ndarray:
    """Positions ``i`` of sorted ``scores`` with ``scores[i+1] - scores[i] <= epsilon``.

    The differences are taken a block at a time, so no second array of
    the full length is held.
    """
    import numpy as np

    block = 1 << 20
    found = [
        np.flatnonzero(np.diff(scores[lo : lo + block + 1]) <= epsilon) + lo
        for lo in range(0, len(scores) - 1, block)
    ]
    return np.concatenate(found) if found else np.empty(0, dtype=np.intp)


def _witness_codes(
    slabs, values: np.ndarray, first_at: np.ndarray, needed: np.ndarray, n_lims: int
) -> np.ndarray:
    """The witness state of each ``needed`` position of the sorted scores.

    The sorted scores hold every slab's distinct-key scores; ties take the
    order a stable sort of the slabs' runs (slab order, then key order)
    gives them.  ``values`` are the distinct scores at the needed
    positions and ``first_at`` the sorted position of each one's first copy.
    The slabs are enumerated again, and each score equal to one of
    ``values`` counts its rank among the equal scores seen so far: first
    position plus rank is its sorted position.  Returns
    ``base_id * n_lims + lim_id`` per needed position.
    """
    import numpy as np

    seen = np.zeros(len(values), dtype=np.int64)
    codes = np.empty(len(needed), dtype=np.int64)
    for slab in slabs:
        keys, order, starts = _group_keys(slab)
        slab_scores = _float_scores(slab.s, slab.lc_sum, keys[starts])
        del keys
        at = np.searchsorted(values, slab_scores)
        np.minimum(at, len(values) - 1, out=at)
        hits = np.flatnonzero(values[at] == slab_scores)
        if not len(hits):
            continue
        # Hits in value order, each value's hits kept in key order.
        by_value = np.argsort(at[hits], kind="stable")
        hits, at = hits[by_value], at[hits][by_value]
        new_value = np.ones(len(at), dtype=bool)
        np.not_equal(at[1:], at[:-1], out=new_value[1:])
        runs = np.flatnonzero(new_value)
        run_sizes = np.diff(runs, append=len(at))
        position = first_at[at] + seen[at] + np.arange(len(at)) - np.repeat(runs, run_sizes)
        seen[at[runs]] += run_sizes
        slot = np.minimum(np.searchsorted(needed, position), len(needed) - 1)
        wanted = needed[slot] == position
        base_ids, lim_ids = slab.locate(order[starts[hits[wanted]]])
        codes[slot[wanted]] = base_ids * n_lims + lim_ids
    return codes


def collision_search(
    bounds: "CollisionBounds | int" = 3,
    epsilon: float = 1e-9,
    seed: int = 0,
    *,
    max_findings: int = 25,
) -> list[CritiqueFinding]:
    """Exhaustively enumerate scopes within bounds and report score collisions.

    States are enumerated up to within-meta-class control permutations and
    control layouts sharing the same (lc_sum, missing-A, missing-B) sums;
    collapsing those loses no reportable pair because a finding must differ
    in porosity or limitation structure, both of which stay explicit.

    The search is exact by construction.  It walks one porosity total ``s``
    and, within it, one ``lc_sum`` slab at a time, and keys each state by
    the integer numerator of its limitation sum over ``(10*s**2)**2``.  Two
    states collide exactly iff their ``(s, lc_sum, key)`` triples are
    equal, so exact collisions are groups of equal keys, found with no
    float comparison.  Each slab is sorted once, in place, as the int64
    ``key << shift | index``, so every group lists its members in
    enumeration order; bounds whose packed keys could pass 63 bits are
    refused before anything is enumerated.  A group yields a pair only if
    two members differ in ``(pv+pa, pt)`` or in the limitation tuple;
    groups differing only in controls are skipped.

    For ``epsilon > 0`` each distinct key has one float score and, as its
    witness, the group's first state.  The first pass keeps only the
    scores, in one buffer sorted in place; every adjacent pair within
    ``epsilon`` whose witnesses differ beyond controls is a near
    collision.  A second enumeration recovers the witnesses of just those
    scores, ties ordered by slab and then by key.  Every pair is
    re-verified through :func:`actual_security` before it is emitted.

    Findings come in a fixed order: the porosity-split pair (visibility and
    access counts swapped), exact pairs in ``(s, lc_sum, key)`` order, then
    near pairs in ascending score order, at most ``max_findings`` in all.
    Each ``score-collision`` finding carries the search's ``coverage``
    record (see docs/formats.md), whose ``truncated`` flag says whether
    reportable pairs were left out.  The whole space is always enumerated;
    ``seed`` does not change the result and is recorded for
    reproducibility of the emitted document.

    Measured cold (``ravkit demo --kind collision``, Python 3.11, numpy
    2.4, a 2-core x86-64 host): bounds 3 takes 1.4-1.6 s and 64 MB peak
    RSS at ``epsilon`` 1e-9; bounds 4 takes 12-13 s and 221 MB at 1e-9,
    5.6-5.9 s and 99 MB at 0.
    """
    import numpy as np

    b = CollisionBounds.coerce(bounds)
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon}")
    if _packed_key_bits(b) > 63:
        raise DomainError(
            f"bounds {b.to_obj()} overflow the 64-bit packed collision keys"
        )

    lim_tuples = np.array(
        list(product(range(b.limitation + 1), repeat=5)), dtype=np.int64
    )
    n_lims = len(lim_tuples)
    bases, triples_by_s, layouts = _collision_bases(b)

    states = distinct_keys = exact_groups = skipped = 0
    exact_pairs: list[tuple[int, int, int, int]] = []
    # Near pass: every distinct key's score, appended to one growing buffer.
    scores = np.empty(0)
    filled = 0
    for slab in _collision_slabs(triples_by_s, layouts, lim_tuples):
        n = slab.keys.size
        states += n
        sorted_keys, order, starts = _group_keys(slab)
        sizes = np.diff(starts, append=n)
        distinct_keys += len(starts)
        # A group's head is its first state in enumeration order; the group
        # is reportable if a member differs from the head in structure.
        heads = order[starts]
        differs = slab.structure(order) != np.repeat(slab.structure(heads), sizes)
        reportable = np.logical_or.reduceat(differs, starts)
        groups = np.flatnonzero(reportable)
        exact_groups += len(groups)
        skipped += int(np.count_nonzero((sizes > 1) & ~reportable))
        for g in groups[: max(0, max_findings - len(exact_pairs))]:
            partner = order[starts[g] + np.argmax(differs[starts[g] : starts[g] + sizes[g]])]
            head_at, partner_at = slab.locate(heads[g]), slab.locate(partner)
            exact_pairs.append(tuple(int(x) for x in (*head_at, *partner_at)))
        if epsilon > 0:
            end = filled + len(starts)
            if end > len(scores):
                scores.resize(max(end, len(scores) * 9 // 8, 1 << 10), refcheck=False)
            scores[filled:end] = _float_scores(slab.s, slab.lc_sum, sorted_keys[starts])
            filled = end

    # Near collisions: adjacent distinct keys in ascending score order.
    near_pairs: list[tuple[int, int, int, int]] = []
    n_near = 0
    scores = scores[:filled]
    scores.sort()
    close = _close_gaps(scores, epsilon)
    if len(close):
        needed = np.union1d(close, close + 1)
        values = np.unique(scores[needed])
        first_at = np.searchsorted(scores, values)
        del scores
        codes = _witness_codes(
            _collision_slabs(triples_by_s, layouts, lim_tuples), values, first_at, needed, n_lims
        )
        slots = np.searchsorted(needed, close)
        for code_a, code_b in zip(codes[slots].tolist(), codes[slots + 1].tolist()):
            (base_a, lim_a), (base_b, lim_b) = divmod(code_a, n_lims), divmod(code_b, n_lims)
            first, second = bases[base_a], bases[base_b]
            if lim_a == lim_b and (first.pv + first.pa, first.pt) == (
                second.pv + second.pa,
                second.pt,
            ):
                skipped += 1
                continue
            n_near += 1
            if len(near_pairs) < max_findings:
                near_pairs.append((base_a, lim_a, base_b, lim_b))

    # Porosity-split collision: swapping counts between visibility and
    # access leaves every pipeline quantity identical.
    split_lim = 1 if n_lims > 1 else 0
    split_pairs = [
        (base_id, split_lim, base_id, split_lim)
        for base_id, base in enumerate(bases)
        if len(base.splits) >= 2
    ][:1]

    verified: list[tuple[Scope, Scope, RavBreakdown, RavBreakdown]] = []
    examined = 0
    candidates = [(True, pair) for pair in split_pairs] + [
        (False, pair) for pair in exact_pairs + near_pairs
    ]
    for is_split, (base_a, lim_a, base_b, lim_b) in candidates:
        if len(verified) >= max_findings:
            break
        examined += 1
        prefix = f"split-{base_a}" if is_split else f"collision-{len(verified)}"
        scope_a = _base_scope(bases[base_a], lim_tuples[lim_a], f"{prefix}-a")
        scope_b = _base_scope(
            bases[base_b], lim_tuples[lim_b], f"{prefix}-b", split=int(is_split)
        )
        ba, bb = actual_security(scope_a), actual_security(scope_b)
        if exact_scores_equal(ba, bb) or (
            epsilon > 0 and abs(bb.actsec - ba.actsec) <= epsilon
        ):
            verified.append((scope_a, scope_b, ba, bb))

    coverage = {
        "states": states,
        "distinct_keys": distinct_keys,
        "exact_groups": exact_groups,
        "near_pairs": n_near,
        "skipped_control_only": skipped,
        "pairs_verified": examined,
        "truncated": examined < len(split_pairs) + exact_groups + n_near,
    }
    return [_collision_finding(*pair, b, epsilon, seed, coverage) for pair in verified]


def _collision_finding(
    scope_a: Scope,
    scope_b: Scope,
    ba: RavBreakdown,
    bb: RavBreakdown,
    bounds: CollisionBounds,
    epsilon: float,
    seed: int,
    coverage: Mapping[str, Any],
) -> CritiqueFinding:
    exact = exact_scores_equal(ba, bb)
    note = "porosity" if scope_a.porosity != scope_b.porosity else "limitation"
    return CritiqueFinding(
        kind="score-collision",
        inputs={
            "scope_a": scope_to_obj(scope_a),
            "scope_b": scope_to_obj(scope_b),
            "bounds": bounds.to_obj(),
            "epsilon": repr(epsilon),
            "seed": seed,
        },
        scores={
            "actsec_a": ba.actsec,
            "actsec_b": bb.actsec,
            "delta": repr(abs(bb.actsec - ba.actsec)),
            "exact": exact,
            "coverage": dict(coverage),
        },
        verdict="holds",
        narrative=(
            f"Two scopes with different {note} structure"
            " receive the same Actual Security"
            + (" exactly" if exact else f" within {epsilon!r}")
            + ": the score is not injective in what it claims to "
            "measure, so it cannot be inverted back to the facts "
            "that produced it."
        ),
    )


# ---------------------------------------------------------------------------
# Formula discrepancy
# ---------------------------------------------------------------------------


def prose_actual_security(scope: Scope, squared: bool = False) -> float:
    """The running-text variant of the final combination.

    The text writes the limitation term as a single log (``squared=True``
    substitutes the squared form) and flips the sign of the
    controls-times-limitations cross term relative to the expanded formula.
    """
    b = actual_security(scope)
    a, f = b.opsec_base, b.fc_base
    s_lin = math.log(1 + 100 * b.seclim_sum) if b.seclim_sum > 0 else 0.0
    s_term = s_lin**2 if squared else s_lin
    return 100 + f - a - s_term - a * (f - s_term) / 100 + f * s_term / 100


def formula_discrepancy_demo(scope: Scope | None = None) -> CritiqueFinding:
    """Evaluate both published forms of the final combination on one scope."""
    scope = scope or toy_scope()
    b = actual_security(scope)
    figure = b.actsec
    prose_single = prose_actual_security(scope, squared=False)
    prose_squared = prose_actual_security(scope, squared=True)
    divergence = max(abs(figure - prose_single), abs(figure - prose_squared))
    agree = divergence <= 1e-9
    narrative = (
        "OSSTMM v3's worked rav calculation admits two readings: the "
        "running-text formula (single limitation log, positive "
        "controls-times-limitations cross term) and the expanded machine "
        "form (squared limitation log, negative cross term). On scope "
        f"{scope.id!r} they differ by up to {divergence:.3f} rav; only the "
        "expanded form reproduces the published result of roughly -12 for "
        "the single-host login example. A fully-controlled, limitation-free "
        "scope scores 100 - opsec_base**2/100 under that form, not the "
        "promised perfect 100."
    )
    return CritiqueFinding(
        kind="formula-discrepancy",
        inputs={"scope": scope_to_obj(scope)},
        scores={
            "figure_form": figure,
            "prose_single_log": prose_single,
            "prose_log_squared": prose_squared,
            "max_divergence": repr(divergence),
        },
        verdict="holds" if agree else "violated",
        narrative=narrative,
    )


# ---------------------------------------------------------------------------
# Trust aggregation
# ---------------------------------------------------------------------------
# These demos import trust when they run, so the other demos do not load it.


def _default_disagreement_record() -> ApplicantRecord:
    from .trust import ApplicantRecord, Polarity, Reference

    # Consistency ratios 1/5, 1/12, 1/4.
    return ApplicantRecord(
        applicant_id="applicant-a",
        months_unemployed=12,
        months_eligible=60,
        criminal_offenses_known=1,
        age_years=30,
        legal_adult_age=18,
        references=(Reference("e1", Polarity.NEUTRAL),),
        past_employer_count=4,
    )


def _uniform_ratio_record(q: Fraction, applicant_id: str) -> ApplicantRecord:
    """A record whose defined consistency ratios all equal ``q``.

    For q <= 1 all three ratios are constructed; otherwise only the
    offenses-per-adult-year ratio (the one not structurally capped at 1).
    """
    from .trust import ApplicantRecord, Polarity, Reference

    if q <= 1:
        refs = tuple(
            Reference(f"e{i}", Polarity.NEUTRAL) for i in range(q.numerator)
        )
        return ApplicantRecord(
            applicant_id=applicant_id,
            months_unemployed=q.numerator,
            months_eligible=q.denominator,
            criminal_offenses_known=q.numerator,
            age_years=18 + q.denominator,
            references=refs,
            past_employer_count=q.denominator,
        )
    return ApplicantRecord(
        applicant_id=applicant_id,
        criminal_offenses_known=q.numerator,
        age_years=18 + q.denominator,
    )


def trust_aggregation_demo(
    record: ApplicantRecord | None = None, max_denominator: int = 24
) -> CritiqueFinding:
    """Search for a record pair ranked oppositely by average and by max.

    The first record's defined consistency ratios give (average, max); any
    uniform-ratio record strictly between them is ranked riskier by the
    average rule and safer by the worst-case rule.
    """
    from .trust import consistency_ratios

    record = record or _default_disagreement_record()
    ratios = [r.value for r in consistency_ratios(record) if r.defined]
    if len(ratios) < 2 or len(set(ratios)) < 2:
        raise DomainError(
            "need at least two defined, distinct consistency ratios to "
            "demonstrate an aggregation disagreement"
        )
    avg = sum(ratios, Fraction(0)) / len(ratios)
    top = max(ratios)
    between: Fraction | None = None
    for den in range(1, max_denominator + 1):
        num = avg.numerator * den // avg.denominator + 1
        candidate = Fraction(num, den)
        if avg < candidate < top:
            between = candidate
            break
    if between is None:
        raise DomainError(
            f"no rational with denominator <= {max_denominator} lies strictly "
            f"between the average {avg} and the max {top}"
        )
    other = _uniform_ratio_record(between, "applicant-b")
    other_ratios = [r.value for r in consistency_ratios(other) if r.defined]
    other_avg = sum(other_ratios, Fraction(0)) / len(other_ratios)
    other_max = max(other_ratios)

    average_says_other = other_avg > avg
    max_says_first = top > other_max
    disagree = average_says_other and max_says_first
    narrative = (
        "OSSTMM v3's consistency rule averages its three ratios ('Record the "
        "average of these results', ch.5 p.93), where a worst-case reading "
        "of trust would take the max: one bad ratio is one sufficient "
        f"exposure. Applicant A has ratios {', '.join(str(r) for r in ratios)} "
        f"(average {avg}, max {top}); applicant B has uniform ratio {between}. "
        "The average ranks B as the riskier hire while the max ranks A as "
        "the riskier hire, so the published aggregation and the worst-case "
        "one do not merely rescale the metric: they reverse decisions."
    )
    return CritiqueFinding(
        kind="trust-aggregation",
        inputs={
            "applicant_a": {
                "applicant_id": record.applicant_id,
                "consistency_ratios": [str(r) for r in ratios],
            },
            "applicant_b": {
                "applicant_id": other.applicant_id,
                "consistency_ratios": [str(r) for r in other_ratios],
            },
        },
        scores={
            "average_a": str(avg),
            "average_b": str(other_avg),
            "max_a": str(top),
            "max_b": str(other_max),
            "average_ranks_b_riskier": average_says_other,
            "max_ranks_a_riskier": max_says_first,
        },
        verdict="violated" if disagree else "holds",
        narrative=narrative,
    )


def trust_equivalence_demo(tolerance: float = 1e-3) -> CritiqueFinding:
    """Reproduce the claimed 1/32 equivalence of two unrelated records.

    A 50-year-old applicant with one prior conviction scores 1/32 on the
    consistency rule; an applicant sharing a town of 5,000 with 156 other
    employees scores 39/1250 on the community-porosity rule.  The published
    claim that both are 'the same security liability (1/32)' holds only up
    to rounding: exactly, 39/1250 = 0.0312 while 1/32 = 0.03125.
    """
    from .trust import ApplicantRecord, consistency_score, porosity_rule

    conviction = ApplicantRecord(
        applicant_id="conviction-case", criminal_offenses_known=1, age_years=50
    )
    community = ApplicantRecord(
        applicant_id="community-case",
        employees_in_community=156,
        community_population=5000,
    )
    r_conviction = consistency_score(conviction)
    r_community = porosity_rule(community)
    assert r_conviction.value is not None and r_community.value is not None
    exact_equal = r_conviction.value == r_community.value
    close = float(abs(r_conviction.value - r_community.value)) <= tolerance
    narrative = (
        "Two applicants with nothing in common - one 50-year-old with a "
        "prior conviction, one living in a small town among 156 colleagues - "
        "are declared the same security liability (1/32). The equality holds "
        f"at tolerance {tolerance:g} but fails exactly (1/32 = 0.03125 vs "
        "39/1250 = 0.0312): the unified trust number equates unrelated "
        "facts by construction."
    )
    return CritiqueFinding(
        kind="trust-equivalence",
        inputs={
            "conviction_case": {"criminal_offenses_known": 1, "age_years": 50},
            "community_case": {
                "employees_in_community": 156,
                "community_population": 5000,
            },
            "tolerance": repr(tolerance),
        },
        scores={
            "consistency_ratio": str(r_conviction.value),
            "community_ratio": str(r_community.value),
            "absolute_difference": str(abs(r_conviction.value - r_community.value)),
            "equal_at_tolerance": close,
            "equal_exactly": exact_equal,
        },
        verdict="holds" if close else "violated",
        narrative=narrative,
    )
