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

numpy serves only collision searches of more than ``_INT_KERNEL_STATES``
states and is imported inside them; smaller searches run on plain ints.  So
importing this module (and with it ``ravkit``) does not load numpy, and
neither do the small searches.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, groupby, product
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .errors import DomainError, shown_number
from .ingest import scope_to_obj
from .metrics import (
    ControlClass,
    ControlCounts,
    LimitationCounts,
    PorosityCounts,
    RavBreakdown,
    Record,
    Scope,
    _RATIONAL_AGGREGATES,
    _log_ratio,
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


class CritiqueFinding(Record):
    """One reproducible demonstration: inputs, scores, verdict, explanation."""

    __slots__ = __match_args__ = ("kind", "inputs", "scores", "verdict", "narrative")
    kind: str
    inputs: Mapping[str, Any]
    scores: Mapping[str, Any]
    verdict: str
    narrative: str

    def __init__(
        self,
        kind: str,
        inputs: Mapping[str, Any],
        scores: Mapping[str, Any],
        verdict: str,
        narrative: str,
    ) -> None:
        if verdict not in ("holds", "violated"):
            raise DomainError(f"verdict must be holds|violated, got {verdict!r}")
        self.__setstate__((kind, inputs, scores, verdict, narrative))

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

def rational_signature(breakdown: RavBreakdown) -> tuple:
    """The aggregate exact-rational intermediates that determine the score."""
    return tuple(getattr(breakdown, name) for name in _RATIONAL_AGGREGATES) + (
        breakdown.weights,
    )


def swap_control_counts(scope: Scope, source: ControlClass, target: ControlClass) -> Scope:
    counts = {cls: scope.controls.get(cls) for cls in ControlClass}
    counts[source], counts[target] = counts[target], counts[source]
    return Scope(
        scope.id,
        scope.channel,
        scope.vector,
        scope.index,
        scope.porosity,
        ControlCounts.from_mapping(counts),
        scope.limitations,
    )


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


class CollisionBounds(Record):
    """Per-count maxima for the exhaustive enumeration, each an int >= 0."""

    __slots__ = __match_args__ = ("porosity", "control", "limitation")
    porosity: int
    control: int
    limitation: int

    def __init__(self, porosity: int = 3, control: int = 3, limitation: int = 3) -> None:
        values = (porosity, control, limitation)
        for name, value in zip(self.__slots__, values):
            self._check(f"bounds.{name}", value)
        self.__setstate__(values)

    @staticmethod
    def _check(label: str, value: object) -> None:
        """Refuse a bound that is not an int (a bool is not) or is negative."""
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(f"{label} must be an int, got {shown_number(value)}")
        if value < 0:
            raise DomainError(f"{label} must be >= 0, got {shown_number(value, str)}")

    @classmethod
    def coerce(cls, bounds: "CollisionBounds | int") -> "CollisionBounds":
        if isinstance(bounds, CollisionBounds):
            return bounds
        cls._check("bounds", bounds)
        return cls(porosity=bounds, control=bounds, limitation=bounds)

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


def exact_scores_equal(a: RavBreakdown, b: RavBreakdown) -> bool:
    """Exact collision: the rational triple feeding the logs is identical."""
    return (
        a.opsec_sum == b.opsec_sum
        and a.lc_sum == b.lc_sum
        and a.seclim_sum == b.seclim_sum
    )


class _StateSpace:
    """The enumerated state space within ``b``, and the one owner of state codes.

    A base is one (porosity layout, control triple); base ids count them in
    enumeration order: trust outer, visibility+access inner, control
    triples sorted.  A state is a base and a limitation tuple, coded as
    ``base_id * n_lims + lim_id``; only this class and the int kernel's
    walk (:func:`_int_slabs`) write a code.  The control triples depend on
    the porosity total ``s`` alone, so all layouts of one ``s`` share them.
    Holds ``lim_tuples``, every limitation tuple within the bound in
    ``itertools.product`` order; ``triples_by_s``, the sorted triples with
    witnesses of each ``s``; ``layouts``, the layouts of each ``s`` as
    ``(first base id, pv+pa, pt)``; ``by_id``, every layout in base id
    order; ``layout_of``, the position in ``by_id`` of each base id's
    layout; and ``n_states``, the number of states.  The tables are plain
    ints, built without numpy; the numpy kernel reads ``layout_array``.
    """

    def __init__(self, b: CollisionBounds) -> None:
        self.b = b
        self.lim_tuples = list(product(range(b.limitation + 1), repeat=5))
        self.n_lims = len(self.lim_tuples)
        self.triples_by_s: dict[int, list] = {}
        self.layouts: dict[int, list[tuple[int, int, int]]] = {}
        self.by_id: list[tuple[int, int, int]] = []
        n_bases = 0
        for pt in range(b.porosity + 1):
            for pvpa in range(2 * b.porosity + 1):
                s = pvpa + pt
                if s not in self.triples_by_s:
                    sigs = _control_signatures(b.control, s)
                    triples: dict[tuple[int, int, int], tuple] = {}
                    for (lca, mca), wa in sigs.items():
                        for (lcb, mcb), wb in sigs.items():
                            triples.setdefault((lca + lcb, mca, mcb), (wa, wb))
                    self.triples_by_s[s] = sorted(triples.items())
                layout = (n_bases, pvpa, pt)
                self.layouts.setdefault(s, []).append(layout)
                self.by_id.append(layout)
                n_bases += len(self.triples_by_s[s])
        self.layout_of = [
            i for i, (_, pvpa, pt) in enumerate(self.by_id)
            for _ in self.triples_by_s[pvpa + pt]
        ]
        # Zero porosity admits only the all-zero limitation tuple.
        self.n_states = sum(
            len(layouts) * len(self.triples_by_s[s]) * (self.n_lims if s else 1)
            for s, layouts in self.layouts.items()
        )

    @cached_property
    def layout_array(self) -> np.ndarray:
        """``layout_of`` as a numpy array, made once, for the numpy kernel."""
        import numpy as np

        return np.array(self.layout_of, dtype=np.int64)

    def codes(self, bases: np.ndarray, slab_lims, idx, offset=0):
        """The codes of the states at slab indices ``idx``: a slab lists
        ``slab_lims`` limitation tuples for each of its base ids, which
        start at ``offset`` in the flat ``bases``."""
        return bases[offset + idx // slab_lims] * self.n_lims + idx % slab_lims

    def differs(self, code_a: np.ndarray, code_b: np.ndarray) -> np.ndarray:
        """Whether the states differ beyond controls: in porosity layout or
        limitation tuple."""
        n_lims, layout_of = self.n_lims, self.layout_array
        return (code_a % n_lims != code_b % n_lims) | (
            layout_of[code_a // n_lims] != layout_of[code_b // n_lims]
        )

    def split_pairs(self) -> list[tuple[str, int, int]]:
        """The porosity-split candidate, at most one: swapping counts between
        visibility and access leaves every pipeline quantity identical.  A
        layout splits pv+pa two ways or more when 0 < pv+pa < 2*p; its
        first base's state is taken twice, to be read at two splits, and
        the candidate ``(name, code, code)`` is named after that base."""
        for first_id, pvpa, _ in self.by_id:
            if 0 < pvpa < 2 * self.b.porosity:
                code = first_id * self.n_lims + (1 if self.n_lims > 1 else 0)
                return [(f"split-{first_id}", code, code)]
        return []

    def scope(self, code: int, scope_id: str, split: int = 0) -> Scope:
        """The scope of state ``code``, with its control triple's witness counts.

        The visibility count is the ``split``-th of the layout's splits
        ``max(0, pv+pa - p) .. min(pv+pa, p)``, ``p`` the porosity bound.
        """
        base_id, lim_id = divmod(code, self.n_lims)
        first_id, pvpa, pt = self.by_id[self.layout_of[base_id]]
        _, (witness_a, witness_b) = self.triples_by_s[pvpa + pt][base_id - first_id]
        pv = max(0, pvpa - self.b.porosity) + split
        # Every count is a non-negative int of the space, and meta-class A's
        # witnesses come first, as the ControlCounts fields do.
        return Scope._trusted((
            scope_id, "data-network", "", "",
            PorosityCounts._trusted((pv, pvpa - pv, pt)),
            ControlCounts._trusted(witness_a + witness_b),
            LimitationCounts._trusted(self.lim_tuples[lim_id]),
        ))


def _collision_slabs(space: _StateSpace):
    """Yield every slab ``(s, lc_sum, keys, base_ids)``, in ``(s, lc_sum)`` order.

    A slab is all states of one porosity total ``s`` and one ``lc_sum``.
    ``base_ids`` is its grid of base ids, (porosity layout, control triple);
    ``keys`` holds each state's limitation-sum numerator over
    ``(10*s**2)**2`` in (layout, triple, limitation tuple) order, so a flat
    index is a state's place in enumeration order (see
    :meth:`_StateSpace.codes`).  The kernel runs on an open grid of shape
    (layout, triple, nv, nw, nc, ne*na): ``nv``, ``nw`` and ``nc`` vary
    along their own axes, ``ne`` and ``na`` share the last one.  So the
    weights are built at ``1/(bound+1)**2`` of the slab's size, and only
    the last products and sums are full size.
    """
    import numpy as np

    bound = space.b.limitation
    for s, layout in sorted(space.layouts.items()):
        trip = np.array([key for key, _ in space.triples_by_s[s]], dtype=np.int64)
        first_ids, pvpa, pt = np.array(layout, dtype=np.int64).T.reshape(3, -1, 1, 1, 1, 1, 1)
        # Zero porosity admits only the all-zero limitation tuple.
        ax = np.arange(bound + 1 if s else 1, dtype=np.int64)
        lims = (
            ax[:, None, None, None],
            ax[:, None, None],
            ax[:, None],
            np.repeat(ax, len(ax)),
            np.tile(ax, len(ax)),
        )
        edges = [0, *(np.flatnonzero(np.diff(trip[:, 0])) + 1).tolist(), len(trip)]
        for lo, hi in zip(edges, edges[1:]):
            mca, mcb = (trip[lo:hi, i].reshape(-1, 1, 1, 1, 1) for i in (1, 2))
            keys = seclim_numerator(
                lims, weight_numerators(s, pvpa, pt, mca + mcb, mca, mcb, lims)
            )
            base_ids = first_ids.reshape(-1, 1) + np.arange(lo, hi)
            yield s, int(trip[lo, 0]), keys.reshape(-1), base_ids


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


# The most entries any table of a collision search may hold.  Bounds 6 needs
# 91 porosity layouts, 462 control multisets, 213,444 control signature pairs
# and 16,807 limitation tuples.
_TABLE_CAP = 1 << 24


def _refusal(b: CollisionBounds) -> str | None:
    """Why a search within ``b`` can never be built, or None; from the bounds alone.

    The packed sort key must fit 63 bits, and every slab index must fit a
    run record's ``<u4`` head.  No table of :class:`_StateSpace` may pass
    ``_TABLE_CAP`` entries: the porosity layouts, the control multisets
    :func:`_control_signatures` walks, the pairs of one porosity total's
    control signatures (a meta-class's distinct ``(lc, mc)``: ``5*c + 1``
    values of ``lc`` at most, each with at most ``5*s + 1`` values of ``mc``
    below ``s = c`` and one from there on) and the limitation tuples.  Keys
    that alone pass 63 bits are named first; the caps come before the slab
    bound, so it walks a few thousand porosity totals at most.
    """
    overflow = "overflow the 64-bit packed collision keys"
    if _seclim_num_bound(b).bit_length() > 63:
        return overflow
    p, c = b.porosity, b.control
    multisets = math.comb(c + 5, 5)
    signatures = min(multisets, (5 * c + 1) * (5 * min(3 * p, c) + 1))
    tables = (
        ("porosity layouts", (p + 1) * (2 * p + 1)),
        ("control multisets", multisets),
        ("control signature pairs", signatures**2),
        ("limitation tuples", (b.limitation + 1) ** 5),
    )
    for name, size in tables:
        if size > _TABLE_CAP:
            return f"need more than {_TABLE_CAP:,} {name}"
    if _packed_key_bits(b) > 63:
        return overflow
    if _slab_size_bound(b) > 2**32:
        return "allow slabs past 2**32 states, more than a 32-bit head can index"
    return None


def _group_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort a slab's state keys, equal keys in enumeration order.

    One in-place sort of ``key << shift | index`` (``keys`` is consumed).
    Returns the sorted keys, the enumeration index of each sorted state,
    and the start of each run of equal keys.
    """
    import numpy as np

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


def _slab_bases(s: int, lc_sum: int) -> tuple[float, float, float]:
    """The opsec and control bases of the states sharing ``s`` and ``lc_sum``,
    and their key's denominator ``(10*s**2)**2`` as a float."""
    return math.log1p(100.0 * s) ** 2, math.log1p(10.0 * lc_sum) ** 2, float((10 * s * s) ** 2)


def _float_scores(s: int, lc_sum: int, seclim_num: np.ndarray) -> np.ndarray:
    """Actual Security of states sharing ``s`` and ``lc_sum``, in float.

    The limitation base is ``y**2`` with ``y = log1p(100*key/den)``; numpy
    squares by ``y*y``, as :func:`_int_scores` does, so both kernels give
    the same bits wherever numpy's ``log1p`` is the C library's.
    """
    import numpy as np

    a, f, den = _slab_bases(s, lc_sum)
    if s:
        s_base = np.log1p(100.0 * seclim_num / den) ** 2
    else:
        s_base = np.zeros(len(seclim_num))
    return combine_bases(a, f, s_base)


def _int_scores(s: int, lc_sum: int, seclim_num: Sequence[int]) -> list[float]:
    """:func:`_float_scores` on a list of int keys, without numpy."""
    a, f, den = _slab_bases(s, lc_sum)
    scores = []
    for key in seclim_num:
        y = math.log1p(100.0 * key / den) if s else 0.0
        scores.append(combine_bases(a, f, y * y))
    return scores


def _close_gaps(scores: np.ndarray, epsilon: float) -> np.ndarray:
    """Positions ``i`` of sorted ``scores`` with ``scores[i+1] - scores[i] <= epsilon``.

    The differences are taken a block at a time, so no second array of
    the full length is held.
    """
    import numpy as np

    block = 1 << 16
    found = [
        np.flatnonzero(np.diff(scores[lo : lo + block + 1]) <= epsilon) + lo
        for lo in range(0, len(scores) - 1, block)
    ]
    return np.concatenate(found) if found else np.empty(0, dtype=np.intp)


#: Every this many scores of a spilled run, the first pass keeps one in memory.
_SAMPLE_EVERY = 64
#: The most scores one value range of the near pass holds, bar one tied value.
_RANGE_SCORES = 1 << 18
#: One distinct key of a spilled run: its score and its head, the slab
#: index of its first state.
_RUN_RECORD = [("score", "<f8"), ("head", "<u4")]


def _value_ranges(samples: Sequence[np.ndarray], lengths: Sequence[int]):
    """Cut the score axis into value ranges for the near pass, from the samples.

    ``samples`` holds, for each spilled run of ``lengths[r]`` scores, every
    ``_SAMPLE_EVERY``-th of its scores in key order, the first included.
    Splitters drawn from the sorted samples cut the axis into ranges
    ``[lo, hi)``, the first from ``-inf`` and the last to ``inf``; equal
    scores never straddle two.  A run's scores fall in key order, so a
    range is one block of each run, and a run holds at most
    ``_SAMPLE_EVERY - 1`` scores more than its samples in the range account
    for: each range holds at most ``_RANGE_SCORES`` scores, unless one value
    alone has more or there are so many runs that ``_RANGE_SCORES`` is under
    ``(runs + 1) * _SAMPLE_EVERY`` (then each range holds one distinct
    sample).  Yields ``(lo, hi, first, stop)``, where the indices
    ``first[r]:stop[r]`` of run ``r`` hold every score of run ``r`` in the
    range, with fewer than ``_SAMPLE_EVERY`` others at each end.
    """
    import numpy as np

    k = _SAMPLE_EVERY
    flat = np.concatenate(samples)
    flat.sort()
    step = max(1, (_RANGE_SCORES - len(lengths) * (k - 1)) // k)
    edges = [-math.inf]
    p = 0
    while p + step < len(flat):
        q = int(np.searchsorted(flat, flat[p + step]))
        if q == p:  # one value holds more than ``step`` samples
            q = int(np.searchsorted(flat, flat[p], "right"))
            if q == len(flat):
                break
        edges.append(flat[q])
        p = q
    edges.append(math.inf)
    del flat
    # ``at_least[j, r]``: samples of run ``r`` at or above ``edges[j]``.
    at_least = np.empty((len(edges), len(lengths)), dtype=np.int64)
    for r, run_samples in enumerate(samples):
        at_least[:, r] = len(run_samples) - np.searchsorted(run_samples[::-1], edges)
    lengths = np.asarray(lengths, dtype=np.int64)
    for j in range(len(edges) - 1):
        first = np.maximum((at_least[j + 1] - 1) * k + 1, 0)
        stop = np.minimum(at_least[j] * k, lengths)
        yield edges[j], edges[j + 1], first, stop


def _range_records(spill, run_starts: np.ndarray, first: np.ndarray, stop: np.ndarray):
    """Read the records ``first[r]:stop[r]`` of each spilled run ``r`` into one array.

    On disk the runs lie one after another, run ``r`` from record
    ``run_starts[r]`` on, one ``_RUN_RECORD`` per distinct key of its slab
    in key order.  Each nonempty block is read with ``seek`` and
    ``readinto``; a file that ends early is an ``OSError``.  Returns the
    records in run order, the runs read and where each one's block starts
    in the records.
    """
    import numpy as np

    read = np.flatnonzero(stop > first)
    first, sizes = first[read], (stop - first)[read]
    starts = np.cumsum(sizes) - sizes
    records = np.empty(int(sizes.sum()), dtype=_RUN_RECORD)
    raw = records.view(np.uint8)
    for at, start, end in zip((run_starts[read] + first).tolist(), starts.tolist(),
                              (starts + sizes).tolist()):
        spill.seek(12 * at)
        if spill.readinto(raw[12 * start : 12 * end]) != 12 * (end - start):
            raise OSError("the collision spill file ended early")
    return records, read, starts


def _witness_positions(
    scores: np.ndarray, values: np.ndarray, first_at: np.ndarray, needed: np.ndarray
) -> np.ndarray:
    """Where in ``scores`` the witness of each ``needed`` sorted position lies.

    ``scores`` is runs of scores in slab order, each in key order.  The
    sorted scores are those of ``scores`` in some value range, ties in the
    order a stable sort gives them: slab order, then key order.
    ``values`` are the distinct scores at the needed positions, all in the
    range, and ``first_at`` the sorted position of each one's first copy.
    A copy's sorted position is its value's first position plus the copies
    before it in ``scores``.  The copies are found in one pass: a table of
    20 mantissa bits of ``values`` lets few other scores through, and those
    are searched into ``values``.  Returns the index into ``scores`` of
    each needed position's witness; a position that no score fills is an
    internal error, raised rather than decoded.
    """
    import numpy as np

    table = np.zeros(1 << 20, dtype=bool)
    table[values.getfield(np.uint32, 2) >> 12] = True
    copy = np.flatnonzero(table[scores.getfield(np.uint32, 2) >> 12])
    held = scores[copy]
    value = values.searchsorted(held)
    found = values.take(value, mode="clip") == held
    copy, value = copy[found], value[found]
    # Each value's copies in the order of ``scores``, ranked.
    by_value = np.argsort(value, kind="stable")
    copy, value = copy[by_value], value[by_value]
    new_value = np.ones(len(value), dtype=bool)
    np.not_equal(value[1:], value[:-1], out=new_value[1:])
    groups = np.flatnonzero(new_value)
    rank = np.arange(len(value)) - np.repeat(groups, np.diff(groups, append=len(value)))
    position = first_at[value] + rank
    slot = np.minimum(np.searchsorted(needed, position), len(needed) - 1)
    wanted = needed[slot] == position
    where = np.full(len(needed), -1, dtype=np.intp)
    where[slot[wanted]] = copy[wanted]
    unset = int(np.count_nonzero(where < 0))
    if unset:
        raise RuntimeError(
            f"internal error: {unset} of {len(needed)} sorted score positions "
            "matched no enumerated state"
        )
    return where


def _close_pairs(spill, run_starts, decode, lo: float, hi: float, first, stop, last,
                 epsilon: float):
    """Every pair of adjacent sorted scores within ``epsilon`` whose upper
    score lies in ``[lo, hi)``, as the state codes of both witnesses.

    The records ``first[r]:stop[r]`` of each spilled run ``r`` hold its
    scores in the range (see :func:`_value_ranges` and
    :func:`_range_records`); a copy of their scores is sorted beside
    ``last``, the score and witness code of the greatest score below
    ``lo``, so the pair across the boundary is found too.  ``decode(run,
    head)`` gives the state codes of heads of the given runs.  Returns
    the two codes of each pair, in ascending score order, and the greatest
    score in the range with its code, for the next range's ``last``.
    """
    import numpy as np

    last_score, last_code = last
    records, read, starts = _range_records(spill, run_starts, first, stop)
    scores = records["score"]
    # The scores read below lo lie in earlier ranges, so none is above
    # last_score: cut there, the sorted copy is last_score, then [lo, hi).
    ordered = np.empty(len(scores) + 1)
    ordered[0] = last_score
    ordered[1:] = scores
    ordered.sort()
    i, j = ordered[1:].searchsorted([lo, hi]) + 1
    ordered = ordered[i - 1 : j]
    close = _close_gaps(ordered, epsilon)
    # Witnesses are needed at both ends of each close pair and at the top.
    wanted = np.zeros(len(ordered), dtype=bool)
    wanted[close] = wanted[close + 1] = wanted[-1] = True
    needed = np.flatnonzero(wanted[1:]) + 1
    held = ordered[needed]
    values = held[np.diff(held, prepend=-math.inf) > 0]
    first_at = ordered.searchsorted(values) - 1
    top = ordered[-1]
    del ordered
    at = _witness_positions(scores, values, first_at, needed - 1)
    run = read[np.searchsorted(starts, at, "right") - 1]
    codes = np.concatenate([[last_code], decode(run, records["head"][at])])
    slots = needed.searchsorted(close, "right")
    return codes[slots], codes[slots + 1], (top, int(codes[-1]))


def _near_pass(spill, runs, samples, epsilon: float, max_findings: int,
               space: _StateSpace) -> tuple[int, int, list[tuple[int, int]]]:
    """Near collisions among the spilled runs, one value range at a time.

    ``runs`` holds each spilled run's ``(length, base_ids, n_states)`` in
    write order, and ``samples`` every ``_SAMPLE_EVERY``-th score of each
    (see :func:`_value_ranges`).  Every close pair
    (:func:`_close_pairs`) whose witnesses differ beyond controls
    (:meth:`_StateSpace.differs`) is a near collision.  Returns the number
    of near pairs, the number of close pairs skipped as control-only, and
    the first ``max_findings`` near pairs as state codes, in ascending
    score order.
    """
    import numpy as np

    # Every run's base ids in one table, to decode the heads of all runs
    # at once.
    sizes = np.array([base_ids.size for _, base_ids, _ in runs])
    bases = np.concatenate([base_ids.reshape(-1) for _, base_ids, _ in runs])
    base_at = np.cumsum(sizes) - sizes
    slab_lims = np.array([n_states for _, _, n_states in runs]) // sizes
    lengths = np.array([length for length, _, _ in runs])
    run_starts = np.cumsum(lengths) - lengths

    def decode(run: np.ndarray, head: np.ndarray) -> np.ndarray:
        return space.codes(bases, slab_lims[run], head, base_at[run])

    n_near = skipped = 0
    pairs: list[tuple[int, int]] = []
    last = (-math.inf, -1)
    for lo, hi, first, stop in _value_ranges(samples, lengths):
        code_a, code_b, last = _close_pairs(
            spill, run_starts, decode, lo, hi, first, stop, last, epsilon
        )
        near = space.differs(code_a, code_b)
        found = int(np.count_nonzero(near))
        n_near += found
        skipped += len(near) - found
        kept = np.flatnonzero(near)[: max_findings - len(pairs)]
        pairs += zip(code_a[kept].tolist(), code_b[kept].tolist())
    return n_near, skipped, pairs


def _enumeration_pass(space: _StateSpace, spill, max_findings: int):
    """The first pass: every slab's exact collisions, and its run spilled.

    Each slab's keys are grouped (:func:`_group_keys`).  A group's head is
    its first state in enumeration order; the group is reportable if a
    member differs from the head in porosity layout or limitation tuple,
    and then its first such member and the head are an exact pair.  Unless
    ``spill`` is None, each slab's run, one ``_RUN_RECORD`` (score, head)
    per distinct key in key order, is written to it.  Returns the
    counters that open the ``coverage`` record (``near_pairs`` still 0),
    the first ``max_findings`` exact pairs as state codes, each spilled
    run's ``(length, base_ids, n_states)`` and every
    ``_SAMPLE_EVERY``-th score of each run (see :func:`_near_pass`).
    """
    import numpy as np

    coverage = {"states": 0, "distinct_keys": 0, "exact_groups": 0, "near_pairs": 0,
                "skipped_control_only": 0}
    exact_pairs: list[tuple[int, int]] = []
    runs: list[tuple[int, np.ndarray, int]] = []
    samples: list[np.ndarray] = []
    for s, lc_sum, keys, base_ids in _collision_slabs(space):
        n = keys.size
        coverage["states"] += n
        sorted_keys, order, starts = _group_keys(keys)
        sizes = np.diff(starts, append=n)
        coverage["distinct_keys"] += len(starts)
        # Structure is read from a slab-local table of ``layout * lims +
        # lim_id``: cheaper than decoding every member's state code.
        n_layouts, n_triples = base_ids.shape
        ids = np.arange(n // n_triples, dtype=np.int32).reshape(n_layouts, 1, -1)
        structure = np.broadcast_to(ids, (n_layouts, n_triples, ids.shape[2]))
        structure = structure.reshape(-1)[order]
        differs = structure != np.repeat(structure[starts], sizes)
        reportable = np.logical_or.reduceat(differs, starts)
        groups = np.flatnonzero(reportable)
        coverage["exact_groups"] += len(groups)
        coverage["skipped_control_only"] += int(np.count_nonzero((sizes > 1) & ~reportable))
        for g in groups[: max(0, max_findings - len(exact_pairs))]:
            partner = starts[g] + np.argmax(differs[starts[g] : starts[g] + sizes[g]])
            pair = space.codes(base_ids.reshape(-1), n // base_ids.size,
                               order[[starts[g], partner]])
            exact_pairs.append(tuple(pair.tolist()))
        if spill is not None:
            run = np.empty(len(starts), dtype=_RUN_RECORD)
            run["score"] = _float_scores(s, lc_sum, sorted_keys[starts])
            run["head"] = order[starts]
            spill.write(run)
            runs.append((len(run), base_ids, n))
            samples.append(run["score"][::_SAMPLE_EVERY].copy())
    return coverage, exact_pairs, runs, samples


def _verify(space: _StateSpace, candidates, epsilon: float, max_findings: int):
    """Re-verify candidate pairs through :func:`actual_security`, in order.

    ``candidates`` holds ``(name, code_a, code_b)``.  Only the split pair
    (:meth:`_StateSpace.split_pairs`) comes named, and its second state is
    read at the layout's next split; the others are named
    ``collision-<n>``, ``n`` the pairs kept before them.  A pair is kept
    if its exact triples are equal or, for ``epsilon > 0``, its scores lie
    within ``epsilon``.  Stops at ``max_findings`` kept pairs.  Returns the
    kept pairs as ``(scope_a, scope_b, breakdown_a, breakdown_b)`` and the
    number of candidates examined.
    """
    verified: list[tuple[Scope, Scope, RavBreakdown, RavBreakdown]] = []
    examined = 0
    for name, code_a, code_b in candidates:
        if len(verified) >= max_findings:
            break
        examined += 1
        prefix = name or f"collision-{len(verified)}"
        scope_a = space.scope(code_a, f"{prefix}-a")
        scope_b = space.scope(code_b, f"{prefix}-b", split=int(name is not None))
        ba, bb = actual_security(scope_a), actual_security(scope_b)
        if exact_scores_equal(ba, bb) or (
            epsilon > 0 and abs(bb.actsec - ba.actsec) <= epsilon
        ):
            verified.append((scope_a, scope_b, ba, bb))
    return verified, examined


#: The most states the int kernel (:func:`_int_kernel`) searches; larger
#: spaces go to the numpy kernel (:func:`_numpy_kernel`).  A cold search
#: on numpy first pays for its import; the int kernel then pays about
#: 1.2 us a state more.  Cold, on a 2-core x86-64 host with Python 3.11:
#: 60,309 states take 128 ms on ints and 140 ms on numpy, and 457,833
#: take 785 ms and 181 ms, so the two cross a little above 2**16.
_INT_KERNEL_STATES = 1 << 16


def _int_slabs(space: _StateSpace):
    """Yield every slab ``(s, lc_sum, groups)`` as :func:`_collision_slabs`
    walks them, in plain ints.

    ``groups`` maps each distinct key of the slab, in first-seen order, to
    ``[head, structure, partner, size]``: the code of its first state in
    enumeration order, that state's ``layout * n_lims + lim_id``, the code
    of the first member that differs from it in porosity layout or
    limitation tuple (None if none does) and the member count.
    """
    n_lims, layout_of = space.n_lims, space.layout_of
    for s, layouts in sorted(space.layouts.items()):
        lims = list(enumerate(space.lim_tuples if s else space.lim_tuples[:1]))
        by_lc_sum = groupby(enumerate(space.triples_by_s[s]), key=lambda t: t[1][0][0])
        for lc_sum, triples in by_lc_sum:
            triples = [(t, mca, mcb) for t, ((_, mca, mcb), _) in triples]
            groups: dict[int, list] = {}
            for first_id, pvpa, pt in layouts:
                layout_at = layout_of[first_id] * n_lims
                for t, mca, mcb in triples:
                    code_at = (first_id + t) * n_lims
                    for lim_id, lim in lims:
                        key = seclim_numerator(
                            lim, weight_numerators(s, pvpa, pt, mca + mcb, mca, mcb, lim)
                        )
                        group = groups.get(key)
                        if group is None:
                            groups[key] = [code_at + lim_id, layout_at + lim_id, None, 1]
                        else:
                            group[3] += 1
                            if group[2] is None and group[1] != layout_at + lim_id:
                                group[2] = code_at + lim_id
            yield s, lc_sum, groups


def _int_kernel(space: _StateSpace, epsilon: float, max_findings: int):
    """The collision search in plain ints and floats, with no numpy.

    The same search as :func:`_numpy_kernel`, state for state: groups of
    equal keys per slab (:func:`_int_slabs`), exact pairs in ``(s, lc_sum,
    key)`` order, one score per distinct key (:func:`_int_scores`) with
    its group's head as witness, and near pairs from one stable sort of
    every score, so equal scores keep slab order, then key order.  Held in
    memory whole: only for spaces of at most ``_INT_KERNEL_STATES`` states.
    Returns the ``coverage`` counters (``pairs_verified`` and ``truncated``
    still to come), the exact pairs and the near pairs, as state codes.
    """
    coverage = {"states": 0, "distinct_keys": 0, "exact_groups": 0, "near_pairs": 0,
                "skipped_control_only": 0}
    exact_pairs: list[tuple[int, int]] = []
    witnesses: list[tuple[float, int, int]] = []  # (score, head code, structure)
    for s, lc_sum, groups in _int_slabs(space):
        keys = sorted(groups)
        coverage["distinct_keys"] += len(keys)
        for key in keys:
            head, structure, partner, size = groups[key]
            coverage["states"] += size
            if partner is not None:
                coverage["exact_groups"] += 1
                if len(exact_pairs) < max_findings:
                    exact_pairs.append((head, partner))
            elif size > 1:
                coverage["skipped_control_only"] += 1
        scores = _int_scores(s, lc_sum, keys)
        witnesses += ((score, *groups[key][:2]) for score, key in zip(scores, keys))
    near_pairs: list[tuple[int, int]] = []
    if epsilon > 0:
        ordered = sorted(witnesses, key=itemgetter(0))
        for (low, code_a, structure_a), (high, code_b, structure_b) in zip(ordered, ordered[1:]):
            if high - low <= epsilon:
                if structure_a == structure_b:
                    coverage["skipped_control_only"] += 1
                    continue
                coverage["near_pairs"] += 1
                if len(near_pairs) < max_findings:
                    near_pairs.append((code_a, code_b))
    return coverage, exact_pairs, near_pairs


def _numpy_kernel(space: _StateSpace, epsilon: float, max_findings: int):
    """The collision search on numpy, one slab in memory at a time.

    The first pass (:func:`_enumeration_pass`) finds the exact pairs and,
    for ``epsilon > 0``, spills each slab's run to an anonymous temporary
    file that the near pass (:func:`_near_pass`) reads back one value range
    at a time.  Returns what :func:`_int_kernel` returns.
    """
    import tempfile
    from contextlib import nullcontext

    near_pairs: list[tuple[int, int]] = []
    with tempfile.TemporaryFile() if epsilon > 0 else nullcontext() as spill:
        coverage, exact_pairs, runs, samples = _enumeration_pass(space, spill, max_findings)
        if epsilon > 0:
            coverage["near_pairs"], near_skipped, near_pairs = _near_pass(
                spill, runs, samples, epsilon, max_findings, space
            )
            coverage["skipped_control_only"] += near_skipped
    return coverage, exact_pairs, near_pairs


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
    float comparison.  Bounds whose packed keys could pass 63 bits are
    refused before anything is enumerated.  A group yields a pair only if
    two members differ in ``(pv+pa, pt)`` or in the limitation tuple;
    groups differing only in controls are skipped.

    Two kernels run the search, picked by the state count, which
    :class:`_StateSpace` works out from its tables before anything is
    enumerated.  Up to ``_INT_KERNEL_STATES`` states, :func:`_int_kernel`
    runs it on plain ints and floats and never imports numpy; past that,
    :func:`_numpy_kernel` runs it as below.  Both give the same pairs in the
    same order, and both take their keys from the one formula
    (:func:`weight_numerators`, :func:`seclim_numerator`).

    For ``epsilon > 0`` each distinct key has one float score and, as its
    witness, the group's first state.  Every adjacent pair of scores in
    ascending order that lie within ``epsilon`` and whose witnesses differ
    beyond controls (lie in different porosity layouts or limitation
    tuples) is a near collision; equal scores are ordered by slab and then
    by key.  The numpy kernel sorts each slab once, in place, as the int64
    ``key << shift | index``, so every group lists its members in
    enumeration order.  It enumerates the state space once: the first pass
    (:func:`_enumeration_pass`) writes each slab's run, one 12-byte record
    (score, head) per distinct key in key order, to one anonymous temporary
    file, and keeps in memory only the run's length, base ids and state
    count and every ``_SAMPLE_EVERY``-th score.  The near pass
    (:func:`_near_pass`) cuts the score axis at those samples into value
    ranges of at most ``_RANGE_SCORES`` scores and reads, sorts and
    searches one range at a time, so its memory does not grow with the
    number of distinct keys.  ``epsilon`` 0, or a search on the int
    kernel, opens no file.  Raises ``OSError`` if the file cannot be
    created (``tempfile`` honours ``TMPDIR``), written or read back.

    Each state of a split, exact or near pair is carried as its int code
    (:class:`_StateSpace`) and made a :class:`Scope` only when the pair is
    re-verified through :func:`actual_security` (:func:`_verify`), before
    it is emitted.

    Findings come in a fixed order: the porosity-split pair (visibility and
    access counts swapped), exact pairs in ``(s, lc_sum, key)`` order, then
    near pairs in ascending score order, at most ``max_findings`` in all.
    Each ``score-collision`` finding carries the search's ``coverage``
    record (see docs/formats.md), whose ``truncated`` flag says whether
    reportable pairs were left out.  The whole space is always enumerated;
    ``seed`` does not change the result and is recorded for
    reproducibility of the emitted document.  ``max_findings`` must be an
    int >= 0, ``seed`` an int and ``epsilon`` an int or float >= 0 within
    the float range, none of them a bool; anything else is a
    ``DomainError`` raised before any table is built.  ``epsilon`` is
    recorded as a float.

    Time, peak memory and spill size at bounds 3 to 6 are measured in the
    README ("Collisions").
    """
    b = CollisionBounds.coerce(bounds)
    CollisionBounds._check("max_findings", max_findings)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise DomainError(f"seed must be an int, got {seed!r}")
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
        raise DomainError(f"epsilon must be an int or a float, got {epsilon!r}")
    if not 0 <= epsilon <= sys.float_info.max:
        raise DomainError(f"epsilon must be finite and >= 0, got {shown_number(epsilon, str)}")
    epsilon = float(epsilon)  # echoed as a float whatever number type it came as
    refusal = _refusal(b)
    if refusal:
        raise DomainError(f"bounds {b.to_obj()} {refusal}")
    space = _StateSpace(b)
    kernel = _int_kernel if space.n_states <= _INT_KERNEL_STATES else _numpy_kernel
    coverage, exact_pairs, near_pairs = kernel(space, epsilon, max_findings)
    split_pairs = space.split_pairs()
    candidates = split_pairs + [(None, *pair) for pair in exact_pairs + near_pairs]
    verified, coverage["pairs_verified"] = _verify(space, candidates, epsilon, max_findings)
    coverage["truncated"] = coverage["pairs_verified"] < (
        len(split_pairs) + coverage["exact_groups"] + coverage["near_pairs"]
    )
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
    arg = 1 + 100 * b.seclim_sum
    s_lin = _log_ratio(arg.numerator, arg.denominator)
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
    from .trust import ApplicantRecord

    # Consistency ratios 1/5, 1/12, 1/4.
    return ApplicantRecord(
        applicant_id="applicant-a",
        months_unemployed=12,
        months_eligible=60,
        criminal_offenses_known=1,
        age_years=30,
        legal_adult_age=18,
        references_neutral=1,
        past_employer_count=4,
    )


def _uniform_ratio_record(q: Fraction, applicant_id: str) -> ApplicantRecord:
    """A record whose defined consistency ratios all equal ``q``.

    For q <= 1 all three ratios are constructed; otherwise only the
    offenses-per-adult-year ratio (the one not structurally capped at 1).
    """
    from .trust import ApplicantRecord

    if q <= 1:
        return ApplicantRecord(
            applicant_id=applicant_id,
            months_unemployed=q.numerator,
            months_eligible=q.denominator,
            criminal_offenses_known=q.numerator,
            age_years=18 + q.denominator,
            references_neutral=q.numerator,
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
    from .trust import consistency_ratios, consistency_score

    record = record or _default_disagreement_record()
    ratios = [r.value for r in consistency_ratios(record) if r.defined]
    if len(ratios) < 2 or len(set(ratios)) < 2:
        raise DomainError(
            "need at least two defined, distinct consistency ratios to "
            "demonstrate an aggregation disagreement"
        )
    avg = consistency_score(record).value
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
    other_avg = consistency_score(other).value
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
    from .trust import ApplicantRecord, consistency_score, porosity_rule, ratios_equal

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
    close = ratios_equal(r_conviction.value, r_community.value, tolerance)
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
