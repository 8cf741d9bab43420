"""The scalar merge model, kept as the oracle of the batched merge kernels.

Routes and ECO re-merges plan every merge with the array kernels of
:mod:`repro.core.merge_batch` (:func:`~repro.core.merge_batch.plan_merges`
and :func:`~repro.core.merge_batch.merge_loci`).  This module keeps the
scalar statement of the same equations, one merge at a time, which the
object loop of ``tests/reference_dme.py`` runs and the identity tests in
``tests/test_cts_arena.py`` hold the arena loop to, float for float:

* :class:`Subtree` -- the per-subtree summary the object loop carries: its
  placement locus, downstream capacitance and, for every sink group present,
  the exact interval of Elmore delays from the (deferred) root.  Delays are
  exact, not estimates, because edge lengths below the root are fixed at
  merge time; only root *positions* are deferred, which is the defining
  property of deferred-merge embedding.
* The Elmore balancing closed forms (:func:`solve_merge` and its helpers).
  When two subtrees whose loci are a Manhattan distance ``d`` apart merge,
  the router picks wire lengths ``ea`` and ``eb``; the *balance offset* of a
  choice is ``g = D(ea, Ca) - D(eb, Cb)`` with ``D(x, C) = r x (c x / 2 +
  C)``.  Along the detour-free family ``ea + eb = d`` the offset is linear in
  ``ea`` (the quadratic terms cancel) and increasing, so skew constraints
  become intervals of admissible offsets, and offsets outside ``[g(0),
  g(d)]`` are realised by wire snaking: one side keeps length 0 (or ``d``)
  and the other side's length is the positive root of the wire-delay
  quadratic, the ``gamma`` of Eqs. (5.1)-(5.3) of the paper.
* The merge loci (:func:`merge_locus`, :func:`balance_locus`): the points
  within ``ea`` of one child locus and ``eb`` of the other, by TRR expansion
  and intersection.
* The case dispatch of Fig. 6 (:func:`plan_merge`):

  ``same_group``
      Both subtrees contain only one group and it is the same one.
  ``disjoint``
      No group appears in both subtrees, so nothing links the two sides: the
      merge node lies on a shortest-distance locus and the total wire equals
      the distance between the loci -- never snaked.  The detour-free
      freedom still chases the balance of representative delays, which
      reduces snaking in later merges that *do* share groups.
  ``shared``
      At least one group appears on both sides (the "partially shared"
      Instances 1 and 2 of Chapter V.E).  Every shared group contributes an
      interval of admissible balance offsets; their intersection is the
      feasible region (step 7 of Fig. 6).  When it is empty the offset
      minimising the worst violation is used; when the chosen offset is not
      reachable detour-free, wire snaking extends one side.

The case labels and the tolerance come from :mod:`repro.core.merge_batch`,
so the two models cannot drift apart on either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.group_constraints import SkewConstraints
from repro.core.merge_batch import _EPS, DISJOINT, SAME_GROUP, SHARED
from repro.delay.technology import Technology
from repro.delay.wire import wire_capacitance, wire_delay, wire_length_for_delay
from repro.geometry.trr import Trr

__all__ = [
    "DISJOINT",
    "SAME_GROUP",
    "SHARED",
    "Subtree",
    "MergeEdges",
    "offset_at_split",
    "split_for_offset",
    "detour_free_offset_range",
    "feasible_offset_interval",
    "solve_merge",
    "balance_split",
    "merge_locus",
    "balance_locus",
    "MergeDecision",
    "classify_pair",
    "plan_merge",
]


# ----------------------------------------------------------------------
# Per-subtree state
# ----------------------------------------------------------------------
@dataclass
class Subtree:
    """Summary of an active subtree during bottom-up merging."""

    node_id: int
    locus: Trr
    cap: float
    delays: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    num_sinks: int = 1
    #: Unresolved split of a cross-group merge, as the object reference loop
    #: in ``tests/reference_dme.py`` keeps it.  ``None`` for sinks and for
    #: constrained merges.
    pending: Optional[object] = None

    def __post_init__(self) -> None:
        if self.cap < 0.0:
            raise ValueError("subtree capacitance must be non-negative")
        if self.num_sinks < 1:
            raise ValueError("a subtree contains at least one sink")
        for group, (lo, hi) in self.delays.items():
            if hi < lo:
                raise ValueError(
                    "group %r has a malformed delay interval (%r, %r)" % (group, lo, hi)
                )

    @property
    def groups(self) -> FrozenSet[int]:
        """The set of sink groups with at least one sink in this subtree."""
        return frozenset(self.delays)

    def shares_group_with(self, other: "Subtree") -> FrozenSet[int]:
        """Groups present in both subtrees."""
        return self.groups & other.groups

    @property
    def max_delay(self) -> float:
        """Largest root-to-sink delay over every group."""
        return max(hi for _, hi in self.delays.values())

    @property
    def min_delay(self) -> float:
        """Smallest root-to-sink delay over every group."""
        return min(lo for lo, _ in self.delays.values())

    def delay_interval(self, group: int) -> Tuple[float, float]:
        """Delay interval of a single group (KeyError when absent)."""
        return self.delays[group]

    def group_spread(self, group: int) -> float:
        """Current intra-group delay spread (skew) of ``group`` inside this subtree."""
        lo, hi = self.delays[group]
        return hi - lo

    def worst_spread(self) -> float:
        """Largest intra-group spread over every group in the subtree."""
        return max(hi - lo for lo, hi in self.delays.values())

    def shifted_delays(self, added_delay: float) -> Dict[int, Tuple[float, float]]:
        """Delay intervals after adding a common wire delay above the root.

        A wire above the subtree root delays every sink identically, so every
        interval translates rigidly; in particular intra-group spreads are
        unchanged, which is why unconstrained (cross-group) merges can never
        break an intra-group constraint.
        """
        return {
            group: (lo + added_delay, hi + added_delay)
            for group, (lo, hi) in self.delays.items()
        }

    @classmethod
    def for_sink(cls, node_id: int, locus: Trr, cap: float, group: int) -> "Subtree":
        """The trivial subtree consisting of a single sink."""
        return cls(
            node_id=node_id,
            locus=locus,
            cap=cap,
            delays={group: (0.0, 0.0)},
            num_sinks=1,
        )


# ----------------------------------------------------------------------
# Elmore balancing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MergeEdges:
    """The wire lengths chosen for one merge."""

    ea: float
    eb: float
    distance: float

    def __post_init__(self) -> None:
        if self.ea < -_EPS or self.eb < -_EPS:
            raise ValueError("edge lengths must be non-negative")
        if self.total < self.distance - 1e-6:
            raise ValueError(
                "edges (%.6g + %.6g) shorter than the merge distance %.6g"
                % (self.ea, self.eb, self.distance)
            )

    @property
    def total(self) -> float:
        """Total wire added by the merge."""
        return self.ea + self.eb

    @property
    def detour(self) -> float:
        """Extra wire beyond the Manhattan distance (snaking amount)."""
        return max(0.0, self.total - self.distance)

    @property
    def snaked(self) -> bool:
        """Whether the merge required wire snaking."""
        return self.detour > 1e-6


def offset_at_split(
    ea: float, distance: float, cap_a: float, cap_b: float, tech: Technology
) -> float:
    """Balance offset ``D(ea, Ca) - D(eb, Cb)`` for the detour-free split ``eb = d - ea``."""
    eb = distance - ea
    return wire_delay(max(ea, 0.0), cap_a, tech) - wire_delay(max(eb, 0.0), cap_b, tech)


def split_for_offset(
    offset: float, distance: float, cap_a: float, cap_b: float, tech: Technology
) -> float:
    """The detour-free split ``ea`` whose balance offset equals ``offset``.

    Along ``ea + eb = d`` the offset is linear in ``ea``:

        g(ea) = r (c d + Ca + Cb) ea - r (c d^2 / 2 + Cb d)

    The returned value may fall outside ``[0, d]``, in which case no
    detour-free split realises the offset and the caller must snake.
    """
    r = tech.unit_resistance
    c = tech.unit_capacitance
    slope = r * (c * distance + cap_a + cap_b)
    if slope <= 0.0:
        return 0.0
    intercept = r * (c * distance * distance / 2.0 + cap_b * distance)
    return (offset + intercept) / slope


def detour_free_offset_range(
    distance: float, cap_a: float, cap_b: float, tech: Technology
) -> Tuple[float, float]:
    """The offsets reachable without snaking: ``[g(0), g(d)] = [-D(d, Cb), D(d, Ca)]``."""
    return (
        -wire_delay(distance, cap_b, tech),
        wire_delay(distance, cap_a, tech),
    )


def feasible_offset_interval(
    interval_a: Tuple[float, float],
    interval_b: Tuple[float, float],
    bound: float,
) -> Tuple[float, float]:
    """Offsets keeping a shared group's merged delay spread within ``bound``.

    ``interval_a`` / ``interval_b`` are the group's delay intervals measured
    from the two subtree roots.  After the merge the group's spread is bounded
    by ``bound`` exactly when the balance offset ``g`` satisfies

        bhi - alo - bound  <=  g  <=  bound - ahi + blo.

    The result may be empty (``lo > hi``) when the children's spreads already
    consume more slack than the bound provides.
    """
    if bound < 0.0:
        raise ValueError("skew bound must be non-negative")
    alo, ahi = interval_a
    blo, bhi = interval_b
    return (bhi - alo - bound, bound - ahi + blo)


def solve_merge(
    distance: float,
    cap_a: float,
    cap_b: float,
    tech: Technology,
    target_offset: float,
    allow_snaking: bool = True,
) -> MergeEdges:
    """Wire lengths of minimum total length realising ``target_offset``.

    Detour-free splits are preferred; when the target lies outside the
    detour-free range and ``allow_snaking`` is true, the shorter side is pinned
    to zero and the longer side is extended (wire snaking).  When snaking is
    disallowed (the disjoint case) the target is clamped to the detour-free
    range, so the result always has total length exactly ``distance``.
    """
    if distance < 0.0:
        raise ValueError("merge distance must be non-negative")
    g_lo, g_hi = detour_free_offset_range(distance, cap_a, cap_b, tech)
    if not allow_snaking:
        target_offset = min(max(target_offset, g_lo), g_hi)

    if target_offset > g_hi + _EPS:
        # Even placing the merge point on top of Tb leaves Ta too fast:
        # snake the wire towards Ta (eb = 0, ea > d).
        ea = wire_length_for_delay(target_offset, cap_a, tech)
        return MergeEdges(ea=max(ea, distance), eb=0.0, distance=distance)
    if target_offset < g_lo - _EPS:
        eb = wire_length_for_delay(-target_offset, cap_b, tech)
        return MergeEdges(ea=0.0, eb=max(eb, distance), distance=distance)

    ea = split_for_offset(target_offset, distance, cap_a, cap_b, tech)
    ea = min(max(ea, 0.0), distance)
    return MergeEdges(ea=ea, eb=distance - ea, distance=distance)


def balance_split(
    distance: float,
    delay_a: float,
    delay_b: float,
    cap_a: float,
    cap_b: float,
    tech: Technology,
    allow_snaking: bool = True,
) -> MergeEdges:
    """Classic zero-skew split: equalise ``delay_a + D(ea)`` and ``delay_b + D(eb)``.

    This is the merge of greedy-DME; it is also the building block of the
    group-aware merges (which merely restrict the admissible offset first).
    """
    return solve_merge(
        distance,
        cap_a,
        cap_b,
        tech,
        target_offset=delay_b - delay_a,
        allow_snaking=allow_snaking,
    )


# ----------------------------------------------------------------------
# Merge loci
# ----------------------------------------------------------------------
def merge_locus(a: Trr, b: Trr, ea: float, eb: float) -> Optional[Trr]:
    """Locus of points at distance <= ``ea`` from ``a`` and <= ``eb`` from ``b``.

    Returns ``None`` when ``ea + eb`` is smaller than the distance between the
    regions (no legal merge point exists for those edge lengths).
    """
    if ea < -_EPS or eb < -_EPS:
        raise ValueError("edge lengths must be non-negative")
    return a.expanded(max(ea, 0.0)).intersection(b.expanded(max(eb, 0.0)))


def balance_locus(a: Trr, b: Trr, ea: float, eb: float) -> Trr:
    """Merge locus for a balanced merge; raises if the edge lengths are too short.

    This is :func:`merge_locus` with the additional guarantee requested by the
    DME-family routers: the caller has already chosen ``ea + eb`` at least as
    large as the region distance, so the locus must exist.
    """
    locus = merge_locus(a, b, ea, eb)
    if locus is None:
        raise ValueError(
            "edge lengths (%.6g, %.6g) cannot bridge regions at distance %.6g"
            % (ea, eb, a.distance_to(b))
        )
    return locus


# ----------------------------------------------------------------------
# The case dispatch of Fig. 6
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MergeDecision:
    """Everything needed to materialise one merge."""

    case: str
    edges: MergeEdges
    locus: Trr
    cap: float
    delays: Dict[int, Tuple[float, float]]
    delay_a: float
    delay_b: float
    violation: float = 0.0

    @property
    def wirelength(self) -> float:
        """Wire added by this merge."""
        return self.edges.total

    @property
    def snaked(self) -> bool:
        """Whether the merge needed wire snaking."""
        return self.edges.snaked


def classify_pair(sub_a: Subtree, sub_b: Subtree) -> Tuple[str, FrozenSet[int]]:
    """Classify a candidate merge and return ``(case, shared_groups)``."""
    shared = sub_a.shares_group_with(sub_b)
    if not shared:
        return DISJOINT, shared
    if sub_a.groups == sub_b.groups == shared and len(shared) == 1:
        return SAME_GROUP, shared
    return SHARED, shared


def plan_merge(
    sub_a: Subtree,
    sub_b: Subtree,
    constraints: SkewConstraints,
    tech: Technology,
) -> MergeDecision:
    """Plan the merge of ``sub_a`` and ``sub_b`` under ``constraints``.

    The returned decision carries the chosen wire lengths, the placement locus
    of the new root, the merged downstream capacitance and the merged
    per-group delay intervals.  The caller materialises it into the clock tree
    and into a new :class:`Subtree`.
    """
    case, shared = classify_pair(sub_a, sub_b)
    distance = sub_a.locus.distance_to(sub_b.locus)

    # The offset that would equalise the slowest sink of each side; used as a
    # secondary objective whenever the constraints leave freedom.
    balance_target = sub_b.max_delay - sub_a.max_delay

    violation = 0.0
    if not shared:
        # Unconstrained merge: keep the wire at the minimum possible length,
        # but use the free choice of split to chase the balance target.
        edges = solve_merge(
            distance,
            sub_a.cap,
            sub_b.cap,
            tech,
            target_offset=balance_target,
            allow_snaking=False,
        )
    else:
        offset_lo = float("-inf")
        offset_hi = float("inf")
        for group in shared:
            lo, hi = feasible_offset_interval(
                sub_a.delay_interval(group),
                sub_b.delay_interval(group),
                constraints.bound_for(group),
            )
            offset_lo = max(offset_lo, lo)
            offset_hi = min(offset_hi, hi)
        if offset_lo <= offset_hi:
            target = min(max(balance_target, offset_lo), offset_hi)
        else:
            # Incompatible shared-group offsets: no single merge point can
            # satisfy every bound.  Take the offset minimising the worst
            # violation (the midpoint of the empty "interval").
            target = (offset_lo + offset_hi) / 2.0
            violation = (offset_lo - offset_hi) / 2.0
        edges = solve_merge(
            distance,
            sub_a.cap,
            sub_b.cap,
            tech,
            target_offset=target,
        )

    delay_a = wire_delay(edges.ea, sub_a.cap, tech)
    delay_b = wire_delay(edges.eb, sub_b.cap, tech)

    merged_delays: Dict[int, Tuple[float, float]] = {}
    for group, (lo, hi) in sub_a.delays.items():
        merged_delays[group] = (lo + delay_a, hi + delay_a)
    for group, (lo, hi) in sub_b.delays.items():
        shifted = (lo + delay_b, hi + delay_b)
        if group in merged_delays:
            existing = merged_delays[group]
            merged_delays[group] = (
                min(existing[0], shifted[0]),
                max(existing[1], shifted[1]),
            )
        else:
            merged_delays[group] = shifted

    cap = sub_a.cap + sub_b.cap + wire_capacitance(edges.total, tech)
    locus = balance_locus(sub_a.locus, sub_b.locus, edges.ea, edges.eb)

    return MergeDecision(
        case=case,
        edges=edges,
        locus=locus,
        cap=cap,
        delays=merged_delays,
        delay_a=delay_a,
        delay_b=delay_b,
        violation=violation,
    )
