"""Lazy split resolution: a one-step-lookahead model of SDR merging regions.

When AST-DME merges two subtrees from *different* groups (Chapter V.D), the
paper keeps the whole shortest-distance region (SDR) between the two child
loci as the merging region: any point of the SDR costs the same wire for this
merge, and the freedom is spent later, when the next merge (or the source
connection) determines which part of the corridor is actually convenient.

A faithful polygon-and-delay-function implementation of BST regions is heavy;
this module implements the dominant first-order effect instead.  The split of
an unconstrained merge -- how much of the corridor lies on each side -- is
recorded as *pending* instead of being committed.  The pending split is
resolved lazily, at the moment the merged subtree is about to participate in
its next merge, by choosing the split whose placement locus is closest to the
new partner (ties broken towards the delay-balanced split); the corridor scan
is :func:`repro.core.merge_batch.resolve_split`, shared by every construction
loop.  Because the two sides of an unconstrained merge share no sink group,
re-choosing the split shifts every group on one side rigidly and can never
violate an intra-group constraint; the total wire of the pending merge is the
corridor length for every split, so wirelength bookkeeping is unaffected as
well.

DESIGN.md documents this as the substitution for full BST merging regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.merge_batch import resolve_split
from repro.core.subtree import Subtree
from repro.delay.technology import Technology
from repro.delay.wire import wire_delay
from repro.geometry.sdr import merge_locus
from repro.geometry.trr import Trr

__all__ = ["PendingSplit", "make_pending", "resolve_pending"]


@dataclass
class PendingSplit:
    """A cross-group merge whose split along the corridor is still free."""

    child_a_id: int
    child_b_id: int
    locus_a: Trr
    locus_b: Trr
    distance: float
    cap_a: float
    cap_b: float
    delays_a: Dict[int, Tuple[float, float]]
    delays_b: Dict[int, Tuple[float, float]]
    #: The delay-balanced split (wire towards child a), used as the tie-breaker.
    balance_split: float

    def locus_at(self, split: float) -> Trr:
        """Placement locus of the merge node for a given split."""
        split = min(max(split, 0.0), self.distance)
        locus = merge_locus(self.locus_a, self.locus_b, split, self.distance - split)
        if locus is None:  # pragma: no cover - defensive, cannot happen for valid splits
            raise RuntimeError("pending split produced an empty locus")
        return locus

    def delays_at(self, split: float, tech: Technology) -> Dict[int, Tuple[float, float]]:
        """Merged per-group delay intervals for a given split.

        The two sides share no group (that is what made the merge
        unconstrained), so the dictionaries are disjoint and intra-group
        spreads are independent of the split.
        """
        split = min(max(split, 0.0), self.distance)
        delay_a = wire_delay(split, self.cap_a, tech)
        delay_b = wire_delay(self.distance - split, self.cap_b, tech)
        merged: Dict[int, Tuple[float, float]] = {}
        for group, (lo, hi) in self.delays_a.items():
            merged[group] = (lo + delay_a, hi + delay_a)
        for group, (lo, hi) in self.delays_b.items():
            merged[group] = (lo + delay_b, hi + delay_b)
        return merged


def make_pending(sub_a: Subtree, sub_b: Subtree, distance: float, balance_split: float) -> PendingSplit:
    """Record the free split of an unconstrained merge of ``sub_a`` and ``sub_b``."""
    return PendingSplit(
        child_a_id=sub_a.node_id,
        child_b_id=sub_b.node_id,
        locus_a=sub_a.locus,
        locus_b=sub_b.locus,
        distance=distance,
        cap_a=sub_a.cap,
        cap_b=sub_b.cap,
        delays_a=dict(sub_a.delays),
        delays_b=dict(sub_b.delays),
        balance_split=balance_split,
    )


def _row(trr: Trr) -> Tuple[float, float, float, float]:
    return (trr.ulo, trr.uhi, trr.vlo, trr.vhi)


def resolve_pending(
    subtree: Subtree,
    target: Optional[Trr],
    tech: Technology,
    tree,
    loci: Dict[int, Trr],
    max_deviation: float = float("inf"),
) -> None:
    """Resolve ``subtree``'s pending split (if any) towards ``target``.

    Updates the subtree's locus and delay intervals, the booked edge lengths
    of the two children in ``tree`` and the recorded placement locus of the
    merge node.  A ``None`` target keeps the delay-balanced split.
    ``max_deviation`` is the useful-skew budget: the largest delay shift
    (relative to the balanced split) the resolution may spend on chasing the
    target, which is what keeps later shared-group merges feasible.
    """
    pending = getattr(subtree, "pending", None)
    if pending is None:
        return
    if target is None:
        split = pending.balance_split
    else:
        split = resolve_split(
            _row(pending.locus_a),
            _row(pending.locus_b),
            pending.distance,
            pending.cap_a,
            pending.cap_b,
            pending.balance_split,
            _row(target),
            tech.unit_resistance,
            tech.unit_capacitance,
            max_deviation,
        )
    subtree.locus = pending.locus_at(split)
    subtree.delays = pending.delays_at(split, tech)
    tree.set_edge_length(pending.child_a_id, split)
    tree.set_edge_length(pending.child_b_id, pending.distance - split)
    loci[subtree.node_id] = subtree.locus
    subtree.pending = None
