"""The per-subtree object merge loop, kept as the reference for the arena loop.

Routes and ECO re-merges run one bottom-up loop,
:meth:`repro.core.ast_dme.AstDme.merge_rows`, over struct-of-arrays rows.
This module keeps the loop it replaced, term for term: one
:class:`~repro.core.subtree.Subtree` per active subtree, each merge planned
by the scalar :func:`~repro.core.merge_cases.plan_merge` and added to the
clock tree as it happens, and the free split of every unconstrained merge
held as a :class:`PendingSplit` until the merged subtree's next partner is
known.  The identity tests in ``tests/test_cts_arena.py`` compare the two
loops node for node, so the batched arithmetic stays float-exact against the
scalar merge equations.

Lazy split resolution is the one-step-lookahead model of SDR merging regions.
When AST-DME merges two subtrees from *different* groups (Chapter V.D), any
point of the shortest-distance region between the two child loci costs the
same wire for this merge; the split -- how much of the corridor lies on each
side -- is resolved at the subtree's next merge (or the source connection),
by choosing the split whose placement locus is closest to the new partner
(ties broken towards the delay-balanced split).  The corridor scan is
:func:`repro.core.merge_batch.resolve_split`, the same one the arena loop
uses.  The two sides share no sink group, so re-choosing the split shifts
every group on one side rigidly and can never violate an intra-group bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.instance import ClockInstance
from repro.core.ast_dme import AstDme, MergeStats, RoutingResult
from repro.core.group_constraints import GroupAssociation, SkewConstraints
from repro.core.merge_batch import resolve_split
from repro.core.merge_cases import DISJOINT, MergeDecision, plan_merge
from repro.core.subtree import Subtree
from repro.cts.embedding import embed_tree
from repro.cts.tree import ClockTree
from repro.delay.technology import Technology
from repro.delay.wire import wire_delay
from repro.geometry.point import Point
from repro.geometry.sdr import merge_locus
from repro.geometry.trr import Trr, loci_to_array

__all__ = [
    "PendingSplit",
    "make_pending",
    "resolve_pending",
    "merge_subtrees",
    "route_reference",
]


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


def make_pending(
    sub_a: Subtree, sub_b: Subtree, distance: float, balance_split: float
) -> PendingSplit:
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


def _skew_budget(router: AstDme, subtree: Subtree, constraints: SkewConstraints) -> float:
    """Delay deviation a lazy resolution of ``subtree`` may spend.

    A fraction of the tightest intra-group bound among the subtree's groups,
    so two independently resolved commitments of the same group pair can
    still be reconciled within the bound when their subtrees later merge.
    """
    tightest = min(constraints.bound_for(group) for group in subtree.delays)
    return router.config.sdr_skew_budget * tightest


def _record_merge(stats: MergeStats, decision: MergeDecision) -> None:
    stats.merges_by_case[decision.case] = stats.merges_by_case.get(decision.case, 0) + 1
    if decision.snaked:
        stats.snaked_merges += 1
        stats.total_detour += decision.edges.detour
    stats.max_violation = max(stats.max_violation, decision.violation)


def _record_association(
    association: GroupAssociation, sub_a: Subtree, sub_b: Subtree
) -> None:
    """Record that every group of ``sub_a`` is now associated with those of ``sub_b``."""
    groups_a = sorted(sub_a.groups)
    groups_b = sorted(sub_b.groups)
    anchor = groups_a[0]
    for group in groups_a[1:]:
        association.associate(anchor, group)
    for group in groups_b:
        association.associate(anchor, group)


def merge_subtrees(
    router: AstDme,
    subtrees: List[Subtree],
    tree: ClockTree,
    loci: Dict[int, Trr],
    source: Point,
    stats: MergeStats,
    association: GroupAssociation,
) -> None:
    """Merge ``subtrees`` bottom-up into ``tree`` and connect it to ``source``.

    The object form of :meth:`~repro.core.ast_dme.AstDme.merge_rows` with
    ``router``'s configuration: each pass selects disjoint nearest pairs,
    resolves pending splits towards the partners, plans each merge with
    :func:`~repro.core.merge_cases.plan_merge` and adds its node to ``tree``.
    Every merge node's placement locus goes into ``loci``.
    """
    tech = tree.technology
    constraints = router._constraints or router.config.constraints()
    selector = router.config.order_policy().make_selector()
    want_bias = router.config.delay_target_weight > 0.0
    while len(subtrees) > 1:
        pairs = selector.pairs_for_pass_arrays(
            loci_to_array([s.locus for s in subtrees]),
            [s.node_id for s in subtrees],
            np.array([s.max_delay for s in subtrees]) if want_bias else None,
        )
        if not pairs:
            raise RuntimeError("merging-order policy returned no pairs")
        stats.passes += 1
        merged_indices = set()
        new_subtrees: List[Subtree] = []
        for index_a, index_b in pairs:
            sub_a = subtrees[index_a]
            sub_b = subtrees[index_b]
            resolve_pending(
                sub_a, sub_b.locus, tech, tree, loci,
                max_deviation=_skew_budget(router, sub_a, constraints),
            )
            resolve_pending(
                sub_b, sub_a.locus, tech, tree, loci,
                max_deviation=_skew_budget(router, sub_b, constraints),
            )
            decision = plan_merge(
                sub_a, sub_b, constraints, tech, allow_snaking=router.config.allow_snaking
            )
            node_id = tree.add_internal(
                children=[sub_a.node_id, sub_b.node_id],
                edge_lengths=[decision.edges.ea, decision.edges.eb],
            )
            loci[node_id] = decision.locus
            merged_subtree = Subtree(
                node_id=node_id,
                locus=decision.locus,
                cap=decision.cap,
                delays=decision.delays,
                num_sinks=sub_a.num_sinks + sub_b.num_sinks,
            )
            if decision.case == DISJOINT and not decision.edges.snaked:
                merged_subtree.pending = make_pending(
                    sub_a, sub_b, decision.edges.distance, decision.edges.ea
                )
            new_subtrees.append(merged_subtree)
            _record_merge(stats, decision)
            _record_association(association, sub_a, sub_b)
            merged_indices.add(index_a)
            merged_indices.add(index_b)
        subtrees = [
            s for i, s in enumerate(subtrees) if i not in merged_indices
        ] + new_subtrees

    root = subtrees[0]
    resolve_pending(
        root,
        Trr.from_point(source),
        tech,
        tree,
        loci,
        max_deviation=_skew_budget(router, root, constraints),
    )
    tree.add_source(source, root.node_id, root.locus.distance_to_point(source))
    stats.neighbor_full_rebuilds = selector.full_rebuilds
    stats.neighbor_incremental_passes = selector.incremental_passes


def route_reference(
    router: AstDme, instance: ClockInstance, single_group: bool = False
) -> RoutingResult:
    """What ``router.route(instance, single_group)`` builds, via the object loop.

    One subtree per sink, :func:`merge_subtrees`, then the scalar
    :func:`~repro.cts.embedding.embed_tree`.  The optimizer is not run.
    """
    start = time.perf_counter()
    tree = ClockTree(technology=instance.technology)
    loci: Dict[int, Trr] = {}
    subtrees: List[Subtree] = []
    for sink in instance.sinks:
        node_id = tree.add_sink(
            location=sink.location,
            sink_cap=sink.cap,
            group=sink.group,
            name="sink-%d" % sink.sink_id,
        )
        subtrees.append(
            Subtree.for_sink(
                node_id=node_id,
                locus=Trr.from_point(sink.location),
                cap=sink.cap,
                group=0 if single_group else sink.group,
            )
        )
    stats = MergeStats()
    association = GroupAssociation(instance.groups())
    merge_subtrees(router, subtrees, tree, loci, instance.source, stats, association)
    obstacles = instance.obstacle_set() if instance.has_obstacles else None
    stats.obstacle_detour = embed_tree(tree, loci, obstacles=obstacles)
    return RoutingResult(
        tree=tree,
        instance=instance,
        stats=stats,
        association=association,
        loci=loci,
        elapsed_seconds=time.perf_counter() - start,
        single_group=single_group,
    )
