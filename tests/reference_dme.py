"""The per-subtree object merge loop, kept as the reference for the arena loop.

Routes and ECO re-merges run one bottom-up loop,
:meth:`repro.core.ast_dme.AstDme.merge_rows`, over struct-of-arrays rows.
This module keeps the loop it replaced, term for term: one
:class:`~tests.reference_merge.Subtree` per active subtree, each merge planned
by the scalar :func:`~tests.reference_merge.plan_merge` and added to the
clock tree as it happens, and the free split of every unconstrained merge
held as a :class:`PendingSplit` until the merged subtree's next partner is
known.  The identity tests in ``tests/test_cts_arena.py`` compare the two
loops node for node, so the batched arithmetic stays float-exact against the
scalar merge equations.

It also keeps the top-down embedding the routers ran before the level-wise
:func:`repro.cts.embedding.embed_levels`: :func:`embed_tree`, a preorder walk
over the node objects, term for term.  ``tests/test_cts_embedding_levels.py``
holds the two to the same locations, edge lengths and detour totals.

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
from repro.cts.embedding import _obstacle_aware_location
from repro.cts.tree import ClockTree
from repro.delay.technology import Technology
from repro.delay.wire import wire_delay
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from tests.reference_merge import DISJOINT, MergeDecision, Subtree, merge_locus, plan_merge
from tests.reference_neighbors import loci_to_array

__all__ = [
    "PendingSplit",
    "make_pending",
    "resolve_one",
    "resolve_pending",
    "merge_subtrees",
    "embed_tree",
    "route_reference",
    "assert_loci_rows",
]

_TOL = 1e-6


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


def resolve_one(
    pending: PendingSplit, target: Trr, tech: Technology, max_deviation: float
) -> float:
    """The split :func:`resolve_split` picks for one pending split: a one-row call."""
    (split,) = resolve_split(
        np.array([_row(pending.locus_a)]),
        np.array([_row(pending.locus_b)]),
        np.array([pending.distance]),
        np.array([pending.cap_a]),
        np.array([pending.cap_b]),
        np.array([pending.balance_split]),
        np.array([_row(target)]),
        tech.unit_resistance,
        tech.unit_capacitance,
        np.array([max_deviation]),
    )
    return float(split)


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
        split = resolve_one(pending, target, tech, max_deviation)
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
    :func:`~tests.reference_merge.plan_merge` and adds its node to ``tree``.
    Every merge node's placement locus goes into ``loci``.
    """
    tech = tree.technology
    constraints = router._constraints or router.config.constraints()
    selector = router.config.order_policy().make_selector()
    want_bias = router.config.delay_target_weight > 0.0
    while len(subtrees) > 1:
        side_a, side_b = selector.pairs_for_pass_arrays(
            loci_to_array([s.locus for s in subtrees]),
            np.array([s.node_id for s in subtrees], dtype=np.int64),
            np.array([s.max_delay for s in subtrees]) if want_bias else None,
        )
        pairs = list(zip(side_a.tolist(), side_b.tolist()))
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
            decision = plan_merge(sub_a, sub_b, constraints, tech)
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


def assert_loci_rows(rows: np.ndarray, loci: Dict[int, Trr]) -> None:
    """``rows`` (a ``RoutingResult.loci``) holds the locus of every node in
    ``loci`` by ``float.hex``, and NaN rows at exactly the ids ``loci`` lacks."""
    assert rows.dtype == np.float64 and rows.ndim == 2 and rows.shape[1] == 4
    missing = np.isnan(rows).any(axis=1)
    assert np.isnan(rows[missing]).all()
    assert np.flatnonzero(~missing).tolist() == sorted(loci)
    for node_id, locus in loci.items():
        expected = [float(v).hex() for v in (locus.ulo, locus.uhi, locus.vlo, locus.vhi)]
        assert [v.hex() for v in rows[node_id].tolist()] == expected, node_id


def route_reference(
    router: AstDme, instance: ClockInstance, single_group: bool = False
) -> RoutingResult:
    """What ``router.route(instance, single_group)`` builds, via the object loop.

    One subtree per sink, :func:`merge_subtrees`, then the scalar
    :func:`embed_tree`.  The optimizer is not run.
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


def embed_tree(
    tree,
    loci: Dict[int, Trr],
    source_location: Optional[Point] = None,
    obstacles: Optional[ObstacleSet] = None,
) -> float:
    """Place the nodes of ``tree`` that have no location yet, top-down.

    The walk visits the root and then, in preorder, each node it places.
    Every child of a visited node that has no location is placed on its
    locus, and the edge into every child of a visited node is checked (with
    obstacles: extended to its detour distance where needed).  A subtree
    whose root is already placed is not entered: the caller vouches that it
    is embedded, blockage-consistent included.  On a fresh route every merge
    node is unplaced, so the walk covers every edge; on a stitched ECO tree
    it covers the rebuilt cone and the edges into the stitched subtrees.

    Args:
        tree: the :class:`~repro.cts.tree.ClockTree` under construction.  Sinks
            and the source must already carry locations.
        loci: placement locus of every unplaced node, keyed by node id.
        source_location: optional override for the source location check.
        obstacles: optional routing blockages.  When given, locations are
            chosen by detour distance and booked edge lengths are extended
            where no blockage-avoiding path fits the booked wire.

    Returns:
        Total wire added to booked edge lengths for blockage detours (always
        0.0 without obstacles).

    Raises:
        ValueError: when an unplaced node has no locus, or when a chosen
            location would require more wire than the booked edge length
            (which would indicate a bug in the bottom-up phase); with
            obstacles, also when a node cannot be placed outside every
            blockage.
    """
    if obstacles is not None and not obstacles:
        obstacles = None
    root = tree.root()
    if root.location is None:
        if source_location is None:
            raise ValueError("the tree root has no location and none was supplied")
        tree.set_location(root.node_id, source_location)

    total_detour = 0.0
    stack = [root.node_id]
    while stack:
        node_id = stack.pop()
        parent_location = tree.node(node_id).location
        placed = []
        for child in tree.children_of(node_id):
            if child.location is None:
                if child.node_id not in loci:
                    raise ValueError("internal node %d has no placement locus" % child.node_id)
                if obstacles is None:
                    location = loci[child.node_id].nearest_point_to(parent_location)
                else:
                    location = _obstacle_aware_location(
                        loci[child.node_id], parent_location, obstacles, child.node_id
                    )
                tree.set_location(child.node_id, location)
                placed.append(child.node_id)
            if obstacles is None:
                _check_edge(parent_location, child.location, child.edge_length, child.node_id)
            else:
                total_detour += _extend_for_detour(tree, parent_location, child, obstacles)
        stack.extend(reversed(placed))
    return total_detour


def _extend_for_detour(tree, parent: Point, child, obstacles: ObstacleSet) -> float:
    """Grow ``child``'s booked edge to its detour distance when needed."""
    needed = obstacles.detour_distance(parent, child.location)
    if needed > child.edge_length + _TOL:
        extension = needed - child.edge_length
        tree.set_edge_length(child.node_id, needed)
        return extension
    return 0.0


def _check_edge(parent: Point, child: Point, edge_length: float, child_id: int) -> None:
    """Verify the booked edge length can realise the chosen embedding."""
    distance = parent.distance_to(child)
    if distance > edge_length + _TOL:
        raise ValueError(
            "edge to node %d needs %.6g wire but only %.6g was booked"
            % (child_id, distance, edge_length)
        )
