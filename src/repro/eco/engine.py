"""The ECO re-routing engine: rebuild only the dirty cone of a routed tree.

Given a finished :class:`~repro.core.ast_dme.RoutingResult` and an
:class:`~repro.eco.delta.EcoDelta`, :func:`eco_reroute` produces a new
routing for the post-change instance by rebuilding only the *dirty cone* --
the merge ancestors of the affected sinks -- and stitching the untouched
subtrees back in unchanged:

1. *Dirty nodes.*  The tree nodes of moved and removed sinks; for every
   added sink, the node of its nearest surviving sink (which gives the new
   sink local merge partners); and, when the delta adds blockages, every
   node embedded inside a new blockage plus every node whose booked edge no
   longer covers the blockage-avoiding detour distance to its parent.  Edges
   into or out of a node inside a new blockage are rebuilt with it, so they
   are not checked.
2. *Dirty cone.*  All ancestors of the dirty nodes up to (and including) the
   source.  Everything else is clean.
3. *Frontier.*  The maximal clean subtrees: clean nodes whose parent lies in
   the cone.  Each frontier subtree is one slice of the base arena's
   preorder, and the stitched tree starts as one gather of those slices
   (:meth:`~repro.cts.arena.TreeArena.gather_subtrees`), frontier roots in
   ascending id order: the ids and columns a node-by-node preorder copy
   gives, bit-identical by construction.  Each subtree is summarised from
   the base arena by :func:`~repro.delay.elmore.subtree_summary`: its
   root's capacitance and per-group delay intervals -- the tree *as
   embedded*, detour extensions and prior repairs included.
4. *Re-merge.*  :meth:`~repro.core.ast_dme.AstDme.grow`, the router's own
   construction step, grows the stitched tree over the frontier stubs and
   the fresh sinks (added, moved and blockage-displaced ones): one merge row
   each at its point, the router's bottom-up loop, then top-down embedding
   of the new nodes only.  Point loci make the merge arithmetic around the
   frontier exact; clean nodes already carry locations so the embedding
   never enters them (and clean edges satisfy the detour check by step 1,
   so obstacle-aware embedding never extends them either).

The stitched :class:`RoutingResult` carries the base's constraints, which
the re-merge holds, and ``max(base, rebuilt)`` as its
``stats.max_violation`` slack: intervals inherited from the base tree may
already exceed the bound (post-detour, post-repair) and re-merges above the
frontier bound the spreads they can actually control.  When the optional
local repair is configured it runs only if the stitched tree violates a
bound, through ``optimize_routing``, which holds every group to its own
bound (the repair's ``skew_bound_ps`` when set) -- the untouched-subtree
bit-identity guarantee therefore holds exactly on the no-repair path (see
docs/eco.md for the tolerance semantics).

Steps 1-3 read the base tree only through its arena, and the stitched tree is
built and embedded as an arena, blockages included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.analysis.skew import skew_report
from repro.core.ast_dme import AstDme, AstDmeConfig, MergeStats, RoutingResult, copied_loci
from repro.core.group_constraints import GroupAssociation, SkewConstraints
from repro.cts.arena import _KIND_NAMES, SINK_KIND, TreeArena
from repro.cts.tree import ClockTree
from repro.delay.elmore import subtree_summary
from repro.eco.delta import EcoDelta
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.obs.trace import get_tracer
from repro.opt.config import OptConfig

__all__ = [
    "EcoConfig",
    "EcoStats",
    "EcoOutcome",
    "eco_reroute",
    "subtree_signature",
    "preserved_subtrees_identical",
]

#: Slack applied when deciding whether a booked edge still covers the
#: blockage-avoiding detour after new blockages arrive (matches the
#: validator's geometric tolerance).
_DETOUR_TOL = 1e-6

#: Internal-unit slack on the post-stitch skew check that gates local repair.
_REPAIR_TOL = 1e-3


@dataclass(frozen=True)
class EcoConfig:
    """Parameters of an ECO re-route.

    ``router`` configures the re-merge of the rebuilt cone exactly like a
    full :class:`~repro.core.ast_dme.AstDme` run (merging order, snaking,
    SDR budget; its bound holds only for a base without constraints).
    ``repair`` optionally enables the local post-stitch optimizer: it runs
    only when the stitched tree violates a skew bound, and then holds every
    group to its own bound, so the untouched-subtree bit-identity guarantee
    survives whenever no repair is needed.
    """

    router: AstDmeConfig = field(default_factory=AstDmeConfig)
    repair: Optional[OptConfig] = None


@dataclass
class EcoStats:
    """What one ECO re-route touched, reused and rebuilt."""

    sinks_added: int = 0
    sinks_moved: int = 0
    sinks_removed: int = 0
    blockages_added: int = 0
    #: Tree nodes directly invalidated by the delta (before cone expansion).
    dirty_nodes: int = 0
    #: Size of the dirty cone (dirty nodes plus all their ancestors).
    cone_nodes: int = 0
    #: Number of maximal clean subtrees stitched back unchanged.
    frontier_subtrees: int = 0
    #: Nodes copied verbatim from the base tree.
    reused_nodes: int = 0
    #: Nodes created fresh (re-added sinks, new merge nodes, the source).
    rebuilt_nodes: int = 0
    #: Whether the local post-stitch repair ran (bit-identity then waived).
    repaired: bool = False
    #: Base frontier-root node id -> node id of its copy in the new tree.
    preserved_roots: Dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sinks_added": self.sinks_added,
            "sinks_moved": self.sinks_moved,
            "sinks_removed": self.sinks_removed,
            "blockages_added": self.blockages_added,
            "dirty_nodes": self.dirty_nodes,
            "cone_nodes": self.cone_nodes,
            "frontier_subtrees": self.frontier_subtrees,
            "reused_nodes": self.reused_nodes,
            "rebuilt_nodes": self.rebuilt_nodes,
            "repaired": self.repaired,
            # JSON object keys must be strings; node ids are ints.
            "preserved_roots": {str(k): v for k, v in self.preserved_roots.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EcoStats":
        return cls(
            sinks_added=data.get("sinks_added", 0),
            sinks_moved=data.get("sinks_moved", 0),
            sinks_removed=data.get("sinks_removed", 0),
            blockages_added=data.get("blockages_added", 0),
            dirty_nodes=data.get("dirty_nodes", 0),
            cone_nodes=data.get("cone_nodes", 0),
            frontier_subtrees=data.get("frontier_subtrees", 0),
            reused_nodes=data.get("reused_nodes", 0),
            rebuilt_nodes=data.get("rebuilt_nodes", 0),
            repaired=bool(data.get("repaired", False)),
            preserved_roots={
                int(k): int(v) for k, v in data.get("preserved_roots", {}).items()
            },
        )


@dataclass
class EcoOutcome:
    """A stitched routing plus the bookkeeping of how it was produced."""

    routing: RoutingResult
    eco: EcoStats


# ----------------------------------------------------------------------
def eco_reroute(
    base: RoutingResult,
    delta: EcoDelta,
    config: EcoConfig = EcoConfig(),
    constraints: Optional[SkewConstraints] = None,
) -> EcoOutcome:
    """Apply ``delta`` to ``base`` by rebuilding only the dirty cone.

    Args:
        base: a finished, embedded routing of the pre-change instance.  The
            base is never mutated.
        delta: the change order to apply.
        config: merge parameters for the rebuilt region plus the optional
            local repair; should mirror the configuration the base was
            routed with so the stitched tree is what a full re-run would aim
            for.
        constraints: explicit per-group skew bounds; defaults to
            ``base.constraints``, else the uniform bound of ``config.router``.

    Raises:
        EcoDeltaError: when the delta does not apply to the base instance.
        ValueError: when the base result is not a fully embedded tree whose
            sink nodes carry their instance sink ids (``sink_ids``).
    """
    start = time.perf_counter()
    instance = base.instance
    new_instance = delta.apply(instance)
    tech = instance.technology
    single_group = getattr(base, "single_group", False)
    constraints = constraints or base.constraints or config.router.constraints()
    arena = base.tree.as_arena()
    parents = arena.parents

    removed_ids = set(delta.remove)
    moved_ids = set(delta.moved_ids())
    tracer = get_tracer()

    # ------------------------------------------------------------------
    # 1. Dirty nodes.
    # ------------------------------------------------------------------
    with tracer.span("eco.cone") as cone_span:
        new_sinks = new_instance.sinks
        # Survivors keep their base ids; every other id is an added sink.
        old = np.isin(new_sinks.ids, instance.sinks.ids)
        partner_ids: Set[int] = set()
        if old.any() and not old.all():
            # Each added sink's nearest survivor, the first on ties like
            # ``min(surviving, key=distance)``: |dx| + |dy| in
            # ``manhattan_distance`` operand order is exact elementwise.
            xs, ys, survivor_ids = new_sinks.xs[old], new_sinks.ys[old], new_sinks.ids[old]
            for x, y in zip(new_sinks.xs[~old].tolist(), new_sinks.ys[~old].tolist()):
                nearest = np.argmin(np.abs(xs - x) + np.abs(ys - y))
                partner_ids.add(survivor_ids.item(nearest))

        wanted = removed_ids | moved_ids | partner_ids
        sink_nodes = _sink_nodes_by_id(arena, wanted)
        missing = sorted(sid for sid in wanted if sid not in sink_nodes)
        if missing:
            raise ValueError(
                "base tree has no sink node for sink ids %s; "
                "ECO needs a tree built by the standard routers" % missing
            )

        dirty: Set[int] = {sink_nodes[sid] for sid in wanted}

        if delta.add_blockages:
            unplaced = np.flatnonzero(~arena.has_location)
            if unplaced.size:
                raise ValueError(
                    "base tree is not fully embedded (node %d has no location)"
                    % unplaced[0]
                )
            blocked = ObstacleSet(delta.add_blockages).blocks_points(arena.xs, arena.ys)
            dirty.update(np.flatnonzero(blocked).tolist())
            combined = new_instance.obstacle_set()
            locations = [Point(x, y) for x, y in zip(arena.xs.tolist(), arena.ys.tolist())]
            lengths = arena.edge_lengths.tolist()
            # An edge into or out of a blocked node is rebuilt with it, and
            # detours are undefined from inside a blockage.
            for node_id in np.flatnonzero((parents >= 0) & ~blocked & ~blocked[parents]).tolist():
                parent = int(parents[node_id])
                detour = combined.detour_distance(locations[parent], locations[node_id])
                if lengths[node_id] + _DETOUR_TOL < detour:
                    dirty.add(node_id)

        # ------------------------------------------------------------------
        # 2. Dirty cone: the dirty nodes and all their ancestors.  The source is
        #    always rebuilt (its child edge is re-resolved against the new root
        #    subtree), so it seeds the cone even for an empty delta.
        # ------------------------------------------------------------------
        if arena.root < 0:
            raise ValueError("the tree has no root yet")
        cone: Set[int] = {arena.root}
        for nid in dirty:
            while nid >= 0 and nid not in cone:
                cone.add(nid)
                nid = int(parents[nid])
        cone_span.set(dirty=len(dirty), cone=len(cone))

    # ------------------------------------------------------------------
    # 3. Frontier: maximal clean subtrees, gathered as slices of the base
    #    arena and summarised as they stand in the base tree.
    # ------------------------------------------------------------------
    with tracer.span("eco.stitch") as stitch_span:
        in_cone = np.zeros(arena.num_nodes, dtype=bool)
        in_cone[list(cone)] = True
        children, _ = arena.children_of(np.flatnonzero(in_cone))
        frontier = np.sort(children[~in_cone[children]])
        group_ids = [0] if single_group else new_instance.groups()
        stubs = subtree_summary(arena, frontier, group_ids)
        unplaced = frontier[~arena.has_location[frontier]]
        if unplaced.size:
            raise ValueError(
                "base tree is not fully embedded (node %d has no location)" % unplaced[0]
            )
        stitched, copied_from = arena.gather_subtrees(frontier)
        stitched.technology = tech
        reused = stitched.num_nodes
        new_roots = np.flatnonzero(stitched.parents < 0)  # one per frontier root, in order
        preserved_roots: Dict[int, int] = dict(zip(frontier.tolist(), new_roots.tolist()))
        # Copied nodes keep their loci (the stitched tree's first rows).
        stitched_loci = copied_loci(base.loci, copied_from)

        # Sinks that must be (re)created: added sinks, moved sinks, and clean-id
        # sinks the blockage scan displaced (inside a new blockage is impossible
        # -- delta.apply rejects that -- but a sink whose edge needs a detour
        # rebuild lands here).
        dirty_nodes = np.fromiter(dirty, dtype=np.int64, count=len(dirty))
        dirty_sinks = dirty_nodes[arena.kinds[dirty_nodes] == SINK_KIND]
        dirty_ids = arena.sink_ids[dirty_sinks]
        if (dirty_ids < 0).any():
            raise ValueError(
                "dirty sink node %d has no sink id; "
                "ECO needs a tree built by the standard routers"
                % dirty_sinks[np.argmax(dirty_ids < 0)]
            )
        recreate = moved_ids | set(dirty_ids.tolist())
        fresh_sinks = new_sinks.rows(~old | np.isin(new_sinks.ids, list(recreate)))
        total_sinks = int(stubs.sinks.sum()) + len(fresh_sinks)
        if total_sinks != new_instance.num_sinks:
            raise RuntimeError(
                "ECO stitching lost sinks: stubs cover %d of %d"
                % (total_sinks, new_instance.num_sinks)
            )
        stitch_span.set(frontier=len(frontier), reused=reused)

    # ------------------------------------------------------------------
    # 4. Re-merge: grow the stitched tree over the frontier stubs and the
    #    fresh sinks with the router's own construction step.  The cone is
    #    small, which is the whole point of ECO.  A frontier stub may span
    #    several groups: associate them first.
    # ------------------------------------------------------------------
    stats = MergeStats()
    association = GroupAssociation(new_instance.groups())
    for stub_present_row in stubs.present.tolist():
        groups = [g for g, here in zip(group_ids, stub_present_row) if here]
        for group in groups[1:]:
            association.associate(groups[0], group)
    obstacles = new_instance.obstacle_set() if new_instance.has_obstacles else None
    with tracer.span("eco.remerge") as remerge_span:
        new_tree, new_loci = AstDme(config.router, constraints).grow(
            stitched,
            fresh_sinks,
            new_instance.source,
            group_ids,
            stats,
            association,
            obstacles,
            stubs=new_roots,
            stub_summary=stubs,
        )
        new_loci[:reused] = stitched_loci
        remerge_span.set(passes=stats.passes)
    # Clean subtrees inherit the base's violation slack (post-detour,
    # post-repair spreads the re-merge cannot shrink); validation of the
    # stitched result must see it, exactly as it would on the base.
    stats.max_violation = max(stats.max_violation, base.stats.max_violation)

    routing = RoutingResult(
        tree=new_tree,
        instance=new_instance,
        stats=stats,
        association=association,
        loci=new_loci,
        elapsed_seconds=0.0,
        single_group=single_group,
        constraints=constraints,
    )
    with tracer.span("eco.repair") as repair_span:
        repaired = _repair_if_violating(routing, config.repair)
        repair_span.set(repaired=repaired)
    routing.elapsed_seconds = time.perf_counter() - start

    eco_stats = EcoStats(
        sinks_added=len(delta.add),
        sinks_moved=len(delta.move),
        sinks_removed=len(delta.remove),
        blockages_added=len(delta.add_blockages),
        dirty_nodes=len(dirty),
        cone_nodes=len(cone),
        frontier_subtrees=len(frontier),
        reused_nodes=reused,
        rebuilt_nodes=len(new_tree) - reused,
        repaired=repaired,
        preserved_roots=preserved_roots,
    )
    return EcoOutcome(routing=routing, eco=eco_stats)


# ----------------------------------------------------------------------
def _signature_columns(arena: TreeArena, roots) -> Tuple[Tuple[np.ndarray, ...], List, np.ndarray]:
    """The signature columns of the subtrees below ``roots``, one after another.

    One row per node in preorder: kind code, location (0.0 where unplaced,
    with the placed flag), edge length (0.0 at each subtree root), sink cap,
    group (0 where ungrouped, with the grouped flag), child count and sink
    id.  Returns the array columns, the ``(row, label)`` pairs of the
    labelled rows in row order, and the node id of each row.
    """
    rows, starts = arena.subtree_rows(roots)
    placed = arena.has_location[rows]
    grouped = arena.has_group[rows]
    edge_lengths = arena.edge_lengths[rows]
    edge_lengths[starts] = 0.0
    columns = (
        arena.kinds[rows],
        placed,
        np.where(placed, arena.xs[rows], 0.0),
        np.where(placed, arena.ys[rows], 0.0),
        edge_lengths,
        arena.sink_caps[rows],
        grouped,
        np.where(grouped, arena.groups[rows], 0),
        arena.child_counts()[rows],
        arena.sink_ids[rows],
    )
    position = np.full(arena.num_nodes, -1, dtype=np.int64)
    position[rows] = np.arange(len(rows), dtype=np.int64)
    labels = sorted(
        (position.item(node), label)
        for node, label in arena.labels.items()
        if position.item(node) >= 0
    )
    return columns, labels, rows


def subtree_signature(tree: ClockTree, root_id: int) -> Tuple:
    """A hashable structural digest of a subtree, independent of node ids.

    Covers kind, name, location, sink cap, group, child count and the edge
    length of every edge strictly inside the subtree (the subtree root's own
    parent edge is excluded: re-merging legitimately re-books it), node by
    node in preorder.  Two subtrees with equal signatures are bit-identical
    copies.  Read from the tree's arena.
    """
    arena = tree.as_arena()
    columns, _, rows = _signature_columns(arena, [root_id])
    kinds, placed, xs, ys, edges, caps, grouped, groups, counts, _ = (c.tolist() for c in columns)
    names = [arena.name_of(node) for node in rows.tolist()]
    return tuple(
        (
            _KIND_NAMES[kinds[k]],
            names[k],
            (xs[k], ys[k]) if placed[k] else None,
            edges[k],
            caps[k],
            groups[k] if grouped[k] else None,
            counts[k],
        )
        for k in range(len(names))
    )


def preserved_subtrees_identical(
    base_tree: ClockTree, new_tree: ClockTree, preserved_roots: Mapping[int, int]
) -> bool:
    """Whether every stitched frontier subtree is bit-identical to its source.

    Compares what :func:`subtree_signature` covers for every pair at once,
    column by column on the two trees' arenas, with the sink-id column and
    the labels standing for the names.
    """
    base_columns, base_labels, _ = _signature_columns(base_tree.as_arena(), list(preserved_roots))
    new_columns, new_labels, _ = _signature_columns(
        new_tree.as_arena(), list(preserved_roots.values())
    )
    return base_labels == new_labels and all(
        np.array_equal(mine, theirs) for mine, theirs in zip(base_columns, new_columns)
    )


def _sink_nodes_by_id(arena: TreeArena, wanted: Set[int]) -> Dict[int, int]:
    """Instance sink id -> tree node id for the ``wanted`` sink ids: one
    ``np.isin`` over the tree's ``sink_ids`` column (the last node wins if
    two carry one id)."""
    if not wanted:
        return {}
    nodes = np.flatnonzero(np.isin(arena.sink_ids, list(wanted)))
    return dict(zip(arena.sink_ids[nodes].tolist(), nodes.tolist()))


def _repair_if_violating(routing: RoutingResult, repair: Optional[OptConfig]) -> bool:
    """Repair ``routing`` in place when (and only when) it violates a bound.

    The gate checks each group against the bound the repair holds it to
    (``Optimizer.resolve_bound``), so the repair fixes the violating groups
    while keeping the others within theirs.  Returns whether it ran.
    """
    if repair is None or not repair.enabled:
        return False
    from repro.opt.optimizer import Optimizer, optimize_routing

    bound_for = Optimizer(repair).resolve_bound(routing.constraints.bound_for)
    report = skew_report(routing.tree)
    spreads = {0: report.global_skew} if routing.single_group else report.per_group_skew
    if all(skew <= bound_for(group) + _REPAIR_TOL for group, skew in spreads.items()):
        return False
    routing.opt = optimize_routing(routing, repair)
    return True
