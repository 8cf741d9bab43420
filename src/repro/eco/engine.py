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
   longer covers the blockage-avoiding detour distance to its parent.
2. *Dirty cone.*  All ancestors of the dirty nodes up to (and including) the
   source.  Everything else is clean.
3. *Frontier.*  The maximal clean subtrees: clean nodes whose parent lies in
   the cone.  Each frontier subtree is copied into the new tree node for
   node (:meth:`~repro.cts.tree.ClockTree.copy_subtree_from`), bit-identical
   by construction, and summarised as a :class:`~repro.core.subtree.Subtree`
   stub whose placement locus is the *point* the frontier root is embedded
   at.  Its downstream capacitance comes from
   :func:`~repro.delay.elmore.subtree_capacitances` and its per-group delay
   intervals from the Elmore decomposition ``delay(v -> s) = t(s) - t(v)``
   (everything above ``v`` is a common term that cancels), both evaluated on
   the base tree through the cached arena snapshot -- so the stubs describe
   the tree *as embedded*, detour extensions and prior repairs included.
4. *Re-merge.*  The frontier stubs plus fresh sink stubs (added, moved and
   blockage-displaced sinks) go through
   :meth:`~repro.core.ast_dme.AstDme.merge_subtrees`, the router's own
   bottom-up loop -- the configured merging-order policy with its
   incremental ``NeighborIndex``, lazy SDR resolution, snaking merges --
   followed by top-down embedding of the new nodes.  Point loci make the
   merge arithmetic around the frontier exact; clean nodes already carry
   locations so the embedding never touches them (and clean edges satisfy
   the detour check by step 1, so obstacle-aware embedding never extends
   them either).

The stitched :class:`RoutingResult` carries ``max(base, rebuilt)`` as its
``stats.max_violation`` slack: intervals inherited from the base tree may
already exceed the bound (post-detour, post-repair) and re-merges above the
frontier bound the spreads they can actually control.  When the optional
local repair is configured it runs only if the stitched tree violates a
bound, and only on the violating groups -- the untouched-subtree
bit-identity guarantee therefore holds exactly on the no-repair path (see
docs/eco.md for the tolerance semantics).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.analysis.skew import skew_report
from repro.core.ast_dme import AstDme, AstDmeConfig, MergeStats, RoutingResult
from repro.core.group_constraints import GroupAssociation, SkewConstraints
from repro.core.subtree import Subtree
from repro.cts.arena import SINK_KIND
from repro.cts.embedding import embed_new_nodes
from repro.cts.tree import ClockTree
from repro.delay.elmore import _arena_capacitances, _arena_delays
from repro.eco.delta import EcoDelta, EcoDeltaError
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.trr import Trr
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
    full :class:`~repro.core.ast_dme.AstDme` run (merging order, neighbour
    strategy, snaking, SDR budget).  ``repair`` optionally enables the local
    post-stitch optimizer: it runs only when the stitched tree violates a
    skew bound, and only on the violating groups, so the untouched-subtree
    bit-identity guarantee survives whenever no repair is needed.
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
        constraints: explicit per-group skew bounds; defaults to the uniform
            bound of ``config.router``.

    Raises:
        EcoDeltaError: when the delta does not apply to the base instance.
        ValueError: when the base result is not a fully embedded tree with
            the standard ``sink-<id>`` node naming.
    """
    start = time.perf_counter()
    instance = base.instance
    new_instance = delta.apply(instance)
    tech = instance.technology
    single_group = getattr(base, "single_group", False)
    constraints = constraints or config.router.constraints()
    tree = base.tree

    removed_ids = set(delta.remove)
    moved_ids = set(delta.moved_ids())
    tracer = get_tracer()

    # ------------------------------------------------------------------
    # 1. Dirty nodes.
    # ------------------------------------------------------------------
    with tracer.span("eco.cone") as cone_span:
        base_ids = {s.sink_id for s in instance.sinks}
        surviving = [s for s in new_instance.sinks if s.sink_id in base_ids]
        added = [s for s in new_instance.sinks if s.sink_id not in base_ids]
        partner_ids: Set[int] = set()
        if surviving:
            for sink in added:
                partner = min(
                    surviving, key=lambda s: s.location.distance_to(sink.location)
                )
                partner_ids.add(partner.sink_id)

        wanted = removed_ids | moved_ids | partner_ids
        sink_nodes = _sink_nodes_by_id(tree, wanted)
        missing = sorted(sid for sid in wanted if sid not in sink_nodes)
        if missing:
            raise ValueError(
                "base tree has no sink-<id> node for sink ids %s; "
                "ECO needs a tree built by the standard routers" % missing
            )

        dirty: Set[int] = {sink_nodes[sid] for sid in wanted}

        if delta.add_blockages:
            fresh = ObstacleSet(delta.add_blockages)
            combined = new_instance.obstacle_set()
            for node in tree.nodes():
                if node.location is None:
                    raise ValueError(
                        "base tree is not fully embedded (node %d has no location)"
                        % node.node_id
                    )
                if fresh.blocks_point(node.location):
                    dirty.add(node.node_id)
                    continue
                if node.parent is None:
                    continue
                parent_location = tree.node(node.parent).location
                detour = combined.detour_distance(parent_location, node.location)
                if node.edge_length + _DETOUR_TOL < detour:
                    dirty.add(node.node_id)

        # ------------------------------------------------------------------
        # 2. Dirty cone: the dirty nodes and all their ancestors.  The source is
        #    always rebuilt (its child edge is re-resolved against the new root
        #    subtree), so it seeds the cone even for an empty delta.
        # ------------------------------------------------------------------
        cone: Set[int] = {tree.root().node_id}
        for nid in dirty:
            for ancestor in tree.path_to_root(nid):
                if ancestor in cone:
                    break
                cone.add(ancestor)
        cone_span.set(dirty=len(dirty), cone=len(cone))

    # ------------------------------------------------------------------
    # 3. Frontier: maximal clean subtrees, copied verbatim and summarised as
    #    point-locus merge stubs.
    # ------------------------------------------------------------------
    # Node ids are assigned in insertion order, so sorting reproduces the
    # deterministic enumeration order of a full tree scan without paying O(n).
    with tracer.span("eco.stitch") as stitch_span:
        frontier = sorted(
            child_id
            for nid in cone
            for child_id in tree.node(nid).children
            if child_id not in cone
        )

        new_tree = ClockTree(technology=tech)
        new_loci: Dict[int, Trr] = {}
        subtrees: List[Subtree] = []
        preserved_roots: Dict[int, int] = {}
        reused = 0
        stub_data = _frontier_stub_data(tree, frontier, single_group)
        base_loci = base.loci
        for fid, (cap, intervals, num_sinks) in zip(frontier, stub_data):
            frontier_node = tree.node(fid)
            if frontier_node.location is None:
                raise ValueError(
                    "base tree is not fully embedded (node %d has no location)" % fid
                )
            id_map = new_tree.copy_subtree_from(tree, fid)
            reused += len(id_map)
            preserved_roots[fid] = id_map[fid]
            for old_id, new_id in id_map.items():
                locus = base_loci.get(old_id)
                if locus is not None:
                    new_loci[new_id] = locus
            subtrees.append(
                Subtree(
                    node_id=id_map[fid],
                    locus=Trr.from_point(frontier_node.location),
                    cap=cap,
                    delays=intervals,
                    num_sinks=num_sinks,
                )
            )

        # Sinks that must be (re)created: added sinks, moved sinks, and clean-id
        # sinks the blockage scan displaced (inside a new blockage is impossible
        # -- delta.apply rejects that -- but a sink whose edge needs a detour
        # rebuild lands here).
        recreate: Set[int] = set(moved_ids)
        for nid in dirty:
            node = tree.node(nid)
            if not node.is_sink:
                continue
            name = node.name or ""
            try:
                sid = int(name[5:]) if name.startswith("sink-") else None
            except ValueError:
                sid = None
            if sid is None:
                raise ValueError(
                    "dirty sink node %d has non-standard name %r; "
                    "ECO needs a tree built by the standard routers" % (nid, name)
                )
            if sid not in removed_ids:
                recreate.add(sid)
        for sink in new_instance.sinks:
            if sink.sink_id in base_ids and sink.sink_id not in recreate:
                continue
            node_id = new_tree.add_sink(
                location=sink.location,
                sink_cap=sink.cap,
                group=sink.group,
                name="sink-%d" % sink.sink_id,
            )
            routing_group = 0 if single_group else sink.group
            subtrees.append(
                Subtree.for_sink(
                    node_id=node_id,
                    locus=Trr.from_point(sink.location),
                    cap=sink.cap,
                    group=routing_group,
                )
            )

        total_sinks = sum(sub.num_sinks for sub in subtrees)
        if total_sinks != new_instance.num_sinks:
            raise RuntimeError(
                "ECO stitching lost sinks: stubs cover %d of %d"
                % (total_sinks, new_instance.num_sinks)
            )
        stitch_span.set(frontier=len(frontier), reused=reused)

    # ------------------------------------------------------------------
    # 4. Re-merge the frontier through the router's own bottom-up loop, then
    #    embed the new nodes.  The cone is small, which is the whole point of
    #    ECO.  A frontier stub may span several groups: associate them first.
    # ------------------------------------------------------------------
    stats = MergeStats()
    association = GroupAssociation(new_instance.groups())
    for sub in subtrees:
        groups = sorted(sub.delays)
        for group in groups[1:]:
            association.associate(groups[0], group)
    with tracer.span("eco.remerge") as remerge_span:
        AstDme(config.router, constraints).merge_subtrees(
            subtrees, new_tree, new_loci, new_instance.source, stats, association
        )
        remerge_span.set(passes=stats.passes)

    obstacles = new_instance.obstacle_set() if new_instance.has_obstacles else None
    embed_start = time.perf_counter()
    with tracer.span("eco.embed"):
        stats.obstacle_detour = embed_new_nodes(
            new_tree, new_loci, obstacles=obstacles
        )
    stats.embed_seconds += time.perf_counter() - embed_start
    # Clean subtrees inherit the base's violation slack (post-detour,
    # post-repair spreads the re-merge cannot shrink); validation of the
    # stitched result must see it, exactly as it would on the base.
    stats.max_violation = max(stats.max_violation, base.stats.max_violation)

    with tracer.span("eco.repair") as repair_span:
        opt_report, repaired = _repair_if_violating(
            new_tree, config, constraints, obstacles, new_loci, single_group
        )
        repair_span.set(repaired=repaired)

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
    routing = RoutingResult(
        tree=new_tree,
        instance=new_instance,
        stats=stats,
        association=association,
        loci=new_loci,
        elapsed_seconds=time.perf_counter() - start,
        opt=opt_report,
        single_group=single_group,
    )
    return EcoOutcome(routing=routing, eco=eco_stats)


# ----------------------------------------------------------------------
def subtree_signature(tree: ClockTree, root_id: int) -> Tuple:
    """A hashable structural digest of a subtree, independent of node ids.

    Covers kind, name, location, sink cap, group, child count and the edge
    length of every edge strictly inside the subtree (the subtree root's own
    parent edge is excluded: re-merging legitimately re-books it).  Two
    subtrees with equal signatures are bit-identical copies.
    """
    signature: List[Tuple] = []
    stack = [root_id]
    while stack:
        nid = stack.pop()
        node = tree.node(nid)
        signature.append(
            (
                node.kind,
                node.name,
                None if node.location is None else (node.location.x, node.location.y),
                0.0 if nid == root_id else node.edge_length,
                node.sink_cap,
                node.group,
                len(node.children),
            )
        )
        stack.extend(reversed(node.children))
    return tuple(signature)


def preserved_subtrees_identical(
    base_tree: ClockTree, new_tree: ClockTree, preserved_roots: Mapping[int, int]
) -> bool:
    """Whether every stitched frontier subtree is bit-identical to its source."""
    return all(
        subtree_signature(base_tree, base_root) == subtree_signature(new_tree, new_root)
        for base_root, new_root in preserved_roots.items()
    )


# ----------------------------------------------------------------------
def _sink_nodes_by_id(
    tree: ClockTree, wanted: Optional[Set[int]] = None
) -> Dict[int, int]:
    """Instance sink id -> tree node id, via the standard ``sink-<id>`` names.

    With ``wanted`` the scan only resolves those sink ids through a
    precomputed name set -- one dict lookup per node instead of a string
    parse, which matters on the ECO hot path where ``wanted`` is tiny.
    """
    mapping: Dict[int, int] = {}
    if wanted is not None:
        names = {"sink-%d" % sid: sid for sid in wanted}
        if not names:
            return mapping
        for node in tree.nodes():
            sid = names.get(node.name)
            if sid is not None and node.is_sink:
                mapping[sid] = node.node_id
        return mapping
    for node in tree.sinks():
        name = node.name or ""
        if name.startswith("sink-"):
            try:
                mapping[int(name[5:])] = node.node_id
            except ValueError:  # pragma: no cover - non-standard name
                continue
    return mapping


def _frontier_stub_data(
    tree: ClockTree, frontier: List[int], single_group: bool
) -> List[Tuple[float, Dict[int, Tuple[float, float]], int]]:
    """Per-frontier-root ``(cap, delay intervals, num_sinks)`` stub summaries.

    Computed in bulk over the base tree's arena snapshot: the frontier labels
    propagate top-down over the depth levels, after which the per-group delay
    intervals reduce via ``minimum.at``/``maximum.at`` on the Elmore
    decomposition ``t(sink) - t(frontier root)``.  The arena delay/cap passes
    replay the object walk bit for bit (see :mod:`repro.delay.elmore`), so
    the stubs are float-exact against the embedded base tree.
    """
    if not frontier:
        return []
    arena = tree.as_arena()
    caps, internal = _arena_capacitances(arena)
    delays = _arena_delays(arena, caps, internal)
    roots = np.asarray(frontier, dtype=np.int64)
    label = np.full(arena.num_nodes, -1, dtype=np.int64)
    label[roots] = np.arange(len(frontier), dtype=np.int64)
    for level in arena.depth_levels()[1:]:
        own = label[level]
        label[level] = np.where(own >= 0, own, label[arena.parents[level]])
    sink_ids = np.flatnonzero((arena.kinds == SINK_KIND) & (label >= 0))
    sink_labels = label[sink_ids]
    relative = delays[sink_ids] - delays[roots[sink_labels]]
    if single_group:
        group_values = np.zeros(1, dtype=np.int64)
        group_index = np.zeros(len(sink_ids), dtype=np.int64)
    else:
        raw = np.where(arena.has_group[sink_ids], arena.groups[sink_ids], 0)
        group_values, group_index = np.unique(raw, return_inverse=True)
    shape = (len(frontier), len(group_values))
    lo = np.full(shape, np.inf)
    hi = np.full(shape, -np.inf)
    np.minimum.at(lo, (sink_labels, group_index), relative)
    np.maximum.at(hi, (sink_labels, group_index), relative)
    counts = np.bincount(sink_labels, minlength=len(frontier))
    data: List[Tuple[float, Dict[int, Tuple[float, float]], int]] = []
    for i in range(len(frontier)):
        present = np.flatnonzero(hi[i] > -np.inf)
        intervals = {
            int(group_values[g]): (float(lo[i, g]), float(hi[i, g])) for g in present
        }
        data.append((float(caps[roots[i]]), intervals, int(counts[i])))
    return data


def _repair_if_violating(
    tree: ClockTree,
    config: EcoConfig,
    constraints: SkewConstraints,
    obstacles: Optional[ObstacleSet],
    loci: Dict[int, Trr],
    single_group: bool,
):
    """Run the local repair when (and only when) the stitched tree violates.

    The repair is restricted to the violating groups via the optimizer's
    ``bound_for`` hook: non-violating groups get an unbounded target, so the
    passes have no incentive to touch their subtrees.  Returns
    ``(opt_report, repaired)``.
    """
    if config.repair is None or not config.repair.enabled:
        return None, False
    report = skew_report(tree)
    if single_group:
        bound = constraints.bound_for(0)
        if report.global_skew <= bound + _REPAIR_TOL:
            return None, False
        bound_fn = lambda group: bound  # noqa: E731 - trivial closure
    else:
        violating = {
            group: constraints.bound_for(group)
            for group, skew in report.per_group_skew.items()
            if skew > constraints.bound_for(group) + _REPAIR_TOL
        }
        if not violating:
            return None, False
        bound_fn = lambda group: violating.get(group, float("inf"))  # noqa: E731
    from repro.opt.optimizer import Optimizer

    opt_report = Optimizer(config.repair).optimize(
        tree,
        bound_for=bound_fn,
        obstacles=obstacles,
        loci=loci,
        single_group=single_group,
    )
    return opt_report, True
