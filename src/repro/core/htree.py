"""An H-tree trunk hybrid router: geometric trunk, AST-DME leaf subtrees.

Classic clock distribution splits the die with a recursive H-shaped trunk
whose symmetry balances delays by construction; the paper's AST-DME router
instead balances bottom-up with exact merge equations.  This router combines
the two:

1. *Trunk.*  The sink set is split recursively at the geometric centre of its
   bounding box, alternating the split axis (the H pattern), for
   ``trunk_levels`` levels.  Each trunk junction sits at its region's centre
   (escaped to the nearest free point when a blockage covers it); trunk edges
   book the blockage-avoiding detour distance between junctions.
2. *Leaves.*  Every leaf region becomes a sub-instance whose source is the
   region tap point and is routed by :class:`~repro.core.ast_dme.AstDme` with
   the instance's grouping disabled, so each leaf tree's *entire* sink delay
   spread respects the configured skew bound.
3. *Alignment.*  Grafting leaf trees under the trunk would skew sinks by the
   difference in trunk path delays, so each junction extends (snakes) its
   cheaper child edges until every child's latest sink arrives simultaneously
   -- a shift-up-only alignment computed with the same closed-form wire
   equations the merge planner uses.  The delay spread under a junction then
   never exceeds the widest child spread, so by induction every sink group
   (even one split across leaf regions) stays within the bound.

The router registers as ``h-tree`` and satisfies the standard ``Router``
protocol; results carry ``single_group=True`` because the trunk, like the
EXT-BST baseline, bounds all sinks against each other rather than per group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.circuits.instance import ClockInstance, Sink
from repro.core.ast_dme import AstDme, AstDmeConfig, MergeStats, RoutingResult
from repro.core.group_constraints import GroupAssociation
from repro.cts.tree import ClockTree
from repro.delay.elmore import elmore_delays, subtree_capacitances
from repro.delay.wire import wire_delay, wire_length_for_delay
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.trr import Trr

__all__ = ["HTreeRouter"]


@dataclass
class _Region:
    """One node of the recursive trunk partition."""

    sinks: List[Sink]
    center: Point
    children: List["_Region"] = field(default_factory=list)


@dataclass(frozen=True)
class _Handoff:
    """What a realised region hands its parent junction.

    ``lo``/``hi`` are the earliest/latest sink delays measured from ``node``
    (Elmore, internal units); ``cap`` is the capacitance seen at ``node``.
    """

    node_id: int
    location: Point
    cap: float
    lo: float
    hi: float


class HTreeRouter:
    """Route with an H-shaped trunk over AST-DME leaf subtrees."""

    def __init__(self, config: AstDmeConfig = AstDmeConfig(), trunk_levels: int = 2) -> None:
        if trunk_levels < 0:
            raise ValueError("trunk_levels must be non-negative")
        self.config = config
        self.trunk_levels = int(trunk_levels)

    # ------------------------------------------------------------------
    def route(self, instance: ClockInstance) -> RoutingResult:
        """Route ``instance`` and return the embedded tree plus statistics."""
        if self.trunk_levels == 0 or instance.num_sinks < 2:
            # No trunk to build: the whole instance is one leaf region.
            return AstDme(self.config).route(instance, single_group=True)
        start = time.perf_counter()
        obstacles = instance.obstacle_set() if instance.has_obstacles else None
        # Leaf routing must not run the optimizer; it is applied once, to the
        # finished composite tree, below.
        leaf_router = AstDme(replace(self.config, opt=None))

        region = self._build_region(list(instance.sinks), self.trunk_levels, 0, obstacles)
        tree = ClockTree(technology=instance.technology)
        loci: Dict[int, Trr] = {}
        stats = MergeStats()
        top = self._realise(region, instance, tree, loci, stats, obstacles, leaf_router)
        source_edge = self._distance(instance.source, top.location, obstacles)
        tree.add_source(instance.source, top.node_id, source_edge)

        association = GroupAssociation(instance.groups())
        groups = instance.groups()
        for group in groups[1:]:
            # The trunk fixes every inter-group skew, exactly like a merge
            # that spans all groups at once.
            association.associate(groups[0], group)

        opt_report = AstDme(self.config)._run_opt(
            tree, self.config.constraints(), obstacles, loci, single_group=True
        )
        return RoutingResult(
            tree=tree,
            instance=instance,
            stats=stats,
            association=association,
            loci=loci,
            elapsed_seconds=time.perf_counter() - start,
            opt=opt_report,
            single_group=True,
        )

    # ------------------------------------------------------------------
    # Trunk partition
    # ------------------------------------------------------------------
    def _build_region(
        self,
        sinks: List[Sink],
        level: int,
        axis: int,
        obstacles: Optional[ObstacleSet],
    ) -> _Region:
        region = _Region(sinks=sinks, center=self._tap_point(sinks, obstacles))
        if level <= 0 or len(sinks) < 2:
            return region
        lo, hi = self._split(sinks, axis)
        region.children = [
            self._build_region(lo, level - 1, 1 - axis, obstacles),
            self._build_region(hi, level - 1, 1 - axis, obstacles),
        ]
        return region

    @staticmethod
    def _split(sinks: List[Sink], axis: int) -> Tuple[List[Sink], List[Sink]]:
        xmin, ymin, xmax, ymax = Point.bounding_box(s.location for s in sinks)
        if axis == 0:
            mid = (xmin + xmax) / 2.0
            lo = [s for s in sinks if s.location.x <= mid]
            hi = [s for s in sinks if s.location.x > mid]
        else:
            mid = (ymin + ymax) / 2.0
            lo = [s for s in sinks if s.location.y <= mid]
            hi = [s for s in sinks if s.location.y > mid]
        if lo and hi:
            return lo, hi
        # Degenerate geometry (collinear or coincident sinks): the geometric
        # centre leaves one side empty, so fall back to a median split.
        ordered = sorted(
            sinks,
            key=(lambda s: (s.location.x, s.location.y, s.sink_id))
            if axis == 0
            else (lambda s: (s.location.y, s.location.x, s.sink_id)),
        )
        half = len(ordered) // 2
        return ordered[:half], ordered[half:]

    @staticmethod
    def _tap_point(sinks: List[Sink], obstacles: Optional[ObstacleSet]) -> Point:
        xmin, ymin, xmax, ymax = Point.bounding_box(s.location for s in sinks)
        point = Point((xmin + xmax) / 2.0, (ymin + ymax) / 2.0)
        if obstacles is not None and obstacles.blocks_point(point):
            point = obstacles.nearest_free_point(point)
        return point

    @staticmethod
    def _distance(a: Point, b: Point, obstacles: Optional[ObstacleSet]) -> float:
        if obstacles is None:
            return a.distance_to(b)
        return obstacles.detour_distance(a, b)

    # ------------------------------------------------------------------
    # Realisation
    # ------------------------------------------------------------------
    def _realise(
        self,
        region: _Region,
        instance: ClockInstance,
        tree: ClockTree,
        loci: Dict[int, Trr],
        stats: MergeStats,
        obstacles: Optional[ObstacleSet],
        leaf_router: AstDme,
    ) -> _Handoff:
        if not region.children:
            return self._realise_leaf(region, instance, tree, loci, stats, leaf_router)
        tech = instance.technology
        parts = [
            self._realise(child, instance, tree, loci, stats, obstacles, leaf_router)
            for child in region.children
        ]
        center = region.center
        base_lengths = [self._distance(center, part.location, obstacles) for part in parts]
        # Shift-up-only alignment: extend the cheaper edges so every child's
        # latest sink arrives at the same time below this junction.  The
        # union spread then equals the widest child spread, which stays
        # within the skew bound by induction.
        target = max(
            wire_delay(length, part.cap, tech) + part.hi
            for part, length in zip(parts, base_lengths)
        )
        lengths: List[float] = []
        cap = 0.0
        lo = hi = None
        for part, base in zip(parts, base_lengths):
            length = max(base, wire_length_for_delay(target - part.hi, part.cap, tech))
            delay = wire_delay(length, part.cap, tech)
            lengths.append(length)
            cap += tech.unit_capacitance * length + part.cap
            lo = delay + part.lo if lo is None else min(lo, delay + part.lo)
            hi = delay + part.hi if hi is None else max(hi, delay + part.hi)
        junction_id = tree.add_internal(
            children=[part.node_id for part in parts],
            edge_lengths=lengths,
            location=center,
            name="htree-junction",
        )
        loci[junction_id] = Trr.from_point(center)
        return _Handoff(junction_id, center, cap, lo, hi)

    def _realise_leaf(
        self,
        region: _Region,
        instance: ClockInstance,
        tree: ClockTree,
        loci: Dict[int, Trr],
        stats: MergeStats,
        leaf_router: AstDme,
    ) -> _Handoff:
        tech = instance.technology
        sub = replace(
            instance,
            name="%s-htree-leaf" % instance.name,
            sinks=tuple(region.sinks),
            source=region.center,
        )
        result = leaf_router.route(sub, single_group=True)
        self._merge_stats(stats, result.stats)
        leaf_tree = result.tree
        leaf_root = leaf_tree.root()
        child = leaf_tree.node(leaf_root.children[0])
        id_map = tree.copy_subtree_from(leaf_tree, child.node_id)
        for old_id, locus in result.loci.items():
            if old_id in id_map:
                loci[id_map[old_id]] = locus
        # The leaf tree's source node becomes a plain tap node: same location,
        # same edge down to the subtree, but driven by the trunk above.
        tap_id = tree.add_internal(
            children=[id_map[child.node_id]],
            edge_lengths=[child.edge_length],
            location=region.center,
            name="htree-tap",
        )
        loci[tap_id] = Trr.from_point(region.center)
        caps = subtree_capacitances(leaf_tree)
        delays = elmore_delays(leaf_tree)
        # Delays relative to the tap: strip the leaf run's source-resistance
        # component (in the composite tree the source drives the trunk root).
        shift = tech.source_resistance * caps[leaf_root.node_id]
        relative = [delays[s.node_id] - shift for s in leaf_tree.sinks()]
        return _Handoff(
            tap_id,
            region.center,
            caps[leaf_root.node_id],
            min(relative),
            max(relative),
        )

    @staticmethod
    def _merge_stats(total: MergeStats, leaf: MergeStats) -> None:
        total.passes += leaf.passes
        for case, count in leaf.merges_by_case.items():
            total.merges_by_case[case] = total.merges_by_case.get(case, 0) + count
        total.snaked_merges += leaf.snaked_merges
        total.total_detour += leaf.total_detour
        total.max_violation = max(total.max_violation, leaf.max_violation)
        total.select_seconds += leaf.select_seconds
        total.merge_seconds += leaf.merge_seconds
        total.embed_seconds += leaf.embed_seconds
        total.neighbor_full_rebuilds += leaf.neighbor_full_rebuilds
        total.neighbor_incremental_passes += leaf.neighbor_incremental_passes
        total.obstacle_detour += leaf.obstacle_detour
