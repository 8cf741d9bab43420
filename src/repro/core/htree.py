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

The composite tree is one ``ClockTree``: each leaf route's subtree is grafted
as one gathered preorder slice (``copy_subtree_from``) before its tap, the
junctions and the source.

The router registers as ``h-tree`` and satisfies the standard ``Router``
protocol; results carry ``single_group=True`` because the trunk, like the
EXT-BST baseline, bounds all sinks against each other rather than per group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.circuits.instance import ClockInstance, SinkTable
from repro.core.ast_dme import (
    AstDme,
    AstDmeConfig,
    MergeStats,
    RoutingResult,
    copied_loci,
    point_loci,
)
from repro.core.group_constraints import GroupAssociation
from repro.cts.arena import INTERNAL_KIND, SOURCE_KIND
from repro.cts.tree import ClockTree
from repro.delay.elmore import subtree_summary
from repro.delay.wire import wire_delay, wire_length_for_delay
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point

__all__ = ["HTreeRouter"]


@dataclass
class _Region:
    """One node of the recursive trunk partition: its sinks' instance rows."""

    rows: np.ndarray
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


@dataclass
class _Composite:
    """The composite tree and its locus rows, one per node."""

    tree: ClockTree
    loci: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))

    def graft(self, leaf: ClockTree, root: int, leaf_loci: np.ndarray) -> int:
        """Graft a detached copy of ``leaf``'s subtree below ``root`` and its
        locus rows; returns the copy's id."""
        id_map = self.tree.copy_subtree_from(leaf, root)
        copied_from = np.fromiter(id_map, dtype=np.int64, count=len(id_map))
        self.loci = np.concatenate((self.loci, copied_loci(leaf_loci, copied_from)))
        return id_map[root]

    def add(self, kind: int, children: List[int], lengths: List[float], location: Point,
            name: str) -> int:
        """Add a placed node driving ``children`` over ``lengths`` of wire;
        a source becomes the root, without a locus, and any other node is
        its own point locus.  Returns its id."""
        if kind == SOURCE_KIND:
            node_id = self.tree.add_source(location, children[0], lengths[0], name=name)
            row = np.full((1, 4), np.nan)
        else:
            node_id = self.tree.add_internal(children, lengths, location=location, name=name)
            row = point_loci(np.array([location.x]), np.array([location.y]))
        self.loci = np.concatenate((self.loci, row))
        return node_id


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
        region = self._build_region(
            instance.sinks, np.arange(instance.num_sinks), self.trunk_levels, 0, obstacles
        )
        composite = _Composite(ClockTree(technology=instance.technology))
        stats = MergeStats()
        top = self._realise(region, instance, composite, stats, obstacles)
        source_edge = self._distance(instance.source, top.location, obstacles)
        composite.add(SOURCE_KIND, [top.node_id], [source_edge], instance.source, "clk")

        association = GroupAssociation(instance.groups())
        groups = instance.groups()
        for group in groups[1:]:
            # The trunk fixes every inter-group skew, exactly like a merge
            # that spans all groups at once.
            association.associate(groups[0], group)
        return RoutingResult(
            tree=composite.tree,
            instance=instance,
            stats=stats,
            association=association,
            loci=composite.loci,
            elapsed_seconds=time.perf_counter() - start,
            single_group=True,
            constraints=self.config.constraints(),
        )

    # ------------------------------------------------------------------
    # Trunk partition
    # ------------------------------------------------------------------
    def _build_region(
        self,
        sinks: SinkTable,
        rows: np.ndarray,
        level: int,
        axis: int,
        obstacles: Optional[ObstacleSet],
    ) -> _Region:
        in_region = sinks.rows(rows)
        region = _Region(rows=rows, center=self._tap_point(in_region, obstacles))
        if level <= 0 or len(rows) < 2:
            return region
        lo, hi = self._split(in_region, rows, axis)
        region.children = [
            self._build_region(sinks, lo, level - 1, 1 - axis, obstacles),
            self._build_region(sinks, hi, level - 1, 1 - axis, obstacles),
        ]
        return region

    @staticmethod
    def _split(region: SinkTable, rows: np.ndarray, axis: int) -> Tuple[np.ndarray, np.ndarray]:
        """The instance ``rows`` of the ``region``'s sinks on either side of its
        bounding box's centre along ``axis``, each in the order of ``rows``."""
        xs, ys = region.xs, region.ys
        xmin, ymin, xmax, ymax = region.bounding_box()
        if axis == 0:
            mid = (xmin + xmax) / 2.0
            lo, hi = rows[xs <= mid], rows[xs > mid]
        else:
            mid = (ymin + ymax) / 2.0
            lo, hi = rows[ys <= mid], rows[ys > mid]
        if len(lo) and len(hi):
            return lo, hi
        # Degenerate geometry (collinear or coincident sinks): the geometric
        # centre leaves one side empty, so fall back to a median split, in
        # (x, y, id) order along x and (y, x, id) order along y.
        keys = (region.ids, ys, xs) if axis == 0 else (region.ids, xs, ys)
        ordered = rows[np.lexsort(keys)]
        half = len(ordered) // 2
        return ordered[:half], ordered[half:]

    @staticmethod
    def _tap_point(sinks: SinkTable, obstacles: Optional[ObstacleSet]) -> Point:
        xmin, ymin, xmax, ymax = sinks.bounding_box()
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
        composite: _Composite,
        stats: MergeStats,
        obstacles: Optional[ObstacleSet],
    ) -> _Handoff:
        if not region.children:
            return self._realise_leaf(region, instance, composite, stats)
        tech = instance.technology
        parts = [
            self._realise(child, instance, composite, stats, obstacles)
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
        junction_id = composite.add(
            INTERNAL_KIND, [part.node_id for part in parts], lengths, center, "htree-junction"
        )
        return _Handoff(junction_id, center, cap, lo, hi)

    def _realise_leaf(
        self,
        region: _Region,
        instance: ClockInstance,
        composite: _Composite,
        stats: MergeStats,
    ) -> _Handoff:
        sub = replace(
            instance,
            name="%s-htree-leaf" % instance.name,
            sinks=instance.sinks.rows(region.rows),
            source=region.center,
        )
        result = AstDme(self.config).route(sub, single_group=True)
        self._merge_stats(stats, result.stats)
        leaf = result.tree.as_arena()
        child = int(leaf.child_ids[leaf.child_offsets[leaf.root]])
        copy_id = composite.graft(result.tree, child, result.loci)
        # The leaf tree's source node becomes a plain tap node: same location,
        # same edge down to the subtree, but driven by the trunk above.
        tap_id = composite.add(
            INTERNAL_KIND, [copy_id], [float(leaf.edge_lengths[child])], region.center,
            "htree-tap",
        )
        # Delays relative to the tap, which the leaf run's source was: in the
        # composite tree the source drives the trunk root instead.
        summary = subtree_summary(leaf, [leaf.root], [0])
        lo, hi = summary.delays[0, 0].tolist()
        return _Handoff(tap_id, region.center, float(summary.caps[0]), lo, hi)

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
