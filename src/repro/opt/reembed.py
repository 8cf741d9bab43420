"""Detour-aware re-embedding: move merge points to shrink blockage detours.

The top-down embedding places each internal node greedily -- it knows its
parent's location but not where its children will land, so on heavily-blocked
instances a locus point that looked best for the parent edge can force long
detours on the child edges.  This pass revisits every embedded merge point
with full knowledge of all three neighbours and re-solves the placement on
the blockage escape (Hanan) grid, minimising the *true detoured* incident
wirelength instead of the Manhattan distance the original embedding optimised.

Moving a node never changes any booked edge length by itself: shrinking the
required detour turns former forced-detour wire into trimmable slack, which
the skew-repair and wirelength-recovery passes then harvest with exact delay
accounting.  Candidates stay on the node's placement locus (or its legitimate
blockage escape), so ``validate_result``'s locus checks keep passing.
"""

from __future__ import annotations

import time
from typing import List

from repro.geometry.point import Point
from repro.opt.base import OptContext
from repro.opt.report import PassOutcome

__all__ = ["ReembedPass"]

#: Blockage detour (micrometres) the incident edges must exceed to revisit a node.
_MIN_DETOUR = 1.0
#: Coordinate-descent sweeps per invocation.
_SWEEPS = 3


class ReembedPass:
    """Coordinate descent over merge-point locations, by detoured distance."""

    name = "reembed"

    def run(self, ctx: OptContext, iteration: int) -> PassOutcome:
        started = time.perf_counter()
        outcome = PassOutcome(name=self.name, iteration=iteration)
        obstacles = ctx.obstacles
        if obstacles is None or not ctx.loci:
            outcome.seconds = time.perf_counter() - started
            return outcome

        tree = ctx.tree
        hanan_x = sorted({r.xmin for r in obstacles} | {r.xmax for r in obstacles})
        hanan_y = sorted({r.ymin for r in obstacles} | {r.ymax for r in obstacles})

        for _ in range(_SWEEPS):
            moved_this_sweep = 0
            for node in list(tree.nodes()):
                if node.parent is None or node.is_sink or node.node_id not in ctx.loci:
                    continue
                if node.location is None:
                    continue
                if self._improve_node(ctx, node, hanan_x, hanan_y):
                    moved_this_sweep += 1
            outcome.nodes_moved += moved_this_sweep
            if moved_this_sweep == 0:
                break

        if outcome.nodes_moved:
            ctx.invalidate_geometry()
            # A move can shrink an incident edge's required length (that is
            # the point) but can also grow another incident edge's; booked
            # lengths must keep covering the detour for the tree to stay
            # realisable and validation-clean.
            required = ctx.required_lengths()
            for node in tree.nodes():
                if node.parent is None or node.node_id not in required:
                    continue
                if node.edge_length < required[node.node_id] - 1e-9:
                    extension = required[node.node_id] - node.edge_length
                    tree.set_edge_length(node.node_id, required[node.node_id])
                    ctx.spend_wire(extension)
                    outcome.wire_added += extension
                    outcome.edges_modified += 1
        outcome.seconds = time.perf_counter() - started
        return outcome

    # ------------------------------------------------------------------
    def _incident_detour(self, ctx: OptContext, node) -> float:
        """Total detoured length of the edges incident to ``node``."""
        tree = ctx.tree
        obstacles = ctx.obstacles
        total = 0.0
        parent = tree.node(node.parent)
        total += obstacles.detour_distance(parent.location, node.location)
        for cid in node.children:
            total += obstacles.detour_distance(node.location, tree.node(cid).location)
        return total

    def _incident_manhattan(self, ctx: OptContext, node) -> float:
        tree = ctx.tree
        total = tree.node(node.parent).location.distance_to(node.location)
        for cid in node.children:
            total += node.location.distance_to(tree.node(cid).location)
        return total

    def _candidates(self, ctx: OptContext, node, hanan_x, hanan_y) -> List[Point]:
        """Deterministic candidate locations on the node's locus."""
        tree = ctx.tree
        locus = ctx.loci[node.node_id]
        parent = tree.node(node.parent)
        candidates = [locus.nearest_point_to(parent.location), locus.center()]
        candidates.extend(locus.corners())
        for cid in node.children:
            candidates.append(locus.nearest_point_to(tree.node(cid).location))
        for x in hanan_x:
            for y in hanan_y:
                point = Point(x, y)
                if locus.contains_point(point):
                    candidates.append(point)
        candidates.extend(locus.sample_points(4))
        return candidates

    def _improve_node(self, ctx: OptContext, node, hanan_x, hanan_y) -> bool:
        tree = ctx.tree
        obstacles = ctx.obstacles
        try:
            base = self._incident_detour(ctx, node)
        except ValueError:
            return False
        if base - self._incident_manhattan(ctx, node) <= _MIN_DETOUR:
            return False

        best, best_value = node.location, base
        for raw in self._candidates(ctx, node, hanan_x, hanan_y):
            try:
                candidate = obstacles.nearest_free_point(raw)
            except ValueError:
                continue
            if candidate == node.location:
                continue
            original = node.location
            tree.set_location(node.node_id, candidate)
            try:
                value = self._incident_detour(ctx, node)
            except ValueError:
                value = float("inf")
            tree.set_location(node.node_id, original)
            if value < best_value - 1e-6:
                best, best_value = candidate, value
        if best == node.location:
            return False
        tree.set_location(node.node_id, best)
        return True
