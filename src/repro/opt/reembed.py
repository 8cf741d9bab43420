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

Only nodes whose incident edges detour by more than ``_MIN_DETOUR`` are worth
revisiting, and few are.  One array pass at the start finds the others
(:func:`_settled`): it sums the context's cached required lengths -- the
memoised detours the per-node test would read -- and the Manhattan lengths of
each node's incident edges in that test's order.  A settled node is skipped
until its own location or a neighbour's moves.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.geometry.point import Point
from repro.geometry.trr import Trr
from repro.opt.base import OptContext, TreeColumns
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
        located = (~np.isnan(ctx.loci).any(axis=1)).tolist()  # has a locus, by id
        if obstacles is None or not any(located):
            outcome.seconds = time.perf_counter() - started
            return outcome

        tree = ctx.tree
        hanan_x = sorted({r.xmin for r in obstacles} | {r.xmax for r in obstacles})
        hanan_y = sorted({r.ymin for r in obstacles} | {r.ymax for r in obstacles})
        columns = TreeColumns(tree)
        movable = [
            nid
            for nid, parent in enumerate(columns.parents[: len(located)])
            if parent >= 0 and not columns.is_sink[nid] and located[nid]
        ]
        locations = ctx.locations()  # kept in step with every move
        # Settled nodes pass the detour test on the pass's starting geometry;
        # a move unsettles the node and its neighbours.
        settled = _settled(ctx, np.asarray(movable, dtype=np.int64)).tolist()
        moved: List[int] = []

        for _ in range(_SWEEPS):
            moved_this_sweep = 0
            for nid in movable:
                if locations[nid] is None or settled[nid]:
                    continue
                best = self._improve_node(
                    ctx, nid, columns.parents[nid], columns.children(nid), locations,
                    hanan_x, hanan_y,
                )
                if best is not None:
                    tree.set_location(nid, best)
                    locations[nid] = best
                    moved.append(nid)
                    moved_this_sweep += 1
                    settled[nid] = settled[columns.parents[nid]] = False
                    for cid in columns.children(nid):
                        settled[cid] = False
            outcome.nodes_moved += moved_this_sweep
            if moved_this_sweep == 0:
                break

        if outcome.nodes_moved:
            ctx.nodes_moved(moved)
            # A move can shrink an incident edge's required length (that is
            # the point) but can also grow another incident edge's; booked
            # lengths must keep covering the detour for the tree to stay
            # realisable and validation-clean.
            has, required = ctx.required_columns()
            lengths = tree.as_arena().edge_lengths  # moves change no length
            short = np.flatnonzero(has & (lengths < required - 1e-9))
            for nid, needed, length in zip(
                short.tolist(), required[short].tolist(), lengths[short].tolist()
            ):
                extension = needed - length
                tree.set_edge_length(nid, needed)
                ctx.spend_wire(extension)
                outcome.wire_added += extension
                outcome.edges_modified += 1
        outcome.seconds = time.perf_counter() - started
        return outcome

    # ------------------------------------------------------------------
    @staticmethod
    def _incident_detour(ctx: OptContext, at: Point, parent: Point, children) -> float:
        """Total detoured length of the edges incident to a node at ``at``."""
        detour = ctx.obstacles.detour_distance
        total = detour(parent, at)
        for child in children:
            total += detour(at, child)
        return total

    @staticmethod
    def _candidates(locus, parent: Point, children, hanan_x, hanan_y) -> List[Point]:
        """Deterministic candidate locations on the node's locus."""
        candidates = [locus.nearest_point_to(parent), locus.center()]
        candidates.extend(locus.corners())
        for child in children:
            candidates.append(locus.nearest_point_to(child))
        for x in hanan_x:
            for y in hanan_y:
                point = Point(x, y)
                if locus.contains_point(point):
                    candidates.append(point)
        candidates.extend(locus.sample_points(4))
        return candidates

    def _improve_node(
        self, ctx: OptContext, nid: int, parent_id: int, child_ids, locations, hanan_x, hanan_y
    ) -> Optional[Point]:
        """The location that most shortens the detoured wire incident to
        ``nid``, or None when no candidate improves on where it is."""
        obstacles = ctx.obstacles
        here = locations[nid]
        parent = locations[parent_id]
        children = [locations[cid] for cid in child_ids]
        try:
            base = self._incident_detour(ctx, here, parent, children)
        except ValueError:
            return None
        manhattan = parent.distance_to(here)
        for child in children:
            manhattan += here.distance_to(child)
        if base - manhattan <= _MIN_DETOUR:
            return None

        best, best_value = here, base
        locus = Trr(*ctx.loci[nid].tolist())
        for raw in self._candidates(locus, parent, children, hanan_x, hanan_y):
            try:
                candidate = obstacles.nearest_free_point(raw)
            except ValueError:
                continue
            if candidate == here:
                continue
            try:
                value = self._incident_detour(ctx, candidate, parent, children)
            except ValueError:
                value = float("inf")
            if value < best_value - 1e-6:
                best, best_value = candidate, value
        return None if best == here else best


def _settled(ctx: OptContext, movable: np.ndarray) -> np.ndarray:
    """Node-indexed mask of the ``movable`` nodes that pass
    :meth:`ReembedPass._improve_node`'s detour test as the tree stands.

    Per node: its parent edge's required length plus each child edge's, in
    attach order, against the same edges' Manhattan lengths, summed in the
    same order; the node is settled when ``base - manhattan <=
    _MIN_DETOUR``.  A node with an incident edge lacking a required length
    is never settled.
    """
    arena = ctx.tree.as_arena()
    has, required = ctx.required_columns()
    xs, ys = arena.xs, arena.ys
    parents = arena.parents[movable]
    known = has[movable]
    base = required[movable]
    # Point.distance_to, operand for operand: parent to node, node to child.
    manhattan = np.abs(xs[parents] - xs[movable]) + np.abs(ys[parents] - ys[movable])
    counts = arena.child_counts()[movable]
    starts = arena.child_offsets[movable]
    for slot in range(int(counts.max()) if counts.size else 0):
        rows = np.flatnonzero(counts > slot)
        kids = arena.child_ids[starts[rows] + slot]
        node = movable[rows]
        known[rows] &= has[kids]
        base[rows] = base[rows] + required[kids]
        manhattan[rows] = manhattan[rows] + (
            np.abs(xs[node] - xs[kids]) + np.abs(ys[node] - ys[kids])
        )
    settled = np.zeros(arena.num_nodes, dtype=bool)
    settled[movable] = known & (base - manhattan <= _MIN_DETOUR)
    return settled
