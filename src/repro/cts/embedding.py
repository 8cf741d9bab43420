"""Top-down embedding: choosing concrete locations for the merge nodes.

The bottom-up phase fixes edge lengths and placement loci but defers actual
locations.  This pass walks the finished tree from the source downwards and
places every node without a location at the point of its locus closest to
its parent's already-chosen location.  By construction of the merge loci,
every point of a parent's locus is within the booked edge length of each
child's locus, so the geometric distance never exceeds the booked length;
when it is strictly shorter, the difference is realised as wire snaking at
routing time and the booked length (hence every delay) is preserved.

With routing blockages (``obstacles``) the pass becomes obstacle aware: the
distance that matters is the *detour distance* -- the length of the shortest
blockage-avoiding rectilinear path (:meth:`ObstacleSet.detour_distance`).
Candidate locus points are compared by detour distance, and when even the
best choice needs more wire than was booked bottom-up (the merge loci are
blockage-blind), the edge length is extended to the detour distance so the
edge stays realisable.  The total extension is returned so routers can report
it; obstacle-free calls take the exact historical code path and return 0.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.trr import Trr

__all__ = ["embed_tree"]

_TOL = 1e-6


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


def _obstacle_aware_location(
    locus: Trr, parent: Point, obstacles: ObstacleSet, child_id: int
) -> Point:
    """The locus point with the shortest blockage-avoiding path to ``parent``.

    The obstacle-free choice (nearest point by Manhattan distance) is kept
    whenever it is directly reachable, so obstacle-aware runs only deviate
    where a blockage actually interferes.  Otherwise a small deterministic
    candidate set (nearest point, locus corners, locus centre) is compared by
    detour distance with Manhattan distance as the tie-break.  Candidates
    inside a blockage are replaced by their nearest blockage-free point -- the
    merge loci are blockage-blind, so a locus can lie entirely inside a macro;
    the node is then placed just off-locus on the blockage boundary (the extra
    wire this needs is booked by the caller's detour-extension pass).
    """
    nearest = locus.nearest_point_to(parent)
    if not obstacles.blocks_point(nearest) and obstacles.l_shape_path(parent, nearest) is not None:
        return nearest
    best: Optional[Point] = None
    best_key = (float("inf"), float("inf"))
    for raw in [nearest] + locus.corners() + [locus.center()]:
        try:
            candidate = obstacles.nearest_free_point(raw)
        except ValueError:
            continue
        key = (obstacles.detour_distance(parent, candidate), parent.distance_to(candidate))
        if key < best_key:
            best, best_key = candidate, key
    if best is None:
        raise ValueError(
            "no placement for node %d: every candidate locus point lies inside a blockage"
            % child_id
        )
    return best


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
