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
it; obstacle-free calls return 0.  The pass runs over a
:class:`~repro.cts.arena.TreeArena`, a depth level at a time; the preorder
walk over nodes it replaced is a test oracle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.trr import Trr

__all__ = ["embed_levels"]

_TOL = 1e-6


def embed_levels(arena, loci: np.ndarray, obstacles: Optional[ObstacleSet] = None):
    """Place the unplaced nodes of ``arena`` top-down; return the embedded
    arena (``arena`` is left unchanged) and the wire added for detours.

    The walk visits the (placed) root and then, a depth level at a time, each
    node it places.  Every unplaced child of a visited node goes to the point
    of its locus (row ``loci[child]``, rotated) nearest its parent, or, with
    ``obstacles``, where that point is blocked or has no L-shaped path, to
    :func:`_obstacle_aware_location`'s choice.  The edge into every child of
    a visited node is then checked against the Manhattan distance, or with
    obstacles extended to its detour distance.  Placed subtrees are not
    entered.  The result is the preorder walk's, bit for bit: extensions add
    up in its order (visited parents in preorder, children in attach order),
    and of several errors its first is raised (a ``ValueError``: more wire
    needed than booked, or with obstacles no legal placement or detour).
    """
    if obstacles is not None and not obstacles:
        obstacles = None
    xs, ys = arena.xs.copy(), arena.ys.copy()
    placed = arena.has_location.copy()
    edges = arena.edge_lengths.copy()
    errors = []  # ((parent, child, phase), error), phase 0 placing, 1 the edge
    extensions = []  # ((parent, child), added wire)
    frontier = np.array([arena.root], dtype=np.int64)
    while frontier.size:
        children, at = arena.children_of(frontier)
        parents = frontier[at]
        px, py = xs[parents], ys[parents]
        fresh = np.flatnonzero(~placed[children])
        nodes = children[fresh]
        # Trr.nearest_point_to(parent): rotate, clamp per axis, rotate back.
        rows = loci[nodes]
        cu = np.minimum(np.maximum(px[fresh] + py[fresh], rows[:, 0]), rows[:, 1])
        cv = np.minimum(np.maximum(px[fresh] - py[fresh], rows[:, 2]), rows[:, 3])
        xs[nodes] = (cu + cv) / 2.0
        ys[nodes] = (cu - cv) / 2.0
        placed[nodes] = True
        if obstacles is not None:
            blocked = obstacles.blocks_points(xs[nodes], ys[nodes]).tolist()
            from_xs, from_ys = px[fresh].tolist(), py[fresh].tolist()
            to_xs, to_ys = xs[nodes].tolist(), ys[nodes].tolist()
            for k, node in enumerate(nodes.tolist()):
                parent = Point(from_xs[k], from_ys[k])
                nearest = Point(to_xs[k], to_ys[k])
                if not blocked[k] and obstacles.l_shape_path(parent, nearest) is not None:
                    continue
                try:
                    location = _obstacle_aware_location(
                        Trr(*loci[node].tolist()), parent, obstacles, node
                    )
                except ValueError as error:
                    placed[node] = False
                    errors.append(((parents[fresh[k]], node, 0), error))
                    continue
                xs[node], ys[node] = location.x, location.y
        checked = np.flatnonzero(placed[children])
        targets = children[checked]
        if obstacles is None:
            distance = np.abs(px[checked] - xs[targets]) + np.abs(py[checked] - ys[targets])
            for k in np.flatnonzero(distance > edges[targets] + _TOL).tolist():
                message = "edge to node %d needs %.6g wire but only %.6g was booked" % (
                    targets[k], distance[k], edges[targets[k]]
                )
                errors.append(((parents[checked[k]], targets[k], 1), ValueError(message)))
        else:
            from_xs, from_ys = px.tolist(), py.tolist()
            to_xs, to_ys = xs[children].tolist(), ys[children].tolist()
            for k in checked.tolist():
                child = int(children[k])
                ends = Point(from_xs[k], from_ys[k]), Point(to_xs[k], to_ys[k])
                try:
                    needed = obstacles.detour_distance(*ends)
                except ValueError as error:
                    errors.append(((parents[k], child, 1), error))
                    continue
                if needed > edges[child] + _TOL:
                    extensions.append(((parents[k], child), needed - float(edges[child])))
                    edges[child] = needed
        frontier = nodes[placed[nodes]]

    # The walk's order: parents, then each parent's children, by preorder
    # position (which the visited nodes keep among themselves).
    pre = arena.preorder()[1] if errors or extensions else None
    if errors:
        raise min(errors, key=lambda e: (pre[e[0][0]], pre[e[0][1]], e[0][2]))[1]
    total_detour = 0.0
    for _, wire in sorted(extensions, key=lambda e: (pre[e[0][0]], pre[e[0][1]])):
        total_detour += wire
    placed_arena = arena.with_attributes(xs=xs, ys=ys, has_location=placed, edge_lengths=edges)
    return placed_arena, total_detour


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
