"""Rectilinear realisation of the embedded edges.

The delay and wirelength metrics never need explicit wiring -- edge lengths
are enough -- but examples and downstream consumers (visualisation, export to
physical-design flows) want actual rectilinear paths.  Each edge is realised
as an L-shape between its endpoints plus, when the booked length exceeds the
Manhattan distance, a serpentine detour ("wire snaking") appended near the
child end so that the total path length equals the booked length exactly.

With routing blockages (``obstacles``) the realisation is obstacle aware: an
unobstructed L-shape is still preferred (horizontal-first, the obstacle-free
convention), falling back to the vertical-first L and finally to an
escape-graph route around the blockages; serpentines are placed so that no
segment of the returned path ever crosses a blockage interior.  Obstacle-free
calls take the exact historical code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry.obstacles import ObstacleSet, path_length
from repro.geometry.point import Point

__all__ = ["RectilinearRoute", "route_edges"]

_TOL = 1e-6


@dataclass
class RectilinearRoute:
    """The realised wiring of one parent-to-child edge."""

    parent_id: int
    child_id: int
    points: List[Point] = field(default_factory=list)
    booked_length: float = 0.0

    @property
    def length(self) -> float:
        """Total Manhattan length of the realised path."""
        return path_length(self.points)

    @property
    def detour(self) -> float:
        """Extra wire beyond the straight Manhattan distance of the endpoints."""
        if len(self.points) < 2:
            return 0.0
        direct = self.points[0].distance_to(self.points[-1])
        return max(0.0, self.length - direct)

    def segments(self) -> Iterator[Tuple[Point, Point]]:
        """The consecutive point pairs of the path."""
        for i in range(len(self.points) - 1):
            yield self.points[i], self.points[i + 1]


def _l_shape(start: Point, end: Point) -> List[Point]:
    """An L-shaped path from ``start`` to ``end`` (horizontal first)."""
    if abs(start.x - end.x) <= _TOL or abs(start.y - end.y) <= _TOL:
        return [start, end]
    corner = Point(end.x, start.y)
    return [start, corner, end]


def _serpentine(anchor: Point, extra: float, pitch: float, axis: str = "y") -> List[Point]:
    """A zig-zag of total length ``extra`` attached at ``anchor``.

    The zig-zag oscillates along ``axis`` ("y": vertically, the historical
    default; "x": horizontally) with the given pitch; the exact shape is
    irrelevant for delay (only length matters) so the simplest legal pattern
    is used.
    """
    points: List[Point] = []
    remaining = extra
    direction = 1.0
    current = anchor
    while remaining > _TOL:
        step = min(pitch, remaining / 2.0) if remaining > 2.0 * _TOL else remaining
        if axis == "y":
            up = Point(current.x, current.y + direction * step)
        else:
            up = Point(current.x + direction * step, current.y)
        points.append(up)
        remaining -= step
        if remaining <= _TOL:
            break
        back = Point(current.x, current.y)
        points.append(back)
        remaining -= step
        direction = -direction
        current = back
    return points


def _edge_path(parent: Point, child: Point, obstacles: Optional[ObstacleSet]) -> List[Point]:
    """The blockage-free backbone path of one edge."""
    if obstacles is None:
        return _l_shape(parent, child)
    path = obstacles.route(parent, child)
    if len(path) == 1:
        # Degenerate edge (parent and child coincide): keep the historical
        # two-point shape so snaking anchors behave identically.
        return [parent, child]
    return path


def _insert_snake(
    path: List[Point], extra: float, pitch: float, obstacles: Optional[ObstacleSet]
) -> List[Point]:
    """Insert a serpentine of length ``extra`` into ``path``.

    Without obstacles this reproduces the historical shape exactly: a
    vertical zig-zag anchored just before the final landing point.  With
    obstacles, anchors along the path, both axes and geometrically shrinking
    pitches are tried until the inserted segments clear every blockage.
    """
    def candidate(anchor_index: int, axis: str, step: float) -> List[Point]:
        anchor = path[anchor_index]
        snake = _serpentine(anchor, extra, step, axis=axis)
        return path[: anchor_index + 1] + snake + path[anchor_index + 1 :]

    default_anchor = len(path) - 2 if len(path) > 2 else 0
    if obstacles is None:
        return candidate(default_anchor, "y", pitch)
    anchors = [default_anchor] + [i for i in range(len(path) - 1) if i != default_anchor]
    for step in (pitch, pitch / 2.0, pitch / 4.0, pitch / 8.0):
        for anchor_index in anchors:
            for axis in ("y", "x"):
                routed = candidate(anchor_index, axis, step)
                if not obstacles.blocks_path(routed):
                    return routed
    raise ValueError(
        "cannot place a %.6g snaking detour near %r without crossing a blockage"
        % (extra, path[-1])
    )


def route_edges(
    tree, snake_pitch: float = 10.0, obstacles: Optional[ObstacleSet] = None
) -> Dict[int, RectilinearRoute]:
    """Realise every embedded edge of ``tree`` as a rectilinear path.

    Returns a mapping from child node id to its route, in node id order, read
    from the columns of one ``tree.as_arena()``.  Every node of the tree
    must already have a location (the routers embed every node they build);
    the length of each returned route equals the booked edge length to
    within floating-point tolerance.  With ``obstacles``, no returned segment
    crosses a blockage interior (the booked lengths must cover the detours --
    run the embedding pass with the same obstacles).
    """
    if obstacles is not None and not obstacles:
        obstacles = None
    arena = tree.as_arena()
    xs, ys, placed = arena.xs.tolist(), arena.ys.tolist(), arena.has_location.tolist()
    booked_lengths = arena.edge_lengths.tolist()
    parents = arena.parents.tolist()
    routes: Dict[int, RectilinearRoute] = {}
    for node_id in np.flatnonzero(arena.parents >= 0).tolist():
        parent_id = parents[node_id]
        if not (placed[node_id] and placed[parent_id]):
            raise ValueError(
                "edge %d -> %d is not embedded; embed the tree first" % (parent_id, node_id)
            )
        booked = booked_lengths[node_id]
        path = _edge_path(
            Point(xs[parent_id], ys[parent_id]), Point(xs[node_id], ys[node_id]), obstacles
        )
        realised = path_length(path)
        extra = booked - realised
        if extra < -_TOL and obstacles is not None:
            raise ValueError(
                "edge %d -> %d books %.6g wire but its blockage-avoiding path "
                "needs %.6g; embed the tree with the same obstacles first"
                % (parent_id, node_id, booked, realised)
            )
        if extra > _TOL:
            # Insert the serpentine just before the final landing point so the
            # child pin itself stays where the embedding put it.
            path = _insert_snake(path, extra, snake_pitch, obstacles)
        routes[node_id] = RectilinearRoute(
            parent_id=parent_id, child_id=node_id, points=path, booked_length=booked
        )
    return routes
