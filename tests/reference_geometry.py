"""The per-rectangle obstacle queries the compiled set replaced, kept as its oracle.

:class:`repro.geometry.obstacles.ObstacleSet` compiles its rectangles once
into a tuple of bounds and float64 columns, answers the predicates with
inline loops over the bounds and finds escape routes over grid masks.  This
module keeps the form it replaced: every predicate asks each ``Rect`` in
turn (``Rect.interior_contains`` / ``Rect.blocks_segment`` under ``any``),
``l_shape_path`` simplifies each candidate through ``_simplify``,
``path_length`` sums ``Point.distance_to`` and the escape route tests every
Hanan grid vertex and edge one query at a time before a dict-based
Dijkstra.  :class:`ReferenceObstacles` also keeps a detour memo and its
counter the way the set does.  ``tests/test_geometry_obstacles.py`` asserts
that the set's answers equal these: equal booleans, equal paths point for
point and detours equal by ``float.hex``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.geometry.obstacles import _TOL, Rect, _simplify
from repro.geometry.point import Point

__all__ = ["ReferenceObstacles", "path_length"]


class ReferenceObstacles:
    """The queries of an obstacle set over ``rects``, one rectangle at a time."""

    def __init__(self, rects: Sequence[Rect]) -> None:
        self.rects = tuple(rects)
        self.distances: Dict[Tuple[float, float, float, float], float] = {}
        self.computed = 0

    def blocks_point(self, point: Point, tol: float = _TOL) -> bool:
        return any(rect.interior_contains(point, tol) for rect in self.rects)

    def blocks_segment(self, a: Point, b: Point, tol: float = _TOL) -> bool:
        return any(rect.blocks_segment(a, b, tol) for rect in self.rects)

    def blocks_path(self, points: Sequence[Point], tol: float = _TOL) -> bool:
        return any(
            self.blocks_segment(points[i], points[i + 1], tol)
            for i in range(len(points) - 1)
        )

    def route(self, start: Point, end: Point) -> List[Point]:
        for endpoint in (start, end):
            if self.blocks_point(endpoint):
                raise ValueError("point %r lies inside a blockage" % (endpoint,))
        direct = self.l_shape_path(start, end)
        if direct is not None:
            return direct
        return self.escape_route(start, end)

    def detour_distance(self, start: Point, end: Point) -> float:
        if not self.rects:
            return start.distance_to(end)
        key = (start.x, start.y, end.x, end.y)
        distance = self.distances.get(key)
        if distance is None:
            self.computed += 1
            distance = self.distances[key] = path_length(self.route(start, end))
        return distance

    def l_shape_path(self, start: Point, end: Point) -> "List[Point] | None":
        for corner in (Point(end.x, start.y), Point(start.x, end.y)):
            path = _simplify([start, corner, end])
            if not self.blocks_path(path):
                return path
        return None

    def escape_route(self, start: Point, end: Point) -> List[Point]:
        """Dijkstra over the Hanan grid of blockage corners + endpoints."""
        xs = sorted({start.x, end.x} | {r.xmin for r in self.rects} | {r.xmax for r in self.rects})
        ys = sorted({start.y, end.y} | {r.ymin for r in self.rects} | {r.ymax for r in self.rects})
        points: Dict[Tuple[int, int], Point] = {}
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                candidate = Point(x, y)
                if not self.blocks_point(candidate):
                    points[(i, j)] = candidate

        def neighbors(key: Tuple[int, int]) -> Iterator[Tuple[Tuple[int, int], float]]:
            i, j = key
            here = points[key]
            for other in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                there = points.get(other)
                if there is not None and not self.blocks_segment(here, there):
                    yield other, here.distance_to(there)

        source = (xs.index(start.x), ys.index(start.y))
        target = (xs.index(end.x), ys.index(end.y))
        distances: Dict[Tuple[int, int], float] = {source: 0.0}
        previous: Dict[Tuple[int, int], Tuple[int, int]] = {}
        frontier: List[Tuple[float, Tuple[int, int]]] = [(0.0, source)]
        visited = set()
        while frontier:
            dist, key = heapq.heappop(frontier)
            if key in visited:
                continue
            visited.add(key)
            if key == target:
                break
            for other, weight in neighbors(key):
                candidate = dist + weight
                if candidate < distances.get(other, float("inf")) - 1e-12:
                    distances[other] = candidate
                    previous[other] = key
                    heapq.heappush(frontier, (candidate, other))
        if target not in visited:
            raise ValueError("no obstacle-avoiding path from %r to %r" % (start, end))
        keys = [target]
        while keys[-1] != source:
            keys.append(previous[keys[-1]])
        keys.reverse()
        return _simplify([points[key] for key in keys])


def path_length(points: Sequence[Point]) -> float:
    """Total Manhattan length of a polyline (0.0 for fewer than two points)."""
    return sum((points[i].distance_to(points[i + 1]) for i in range(len(points) - 1)), 0.0)
