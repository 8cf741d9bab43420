"""Rectilinear routing blockages (macros, hard IP, keep-out regions).

Real clock-net workloads -- ISPD-CNS benchmarks, structured-ASIC fabrics --
carry rectangular regions no signal wire may cross.  This module provides the
blockage model the rest of the library builds on:

* :class:`Rect` -- one axis-aligned blockage rectangle with point / segment
  interior queries;
* :class:`ObstacleSet` -- an immutable collection of rectangles with path
  queries, shortest obstacle-avoiding rectilinear routing (escape graph over
  the Hanan grid of the blockage corners) and the Manhattan *detour distance*
  that obstacle-aware embedding and validation are defined in terms of.
  Detour distances are memoised per set, since the opt passes ask for the
  same edges again and again.

Wires may run along blockage *boundaries* -- only the open interior is
forbidden, which matches the usual physical-design convention (routing over
the edge of a macro is legal, routing through it is not).  All queries use a
small tolerance so that floating-point coordinates sitting exactly on a
boundary are never misclassified as inside.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.geometry.point import Point

__all__ = ["Rect", "ObstacleSet", "path_length"]

_TOL = 1e-6


@dataclass(frozen=True, order=True)
class Rect:
    """An axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                "malformed rectangle: (%g, %g, %g, %g)"
                % (self.xmin, self.ymin, self.xmax, self.ymax)
            )

    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    def corners(self) -> List[Point]:
        """The four corners, counter-clockwise from ``(xmin, ymin)``."""
        return [
            Point(self.xmin, self.ymin),
            Point(self.xmax, self.ymin),
            Point(self.xmax, self.ymax),
            Point(self.xmin, self.ymax),
        ]

    def expanded(self, margin: float) -> "Rect":
        """A copy grown by ``margin`` on every side (negative shrinks)."""
        return Rect(
            self.xmin - margin, self.ymin - margin, self.xmax + margin, self.ymax + margin
        )

    def to_tuple(self) -> Tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    # ------------------------------------------------------------------
    def contains_point(self, point: Point, tol: float = _TOL) -> bool:
        """Whether ``point`` lies in the closed rectangle (boundary included)."""
        return (
            self.xmin - tol <= point.x <= self.xmax + tol
            and self.ymin - tol <= point.y <= self.ymax + tol
        )

    def interior_contains(self, point: Point, tol: float = _TOL) -> bool:
        """Whether ``point`` lies strictly inside (boundary is *outside*)."""
        return (
            self.xmin + tol < point.x < self.xmax - tol
            and self.ymin + tol < point.y < self.ymax - tol
        )

    def blocks_segment(self, a: Point, b: Point, tol: float = _TOL) -> bool:
        """Whether the axis-aligned segment ``a``-``b`` crosses the interior.

        Running along a boundary is allowed; only a crossing of the open
        interior with positive length blocks.  Raises ``ValueError`` for a
        segment that is neither horizontal nor vertical (clock wires are
        rectilinear by construction).
        """
        if abs(a.x - b.x) <= tol:  # vertical (or degenerate)
            if abs(a.y - b.y) <= tol:
                return self.interior_contains(a, tol)
            if not (self.xmin + tol < a.x < self.xmax - tol):
                return False
            lo = max(min(a.y, b.y), self.ymin)
            hi = min(max(a.y, b.y), self.ymax)
            return hi - lo > tol
        if abs(a.y - b.y) <= tol:  # horizontal
            if not (self.ymin + tol < a.y < self.ymax - tol):
                return False
            lo = max(min(a.x, b.x), self.xmin)
            hi = min(max(a.x, b.x), self.xmax)
            return hi - lo > tol
        raise ValueError("blockage queries require axis-aligned segments: %r -> %r" % (a, b))

    def overlaps(self, other: "Rect", tol: float = _TOL) -> bool:
        """Whether the two rectangle interiors intersect."""
        return (
            self.xmin + tol < other.xmax
            and other.xmin + tol < self.xmax
            and self.ymin + tol < other.ymax
            and other.ymin + tol < self.ymax
        )


@dataclass
class _DetourMemo:
    """Detour distances by ``(start, end)``, and how many were computed."""

    distances: Dict[Tuple[Point, Point], float] = field(default_factory=dict)
    computed: int = 0


@dataclass(frozen=True)
class ObstacleSet:
    """An immutable set of rectangular blockages with routing queries."""

    rects: Tuple[Rect, ...] = ()
    #: Per-set cache of :meth:`detour_distance`; not part of the set's value
    #: (left out of ``==``, ``hash`` and ``repr``) and dropped with the set.
    _memo: _DetourMemo = field(
        default_factory=_DetourMemo, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "rects", tuple(self.rects))
        for rect in self.rects:
            if not isinstance(rect, Rect):
                raise TypeError("ObstacleSet holds Rect instances, got %r" % (rect,))

    @classmethod
    def from_tuples(cls, tuples: Iterable[Sequence[float]]) -> "ObstacleSet":
        """Build from ``(xmin, ymin, xmax, ymax)`` tuples."""
        return cls(tuple(Rect(*map(float, t)) for t in tuples))

    def to_tuples(self) -> List[Tuple[float, float, float, float]]:
        return [rect.to_tuple() for rect in self.rects]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rects)

    def __bool__(self) -> bool:
        return bool(self.rects)

    def __iter__(self) -> Iterator[Rect]:
        return iter(self.rects)

    def total_area(self) -> float:
        """Sum of blockage areas (overlaps counted twice)."""
        return sum(rect.area for rect in self.rects)

    @property
    def detours_computed(self) -> int:
        """Detour distances this set computed rather than read from its memo."""
        return self._memo.computed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def blocks_point(self, point: Point, tol: float = _TOL) -> bool:
        """Whether ``point`` lies strictly inside any blockage."""
        return any(rect.interior_contains(point, tol) for rect in self.rects)

    def blocks_segment(self, a: Point, b: Point, tol: float = _TOL) -> bool:
        """Whether the axis-aligned segment ``a``-``b`` crosses any interior."""
        return any(rect.blocks_segment(a, b, tol) for rect in self.rects)

    def blocks_path(self, points: Sequence[Point], tol: float = _TOL) -> bool:
        """Whether any consecutive segment of the polyline crosses an interior."""
        return any(
            self.blocks_segment(points[i], points[i + 1], tol)
            for i in range(len(points) - 1)
        )

    def nearest_free_point(self, point: Point) -> Point:
        """``point`` itself when legal, else the nearest blockage-free point.

        Deterministic best-first search over boundary projections and corners
        of the blocking rectangles (projections can land inside a neighbouring
        blockage, so the search expands through those too).  Raises
        ``ValueError`` when no free point is found within the expansion bound
        -- only possible for pathologically nested blockage sets.
        """
        if not self.blocks_point(point):
            return point
        # (distance to the original point, candidate) entries; Point orders
        # lexicographically so ties resolve deterministically.
        frontier: List[Tuple[float, Point]] = [(0.0, point)]
        seen = {point}
        expansions = 0
        while frontier:
            _, candidate = heapq.heappop(frontier)
            if not self.blocks_point(candidate):
                return candidate
            expansions += 1
            if expansions > 64:
                break
            for rect in self.rects:
                if not rect.interior_contains(candidate):
                    continue
                projections = [
                    Point(rect.xmin, candidate.y),
                    Point(rect.xmax, candidate.y),
                    Point(candidate.x, rect.ymin),
                    Point(candidate.x, rect.ymax),
                ] + rect.corners()
                for projection in projections:
                    if projection not in seen:
                        seen.add(projection)
                        heapq.heappush(
                            frontier, (point.distance_to(projection), projection)
                        )
        raise ValueError("no blockage-free point found near %r" % (point,))

    # ------------------------------------------------------------------
    # Obstacle-avoiding routing
    # ------------------------------------------------------------------
    def route(self, start: Point, end: Point) -> List[Point]:
        """A shortest obstacle-avoiding rectilinear path from ``start`` to ``end``.

        Tries the two L-shapes first (horizontal-first, matching the
        obstacle-free router's convention, then vertical-first); when both are
        blocked, falls back to a Dijkstra search on the escape graph spanned
        by the Hanan grid of the blockage corners and the two endpoints.

        Raises ``ValueError`` when an endpoint lies strictly inside a blockage
        (no legal path exists) or when the escape graph is disconnected.
        """
        for endpoint in (start, end):
            if self.blocks_point(endpoint):
                raise ValueError("point %r lies inside a blockage" % (endpoint,))
        direct = self.l_shape_path(start, end)
        if direct is not None:
            return direct
        return self._escape_route(start, end)

    def detour_distance(self, start: Point, end: Point) -> float:
        """Length of the shortest obstacle-avoiding rectilinear path.

        Equals the plain Manhattan distance whenever an unobstructed L-shape
        exists; otherwise strictly larger.  Results are memoised by
        ``(start, end)``; a failed query (an endpoint inside a blockage) is
        not, so it raises again on every call.
        """
        if not self.rects:
            return start.distance_to(end)
        memo = self._memo
        key = (start, end)
        distance = memo.distances.get(key)
        if distance is None:
            memo.computed += 1
            distance = memo.distances[key] = path_length(self.route(start, end))
        return distance

    # ------------------------------------------------------------------
    def l_shape_path(self, start: Point, end: Point) -> "List[Point] | None":
        """An unobstructed L-shape between the endpoints, or None.

        The horizontal-first orientation is preferred, matching the
        obstacle-free router's convention, so obstacle-aware runs only change
        shape where a blockage actually interferes.
        """
        for corner in (Point(end.x, start.y), Point(start.x, end.y)):
            path = _simplify([start, corner, end])
            if not self.blocks_path(path):
                return path
        return None

    def _escape_route(self, start: Point, end: Point) -> List[Point]:
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
        # (distance, key) entries: grid keys are int pairs, so ties resolve
        # deterministically by grid position.
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
            raise ValueError(
                "no obstacle-avoiding path from %r to %r" % (start, end)
            )
        keys = [target]
        while keys[-1] != source:
            keys.append(previous[keys[-1]])
        keys.reverse()
        return _simplify([points[key] for key in keys])


def path_length(points: Sequence[Point]) -> float:
    """Total Manhattan length of a polyline (0 for fewer than two points)."""
    return sum(points[i].distance_to(points[i + 1]) for i in range(len(points) - 1))


def _simplify(points: Sequence[Point]) -> List[Point]:
    """Drop duplicate and collinear intermediate points of a rectilinear path."""
    kept: List[Point] = []
    for point in points:
        if kept and point == kept[-1]:
            continue
        while len(kept) >= 2:
            a, b = kept[-2], kept[-1]
            if (abs(a.x - b.x) <= _TOL and abs(b.x - point.x) <= _TOL) or (
                abs(a.y - b.y) <= _TOL and abs(b.y - point.y) <= _TOL
            ):
                kept.pop()
            else:
                break
        kept.append(point)
    return kept
