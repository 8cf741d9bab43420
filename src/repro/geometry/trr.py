"""Tilted rectangular regions (TRRs).

A TRR is a rectangle whose sides run at +/-45 degrees in the original plane.
In rotated ``(u, v)`` coordinates (see :mod:`repro.geometry.manhattan`) a TRR
is an axis-aligned rectangle ``[ulo, uhi] x [vlo, vhi]``, which makes every
operation the DME-family routers need exact and cheap:

* points and Manhattan arcs are degenerate TRRs;
* expanding a TRR by a Manhattan radius ``r`` grows each interval by ``r``;
* the Manhattan distance between two TRRs is the larger of the per-axis
  interval gaps;
* intersections are interval intersections.

The class is frozen (immutable); all mutating-looking operations return new
instances.

Batch kernels
-------------
The DME-family routers evaluate TRR-to-TRR distances in bulk (every merging
pass scores thousands of candidate pairs) and hold their loci as ``(n, 4)``
float arrays of ``(ulo, uhi, vlo, vhi)`` rows, so this module also exposes
numpy-broadcast distance kernels over such rows:

* :func:`region_distances` broadcasts two row arrays against each other;
* :func:`pair_distances` gathers the distances of explicit ``(i, j)`` index
  pairs from one array.

The kernels evaluate exactly the same expressions as the scalar
:meth:`Trr.distance_to` (``max`` of per-axis interval gaps, each gap a single
subtraction), so their results are bit-identical to the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.manhattan import interval_gap, interval_intersection
from repro.geometry.point import Point

__all__ = ["Trr", "region_distances", "pair_distances"]

_EPS = 1e-9


@dataclass(frozen=True)
class Trr:
    """A tilted rectangular region stored in rotated coordinates."""

    ulo: float
    uhi: float
    vlo: float
    vhi: float

    def __post_init__(self) -> None:
        if self.uhi < self.ulo - _EPS or self.vhi < self.vlo - _EPS:
            raise ValueError(
                "malformed Trr: [%r, %r] x [%r, %r]"
                % (self.ulo, self.uhi, self.vlo, self.vhi)
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, point: Point) -> "Trr":
        """The degenerate TRR containing a single point."""
        u, v = point.rotated()
        return cls(u, u, v, v)

    @classmethod
    def from_points(cls, points) -> "Trr":
        """The smallest TRR containing all ``points`` (at least one required)."""
        pts = list(points)
        if not pts:
            raise ValueError("Trr.from_points requires at least one point")
        coords = [p.rotated() for p in pts]
        us = [u for u, _ in coords]
        vs = [v for _, v in coords]
        return cls(min(us), max(us), min(vs), max(vs))

    # ------------------------------------------------------------------
    # Shape predicates
    # ------------------------------------------------------------------
    @property
    def width_u(self) -> float:
        """Extent along the rotated ``u`` axis."""
        return self.uhi - self.ulo

    @property
    def width_v(self) -> float:
        """Extent along the rotated ``v`` axis."""
        return self.vhi - self.vlo

    def is_point(self, tol: float = _EPS) -> bool:
        """Whether the region degenerates to a single point."""
        return self.width_u <= tol and self.width_v <= tol

    def is_arc(self, tol: float = _EPS) -> bool:
        """Whether the region degenerates to a Manhattan arc (or a point)."""
        return self.width_u <= tol or self.width_v <= tol

    def area(self) -> float:
        """Area of the region in the rotated plane.

        The area in the original plane is half of this value (the rotation
        scales lengths by sqrt(2)); callers that care only about degeneracy or
        relative sizes can use either convention consistently.
        """
        return self.width_u * self.width_v

    # ------------------------------------------------------------------
    # Region arithmetic
    # ------------------------------------------------------------------
    def expanded(self, radius: float) -> "Trr":
        """All points within Manhattan distance ``radius`` of this region."""
        if radius < -_EPS:
            raise ValueError("expansion radius must be non-negative")
        r = max(radius, 0.0)
        return Trr(self.ulo - r, self.uhi + r, self.vlo - r, self.vhi + r)

    def intersection(self, other: "Trr") -> Optional["Trr"]:
        """Intersection with ``other`` or ``None`` when the regions are disjoint."""
        ulo, uhi = interval_intersection(self.ulo, self.uhi, other.ulo, other.uhi)
        vlo, vhi = interval_intersection(self.vlo, self.vhi, other.vlo, other.vhi)
        if uhi < ulo - _EPS or vhi < vlo - _EPS:
            return None
        return Trr(ulo, max(uhi, ulo), vlo, max(vhi, vlo))

    def union_bound(self, other: "Trr") -> "Trr":
        """Smallest TRR containing both regions."""
        return Trr(
            min(self.ulo, other.ulo),
            max(self.uhi, other.uhi),
            min(self.vlo, other.vlo),
            max(self.vhi, other.vhi),
        )

    def distance_to(self, other: "Trr") -> float:
        """Manhattan distance between the two regions (0 when they overlap)."""
        gap_u = interval_gap(self.ulo, self.uhi, other.ulo, other.uhi)
        gap_v = interval_gap(self.vlo, self.vhi, other.vlo, other.vhi)
        return max(gap_u, gap_v)

    def distance_to_point(self, point: Point) -> float:
        """Manhattan distance from ``point`` to this region."""
        return self.distance_to(Trr.from_point(point))

    def contains_point(self, point: Point, tol: float = _EPS) -> bool:
        """Whether ``point`` lies inside the region (within ``tol``)."""
        u, v = point.rotated()
        return (
            self.ulo - tol <= u <= self.uhi + tol
            and self.vlo - tol <= v <= self.vhi + tol
        )

    def contains(self, other: "Trr", tol: float = _EPS) -> bool:
        """Whether ``other`` is entirely inside this region (within ``tol``)."""
        return (
            self.ulo - tol <= other.ulo
            and other.uhi <= self.uhi + tol
            and self.vlo - tol <= other.vlo
            and other.vhi <= self.vhi + tol
        )

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def center(self) -> Point:
        """The centre of the region, mapped back to the original plane."""
        return Point.from_rotated(
            (self.ulo + self.uhi) / 2.0, (self.vlo + self.vhi) / 2.0
        )

    def nearest_point_to(self, point: Point) -> Point:
        """The point of this region closest (in Manhattan distance) to ``point``."""
        u, v = point.rotated()
        cu = min(max(u, self.ulo), self.uhi)
        cv = min(max(v, self.vlo), self.vhi)
        return Point.from_rotated(cu, cv)

    def nearest_points(self, other: "Trr") -> Tuple[Point, Point]:
        """A pair of mutually nearest points, one from each region.

        The returned points realise :meth:`distance_to`.
        """
        cu_self, cu_other = _nearest_interval_coords(
            self.ulo, self.uhi, other.ulo, other.uhi
        )
        cv_self, cv_other = _nearest_interval_coords(
            self.vlo, self.vhi, other.vlo, other.vhi
        )
        return (
            Point.from_rotated(cu_self, cv_self),
            Point.from_rotated(cu_other, cv_other),
        )

    def corners(self) -> List[Point]:
        """The four corners of the region in the original plane."""
        return [
            Point.from_rotated(self.ulo, self.vlo),
            Point.from_rotated(self.ulo, self.vhi),
            Point.from_rotated(self.uhi, self.vhi),
            Point.from_rotated(self.uhi, self.vlo),
        ]

    def sample_points(self, per_axis: int = 3) -> List[Point]:
        """A small grid of points covering the region (corners always included).

        Useful for verification code that wants to check a property over the
        whole region without symbolic reasoning.
        """
        if per_axis < 2:
            return [self.center()]
        us = [
            self.ulo + (self.uhi - self.ulo) * i / (per_axis - 1)
            for i in range(per_axis)
        ]
        vs = [
            self.vlo + (self.vhi - self.vlo) * i / (per_axis - 1)
            for i in range(per_axis)
        ]
        return [Point.from_rotated(u, v) for u in us for v in vs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Trr(u=[%.3f, %.3f], v=[%.3f, %.3f])" % (
            self.ulo,
            self.uhi,
            self.vlo,
            self.vhi,
        )


# ----------------------------------------------------------------------
# Batch kernels (array-of-intervals representation)
# ----------------------------------------------------------------------
def region_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcasted region-to-region distances between interval arrays.

    ``a`` and ``b`` are broadcast-compatible ``(..., 4)`` arrays of
    ``(ulo, uhi, vlo, vhi)`` rows; the result drops the last axis.  This is
    the single kernel every batch shape reduces to, and it evaluates exactly
    what ``Trr.distance_to`` evaluates: per axis the gap is
    ``max(0, lo2 - hi1, lo1 - hi2)`` and the distance is the larger of the
    two axis gaps.  Only one of the two signed gaps can be positive, so the
    ``max`` reproduces the scalar branchy computation bit for bit.
    """
    gap_u = np.maximum(b[..., 0] - a[..., 1], a[..., 0] - b[..., 1])
    gap_v = np.maximum(b[..., 2] - a[..., 3], a[..., 2] - b[..., 3])
    return np.maximum(np.maximum(gap_u, gap_v), 0.0)


def pair_distances(arr: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances of explicit index pairs ``(i[t], j[t])`` within one array.

    Vectorised gather used on KD-tree candidate pairs: same result as
    ``loci[i[t]].distance_to(loci[j[t]])`` for every ``t``, without forming
    the full pairwise matrix.
    """
    a = np.asarray(arr, dtype=float)
    return region_distances(a[i], a[j])


def _nearest_interval_coords(
    lo1: float, hi1: float, lo2: float, hi2: float
) -> Tuple[float, float]:
    """Closest pair of coordinates between two closed intervals.

    When the intervals overlap, both coordinates are placed at the middle of
    the overlap so that the returned points are stable and symmetric.
    """
    lo = max(lo1, lo2)
    hi = min(hi1, hi2)
    if lo <= hi:
        mid = (lo + hi) / 2.0
        return (mid, mid)
    if lo2 > hi1:
        return (hi1, lo2)
    return (lo1, hi2)
