"""Manhattan metric primitives and the 45-degree coordinate rotation.

The rotation used throughout the DME / BST literature maps a point ``(x, y)``
to ``(u, v) = (x + y, x - y)``.  Under this map the Manhattan (L1) distance in
the original plane equals the Chebyshev (L-infinity) distance in the rotated
plane, and segments of slope +/-1 (Manhattan arcs) become axis aligned.  All
region arithmetic in :mod:`repro.geometry.trr` happens in rotated coordinates.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "to_rotated",
    "from_rotated",
    "manhattan_distance",
    "chebyshev_distance",
    "interval_gap",
    "interval_intersection",
]


def to_rotated(x: float, y: float) -> Tuple[float, float]:
    """Rotate ``(x, y)`` into ``(u, v)`` coordinates.

    ``u = x + y`` and ``v = x - y``.  The map is a similarity (rotation by 45
    degrees and scaling by sqrt(2)); Manhattan distance in the original plane
    equals Chebyshev distance in the rotated plane with no extra scale factor.
    """
    return (x + y, x - y)


def from_rotated(u: float, v: float) -> Tuple[float, float]:
    """Inverse of :func:`to_rotated`: map ``(u, v)`` back to ``(x, y)``."""
    return ((u + v) / 2.0, (u - v) / 2.0)


def manhattan_distance(x1: float, y1: float, x2: float, y2: float) -> float:
    """L1 distance between two points given by their original coordinates."""
    return abs(x1 - x2) + abs(y1 - y2)


def chebyshev_distance(u1: float, v1: float, u2: float, v2: float) -> float:
    """L-infinity distance between two points given in rotated coordinates."""
    return max(abs(u1 - u2), abs(v1 - v2))


def interval_gap(lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    """Distance between the closed intervals ``[lo1, hi1]`` and ``[lo2, hi2]``.

    Returns 0 when the intervals overlap or touch.  Both intervals must be
    well formed (``lo <= hi``); this is not checked for speed.
    """
    if lo2 > hi1:
        return lo2 - hi1
    if lo1 > hi2:
        return lo1 - hi2
    return 0.0


def interval_intersection(
    lo1: float, hi1: float, lo2: float, hi2: float
) -> Tuple[float, float]:
    """Intersection of two closed intervals.

    Returns ``(lo, hi)``; the result has ``lo > hi`` when the intervals are
    disjoint, which callers treat as "empty".
    """
    return (max(lo1, lo2), min(hi1, hi2))
