"""Manhattan-plane geometry substrate for clock routing.

Clock routing algorithms in this package work in the rectilinear (Manhattan)
plane.  The central trick, inherited from the DME / BST literature, is the 45
degree rotation ``u = x + y``, ``v = x - y``: Manhattan distance in the
original plane becomes Chebyshev (L-infinity) distance in the rotated plane,
and every placement locus the algorithms manipulate (points, Manhattan arcs,
tilted rectangular regions) becomes an axis-aligned rectangle there.

Public classes and helpers:

* :class:`Point` -- immutable 2-D point with Manhattan helpers.
* :class:`Trr` -- tilted rectangular region, the universal placement locus.
* :func:`manhattan_distance`, :func:`to_rotated`, :func:`from_rotated` --
  metric and coordinate transforms.
* :func:`repro.geometry.trr.region_distances` -- TRR distances over arrays of
  ``(ulo, uhi, vlo, vhi)`` rows, the form the routers hold their loci in.
* :class:`Rect`, :class:`ObstacleSet` -- rectilinear routing blockages with
  detour-distance and obstacle-avoiding path queries.
"""

from repro.geometry.point import Point
from repro.geometry.obstacles import ObstacleSet, Rect
from repro.geometry.manhattan import (
    chebyshev_distance,
    from_rotated,
    interval_gap,
    manhattan_distance,
    to_rotated,
)
from repro.geometry.trr import Trr

__all__ = [
    "ObstacleSet",
    "Point",
    "Rect",
    "Trr",
    "chebyshev_distance",
    "from_rotated",
    "interval_gap",
    "manhattan_distance",
    "to_rotated",
]
