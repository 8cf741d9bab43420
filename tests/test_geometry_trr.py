"""Tests for repro.geometry.trr."""

import pytest

from repro.geometry.point import Point
from repro.geometry.trr import Trr


class TestConstruction:
    def test_from_point_is_degenerate(self):
        trr = Trr.from_point(Point(3.0, 4.0))
        assert trr.is_point()
        assert trr.is_arc()
        assert trr.center() == Point(3.0, 4.0)

    def test_from_points_bounds_all(self):
        pts = [Point(0, 0), Point(10, 0), Point(5, 8)]
        trr = Trr.from_points(pts)
        for p in pts:
            assert trr.contains_point(p)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            Trr.from_points([])

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Trr(1.0, 0.0, 0.0, 1.0)


class TestPredicates:
    def test_manhattan_arc_is_degenerate_not_point(self):
        arc = Trr.from_points([Point(0, 0), Point(2, 2)])  # slope +1 segment
        assert arc.is_arc()
        assert not arc.is_point()

    def test_area_of_point_is_zero(self):
        assert Trr.from_point(Point(1, 1)).area() == 0.0

    def test_contains_region(self):
        outer = Trr.from_point(Point(0, 0)).expanded(5.0)
        inner = Trr.from_point(Point(0, 0)).expanded(2.0)
        assert outer.contains(inner)
        assert not inner.contains(outer)


class TestExpansionAndDistance:
    def test_expansion_radius_matches_distance(self):
        core = Trr.from_point(Point(0, 0))
        region = core.expanded(10.0)
        # Points at Manhattan distance exactly 10 are on the boundary.
        assert region.contains_point(Point(10, 0))
        assert region.contains_point(Point(0, -10))
        assert region.contains_point(Point(5, 5))
        assert not region.contains_point(Point(8, 4))

    def test_negative_expansion_raises(self):
        with pytest.raises(ValueError):
            Trr.from_point(Point(0, 0)).expanded(-1.0)

    def test_distance_between_points(self):
        a = Trr.from_point(Point(0, 0))
        b = Trr.from_point(Point(3, 4))
        assert a.distance_to(b) == pytest.approx(7.0)

    def test_distance_is_symmetric(self):
        a = Trr.from_points([Point(0, 0), Point(2, 2)])
        b = Trr.from_point(Point(10, -3))
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_distance_zero_when_overlapping(self):
        a = Trr.from_point(Point(0, 0)).expanded(5.0)
        b = Trr.from_point(Point(4, 0)).expanded(5.0)
        assert a.distance_to(b) == 0.0

    def test_distance_to_point(self):
        region = Trr.from_point(Point(0, 0)).expanded(3.0)
        assert region.distance_to_point(Point(10, 0)) == pytest.approx(7.0)
        assert region.distance_to_point(Point(1, 1)) == 0.0

    def test_expansion_reduces_distance_by_radius(self):
        a = Trr.from_point(Point(0, 0))
        b = Trr.from_point(Point(20, 0))
        assert a.expanded(6.0).distance_to(b) == pytest.approx(14.0)


class TestIntersection:
    def test_intersection_of_expansions_is_balance_arc(self):
        a = Trr.from_point(Point(0, 0))
        b = Trr.from_point(Point(10, 0))
        locus = a.expanded(4.0).intersection(b.expanded(6.0))
        assert locus is not None
        # Every point of the locus is within the two radii.
        for p in locus.sample_points():
            assert a.distance_to_point(p) <= 4.0 + 1e-9
            assert b.distance_to_point(p) <= 6.0 + 1e-9

    def test_intersection_none_when_disjoint(self):
        a = Trr.from_point(Point(0, 0)).expanded(1.0)
        b = Trr.from_point(Point(10, 0)).expanded(1.0)
        assert a.intersection(b) is None

    def test_union_bound_contains_both(self):
        a = Trr.from_point(Point(0, 0)).expanded(1.0)
        b = Trr.from_point(Point(10, 5)).expanded(2.0)
        bound = a.union_bound(b)
        assert bound.contains(a)
        assert bound.contains(b)


class TestPointQueries:
    def test_nearest_point_inside_is_itself(self):
        region = Trr.from_point(Point(0, 0)).expanded(5.0)
        assert region.nearest_point_to(Point(1, 1)) == Point(1, 1)

    def test_nearest_point_realises_distance(self):
        region = Trr.from_point(Point(0, 0)).expanded(2.0)
        target = Point(10, 0)
        nearest = region.nearest_point_to(target)
        assert nearest.distance_to(target) == pytest.approx(region.distance_to_point(target))
        assert region.contains_point(nearest)

    def test_nearest_points_between_regions(self):
        a = Trr.from_point(Point(0, 0)).expanded(1.0)
        b = Trr.from_point(Point(10, 0)).expanded(2.0)
        pa, pb = a.nearest_points(b)
        assert a.contains_point(pa)
        assert b.contains_point(pb)
        assert pa.distance_to(pb) == pytest.approx(a.distance_to(b))

    def test_corners_are_contained(self):
        region = Trr.from_points([Point(0, 0), Point(6, 2)]).expanded(1.0)
        for corner in region.corners():
            assert region.contains_point(corner)

    def test_sample_points_cover_region(self):
        region = Trr.from_point(Point(0, 0)).expanded(4.0)
        samples = region.sample_points(per_axis=3)
        assert len(samples) == 9
        assert all(region.contains_point(p) for p in samples)

    def test_center_of_expanded_point_is_the_point(self):
        assert Trr.from_point(Point(7, -2)).expanded(3.0).center() == Point(7, -2)
