"""Tests for the scalar merge loci of tests/reference_merge.py."""

import pytest

from repro.geometry.point import Point
from repro.geometry.trr import Trr
from tests.reference_merge import balance_locus, merge_locus


class TestMergeLoci:
    def test_merge_locus_none_when_radii_too_small(self):
        a = Trr.from_point(Point(0, 0))
        b = Trr.from_point(Point(10, 0))
        assert merge_locus(a, b, 3.0, 3.0) is None

    def test_merge_locus_negative_radius_raises(self):
        a = Trr.from_point(Point(0, 0))
        with pytest.raises(ValueError):
            merge_locus(a, a, -1.0, 0.0)

    def test_balance_locus_points_respect_radii(self):
        a = Trr.from_point(Point(0, 0))
        b = Trr.from_point(Point(10, 4))
        d = a.distance_to(b)
        locus = balance_locus(a, b, 0.3 * d, 0.7 * d)
        for p in locus.sample_points():
            assert a.distance_to_point(p) <= 0.3 * d + 1e-9
            assert b.distance_to_point(p) <= 0.7 * d + 1e-9

    def test_balance_locus_raises_when_unreachable(self):
        a = Trr.from_point(Point(0, 0))
        b = Trr.from_point(Point(10, 0))
        with pytest.raises(ValueError):
            balance_locus(a, b, 1.0, 2.0)
