"""Tests for repro.geometry.manhattan."""

import pytest

from repro.geometry.manhattan import (
    chebyshev_distance,
    from_rotated,
    interval_gap,
    interval_intersection,
    manhattan_distance,
    to_rotated,
)


class TestRotation:
    def test_to_rotated(self):
        assert to_rotated(3.0, 1.0) == (4.0, 2.0)

    def test_from_rotated(self):
        assert from_rotated(4.0, 2.0) == (3.0, 1.0)

    def test_roundtrip(self):
        for x, y in [(0.0, 0.0), (1.5, -2.25), (1e6, -1e6)]:
            u, v = to_rotated(x, y)
            assert from_rotated(u, v) == pytest.approx((x, y))

    def test_manhattan_equals_chebyshev_after_rotation(self):
        x1, y1, x2, y2 = 2.0, -3.0, 7.5, 4.0
        u1, v1 = to_rotated(x1, y1)
        u2, v2 = to_rotated(x2, y2)
        assert chebyshev_distance(u1, v1, u2, v2) == pytest.approx(
            manhattan_distance(x1, y1, x2, y2)
        )


class TestDistances:
    def test_manhattan_distance(self):
        assert manhattan_distance(0, 0, 3, 4) == 7

    def test_chebyshev_distance(self):
        assert chebyshev_distance(0, 0, 3, 4) == 4


class TestIntervals:
    def test_gap_disjoint(self):
        assert interval_gap(0, 1, 3, 5) == 2
        assert interval_gap(3, 5, 0, 1) == 2

    def test_gap_overlapping_is_zero(self):
        assert interval_gap(0, 4, 3, 5) == 0
        assert interval_gap(0, 4, 4, 5) == 0

    def test_intersection(self):
        assert interval_intersection(0, 4, 3, 5) == (3, 4)
        lo, hi = interval_intersection(0, 1, 2, 3)
        assert lo > hi  # empty by convention
