"""Tests for the scalar Elmore balancing closed forms (tests/reference_merge.py)."""

import pytest

from repro.delay.technology import Technology
from repro.delay.wire import wire_delay
from tests.reference_merge import (
    MergeEdges,
    balance_split,
    detour_free_offset_range,
    feasible_offset_interval,
    offset_at_split,
    solve_merge,
    split_for_offset,
)


@pytest.fixture
def tech():
    return Technology.r_benchmark()


class TestMergeEdges:
    def test_total_and_detour(self):
        edges = MergeEdges(ea=300.0, eb=700.0, distance=1000.0)
        assert edges.total == 1000.0
        assert edges.detour == 0.0
        assert not edges.snaked

    def test_snaked_edges(self):
        edges = MergeEdges(ea=1500.0, eb=0.0, distance=1000.0)
        assert edges.detour == pytest.approx(500.0)
        assert edges.snaked

    def test_shorter_than_distance_raises(self):
        with pytest.raises(ValueError):
            MergeEdges(ea=100.0, eb=100.0, distance=1000.0)

    def test_negative_edge_raises(self):
        with pytest.raises(ValueError):
            MergeEdges(ea=-1.0, eb=1001.0, distance=1000.0)


class TestOffsetFunctions:
    def test_offset_endpoints_match_range(self, tech):
        d, ca, cb = 2000.0, 40.0, 90.0
        lo, hi = detour_free_offset_range(d, ca, cb, tech)
        assert offset_at_split(0.0, d, ca, cb, tech) == pytest.approx(lo)
        assert offset_at_split(d, d, ca, cb, tech) == pytest.approx(hi)

    def test_offset_is_monotone_in_split(self, tech):
        d, ca, cb = 1500.0, 20.0, 20.0
        values = [offset_at_split(x, d, ca, cb, tech) for x in (0, 300, 750, 1200, 1500)]
        assert values == sorted(values)

    def test_split_for_offset_inverts_offset_at_split(self, tech):
        d, ca, cb = 3000.0, 55.0, 110.0
        for x in (0.0, 123.0, 1500.0, 2987.0):
            g = offset_at_split(x, d, ca, cb, tech)
            assert split_for_offset(g, d, ca, cb, tech) == pytest.approx(x, abs=1e-6)

    def test_zero_distance_zero_caps(self, tech):
        assert split_for_offset(0.0, 0.0, 0.0, 0.0, tech) == 0.0


class TestFeasibleOffsetInterval:
    def test_zero_bound_pins_offset(self):
        lo, hi = feasible_offset_interval((100.0, 100.0), (250.0, 250.0), bound=0.0)
        assert lo == pytest.approx(150.0)
        assert hi == pytest.approx(150.0)

    def test_bound_widens_interval_symmetrically(self):
        lo, hi = feasible_offset_interval((100.0, 100.0), (250.0, 250.0), bound=40.0)
        assert lo == pytest.approx(110.0)
        assert hi == pytest.approx(190.0)

    def test_existing_spread_consumes_slack(self):
        lo, hi = feasible_offset_interval((90.0, 110.0), (240.0, 260.0), bound=40.0)
        assert hi - lo == pytest.approx(2 * 40.0 - 20.0 - 20.0)

    def test_empty_when_spreads_exceed_bound(self):
        lo, hi = feasible_offset_interval((0.0, 100.0), (0.0, 100.0), bound=10.0)
        assert lo > hi

    def test_negative_bound_raises(self):
        with pytest.raises(ValueError):
            feasible_offset_interval((0.0, 0.0), (0.0, 0.0), bound=-1.0)


class TestSolveMerge:
    def test_detour_free_solution_realises_offset(self, tech):
        d, ca, cb = 2500.0, 30.0, 80.0
        target = 100.0
        edges = solve_merge(d, ca, cb, tech, target)
        assert edges.total == pytest.approx(d)
        achieved = wire_delay(edges.ea, ca, tech) - wire_delay(edges.eb, cb, tech)
        assert achieved == pytest.approx(target, abs=1e-6)

    def test_snaking_towards_a_when_target_too_large(self, tech):
        d, ca, cb = 1000.0, 30.0, 30.0
        _, hi = detour_free_offset_range(d, ca, cb, tech)
        edges = solve_merge(d, ca, cb, tech, hi * 3.0)
        assert edges.snaked
        assert edges.eb == 0.0
        achieved = wire_delay(edges.ea, ca, tech)
        assert achieved == pytest.approx(hi * 3.0, rel=1e-9)

    def test_snaking_towards_b_when_target_too_small(self, tech):
        d, ca, cb = 1000.0, 30.0, 30.0
        lo, _ = detour_free_offset_range(d, ca, cb, tech)
        edges = solve_merge(d, ca, cb, tech, lo * 2.5)
        assert edges.snaked
        assert edges.ea == 0.0

    def test_snaking_disabled_clamps_target(self, tech):
        d, ca, cb = 1000.0, 30.0, 30.0
        _, hi = detour_free_offset_range(d, ca, cb, tech)
        edges = solve_merge(d, ca, cb, tech, hi * 3.0, allow_snaking=False)
        assert not edges.snaked
        assert edges.total == pytest.approx(d)
        assert edges.ea == pytest.approx(d)

    def test_negative_distance_raises(self, tech):
        with pytest.raises(ValueError):
            solve_merge(-1.0, 10.0, 10.0, tech, 0.0)


class TestBalanceSplit:
    def test_equal_subtrees_split_in_half(self, tech):
        edges = balance_split(2000.0, 500.0, 500.0, 60.0, 60.0, tech)
        assert edges.ea == pytest.approx(1000.0)
        assert edges.eb == pytest.approx(1000.0)

    def test_slower_side_gets_less_wire(self, tech):
        # Subtree a is already slower, so the merge point moves towards it.
        edges = balance_split(2000.0, 900.0, 500.0, 60.0, 60.0, tech)
        assert edges.ea < edges.eb

    def test_resulting_delays_are_equal(self, tech):
        d, ta, tb, ca, cb = 3000.0, 700.0, 200.0, 45.0, 120.0
        edges = balance_split(d, ta, tb, ca, cb, tech)
        delay_a = ta + wire_delay(edges.ea, ca, tech)
        delay_b = tb + wire_delay(edges.eb, cb, tech)
        assert delay_a == pytest.approx(delay_b, rel=1e-9)

    def test_large_imbalance_requires_snaking(self, tech):
        # Side b is far too fast even with all the wire: snake towards b.
        edges = balance_split(100.0, 10_000.0, 0.0, 10.0, 10.0, tech)
        assert edges.snaked
        delay_a = 10_000.0 + wire_delay(edges.ea, 10.0, tech)
        delay_b = 0.0 + wire_delay(edges.eb, 10.0, tech)
        assert delay_a == pytest.approx(delay_b, rel=1e-9)
