"""Tests for the scalar merge-case dispatch (tests/reference_merge.py)."""

import pytest

from repro.core.group_constraints import SkewConstraints
from repro.delay.technology import Technology
from repro.delay.wire import wire_capacitance
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from tests.reference_merge import DISJOINT, SAME_GROUP, SHARED, Subtree, classify_pair, plan_merge


TECH = Technology.r_benchmark()


def sink_subtree(node_id, x, y, cap, group):
    return Subtree.for_sink(node_id, Trr.from_point(Point(x, y)), cap, group)


class TestClassifyPair:
    def test_same_group(self):
        a = sink_subtree(0, 0, 0, 10.0, group=1)
        b = sink_subtree(1, 100, 0, 10.0, group=1)
        case, shared = classify_pair(a, b)
        assert case == SAME_GROUP
        assert shared == frozenset({1})

    def test_disjoint(self):
        a = sink_subtree(0, 0, 0, 10.0, group=1)
        b = sink_subtree(1, 100, 0, 10.0, group=2)
        case, shared = classify_pair(a, b)
        assert case == DISJOINT
        assert shared == frozenset()

    def test_shared(self):
        a = Subtree(0, Trr.from_point(Point(0, 0)), 20.0, delays={1: (0.0, 0.0), 2: (5.0, 5.0)}, num_sinks=2)
        b = sink_subtree(1, 100, 0, 10.0, group=1)
        case, shared = classify_pair(a, b)
        assert case == SHARED
        assert shared == frozenset({1})


class TestSameGroupMerge:
    def test_zero_bound_equalises_delays(self):
        a = sink_subtree(0, 0.0, 0.0, 50.0, group=0)
        b = sink_subtree(1, 2000.0, 0.0, 50.0, group=0)
        decision = plan_merge(a, b, SkewConstraints.zero_skew(), TECH)
        assert decision.case == SAME_GROUP
        lo, hi = decision.delays[0]
        assert hi - lo == pytest.approx(0.0, abs=1e-6)
        assert decision.edges.total == pytest.approx(2000.0)

    def test_capacitance_accounts_for_wire(self):
        a = sink_subtree(0, 0.0, 0.0, 50.0, group=0)
        b = sink_subtree(1, 2000.0, 0.0, 70.0, group=0)
        decision = plan_merge(a, b, SkewConstraints.zero_skew(), TECH)
        expected = 50.0 + 70.0 + wire_capacitance(decision.edges.total, TECH)
        assert decision.cap == pytest.approx(expected)

    def test_bounded_merge_respects_bound(self):
        a = sink_subtree(0, 0.0, 0.0, 20.0, group=0)
        b = sink_subtree(1, 5000.0, 0.0, 200.0, group=0)
        bound = 2_000.0  # 2 ps in internal units
        decision = plan_merge(a, b, SkewConstraints(default_bound=bound), TECH)
        lo, hi = decision.delays[0]
        assert hi - lo <= bound + 1e-6

    def test_snaking_when_one_side_much_slower(self):
        slow = Subtree(0, Trr.from_point(Point(0, 0)), 500.0, delays={0: (50_000.0, 50_000.0)}, num_sinks=5)
        fast = sink_subtree(1, 300.0, 0.0, 30.0, group=0)
        decision = plan_merge(slow, fast, SkewConstraints.zero_skew(), TECH)
        assert decision.snaked
        lo, hi = decision.delays[0]
        assert hi - lo == pytest.approx(0.0, abs=1e-6)

    def test_locus_reachable_from_both_children(self):
        a = sink_subtree(0, 0.0, 0.0, 50.0, group=0)
        b = sink_subtree(1, 3000.0, 1000.0, 50.0, group=0)
        decision = plan_merge(a, b, SkewConstraints.zero_skew(), TECH)
        assert a.locus.distance_to(decision.locus) <= decision.edges.ea + 1e-6
        assert b.locus.distance_to(decision.locus) <= decision.edges.eb + 1e-6


class TestDisjointMerge:
    def test_never_snakes(self):
        slow = Subtree(0, Trr.from_point(Point(0, 0)), 500.0, delays={0: (80_000.0, 80_000.0)}, num_sinks=5)
        fast = sink_subtree(1, 300.0, 0.0, 30.0, group=1)
        decision = plan_merge(slow, fast, SkewConstraints.zero_skew(), TECH)
        assert decision.case == DISJOINT
        assert not decision.snaked
        assert decision.edges.total == pytest.approx(300.0)

    def test_merged_delays_keep_both_groups(self):
        a = sink_subtree(0, 0.0, 0.0, 40.0, group=0)
        b = sink_subtree(1, 1000.0, 0.0, 40.0, group=1)
        decision = plan_merge(a, b, SkewConstraints.zero_skew(), TECH)
        assert set(decision.delays) == {0, 1}
        # Each group's spread is still zero: a common wire shifts it rigidly.
        for lo, hi in decision.delays.values():
            assert hi - lo == pytest.approx(0.0, abs=1e-9)

    def test_wire_cost_equals_distance(self):
        a = sink_subtree(0, 0.0, 0.0, 40.0, group=0)
        b = sink_subtree(1, 1234.0, 567.0, 40.0, group=1)
        decision = plan_merge(a, b, SkewConstraints.zero_skew(), TECH)
        assert decision.wirelength == pytest.approx(1234.0 + 567.0)


class TestSharedGroupMerge:
    def make_shared_pair(self, offset_b):
        """Two subtrees both containing groups 0 and 1, group offsets differing."""
        a = Subtree(
            0,
            Trr.from_point(Point(0.0, 0.0)),
            80.0,
            delays={0: (1_000.0, 1_000.0), 1: (1_000.0, 1_000.0)},
            num_sinks=2,
        )
        b = Subtree(
            1,
            Trr.from_point(Point(2000.0, 0.0)),
            80.0,
            delays={0: (2_000.0, 2_000.0), 1: (2_000.0 + offset_b, 2_000.0 + offset_b)},
            num_sinks=2,
        )
        return a, b

    def test_compatible_offsets_satisfy_all_groups(self):
        a, b = self.make_shared_pair(offset_b=0.0)
        decision = plan_merge(a, b, SkewConstraints(default_bound=500.0), TECH)
        assert decision.case == SHARED
        assert decision.violation == 0.0
        for lo, hi in decision.delays.values():
            assert hi - lo <= 500.0 + 1e-6

    def test_incompatible_offsets_report_violation(self):
        # Group 1 is 3 ns later than group 0 in subtree b only: no single
        # merge point can satisfy both groups with a tight bound.
        a, b = self.make_shared_pair(offset_b=3_000.0)
        decision = plan_merge(a, b, SkewConstraints(default_bound=100.0), TECH)
        assert decision.violation > 0.0

    def test_violation_is_half_the_gap(self):
        a, b = self.make_shared_pair(offset_b=3_000.0)
        decision = plan_merge(a, b, SkewConstraints(default_bound=100.0), TECH)
        # Feasible intervals are [900, 1100] (group 0) and [3900, 4100]
        # shifted... the gap between the two groups' requirements is
        # 3000 - 2*bound; the best compromise violates each by half of that.
        assert decision.violation == pytest.approx((3_000.0 - 2 * 100.0) / 2.0)
