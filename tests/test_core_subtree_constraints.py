"""Tests for repro.core.subtree and repro.core.group_constraints."""

import pytest

from repro.core.group_constraints import GroupAssociation, SkewConstraints
from repro.core.subtree import Subtree
from repro.geometry.point import Point
from repro.geometry.trr import Trr


class TestSubtree:
    def make(self):
        return Subtree(
            node_id=7,
            locus=Trr.from_point(Point(0.0, 0.0)),
            cap=120.0,
            delays={0: (100.0, 110.0), 1: (300.0, 300.0)},
            num_sinks=3,
        )

    def test_groups(self):
        assert self.make().groups == frozenset({0, 1})

    def test_shares_group_with(self):
        other = Subtree.for_sink(1, Trr.from_point(Point(1, 1)), 10.0, group=1)
        assert self.make().shares_group_with(other) == frozenset({1})

    def test_min_max_delay(self):
        sub = self.make()
        assert sub.max_delay == 300.0
        assert sub.min_delay == 100.0

    def test_spreads(self):
        sub = self.make()
        assert sub.group_spread(0) == pytest.approx(10.0)
        assert sub.group_spread(1) == 0.0
        assert sub.worst_spread() == pytest.approx(10.0)

    def test_shifted_delays_preserve_spread(self):
        shifted = self.make().shifted_delays(50.0)
        assert shifted[0] == (150.0, 160.0)
        assert shifted[1] == (350.0, 350.0)

    def test_for_sink(self):
        sub = Subtree.for_sink(3, Trr.from_point(Point(2, 2)), 40.0, group=5)
        assert sub.groups == frozenset({5})
        assert sub.delays[5] == (0.0, 0.0)
        assert sub.num_sinks == 1

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            Subtree(0, Trr.from_point(Point(0, 0)), 1.0, delays={0: (5.0, 1.0)})

    def test_invalid_cap_raises(self):
        with pytest.raises(ValueError):
            Subtree(0, Trr.from_point(Point(0, 0)), -1.0, delays={0: (0.0, 0.0)})


class TestSkewConstraints:
    def test_default_bound(self):
        constraints = SkewConstraints(default_bound=5.0)
        assert constraints.bound_for(0) == 5.0
        assert constraints.bound_for(99) == 5.0

    def test_per_group_override(self):
        constraints = SkewConstraints(default_bound=5.0, per_group={2: 50.0})
        assert constraints.bound_for(2) == 50.0
        assert constraints.bound_for(3) == 5.0

    def test_zero_skew_constructor(self):
        assert SkewConstraints.zero_skew().bound_for(0) == 0.0

    def test_bounded_ps_converts_units(self):
        assert SkewConstraints.bounded_ps(10.0).bound_for(0) == pytest.approx(10_000.0)

    def test_per_group_ps(self):
        constraints = SkewConstraints.per_group_ps({1: 5.0}, default_ps=2.0)
        assert constraints.bound_for(1) == pytest.approx(5_000.0)
        assert constraints.bound_for(0) == pytest.approx(2_000.0)

    def test_negative_bound_raises(self):
        with pytest.raises(ValueError):
            SkewConstraints(default_bound=-1.0)
        with pytest.raises(ValueError):
            SkewConstraints(per_group={0: -1.0})
        # NaN compares False against everything, so it must not slip through
        # as "not negative"; an unbounded group stays expressible.
        with pytest.raises(ValueError):
            SkewConstraints(default_bound=float("nan"))
        with pytest.raises(ValueError):
            SkewConstraints(per_group={0: 5.0, 1: float("nan")})
        with pytest.raises(ValueError):
            SkewConstraints.bounded_ps(float("nan"))
        assert SkewConstraints(per_group={0: float("inf")}).bound_for(0) == float("inf")


class TestGroupAssociation:
    def test_initially_unassociated(self):
        assoc = GroupAssociation([0, 1, 2])
        assert not assoc.associated(0, 1)
        assert len(assoc) == 3

    def test_associate_and_query(self):
        assoc = GroupAssociation([0, 1, 2])
        assert assoc.associate(0, 1)
        assert assoc.associated(0, 1)
        assert not assoc.associated(0, 2)

    def test_associate_is_idempotent(self):
        assoc = GroupAssociation([0, 1])
        assert assoc.associate(0, 1)
        assert not assoc.associate(1, 0)
        assert len(assoc.association_events) == 1

    def test_transitive_association(self):
        assoc = GroupAssociation([0, 1, 2, 3])
        assoc.associate(0, 1)
        assoc.associate(2, 3)
        assert not assoc.associated(0, 2)
        assoc.associate(1, 2)
        assert assoc.associated(0, 3)

    def test_classes(self):
        assoc = GroupAssociation([0, 1, 2, 3])
        assoc.associate(0, 1)
        assert assoc.classes() == [[0, 1], [2], [3]]

    def test_unknown_groups_are_registered_on_demand(self):
        assoc = GroupAssociation()
        assoc.associate(7, 9)
        assert assoc.associated(7, 9)
