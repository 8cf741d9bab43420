"""Tests for repro.delay.elmore on hand-built clock trees."""

import pytest

from repro.cts.tree import ClockTree
from repro.delay.elmore import elmore_delays, sink_delays, subtree_capacitances
from repro.delay.technology import Technology
from repro.geometry.point import Point
from tests import reference_elmore as reference


def build_two_sink_tree(tech=None, length_a=1000.0, length_b=1000.0, cap_a=50.0, cap_b=50.0):
    """source -> internal -> {sink a, sink b} with configurable edges/loads."""
    tree = ClockTree(technology=tech or Technology.r_benchmark())
    sink_a = tree.add_sink(Point(0.0, 0.0), cap_a, group=0)
    sink_b = tree.add_sink(Point(2000.0, 0.0), cap_b, group=0)
    internal = tree.add_internal([sink_a, sink_b], [length_a, length_b], location=Point(1000.0, 0.0))
    tree.add_source(Point(1000.0, 500.0), internal, 500.0)
    return tree, sink_a, sink_b, internal


class TestSubtreeCapacitances:
    def test_leaf_capacitance_is_sink_cap(self):
        tree, sink_a, sink_b, _ = build_two_sink_tree()
        caps = subtree_capacitances(tree)
        assert caps[sink_a] == pytest.approx(50.0)
        assert caps[sink_b] == pytest.approx(50.0)

    def test_internal_capacitance_includes_wire(self):
        tree, _, _, internal = build_two_sink_tree()
        caps = subtree_capacitances(tree)
        # 2 sinks of 50 fF plus 2 x 1000 um of wire at 0.02 fF/um.
        assert caps[internal] == pytest.approx(100.0 + 40.0)

    def test_root_capacitance_is_total(self):
        tree, _, _, _ = build_two_sink_tree()
        caps = subtree_capacitances(tree)
        root = tree.root().node_id
        assert caps[root] == pytest.approx(100.0 + 40.0 + 0.02 * 500.0)


class TestElmoreDelays:
    def test_symmetric_tree_has_equal_sink_delays(self):
        tree, sink_a, sink_b, _ = build_two_sink_tree()
        delays = sink_delays(tree)
        assert delays[sink_a] == pytest.approx(delays[sink_b])

    def test_hand_computed_delay(self):
        tree, sink_a, _, internal = build_two_sink_tree()
        delays = elmore_delays(tree)
        # Source edge: 0.003*500*(0.02*500/2 + 140) = 1.5 * 145 = 217.5
        # Sink edge:   0.003*1000*(0.02*1000/2 + 50) = 3 * 60 = 180
        assert delays[internal] == pytest.approx(217.5)
        assert delays[sink_a] == pytest.approx(217.5 + 180.0)

    def test_asymmetric_lengths_create_skew(self):
        tree, sink_a, sink_b, _ = build_two_sink_tree(length_a=500.0, length_b=2000.0)
        delays = sink_delays(tree)
        assert delays[sink_a] < delays[sink_b]

    def test_heavier_load_is_slower_on_equal_wire(self):
        tree, sink_a, sink_b, _ = build_two_sink_tree(cap_a=10.0, cap_b=200.0)
        delays = sink_delays(tree)
        assert delays[sink_a] < delays[sink_b]

    def test_source_resistance_shifts_all_delays_equally(self):
        plain = Technology.r_benchmark()
        driven = Technology(
            unit_resistance=plain.unit_resistance,
            unit_capacitance=plain.unit_capacitance,
            source_resistance=100.0,
        )
        tree_plain, a1, b1, _ = build_two_sink_tree(plain, length_a=400.0, length_b=1500.0)
        tree_driven, a2, b2, _ = build_two_sink_tree(driven, length_a=400.0, length_b=1500.0)
        d_plain = sink_delays(tree_plain)
        d_driven = sink_delays(tree_driven)
        shift_a = d_driven[a2] - d_plain[a1]
        shift_b = d_driven[b2] - d_plain[b1]
        assert shift_a == pytest.approx(shift_b)
        assert shift_a > 0.0

    def test_longer_wire_never_reduces_delay(self):
        short, a1, _, _ = build_two_sink_tree(length_a=500.0)
        long, a2, _, _ = build_two_sink_tree(length_a=1500.0)
        assert sink_delays(short)[a1] < sink_delays(long)[a2]


class TestEngines:
    """The arena engine equals the object walk of tests/reference_elmore.py
    bit for bit (tests/test_elmore_oracle.py sweeps router families)."""

    def routed(self, n=300, groups=4):
        from repro.api.runner import run
        from repro.api.spec import InstanceSpec, RunSpec

        result = run(
            RunSpec(instance=InstanceSpec.from_random(n, seed=2, groups=groups)),
            keep_tree=True,
        )
        assert result.error is None
        return result.routing.tree

    def test_capacitances_identical_across_engines(self):
        tree = self.routed()
        assert subtree_capacitances(tree) == reference.subtree_capacitances(tree)

    def test_delays_identical_across_engines(self):
        tree = self.routed()
        assert elmore_delays(tree) == reference.elmore_delays(tree)

    def test_sink_delays_identical_across_engines(self):
        tree = self.routed()
        assert sink_delays(tree) == reference.sink_delays(tree)

    def test_engines_identical_on_hand_built_tree(self):
        tree, _, _, _ = build_two_sink_tree()
        assert elmore_delays(tree) == reference.elmore_delays(tree)

    def test_small_routed_tree_matches_oracle(self):
        tree = self.routed(n=100)
        assert elmore_delays(tree) == reference.elmore_delays(tree)

    def test_no_root_raises_same_error_for_both_engines(self):
        tree = ClockTree()
        tree.add_sink(Point(0.0, 0.0), 1.0)
        messages = []
        for evaluate in (elmore_delays, reference.elmore_delays):
            with pytest.raises(ValueError) as excinfo:
                evaluate(tree)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_arena_restricts_to_reachable_nodes(self):
        tree, _, _, _ = build_two_sink_tree()
        orphan = tree.add_sink(Point(5.0, 5.0), 1.0)  # never attached
        delays = elmore_delays(tree)
        assert orphan not in delays
        assert delays == reference.elmore_delays(tree)
