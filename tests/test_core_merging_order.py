"""Tests for merging-order policies and nearest-neighbour pairing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merging_order import MergeOrderPolicy
from repro.core.subtree import Subtree
from repro.cts.nearest_neighbor import select_merge_pairs
from repro.geometry.point import Point
from repro.geometry.trr import Trr, loci_to_array


def loci_from_points(points):
    return [Trr.from_point(Point(x, y)) for x, y in points]


class TestSelectMergePairs:
    def test_fewer_than_two_loci(self):
        assert len(select_merge_pairs([])) == 0
        assert len(select_merge_pairs(loci_from_points([(0, 0)]))) == 0

    def test_single_pair_picks_global_nearest(self):
        loci = loci_from_points([(0, 0), (100, 0), (101, 0), (500, 500)])
        pairing = select_merge_pairs(loci, max_pairs=1)
        assert pairing.pairs == [(1, 2)]
        assert pairing.costs[0] == pytest.approx(1.0)

    def test_pairs_are_disjoint(self):
        loci = loci_from_points([(i * 10.0, 0.0) for i in range(10)])
        pairing = select_merge_pairs(loci, max_pairs=5)
        used = [i for pair in pairing.pairs for i in pair]
        assert len(used) == len(set(used))

    def test_max_pairs_is_respected(self):
        loci = loci_from_points([(i * 10.0, 0.0) for i in range(12)])
        assert len(select_merge_pairs(loci, max_pairs=3)) == 3

    def test_costs_are_sorted(self):
        loci = loci_from_points([(0, 0), (1, 0), (50, 0), (54, 0), (200, 0), (210, 0)])
        pairing = select_merge_pairs(loci, max_pairs=3)
        assert pairing.costs == sorted(pairing.costs)

    def test_bias_changes_selection(self):
        # Without bias the nearest pair is (0, 1); a strong negative bias on
        # indices 2 and 3 makes that pair win instead.
        loci = loci_from_points([(0, 0), (10, 0), (100, 0), (115, 0)])
        plain = select_merge_pairs(loci, max_pairs=1)
        biased = select_merge_pairs(loci, max_pairs=1, cost_bias=[0.0, 0.0, -50.0, -50.0])
        assert plain.pairs == [(0, 1)]
        assert biased.pairs == [(2, 3)]

    def test_bias_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            select_merge_pairs(loci_from_points([(0, 0), (1, 1)]), cost_bias=[1.0])

    def test_kdtree_path_matches_expectations_on_larger_input(self):
        # More loci than the exhaustive threshold: the KD-tree path is used.
        points = [(float(i * 7 % 101), float(i * 13 % 89)) for i in range(80)]
        pairing = select_merge_pairs(loci_from_points(points), max_pairs=10)
        assert len(pairing) == 10
        used = [i for pair in pairing.pairs for i in pair]
        assert len(used) == len(set(used))


def scalar_delay_bias(policy, subtrees):
    """Oracle: the per-subtree delay-target bias, one Python float at a time.

    The original scalar form of ``MergeOrderPolicy._delay_bias_arrays``; the
    array form must reproduce it bit for bit.
    """
    max_delays = [s.max_delay for s in subtrees]
    largest = max(max_delays)
    if largest <= 0.0:
        return [0.0] * len(subtrees)
    spans = [max(s.locus.width_u, s.locus.width_v) for s in subtrees]
    xs = [s.locus.center().x for s in subtrees]
    ys = [s.locus.center().y for s in subtrees]
    extent = max(max(xs) - min(xs), max(ys) - min(ys), max(spans), 1.0)
    scale = policy.delay_target_weight * extent / max(len(subtrees), 1)
    return [-scale * (d / largest) for d in max_delays]


def pairs_for_pass(policy, subtrees):
    """One pass of a fresh selector over ``subtrees``."""
    return policy.make_selector().pairs_for_pass_arrays(
        loci_to_array([s.locus for s in subtrees]),
        [s.node_id for s in subtrees],
        np.array([s.max_delay for s in subtrees]),
    )


class TestMergeOrderPolicy:
    def make_subtrees(self, coords, delays=None):
        subtrees = []
        for index, (x, y) in enumerate(coords):
            sub = Subtree.for_sink(index, Trr.from_point(Point(x, y)), 20.0, group=0)
            if delays is not None:
                sub.delays = {0: (delays[index], delays[index])}
            subtrees.append(sub)
        return subtrees

    def test_single_merge_mode_returns_one_pair(self):
        policy = MergeOrderPolicy(multi_merge=False)
        subtrees = self.make_subtrees([(0, 0), (5, 0), (100, 0), (104, 0)])
        assert len(pairs_for_pass(policy, subtrees)) == 1

    def test_multi_merge_returns_several_pairs(self):
        policy = MergeOrderPolicy(multi_merge=True, merge_fraction=1.0)
        subtrees = self.make_subtrees([(i * 10.0, 0.0) for i in range(8)])
        assert len(pairs_for_pass(policy, subtrees)) == 4

    def test_merge_fraction_limits_pairs(self):
        policy = MergeOrderPolicy(multi_merge=True, merge_fraction=0.5)
        subtrees = self.make_subtrees([(i * 10.0, 0.0) for i in range(8)])
        assert len(pairs_for_pass(policy, subtrees)) == 2

    def test_empty_and_singleton_inputs(self):
        policy = MergeOrderPolicy()
        assert pairs_for_pass(policy, []) == []
        assert pairs_for_pass(policy, self.make_subtrees([(0, 0)])) == []

    def test_delay_target_bias_prefers_slow_subtrees(self):
        # Two tied-distance pairs; the delay-target enhancement should pick
        # the pair whose subtrees are already slow.
        coords = [(0.0, 0.0), (10.0, 0.0), (1000.0, 0.0), (1010.0, 0.0)]
        delays = [0.0, 0.0, 50_000.0, 50_000.0]
        subtrees = self.make_subtrees(coords, delays)
        plain = MergeOrderPolicy(multi_merge=False, delay_target_weight=0.0)
        biased = MergeOrderPolicy(multi_merge=False, delay_target_weight=5.0)
        assert pairs_for_pass(plain, subtrees)[0] == (0, 1)
        assert pairs_for_pass(biased, subtrees)[0] == (2, 3)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=-1e5, max_value=1e5),
                st.floats(min_value=-1e5, max_value=1e5),
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5e3)),
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5e3)),
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
            ),
            min_size=1,
            max_size=40,
        ),
        weight=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_delay_bias_arrays_match_scalar_oracle(self, rows, weight):
        subtrees = [
            Subtree(
                node_id=index,
                locus=Trr(u, u + wu, v, v + wv),
                cap=20.0,
                delays={0: (0.0, delay)},
            )
            for index, (u, v, wu, wv, delay) in enumerate(rows)
        ]
        policy = MergeOrderPolicy(delay_target_weight=weight)
        bias = policy._delay_bias_arrays(
            loci_to_array([s.locus for s in subtrees]),
            np.array([s.max_delay for s in subtrees]),
        )
        assert bias.tolist() == scalar_delay_bias(policy, subtrees)

    def test_invalid_configuration_raises(self):
        with pytest.raises(ValueError):
            MergeOrderPolicy(merge_fraction=0.0)
        with pytest.raises(ValueError):
            MergeOrderPolicy(delay_target_weight=-1.0)
        with pytest.raises(ValueError):
            MergeOrderPolicy(neighbor_candidates=0)
