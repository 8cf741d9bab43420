"""Tests for lazy split resolution (repro.core.lazy_sdr, merge_batch.resolve_split).

The per-sample scalar corridor scan that production used before the batched
:func:`~repro.core.merge_batch.resolve_split` became the only one is kept
here, verbatim, as the oracle the property test compares against.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lazy_sdr import PendingSplit, make_pending, resolve_pending
from repro.core.merge_batch import resolve_split
from repro.core.subtree import Subtree
from repro.cts.tree import ClockTree
from repro.delay.technology import Technology
from repro.delay.wire import wire_delay
from repro.geometry.point import Point
from repro.geometry.trr import Trr

TECH = Technology.r_benchmark()


def _delay_deviation(pending: PendingSplit, split: float, tech: Technology) -> float:
    """Largest delay shift (either side) of ``split`` relative to the balanced split."""
    balance = pending.balance_split
    shift_a = abs(
        wire_delay(split, pending.cap_a, tech)
        - wire_delay(balance, pending.cap_a, tech)
    )
    shift_b = abs(
        wire_delay(pending.distance - split, pending.cap_b, tech)
        - wire_delay(pending.distance - balance, pending.cap_b, tech)
    )
    return max(shift_a, shift_b)


def resolution_for_target(
    pending: PendingSplit,
    target: Trr,
    tech: Technology,
    max_deviation: float = float("inf"),
    samples: int = 129,
) -> float:
    """Scalar oracle: the split bringing the pending locus closest to ``target``.

    Only splits whose delay shift relative to the balanced split stays within
    ``max_deviation`` are considered; the balanced split always qualifies.
    """
    if pending.distance <= 0.0:
        return 0.0
    best_split = pending.balance_split
    best_key = (
        round(pending.locus_at(best_split).distance_to(target), 6),
        0.0,
    )
    for index in range(samples):
        split = pending.distance * index / (samples - 1)
        if _delay_deviation(pending, split, tech) > max_deviation:
            continue
        distance = pending.locus_at(split).distance_to(target)
        key = (round(distance, 6), abs(split - pending.balance_split))
        if key < best_key:
            best_key = key
            best_split = split
    return best_split


def _row(trr):
    return (trr.ulo, trr.uhi, trr.vlo, trr.vhi)


def production_split(pending, target, max_deviation=float("inf")):
    """The split production picks: the batched scan on the pending's fields."""
    return resolve_split(
        _row(pending.locus_a),
        _row(pending.locus_b),
        pending.distance,
        pending.cap_a,
        pending.cap_b,
        pending.balance_split,
        _row(target),
        TECH.unit_resistance,
        TECH.unit_capacitance,
        max_deviation,
    )


def build_pending_pair(distance=2000.0):
    """Two single-sink subtrees from different groups plus their clock tree."""
    tree = ClockTree(technology=TECH)
    sink_a = tree.add_sink(Point(0.0, 0.0), 40.0, group=0)
    sink_b = tree.add_sink(Point(distance, 0.0), 40.0, group=1)
    sub_a = Subtree.for_sink(sink_a, Trr.from_point(Point(0.0, 0.0)), 40.0, group=0)
    sub_b = Subtree.for_sink(sink_b, Trr.from_point(Point(distance, 0.0)), 40.0, group=1)
    merge = tree.add_internal([sink_a, sink_b], [distance / 2.0, distance / 2.0])
    merged = Subtree(
        node_id=merge,
        locus=Trr.from_point(Point(distance / 2.0, 0.0)),
        cap=80.0 + 0.02 * distance,
        delays={
            0: (wire_delay(distance / 2.0, 40.0, TECH),) * 2,
            1: (wire_delay(distance / 2.0, 40.0, TECH),) * 2,
        },
        num_sinks=2,
    )
    merged.pending = make_pending(sub_a, sub_b, distance, balance_split=distance / 2.0)
    return tree, merged, sink_a, sink_b


class TestPendingSplit:
    def test_locus_at_split_touches_both_sides(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        near_a = pending.locus_at(0.0)
        near_b = pending.locus_at(pending.distance)
        assert pending.locus_a.distance_to(near_a) == pytest.approx(0.0, abs=1e-6)
        assert pending.locus_b.distance_to(near_b) == pytest.approx(0.0, abs=1e-6)

    def test_delays_at_split_shift_sides_oppositely(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        near_a = pending.delays_at(0.0, TECH)
        near_b = pending.delays_at(pending.distance, TECH)
        # With the merge point on top of side a, side a sees no wire delay.
        assert near_a[0][0] == pytest.approx(0.0)
        assert near_a[1][0] > 0.0
        assert near_b[1][0] == pytest.approx(0.0)
        assert near_b[0][0] > 0.0

    def test_intra_group_spread_is_split_independent(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        for split in (0.0, 500.0, 1333.0, 2000.0):
            for lo, hi in pending.delays_at(split, TECH).values():
                assert hi - lo == pytest.approx(0.0, abs=1e-9)


def both_splits(pending, target, max_deviation=float("inf")):
    """The production split and the oracle's, which must agree."""
    oracle = resolution_for_target(pending, target, TECH, max_deviation)
    split = production_split(pending, target, max_deviation)
    assert split == oracle
    return split


class TestResolutionForTarget:
    def test_moves_towards_target_with_large_budget(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        target = Trr.from_point(Point(0.0, 5000.0))  # above side a
        split = both_splits(pending, target, max_deviation=float("inf"))
        assert split < pending.balance_split

    def test_zero_budget_keeps_balance(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        target = Trr.from_point(Point(0.0, 5000.0))
        split = both_splits(pending, target, max_deviation=0.0)
        assert split == pytest.approx(pending.balance_split)

    def test_budget_limits_delay_shift(self):
        _, merged, _, _ = build_pending_pair()
        pending = merged.pending
        target = Trr.from_point(Point(0.0, 5000.0))
        budget = 50.0
        split = both_splits(pending, target, max_deviation=budget)
        shift = abs(
            wire_delay(split, pending.cap_a, TECH)
            - wire_delay(pending.balance_split, pending.cap_a, TECH)
        )
        assert shift <= budget + 1e-6

    def test_zero_distance_pending(self):
        _, merged, _, _ = build_pending_pair(distance=0.0)
        assert both_splits(merged.pending, Trr.from_point(Point(9, 9))) == 0.0


coords = st.floats(min_value=-20_000.0, max_value=20_000.0, allow_nan=False)
widths = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3_000.0))


@st.composite
def regions(draw):
    """A point locus (both widths 0) or a box locus."""
    u, v = draw(coords), draw(coords)
    return Trr(u, u + draw(widths), v, v + draw(widths))


@settings(max_examples=400, deadline=None)
@given(
    locus_a=regions(),
    locus_b=st.one_of(st.none(), regions()),
    target=regions(),
    balance_fraction=st.floats(min_value=0.0, max_value=1.0),
    cap_a=st.floats(min_value=0.0, max_value=500.0),
    cap_b=st.floats(min_value=0.0, max_value=500.0),
    budget=st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=50_000.0),
        st.just(float("inf")),
    ),
)
def test_resolve_split_matches_scalar_oracle(
    locus_a, locus_b, target, balance_fraction, cap_a, cap_b, budget
):
    """The batched scan returns exactly the scalar oracle's float split.

    ``locus_b=None`` reuses ``locus_a``: a zero-length corridor.
    """
    if locus_b is None:
        locus_b = locus_a
    distance = locus_a.distance_to(locus_b)
    pending = PendingSplit(
        child_a_id=0,
        child_b_id=1,
        locus_a=locus_a,
        locus_b=locus_b,
        distance=distance,
        cap_a=cap_a,
        cap_b=cap_b,
        delays_a={0: (0.0, 0.0)},
        delays_b={1: (0.0, 0.0)},
        balance_split=balance_fraction * distance,
    )
    expected = resolution_for_target(pending, target, TECH, max_deviation=budget)
    assert production_split(pending, target, budget) == expected


class TestResolvePending:
    def test_resolution_updates_tree_and_subtree(self):
        tree, merged, sink_a, sink_b = build_pending_pair()
        loci = {merged.node_id: merged.locus}
        target = Trr.from_point(Point(0.0, 3000.0))
        resolve_pending(merged, target, TECH, tree, loci, max_deviation=float("inf"))
        assert merged.pending is None
        # Edge lengths still sum to the corridor length.
        total = tree.node(sink_a).edge_length + tree.node(sink_b).edge_length
        assert total == pytest.approx(2000.0)
        # The recorded locus moved towards the target side.
        assert loci[merged.node_id].distance_to(target) < Trr.from_point(Point(1000.0, 0.0)).distance_to(target)

    def test_resolving_without_pending_is_a_noop(self):
        tree, merged, sink_a, _ = build_pending_pair()
        merged.pending = None
        before = tree.node(sink_a).edge_length
        resolve_pending(merged, Trr.from_point(Point(0, 0)), TECH, tree, {})
        assert tree.node(sink_a).edge_length == before

    def test_none_target_uses_balance_split(self):
        tree, merged, sink_a, sink_b = build_pending_pair()
        loci = {}
        resolve_pending(merged, None, TECH, tree, loci)
        assert tree.node(sink_a).edge_length == pytest.approx(1000.0)
        assert tree.node(sink_b).edge_length == pytest.approx(1000.0)
