"""Property-based tests for the balancing closed forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delay.technology import Technology
from repro.delay.wire import wire_delay
from tests.reference_merge import balance_split, detour_free_offset_range, solve_merge

TECH = Technology.r_benchmark()

distances = st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False)
caps = st.floats(min_value=1.0, max_value=2_000.0, allow_nan=False)
delays = st.floats(min_value=0.0, max_value=500_000.0, allow_nan=False)
offsets = st.floats(min_value=-500_000.0, max_value=500_000.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(distances, delays, delays, caps, caps)
def test_balance_split_equalises_delays(d, ta, tb, ca, cb):
    edges = balance_split(d, ta, tb, ca, cb, TECH)
    delay_a = ta + wire_delay(edges.ea, ca, TECH)
    delay_b = tb + wire_delay(edges.eb, cb, TECH)
    assert delay_a == pytest.approx(delay_b, rel=1e-6, abs=1e-3)


@settings(max_examples=200, deadline=None)
@given(distances, delays, delays, caps, caps)
def test_balance_split_never_wastes_wire_without_need(d, ta, tb, ca, cb):
    edges = balance_split(d, ta, tb, ca, cb, TECH)
    lo, hi = detour_free_offset_range(d, ca, cb, TECH)
    target = tb - ta
    if lo <= target <= hi:
        assert edges.total == pytest.approx(d, rel=1e-9, abs=1e-6)
    elif min(abs(target - lo), abs(target - hi)) > 1e-6:
        assert edges.snaked or d == 0.0


@settings(max_examples=200, deadline=None)
@given(distances, caps, caps, offsets)
def test_solve_merge_edges_are_valid(d, ca, cb, target):
    edges = solve_merge(d, ca, cb, TECH, target)
    assert edges.ea >= 0.0
    assert edges.eb >= 0.0
    assert edges.total >= d - 1e-6


@settings(max_examples=200, deadline=None)
@given(distances, caps, caps, offsets)
def test_solve_merge_without_snaking_keeps_total_at_distance(d, ca, cb, target):
    edges = solve_merge(d, ca, cb, TECH, target, allow_snaking=False)
    assert edges.total == pytest.approx(d, rel=1e-9, abs=1e-6)
    assert not edges.snaked


@settings(max_examples=200, deadline=None)
@given(distances, caps, caps, offsets)
def test_solve_merge_realises_reachable_targets_exactly(d, ca, cb, target):
    lo, hi = detour_free_offset_range(d, ca, cb, TECH)
    edges = solve_merge(d, ca, cb, TECH, target)
    achieved = wire_delay(edges.ea, ca, TECH) - wire_delay(edges.eb, cb, TECH)
    if lo <= target <= hi:
        assert achieved == pytest.approx(target, rel=1e-6, abs=1e-3)
    else:
        # Snaked merges overshoot only on the requested side.
        assert achieved == pytest.approx(target, rel=1e-6, abs=1e-3)
