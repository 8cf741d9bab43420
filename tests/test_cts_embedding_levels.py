"""The level-wise embedding against the preorder walk it replaced.

Routes and ECO re-merges embed through
:func:`repro.cts.embedding.embed_levels`, one depth level at a time over the
grown arena.  ``tests/reference_dme.py`` keeps the walk over node objects,
:func:`~tests.reference_dme.embed_tree`.  Every embedding a route or a
blockage ECO delta runs is captured and replayed through both: the
locations, the edge lengths and the detour total must agree by
``float.hex``, and two fresh obstacle sets must end with the same detour
memo.  Of several errors, the level-wise pass raises the one the walk meets
first.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ast_dme as ast_dme
from repro.api.registry import get_router
from repro.api.spec import InstanceSpec
from repro.core.ast_dme import AstDmeConfig
from repro.cts.embedding import embed_levels
from repro.cts.tree import ClockTree
from repro.eco import EcoConfig, eco_reroute
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from tests.reference_dme import embed_tree
from tests.test_construction_golden import blockage_delta


@contextmanager
def capturing():
    """Collect every ``embed_levels`` call the construction step makes: its
    inputs and what it returned."""
    calls = []

    def spy(arena, loci, obstacles=None):
        result = embed_levels(arena, loci, obstacles)
        calls.append((arena, loci, obstacles, result))
        return result

    with mock.patch.object(ast_dme, "embed_levels", spy):
        yield calls


def hexes(column: np.ndarray):
    return [value.hex() for value in column.tolist()]


def assert_matches_the_walk(arena, loci, obstacles, result) -> None:
    """``result`` (and a replay on a fresh obstacle set) equals the walk's."""
    walk_set = ObstacleSet(obstacles.rects)
    level_set = ObstacleSet(obstacles.rects)
    tree = arena.to_clock_tree()
    unplaced = np.flatnonzero(~arena.has_location).tolist()
    detour = embed_tree(tree, {i: Trr(*loci[i].tolist()) for i in unplaced}, obstacles=walk_set)
    expected = tree.as_arena()
    for got, got_detour in (result, embed_levels(arena, loci, level_set)):
        assert got.has_location.all()
        for name in ("xs", "ys", "edge_lengths"):
            assert hexes(getattr(got, name)) == hexes(getattr(expected, name)), name
        assert got_detour.hex() == detour.hex()
    assert level_set.detours_computed == walk_set.detours_computed
    assert level_set._memo.distances == walk_set._memo.distances


def blocked_instance(num_sinks: int, seed: int, groups: int, blockages: int):
    return InstanceSpec.from_family(
        "blocked", num_sinks=num_sinks, seed=seed, num_blockages=blockages, groups=groups
    ).build()


@settings(max_examples=25, deadline=None)
@given(
    num_sinks=st.integers(min_value=2, max_value=250),
    seed=st.integers(min_value=0, max_value=10_000),
    groups=st.integers(min_value=1, max_value=4),
    blockages=st.integers(min_value=1, max_value=12),
    router=st.sampled_from(["ast-dme", "greedy-dme", "ext-bst", "h-tree"]),
)
def test_blocked_routes_embed_like_the_walk(num_sinks, seed, groups, blockages, router):
    instance = blocked_instance(num_sinks, seed, min(groups, num_sinks), blockages)
    with capturing() as captured:
        get_router(router, {"skew_bound_ps": 10.0}).route(instance)
    assert captured
    for call in captured:
        assert_matches_the_walk(*call)


@settings(max_examples=12, deadline=None)
@given(
    num_sinks=st.integers(min_value=30, max_value=250),
    seed=st.integers(min_value=0, max_value=10_000),
    groups=st.integers(min_value=1, max_value=4),
    blocked=st.booleans(),
)
def test_blockage_eco_deltas_embed_like_the_walk(num_sinks, seed, groups, blocked):
    if blocked:
        instance = blocked_instance(num_sinks, seed, groups, 4)
    else:
        instance = InstanceSpec.from_random(num_sinks, seed=seed, groups=groups).build()
    config = AstDmeConfig(skew_bound_ps=10.0)
    current = ast_dme.AstDme(config).route(instance)
    rng = random.Random(seed)
    for _ in range(2):
        delta = blockage_delta(current, rng)
        with capturing() as captured:
            current = eco_reroute(current, delta, EcoConfig(router=config)).routing
        (call,) = captured
        assert_matches_the_walk(*call)


def test_the_error_the_walk_meets_first_is_raised():
    """The level-wise pass meets an overbooked edge one level up first (into
    node 1, below node 4); the walk meets the deeper one into node 0 first,
    since node 2 precedes node 4 in preorder, and that error is raised."""
    tree = ClockTree()
    far = tree.add_sink(Point(0.0, 0.0), 1.0)
    near = tree.add_sink(Point(9000.0, 0.0), 1.0)
    deep = tree.add_internal([far], [1.0])
    left = tree.add_internal([deep], [0.0])
    right = tree.add_internal([near], [1.0])
    top = tree.add_internal([left, right], [0.0, 0.0])
    tree.add_source(Point(5000.0, 0.0), top, 0.0)
    arena = tree.as_arena()
    loci = np.zeros((arena.num_nodes, 4))
    for node in (deep, left, right, top):
        locus = Trr.from_point(Point(5000.0, 0.0))
        loci[node] = (locus.ulo, locus.uhi, locus.vlo, locus.vhi)
    with pytest.raises(ValueError) as walked:
        embed_tree(tree, {i: Trr(*loci[i]) for i in (deep, left, right, top)})
    with pytest.raises(ValueError) as levelled:
        embed_levels(arena, loci)
    assert str(levelled.value) == str(walked.value)
    assert str(walked.value).startswith("edge to node %d " % far)


def test_obstacle_free_routes_keep_their_detour_at_zero():
    instance = InstanceSpec.from_random(120, seed=2, groups=3).build()
    with capturing() as captured:
        result = get_router("ast-dme", {"skew_bound_ps": 10.0}).route(instance)
    (call,) = captured
    assert call[2] is None and call[3][1] == 0.0
    assert result.stats.obstacle_detour == 0.0
    assert result.tree.as_arena().has_location.all()
