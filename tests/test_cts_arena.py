"""Tests for the struct-of-arrays tree core (repro.cts.arena) and the merge
loop's bit-identity with the object reference loop.

Three layers:

* ``TreeArena`` unit tests: CSR children gathers, depth/height levels,
  reachability, cycle / non-contiguous-id rejection, snapshot caching, and
  a hypothesis oracle holding every cached or row-refreshed snapshot equal
  to a full rebuild;
* lossless round-trip: ``from_clock_tree`` -> ``to_clock_tree`` reproduces
  routed trees node for node, including obstacle-detoured trees whose edge
  lengths exceed the Manhattan distance (hypothesis-driven);
* loop equivalence: ``AstDme.route`` (the arena loop, ``merge_rows``) and
  the object reference loop in ``tests/reference_dme.py`` route
  bit-identical results across routers, group counts (up to 70), obstacle
  scenarios and neighbour strategies, and merge random multi-group stub
  rows -- what ECO feeds the loop -- identically.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import RouterSpec, get_router
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.core.ast_dme import AstDme, AstDmeConfig, MergeStats, SubtreeRows
from repro.core.group_constraints import GroupAssociation, SkewConstraints
from repro.core.subtree import Subtree
from repro.cts.arena import INTERNAL_KIND, SINK_KIND, SOURCE_KIND, TreeArena
from repro.cts.tree import ClockTree
from repro.delay.buffer import default_library
from repro.delay.technology import Technology
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from repro.opt import BUFFERED_PASSES, OptConfig
from tests.reference_dme import merge_subtrees, route_reference


def small_tree() -> ClockTree:
    """Two sinks -> one internal -> source, fully embedded."""
    tree = ClockTree()
    a = tree.add_sink(Point(0.0, 0.0), sink_cap=1.0, group=0)
    b = tree.add_sink(Point(10.0, 0.0), sink_cap=2.0, group=1)
    m = tree.add_internal([a, b], [5.0, 5.0], location=Point(5.0, 0.0))
    tree.add_source(Point(5.0, 8.0), child=m, edge_length=8.0)
    return tree


def routed_tree(num_sinks: int, seed: int, groups: int = 1, family: str = "random"):
    if family == "blocked":
        spec = InstanceSpec.from_family(
            "blocked", num_sinks=num_sinks, seed=seed, num_blockages=5, groups=groups
        )
    else:
        spec = InstanceSpec.from_random(num_sinks, seed=seed, groups=groups)
    result = run(RunSpec(instance=spec), keep_tree=True)
    assert result.error is None
    return result.routing.tree


def assert_trees_identical(got: ClockTree, expected: ClockTree) -> None:
    assert len(got) == len(expected)
    assert got.root_id == expected.root_id
    for node in expected.nodes():
        other = got.node(node.node_id)
        assert other.kind == node.kind
        assert other.parent == node.parent
        assert other.children == node.children
        assert other.edge_length == node.edge_length
        assert other.sink_cap == node.sink_cap
        assert other.group == node.group
        assert other.name == node.name
        if node.location is None:
            assert other.location is None
        else:
            assert other.location.x == node.location.x
            assert other.location.y == node.location.y


# ----------------------------------------------------------------------
# TreeArena unit behaviour
# ----------------------------------------------------------------------
class TestTreeArena:
    def test_layout_of_a_small_tree(self):
        arena = TreeArena.from_clock_tree(small_tree())
        assert arena.num_nodes == 4
        assert list(arena.kinds) == [SINK_KIND, SINK_KIND, INTERNAL_KIND, SOURCE_KIND]
        assert arena.root == 3
        assert list(arena.parents) == [2, 2, 3, -1]
        assert list(arena.child_counts()) == [0, 0, 2, 1]
        assert arena.sink_caps[0] == 1.0 and arena.sink_caps[1] == 2.0
        assert list(arena.groups[:2]) == [0, 1]

    def test_children_of_preserves_attach_order(self):
        arena = TreeArena.from_clock_tree(small_tree())
        children, parent_index = arena.children_of(np.array([3, 2]))
        assert children.tolist() == [2, 0, 1]
        assert parent_index.tolist() == [0, 1, 1]

    def test_children_of_empty_frontier(self):
        arena = TreeArena.from_clock_tree(small_tree())
        children, parent_index = arena.children_of(np.array([0, 1]))
        assert children.size == 0 and parent_index.size == 0

    def test_depth_levels_root_first(self):
        arena = TreeArena.from_clock_tree(small_tree())
        levels = [level.tolist() for level in arena.depth_levels()]
        assert levels == [[3], [2], [0, 1]]

    def test_height_levels_leaves_first(self):
        arena = TreeArena.from_clock_tree(small_tree())
        levels = [sorted(level.tolist()) for level in arena.height_levels()]
        assert levels == [[0, 1], [2], [3]]

    def test_reachable_mask_excludes_detached_subtrees(self):
        tree = small_tree()
        tree.add_sink(Point(99.0, 99.0), sink_cap=1.0)  # never attached
        arena = tree.as_arena()
        assert arena.reachable_mask().tolist() == [True, True, True, True, False]

    def test_cycle_detection(self):
        arena = TreeArena.from_clock_tree(small_tree())
        arena.parents[3] = 0  # root now claims a parent: 3 -> 2 -> {0 -> 3}
        arena.child_offsets = np.array([0, 1, 1, 3, 4])
        arena.child_ids = np.array([3, 0, 1, 2])
        with pytest.raises(ValueError, match="cycle"):
            arena.depth_levels()

    def test_rejects_non_contiguous_ids(self):
        tree = small_tree()
        tree._nodes.pop(0)  # leave a hole: ids 1..3 at positions 0..2
        with pytest.raises(ValueError, match="contiguous node ids"):
            TreeArena.from_clock_tree(tree)

    def test_as_arena_snapshot_is_cached_until_mutation(self):
        tree = small_tree()
        first = tree.as_arena()
        assert tree.as_arena() is first
        tree.add_sink(Point(1.0, 1.0), sink_cap=1.0)
        second = tree.as_arena()
        assert second is not first
        assert second.num_nodes == first.num_nodes + 1

    def test_every_mutator_invalidates_an_interleaved_snapshot(self):
        """Regression for stale-snapshot hazards: each public mutator must
        bump the mutation counter so an ``as_arena()`` call interleaved with
        edits never serves yesterday's tree."""
        tree = small_tree()
        donor = small_tree()

        stale = tree.as_arena()
        tree.set_location(2, Point(6.0, 1.0))
        fresh = tree.as_arena()
        assert fresh is not stale
        assert fresh.xs[2] == 6.0 and fresh.ys[2] == 1.0

        stale = fresh
        tree.set_edge_length(0, 7.5)
        fresh = tree.as_arena()
        assert fresh is not stale
        assert fresh.edge_lengths[0] == 7.5

        stale = fresh
        orphan = tree.add_sink(Point(2.0, 2.0), sink_cap=0.5)
        assert tree.as_arena() is not stale

        stale = tree.as_arena()
        tree.attach(tree.root_id, orphan, edge_length=3.0)
        fresh = tree.as_arena()
        assert fresh is not stale
        assert fresh.parents[orphan] == tree.root_id

        stale = fresh
        mapping = tree.copy_subtree_from(donor, donor.root_id)
        fresh = tree.as_arena()
        assert fresh is not stale
        assert fresh.num_nodes == stale.num_nodes + len(mapping)

    def test_mark_mutated_invalidates_after_in_place_edits(self):
        """Code outside the library that writes node attributes directly
        must be able to invalidate the cache."""
        tree = small_tree()
        stale = tree.as_arena()
        tree.node(0).edge_length = 42.0  # bypasses set_edge_length
        assert tree.as_arena() is stale  # direct writes are invisible...
        tree.mark_mutated()
        fresh = tree.as_arena()
        assert fresh is not stale
        assert fresh.edge_lengths[0] == 42.0

    def test_setters_refresh_rows_and_share_topology(self):
        """Attribute setters re-read only their rows: the next snapshot shares
        the topology arrays and memoised levels, and the old one is kept."""
        tree = small_tree()
        stale = tree.as_arena()
        levels = stale.depth_levels()
        tree.set_edge_length(0, 7.5)
        tree.set_buffer(2, default_library().cells[0])
        fresh = tree.as_arena()
        assert fresh is not stale
        assert fresh.parents is stale.parents and fresh.child_ids is stale.child_ids
        assert fresh.depth_levels() is levels
        assert fresh.edge_lengths[0] == 7.5 and stale.edge_lengths[0] == 5.0
        assert fresh.buffer_mask.tolist() == [False, False, True, False]
        assert not stale.buffer_mask.any()
        assert_arenas_equal(fresh, TreeArena.from_clock_tree(tree))

        tree.attach(2, tree.add_sink(Point(1.0, 1.0), sink_cap=1.0), 3.0)
        rebuilt = tree.as_arena()
        assert rebuilt.parents is not fresh.parents


ARENA_COLUMNS = (
    "kinds", "parents", "edge_lengths", "xs", "ys", "has_location", "sink_caps",
    "groups", "has_group", "child_offsets", "child_ids", "buffer_mask",
    "buffer_input_caps", "buffer_intrinsics", "buffer_drive_res",
)


def assert_arenas_equal(got: TreeArena, expected: TreeArena) -> None:
    """Column-for-column equality (NaN-aware), derived levels included."""
    for name in ARENA_COLUMNS:
        column, reference = getattr(got, name), getattr(expected, name)
        assert column.dtype == reference.dtype, name
        np.testing.assert_array_equal(column, reference, err_msg=name)
    assert got.names == expected.names
    assert got.buffers == expected.buffers
    assert got.root == expected.root
    assert got.technology == expected.technology
    for mine, theirs in (
        (got.depth_levels(), expected.depth_levels()),
        (got.height_levels(), expected.height_levels()),
    ):
        assert [level.tolist() for level in mine] == [level.tolist() for level in theirs]
    assert got.reachable_mask().tolist() == expected.reachable_mask().tolist()


@functools.lru_cache(maxsize=None)
def _routed_base(kind: str) -> ClockTree:
    """Read-only routed trees the snapshot oracle copies before editing."""
    if kind == "buffered":
        spec = RunSpec(
            instance=InstanceSpec.from_family("blocked", 120, seed=1, groups=4),
            router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
            opt=OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=800.0),
        )
        tree = run(spec, keep_tree=True).routing.tree
        assert tree.num_buffers() >= 1
        return tree
    if kind == "blocked":
        return routed_tree(60, seed=5, groups=2, family="blocked")
    return routed_tree(60, seed=5, groups=4)


_CELLS = (None,) + tuple(default_library().cells)
_EDITS = st.tuples(
    st.sampled_from(
        ["location", "length", "buffer", "snapshot", "direct", "add_sink", "attach", "graft"]
    ),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-100.0, max_value=1e5, allow_nan=False),
)


class TestSnapshotOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["random", "blocked", "buffered"]),
        edits=st.lists(_EDITS, min_size=1, max_size=30),
    )
    def test_snapshots_match_a_full_rebuild(self, kind, edits):
        """Interleave setters, structural edits, ``mark_mutated`` and
        ``as_arena``: every snapshot equals a rebuild taken at the same moment,
        and no snapshot handed out earlier changes afterwards."""
        tree = TreeArena.from_clock_tree(_routed_base(kind)).to_clock_tree()
        orphans = []
        taken = []
        for op, pick, value in edits + [("snapshot", 0, 0.0)]:
            node = pick % len(tree)
            if op == "location":
                tree.set_location(node, None if value < 0 else Point(value, value / 3.0))
            elif op == "length":
                tree.set_edge_length(node, abs(value))
            elif op == "buffer":
                tree.set_buffer(node, _CELLS[pick % len(_CELLS)])
            elif op == "direct":
                tree.node(node).edge_length = abs(value)
                tree.mark_mutated()
            elif op == "add_sink":
                orphans.append(tree.add_sink(Point(value, 0.0), sink_cap=1.0, group=pick % 3))
            elif op == "attach" and orphans:
                orphan = orphans.pop()
                parent = pick % len(tree)
                if parent != orphan:
                    tree.attach(parent, orphan, abs(value))
            elif op == "graft":
                donor = small_tree()
                tree.copy_subtree_from(donor, pick % len(donor))
            elif op == "snapshot":
                snapshot = tree.as_arena()
                rebuild = TreeArena.from_clock_tree(tree)
                assert_arenas_equal(snapshot, rebuild)
                taken.append((snapshot, rebuild))
                for earlier, its_rebuild in taken:
                    assert_arenas_equal(earlier, its_rebuild)


# ----------------------------------------------------------------------
# Lossless round-trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_small_tree_round_trips(self):
        tree = small_tree()
        assert_trees_identical(tree.as_arena().to_clock_tree(), tree)

    def test_rootless_tree_round_trips(self):
        tree = ClockTree()
        tree.add_sink(Point(0.0, 0.0), sink_cap=1.0)
        rebuilt = TreeArena.from_clock_tree(tree).to_clock_tree()
        assert rebuilt.root_id is None
        assert_trees_identical(rebuilt, tree)

    @settings(max_examples=20, deadline=None)
    @given(
        num_sinks=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
        groups=st.sampled_from([1, 2, 4]),
    )
    def test_routed_trees_round_trip(self, num_sinks, seed, groups):
        tree = routed_tree(num_sinks, seed, groups=min(groups, num_sinks))
        assert_trees_identical(tree.as_arena().to_clock_tree(), tree)

    @settings(max_examples=10, deadline=None)
    @given(
        num_sinks=st.integers(min_value=8, max_value=80),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_obstacle_detoured_trees_round_trip(self, num_sinks, seed):
        """Detoured trees book wire beyond the Manhattan distance; the arena
        must reproduce those lengths exactly, not re-derive them."""
        tree = routed_tree(num_sinks, seed, groups=2, family="blocked")
        assert_trees_identical(tree.as_arena().to_clock_tree(), tree)


# ----------------------------------------------------------------------
# Loop equivalence (the arena loop vs the object reference loop)
# ----------------------------------------------------------------------
BACKEND_SCENARIOS = [
    ("ast-dme", 8, "random", {}),
    ("ast-dme", 1, "random", {}),
    ("ast-dme", 4, "blocked", {}),
    ("greedy-dme", 1, "random", {}),
    ("greedy-dme", 1, "blocked", {}),
    ("ext-bst", 1, "random", {}),
    ("greedy-dme", 1, "random", {"multi_merge": False, "neighbor_strategy": "scalar"}),
    ("greedy-dme", 1, "random", {"multi_merge": False, "neighbor_strategy": "rebuild"}),
    ("ast-dme", 8, "random", {"delay_target_weight": 0.3}),
    ("ast-dme", 8, "random", {"allow_snaking": False}),
    # Beyond the 64 groups that used to drop to the object loop.
    ("ast-dme", 70, "random", {}),
]

#: MergeStats fields both loops must agree on (everything but wall times).
STAT_COUNTERS = (
    "passes", "merges_by_case", "snaked_merges", "total_detour", "max_violation",
    "obstacle_detour", "neighbor_full_rebuilds", "neighbor_incremental_passes",
)


def assert_loci_identical(got, expected) -> None:
    assert set(got) == set(expected)
    for node_id, locus in expected.items():
        other = got[node_id]
        assert (other.ulo, other.uhi, other.vlo, other.vhi) == (
            locus.ulo, locus.uhi, locus.vlo, locus.vhi,
        )


def assert_merges_identical(got_stats, expected_stats, got_assoc, expected_assoc) -> None:
    for name in STAT_COUNTERS:
        assert getattr(got_stats, name) == getattr(expected_stats, name), name
    assert got_assoc.association_events == expected_assoc.association_events


class TestBackendIdentity:
    @pytest.mark.parametrize("router,groups,family,options", BACKEND_SCENARIOS)
    def test_arena_routes_bit_identical_trees(self, router, groups, family, options):
        n = 90
        if family == "blocked":
            spec = InstanceSpec.from_family(
                "blocked", num_sinks=n, seed=3, num_blockages=5, groups=groups
            )
        else:
            spec = InstanceSpec.from_random(n, seed=3, groups=groups)
        instance = spec.build()
        routed = get_router(router, dict(options))
        got = routed.route(instance)
        # greedy-dme and ext-bst wrap an AstDme run with every sink in one group.
        if isinstance(routed, AstDme):
            expected = route_reference(routed, instance)
        else:
            expected = route_reference(AstDme(routed.config), instance, single_group=True)
        assert got.wirelength == expected.wirelength
        assert_trees_identical(got.tree, expected.tree)
        assert_loci_identical(got.loci, expected.loci)
        assert_merges_identical(
            got.stats, expected.stats, got.association, expected.association
        )


#: Sparse group ids, so the dense column mapping is not the identity.
STUB_GROUPS = (0, 3, 4, 9, 17, 40, 41)
_coord = st.floats(min_value=0.0, max_value=100_000.0, allow_nan=False)
_width = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3_000.0))


@st.composite
def stub_rows(draw):
    """Frontier-like stubs (a point or box locus, a cap and 1-6 delay
    intervals each), a source point and per-group skew bounds."""
    stubs = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        x, y = draw(_coord), draw(_coord)
        row = (x + y, x + y + draw(_width), x - y, x - y + draw(_width))
        groups = draw(
            st.lists(st.sampled_from(STUB_GROUPS), min_size=1, max_size=6, unique=True)
        )
        delays = {}
        for group in groups:
            lo = draw(st.floats(min_value=0.0, max_value=200_000.0))
            delays[group] = (lo, lo + draw(st.floats(min_value=0.0, max_value=30_000.0)))
        cap = draw(st.floats(min_value=1e-3, max_value=800.0))
        stubs.append((row, cap, delays))
    bounds = {g: draw(st.floats(min_value=0.0, max_value=40_000.0)) for g in STUB_GROUPS}
    return stubs, Point(draw(_coord), draw(_coord)), SkewConstraints(per_group=bounds)


def _stub_tree(count: int, tech: Technology) -> ClockTree:
    """A tree holding ``count`` placeholder nodes for the stubs to stand for."""
    tree = ClockTree(technology=tech)
    for _ in range(count):
        tree.add_sink(Point(0.0, 0.0), sink_cap=1.0)
    return tree


@settings(max_examples=80, deadline=None)
@given(data=stub_rows(), weight=st.sampled_from([0.0, 0.3]))
def test_random_stub_rows_merge_identically(data, weight):
    """The rows ECO feeds the loop -- any loci, caps and interval sets -- come
    out of both loops as the same node ids, edges, loci and statistics."""
    stubs, source, constraints = data
    tech = Technology.r_benchmark()
    router = AstDme(AstDmeConfig(delay_target_weight=weight), constraints)

    expected_tree = _stub_tree(len(stubs), tech)
    expected_loci = {}
    expected_stats = MergeStats()
    expected_assoc = GroupAssociation(STUB_GROUPS)
    subtrees = [
        Subtree(node_id=i, locus=Trr(*row), cap=cap, delays=dict(delays))
        for i, (row, cap, delays) in enumerate(stubs)
    ]
    merge_subtrees(
        router, subtrees, expected_tree, expected_loci, source, expected_stats,
        expected_assoc,
    )

    group_ids = sorted({group for _, _, delays in stubs for group in delays})
    rows = SubtreeRows(
        loci=np.array([row for row, _, _ in stubs], dtype=np.float64),
        cap=np.array([cap for _, cap, _ in stubs], dtype=np.float64),
        delays=np.array(
            [[delays.get(g, (0.0, 0.0)) for g in group_ids] for _, _, delays in stubs],
            dtype=np.float64,
        ),
        present=np.array([[g in delays for g in group_ids] for _, _, delays in stubs]),
        node_id=np.arange(len(stubs), dtype=np.int64),
        group_ids=group_ids,
    )
    got_tree = _stub_tree(len(stubs), tech)
    got_stats = MergeStats()
    got_assoc = GroupAssociation(STUB_GROUPS)
    merged = router.merge_rows(rows, len(stubs), source, tech, got_stats, got_assoc)
    got_loci = merged.add_to(got_tree, source)

    assert_trees_identical(got_tree, expected_tree)
    assert_loci_identical(got_loci, expected_loci)
    assert_merges_identical(got_stats, expected_stats, got_assoc, expected_assoc)
