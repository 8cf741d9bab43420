"""Tests for the struct-of-arrays tree core (repro.cts.arena, the column
store of repro.cts.tree) and the merge loop's bit-identity with the object
reference loop.

Three layers:

* ``TreeArena`` and column-store unit tests: CSR children gathers,
  depth/height levels, reachability, the preorder index, cycle detection,
  read-only node views, arena caching, and a hypothesis oracle applying the
  same random public edits to a ``ClockTree`` and to the object tree of
  ``tests/reference_tree.py``: equal arenas (by ``float.hex``), equal node
  views, and no arena handed out earlier ever changes;
* arena construction: the arenas the routers and ECO build equal a row by
  row conversion of their own node views, gathering subtree slices equals
  the node-by-node preorder copy (the reference tree's ``copy_subtree_from``)
  column for column, and so does the h-tree's composite;
* lossless round-trip: ``as_arena()`` -> ``to_clock_tree()`` reproduces
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
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import RouterSpec, get_router
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.core.ast_dme import AstDme, AstDmeConfig, MergeStats, SubtreeRows
from repro.core import htree
from repro.core.group_constraints import GroupAssociation, SkewConstraints
from repro.core.htree import HTreeRouter
from repro.cts.arena import INTERNAL_KIND, SINK_KIND, SOURCE_KIND, TreeArena
from repro.cts.tree import ClockTree
from repro.delay.buffer import default_library
from repro.delay.technology import Technology
from repro.eco import EcoConfig, EcoDelta, SinkAdd, SinkMove, eco_reroute
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from repro.opt import BUFFERED_PASSES, OptConfig
from tests.reference_dme import assert_loci_rows, merge_subtrees, route_reference
from tests.reference_merge import Subtree
from tests.reference_tree import ReferenceTree, arena_of


def small_tree(cls=ClockTree):
    """Two sinks -> one internal -> source, fully embedded."""
    tree = cls()
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
        arena = small_tree().as_arena()
        assert arena.num_nodes == 4
        assert list(arena.kinds) == [SINK_KIND, SINK_KIND, INTERNAL_KIND, SOURCE_KIND]
        assert arena.root == 3
        assert list(arena.parents) == [2, 2, 3, -1]
        assert list(arena.child_counts()) == [0, 0, 2, 1]
        assert arena.sink_caps[0] == 1.0 and arena.sink_caps[1] == 2.0
        assert list(arena.groups[:2]) == [0, 1]

    def test_children_of_preserves_attach_order(self):
        arena = small_tree().as_arena()
        children, parent_index = arena.children_of(np.array([3, 2]))
        assert children.tolist() == [2, 0, 1]
        assert parent_index.tolist() == [0, 1, 1]

    def test_children_of_empty_frontier(self):
        arena = small_tree().as_arena()
        children, parent_index = arena.children_of(np.array([0, 1]))
        assert children.size == 0 and parent_index.size == 0

    def test_depth_levels_root_first(self):
        arena = small_tree().as_arena()
        levels = [level.tolist() for level in arena.depth_levels()]
        assert levels == [[3], [2], [0, 1]]

    def test_height_levels_leaves_first(self):
        arena = small_tree().as_arena()
        levels = [sorted(level.tolist()) for level in arena.height_levels()]
        assert levels == [[0, 1], [2], [3]]

    def test_preorder_is_the_topological_order_with_subtree_slices(self):
        tree = small_tree()
        order, pre, size = tree.as_arena().preorder()
        assert order.tolist() == tree.topological_order() == [3, 2, 0, 1]
        assert pre.tolist() == [2, 3, 1, 0]
        assert size.tolist() == [1, 1, 3, 4]

    def test_preorder_of_a_forest_follows_root_ids(self):
        tree = small_tree()
        tree.add_sink(Point(99.0, 99.0), sink_cap=1.0)  # a second root, id 4
        order, pre, size = tree.as_arena().preorder()
        assert order.tolist() == [3, 2, 0, 1, 4]
        assert size[4] == 1 and pre[4] == 4

    def test_reachable_mask_excludes_detached_subtrees(self):
        tree = small_tree()
        tree.add_sink(Point(99.0, 99.0), sink_cap=1.0)  # never attached
        arena = tree.as_arena()
        assert arena.reachable_mask().tolist() == [True, True, True, True, False]

    def test_cycle_detection(self):
        arena = small_tree().as_arena()
        arena.depth_levels()  # a memo that the corrupted copy must not inherit
        arena = replace(
            arena,
            parents=np.array([2, 2, 3, 0]),  # the root claims a parent: 3 -> 2 -> {0 -> 3}
            child_offsets=np.array([0, 1, 1, 3, 4]),
            child_ids=np.array([3, 0, 1, 2]),
        )
        with pytest.raises(ValueError, match="cycle"):
            arena.depth_levels()
        with pytest.raises(ValueError, match="cycle"):
            arena.to_clock_tree().topological_order()

    def test_unknown_node_ids_raise_key_error(self):
        """Node ids are the rows 0..n-1; anything else is absent."""
        tree = small_tree()
        for bad in (-1, 4, "2"):
            assert bad not in tree
            with pytest.raises(KeyError):
                tree.node(bad)
            with pytest.raises(KeyError):
                tree.set_edge_length(bad, 1.0)
        assert np.int64(2) in tree and tree.node(np.int64(2)).node_id == 2

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

    def test_node_attribute_writes_raise(self):
        """A node is a read-only view: every edit goes through the tree's
        setters, so no write can bypass the arenas."""
        tree = small_tree()
        before = tree.as_arena()
        node = tree.node(0)
        for name, value in (
            ("edge_length", 42.0), ("location", None), ("parent", None),
            ("children", []), ("sink_cap", 2.0), ("group", None), ("name", "x"),
            ("buffer", None), ("kind", "internal"), ("node_id", 1), ("_id", 1),
            ("_tree", None), ("extra", 1),
        ):
            with pytest.raises(AttributeError):
                setattr(node, name, value)
        with pytest.raises(AttributeError):
            del node.edge_length
        node.children.append(3)  # a new list per read, not the tree's
        assert tree.as_arena() is before
        assert node.children == [] and node.edge_length == 5.0

    def test_views_read_the_columns_as_python_scalars(self):
        tree = small_tree()
        tree.set_location(2, Point(2.675, 0.5))
        node = tree.node(2)
        values = (node.edge_length, node.sink_cap, node.location.x, node.location.y)
        assert all(type(value) is float for value in values)
        assert type(node.parent) is int and type(tree.node(0).group) is int
        assert round(node.location.x, 2) == round(2.675, 2) == 2.67
        assert "np." not in repr(node)
        tree.set_edge_length(2, 6.5)  # views see later edits
        assert node.edge_length == 6.5

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
        assert_arenas_equal(fresh, arena_of(tree))

        tree.attach(2, tree.add_sink(Point(1.0, 1.0), sink_cap=1.0), 3.0)
        rebuilt = tree.as_arena()
        assert rebuilt.parents is not fresh.parents


ARENA_COLUMNS = (
    "kinds", "parents", "edge_lengths", "xs", "ys", "has_location", "sink_caps",
    "groups", "has_group", "sink_ids", "child_offsets", "child_ids", "buffer_mask",
    "buffer_input_caps", "buffer_intrinsics", "buffer_drive_res",
)


def assert_arenas_equal(got: TreeArena, expected: TreeArena) -> None:
    """Column-for-column equality (NaN-aware), derived levels included."""
    for name in ARENA_COLUMNS:
        column, reference = getattr(got, name), getattr(expected, name)
        assert column.dtype == reference.dtype, name
        np.testing.assert_array_equal(column, reference, err_msg=name)
    assert got.labels == expected.labels
    assert got.buffers == expected.buffers
    assert got.root == expected.root
    assert got.technology == expected.technology
    for mine, theirs in (
        (got.depth_levels(), expected.depth_levels()),
        (got.height_levels(), expected.height_levels()),
    ):
        assert [level.tolist() for level in mine] == [level.tolist() for level in theirs]
    assert got.reachable_mask().tolist() == expected.reachable_mask().tolist()


def _stitched(base, seed: int = 0):
    """``base`` after one seeded ECO delta: two moves, a removal and an add."""
    rng = np.random.default_rng(seed)
    sinks = base.instance.sinks
    picked = rng.choice(len(sinks), size=3, replace=False).tolist()
    delta = EcoDelta(
        move=tuple(
            SinkMove(sinks[k].sink_id, Point(sinks[k].location.x + 40.0, sinks[k].location.y))
            for k in picked[:2]
        ),
        remove=(sinks[picked[2]].sink_id,),
        add=(SinkAdd(location=sinks[0].location.translated(25.0, -30.0), cap=0.05, group=0),),
    )
    return eco_reroute(base, delta, EcoConfig(router=AstDmeConfig(skew_bound_ps=10.0))).routing


@functools.lru_cache(maxsize=None)
def _arena_built(kind: str) -> TreeArena:
    """The arena a route ("grown") or an ECO re-route ("stitched") built."""
    spec = InstanceSpec.from_random(60, seed=5, groups=4)
    base = run(RunSpec(instance=spec), keep_tree=True).routing
    routing = base if kind == "grown" else _stitched(base)
    return routing.tree.as_arena()


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
        ["location", "length", "buffer", "snapshot", "direct", "add_sink", "add_internal",
         "add_source", "attach", "graft", "self_graft"]
    ),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-100.0, max_value=1e5, allow_nan=False),
)

_FLOAT_COLUMNS = (
    "edge_lengths", "xs", "ys", "sink_caps", "buffer_input_caps", "buffer_intrinsics",
    "buffer_drive_res",
)
_EXACT_COLUMNS = ("kinds", "parents", "has_location", "groups", "has_group", "sink_ids",
                  "child_offsets", "child_ids", "buffer_mask")


def arena_bits(arena: TreeArena) -> dict:
    """Every column of ``arena`` as Python values, floats by ``float.hex``."""
    bits = {name: [float.hex(v) for v in getattr(arena, name).tolist()] for name in _FLOAT_COLUMNS}
    bits.update((name, getattr(arena, name).tolist()) for name in _EXACT_COLUMNS)
    bits.update(labels=dict(arena.labels), buffers=list(arena.buffers), root=arena.root,
                technology=arena.technology)
    return bits


def view_bits(node) -> tuple:
    """A node's fields, floats by ``float.hex``."""
    location = node.location
    return (
        node.node_id, node.kind, None if location is None else (location.x.hex(), location.y.hex()),
        node.parent, list(node.children), node.edge_length.hex(), node.sink_cap.hex(),
        node.group, node.name, node.buffer,
    )


class TestSnapshotOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["random", "blocked", "buffered", "grown", "stitched"]),
        edits=st.lists(_EDITS, min_size=1, max_size=30),
    )
    def test_snapshots_match_a_full_rebuild(self, kind, edits):
        """Apply the same public edits to a column tree and to the object
        tree of ``tests/reference_tree.py``, interleaved with ``as_arena``:
        every arena equals the reference's rebuild bit for bit, the node
        views equal the reference's nodes, no arena handed out earlier
        changes afterwards, and a node attribute write raises.  The "grown"
        and "stitched" trees start from the arena the router or ECO built."""
        if kind in ("grown", "stitched"):
            tree = _arena_built(kind).to_clock_tree()
        else:
            tree = _routed_base(kind).as_arena().to_clock_tree()
        reference = ReferenceTree.of(tree)
        orphans = []
        taken = []
        for op, pick, value in edits + [("snapshot", 0, 0.0)]:
            node = pick % len(tree)
            location = Point(value, value / 3.0)
            both = (tree, reference)
            if op == "location":
                for t in both:
                    t.set_location(node, None if value < 0 else location)
            elif op == "length":
                for t in both:
                    t.set_edge_length(node, abs(value))
            elif op == "buffer":
                for t in both:
                    t.set_buffer(node, _CELLS[pick % len(_CELLS)])
            elif op == "direct":
                with pytest.raises(AttributeError):
                    tree.node(node).edge_length = abs(value)
            elif op == "add_sink":
                ids = [t.add_sink(location, sink_cap=1.0, group=pick % 3) for t in both]
                assert ids[0] == ids[1]
                orphans.append(ids[0])
            elif op == "add_internal" and orphans:
                children = [orphans.pop()]
                if orphans and pick % 2:
                    children.append(orphans.pop())
                lengths = [abs(value)] * len(children)
                ids = [t.add_internal(children, lengths, location=location) for t in both]
                assert ids[0] == ids[1]
                orphans.append(ids[0])
            elif op == "add_source" and orphans:
                child = orphans.pop()
                for t in both:
                    t.add_source(location, child, abs(value), name="clk%d" % pick)
            elif op == "attach" and orphans:
                orphan = orphans.pop()
                parent = pick % len(tree)
                if parent != orphan and orphan not in tree.path_to_root(parent):
                    for t in both:
                        t.attach(parent, orphan, abs(value))
            elif op in ("graft", "self_graft"):
                if op == "graft":
                    donors = (small_tree(), small_tree(ReferenceTree))
                else:
                    donors = both
                root = pick % len(donors[0])
                maps = [t.copy_subtree_from(d, root) for t, d in zip(both, donors)]
                assert maps[0] == maps[1]
                orphans.append(maps[0][root])
            elif op == "snapshot":
                snapshot = tree.as_arena()
                assert tree.as_arena() is snapshot
                assert arena_bits(snapshot) == arena_bits(arena_of(reference))
                assert [view_bits(n) for n in tree.nodes()] == [
                    view_bits(n) for n in reference.nodes()
                ]
                assert tree.total_wirelength() == reference.total_wirelength()
                assert tree.snaking_wirelength() == reference.snaking_wirelength()
                if tree.root_id is not None:
                    assert tree.topological_order() == reference.topological_order()
                taken.append((snapshot, arena_bits(snapshot)))
                for earlier, bits in taken:
                    assert arena_bits(earlier) == bits


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
        rebuilt = tree.as_arena().to_clock_tree()
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
# Arena construction: grown and stitched arenas vs their node objects
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _stitch_base(kind: str) -> ClockTree:
    """Read-only bases of the stitch property: the snapshot bases plus a
    70-group route and an h-tree route."""
    if kind == "wide":
        return routed_tree(150, seed=5, groups=70)
    if kind == "htree":
        spec = RunSpec(
            instance=InstanceSpec.from_family("blocked", 300, seed=0, groups=4),
            router=RouterSpec("h-tree", {"skew_bound_ps": 10.0, "trunk_levels": 2}),
        )
        return run(spec, keep_tree=True).routing.tree
    return _routed_base(kind)


class ObjectComposite:
    """The h-tree's composite assembled node by node: ``copy_subtree_from``,
    ``add_internal`` and ``add_source`` on the object tree of
    ``tests/reference_tree.py``, with a dict of loci: the leaf routes' locus
    rows re-keyed through the copy's id map, and each junction and tap its
    own point."""

    def __init__(self, tree: ClockTree) -> None:
        self.reference = ReferenceTree(technology=tree.technology)
        self.loci = {}

    @property
    def tree(self) -> ClockTree:
        return arena_of(self.reference).to_clock_tree()

    def graft(self, leaf: ClockTree, root: int, leaf_loci) -> int:
        id_map = self.reference.copy_subtree_from(leaf, root)
        for old_id, row in enumerate(leaf_loci.tolist()):
            if old_id in id_map and not np.isnan(row).any():
                self.loci[id_map[old_id]] = Trr(*row)
        return id_map[root]

    def add(self, kind, children, lengths, location, name) -> int:
        if kind == SOURCE_KIND:
            return self.reference.add_source(location, children[0], lengths[0], name=name)
        node_id = self.reference.add_internal(children, lengths, location=location, name=name)
        self.loci[node_id] = Trr.from_point(location)
        return node_id


def _disjoint_roots(tree: ClockTree, picks) -> list:
    """The picked nodes (modulo the tree size) that share no subtree with an
    earlier accepted pick, in pick order."""
    roots = []
    for pick in picks:
        node = pick % len(tree)
        path = set(tree.path_to_root(node))
        if any(root in path or node in tree.path_to_root(root) for root in roots):
            continue
        roots.append(node)
    return roots


class TestArenaConstruction:
    @pytest.mark.parametrize("kind", ["random", "blocked", "buffered", "wide"])
    def test_preorder_matches_the_object_walk(self, kind):
        tree = _stitch_base(kind)
        order, pre, size = tree.as_arena().preorder()
        assert order.tolist() == tree.topological_order()
        for node_id in range(0, len(tree), 7):
            below = order[pre[node_id] : pre[node_id] + size[node_id]].tolist()
            assert below == list(ReferenceTree().copy_subtree_from(tree, node_id))

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["random", "blocked", "buffered", "wide"]),
        picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=12),
        ascending=st.booleans(),
    )
    def test_gathered_slices_equal_the_preorder_copy(self, kind, picks, ascending):
        """Gathering subtree slices gives, column for column (NaN-aware,
        names, buffers and CSR order included), the arena of the tree that
        the reference ``copy_subtree_from`` builds by grafting the same
        subtrees node by node into an empty tree, in the same order; so do
        the column tree's grafts."""
        base = _stitch_base(kind)
        roots = _disjoint_roots(base, picks)
        if ascending:
            roots.sort()
        expected = ReferenceTree(technology=base.technology)
        grafted = ClockTree(technology=base.technology)
        copied_from = {}
        for root in roots:
            id_map = expected.copy_subtree_from(base, root)
            assert grafted.copy_subtree_from(base, root) == id_map
            for old_id, new_id in id_map.items():
                copied_from[new_id] = old_id
        got, rows = base.as_arena().gather_subtrees(roots)
        assert_arenas_equal(got, arena_of(expected))
        assert_arenas_equal(grafted.as_arena(), arena_of(expected))
        assert rows.tolist() == [copied_from[k] for k in range(len(expected))]

    @pytest.mark.parametrize("kind", ["random", "blocked", "buffered", "wide", "htree"])
    def test_routes_build_the_arena_of_their_nodes(self, kind):
        """The arena a route grew (with the embedding's and the repair's
        edits) equals a row by row conversion of its node views."""
        tree = _stitch_base(kind)
        assert_arenas_equal(tree.as_arena(), arena_of(tree))

    @pytest.mark.parametrize("family", ["random", "blocked"])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_htree_appends_what_the_node_grafts_build(self, family, levels, monkeypatch):
        """The h-tree's tree (ids, child order, every column) and its loci
        equal what grafting the leaves node by node builds."""
        if family == "blocked":
            instance = InstanceSpec.from_family("blocked", 400, seed=1, groups=3).build()
        else:
            instance = InstanceSpec.from_random(400, seed=1, groups=3).build()
        router = HTreeRouter(AstDmeConfig(skew_bound_ps=10.0), trunk_levels=levels)
        got = router.route(instance)
        monkeypatch.setattr(htree, "_Composite", ObjectComposite)
        expected = router.route(instance)
        assert_arenas_equal(got.tree.as_arena(), expected.tree.as_arena())
        assert_loci_rows(got.loci, expected.loci)
        assert len(got.loci) == len(got.tree)
        assert got.wirelength == expected.wirelength

    @pytest.mark.parametrize("family,groups", [("random", 4), ("random", 70), ("blocked", 2)])
    def test_eco_builds_the_arena_of_its_nodes(self, family, groups):
        if family == "blocked":
            spec = InstanceSpec.from_family("blocked", 150, seed=2, groups=groups)
        else:
            spec = InstanceSpec.from_random(150, seed=2, groups=groups)
        routing = run(RunSpec(instance=spec), keep_tree=True).routing
        for seed in range(3):
            routing = _stitched(routing, seed)
            tree = routing.tree.as_arena().to_clock_tree()
            assert_arenas_equal(routing.tree.as_arena(), arena_of(tree))


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
    ("greedy-dme", 1, "random", {"multi_merge": False}),
    ("ast-dme", 8, "random", {"delay_target_weight": 0.3}),
    # Beyond the 64 groups that used to drop to the object loop.
    ("ast-dme", 70, "random", {}),
]

#: MergeStats fields both loops must agree on (everything but wall times).
STAT_COUNTERS = (
    "passes", "merges_by_case", "snaked_merges", "total_detour", "max_violation",
    "obstacle_detour", "neighbor_full_rebuilds", "neighbor_incremental_passes",
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
        assert_loci_rows(got.loci, expected.loci)
        assert len(got.loci) == len(got.tree)
        assert_merges_identical(
            got.stats, expected.stats, got.association, expected.association
        )


def test_single_group_route_registers_group_zero_like_the_reference():
    """A single-group run merges every sink in group column 0.  When the
    instance has no group 0, both loops register it on the first pass, so
    the association ends with the same two classes."""
    base = InstanceSpec.from_random(60, seed=5).build()
    instance = replace(base, sinks=tuple(replace(s, group=3) for s in base.sinks))
    router = get_router("greedy-dme", {})
    got = router.route(instance)
    expected = route_reference(AstDme(router.config), instance, single_group=True)
    assert got.association.classes() == expected.association.classes() == [[0], [3]]
    assert got.association.association_events == expected.association.association_events == []


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
    got_stats = MergeStats()
    got_assoc = GroupAssociation(STUB_GROUPS)
    merged = router.merge_rows(rows, len(stubs), source, tech, got_stats, got_assoc)
    got_arena, got_loci = merged.append_to(_stub_tree(len(stubs), tech).as_arena(), source)
    got_tree = got_arena.to_clock_tree()

    assert_trees_identical(got_tree, expected_tree)
    assert_loci_rows(got_loci, expected_loci)
    assert_merges_identical(got_stats, expected_stats, got_assoc, expected_assoc)
