"""The tree's sink-id column and labels, from which node names derive.

A routed tree carries each sink's instance id in ``TreeArena.sink_ids`` (-1
off the sinks) and keeps only the names no id gives as labels (the source's
``clk``, the h-tree's junctions and taps, names passed to ``add_*``).  A
node's name is its label, else ``sink-<id>``, else None: the strings every
digest hashes.  ECO finds its sinks with one ``np.isin`` on the column; the
name scan it replaced is the oracle here.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import get_router
from repro.api.spec import InstanceSpec
from repro.core.ast_dme import AstDmeConfig
from repro.core.htree import HTreeRouter
from repro.cts.arena import INTERNAL_KIND, SINK_KIND
from repro.cts.tree import ClockTree
from repro.eco import EcoConfig, EcoDelta, SinkAdd, SinkMove, eco_reroute
from repro.eco.engine import _sink_nodes_by_id
from repro.geometry.point import Point


def _route(num_sinks=120, seed=3, groups=4):
    instance = InstanceSpec.from_random(num_sinks, seed=seed, groups=groups).build()
    return get_router("ast-dme", {"skew_bound_ps": 10.0}).route(instance)


@functools.lru_cache(maxsize=None)
def _routed():
    return _route()


def _htree():
    instance = InstanceSpec.from_random(200, seed=1, groups=3).build()
    return HTreeRouter(AstDmeConfig(skew_bound_ps=10.0), trunk_levels=2).route(instance)


def name_scan(arena, wanted):
    """Instance sink id -> node id by scanning every node's name (the
    lookup the column replaced)."""
    names = {"sink-%d" % sid: sid for sid in wanted}
    mapping = {}
    for node_id in range(arena.num_nodes):
        sid = names.get(arena.name_of(node_id))
        if sid is not None and arena.kinds[node_id] == SINK_KIND:
            mapping[sid] = node_id
    return mapping


class TestNames:
    def test_a_route_carries_the_instance_ids(self):
        routing = _route()
        arena = routing.tree.as_arena()
        sinks = np.flatnonzero(arena.kinds == SINK_KIND)
        assert arena.sink_ids[sinks].tolist() == routing.instance.sinks.ids.tolist()
        assert (arena.sink_ids[arena.kinds != SINK_KIND] == -1).all()
        assert arena.labels == {arena.root: "clk"}
        names = [node.name for node in routing.tree.nodes()]
        merges = len(arena.kinds) - len(sinks) - 1
        ids = routing.instance.sinks.ids.tolist()
        assert names == ["sink-%d" % sid for sid in ids] + [None] * merges + ["clk"]
        assert [arena.name_of(k) for k in range(arena.num_nodes)] == names

    def test_labels_win_over_sink_ids(self):
        tree = ClockTree()
        a = tree.add_sink(Point(0.0, 0.0), 1.0, group=0, sink_id=7)
        b = tree.add_sink(Point(1.0, 0.0), 1.0, group=0, name="ff", sink_id=8)
        c = tree.add_sink(Point(2.0, 0.0), 1.0)
        m = tree.add_internal([a, b, c], [1.0, 1.0, 1.0], name="mid")
        tree.add_source(Point(0.0, 5.0), m, 6.0)
        assert [node.name for node in tree.nodes()] == ["sink-7", "ff", None, "mid", "clk"]
        assert [node.sink_id for node in tree.nodes()] == [7, 8, None, None, None]
        arena = tree.as_arena()
        assert arena.sink_ids.tolist() == [7, 8, -1, -1, -1]
        assert arena.labels == {1: "ff", 3: "mid", 4: "clk"}
        with pytest.raises(ValueError, match="non-negative"):
            tree.add_sink(Point(0.0, 0.0), 1.0, sink_id=-1)

    def test_a_handed_out_arena_keeps_its_labels(self):
        tree = ClockTree()
        tree.add_sink(Point(0.0, 0.0), 1.0, name="a")
        arena = tree.as_arena()
        tree.add_sink(Point(1.0, 0.0), 1.0, name="b")
        assert arena.labels == {0: "a"}
        assert tree.as_arena().labels == {0: "a", 1: "b"}


class TestGatherAndAppend:
    def test_gathers_carry_ids_and_remap_labels(self):
        routing = _htree()
        arena = routing.tree.as_arena()
        junctions = [node for node, label in arena.labels.items() if label == "htree-junction"]
        got, rows = arena.gather_subtrees(junctions[:2])
        assert got.sink_ids.tolist() == arena.sink_ids[rows].tolist()
        assert [got.name_of(k) for k in range(got.num_nodes)] == [
            arena.name_of(node) for node in rows.tolist()
        ]
        assert set(got.labels.values()) == {"htree-junction", "htree-tap"}

    def test_copies_carry_ids_and_labels(self):
        routing = _htree()
        base = routing.tree
        junction = next(n for n, label in base.as_arena().labels.items() if label == "htree-junction")
        copy = ClockTree(technology=base.technology)
        copy.add_sink(Point(0.0, 0.0), 1.0, name="first")
        id_map = copy.copy_subtree_from(base, junction)
        for old, new in id_map.items():
            assert copy.node(new).name == base.node(old).name
            assert copy.node(new).sink_id == base.node(old).sink_id
        assert copy.node(0).name == "first"

    def test_appended_rows_take_labels_by_position(self):
        arena = ClockTree().as_arena()
        grown = arena.appended(
            kinds=np.array([SINK_KIND, SINK_KIND, INTERNAL_KIND], dtype=np.int8),
            parents=np.array([2, 2, -1]),
            edge_lengths=np.zeros(3),
            xs=np.zeros(3),
            ys=np.zeros(3),
            has_location=np.ones(3, dtype=bool),
            sink_caps=np.ones(3),
            groups=np.zeros(3, dtype=np.int64),
            has_group=np.array([True, True, False]),
            child_counts=np.array([0, 0, 2]),
            child_ids=np.array([0, 1]),
            root=-1,
            sink_ids=np.array([4, 9, -1]),
            labels={2: "top"},
        )
        again = grown.appended(
            kinds=np.array([SINK_KIND], dtype=np.int8),
            parents=np.append(grown.parents, -1),
            edge_lengths=np.append(grown.edge_lengths, 0.0),
            xs=np.zeros(1),
            ys=np.zeros(1),
            has_location=np.ones(1, dtype=bool),
            sink_caps=np.ones(1),
            groups=np.zeros(1, dtype=np.int64),
            has_group=np.ones(1, dtype=bool),
            child_counts=np.zeros(1, dtype=np.int64),
            child_ids=np.empty(0, dtype=np.int64),
            root=-1,
            labels={0: "late"},
        )
        assert [again.name_of(k) for k in range(4)] == ["sink-4", "sink-9", "top", "late"]
        assert again.sink_ids.tolist() == [4, 9, -1, -1]
        assert grown.labels == {2: "top"}


class TestEcoLookup:
    @settings(max_examples=40, deadline=None)
    @given(wanted=st.sets(st.integers(min_value=0, max_value=140), max_size=12))
    def test_the_column_lookup_matches_the_name_scan(self, wanted):
        arena = _routed().tree.as_arena()
        assert _sink_nodes_by_id(arena, wanted) == name_scan(arena, wanted)

    def test_a_stitched_tree_keeps_the_ids_of_its_sinks(self):
        base = _route(num_sinks=80, seed=5)
        sink = base.instance.sinks[4]
        delta = EcoDelta(
            move=(SinkMove(4, Point(sink.location.x + 500.0, sink.location.y)),),
            remove=(9,),
            add=(SinkAdd(Point(100.0, 200.0), 30.0, 1),),
        )
        routing = eco_reroute(base, delta, EcoConfig(router=AstDmeConfig(skew_bound_ps=10.0))).routing
        arena = routing.tree.as_arena()
        sinks = np.flatnonzero(arena.kinds == SINK_KIND)
        assert sorted(arena.sink_ids[sinks].tolist()) == sorted(routing.instance.sinks.ids.tolist())
        assert (arena.sink_ids[arena.kinds != SINK_KIND] == -1).all()
        assert arena.labels == {arena.root: "clk"}
        wanted = set(routing.instance.sinks.ids.tolist())
        assert _sink_nodes_by_id(arena, wanted) == name_scan(arena, wanted)
