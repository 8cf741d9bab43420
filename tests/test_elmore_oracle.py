"""The Elmore engine and the skew report against their per-node oracles.

``repro.delay.elmore`` computes every Elmore number with array passes over
the tree's cached arena snapshot.  Its dictionary views must equal the object
walk of ``tests/reference_elmore.py`` bit for bit, errors included: on routes
of every router family under and over 2048 nodes, after setter edits that
refresh the snapshot row by row, and on hand-built trees with an orphan sink.
``skew_report``, the per-group reduction and the per-subtree summary must
equal the per-sink dict loops kept there, key order and tie-breaks included.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.skew import skew_report
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RouterSpec, RunSpec
from repro.cts.tree import ClockNode, ClockTree
from repro.delay.buffer import default_library
from repro.delay.elmore import (
    SinkGroups,
    elmore_delays,
    sink_delays,
    subtree_capacitances,
    subtree_summary,
)
from repro.delay.technology import Technology
from repro.geometry.point import Point
from repro.opt import BUFFERED_PASSES, OptConfig
from tests import reference_elmore as reference

FAMILIES = ("random", "blocked", "buffered", "ext-bst", "h-tree")
#: Sinks per route size: "small" routes stay under 2048 nodes, "large" ones
#: exceed it.
SIZES = {"small": 40, "large": 1050}
CELLS = (None, "buf-x1", "buf-x4")

VIEWS = (
    (subtree_capacitances, reference.subtree_capacitances),
    (elmore_delays, reference.elmore_delays),
    (sink_delays, reference.sink_delays),
)


@functools.lru_cache(maxsize=None)
def routed_tree(family: str, size: str) -> ClockTree:
    """A read-only routed tree; tests edit a :func:`private_copy` of it."""
    n = SIZES[size]
    router = RouterSpec("ast-dme", {"skew_bound_ps": 10.0})
    instance = InstanceSpec.from_random(n, seed=4, groups=4)
    opt = None
    if family == "blocked":
        instance = InstanceSpec.from_family("blocked", n, seed=4, num_blockages=5, groups=2)
    elif family == "buffered":
        instance = InstanceSpec.from_family("blocked", n, seed=1, groups=4)
        opt = OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=800.0)
    elif family == "ext-bst":
        router = RouterSpec("ext-bst", {"skew_bound_ps": 10.0})
    elif family == "h-tree":
        router = RouterSpec("h-tree", {"skew_bound_ps": 10.0, "trunk_levels": 2})
    result = run(RunSpec(instance=instance, router=router, opt=opt), keep_tree=True)
    assert result.error is None
    tree = result.routing.tree
    assert (len(tree) >= 2048) == (size == "large")
    if family == "buffered":
        assert tree.num_buffers() >= 1
    return tree


def private_copy(tree: ClockTree) -> ClockTree:
    """A tree over ``tree``'s arena, which copies a column before writing it."""
    return tree.as_arena().to_clock_tree()


def outcome(view, tree):
    """A view's result with every float as its hex string, or its error."""
    try:
        return {node_id: value.hex() for node_id, value in view(tree).items()}
    except (KeyError, ValueError) as exc:
        return type(exc), exc.args


def assert_engine_equals_oracle(tree: ClockTree) -> None:
    for view, oracle in VIEWS:
        assert outcome(view, tree) == outcome(oracle, tree), view.__name__


def assert_reports_identical(tree: ClockTree) -> None:
    # repr covers every field, dict key order and the float types.
    assert repr(skew_report(tree)) == repr(reference.skew_report(tree))


def hand_built(data, orphan: bool) -> ClockTree:
    """A random tree of 2- and 3-way merges and one-child nodes, with some
    buffers and ungrouped sinks, plus (with ``orphan``) one sink never
    attached to it."""
    tech = Technology(
        unit_resistance=0.003,
        unit_capacitance=0.02,
        source_resistance=data.draw(st.sampled_from((0.0, 75.0))),
    )
    lengths = st.floats(0.0, 5000.0)
    tree = ClockTree(technology=tech)
    pending = [
        tree.add_sink(
            Point(float(i), 0.0),
            data.draw(st.floats(0.0, 100.0)),
            group=data.draw(st.sampled_from((None, 0, 1, 2))),
        )
        for i in range(data.draw(st.integers(1, 9)))
    ]
    while len(pending) > 1:
        start = data.draw(st.integers(0, len(pending) - 2))
        count = data.draw(st.integers(2, min(3, len(pending) - start)))
        children = pending[start : start + count]
        node = tree.add_internal(children, [data.draw(lengths) for _ in children])
        if data.draw(st.booleans()):
            node = tree.add_internal([node], [data.draw(lengths)])
        pending[start : start + count] = [node]
    tree.add_source(Point(0.0, 0.0), pending[0], data.draw(lengths))
    if orphan:
        tree.add_sink(Point(-1.0, -1.0), 5.0, group=1)
    library = default_library()
    buffers = st.lists(st.tuples(st.integers(0), st.sampled_from(CELLS)), max_size=3)
    for pick, cell in data.draw(buffers):
        tree.set_buffer(pick % len(tree), cell and library.cell(cell))
    return tree


class TestEngineEqualsObjectWalk:
    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        size=st.sampled_from(sorted(SIZES)),
        edits=st.lists(
            st.tuples(st.integers(0), st.floats(0.0, 4.0), st.sampled_from(CELLS)),
            max_size=6,
        ),
    )
    def test_routes_after_setter_edits(self, family, size, edits):
        tree = private_copy(routed_tree(family, size))
        assert_engine_equals_oracle(tree)
        edges = [node for node in tree.nodes() if node.parent is not None]
        library = default_library()
        for pick, scale, cell in edits:
            node = edges[pick % len(edges)]
            tree.set_edge_length(node.node_id, node.edge_length * scale)
            tree.set_buffer(node.node_id, cell and library.cell(cell))
        assert_engine_equals_oracle(tree)
        assert_reports_identical(tree)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), orphan=st.booleans())
    def test_hand_built_trees(self, data, orphan):
        assert_engine_equals_oracle(hand_built(data, orphan))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_views_build_no_node_objects(self, family, monkeypatch):
        """The dict views read the arena: they create no node views."""
        tree = private_copy(routed_tree(family, "small"))
        created = []
        init = ClockNode.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ClockNode, "__init__", counting_init)
        for view, _ in VIEWS:
            assert view(tree)
        assert not created

    def test_rootless_tree_raises_the_oracle_error(self):
        tree = ClockTree()
        sink = tree.add_sink(Point(0.0, 0.0), 1.0)
        tree.add_internal([sink], [10.0])
        for view, _ in VIEWS:
            with pytest.raises(ValueError, match="no root"):
                view(tree)
        assert_engine_equals_oracle(tree)


class TestSkewReportEqualsPerSinkLoop:
    @pytest.mark.parametrize("size", sorted(SIZES))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_routes(self, family, size):
        assert_reports_identical(routed_tree(family, size))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_hand_built_trees(self, data):
        assert_reports_identical(hand_built(data, orphan=False))

    def test_unreachable_sink_raises_value_error(self):
        tree = private_copy(routed_tree("random", "small"))
        orphan = tree.add_sink(Point(-1.0, -1.0), 5.0, group=1)
        with pytest.raises(ValueError, match="sink %d is not reachable" % orphan):
            skew_report(tree)


class TestSinkGroupsEqualsPerSinkLoop:
    @settings(max_examples=100, deadline=None)
    @given(
        sinks=st.lists(
            st.tuples(st.sampled_from((0, 3, 5)), st.sampled_from((1.0, 2.0, 2.5))),
            min_size=1,
            max_size=20,
        )
    )
    def test_ranges_and_first_roof_sinks(self, sinks):
        # Few distinct delays, so groups tie at their maximum.
        nodes = [SimpleNamespace(node_id=2 * i + 1, group=g) for i, (g, _) in enumerate(sinks)]
        delays = np.zeros(2 * len(sinks) + 1)
        for node, (_, delay) in zip(nodes, sinks):
            delays[node.node_id] = delay
        groups = SinkGroups(
            np.array([node.node_id for node in nodes]), np.array([node.group for node in nodes])
        )
        lo, hi = groups.ranges(delays)
        roofs = groups.roof_sinks(delays, hi)
        expected_lo, expected_hi, expected_roofs = reference.sink_group_ranges(
            nodes, lambda node: node.group, delays.tolist()
        )
        assert groups.keys == list(expected_hi)
        assert lo.tolist() == list(expected_lo.values())
        assert hi.tolist() == list(expected_hi.values())
        assert roofs.tolist() == list(expected_roofs.values())


def assert_summary_equals_per_sink_loop(tree: ClockTree, roots, group_ids) -> None:
    got = subtree_summary(tree.as_arena(), roots, group_ids)
    caps, ranges, counts = reference.subtree_summary(tree, roots, group_ids)
    assert [c.hex() for c in got.caps.tolist()] == [c.hex() for c in caps]
    assert got.sinks.tolist() == counts
    for k in range(len(roots)):
        assert np.flatnonzero(got.present[k]).tolist() == sorted(ranges[k])
        for g in range(len(group_ids)):
            lo, hi = got.delays[k, g].tolist()
            assert (lo.hex(), hi.hex()) == tuple(
                value.hex() for value in ranges[k].get(g, (0.0, 0.0))
            )


class TestSubtreeSummaryEqualsPerSinkLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        size=st.sampled_from(sorted(SIZES)),
        picks=st.lists(st.integers(0), min_size=1, max_size=8),
        one_column=st.booleans(),
    )
    def test_routes(self, family, size, picks, one_column):
        tree = routed_tree(family, size)
        roots = list(dict.fromkeys(pick % len(tree) for pick in picks))
        assert_summary_equals_per_sink_loop(tree, roots, [0] if one_column else tree.groups())

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_hand_built_trees(self, data):
        tree = hand_built(data, orphan=False)
        picks = data.draw(st.lists(st.integers(0, len(tree) - 1), min_size=1, max_size=5))
        groups = sorted({0 if sink.group is None else sink.group for sink in tree.sinks()})
        assert_summary_equals_per_sink_loop(tree, list(dict.fromkeys(picks)), groups)
