"""Tests for the clock-tree data structure (repro.cts.tree)."""

import pytest

from repro.cts.tree import ClockTree
from repro.geometry.point import Point


def build_sample_tree():
    tree = ClockTree()
    s0 = tree.add_sink(Point(0, 0), 10.0, group=0, name="ff0")
    s1 = tree.add_sink(Point(100, 0), 20.0, group=1)
    s2 = tree.add_sink(Point(50, 80), 30.0, group=0)
    m0 = tree.add_internal([s0, s1], [50.0, 50.0], location=Point(50, 0))
    m1 = tree.add_internal([m0, s2], [40.0, 40.0], location=Point(50, 40))
    root = tree.add_source(Point(50, 100), m1, 60.0)
    return tree, (s0, s1, s2, m0, m1, root)


class TestConstruction:
    def test_node_kinds(self):
        tree, (s0, _, _, m0, _, root) = build_sample_tree()
        assert tree.node(s0).is_sink
        assert tree.node(m0).is_internal
        assert tree.node(root).is_source

    def test_len_and_contains(self):
        tree, nodes = build_sample_tree()
        assert len(tree) == 6
        assert nodes[0] in tree
        assert 999 not in tree

    def test_negative_sink_cap_raises(self):
        tree = ClockTree()
        with pytest.raises(ValueError):
            tree.add_sink(Point(0, 0), -1.0)

    def test_mismatched_children_lengths_raise(self):
        tree = ClockTree()
        s = tree.add_sink(Point(0, 0), 1.0)
        with pytest.raises(ValueError):
            tree.add_internal([s], [1.0, 2.0])

    def test_internal_without_children_raises(self):
        tree = ClockTree()
        with pytest.raises(ValueError):
            tree.add_internal([], [])

    def test_double_parent_raises(self):
        tree = ClockTree()
        s = tree.add_sink(Point(0, 0), 1.0)
        tree.add_internal([s], [5.0])
        other = tree.add_sink(Point(1, 1), 1.0)
        with pytest.raises(ValueError):
            tree.attach(other, s, 3.0)

    def test_negative_edge_length_raises(self):
        tree = ClockTree()
        a = tree.add_sink(Point(0, 0), 1.0)
        b = tree.add_sink(Point(1, 1), 1.0)
        with pytest.raises(ValueError):
            tree.add_internal([a, b], [1.0, -1.0])


class TestQueries:
    def test_sinks_and_groups(self):
        tree, _ = build_sample_tree()
        assert len(tree.sinks()) == 3
        assert tree.groups() == [0, 1]

    def test_root_before_source_raises(self):
        tree = ClockTree()
        tree.add_sink(Point(0, 0), 1.0)
        with pytest.raises(ValueError):
            tree.root()

    def test_topological_order_has_parents_first(self):
        tree, _ = build_sample_tree()
        order = tree.topological_order()
        positions = {nid: i for i, nid in enumerate(order)}
        for node in tree.nodes():
            if node.parent is not None:
                assert positions[node.parent] < positions[node.node_id]
        assert len(order) == len(tree)

    def test_reverse_topological_order(self):
        tree, _ = build_sample_tree()
        assert tree.reverse_topological_order() == list(reversed(tree.topological_order()))

    def test_path_to_root(self):
        tree, (s0, _, _, m0, m1, root) = build_sample_tree()
        assert tree.path_to_root(s0) == [s0, m0, m1, root]

    def test_children_of(self):
        tree, (s0, s1, _, m0, _, _) = build_sample_tree()
        assert [n.node_id for n in tree.children_of(m0)] == [s0, s1]

    def test_depth(self):
        tree, _ = build_sample_tree()
        assert tree.depth() == 3


class TestMetrics:
    def test_total_wirelength(self):
        tree, _ = build_sample_tree()
        assert tree.total_wirelength() == pytest.approx(50 + 50 + 40 + 40 + 60)

    def test_snaking_wirelength(self):
        tree, (s0, _, _, m0, _, _) = build_sample_tree()
        # Edge m0 -> s0 books 50 for a Manhattan distance of 50: no snaking.
        assert tree.snaking_wirelength() == pytest.approx(
            sum(
                max(0.0, n.edge_length - n.location.distance_to(tree.node(n.parent).location))
                for n in tree.nodes()
                if n.parent is not None
            )
        )

    def test_set_edge_length(self):
        tree, (s0, *_rest) = build_sample_tree()
        tree.set_edge_length(s0, 75.0)
        assert tree.node(s0).edge_length == 75.0
        with pytest.raises(ValueError):
            tree.set_edge_length(s0, -1.0)


class TestExport:
    def test_to_networkx_structure(self):
        pytest.importorskip("networkx")
        tree, _ = build_sample_tree()
        graph = tree.to_networkx()
        assert graph.number_of_nodes() == len(tree)
        assert graph.number_of_edges() == len(tree) - 1
        import networkx as nx

        assert nx.is_directed_acyclic_graph(graph)
