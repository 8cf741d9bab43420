"""Tests for top-down embedding and rectilinear routing."""

import pytest

from repro.cts.routing import route_edges
from repro.cts.tree import ClockTree
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from tests.reference_dme import embed_tree


def build_unembedded_tree():
    """Two sinks, one merge node without a location, plus the source."""
    tree = ClockTree()
    s0 = tree.add_sink(Point(0.0, 0.0), 10.0, group=0)
    s1 = tree.add_sink(Point(2000.0, 0.0), 10.0, group=0)
    m0 = tree.add_internal([s0, s1], [1000.0, 1000.0])
    tree.add_source(Point(1000.0, 500.0), m0, 500.0)
    loci = {m0: Trr.from_points([Point(1000.0, 0.0)])}
    return tree, m0, loci


class TestEmbedTree:
    def test_assigns_location_from_locus(self):
        tree, m0, loci = build_unembedded_tree()
        embed_tree(tree, loci)
        assert tree.node(m0).location == Point(1000.0, 0.0)

    def test_existing_locations_are_kept(self):
        tree, m0, loci = build_unembedded_tree()
        tree.set_location(m0, Point(1000.0, 0.0))
        embed_tree(tree, {})
        assert tree.node(m0).location == Point(1000.0, 0.0)

    def test_missing_locus_raises(self):
        tree, _, _ = build_unembedded_tree()
        with pytest.raises(ValueError):
            embed_tree(tree, {})

    def test_root_without_location_needs_source_location(self):
        tree, m0, loci = build_unembedded_tree()
        tree.set_location(tree.root_id, None)
        with pytest.raises(ValueError):
            embed_tree(tree, loci)
        embed_tree(tree, loci, source_location=Point(1000.0, 500.0))
        assert tree.root().location == Point(1000.0, 500.0)

    def test_overbooked_geometry_raises(self):
        tree = ClockTree()
        s0 = tree.add_sink(Point(0.0, 0.0), 10.0)
        m0 = tree.add_internal([s0], [10.0])  # books only 10 um
        tree.add_source(Point(5000.0, 0.0), m0, 0.0)
        with pytest.raises(ValueError):
            embed_tree(tree, {m0: Trr.from_point(Point(5000.0, 0.0))})

    def test_child_placed_within_edge_budget(self):
        tree, m0, loci = build_unembedded_tree()
        embed_tree(tree, loci)
        child = tree.node(m0)
        parent = tree.node(child.parent)
        assert parent.location.distance_to(child.location) <= child.edge_length + 1e-6


class TestRouteEdges:
    def test_route_lengths_match_booked_lengths(self):
        tree, _, loci = build_unembedded_tree()
        embed_tree(tree, loci)
        routes = route_edges(tree)
        for child_id, route in routes.items():
            assert route.length == pytest.approx(tree.node(child_id).edge_length, abs=1e-6)

    def test_snaked_edge_gets_detour(self):
        tree = ClockTree()
        s0 = tree.add_sink(Point(0.0, 0.0), 10.0)
        s1 = tree.add_sink(Point(1000.0, 0.0), 10.0)
        # Book 800 extra um on the left edge (wire snaking).
        m0 = tree.add_internal([s0, s1], [1300.0, 500.0], location=Point(500.0, 0.0))
        tree.add_source(Point(500.0, 100.0), m0, 100.0)
        routes = route_edges(tree)
        assert routes[s0].detour == pytest.approx(800.0, abs=1e-6)
        assert routes[s0].length == pytest.approx(1300.0, abs=1e-6)
        assert routes[s1].detour == pytest.approx(0.0, abs=1e-6)

    def test_unembedded_tree_raises(self):
        tree, _, _ = build_unembedded_tree()
        with pytest.raises(ValueError):
            route_edges(tree)

    def test_routes_start_and_end_at_node_locations(self):
        tree, _, loci = build_unembedded_tree()
        embed_tree(tree, loci)
        routes = route_edges(tree)
        for child_id, route in routes.items():
            child = tree.node(child_id)
            parent = tree.node(child.parent)
            assert route.points[0] == parent.location
            assert route.points[-1] == child.location
