"""Direct unit tests for repro.cts.routing (previously only hit indirectly)."""

import pytest

from repro.cts.routing import (
    RectilinearRoute,
    _edge_path,
    _insert_snake,
    _l_shape,
    _serpentine,
    route_edges,
)
from repro.cts.tree import ClockTree
from repro.geometry.obstacles import ObstacleSet, Rect
from repro.geometry.point import Point


def path_length(points):
    return sum(points[i].distance_to(points[i + 1]) for i in range(len(points) - 1))


class TestRectilinearRoute:
    def test_length_sums_manhattan_segments(self):
        route = RectilinearRoute(
            parent_id=0,
            child_id=1,
            points=[Point(0.0, 0.0), Point(3.0, 0.0), Point(3.0, 4.0)],
        )
        assert route.length == pytest.approx(7.0)

    def test_length_of_empty_and_single_point_routes_is_zero(self):
        assert RectilinearRoute(0, 1, points=[]).length == 0.0
        assert RectilinearRoute(0, 1, points=[Point(1.0, 2.0)]).length == 0.0

    def test_detour_is_extra_beyond_direct_distance(self):
        route = RectilinearRoute(
            parent_id=0,
            child_id=1,
            points=[Point(0.0, 0.0), Point(0.0, 5.0), Point(0.0, 0.0), Point(10.0, 0.0)],
        )
        assert route.length == pytest.approx(20.0)
        assert route.detour == pytest.approx(10.0)

    def test_detour_zero_for_straight_and_degenerate_routes(self):
        straight = RectilinearRoute(0, 1, points=[Point(0.0, 0.0), Point(4.0, 0.0)])
        assert straight.detour == 0.0
        assert RectilinearRoute(0, 1, points=[Point(2.0, 2.0)]).detour == 0.0

    def test_segments_yields_consecutive_pairs(self):
        points = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 2.0)]
        route = RectilinearRoute(0, 1, points=points)
        assert list(route.segments()) == [(points[0], points[1]), (points[1], points[2])]


class TestLShape:
    def test_diagonal_gets_corner_horizontal_first(self):
        start, end = Point(0.0, 0.0), Point(10.0, 5.0)
        assert _l_shape(start, end) == [start, Point(10.0, 0.0), end]

    def test_axis_aligned_pairs_stay_two_points(self):
        assert _l_shape(Point(0.0, 0.0), Point(10.0, 0.0)) == [Point(0.0, 0.0), Point(10.0, 0.0)]
        assert _l_shape(Point(3.0, 1.0), Point(3.0, 9.0)) == [Point(3.0, 1.0), Point(3.0, 9.0)]

    def test_coincident_points(self):
        assert _l_shape(Point(1.0, 1.0), Point(1.0, 1.0)) == [Point(1.0, 1.0), Point(1.0, 1.0)]


class TestSerpentine:
    def test_extra_zero_produces_no_points(self):
        assert _serpentine(Point(0.0, 0.0), 0.0, pitch=10.0) == []

    def test_total_length_matches_extra(self):
        anchor = Point(5.0, 5.0)
        for extra in (0.5, 7.0, 23.0, 120.0):
            points = [anchor] + _serpentine(anchor, extra, pitch=10.0)
            assert path_length(points) == pytest.approx(extra, abs=1e-6)

    def test_extra_below_pitch_halves_the_step(self):
        # extra <= 2 * pitch: one up-and-back excursion of extra/2 each way.
        points = _serpentine(Point(0.0, 0.0), 6.0, pitch=10.0)
        assert points == [Point(0.0, 3.0), Point(0.0, 0.0)]

    def test_large_extra_oscillates_with_pitch(self):
        anchor = Point(0.0, 0.0)
        points = _serpentine(anchor, 40.0, pitch=10.0)
        assert path_length([anchor] + points) == pytest.approx(40.0)
        # Excursions never exceed the pitch.
        assert max(abs(p.y - anchor.y) for p in points) <= 10.0 + 1e-9

    def test_horizontal_axis_oscillates_x(self):
        points = _serpentine(Point(0.0, 0.0), 6.0, pitch=10.0, axis="x")
        assert points == [Point(3.0, 0.0), Point(0.0, 0.0)]
        assert all(p.y == 0.0 for p in points)

    def test_serpentine_returns_to_anchor(self):
        anchor = Point(2.0, 7.0)
        points = _serpentine(anchor, 36.0, pitch=5.0)
        assert points[-1] == anchor


class TestRouteEdges:
    def build_tree(self, left_len=1300.0, right_len=500.0):
        tree = ClockTree()
        s0 = tree.add_sink(Point(0.0, 0.0), 10.0)
        s1 = tree.add_sink(Point(1000.0, 0.0), 10.0)
        m0 = tree.add_internal([s0, s1], [left_len, right_len], location=Point(500.0, 0.0))
        tree.add_source(Point(500.0, 100.0), m0, 100.0)
        return tree, s0, s1, m0

    def test_route_lengths_equal_booked_lengths(self):
        tree, s0, s1, m0 = self.build_tree()
        routes = route_edges(tree)
        for child_id, route in routes.items():
            assert route.length == pytest.approx(tree.node(child_id).edge_length, abs=1e-6)
            assert route.booked_length == tree.node(child_id).edge_length

    def test_routes_keyed_by_child_and_carry_parent(self):
        tree, s0, s1, m0 = self.build_tree()
        routes = route_edges(tree)
        assert set(routes) == {s0, s1, m0}
        assert routes[s0].parent_id == m0
        assert routes[m0].parent_id == tree.root_id

    def test_snake_pitch_bounds_the_zigzag(self):
        tree, s0, _, _ = self.build_tree(left_len=2000.0)
        routes = route_edges(tree, snake_pitch=25.0)
        ys = [p.y for p in routes[s0].points]
        assert max(ys) <= 25.0 + 1e-9
        assert min(ys) >= -25.0 - 1e-9
        assert routes[s0].length == pytest.approx(2000.0, abs=1e-6)

    def test_missing_embedding_raises(self):
        tree = ClockTree()
        s0 = tree.add_sink(Point(0.0, 0.0), 10.0)
        m0 = tree.add_internal([s0], [10.0])  # merge node without a location
        tree.add_source(Point(10.0, 0.0), m0, 0.0)
        with pytest.raises(ValueError, match="not embedded"):
            route_edges(tree)

    def test_empty_obstacle_set_is_identical_to_none(self):
        tree, *_ = self.build_tree()
        assert {
            k: r.points for k, r in route_edges(tree, obstacles=ObstacleSet()).items()
        } == {k: r.points for k, r in route_edges(tree).items()}


class TestRouteEdgesWithObstacles:
    def build_blocked_tree(self):
        """Parent and child on opposite sides of a blockage."""
        tree = ClockTree()
        s0 = tree.add_sink(Point(0.0, 50.0), 10.0)
        # Both L-shapes cross the 100x100 blockage; the shortest escape path
        # dips to its boundary: 300 direct + 2 * 50 vertical = 400.
        m0 = tree.add_internal([s0], [400.0], location=Point(300.0, 50.0))
        tree.add_source(Point(300.0, 50.0), m0, 0.0)
        obstacles = ObstacleSet((Rect(100.0, 0.0, 200.0, 100.0),))
        return tree, s0, obstacles

    def test_blocked_edge_routes_around(self):
        tree, s0, obstacles = self.build_blocked_tree()
        routes = route_edges(tree, obstacles=obstacles)
        route = routes[s0]
        assert not obstacles.blocks_path(route.points)
        assert route.length == pytest.approx(400.0, abs=1e-6)
        assert route.points[0] == Point(300.0, 50.0)
        assert route.points[-1] == Point(0.0, 50.0)

    def test_underbooked_blocked_edge_raises(self):
        tree, s0, obstacles = self.build_blocked_tree()
        tree.set_edge_length(s0, 350.0)  # covers the direct 300 but not the 400 detour
        with pytest.raises(ValueError, match="blockage-avoiding path"):
            route_edges(tree, obstacles=obstacles)

    def test_snake_avoids_obstacles(self):
        tree = ClockTree()
        # A straight horizontal edge hugging a blockage above: the default
        # upward serpentine would cross it, so the router must flip or shrink.
        s0 = tree.add_sink(Point(0.0, 0.0), 10.0)
        m0 = tree.add_internal([s0], [150.0], location=Point(100.0, 0.0))
        tree.add_source(Point(100.0, 0.0), m0, 0.0)
        obstacles = ObstacleSet((Rect(-50.0, 0.0, 150.0, 60.0),))
        routes = route_edges(tree, snake_pitch=10.0, obstacles=obstacles)
        assert not obstacles.blocks_path(routes[s0].points)
        assert routes[s0].length == pytest.approx(150.0, abs=1e-6)

    def test_obstacle_free_paths_unchanged_by_obstacles_elsewhere(self):
        tree = ClockTree()
        s0 = tree.add_sink(Point(0.0, 0.0), 10.0)
        m0 = tree.add_internal([s0], [200.0], location=Point(100.0, 0.0))
        tree.add_source(Point(100.0, 0.0), m0, 0.0)
        far_away = ObstacleSet((Rect(10_000.0, 10_000.0, 11_000.0, 11_000.0),))
        assert {
            k: r.points for k, r in route_edges(tree, obstacles=far_away).items()
        } == {k: r.points for k, r in route_edges(tree).items()}


def view_walk_routes(tree, snake_pitch=10.0, obstacles=None):
    """``route_edges`` as the walk over node views it replaced (the oracle)."""
    if obstacles is not None and not obstacles:
        obstacles = None
    routes = {}
    for node in tree.nodes():
        if node.parent is None:
            continue
        parent = tree.node(node.parent)
        path = _edge_path(parent.location, node.location, obstacles)
        extra = node.edge_length - path_length(path)
        if extra > 1e-6:
            path = _insert_snake(path, extra, snake_pitch, obstacles)
        routes[node.node_id] = RectilinearRoute(
            parent_id=parent.node_id,
            child_id=node.node_id,
            points=path,
            booked_length=node.edge_length,
        )
    return routes


class TestColumnWalk:
    @pytest.mark.parametrize("family", ["random", "blocked"])
    def test_routes_match_the_view_walk(self, family):
        """The columns of one arena give every route, in node order, that
        walking the node views gives."""
        from repro.api.runner import run
        from repro.api.spec import InstanceSpec, RunSpec

        if family == "blocked":
            instance = InstanceSpec.from_family("blocked", 400, seed=2, groups=4)
        else:
            instance = InstanceSpec.from_random(300, seed=2, groups=4)
        routing = run(RunSpec(instance=instance), keep_tree=True).routing
        obstacles = routing.instance.obstacle_set() or None
        got = route_edges(routing.tree, snake_pitch=25.0, obstacles=obstacles)
        expected = view_walk_routes(routing.tree, snake_pitch=25.0, obstacles=obstacles)
        assert list(got) == list(expected)
        assert got == expected
