"""Unit and property tests for the rectilinear blockage layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.validate import validate_routes, validate_tree
from repro.api.registry import get_router
from repro.cts.routing import route_edges
from repro.geometry.obstacles import ObstacleSet, Rect, _simplify, path_length
from repro.geometry.point import Point

# ----------------------------------------------------------------------
# Rect
# ----------------------------------------------------------------------
class TestRect:
    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Rect(10.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            Rect(0.0, 10.0, 10.0, 0.0)

    def test_dimensions(self):
        rect = Rect(0.0, 0.0, 4.0, 3.0)
        assert rect.width == 4.0
        assert rect.height == 3.0
        assert rect.area == 12.0

    def test_contains_vs_interior(self):
        rect = Rect(0.0, 0.0, 10.0, 10.0)
        boundary = Point(0.0, 5.0)
        inside = Point(5.0, 5.0)
        outside = Point(11.0, 5.0)
        assert rect.contains_point(boundary) and not rect.interior_contains(boundary)
        assert rect.contains_point(inside) and rect.interior_contains(inside)
        assert not rect.contains_point(outside)

    def test_expanded(self):
        assert Rect(0.0, 0.0, 2.0, 2.0).expanded(1.0) == Rect(-1.0, -1.0, 3.0, 3.0)

    def test_blocks_segment_through_interior(self):
        rect = Rect(0.0, 0.0, 10.0, 10.0)
        assert rect.blocks_segment(Point(-5.0, 5.0), Point(15.0, 5.0))
        assert rect.blocks_segment(Point(5.0, -5.0), Point(5.0, 15.0))

    def test_boundary_run_is_legal(self):
        rect = Rect(0.0, 0.0, 10.0, 10.0)
        assert not rect.blocks_segment(Point(-5.0, 0.0), Point(15.0, 0.0))
        assert not rect.blocks_segment(Point(10.0, -5.0), Point(10.0, 15.0))

    def test_segment_outside_does_not_block(self):
        rect = Rect(0.0, 0.0, 10.0, 10.0)
        assert not rect.blocks_segment(Point(-5.0, 20.0), Point(15.0, 20.0))
        assert not rect.blocks_segment(Point(2.0, 12.0), Point(8.0, 12.0))

    def test_degenerate_segment_blocks_only_inside(self):
        rect = Rect(0.0, 0.0, 10.0, 10.0)
        assert rect.blocks_segment(Point(5.0, 5.0), Point(5.0, 5.0))
        assert not rect.blocks_segment(Point(0.0, 0.0), Point(0.0, 0.0))

    def test_diagonal_segment_raises(self):
        with pytest.raises(ValueError, match="axis-aligned"):
            Rect(0.0, 0.0, 1.0, 1.0).blocks_segment(Point(-1.0, -1.0), Point(2.0, 2.0))

    def test_overlaps(self):
        a = Rect(0.0, 0.0, 10.0, 10.0)
        assert a.overlaps(Rect(5.0, 5.0, 15.0, 15.0))
        assert not a.overlaps(Rect(10.0, 0.0, 20.0, 10.0))  # shared edge only
        assert not a.overlaps(Rect(50.0, 50.0, 60.0, 60.0))


# ----------------------------------------------------------------------
# ObstacleSet
# ----------------------------------------------------------------------
class TestObstacleSet:
    def test_tuple_round_trip(self):
        obstacles = ObstacleSet.from_tuples([(0, 0, 1, 2), (3, 3, 4, 5)])
        assert len(obstacles) == 2
        assert ObstacleSet.from_tuples(obstacles.to_tuples()) == obstacles

    def test_empty_set_is_falsy_and_blocks_nothing(self):
        empty = ObstacleSet()
        assert not empty
        assert not empty.blocks_point(Point(0.0, 0.0))
        assert empty.detour_distance(Point(0.0, 0.0), Point(3.0, 4.0)) == 7.0

    def test_rejects_non_rects(self):
        with pytest.raises(TypeError):
            ObstacleSet(((0, 0, 1, 1),))

    def test_route_prefers_horizontal_first_l_shape(self):
        obstacles = ObstacleSet((Rect(100.0, 100.0, 200.0, 200.0),))
        start, end = Point(0.0, 0.0), Point(50.0, 50.0)
        assert obstacles.route(start, end) == [start, Point(50.0, 0.0), end]

    def test_route_falls_back_to_vertical_first_l_shape(self):
        # Blockage sits on the horizontal-first corner only.
        obstacles = ObstacleSet((Rect(40.0, -10.0, 60.0, 30.0),))
        start, end = Point(0.0, 0.0), Point(50.0, 50.0)
        path = obstacles.route(start, end)
        assert path == [start, Point(0.0, 50.0), end]
        assert not obstacles.blocks_path(path)

    def test_route_escapes_around_blockage(self):
        obstacles = ObstacleSet((Rect(10.0, 10.0, 20.0, 20.0),))
        start, end = Point(0.0, 15.0), Point(30.0, 15.0)
        path = obstacles.route(start, end)
        assert not obstacles.blocks_path(path)
        assert obstacles.detour_distance(start, end) == pytest.approx(40.0)

    def test_route_from_inside_raises(self):
        obstacles = ObstacleSet((Rect(0.0, 0.0, 10.0, 10.0),))
        with pytest.raises(ValueError, match="inside a blockage"):
            obstacles.route(Point(5.0, 5.0), Point(20.0, 20.0))

    def test_nearest_free_point_identity_outside(self):
        obstacles = ObstacleSet((Rect(0.0, 0.0, 10.0, 10.0),))
        assert obstacles.nearest_free_point(Point(20.0, 20.0)) == Point(20.0, 20.0)

    def test_nearest_free_point_projects_to_boundary(self):
        obstacles = ObstacleSet((Rect(0.0, 0.0, 10.0, 10.0),))
        freed = obstacles.nearest_free_point(Point(5.0, 9.0))
        assert freed == Point(5.0, 10.0)
        assert not obstacles.blocks_point(freed)

    def test_simplify_drops_duplicates_and_collinear_points(self):
        points = [
            Point(0.0, 0.0),
            Point(0.0, 0.0),
            Point(5.0, 0.0),
            Point(10.0, 0.0),
            Point(10.0, 5.0),
        ]
        assert _simplify(points) == [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 5.0)]


# ----------------------------------------------------------------------
# Property tests (hypothesis): random rect sets + seeds
# ----------------------------------------------------------------------
def rects_strategy(max_rects=4):
    coord = st.integers(min_value=1, max_value=18)
    def make_rect(t):
        x, y, w, h = t
        return Rect(float(x * 5), float(y * 5), float(x * 5 + w * 5), float(y * 5 + h * 5))
    rect = st.tuples(coord, coord, st.integers(1, 4), st.integers(1, 4)).map(make_rect)
    return st.lists(rect, min_size=1, max_size=max_rects).map(
        lambda rs: ObstacleSet(tuple(rs))
    )


def free_point_strategy():
    return st.tuples(
        st.integers(min_value=-10, max_value=130), st.integers(min_value=-10, max_value=130)
    ).map(lambda t: Point(float(t[0]), float(t[1])))


class TestRoutingProperties:
    @settings(max_examples=120, deadline=None)
    @given(rects_strategy(), free_point_strategy(), free_point_strategy())
    def test_route_never_crosses_an_interior(self, obstacles, start, end):
        if obstacles.blocks_point(start) or obstacles.blocks_point(end):
            return
        path = obstacles.route(start, end)
        assert path[0] == start and path[-1] == end
        assert not obstacles.blocks_path(path)

    @settings(max_examples=120, deadline=None)
    @given(rects_strategy(), free_point_strategy(), free_point_strategy())
    def test_detour_at_least_manhattan_and_symmetric(self, obstacles, start, end):
        if obstacles.blocks_point(start) or obstacles.blocks_point(end):
            # Failed queries are not memoised: every call raises again.
            for _ in range(2):
                with pytest.raises(ValueError, match="inside a blockage"):
                    obstacles.detour_distance(start, end)
            return
        detour = obstacles.detour_distance(start, end)
        assert detour >= start.distance_to(end) - 1e-6
        assert detour == pytest.approx(obstacles.detour_distance(end, start), abs=1e-6)
        # The memo: a repeat call and a fresh equal set both return exactly
        # the routed path's length, and a warm memo leaves ==/hash alone.
        exact = path_length(obstacles.route(start, end))
        fresh = ObstacleSet(obstacles.rects)
        assert fresh == obstacles and hash(fresh) == hash(obstacles)
        computed = obstacles.detours_computed
        assert obstacles.detour_distance(start, end) == detour == exact
        assert obstacles.detours_computed == computed  # served from the memo
        assert obstacles.detour_distance(start, start) == 0.0  # keyed by both ends
        assert fresh.detour_distance(start, end) == exact
        assert ObstacleSet(obstacles.rects) == obstacles
        assert hash(ObstacleSet(obstacles.rects)) == hash(obstacles)

    @settings(max_examples=80, deadline=None)
    @given(
        rects_strategy(),
        st.lists(free_point_strategy(), max_size=30),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_blocks_points_is_blocks_point_per_point(self, obstacles, points, nudge):
        """The array form agrees point for point, on boundaries (the integer
        grid the rects live on), just off them and at NaN (never blocked)."""
        xs = [p.x + nudge * 1e-6 for p in points] + [float("nan")]
        ys = [p.y for p in points] + [50.0]
        expected = [obstacles.blocks_point(Point(x, y)) for x, y in zip(xs[:-1], ys)] + [False]
        assert obstacles.blocks_points(np.array(xs), np.array(ys)).tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(rects_strategy(), free_point_strategy())
    def test_nearest_free_point_is_free(self, obstacles, point):
        freed = obstacles.nearest_free_point(point)
        assert not obstacles.blocks_point(freed)
        if not obstacles.blocks_point(point):
            assert freed == point


class TestRoutedTreeProperties:
    """End-to-end: routed trees with blockages vs. the same instance without."""

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_blockages_never_reduce_wirelength_and_tree_stays_clean(self, seed):
        from repro.circuits.benchmarks import blocked_instance

        instance = blocked_instance("prop", 24, seed=seed, layout_size=10_000.0)
        router = get_router("greedy-dme", {})
        with_obstacles = router.route(instance)
        without = router.route(instance.without_obstacles())
        assert with_obstacles.wirelength >= without.wirelength - 1e-6

        obstacles = instance.obstacle_set()
        issues = validate_tree(with_obstacles.tree, instance)
        assert [i for i in issues if i.code == "blockage"] == []

        routes = route_edges(with_obstacles.tree, obstacles=obstacles)
        assert validate_routes(routes, obstacles) == []
        for child_id, route in routes.items():
            booked = with_obstacles.tree.node(child_id).edge_length
            assert route.length == pytest.approx(booked, abs=1e-5)
