"""Unit and property tests for the rectilinear blockage layer."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.validate import validate_routes, validate_tree
from repro.api.registry import get_router
from repro.cts.routing import route_edges
from repro.geometry.obstacles import _TOL, ObstacleSet, Rect, _simplify, path_length
from repro.geometry.point import Point
from tests.reference_geometry import ReferenceObstacles
from tests.reference_geometry import path_length as reference_path_length

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

    def test_compiled_bounds_are_not_part_of_the_value(self):
        rects = (Rect(0.0, 0.0, 1.0, 2.0), Rect(3.0, 3.0, 4.0, 5.0))
        obstacles = ObstacleSet(rects)
        assert [f.name for f in dataclasses.fields(ObstacleSet)] == ["rects", "_memo"]
        assert repr(obstacles) == "ObstacleSet(rects=%r)" % (rects,)
        assert obstacles == ObstacleSet(list(rects)) and hash(obstacles) == hash((rects,))
        assert obstacles._bounds == ((0.0, 0.0, 1.0, 2.0), (3.0, 3.0, 4.0, 5.0))
        assert obstacles._columns.tolist() == [[0.0, 3.0], [0.0, 3.0], [1.0, 4.0], [2.0, 5.0]]

    def test_diagonal_segment_raises_only_with_rects(self):
        """``any`` over no rects never asked a rect, so it never raised."""
        a, b = Point(-1.0, -1.0), Point(2.0, 2.0)
        assert ObstacleSet().blocks_segment(a, b) is False
        with pytest.raises(ValueError, match="axis-aligned"):
            ObstacleSet((Rect(5.0, 5.0, 6.0, 6.0),)).blocks_segment(a, b)

    def test_path_length_sums_from_a_float_zero(self):
        assert path_length([]) == 0.0 and type(path_length([Point(1.0, 2.0)])) is float
        assert path_length([Point(0.0, 0.0), Point(3.0, 0.0), Point(3.0, -4.0)]) == 7.0

    def test_coincident_endpoints_memoise_a_float(self):
        obstacles = ObstacleSet((Rect(5.0, 5.0, 6.0, 6.0),))
        point = Point(1.0, 2.0)
        assert obstacles.detour_distance(point, point).hex() == "0x0.0p+0"
        assert [type(v) for v in obstacles._memo.distances.values()] == [float]

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


# ----------------------------------------------------------------------
# The compiled set against the per-rect oracle (tests/reference_geometry.py)
# ----------------------------------------------------------------------
#: Offsets that put coordinates exactly on a grid line, just inside or just
#: outside the query tolerance of it, or between two lines closer than it.
_NUDGES = (0.0, _TOL, -_TOL, 0.5 * _TOL, -0.5 * _TOL, 2.0 * _TOL)


def _grid(low, high):
    """Multiples of 5 (so rects share edges, touch, overlap and nest), some
    nudged off them."""
    return st.builds(
        lambda k, nudge: 5.0 * k + nudge, st.integers(low, high), st.sampled_from(_NUDGES)
    )


def _extent():
    """Rect sides: zero, thinner than the tolerance, or grid multiples."""
    return st.one_of(
        st.sampled_from((0.0, 0.5 * _TOL, _TOL)),
        st.builds(lambda k, nudge: 5.0 * k + abs(nudge), st.integers(1, 3), st.sampled_from(_NUDGES)),
    )


def _rect():
    return st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h), _grid(0, 8), _grid(0, 8), _extent(), _extent()
    )


@st.composite
def _scenes(draw, max_rects=5, max_segments=6):
    """A rect set (possibly empty) and endpoint pairs around it.

    Endpoint coordinates sit on the rects' own edges or on the grid, exactly
    or nudged by up to twice the tolerance, so they land on boundaries, just
    inside or outside them, and on Hanan lines closer together than the
    tolerance.  The pairs are equal, collinear on either axis (or off by less
    than the tolerance), or general: an L or a diagonal."""
    rects = draw(st.lists(_rect(), max_size=max_rects))
    lines = (
        sorted({r.xmin for r in rects} | {r.xmax for r in rects}),
        sorted({r.ymin for r in rects} | {r.ymax for r in rects}),
    )

    def coordinate(axis):
        if lines[axis] and draw(st.booleans()):
            base = draw(st.sampled_from(lines[axis]))
        else:
            base = 5.0 * draw(st.integers(-1, 12))
        return base + draw(st.sampled_from(_NUDGES))

    segments = []
    for _ in range(draw(st.integers(1, max_segments))):
        a = Point(coordinate(0), coordinate(1))
        kind = draw(st.sampled_from(("equal", "vertical", "horizontal", "near", "general")))
        if kind == "equal":
            b = Point(a.x, a.y)
        elif kind == "vertical":
            b = Point(a.x, coordinate(1))
        elif kind == "horizontal":
            b = Point(coordinate(0), a.y)
        elif kind == "near":
            b = Point(a.x + draw(st.sampled_from((0.5 * _TOL, -0.5 * _TOL, _TOL))), coordinate(1))
        else:
            b = Point(coordinate(0), coordinate(1))
        segments.append((a, b))
    return rects, segments


def _bits(value):
    """A value's type, and a float's exact bits."""
    return type(value).__name__, value.hex() if isinstance(value, float) else value


def _outcome(query, *args):
    """A query's answer by :func:`_bits`, or its error's message."""
    try:
        return "ok", _bits(query(*args))
    except ValueError as error:
        return "error", str(error)


def _assert_predicates_match(rects, segments):
    compiled, oracle = ObstacleSet(tuple(rects)), ReferenceObstacles(rects)
    for a, b in segments:
        for point in (a, b):
            assert compiled.blocks_point(point) is oracle.blocks_point(point)
        assert _outcome(compiled.blocks_segment, a, b) == _outcome(oracle.blocks_segment, a, b)
        path = [a, Point(b.x, a.y), b]
        assert _outcome(compiled.blocks_path, path) == _outcome(oracle.blocks_path, path)


def _assert_paths_match(rects, segments):
    compiled, oracle = ObstacleSet(tuple(rects)), ReferenceObstacles(rects)
    for a, b in segments:
        assert compiled.l_shape_path(a, b) == oracle.l_shape_path(a, b)
        routed = _outcome(compiled.route, a, b)
        assert routed == _outcome(oracle.route, a, b)
        if routed[0] == "ok":
            path = routed[1][1]
            assert _bits(path_length(path)) == _bits(reference_path_length(path))
        if rects and not (oracle.blocks_point(a) or oracle.blocks_point(b)):
            # The escape route itself, also where an L-shape exists.
            escaped = _outcome(compiled._escape_route, a, b)
            assert escaped == _outcome(oracle.escape_route, a, b)


def _assert_detours_match(rects, queries):
    """Detours equal by ``float.hex`` and errors equal, query by query; then
    the memo (keys in insertion order, values by bits) and its counter."""
    compiled, oracle = ObstacleSet(tuple(rects)), ReferenceObstacles(rects)
    for a, b in queries:
        assert _outcome(compiled.detour_distance, a, b) == _outcome(oracle.detour_distance, a, b)
    assert compiled.detours_computed == oracle.computed
    memo = compiled._memo.distances
    assert list(memo) == list(oracle.distances)
    assert [_bits(v) for v in memo.values()] == [_bits(v) for v in oracle.distances.values()]


def _transposed(scene):
    rects, segments = scene
    return (
        [Rect(r.ymin, r.xmin, r.ymax, r.xmax) for r in rects],
        [(Point(a.y, a.x), Point(b.y, b.x)) for a, b in segments],
    )


#: Scenes on the exact tolerance boundaries, where random draws rarely land.
#: A wire running _TOL inside a rect's edge is legal, and the line on the
#: edge itself is blocked by a second rect reaching 1.5 _TOL over it, so a
#: boundary test that is off by one comparison changes the escape route.
#: Around the rect at the origin, a wire overlaps the interior by exactly
#: _TOL (exact at 0.0), which does not block either.
_BOUNDARY_SCENES = [
    ([Rect(10.0, 10.0, 20.0, 20.0), Rect(8.0, 0.0, 22.0, 10.0 + 1.5 * _TOL)],
     [(Point(5.0, 10.0 + _TOL), Point(25.0, 10.0 + _TOL))]),
    ([Rect(10.0, 0.0, 20.0, 10.0), Rect(8.0, 10.0 - 1.5 * _TOL, 22.0, 20.0)],
     [(Point(5.0, 10.0 - _TOL), Point(25.0, 10.0 - _TOL))]),
    ([Rect(0.0, 0.0, 10.0, 10.0)],
     [(Point(-5.0, 5.0), Point(_TOL, 5.0)), (Point(15.0, 5.0), Point(10.0 - _TOL, 5.0))]),
]
_BOUNDARY_SCENES += [_transposed(scene) for scene in _BOUNDARY_SCENES]


class TestCompiledSetMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(_scenes())
    def test_predicates_return_equal_booleans(self, scene):
        _assert_predicates_match(*scene)

    @settings(max_examples=300, deadline=None)
    @given(_scenes())
    def test_l_shapes_routes_and_escapes_are_equal_point_for_point(self, scene):
        _assert_paths_match(*scene)

    @settings(max_examples=200, deadline=None)
    @given(_scenes(), st.randoms())
    def test_detour_sequences_leave_equal_memos(self, scene, rng):
        """Over a sequence that repeats queries, reverses them and includes
        failing ones."""
        rects, segments = scene
        queries = segments + [(b, a) for a, b in segments]
        queries += [rng.choice(queries) for _ in range(len(queries))]
        _assert_detours_match(rects, queries)

    @pytest.mark.parametrize("scene", _BOUNDARY_SCENES)
    def test_tolerance_boundaries(self, scene):
        rects, segments = scene
        _assert_predicates_match(rects, segments)
        _assert_paths_match(rects, segments)
        _assert_detours_match(rects, segments + [(b, a) for a, b in segments])


class TestRoutedTreeProperties:
    """End-to-end: routed trees with blockages vs. the same instance without."""

    def test_a_blocked_route_memoises_only_floats(self):
        """The embedding and validation ask for the detour between coincident
        points too; every memoised detour is a float all the same."""
        from repro.api.spec import InstanceSpec

        instance = InstanceSpec.from_family("blocked", 400, seed=2, groups=4).build()
        routing = get_router("ast-dme", {"skew_bound_ps": 10.0}).route(instance)
        validate_tree(routing.tree, instance)
        memo = instance.obstacle_set()._memo.distances
        assert any(x0 == x1 and y0 == y1 for x0, y0, x1, y1 in memo)
        assert {type(value) for value in memo.values()} == {float}

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
