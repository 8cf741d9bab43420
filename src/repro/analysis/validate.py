"""Structural and electrical validation of routing results.

``validate_tree`` checks the things every downstream consumer relies on:

* the tree is a single connected, acyclic structure rooted at the source;
* every instance sink appears exactly once, at the right location, with the
  right load and group;
* every embedded edge books at least as much wire as the Manhattan distance
  between its endpoints (booked length may exceed it -- that is snaking);
* when the instance carries routing blockages, no node is embedded inside a
  blockage and every edge books enough wire for a blockage-avoiding path
  (the *detour distance*);
* the Elmore delays computed by the fast evaluator agree with the independent
  segmented RC oracle (:mod:`repro.delay.rc_tree`).

Every check reads the tree's arena, ``ClockTree.as_arena()``, the one the
engine reads; the RC oracle re-derives the delays from it with its own
arithmetic.  Delays are undefined off the root's tree, so a disconnected or
cyclic tree skips only the delay and skew checks.

``validate_result`` additionally checks the routing result's bookkeeping
(loci containing the embedded locations, each group's intra-group skew within
the bound it was routed against, capped by the validation bound).
``validate_routes`` checks realised rectilinear paths
(:func:`repro.cts.routing.route_edges` output) segment by segment against an
obstacle set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.analysis.skew import skew_report
from repro.core.group_constraints import capped_bounds
from repro.cts.arena import SINK_KIND, SOURCE_KIND
from repro.delay.elmore import arena_elmore
from repro.delay.rc_tree import arena_oracle_delays
from repro.delay.technology import Technology
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.trr import Trr

__all__ = [
    "DEFAULT_LOCUS_TOLERANCE",
    "ValidationIssue",
    "validate_tree",
    "validate_result",
    "validate_routes",
]

_GEOM_TOL = 1e-6
_DELAY_REL_TOL = 1e-9


@dataclass(frozen=True)
class ValidationIssue:
    """A single validation finding."""

    code: str
    message: str

    def __str__(self) -> str:
        return "[%s] %s" % (self.code, self.message)


def validate_tree(
    tree, instance=None, obstacles: Optional[ObstacleSet] = None
) -> List[ValidationIssue]:
    """Validate an embedded clock tree, optionally against its instance.

    ``obstacles`` defaults to the instance's blockages (when an instance is
    given); pass an :class:`ObstacleSet` explicitly to check a bare tree.
    Returns a list of issues; an empty list means the tree passed every check.
    """
    return _validate_tree(tree, instance, obstacles)[0]


def _validate_tree(tree, instance, obstacles) -> Tuple[List[ValidationIssue], bool, object]:
    """``validate_tree``'s issues, whether the tree's delays are defined, and
    the snapshot the checks read."""
    if obstacles is None and instance is not None and instance.has_obstacles:
        obstacles = instance.obstacle_set()
    arena = tree.as_arena()
    if arena.root < 0:
        # Without a root the electrical checks cannot run at all.
        return [ValidationIssue("structure", "the tree has no root")], False, arena
    issues, is_tree = _check_structure(arena)
    issues.extend(_check_geometry(arena))
    if obstacles:
        issues.extend(_check_blockages(arena, obstacles))
    if is_tree:
        issues.extend(_check_delays(arena))
    if instance is not None:
        issues.extend(_check_instance_coverage(arena, instance))
    return issues, is_tree, arena


def validate_routes(
    routes: Mapping[int, "object"], obstacles: ObstacleSet
) -> List[ValidationIssue]:
    """Check realised rectilinear routes segment by segment against blockages.

    ``routes`` is the output of :func:`repro.cts.routing.route_edges`; every
    segment that crosses a blockage interior yields one ``blockage`` issue.
    """
    issues: List[ValidationIssue] = []
    for child_id in sorted(routes):
        route = routes[child_id]
        for start, end in route.segments():
            if obstacles.blocks_segment(start, end):
                issues.append(
                    ValidationIssue(
                        "blockage",
                        "route %d -> %d segment %r -> %r crosses a blockage"
                        % (route.parent_id, child_id, start, end),
                    )
                )
    return issues


#: Default geometric tolerance (micrometres) for the off-locus check of
#: ``validate_result``; override per call (``locus_tolerance=``), per run spec
#: (``RunSpec.locus_tolerance``) or on the CLI (``repro route --tolerance``).
DEFAULT_LOCUS_TOLERANCE = 1e-3


def validate_result(
    result,
    intra_bound_ps: Optional[float] = None,
    locus_tolerance: float = DEFAULT_LOCUS_TOLERANCE,
) -> List[ValidationIssue]:
    """Validate a :class:`~repro.core.ast_dme.RoutingResult`.

    Args:
        result: the routing result to check.
        intra_bound_ps: when given (in picoseconds, as in the paper), every
            group's intra-group skew must stay within its bound: the bound
            the result was routed against (``result.constraints``) capped by
            this one, or this one for a group routed at zero skew and for a
            result without constraints
            (:func:`~repro.core.group_constraints.capped_bounds`, the rule the
            repair holds).
        locus_tolerance: geometric tolerance (micrometres) applied to the
            off-locus placement checks.
    """
    issues, is_tree, arena = _validate_tree(result.tree, result.instance, None)
    issues.extend(_check_loci(arena, result, locus_tolerance))
    if intra_bound_ps is not None and is_tree:
        report = skew_report(result.tree)
        constraints = getattr(result, "constraints", None)
        routed = None
        if constraints is not None:
            # A single-group run held every sink to group 0's bound.
            single = getattr(result, "single_group", False)
            routed = (lambda group: constraints.bound_for(0)) if single else constraints.bound_for
        bound_for = capped_bounds(routed, Technology.ps_to_internal(intra_bound_ps))
        slack = max(result.stats.max_violation, 0.0)
        for group, skew in report.per_group_skew.items():
            bound = bound_for(group)
            if skew > bound + 2.0 * slack + 1e-3:
                issues.append(
                    ValidationIssue(
                        "skew",
                        "group %r intra-group skew %.3f ps exceeds the %.3f ps bound"
                        % (
                            group,
                            Technology.internal_to_ps(skew),
                            Technology.internal_to_ps(bound),
                        ),
                    )
                )
    return issues


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------
def _check_structure(arena) -> Tuple[List[ValidationIssue], bool]:
    """Structure issues of a rooted snapshot, and whether it is one tree.

    Each node has at most one parent edge, so every weakly connected component
    holds one parentless node or one cycle: cycles = components - (nodes - edges).
    """
    messages = []
    if arena.kinds[arena.root] != SOURCE_KIND:
        messages.append("the tree root is not a source node")
    nodes = arena.num_nodes
    children = np.flatnonzero(arena.parents >= 0)
    edges = len(children)
    graph = coo_matrix((np.ones(edges), (arena.parents[children], children)), (nodes, nodes))
    components = connected_components(graph, connection="weak", return_labels=False)
    if components != 1:
        messages.append("the tree is not connected")
    if components != nodes - edges:
        messages.append("the tree contains a cycle")
    if edges != nodes - 1:
        messages.append("edge count %d does not match node count %d minus one" % (edges, nodes))
    sinks = np.flatnonzero((arena.kinds == SINK_KIND) & (arena.child_counts() > 0))
    messages.extend("sink node %d has children" % node_id for node_id in sinks.tolist())
    is_tree = components == 1 and edges == nodes - 1
    return [ValidationIssue("structure", message) for message in messages], is_tree


def _check_geometry(arena) -> List[ValidationIssue]:
    """Every edge is embedded and books at least its Manhattan length."""
    children = np.flatnonzero(arena.parents >= 0)
    parents = arena.parents[children]
    embedded = arena.has_location[children] & arena.has_location[parents]
    # Operands in manhattan_distance order: the same bits as Point.distance_to.
    distance = np.abs(arena.xs[children] - arena.xs[parents]) + np.abs(
        arena.ys[children] - arena.ys[parents]
    )
    booked = arena.edge_lengths[children]
    short = embedded & (booked < distance - _GEOM_TOL)
    issues: List[ValidationIssue] = []
    for k in np.flatnonzero(~embedded | short).tolist():
        parent, child = int(parents[k]), int(children[k])
        if embedded[k]:
            message = "edge %d -> %d books %.6g wire for a %.6g distance" % (
                parent, child, booked[k], distance[k]
            )
        else:
            message = "edge %d -> %d is not embedded" % (parent, child)
        issues.append(ValidationIssue("geometry", message))
    return issues


def _check_blockages(arena, obstacles: ObstacleSet) -> List[ValidationIssue]:
    """No node inside a blockage; every edge books its detour distance."""
    inside = arena.has_location & obstacles.blocks_points(arena.xs, arena.ys)
    issues = [
        ValidationIssue("blockage", "node %d is embedded at %r inside a blockage" % (
            node_id, _location(arena, node_id)))
        for node_id in np.flatnonzero(inside).tolist()
    ]
    # Detours are undefined from inside a blockage (already reported above).
    parents, free = arena.parents, arena.has_location & ~inside
    xs, ys = arena.xs.tolist(), arena.ys.tolist()
    for node_id in np.flatnonzero((parents >= 0) & free & free[parents]).tolist():
        parent = int(parents[node_id])
        try:
            needed = obstacles.detour_distance(
                Point(xs[parent], ys[parent]), Point(xs[node_id], ys[node_id])
            )
        except ValueError:
            # Overlapping blockages can enclose an endpoint without any single
            # rectangle containing it; that is an issue, not a crash.
            issues.append(ValidationIssue("blockage", (
                "edge %d -> %d has no blockage-avoiding path at all" % (parent, node_id))))
            continue
        booked = float(arena.edge_lengths[node_id])
        if booked < needed - _GEOM_TOL:
            issues.append(ValidationIssue("blockage", (
                "edge %d -> %d books %.6g wire but avoiding blockages needs %.6g"
                % (parent, node_id, booked, needed))))
    return issues


def _check_delays(arena) -> List[ValidationIssue]:
    """The engine's sink delays against the RC oracle's."""
    sinks = np.flatnonzero(arena.kinds == SINK_KIND)
    fast_delays = arena_elmore(arena)[1][sinks]
    oracle = arena_oracle_delays(arena)[sinks]
    scale = np.maximum(np.maximum(np.abs(fast_delays), np.abs(oracle)), 1.0)
    off = np.abs(fast_delays - oracle) > _DELAY_REL_TOL * scale + 1e-6
    return [
        ValidationIssue(
            "delay",
            "sink %d: fast Elmore %.6g differs from RC oracle %.6g"
            % (sinks[k], fast_delays[k], oracle[k]),
        )
        for k in np.flatnonzero(off).tolist()
    ]


def _check_instance_coverage(arena, instance) -> List[ValidationIssue]:
    """Every instance sink has a tree sink of its load and group at its
    location rounded to 6 decimals, and the tree source is the instance's.

    Exact matches come from one sorted join (:func:`_exact_matches`); only
    an instance sink without one is looked up by rounded location, in
    instance order (those buckets are built on first need).  Equal floats
    round equally, so the issues are the ones rounded buckets alone give."""
    sinks = np.flatnonzero(arena.kinds == SINK_KIND)
    issues: List[ValidationIssue] = []
    if len(sinks) != instance.num_sinks:
        issues.append(ValidationIssue("coverage", "tree has %d sinks but the instance has %d" % (
            len(sinks), instance.num_sinks)))
    unmatched = np.flatnonzero(~_exact_matches(arena, sinks, instance.sinks)).tolist()
    if unmatched:
        columns = (arena.xs, arena.ys, arena.sink_caps, arena.groups, arena.has_group)
        xs, ys, caps, groups, grouped = (column[sinks].tolist() for column in columns)
        loads = [(cap, g if has else None) for cap, g, has in zip(caps, groups, grouped)]
        rounded = _buckets(((round(a, 6), round(b, 6)) for a, b in zip(xs, ys)), loads)
    for k in unmatched:
        sink = instance.sinks[k]  # a Sink, for the message
        x, y = sink.location.x, sink.location.y
        if not _has_match(rounded.get((round(x, 6), round(y, 6)), ()), sink):
            issues.append(ValidationIssue("coverage", (
                "instance sink %d (group %d) has no matching tree sink"
                % (sink.sink_id, sink.group))))
    root = _location(arena, arena.root)
    if root is not None and root.distance_to(instance.source) > _GEOM_TOL:
        issues.append(ValidationIssue("coverage", (
            "tree source at %r does not match the instance source %r" % (root, instance.source))))
    return issues


def _exact_matches(arena, sinks: np.ndarray, instance_sinks) -> np.ndarray:
    """Per instance sink (a :class:`~repro.circuits.instance.SinkTable`),
    whether a grouped tree sink (node ids ``sinks``) has its exact location
    and group and a load within 1e-9 of its own.

    One ``lexsort`` of the tree and instance sinks together by ``(x, y,
    group, cap)``, tree sinks first among equal keys.  Within one ``(x, y,
    group)`` run, the tree caps nearest an instance sink's are the last tree
    row before it and the first one after it, so only those two are
    compared.  An ungrouped tree sink never matches (its group is None)."""
    n = len(instance_sinks)
    tree = sinks[arena.has_group[sinks]]
    xs = np.concatenate((arena.xs[tree], instance_sinks.xs))
    ys = np.concatenate((arena.ys[tree], instance_sinks.ys))
    groups = np.concatenate((arena.groups[tree], instance_sinks.groups))
    caps = np.concatenate((arena.sink_caps[tree], instance_sinks.caps))
    order = np.lexsort((caps, groups, ys, xs))
    xs, ys, groups, caps = xs[order], ys[order], groups[order], caps[order]
    rows = np.arange(len(order))
    is_tree = order < len(tree)
    # The nearest tree row at or before / at or after each row (-1 / past the end: none).
    before = np.maximum.accumulate(np.where(is_tree, rows, -1))
    after = np.minimum.accumulate(np.where(is_tree, rows, len(order))[::-1])[::-1]
    matched = np.zeros(len(order), dtype=bool)
    for near in (before, after):
        has = (near >= 0) & (near < len(order))
        near = np.where(has, near, rows)
        matched |= has & (xs[near] == xs) & (ys[near] == ys) & (groups[near] == groups) & (
            np.abs(caps - caps[near]) <= 1e-9)
    found = np.zeros(n, dtype=bool)
    found[order[~is_tree] - len(tree)] = matched[~is_tree]
    return found


def _buckets(keys, loads) -> dict:
    """The ``(cap, group)`` loads of the tree sinks, listed by key."""
    buckets = {}
    for key, load in zip(keys, loads):
        buckets.setdefault(key, []).append(load)
    return buckets


def _has_match(loads, sink) -> bool:
    return any(abs(c - sink.cap) <= 1e-9 and g == sink.group for c, g in loads)


def _check_loci(arena, result, tolerance: float) -> List[ValidationIssue]:
    """Every placed node with a locus lies on it, or escaped a blockage there."""
    obstacles = result.instance.obstacle_set() if result.instance.has_obstacles else None
    # A locus escape may displace a node by at most roughly one blockage
    # diameter (nearest_free_point walks to a blocking rectangle's boundary);
    # anything further off-locus is a bug, blockages or not.
    max_escape = max(rect.width + rect.height for rect in obstacles) if obstacles else 0.0
    ids = np.flatnonzero(~np.isnan(result.loci).any(axis=1))  # NaN rows have no locus
    rows = result.loci[ids]
    u, v = arena.xs[ids] + arena.ys[ids], arena.xs[ids] - arena.ys[ids]  # Trr.contains_point
    inside = (rows[:, 0] - tolerance <= u) & (u <= rows[:, 1] + tolerance)
    inside &= (rows[:, 2] - tolerance <= v) & (v <= rows[:, 3] + tolerance)
    issues: List[ValidationIssue] = []
    for node_id in ids[arena.has_location[ids] & ~inside].tolist():
        location, locus = _location(arena, node_id), Trr(*result.loci[node_id].tolist())
        if (
            obstacles is not None
            and not obstacles.blocks_point(location)
            and obstacles.blocks_point(locus.nearest_point_to(location))
            and locus.distance_to_point(location) <= max_escape + tolerance
        ):
            # The locus is blockage-blind and locally unusable here: the
            # embedding legitimately escaped to the blockage boundary.
            continue
        issues.append(ValidationIssue("locus", (
            "node %d embedded at %r outside its placement locus" % (node_id, location))))
    return issues


def _location(arena, node_id: int) -> Optional[Point]:
    """The embedded location of ``node_id`` (None when unplaced)."""
    if not arena.has_location[node_id]:
        return None
    return Point(float(arena.xs[node_id]), float(arena.ys[node_id]))
