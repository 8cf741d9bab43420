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

The structure, geometry and oracle passes read one snapshot built fresh from
the node objects, never the cached ``as_arena()`` the engine reads, so a stale
cache shows up as ``delay`` issues.  Delays are undefined off the root's tree,
so a disconnected or cyclic tree skips only the delay and skew checks.

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
from repro.cts.arena import SINK_KIND, SOURCE_KIND, TreeArena
from repro.delay.elmore import arena_elmore
from repro.delay.rc_tree import arena_oracle_delays
from repro.delay.technology import Technology
from repro.geometry.obstacles import ObstacleSet

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


def _validate_tree(tree, instance, obstacles) -> Tuple[List[ValidationIssue], bool]:
    """``validate_tree``'s issues, and whether the tree's delays are defined."""
    if obstacles is None and instance is not None and instance.has_obstacles:
        obstacles = instance.obstacle_set()
    arena = TreeArena.from_clock_tree(tree)
    if arena.root < 0:
        # Without a root the electrical checks cannot run at all.
        return [ValidationIssue("structure", "the tree has no root")], False
    issues, is_tree = _check_structure(arena)
    issues.extend(_check_geometry(arena))
    if obstacles:
        issues.extend(_check_blockages(tree, obstacles))
    if is_tree:
        issues.extend(_check_delays(tree, arena))
    if instance is not None:
        issues.extend(_check_instance_coverage(tree, instance))
    return issues, is_tree


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
    issues, is_tree = _validate_tree(result.tree, result.instance, None)
    obstacles = (
        result.instance.obstacle_set() if result.instance.has_obstacles else None
    )
    # A locus escape may displace a node by at most roughly one blockage
    # diameter (nearest_free_point walks to a blocking rectangle's boundary);
    # anything further off-locus is a bug, blockages or not.
    max_escape = (
        max(rect.width + rect.height for rect in obstacles) if obstacles else 0.0
    )
    for node_id, locus in result.loci.items():
        node = result.tree.node(node_id)
        if node.location is None or locus.contains_point(node.location, tol=locus_tolerance):
            continue
        if (
            obstacles is not None
            and not obstacles.blocks_point(node.location)
            and obstacles.blocks_point(locus.nearest_point_to(node.location))
            and locus.distance_to_point(node.location) <= max_escape + locus_tolerance
        ):
            # The locus is blockage-blind and locally unusable here: the
            # embedding legitimately escaped to the blockage boundary.
            continue
        issues.append(
            ValidationIssue(
                "locus",
                "node %d embedded at %r outside its placement locus" % (node_id, node.location),
            )
        )
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


def _check_blockages(tree, obstacles: ObstacleSet) -> List[ValidationIssue]:
    """No node inside a blockage; every edge books its detour distance."""
    issues: List[ValidationIssue] = []
    for node in tree.nodes():
        if node.location is not None and obstacles.blocks_point(node.location):
            issues.append(
                ValidationIssue(
                    "blockage",
                    "node %d is embedded at %r inside a blockage" % (node.node_id, node.location),
                )
            )
    for node in tree.nodes():
        if node.parent is None or node.location is None:
            continue
        parent = tree.node(node.parent)
        if parent.location is None:
            continue
        if obstacles.blocks_point(node.location) or obstacles.blocks_point(parent.location):
            continue  # already reported above; detours are undefined from inside
        try:
            needed = obstacles.detour_distance(parent.location, node.location)
        except ValueError:
            # Overlapping blockages can enclose an endpoint without any single
            # rectangle containing it; that is an issue, not a crash.
            issues.append(
                ValidationIssue(
                    "blockage",
                    "edge %d -> %d has no blockage-avoiding path at all"
                    % (parent.node_id, node.node_id),
                )
            )
            continue
        if node.edge_length < needed - _GEOM_TOL:
            issues.append(
                ValidationIssue(
                    "blockage",
                    "edge %d -> %d books %.6g wire but avoiding blockages needs %.6g"
                    % (parent.node_id, node.node_id, node.edge_length, needed),
                )
            )
    return issues


def _check_delays(tree, arena) -> List[ValidationIssue]:
    """The engine's sink delays (cached snapshot) against the oracle (fresh one)."""
    sinks = np.flatnonzero(arena.kinds == SINK_KIND)
    fast_delays = arena_elmore(tree.as_arena())[1][sinks]
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


def _check_instance_coverage(tree, instance) -> List[ValidationIssue]:
    issues: List[ValidationIssue] = []
    sinks_by_location = {}
    for node in tree.sinks():
        key = (round(node.location.x, 6), round(node.location.y, 6))
        sinks_by_location.setdefault(key, []).append(node)

    if len(tree.sinks()) != instance.num_sinks:
        issues.append(
            ValidationIssue(
                "coverage",
                "tree has %d sinks but the instance has %d"
                % (len(tree.sinks()), instance.num_sinks),
            )
        )
    for sink in instance.sinks:
        key = (round(sink.location.x, 6), round(sink.location.y, 6))
        candidates = sinks_by_location.get(key, [])
        match = next(
            (
                node
                for node in candidates
                if abs(node.sink_cap - sink.cap) <= 1e-9 and node.group == sink.group
            ),
            None,
        )
        if match is None:
            issues.append(
                ValidationIssue(
                    "coverage",
                    "instance sink %d (group %d) has no matching tree sink"
                    % (sink.sink_id, sink.group),
                )
            )
    root = tree.root()
    if root.location is not None and root.location.distance_to(instance.source) > _GEOM_TOL:
        issues.append(
            ValidationIssue(
                "coverage",
                "tree source at %r does not match the instance source %r"
                % (root.location, instance.source),
            )
        )
    return issues
