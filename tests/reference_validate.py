"""The networkx validator and the per-stage dict RC oracle, kept as references.

The library validates a routed tree over one fresh
:class:`~repro.cts.arena.TreeArena` snapshot
(:func:`repro.analysis.validate.validate_tree` and
:func:`~repro.analysis.validate.validate_result`), and its RC oracle
(:func:`repro.delay.rc_tree.oracle_delays`) runs over the same arrays.  This
module keeps the code they replaced, term for term: the structure check on
the tree's ``networkx`` graph, the per-node geometry and delay checks, and
the oracle that composes one :class:`~repro.delay.rc_tree.RcTree` network per
buffer stage.  ``tests/test_validation_oracle.py`` holds the two validators
to the same issue lists (codes, messages and order) on corrupted trees, and
the two oracles to the same delays.

Unlike the library, the reference validator raises on disconnected or cyclic
trees (its delay check walks from the root), so the tests compare it only
where it returns.
"""

from __future__ import annotations

from dataclasses import replace as _replace
from typing import Dict, List, Optional

import networkx as nx

from repro.analysis.skew import skew_report
from repro.analysis.validate import DEFAULT_LOCUS_TOLERANCE, ValidationIssue
from repro.delay.elmore import sink_delays
from repro.delay.rc_tree import RcTree
from repro.delay.technology import Technology
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.trr import Trr

__all__ = ["oracle_delays", "validate_result", "validate_tree"]

_GEOM_TOL = 1e-6
_DELAY_REL_TOL = 1e-9


def validate_tree(
    tree, instance=None, obstacles: Optional[ObstacleSet] = None
) -> List[ValidationIssue]:
    """Validate an embedded clock tree, optionally against its instance.

    ``obstacles`` defaults to the instance's blockages (when an instance is
    given); pass an :class:`ObstacleSet` explicitly to check a bare tree.
    Returns a list of issues; an empty list means the tree passed every check.
    """
    if obstacles is None and instance is not None and instance.has_obstacles:
        obstacles = instance.obstacle_set()
    issues: List[ValidationIssue] = []
    issues.extend(_check_structure(tree))
    if any(issue.message == "the tree has no root" for issue in issues):
        # Without a root the electrical checks cannot run at all.
        return issues
    issues.extend(_check_geometry(tree))
    if obstacles:
        issues.extend(_check_blockages(tree, obstacles))
    issues.extend(_check_delays(tree))
    if instance is not None:
        issues.extend(_check_instance_coverage(tree, instance))
    return issues


def validate_result(
    result,
    intra_bound_ps: Optional[float] = None,
    locus_tolerance: float = DEFAULT_LOCUS_TOLERANCE,
) -> List[ValidationIssue]:
    """Validate a :class:`~repro.core.ast_dme.RoutingResult`.

    Args:
        result: the routing result to check.
        intra_bound_ps: when given (in picoseconds), every group's
            intra-group skew must stay within its routed bound capped by this
            one; zero-skew groups and results without constraints take this
            one.
        locus_tolerance: geometric tolerance (micrometres) applied to the
            off-locus placement checks.
    """
    issues = validate_tree(result.tree, result.instance)
    obstacles = (
        result.instance.obstacle_set() if result.instance.has_obstacles else None
    )
    # A locus escape may displace a node by at most roughly one blockage
    # diameter (nearest_free_point walks to a blocking rectangle's boundary);
    # anything further off-locus is a bug, blockages or not.
    max_escape = (
        max(rect.width + rect.height for rect in obstacles) if obstacles else 0.0
    )
    # Locus rows by node id; a NaN row means the node has no locus.
    loci = {
        node_id: Trr(*row)
        for node_id, row in enumerate(result.loci.tolist())
        if not any(value != value for value in row)
    }
    for node_id, locus in loci.items():
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
    if intra_bound_ps is not None:
        report = skew_report(result.tree)
        cap = Technology.ps_to_internal(intra_bound_ps)
        constraints = getattr(result, "constraints", None)
        slack = max(result.stats.max_violation, 0.0)
        for group, skew in report.per_group_skew.items():
            # The routed bound capped by the validation bound; zero-skew
            # groups and results without constraints take the validation bound.
            bound = cap
            if constraints is not None:
                routed = constraints.bound_for(0 if result.single_group else group)
                bound = min(routed or cap, cap)
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
def _check_structure(tree) -> List[ValidationIssue]:
    issues: List[ValidationIssue] = []
    try:
        root = tree.root()
    except ValueError:
        return [ValidationIssue("structure", "the tree has no root")]
    if not root.is_source:
        issues.append(ValidationIssue("structure", "the tree root is not a source node"))

    graph = tree.to_networkx()
    undirected = graph.to_undirected()
    if graph.number_of_nodes() and not nx.is_connected(undirected):
        issues.append(ValidationIssue("structure", "the tree is not connected"))
    if not nx.is_directed_acyclic_graph(graph):
        issues.append(ValidationIssue("structure", "the tree contains a cycle"))
    if graph.number_of_edges() != graph.number_of_nodes() - 1:
        issues.append(
            ValidationIssue(
                "structure",
                "edge count %d does not match node count %d minus one"
                % (graph.number_of_edges(), graph.number_of_nodes()),
            )
        )
    for node in tree.nodes():
        if node.is_sink and node.children:
            issues.append(
                ValidationIssue("structure", "sink node %d has children" % node.node_id)
            )
    return issues


def _check_geometry(tree) -> List[ValidationIssue]:
    issues: List[ValidationIssue] = []
    for node in tree.nodes():
        if node.parent is None:
            continue
        parent = tree.node(node.parent)
        if node.location is None or parent.location is None:
            issues.append(
                ValidationIssue(
                    "geometry", "edge %d -> %d is not embedded" % (parent.node_id, node.node_id)
                )
            )
            continue
        distance = node.location.distance_to(parent.location)
        if node.edge_length < distance - _GEOM_TOL:
            issues.append(
                ValidationIssue(
                    "geometry",
                    "edge %d -> %d books %.6g wire for a %.6g distance"
                    % (parent.node_id, node.node_id, node.edge_length, distance),
                )
            )
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


def _check_delays(tree) -> List[ValidationIssue]:
    issues: List[ValidationIssue] = []
    fast = sink_delays(tree)
    oracle = oracle_delays(tree)
    for sink_id, fast_delay in fast.items():
        oracle_delay = oracle[sink_id]
        scale = max(abs(fast_delay), abs(oracle_delay), 1.0)
        if abs(fast_delay - oracle_delay) > _DELAY_REL_TOL * scale + 1e-6:
            issues.append(
                ValidationIssue(
                    "delay",
                    "sink %d: fast Elmore %.6g differs from RC oracle %.6g"
                    % (sink_id, fast_delay, oracle_delay),
                )
            )
    return issues


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


def oracle_delays(tree, segments_per_edge: int = 4) -> Dict[int, float]:
    """Independent per-stage RC re-derivation of a clock tree's Elmore delays.

    The buffer-aware replacement for ``RcTree.from_clock_tree(t)
    .elmore_delays()``: a buffer decouples its subtree, so the tree is split
    into stages at buffered nodes.  Each stage becomes its own discretised RC
    network whose driver resistance is the source resistance (top stage) or
    the stage buffer's drive resistance; a buffered node appears in its parent
    stage as a leaf carrying only the buffer input cap, and its recorded delay
    is the arrival at the buffer *input* -- exactly the convention of
    :mod:`repro.delay.elmore`.  Stage delays compose as ``arrival + intrinsic
    + network delay``.  On buffer-free trees this is precisely the historical
    single-network oracle.
    """
    tech = tree.technology
    root = tree.root()
    result: Dict[int, float] = {}
    # (stage_root_id, delay at the stage driver's output start, driver ohms)
    stages: List[tuple] = []
    if root.buffer is not None:
        # Degenerate top stage: the source drives only the buffer input pin.
        result[root.node_id] = tech.source_resistance * root.buffer.input_cap
        stages.append(
            (
                root.node_id,
                result[root.node_id] + root.buffer.intrinsic_delay,
                root.buffer.drive_resistance,
            )
        )
    else:
        stages.append((root.node_id, 0.0, tech.source_resistance))
    while stages:
        stage_root, base, drive = stages.pop()
        stage_tech = _replace(tech, source_resistance=drive)
        rc = RcTree(stage_root, technology=stage_tech)
        rc.add_cap(stage_root, tree.node(stage_root).sink_cap)
        members: List[int] = []
        boundaries = []
        queue = [stage_root]
        while queue:
            nid = queue.pop()
            for child in tree.children_of(nid):
                rc.add_wire(child.node_id, nid, child.edge_length, segments_per_edge)
                members.append(child.node_id)
                if child.buffer is not None:
                    rc.add_cap(child.node_id, child.buffer.input_cap)
                    boundaries.append(child)
                else:
                    rc.add_cap(child.node_id, child.sink_cap)
                    queue.append(child.node_id)
        delays = rc.elmore_delays()
        if stage_root not in result:
            # Top stage only: deeper stage roots keep the buffer-input arrival
            # recorded by their parent stage.
            result[stage_root] = base + delays[stage_root]
        for nid in members:
            result[nid] = base + delays[nid]
        for child in boundaries:
            if child.children:
                stages.append(
                    (
                        child.node_id,
                        result[child.node_id] + child.buffer.intrinsic_delay,
                        child.buffer.drive_resistance,
                    )
                )
    return result
