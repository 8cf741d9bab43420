"""The wirelength sums read the tree's columns, bit for bit the object walk.

``ClockTree.total_wirelength`` and ``snaking_wirelength`` add the edge
columns in node order; ``wirelength_report`` and ``RoutingResult.wirelength``
take their totals from them.  The property test holds every report field,
both methods and the result's wirelength by ``float.hex`` to the node-by-node
walk of the object tree in ``tests/reference_tree.py``, on the router
families and on buffered, repaired blocked trees.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.wirelength import wirelength_report
from repro.api.registry import RouterSpec
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.cts.tree import ClockTree
from repro.geometry.point import Point
from repro.opt import BUFFERED_PASSES, OptConfig
from tests.reference_tree import ReferenceTree

FAMILIES = {
    "ast-dme": lambda seed: RunSpec(
        instance=InstanceSpec.from_random(150, seed=seed, groups=4),
        router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
    ),
    "buffered": lambda seed: RunSpec(
        instance=InstanceSpec.from_family("blocked", 100, seed=seed, groups=4),
        router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
        opt=OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=800.0),
    ),
    "h-tree": lambda seed: RunSpec(
        instance=InstanceSpec.from_family("blocked", 120, seed=seed, groups=2),
        router=RouterSpec("h-tree", {"skew_bound_ps": 10.0, "trunk_levels": 2}),
    ),
    "greedy-dme": lambda seed: RunSpec(
        instance=InstanceSpec.from_random(150, seed=seed), router=RouterSpec("greedy-dme")
    ),
}


def walk(tree):
    """The report's fields from the object tree's walks."""
    reference = ReferenceTree.of(tree)
    root = reference.root()
    return (
        reference.total_wirelength(),
        reference.snaking_wirelength(),
        sum((reference.node(child).edge_length for child in root.children), 0.0),
        sum(1 for node in reference.nodes() if node.parent is not None),
    )


def fields(report):
    return (report.total, report.snaking, report.source_connection, report.num_edges)


def same_bits(a, b) -> bool:
    return all(
        x == y if isinstance(x, int) else float(x).hex() == float(y).hex() for x, y in zip(a, b)
    )


@settings(max_examples=12, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), seed=st.integers(min_value=0, max_value=40))
def test_report_matches_the_object_walk(family, seed):
    routing = run(FAMILIES[family](seed), keep_tree=True).routing
    tree = routing.tree
    expected = walk(tree)
    assert same_bits(fields(wirelength_report(tree)), expected)
    sums = (tree.total_wirelength(), tree.snaking_wirelength(), routing.wirelength)
    assert same_bits(sums, expected[:2] + expected[:1])


def test_unplaced_edges_snake_nothing():
    tree = ClockTree()
    sink = tree.add_sink(location=Point(0.0, 0.0), sink_cap=1.0, group=0)
    unplaced = tree.add_internal(children=[sink], edge_lengths=[30.0])
    tree.add_source(Point(10.0, 0.0), unplaced, 25.0)
    report = wirelength_report(tree)
    assert same_bits(fields(report), walk(tree))
    assert (report.total, report.snaking, report.source_connection) == (55.0, 0.0, 25.0)
