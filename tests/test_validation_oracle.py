"""The array validator and RC oracle against the references they replaced.

``tests/reference_validate.py`` keeps the networkx validator and the
per-stage dict RC oracle.  Two sweeps hold the library to them:

* corrupted routes -- small random, blocked and buffered ones drawn by
  hypothesis, plus fixed 3000-sink routes whose ``sink_delays`` reads the
  cached arena snapshot -- get exactly the reference's issue list wherever
  the reference returns one.  Where it raises (a detached subtree or a parent
  cycle), the library returns the structure issue and every issue but the
  delay and skew ones, which are undefined off the root's tree.  Every clean
  and corrupted case is validated twice: on a tree that has built its node
  objects, and on the same tree built as an arena (its columns through
  ``to_clock_tree()``), which validation must read without building any;
* ``oracle_delays`` agrees with the reference oracle and with
  ``arena_elmore`` to 1e-12 relative, for 1, 4 and 6 segments per edge.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.validate import ValidationIssue, validate_result
from repro.api.registry import RouterSpec
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.cts.arena import TreeArena
from repro.delay.elmore import arena_elmore
from repro.delay.rc_tree import oracle_delays
from repro.geometry.obstacles import Rect
from repro.opt import BUFFERED_PASSES, OptConfig

pytest.importorskip("networkx")

from tests import reference_validate as reference  # noqa: E402  (imports networkx)

SKEW_BOUND_PS = 10.0

CORRUPTIONS = (
    "detach",
    "cycle",
    "short",
    "moved",
    "unembedded",
    "blockage",
    "sink_cap",
    "stale",
)

#: The structure issue each corruption the reference cannot survive yields.
STRUCTURE_ISSUES = {
    "detach": ValidationIssue("structure", "the tree is not connected"),
    "cycle": ValidationIssue("structure", "the tree contains a cycle"),
}


@functools.lru_cache(maxsize=None)
def routed(kind: str):
    """Read-only routing results the corruptions copy before editing."""
    router = RouterSpec("ast-dme", {"skew_bound_ps": SKEW_BOUND_PS})
    if kind == "random":
        spec = RunSpec(instance=InstanceSpec.from_random(60, seed=5, groups=4), router=router)
    elif kind == "blocked":
        instance = InstanceSpec.from_family(
            "blocked", num_sinks=60, seed=5, num_blockages=5, groups=2
        )
        spec = RunSpec(instance=instance, router=router)
    elif kind == "buffered":
        spec = RunSpec(
            instance=InstanceSpec.from_family("blocked", 120, seed=1, groups=4),
            router=router,
            opt=OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=800.0),
        )
    else:  # "large"
        spec = RunSpec(instance=InstanceSpec.from_random(3000, seed=3, groups=8), router=router)
    result = run(spec, keep_tree=True)
    assert result.error is None
    if kind == "buffered":
        assert result.routing.tree.num_buffers() >= 1
    return result.routing


def corrupted(base, corruption: str, pick: int):
    """A copy of ``base`` with one corruption applied, the same for every call."""
    tree = TreeArena.from_clock_tree(base.tree).to_clock_tree()
    result = replace(base, tree=tree)
    inner = [n for n in tree.nodes() if n.is_internal and n.parent is not None]
    node = inner[pick % len(inner)]
    sink = tree.sinks()[pick % len(tree.sinks())]
    if corruption == "detach":
        tree.node(node.parent).children.remove(node.node_id)
        node.parent = None
        tree.mark_mutated()
    elif corruption == "cycle":
        child = node.children[pick % len(node.children)]
        tree.node(node.parent).children.remove(node.node_id)
        node.parent = child
        tree.node(child).children.append(node.node_id)
        tree.mark_mutated()
    elif corruption == "short":
        parent = tree.node(node.parent)
        tree.set_edge_length(node.node_id, 0.5 * node.location.distance_to(parent.location))
    elif corruption == "moved":
        tree.set_location(sink.node_id, sink.location.translated(137.0, -59.0))
    elif corruption == "unembedded":
        tree.set_location(node.node_id, None)
    elif corruption == "blockage":
        x, y = node.location
        instance = copy.copy(base.instance)
        blockages = instance.obstacles + (Rect(x - 1.0, y - 1.0, x + 1.0, y + 1.0),)
        object.__setattr__(instance, "obstacles", blockages)
        result = replace(result, instance=instance)
    elif corruption == "sink_cap":
        sink.sink_cap = 2.0 * sink.sink_cap + 1.0
        tree.mark_mutated()
    else:  # "stale": an unmarked field write behind a cached snapshot
        tree.as_arena()
        node.edge_length += 1000.0
    return result


def as_arena_built(result):
    """``result`` with its tree's columns rebuilt as a tree that has no node
    objects, the form routes and ECO hand out."""
    return replace(result, tree=TreeArena.from_clock_tree(result.tree).to_clock_tree())


def with_node_objects(result):
    """A copy of ``result`` whose tree has built its node objects."""
    tree = TreeArena.from_clock_tree(result.tree).to_clock_tree()
    tree.node(tree.root_id)
    return replace(result, tree=tree)


def validated_both_ways(build):
    """The issue lists of ``build()``'s result, which has node objects,
    validated as it is and as an arena-built tree, checking that the latter
    builds none."""
    result = build()
    assert result.tree._has_node_objects()
    with_objects = validate_result(result, intra_bound_ps=SKEW_BOUND_PS)
    arena_built = as_arena_built(build())
    without_objects = validate_result(arena_built, intra_bound_ps=SKEW_BOUND_PS)
    assert not arena_built.tree._has_node_objects()
    return with_objects, without_objects


def assert_matches_reference(base, corruption: str, pick: int) -> None:
    results = validated_both_ways(lambda: corrupted(base, corruption, pick))
    for issues, build in zip(results, (corrupted, lambda *a: as_arena_built(corrupted(*a)))):
        try:
            expected = reference.validate_result(
                build(base, corruption, pick), intra_bound_ps=SKEW_BOUND_PS
            )
        except (KeyError, ValueError):
            # The reference walks delays from the root and dies on exactly the
            # trees its structure check exists for.  Everything but the delay
            # and skew checks still applies.
            assert corruption in STRUCTURE_ISSUES
            with mock.patch.object(reference, "_check_delays", lambda tree: []):
                expected = reference.validate_result(build(base, corruption, pick))
            assert STRUCTURE_ISSUES[corruption] in issues
        assert issues == expected


class TestValidatorMatchesReference:
    @pytest.mark.parametrize("kind", ["random", "blocked", "buffered"])
    def test_clean_routes_agree(self, kind):
        base = routed(kind)
        expected = reference.validate_result(base, intra_bound_ps=SKEW_BOUND_PS)
        with_objects, without_objects = validated_both_ways(lambda: with_node_objects(base))
        assert with_objects == without_objects == expected

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["random", "blocked", "buffered"]),
        corruption=st.sampled_from(CORRUPTIONS),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    def test_corrupted_small_routes(self, kind, corruption, pick):
        assert_matches_reference(routed(kind), corruption, pick)

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_corrupted_large_route(self, corruption):
        assert_matches_reference(routed("large"), corruption, pick=7)

    @pytest.mark.parametrize("kind", ["random", "blocked", "buffered", "large"])
    def test_forged_blockage_is_flagged(self, kind):
        """The blockage corruption forges onto a copy of an instance whose
        obstacle set may already be built; validation must see the forged
        blockage, or the sweeps above pass without checking it."""
        issues = validate_result(corrupted(routed(kind), "blockage", pick=7))
        assert any(issue.code == "blockage" for issue in issues)

    @pytest.mark.parametrize("kind", ["random", "blocked", "buffered", "large"])
    def test_stale_snapshot_shows_up_as_delay_issues(self, kind):
        issues = validate_result(corrupted(routed(kind), "stale", pick=7))
        assert issues and {issue.code for issue in issues} == {"delay"}


class TestOracleMatchesReference:
    @pytest.mark.parametrize("segments", [1, 4, 6])
    @pytest.mark.parametrize("kind", ["random", "blocked", "buffered", "large"])
    def test_oracle_sweep(self, kind, segments):
        tree = routed(kind).tree
        delays = oracle_delays(tree, segments_per_edge=segments)
        expected = reference.oracle_delays(tree, segments_per_edge=segments)
        assert list(delays) == sorted(expected)  # every reachable node, in id order
        elmore = arena_elmore(tree.as_arena())[1]
        for node_id, value in delays.items():
            for other in (expected[node_id], float(elmore[node_id])):
                assert abs(value - other) <= 1e-12 * max(abs(value), abs(other)), node_id

    def test_rejects_a_segmentless_wire(self):
        with pytest.raises(ValueError, match="at least one segment"):
            oracle_delays(routed("random").tree, segments_per_edge=0)
