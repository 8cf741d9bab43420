"""The array validator and RC oracle against the references they replaced.

``tests/reference_validate.py`` keeps the networkx validator and the
per-stage dict RC oracle.  Two sweeps hold the library to them:

* corrupted routes -- small random, blocked and buffered ones drawn by
  hypothesis, plus fixed 3000-sink routes -- get exactly the reference's
  issue list wherever the reference returns one.  Where it raises (a
  detached subtree or a parent cycle), the library returns the structure
  issue and every issue but the delay and skew ones, which are undefined off
  the root's tree.  Corruptions edit a copy of the route through the tree's
  setters, or an arena's columns (``dataclasses.replace``, then
  ``to_clock_tree()``), since node views are read-only; validation creates
  no node views;
* ``oracle_delays`` agrees with the reference oracle and with
  ``arena_elmore`` to 1e-12 relative, for 1, 4 and 6 segments per edge.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.validate import (
    ValidationIssue,
    _check_instance_coverage,
    _exact_matches,
    validate_result,
)
from repro.api.registry import RouterSpec
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.cts.arena import SINK_KIND
from repro.cts.tree import ClockNode
from repro.delay.elmore import arena_elmore
from repro.delay.rc_tree import oracle_delays
from repro.geometry.obstacles import Rect
from repro.geometry.point import Point
from repro.opt import BUFFERED_PASSES, OptConfig

pytest.importorskip("networkx")

from tests import reference_validate as reference  # noqa: E402  (imports networkx)
from tests.reference_tree import with_structure  # noqa: E402

SKEW_BOUND_PS = 10.0

CORRUPTIONS = (
    "detach",
    "cycle",
    "short",
    "moved",
    "unembedded",
    "blockage",
    "sink_cap",
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
    arena = base.tree.as_arena()
    tree = arena.to_clock_tree()  # copies a column before writing it
    result = replace(base, tree=tree)
    inner = [n for n in tree.nodes() if n.is_internal and n.parent is not None]
    node = inner[pick % len(inner)]
    sink = tree.sinks()[pick % len(tree.sinks())]
    if corruption in ("detach", "cycle"):
        parents = arena.parents.tolist()
        children = [n.children for n in tree.nodes()]
        children[node.parent].remove(node.node_id)
        if corruption == "detach":
            parents[node.node_id] = -1
        else:
            child = node.children[pick % len(node.children)]
            parents[node.node_id] = child
            children[child].append(node.node_id)
        result = replace(result, tree=with_structure(arena, parents, children).to_clock_tree())
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
    else:  # "sink_cap"
        caps = arena.sink_caps.copy()
        caps[sink.node_id] = 2.0 * sink.sink_cap + 1.0
        result = replace(result, tree=replace(arena, sink_caps=caps).to_clock_tree())
    return result


def validated(result):
    """The issue list of ``result``, checking that validation creates no
    node views."""
    created = []
    init = ClockNode.__init__

    def counting_init(self, *args):
        created.append(1)
        init(self, *args)

    with mock.patch.object(ClockNode, "__init__", counting_init):
        issues = validate_result(result, intra_bound_ps=SKEW_BOUND_PS)
    assert not created, "validation created %d node views" % len(created)
    return issues


def assert_matches_reference(base, corruption: str, pick: int) -> None:
    issues = validated(corrupted(base, corruption, pick))
    try:
        expected = reference.validate_result(
            corrupted(base, corruption, pick), intra_bound_ps=SKEW_BOUND_PS
        )
    except (KeyError, ValueError):
        # The reference walks delays from the root and dies on exactly the
        # trees its structure check exists for.  Everything but the delay
        # and skew checks still applies.
        assert corruption in STRUCTURE_ISSUES
        with mock.patch.object(reference, "_check_delays", lambda tree: []):
            expected = reference.validate_result(corrupted(base, corruption, pick))
        assert STRUCTURE_ISSUES[corruption] in issues
    assert issues == expected


class TestValidatorMatchesReference:
    @pytest.mark.parametrize("kind", ["random", "blocked", "buffered"])
    def test_clean_routes_agree(self, kind):
        base = routed(kind)
        expected = reference.validate_result(base, intra_bound_ps=SKEW_BOUND_PS)
        assert validated(base) == expected

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
    def test_attribute_writes_raise(self, kind):
        """A node field written behind the tree's back used to leave a stale
        arena, which validation had to catch as delay issues.  Node views
        refuse the write, and the tree and its arena stay clean."""
        base = routed(kind)
        tree = base.tree.as_arena().to_clock_tree()
        before = tree.as_arena()
        node = tree.node(tree.sinks()[7].parent)
        with pytest.raises(AttributeError):
            node.edge_length += 1000.0
        assert tree.as_arena() is before
        assert validated(replace(base, tree=tree)) == validated(base)


class TestCoverageFallback:
    """Tree sinks are matched by exact location first and by location
    rounded to 6 decimals only where that fails; the reference matches by
    rounded location alone."""

    @staticmethod
    def shifted(base, dx: float):
        """``base`` with one sink moved by ``dx`` along x, and how its
        rounded x compares to the instance sink's."""
        tree = base.tree.as_arena().to_clock_tree()
        sink = tree.sinks()[11]
        x, y = sink.location.x, sink.location.y
        moved = round(x, 6) if dx == 0.0 else x + dx
        tree.set_location(sink.node_id, Point(moved, y))
        return replace(base, tree=tree), moved != x, round(moved, 6) == round(x, 6)

    @pytest.mark.parametrize("kind", ["random", "blocked", "large"])
    def test_a_sub_rounding_offset_matches_through_the_fallback(self, kind):
        base = routed(kind)
        result, moved, same_key = self.shifted(base, 0.0)  # onto its rounded location
        assert moved and same_key
        issues = validated(result)
        assert not [issue for issue in issues if issue.code == "coverage"]
        assert issues == reference.validate_result(result, intra_bound_ps=SKEW_BOUND_PS)

    @pytest.mark.parametrize("kind", ["random", "blocked", "large"])
    def test_a_larger_offset_is_reported(self, kind):
        base = routed(kind)
        result, moved, same_key = self.shifted(base, 1e-5)
        assert moved and not same_key
        issues = validated(result)
        assert [issue.code for issue in issues if issue.code == "coverage"] == ["coverage"]
        assert issues == reference.validate_result(result, intra_bound_ps=SKEW_BOUND_PS)


#: Coverage corruptions: a tree sink moved below or above the 6-decimal
#: rounding, its load changed by 1e-10 or 1e-8, its group swapped with
#: another's or dropped, a second instance sink (and maybe its tree sink) put
#: on a first one's location with a different load, and -0.0 against 0.0.
COVERAGE_CORRUPTIONS = (
    "move", "cap", "swap_groups", "ungroup", "stack", "negative_zero",
)


def coverage_corrupted(base, edits):
    """``base``'s tree and instance with the coverage ``edits`` applied.

    Sink node ``k`` of a route is instance sink ``k``; every edit writes the
    arena's columns or replaces instance sinks."""
    arena = base.tree.as_arena()
    xs, ys = arena.xs.copy(), arena.ys.copy()
    caps, groups, grouped = arena.sink_caps.copy(), arena.groups.copy(), arena.has_group.copy()
    sinks = list(base.instance.sinks)
    n = len(sinks)
    for kind, pick, variant in edits:
        k, other = pick % n, (pick // n + 1 + pick) % n
        if kind == "move":
            column = (xs, ys)[variant % 2]
            step = (1e-7, -1e-7, 1e-5, -1e-5, 0.0)[variant // 2 % 5]
            column[k] = round(column[k], 6) if step == 0.0 else column[k] + step
        elif kind == "cap":
            caps[k] += (1e-10, -1e-10, 1e-8, -1e-8)[variant % 4]
        elif kind == "swap_groups":
            groups[k], groups[other] = groups[other], groups[k]
        elif kind == "ungroup":
            grouped[k] = False
        elif kind == "stack":
            sink = sinks[other]
            cap = sink.cap + (0.5, 1e-10, 0.0)[variant % 3]
            sinks[other] = replace(sink, location=sinks[k].location, cap=cap)
            if variant % 2:
                xs[other], ys[other], caps[other] = xs[k], ys[k], cap
        else:  # "negative_zero"
            sinks[k] = replace(sinks[k], location=Point(-0.0, sinks[k].location.y))
            xs[k] = (0.0, -0.0)[variant % 2]
    tree = replace(
        arena, xs=xs, ys=ys, sink_caps=caps, groups=groups, has_group=grouped
    ).to_clock_tree()
    return tree, replace(base.instance, sinks=tuple(sinks))


def exact_buckets(tree, instance):
    """Per instance sink, whether a tree sink at its exact location has its
    group and a load within 1e-9: a dict bucket per location."""
    buckets = {}
    for node in tree.sinks():
        buckets.setdefault((node.location.x, node.location.y), []).append(node)
    return [
        any(
            abs(node.sink_cap - sink.cap) <= 1e-9 and node.group == sink.group
            for node in buckets.get((sink.location.x, sink.location.y), ())
        )
        for sink in instance.sinks
    ]


class TestCoverageJoinMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["random", "blocked"]),
        edits=st.lists(
            st.tuples(
                st.sampled_from(COVERAGE_CORRUPTIONS),
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_corrupted_coverage(self, kind, edits):
        """The sorted join reports the reference's coverage issues, in order,
        and finds every exact match a bucket by exact location finds, so
        only the sinks without one take the rounded fallback."""
        tree, instance = coverage_corrupted(routed(kind), edits)
        arena = tree.as_arena()
        issues = _check_instance_coverage(arena, instance)
        assert issues == reference._check_instance_coverage(tree, instance)
        sinks = np.flatnonzero(arena.kinds == SINK_KIND)
        assert _exact_matches(arena, sinks, instance.sinks).tolist() == exact_buckets(
            tree, instance
        )

    def test_loads_of_two_groups_interleave_at_one_location(self):
        """Two sinks of different groups at one location, with loads that
        interleave within the tolerance: sorted by load alone, an instance
        sink's neighbour would be the other group's tree sink.  The join
        still finds each one's exact match."""
        base = routed("random")
        arena = base.tree.as_arena()
        sinks = list(base.instance.sinks)
        k = 3
        o = next(i for i, sink in enumerate(sinks) if sink.group != sinks[k].group)
        cap = sinks[k].cap
        sinks[o] = replace(sinks[o], location=sinks[k].location, cap=cap + 3e-10)
        xs, ys, caps = arena.xs.copy(), arena.ys.copy(), arena.sink_caps.copy()
        xs[o], ys[o], caps[o], caps[k] = xs[k], ys[k], cap + 3e-10, cap + 6e-10
        tree = replace(arena, xs=xs, ys=ys, sink_caps=caps).to_clock_tree()
        instance = replace(base.instance, sinks=tuple(sinks))
        sinks_ids = np.flatnonzero(tree.as_arena().kinds == SINK_KIND)
        assert _exact_matches(tree.as_arena(), sinks_ids, instance.sinks).all()
        assert all(exact_buckets(tree, instance))
        assert _check_instance_coverage(tree.as_arena(), instance) == []

    def test_the_corruptions_report_issues(self):
        """Each corruption class can make the check fire (the sweep above
        would otherwise compare empty lists)."""
        base = routed("random")
        for edit in [("move", 3, 4), ("move", 3, 5), ("cap", 3, 2), ("swap_groups", 3, 0),
                     ("ungroup", 3, 0), ("stack", 3, 0)]:
            tree, instance = coverage_corrupted(base, [edit])
            assert _check_instance_coverage(tree.as_arena(), instance), edit
        for edit in [("move", 3, 0), ("move", 3, 1), ("cap", 3, 0), ("negative_zero", 3, 0),
                     ("negative_zero", 3, 1), ("stack", 3, 1)]:
            tree, instance = coverage_corrupted(base, [edit])
            assert not _check_instance_coverage(tree.as_arena(), instance), edit


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
