"""Locus rows against the loci dicts of the object loop, through ECO chains.

``RoutingResult.loci`` holds one ``(ulo, uhi, vlo, vhi)`` row per node, NaN
where a node has no locus.  The object loop of ``tests/reference_dme.py``
keeps the loci as a dict of :class:`~repro.geometry.trr.Trr` by node id; the
rows must hold exactly that dict, by ``float.hex``, with NaN at every id it
lacks (:func:`~tests.reference_dme.assert_loci_rows`).

* Routes of the ``AstDme``-based routers (ast-dme, greedy-dme and ext-bst),
  blocked and unblocked, against :func:`~tests.reference_dme.route_reference`.
  The h-tree's rows are held to a node-by-node composite in
  ``tests/test_cts_arena.py``.
* ECO chains carry the dict along: each step's expected dict is the
  previous one re-keyed through the gather's source ids (the dict form of
  ``copied_loci``, :func:`dict_copied_loci`) plus the loci the object loop
  builds over the same stubs and sinks the re-merge grew from.
* An ECO delta on a repaired buffered route copies its buffered subtrees;
  ``copied_loci`` reads a node added after routing (an id past the rows) as
  having no locus.
"""

from __future__ import annotations

import functools
from typing import Dict

import numpy as np
import pytest

from repro.api.registry import RouterSpec, get_router
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.core.ast_dme import AstDme, AstDmeConfig, MergeStats, copied_loci
from repro.core.group_constraints import GroupAssociation
from repro.cts.tree import ClockTree
from repro.eco import EcoConfig, EcoDelta, SinkAdd, SinkMove, eco_reroute
from repro.eco import engine as eco_engine
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from repro.opt import BUFFERED_PASSES, OptConfig
from tests.reference_dme import assert_loci_rows, merge_subtrees, route_reference
from tests.reference_merge import Subtree


def _instance(family: str, num_sinks: int, seed: int, groups: int):
    if family == "blocked":
        return InstanceSpec.from_family("blocked", num_sinks, seed=seed, groups=groups).build()
    return InstanceSpec.from_random(num_sinks, seed=seed, groups=groups).build()


def dict_copied_loci(loci: Dict[int, Trr], copied_from: np.ndarray) -> Dict[int, Trr]:
    """Node ``k`` of a gather gets the locus of node ``copied_from[k]``, where
    that node has one, in ascending ``k``."""
    return {k: loci[old] for k, old in enumerate(copied_from.tolist()) if old in loci}


def object_remerge_loci(router: AstDme, prefix, sinks, source, group_ids, stubs, summary):
    """The loci the object loop builds over the rows ``AstDme.grow`` merged:
    one subtree per stub (its point, cap and delay intervals) and per sink."""
    first = prefix.num_nodes
    subtrees = []
    for k, stub in enumerate(np.asarray(stubs).tolist()):
        delays = {
            group: tuple(summary.delays[k, column].tolist())
            for column, group in enumerate(group_ids)
            if summary.present[k, column]
        }
        point = Point(float(prefix.xs[stub]), float(prefix.ys[stub]))
        subtrees.append(
            Subtree(node_id=stub, locus=Trr.from_point(point), cap=float(summary.caps[k]),
                    delays=delays)
        )
    single = len(group_ids) == 1
    for k, sink in enumerate(sinks):
        subtrees.append(
            Subtree.for_sink(
                node_id=first + k,
                locus=Trr.from_point(sink.location),
                cap=sink.cap,
                group=group_ids[0] if single else sink.group,
            )
        )
    tree = ClockTree(technology=prefix.technology)
    for _ in range(first + len(sinks)):
        tree.add_sink(Point(0.0, 0.0), sink_cap=1.0)
    loci: Dict[int, Trr] = {}
    merge_subtrees(
        router, subtrees, tree, loci, source, MergeStats(), GroupAssociation(group_ids)
    )
    return loci


def eco_with_expected(monkeypatch, base, expected: Dict[int, Trr], delta, config):
    """The outcome of ``eco_reroute(base, delta)`` and the loci dict its rows
    must hold, given ``expected``, the dict ``base.loci`` holds."""
    calls = {}
    grow, copied = AstDme.grow, eco_engine.copied_loci

    def spy_grow(self, prefix, sinks, source, group_ids, stats, association, obstacles=None,
                 stubs=(), stub_summary=None):
        calls["remerge"] = object_remerge_loci(
            self, prefix, sinks, source, group_ids, stubs, stub_summary
        )
        return grow(self, prefix, sinks, source, group_ids, stats, association, obstacles,
                    stubs, stub_summary)

    def spy_copied(loci, copied_from):
        calls["copied"] = dict_copied_loci(expected, copied_from)
        return copied(loci, copied_from)

    with monkeypatch.context() as patch:
        patch.setattr(AstDme, "grow", spy_grow)
        patch.setattr(eco_engine, "copied_loci", spy_copied)
        outcome = eco_reroute(base, delta, config)
    return outcome, {**calls["copied"], **calls["remerge"]}


def seeded_delta(instance, seed: int) -> EcoDelta:
    """Two moves, a removal and an add, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    sinks = instance.sinks
    picked = rng.choice(len(sinks), size=3, replace=False).tolist()
    return EcoDelta(
        move=tuple(
            SinkMove(sinks[k].sink_id, sinks[k].location.translated(35.0, -20.0))
            for k in picked[:2]
        ),
        remove=(sinks[picked[2]].sink_id,),
        add=(SinkAdd(location=sinks[picked[0]].location.translated(-15.0, 25.0), cap=0.04,
                     group=sinks[picked[1]].group),),
    )


@pytest.mark.parametrize("family", ["random", "blocked"])
@pytest.mark.parametrize("router", ["ast-dme", "greedy-dme", "ext-bst"])
def test_route_rows_hold_the_object_loops_loci(router, family):
    instance = _instance(family, 120, seed=4, groups=4)
    routed = get_router(router, {})
    got = routed.route(instance)
    single = not isinstance(routed, AstDme)
    expected = route_reference(AstDme(routed.config), instance, single_group=single)
    assert len(got.loci) == len(got.tree)
    assert_loci_rows(got.loci, expected.loci)


@pytest.mark.parametrize("family,groups", [("random", 4), ("blocked", 3), ("random", 1)])
def test_eco_chain_rows_hold_the_carried_dict(monkeypatch, family, groups):
    instance = _instance(family, 150, seed=6, groups=groups)
    config = AstDmeConfig(skew_bound_ps=10.0)
    routing = AstDme(config).route(instance)
    expected = route_reference(AstDme(config), instance).loci
    assert_loci_rows(routing.loci, expected)
    for step in range(3):
        outcome, expected = eco_with_expected(
            monkeypatch, routing, expected, seeded_delta(routing.instance, step),
            EcoConfig(router=config),
        )
        routing = outcome.routing
        assert len(routing.loci) == len(routing.tree)
        assert_loci_rows(routing.loci, expected)


@functools.lru_cache(maxsize=None)
def _repaired_buffered():
    spec = RunSpec(
        instance=InstanceSpec.from_family("blocked", 160, seed=1, groups=4),
        router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
        opt=OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=800.0),
    )
    result = run(spec, keep_tree=True)
    assert result.error is None
    return result.routing


def test_eco_on_a_repaired_buffered_route(monkeypatch):
    """The repair buffers nodes the router built (it adds none), so the rows
    still cover every node; an ECO delta on the repaired result copies the
    buffered subtrees with their loci."""
    base = _repaired_buffered()
    assert base.tree.num_buffers() >= 1 and len(base.loci) == len(base.tree)
    config = AstDmeConfig(skew_bound_ps=10.0)
    expected = route_reference(AstDme(config), base.instance).loci
    assert_loci_rows(base.loci, expected)

    outcome, expected = eco_with_expected(
        monkeypatch, base, expected, seeded_delta(base.instance, 11), EcoConfig(router=config)
    )
    routing = outcome.routing
    assert routing.tree.num_buffers() >= 1
    assert_loci_rows(routing.loci, expected)


def test_copied_loci_reads_ids_past_the_rows_as_nan():
    """A node added to a routed tree after routing (an id past its rows) has
    no locus, and neither has its copy."""
    rows = np.arange(12.0).reshape(3, 4)
    rows[1] = np.nan
    got = copied_loci(rows, np.array([2, 1, 3, 0, 7], dtype=np.int64))
    assert got.shape == (5, 4)
    assert got[[0, 3]].tolist() == [rows[2].tolist(), rows[0].tolist()]
    assert np.isnan(got[[1, 2, 4]]).all()
    assert copied_loci(rows, np.empty(0, dtype=np.int64)).shape == (0, 4)
