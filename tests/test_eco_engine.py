"""Tests for the ECO incremental re-route engine (repro.eco.engine)."""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.skew import skew_report
from repro.analysis.validate import validate_result
from repro.analysis.wirelength import wirelength_report
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RouterSpec, RunSpec
from repro.circuits.generator import random_instance
from repro.core.ast_dme import AstDme, AstDmeConfig
from repro.eco import (
    EcoConfig,
    EcoDelta,
    SinkAdd,
    SinkMove,
    eco_reroute,
    preserved_subtrees_identical,
    subtree_signature,
)
from repro.geometry.obstacles import ObstacleSet, Rect
from repro.geometry.point import Point
from repro.opt.config import OptConfig


def _route(n=120, seed=2, groups=4, bound_ps=10.0):
    config = AstDmeConfig(skew_bound_ps=bound_ps)
    instance = random_instance("eco-base", n, seed=seed, num_groups=groups)
    return AstDme(config).route(instance), config


def _checks(base, outcome, bound_ps=10.0):
    """The three stitching invariants every ECO result must satisfy."""
    issues = validate_result(outcome.routing, intra_bound_ps=bound_ps)
    ids = sorted(node.node_id for node in outcome.routing.tree.nodes())
    contiguous = ids == list(range(len(ids)))
    identical = preserved_subtrees_identical(
        base.tree, outcome.routing.tree, outcome.eco.preserved_roots
    )
    return issues, contiguous, identical


class TestSingleDeltas:
    def test_move_one_sink(self):
        base, config = _route()
        sink = base.instance.sinks[11]
        delta = EcoDelta(
            move=(SinkMove(11, Point(sink.location.x + 900.0, sink.location.y - 500.0)),)
        )
        outcome = eco_reroute(base, delta, EcoConfig(router=config))
        issues, contiguous, identical = _checks(base, outcome)
        assert issues == [] and contiguous and identical
        assert outcome.eco.sinks_moved == 1
        assert outcome.eco.cone_nodes > 0
        assert outcome.eco.reused_nodes + outcome.eco.rebuilt_nodes == len(
            outcome.routing.tree
        )
        # The cone must stay a small fraction of the tree for one moved sink.
        assert outcome.eco.rebuilt_nodes < len(outcome.routing.tree) / 2

    def test_add_one_sink(self):
        base, config = _route()
        delta = EcoDelta(add=(SinkAdd(location=Point(5000.0, 5000.0), cap=0.05, group=2),))
        outcome = eco_reroute(base, delta, EcoConfig(router=config))
        issues, contiguous, identical = _checks(base, outcome)
        assert issues == [] and contiguous and identical
        assert outcome.routing.instance.num_sinks == base.instance.num_sinks + 1
        assert outcome.eco.sinks_added == 1

    def test_remove_one_sink(self):
        base, config = _route()
        outcome = eco_reroute(base, EcoDelta(remove=(17,)), EcoConfig(router=config))
        issues, contiguous, identical = _checks(base, outcome)
        assert issues == [] and contiguous and identical
        assert outcome.routing.instance.num_sinks == base.instance.num_sinks - 1
        assert all(
            node.name != "sink-17" for node in outcome.routing.tree.nodes()
        )

    def test_add_blockage_rebuilds_crossing_region(self):
        base, config = _route()
        # A blockage dropped somewhere mid-layout; sinks inside would make the
        # delta invalid, so find an empty 2000x2000 pocket first.
        rng = random.Random(0)
        for _ in range(200):
            x = rng.uniform(10_000.0, 80_000.0)
            y = rng.uniform(10_000.0, 80_000.0)
            rect = Rect(x, y, x + 2000.0, y + 2000.0)
            if not any(rect.contains_point(s.location) for s in base.instance.sinks):
                break
        else:
            pytest.skip("no empty pocket found")
        outcome = eco_reroute(
            base, EcoDelta(add_blockages=(rect,)), EcoConfig(router=config)
        )
        issues, contiguous, identical = _checks(base, outcome)
        assert issues == [] and contiguous and identical
        assert outcome.eco.blockages_added == 1
        assert rect in outcome.routing.instance.obstacles

    @pytest.mark.parametrize("merge_node", (201, 204, 209, 217, 226, 233, 239))
    def test_blockage_over_a_merge_node_rebuilds_it(self, merge_node):
        """Regression: a new blockage over an embedded merge node crashed the
        detour check of every edge into it ("point ... lies inside a
        blockage").  The node and its edges are rebuilt instead."""
        config = AstDmeConfig(skew_bound_ps=10.0)
        base = AstDme(config).route(InstanceSpec.from_random(200, seed=1, groups=4).build())
        where = base.tree.node(merge_node).location
        rect = Rect(where.x - 50.0, where.y - 50.0, where.x + 50.0, where.y + 50.0)
        assert not any(
            ObstacleSet([rect]).blocks_point(s.location) for s in base.instance.sinks
        )
        outcome = eco_reroute(
            base, EcoDelta(add_blockages=(rect,)), EcoConfig(router=config)
        )
        issues, contiguous, identical = _checks(base, outcome)
        assert issues == [] and contiguous and identical
        assert outcome.eco.cone_nodes > 1

    def test_empty_delta_round_trips_the_whole_tree(self):
        base, config = _route()
        outcome = eco_reroute(base, EcoDelta(), EcoConfig(router=config))
        issues, contiguous, identical = _checks(base, outcome)
        assert issues == [] and contiguous and identical
        assert len(outcome.routing.tree) == len(base.tree)
        assert outcome.eco.dirty_nodes == 0
        assert wirelength_report(outcome.routing.tree).total == pytest.approx(
            wirelength_report(base.tree).total
        )


class TestRepair:
    def test_repair_config_runs_only_on_violations(self):
        base, config = _route()
        sink = base.instance.sinks[3]
        delta = EcoDelta(
            move=(SinkMove(3, Point(sink.location.x + 2500.0, sink.location.y)),)
        )
        outcome = eco_reroute(
            base,
            delta,
            EcoConfig(router=config, repair=OptConfig(enabled=True)),
        )
        issues, contiguous, identical = _checks(base, outcome)
        assert issues == [] and contiguous and identical
        # Whether the repair fired depends on the stitched skew; either way
        # the flag must agree with the stats.
        assert isinstance(outcome.eco.repaired, bool)

    def test_repair_keeps_every_group_within_its_bound(self):
        """Regression: the repair once gave the groups that were within bound
        an infinite one, so it traded their skew away (group 0 of this base
        went from 7.8 to 13.1 ps) while its own report counted no violation."""
        config = AstDmeConfig(skew_bound_ps=10.0)
        instance = InstanceSpec.from_random(120, seed=16, groups=4, grouping_seed=16).build()
        base = AstDme(config).route(instance)
        outcome = eco_reroute(
            base, EcoDelta(), EcoConfig(router=config, repair=OptConfig(enabled=True))
        )
        assert outcome.eco.repaired
        issues = validate_result(outcome.routing, intra_bound_ps=10.0)
        assert issues == []
        assert skew_report(outcome.routing.tree).max_intra_group_skew_ps <= 10.0 + 1e-6
        # The repair's own verdict agrees with validation's.
        assert outcome.routing.opt.skew_violations_after == 0

    def test_repair_targets_the_opt_config_bound(self):
        """Regression: ``OptConfig.skew_bound_ps`` is the bound the repair
        targets, but ECO's repair held the groups to the router's 10 ps and
        left the worst at 9.2 ps.  It must match a full run's repair."""
        spec = InstanceSpec.from_random(120, seed=16, groups=4, grouping_seed=16)
        config = AstDmeConfig(skew_bound_ps=10.0)
        repair = OptConfig(enabled=True, skew_bound_ps=5.0)
        base = AstDme(config).route(spec.build())
        outcome = eco_reroute(base, EcoDelta(), EcoConfig(router=config, repair=repair))
        full = run(
            RunSpec(
                instance=spec,
                router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
                opt=repair,
            )
        )
        assert outcome.eco.repaired
        worst = skew_report(outcome.routing.tree).max_intra_group_skew_ps
        assert worst <= 5.0 + 1e-6
        assert worst == full.skew.max_intra_group_skew_ps


class TestSubtreeSignature:
    def test_signature_ignores_node_ids_but_not_structure(self):
        base, config = _route(n=40)
        outcome = eco_reroute(base, EcoDelta(), EcoConfig(router=config))
        tree = outcome.routing.tree
        for base_root, new_root in outcome.eco.preserved_roots.items():
            assert subtree_signature(base.tree, base_root) == subtree_signature(
                tree, new_root
            )
        # A different subtree must not collide.
        roots = list(outcome.eco.preserved_roots.items())
        if len(roots) >= 2:
            (a_base, _), (_, b_new) = roots[0], roots[1]
            assert subtree_signature(base.tree, a_base) != subtree_signature(
                tree, b_new
            )


    def test_signature_is_the_object_preorder_walk(self):
        """The arena signature lists what a preorder walk of the node
        objects reads, node by node."""
        base, config = _route(n=60, seed=4)
        tree = eco_reroute(base, EcoDelta(remove=(3,)), EcoConfig(router=config)).routing.tree
        for root_id in range(0, len(tree), 5):
            expected = []
            stack = [root_id]
            while stack:
                node = tree.node(stack.pop())
                expected.append(
                    (
                        node.kind,
                        node.name,
                        None if node.location is None else (node.location.x, node.location.y),
                        0.0 if node.node_id == root_id else node.edge_length,
                        node.sink_cap,
                        node.group,
                        len(node.children),
                    )
                )
                stack.extend(reversed(node.children))
            assert subtree_signature(tree, root_id) == tuple(expected)

    @pytest.mark.parametrize(
        "edit", ["x", "y", "length", "cap", "group", "sink_id", "name", "unplace"]
    )
    def test_any_edit_inside_a_preserved_subtree_is_detected(self, edit):
        base, config = _route(n=60, seed=4)
        outcome = eco_reroute(base, EcoDelta(remove=(3,)), EcoConfig(router=config))
        tree = outcome.routing.tree
        roots = outcome.eco.preserved_roots
        assert preserved_subtrees_identical(base.tree, tree, roots)
        # The last node of the largest preserved subtree, never its root.
        new_root = max(roots.values(), key=lambda r: len(subtree_signature(tree, r)))
        order, pre, size = tree.as_arena().preorder()
        node = tree.node(int(order[pre[new_root] + size[new_root] - 1]))
        if edit == "x":
            tree.set_location(node.node_id, node.location.translated(1e-3, 0.0))
        elif edit == "y":
            tree.set_location(node.node_id, node.location.translated(0.0, 1e-3))
        elif edit == "length":
            tree.set_edge_length(node.node_id, node.edge_length + 1e-3)
        elif edit == "unplace":
            tree.set_location(node.node_id, None)
        else:  # no setter: through the arena's columns
            arena, row = tree.as_arena(), node.node_id
            if edit == "cap":
                caps = arena.sink_caps.copy()
                caps[row] = node.sink_cap + 1e-3
                arena = replace(arena, sink_caps=caps)
            elif edit == "group":
                has_group = arena.has_group.copy()
                has_group[row] = False
                arena = replace(arena, has_group=has_group)
            elif edit == "sink_id":
                sink_ids = arena.sink_ids.copy()
                sink_ids[row] += 1
                arena = replace(arena, sink_ids=sink_ids)
            else:
                labels = dict(arena.labels)
                labels[row] = "renamed"
                arena = replace(arena, labels=labels)
            tree = arena.to_clock_tree()
        assert not preserved_subtrees_identical(base.tree, tree, roots)

    def test_copied_nodes_keep_the_loci_of_their_sources(self):
        base, config = _route(n=80, seed=3)
        sink = base.instance.sinks[5]
        delta = EcoDelta(
            move=(SinkMove(5, Point(sink.location.x + 700.0, sink.location.y)),),
            remove=(9,),
        )
        outcome = eco_reroute(base, delta, EcoConfig(router=config))
        new = outcome.routing
        base_order, base_pre, base_size = base.tree.as_arena().preorder()
        new_order, new_pre, new_size = new.tree.as_arena().preorder()
        copied = 0
        for base_root, new_root in outcome.eco.preserved_roots.items():
            count = base_size[base_root]
            assert new_size[new_root] == count
            olds = base_order[base_pre[base_root] : base_pre[base_root] + count].tolist()
            news = new_order[new_pre[new_root] : new_pre[new_root] + count].tolist()
            # Bitwise: a NaN row (no locus) copies as NaN too.
            assert new.loci[news].tobytes() == base.loci[olds].tobytes()
            copied += int(np.count_nonzero(~np.isnan(base.loci[olds]).any(axis=1)))
        assert copied > 0
        # One row per node, by id.
        assert len(new.loci) == len(new.tree)


class TestStitchingInvariants:
    """Hypothesis-style sweep: random instances, random small deltas.

    Every combination must produce a tree that validates against the base
    bound, keeps node ids contiguous and stitches the untouched subtrees back
    bit-identically.
    """

    @pytest.mark.parametrize("case", range(10))
    def test_random_small_deltas(self, case):
        rng = random.Random(1000 + case)
        n = rng.choice((60, 90, 140))
        groups = rng.choice((1, 3, 5))
        base, config = _route(n=n, seed=case, groups=groups)
        instance = base.instance
        layout = max(max(s.location.x, s.location.y) for s in instance.sinks)

        ids = [s.sink_id for s in instance.sinks]
        rng.shuffle(ids)
        moved = ids[: rng.randint(0, 4)]
        removed = ids[len(moved) : len(moved) + rng.randint(0, 2)]
        delta = EcoDelta(
            move=tuple(
                SinkMove(
                    sid,
                    Point(rng.uniform(0.0, layout), rng.uniform(0.0, layout)),
                )
                for sid in moved
            ),
            remove=tuple(removed),
            add=tuple(
                SinkAdd(
                    location=Point(rng.uniform(0.0, layout), rng.uniform(0.0, layout)),
                    cap=rng.uniform(0.01, 0.1),
                    group=rng.randrange(groups),
                )
                for _ in range(rng.randint(0, 3))
            ),
        )
        outcome = eco_reroute(base, delta, EcoConfig(router=config))
        issues, contiguous, identical = _checks(base, outcome)
        assert issues == [], "case %d: %s" % (case, issues[:3])
        assert contiguous, "case %d: node ids not contiguous" % case
        assert identical, "case %d: preserved subtree changed" % case
        expected_sinks = instance.num_sinks - len(removed) + len(delta.add)
        assert outcome.routing.instance.num_sinks == expected_sinks


    def test_many_spread_moves(self):
        """Fifteen sinks spread over the instance move at once: many small
        cones, each clean subtree between them stitched back unchanged."""
        config = AstDmeConfig(skew_bound_ps=10.0)
        instance = InstanceSpec.from_random(120, seed=1, groups=8).build()
        base = AstDme(config).route(instance)
        moved = range(0, 120, 8)
        delta = EcoDelta(
            move=tuple(
                SinkMove(
                    sid,
                    Point(
                        instance.sinks[sid].location.x + 800.0,
                        instance.sinks[sid].location.y - 400.0,
                    ),
                )
                for sid in moved
            )
        )
        outcome = eco_reroute(base, delta, EcoConfig(router=config))
        issues, contiguous, identical = _checks(base, outcome)
        assert issues == [] and contiguous and identical
        assert outcome.eco.sinks_moved == len(moved) == 15


class TestErrors:
    def test_unknown_sink_in_delta_raises(self):
        base, config = _route(n=40)
        with pytest.raises(ValueError):
            eco_reroute(
                base,
                EcoDelta(move=(SinkMove(99_999, Point(0.0, 0.0)),)),
                EcoConfig(router=config),
            )

    def test_base_tree_is_never_mutated(self):
        base, config = _route(n=60)
        before = {
            node.node_id: (node.location, node.edge_length, tuple(node.children))
            for node in base.tree.nodes()
        }
        sink = base.instance.sinks[5]
        eco_reroute(
            base,
            EcoDelta(move=(SinkMove(5, Point(sink.location.x + 700.0, sink.location.y)),)),
            EcoConfig(router=config),
        )
        after = {
            node.node_id: (node.location, node.edge_length, tuple(node.children))
            for node in base.tree.nodes()
        }
        assert before == after
