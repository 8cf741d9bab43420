"""The buffered repair's array passes against their per-node oracles.

Three passes of the buffered repair run over arrays and must reproduce the
per-node loops they replaced, bit for bit:

* buffer insertion judges batches of trials from
  :func:`~repro.delay.elmore.buffer_trial_delays`, whose every column must
  equal ``arena_elmore`` of the tree with that one buffer set;
* the skew repair's alignment sweep runs one height level at a time, or node
  by node where the wire budget binds, and must book what the walk of
  ``tests/reference_repair.py`` books;
* re-embedding skips the nodes an array pre-pass finds settled, which must be
  exactly the nodes ``_improve_node``'s detour test turns away.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import RouterSpec
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.cts.arena import SINK_KIND
from repro.delay.buffer import BufferCell, default_library
from repro.delay.elmore import arena_elmore, buffer_trial_delays
from repro.delay.technology import Technology
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.opt import BUFFERED_PASSES, OptConfig
from repro.opt import reembed as reembed_module
from repro.opt.base import OptContext
from repro.opt.buffering import BufferInsertPass
from repro.opt.optimizer import Optimizer
from repro.opt.reembed import _MIN_DETOUR, ReembedPass, _settled
from repro.opt.report import PassOutcome
from repro.opt.skew_repair import SkewRepairPass
from tests import reference_repair

BOUND = Technology.ps_to_internal(10.0)


@lru_cache(maxsize=None)
def routed(seed: int, num_sinks: int = 120, groups: int = 4):
    """A blocked instance routed at 10 ps, before any repair."""
    spec = RunSpec(
        instance=InstanceSpec.from_family(
            "blocked", num_sinks, seed=seed, groups=groups, grouping_seed=seed
        ),
        router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
    )
    return run(spec, keep_tree=True).routing


def tree_of(routing, source_resistance=0.0, buffers=()):
    """A fresh tree of the routed arena, with a source resistance and buffers."""
    arena = routing.tree.as_arena()
    tech = dataclasses.replace(arena.technology, source_resistance=source_resistance)
    tree = dataclasses.replace(arena, technology=tech).to_clock_tree()
    for node, cell in buffers:
        tree.set_buffer(node, cell)
    return tree


def context(routing, tree, budget_fraction=1.0, **config):
    ctx = OptContext(
        tree,
        OptConfig(enabled=True, **config),
        lambda group: BOUND,
        obstacles=routing.instance.obstacle_set(),
        loci=routing.loci,
    )
    ctx.wire_budget = budget_fraction * tree.total_wirelength()
    return ctx


def merge_nodes(arena):
    """Internal nodes below the root: where buffers may go."""
    return np.flatnonzero((arena.kinds != SINK_KIND) & (arena.parents >= 0))


cells = st.one_of(
    st.sampled_from(list(default_library())),
    st.builds(
        BufferCell,
        name=st.just("drawn"),
        input_cap=st.floats(1.0, 60.0),
        intrinsic_delay=st.floats(0.0, 30000.0),
        drive_resistance=st.floats(5.0, 400.0),
    ),
)


# ----------------------------------------------------------------------
# Buffer trials
# ----------------------------------------------------------------------
class TestBufferTrials:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_trial_column_is_arena_elmore_of_that_tree(self, data):
        routing = routed(data.draw(st.integers(0, 2), label="seed"))
        resistance = data.draw(st.sampled_from([0.0, 25.0, 180.5]), label="source_resistance")
        internal = merge_nodes(routing.tree.as_arena())
        buffered = data.draw(
            st.lists(st.sampled_from(internal.tolist()), max_size=4, unique=True), label="buffered"
        )
        tree = tree_of(
            routing, resistance, [(node, data.draw(cells, label="cell")) for node in buffered]
        )
        arena = tree.as_arena()
        free = internal[~arena.buffer_mask[internal]]
        pool = free.tolist()
        if buffered and data.draw(st.booleans(), label="below a buffer"):
            # Trials inside a buffered subtree: their paths stop at a buffer.
            below = arena.subtree_rows([buffered[0]])[0]
            pool = [node for node in below.tolist() if node in set(free.tolist())] or pool
        nodes = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=16, unique=True), label="trials"
        )
        trial_cells = [data.draw(cells, label="trial cell") for _ in nodes]
        columns = buffer_trial_delays(arena, nodes, trial_cells)
        assert columns.shape == (arena.num_nodes, len(nodes))
        for column, (node, cell) in enumerate(zip(nodes, trial_cells)):
            tree.set_buffer(node, cell)
            expected = arena_elmore(tree.as_arena())[1]
            assert columns[:, column].tobytes() == expected.tobytes(), (node, column)
            tree.set_buffer(node, None)

    def test_a_trial_below_a_buffer_leaves_the_rest_of_the_tree(self):
        routing = routed(0)
        arena = routing.tree.as_arena()
        internal = merge_nodes(arena)
        size = arena.preorder()[2]
        # The largest merge subtree holding under half the tree.
        top = int(max(internal[size[internal] < arena.num_nodes // 2], key=lambda n: size[n]))
        tree = tree_of(routing, 50.0, [(top, default_library().cells[0])])
        arena = tree.as_arena()
        subtree = arena.subtree_rows([top])[0].tolist()
        below = [node for node in subtree[1:] if arena.kinds[node] != SINK_KIND]
        columns = buffer_trial_delays(arena, below[:1], [default_library().cells[1]])
        before = arena_elmore(arena)[1]
        outside = np.ones(arena.num_nodes, dtype=bool)
        outside[arena.subtree_rows([top])[0]] = False
        assert np.array_equal(columns[outside, 0], before[outside])
        assert not np.array_equal(columns[~outside, 0], before[~outside])
        assert buffer_trial_delays(arena, [], []).shape == (arena.num_nodes, 0)

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_the_pass_inserts_what_one_trial_at_a_time_inserts(self, seed):
        routing = routed(seed, num_sinks=400)
        results = []
        for runner in ("pass", "oracle"):
            tree = tree_of(routing)
            ctx = context(routing, tree, max_cap=1500.0)
            if runner == "pass":
                outcome = BufferInsertPass().run(ctx, 0)
            else:
                outcome = PassOutcome(name="buffer-insert", iteration=0)
                reference_repair.buffer_insert(ctx, outcome)
            names = [None if cell is None else cell.name for cell in tree.as_arena().buffers]
            results.append((names, outcome.buffers_inserted, outcome.trials))
        assert results[0] == results[1]
        assert results[0][1] >= 1
        assert outcome.trials > results[0][1]  # some trials were rejected

    def test_batches_are_counted(self):
        routing = routed(4, num_sinks=400)
        outcome = BufferInsertPass().run(context(routing, tree_of(routing), max_cap=1500.0), 0)
        assert 1 <= outcome.trial_batches <= outcome.trials
        # An accepted trial ends its batch; the last batch may end without one.
        assert outcome.buffers_inserted <= outcome.trial_batches <= outcome.buffers_inserted + 1 + (
            outcome.trials // 16
        )


# ----------------------------------------------------------------------
# The alignment sweep
# ----------------------------------------------------------------------
def _sweep_both(routing, buffers, fraction, spent, sweeps):
    """Run ``sweeps`` sweeps of the pass and of the oracle on two copies."""
    results = []
    for runner in ("pass", "oracle"):
        tree = tree_of(routing, 0.0, buffers)
        ctx = context(routing, tree, budget_fraction=fraction)
        ctx.wire_net_added = spent
        outcome = PassOutcome(name="skew-repair", iteration=0)
        returned = []
        for _ in range(sweeps):
            if runner == "pass":
                returned.append(SkewRepairPass()._alignment_sweep(ctx, outcome))
            else:
                returned.append(reference_repair.alignment_sweep(ctx, outcome))
        lengths = [value.hex() for value in tree.as_arena().edge_lengths.tolist()]
        fields = (
            ctx.wire_net_added.hex(),
            outcome.wire_added.hex(),
            outcome.wire_trimmed.hex(),
            outcome.edges_modified,
            returned,
        )
        results.append((lengths, fields, outcome))
    return results


class TestAlignmentSweep:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_the_level_sweep_books_what_the_walk_books(self, data):
        seed = data.draw(st.integers(0, 2), label="seed")
        groups = data.draw(st.sampled_from([1, 4, 8]), label="groups")
        routing = routed(seed, 120, groups)
        internal = merge_nodes(routing.tree.as_arena())
        buffered = data.draw(
            st.lists(st.sampled_from(internal.tolist()), max_size=3, unique=True), label="buffered"
        )
        buffers = [(node, data.draw(cells, label="cell")) for node in buffered]
        fraction = data.draw(
            st.sampled_from([1.0, 0.05, 0.01, 0.002, 0.0005, 0.0]), label="budget fraction"
        )
        spent = data.draw(st.sampled_from([0.0, 125.5, -3000.0]), label="spent")
        ours, theirs = _sweep_both(routing, buffers, fraction, spent, sweeps=2)
        assert ours[0] == theirs[0]
        assert ours[1] == theirs[1]

    @pytest.mark.parametrize("fraction", [0.002, 0.0001])
    def test_a_binding_budget_reruns_node_by_node(self, fraction):
        routing = routed(2, 120, 4)
        ours, theirs = _sweep_both(routing, (), fraction, 0.0, sweeps=2)
        assert ours[0] == theirs[0] and ours[1] == theirs[1]
        assert ours[2].sweeps_by_nodes >= 1
        assert any(theirs[1][4])  # the walk booked something

    def test_an_unlimited_budget_sweeps_by_levels(self):
        routing = routed(2, 120, 8)
        ours, theirs = _sweep_both(routing, (), float("inf"), 0.0, sweeps=3)
        assert ours[0] == theirs[0] and ours[1] == theirs[1]
        assert (ours[2].sweeps_by_levels, ours[2].sweeps_by_nodes) == (3, 0)

    def test_the_pass_reports_its_sweeps(self):
        routing = routed(2, 120, 4)
        ctx = context(routing, tree_of(routing))
        outcome = SkewRepairPass().run(ctx, 0)
        assert outcome.sweeps_by_levels + outcome.sweeps_by_nodes >= 1


# ----------------------------------------------------------------------
# Re-embedding's skip test
# ----------------------------------------------------------------------
def _detour_test(ctx, node, parent, children):
    """``_improve_node``'s test: True when it turns the node away."""
    locations = ctx.locations()
    here = locations[node]
    base = ReembedPass._incident_detour(
        ctx, here, locations[parent], [locations[c] for c in children]
    )
    manhattan = locations[parent].distance_to(here)
    for child in children:
        manhattan += here.distance_to(locations[child])
    return base - manhattan <= _MIN_DETOUR


class TestReembedSkip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_the_array_test_agrees_with_the_node_test(self, seed):
        routing = routed(seed, 200, 4)
        tree = tree_of(routing)
        ctx = context(routing, tree)
        arena = tree.as_arena()
        movable = merge_nodes(arena)
        settled = _settled(ctx, movable)
        for node in movable.tolist():
            children = arena.child_ids[arena.child_offsets[node] : arena.child_offsets[node + 1]]
            expected = _detour_test(ctx, node, int(arena.parents[node]), children.tolist())
            assert settled[node] == expected, node
        assert not settled[~np.isin(np.arange(arena.num_nodes), movable)].any()
        assert settled.sum() > 0.5 * len(movable)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_skipping_settled_nodes_changes_nothing(self, seed, monkeypatch):
        """Against the pass that tests every node and recomputes every
        required length after its moves: the same moves, lengths, outcome
        and detour memo, entry for entry."""
        routing = routed(seed, 200, 4)
        results = []
        for skip in (True, False):
            if not skip:
                monkeypatch.setattr(
                    reembed_module, "_settled",
                    lambda ctx, movable: np.zeros(len(ctx.tree), dtype=bool),
                )
            tree = tree_of(routing)
            ctx = context(routing, tree)
            if not skip:  # and recompute all geometry after the moves
                ctx.nodes_moved = lambda node_ids, ctx=ctx: ctx.invalidate_geometry()
            # A fresh memo each, filled with the required lengths as the
            # optimizer's quality check fills it before every pass.
            ctx.obstacles = ObstacleSet(routing.instance.obstacle_set().rects)
            ctx.required_lengths()
            outcome = ReembedPass().run(ctx, 0)
            arena = tree.as_arena()
            results.append(
                (
                    arena.xs.tobytes(), arena.ys.tobytes(), arena.edge_lengths.tobytes(),
                    outcome.nodes_moved, outcome.edges_modified, outcome.wire_added,
                    ctx.obstacles.detours_computed, list(ctx.obstacles._memo.distances.items()),
                    list(ctx.required_lengths().items()),
                )
            )
        assert results[0] == results[1]
        if seed == 0:
            assert results[0][3] >= 1  # a node moved, so neighbours were unsettled


# ----------------------------------------------------------------------
# Reverts
# ----------------------------------------------------------------------
class TestReverts:
    def test_a_revert_names_the_component_that_failed(self):
        routing = routed(1, 300, 4)
        report = Optimizer(
            OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=8000.0)
        ).optimize(
            tree_of(routing), bound_for=lambda group: BOUND,
            obstacles=routing.instance.obstacle_set(), loci=routing.loci,
        )
        reverted = [p for p in report.passes if p.reverted]
        assert reverted
        names = ("skew_violations", "cap_violations", "excess", "floor", "wirelength")
        assert all(p.revert_reason in names for p in reverted)
        assert all(p.revert_reason is None for p in report.passes if not p.reverted)

    def test_outcome_round_trips_the_new_fields(self):
        outcome = PassOutcome(
            name="buffer-insert", iteration=0, reverted=True, revert_reason="excess",
            trials=9, trial_batches=2, sweeps_by_levels=3, sweeps_by_nodes=1,
        )
        assert PassOutcome.from_dict(outcome.to_dict()) == outcome
        legacy = {k: v for k, v in outcome.to_dict().items() if k in ("name", "iteration")}
        assert PassOutcome.from_dict(legacy).revert_reason is None

    def test_a_revert_without_moves_keeps_the_geometry_caches(self):
        routing = routed(2, 120, 4)
        tree = tree_of(routing)

        class Lengthen:
            name = "lengthen"

            def run(self, ctx, iteration):
                leaf = int(np.flatnonzero(ctx.tree.as_arena().kinds == SINK_KIND)[0])
                ctx.tree.set_edge_length(leaf, ctx.tree.as_arena().edge_lengths[leaf] + 1e5)
                return PassOutcome(name=self.name, iteration=iteration, edges_modified=1)

        seen = []

        class Probe:
            name = "probe"

            def run(self, ctx, iteration):
                seen.append(ctx._required)
                return PassOutcome(name=self.name, iteration=iteration)

        report = Optimizer(
            OptConfig(enabled=True, max_iterations=1), passes=[Probe(), Lengthen(), Probe()]
        ).optimize(
            tree, bound_for=lambda group: BOUND,
            obstacles=routing.instance.obstacle_set(), loci=routing.loci,
        )
        # A sink 100 mm late: the skew got worse.
        assert report.passes[1].reverted
        assert report.passes[1].revert_reason in ("skew_violations", "excess")
        assert seen[0] is not None and seen[1] is seen[0]

    def test_a_revert_with_moves_refreshes_the_moved_edges(self):
        routing = routed(2, 120, 4)
        tree = tree_of(routing)
        arena = tree.as_arena()
        node = int(merge_nodes(arena)[0])
        seen = []

        class MoveAndLengthen:
            name = "move-and-lengthen"

            def run(self, ctx, iteration):
                ctx.required_lengths()
                here = ctx.locations()[node]
                ctx.tree.set_location(node, Point(here.x + 3.0, here.y - 2.0))
                ctx.nodes_moved([node])
                leaf = int(np.flatnonzero(ctx.tree.as_arena().kinds == SINK_KIND)[0])
                ctx.tree.set_edge_length(leaf, ctx.tree.as_arena().edge_lengths[leaf] + 1e5)
                return PassOutcome(name=self.name, iteration=iteration, nodes_moved=1)

        class Probe:
            name = "probe"

            def run(self, ctx, iteration):
                seen.append((list(ctx.required_lengths().items()), list(ctx.locations())))
                return PassOutcome(name=self.name, iteration=iteration)

        obstacles = routing.instance.obstacle_set()
        report = Optimizer(
            OptConfig(enabled=True, max_iterations=1),
            passes=[Probe(), MoveAndLengthen(), Probe()],
        ).optimize(tree, bound_for=lambda group: BOUND, obstacles=obstacles, loci=routing.loci)
        assert report.passes[1].reverted
        assert tree.as_arena().xs[node] == arena.xs[node]
        # Back where it was, with the caches of a full recompute.
        assert seen[1] == seen[0]
        fresh = context(routing, tree)
        assert seen[1][0] == list(fresh.required_lengths().items())
