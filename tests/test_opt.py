"""Tests for the repro.opt post-construction optimization subsystem."""

from __future__ import annotations

import json

import pytest

from repro.analysis.validate import validate_result
from repro.api.registry import RouterSpec
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.core.ast_dme import AstDme, AstDmeConfig
from repro.delay.elmore import sink_delays, subtree_capacitances
from repro.delay.technology import Technology
from repro.opt import (
    BUFFERED_PASSES,
    OptConfig,
    OptContext,
    OptReport,
    Optimizer,
    PassOutcome,
    available_passes,
    get_pass,
    optimize_routing,
    register_pass,
    unregister_pass,
)


def _blocked_spec(num_sinks=120, groups=8, router="ast-dme", **spec_kwargs):
    return RunSpec(
        instance=InstanceSpec.from_family("blocked", num_sinks, seed=1, groups=groups),
        router=RouterSpec(router, {"skew_bound_ps": 10.0}),
        **spec_kwargs,
    )


@pytest.fixture(scope="module")
def blocked_routing():
    """One routed-but-unrepaired blocked instance shared by read-only tests."""
    return run(_blocked_spec(), keep_tree=True).routing


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TestOptConfig:
    def test_defaults_disabled(self):
        assert OptConfig().enabled is False

    def test_round_trip(self):
        config = OptConfig(
            enabled=True, max_iterations=3, safety=0.5, skew_bound_ps=7.5,
            passes=("skew-repair",),
        )
        data = config.to_dict()
        json.dumps(data)  # JSON-serialisable
        assert OptConfig.from_dict(data) == config

    def test_defaults_serialise_compactly(self):
        data = OptConfig(enabled=True).to_dict()
        assert data == {"enabled": True, "passes": list(OptConfig().passes)}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown opt config keys"):
            OptConfig.from_dict({"enabled": True, "turbo": 11})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"safety": 0.0},
            {"safety": 1.5},
            {"repair_sweeps": 0},
            {"max_added_wire_fraction": -0.1},
            {"polish_steps": -1},
            {"skew_bound_ps": float("nan")},
            {"skew_bound_ps": 0.0},
            {"skew_bound_ps": -10.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OptConfig(**kwargs)

    def test_infinite_skew_bound_allowed(self):
        assert OptConfig(skew_bound_ps=float("inf")).skew_bound_ps == float("inf")


class TestReports:
    def test_outcome_round_trip(self):
        outcome = PassOutcome(
            name="skew-repair", iteration=1, edges_modified=3, wire_added=12.5
        )
        assert PassOutcome.from_dict(outcome.to_dict()) == outcome

    def test_report_round_trip(self):
        report = OptReport(
            bound_ps=10.0,
            iterations=2,
            converged=True,
            wirelength_before=100.0,
            wirelength_after=105.0,
            skew_violations_before=4,
            skew_violations_after=0,
            passes=[PassOutcome(name="reembed", iteration=0, nodes_moved=2)],
        )
        data = report.to_dict()
        json.dumps(data)
        assert OptReport.from_dict(data) == report

    def test_derived_metrics(self):
        report = OptReport(
            wirelength_before=100.0, wirelength_after=90.0,
            skew_violations_before=4, skew_violations_after=1,
        )
        assert report.wire_added == pytest.approx(-10.0)
        assert report.violations_eliminated_fraction == pytest.approx(0.75)
        assert OptReport(skew_violations_before=0).violations_eliminated_fraction == 1.0


# ----------------------------------------------------------------------
# Pass registry
# ----------------------------------------------------------------------
class TestPassRegistry:
    def test_builtins_registered(self):
        assert available_passes() == [
            "buffer-insert", "reembed", "skew-repair", "wirelength-recovery",
        ]

    def test_get_pass_constructs(self):
        assert get_pass("skew-repair").name == "skew-repair"

    def test_unknown_pass_lists_names(self):
        with pytest.raises(KeyError, match="reembed"):
            get_pass("no-such-pass")

    def test_register_and_unregister(self):
        class NoOpPass:
            name = "no-op"

            def run(self, ctx, iteration):
                return PassOutcome(name=self.name, iteration=iteration)

        register_pass("no-op", NoOpPass)
        try:
            assert "no-op" in available_passes()
            with pytest.raises(ValueError, match="already registered"):
                register_pass("no-op", NoOpPass)
        finally:
            unregister_pass("no-op")
        assert "no-op" not in available_passes()


# ----------------------------------------------------------------------
# The optimizer on real blocked instances
# ----------------------------------------------------------------------
class TestOptimizer:
    def test_repairs_blocked_multi_group_instance(self):
        result = run(_blocked_spec(), keep_tree=True)
        pre = [i for i in validate_result(result.routing, intra_bound_ps=10.0)
               if i.code == "skew"]
        report = optimize_routing(
            result.routing, OptConfig(enabled=True), intra_bound_ps=10.0
        )
        post = [i for i in validate_result(result.routing, intra_bound_ps=10.0)
                if i.code == "skew"]
        assert pre, "the unrepaired blocked tree must violate the bound"
        assert report.skew_violations_before > 0
        assert report.skew_violations_after == 0
        assert report.converged
        assert not post
        assert report.max_intra_skew_after_ps <= 10.0 + 1e-6

    def test_repairs_with_the_arena_elmore_engine(self, monkeypatch):
        """Regression: the repair passes' bulk snapshot-restore loops once
        wrote node attributes in place, the cached arena snapshot went stale
        and the arena Elmore engine (the `auto` choice for trees past the
        size threshold) scored every candidate move against the pre-mutation
        tree, leaving violations unrepaired at bench sizes.  The undo now
        goes through the setters, which refresh the snapshot's rows."""
        import repro.delay.elmore as elmore

        monkeypatch.setattr(elmore, "ARENA_THRESHOLD", 1)
        result = run(_blocked_spec(), keep_tree=True)
        report = optimize_routing(
            result.routing, OptConfig(enabled=True), intra_bound_ps=10.0
        )
        assert report.skew_violations_before > 0
        assert report.skew_violations_after == 0
        assert report.converged

    def test_repair_keeps_tree_valid(self):
        result = run(_blocked_spec(num_sinks=80), keep_tree=True)
        optimize_routing(result.routing, OptConfig(enabled=True), intra_bound_ps=10.0)
        issues = validate_result(result.routing, intra_bound_ps=10.0)
        assert issues == []

    def test_oracle_cross_check_recorded(self):
        result = run(_blocked_spec(num_sinks=60), keep_tree=True)
        report = optimize_routing(
            result.routing, OptConfig(enabled=True), intra_bound_ps=10.0
        )
        assert report.oracle_checked
        # Fast Elmore and the RcTree oracle agree to numerical precision.
        assert report.oracle_max_diff < 1e-3

    def test_single_group_router_repairs_under_validation_bound(self):
        result = run(_blocked_spec(groups=1, router="greedy-dme"), keep_tree=True)
        report = optimize_routing(
            result.routing, OptConfig(enabled=True), intra_bound_ps=10.0
        )
        assert report.skew_violations_after == 0

    def test_needs_a_positive_bound(self):
        result = run(_blocked_spec(num_sinks=40, groups=1), keep_tree=True)
        with pytest.raises(ValueError, match="positive skew bound"):
            Optimizer(OptConfig(enabled=True)).optimize(
                result.routing.tree, bound_for=lambda g: 0.0
            )

    def test_missing_bound_everywhere_raises(self):
        result = run(_blocked_spec(num_sinks=40, groups=1), keep_tree=True)
        with pytest.raises(ValueError, match="skew bound"):
            optimize_routing(result.routing, OptConfig(enabled=True))

    def test_degrading_pass_is_reverted(self, blocked_routing):
        class VandalPass:
            """Doubles every edge length -- strictly worse on every axis."""

            name = "vandal"

            def run(self, ctx, iteration):
                outcome = PassOutcome(name=self.name, iteration=iteration)
                for node in ctx.tree.nodes():
                    if node.parent is not None:
                        ctx.tree.set_edge_length(node.node_id, node.edge_length * 2.0)
                        outcome.edges_modified += 1
                        outcome.wire_added += node.edge_length / 2.0
                return outcome

        tree = blocked_routing.tree
        lengths_before = {n.node_id: n.edge_length for n in tree.nodes()}
        bound = Technology.ps_to_internal(10.0)
        report = Optimizer(
            OptConfig(enabled=True, max_iterations=1, verify_oracle=False),
            passes=[VandalPass()],
        ).optimize(tree, bound_for=lambda g: bound)
        assert all(outcome.reverted for outcome in report.passes)
        assert {n.node_id: n.edge_length for n in tree.nodes()} == lengths_before

    def test_disabled_config_refuses_to_run(self, blocked_routing):
        with pytest.raises(ValueError, match="enabled"):
            Optimizer(OptConfig(skew_bound_ps=10.0)).optimize(blocked_routing.tree)

    def test_wire_budget_is_a_hard_net_cap(self):
        result = run(_blocked_spec(num_sinks=200), keep_tree=True)
        tree = result.routing.tree
        before = tree.total_wirelength()
        cap = 0.02
        report = optimize_routing(
            result.routing,
            OptConfig(enabled=True, max_added_wire_fraction=cap, verify_oracle=False),
            intra_bound_ps=10.0,
        )
        growth = (tree.total_wirelength() - before) / before
        assert growth <= cap + 1e-6
        # A binding budget must be reported honestly, not as convergence.
        if report.skew_violations_after > 0:
            assert not report.converged

    def test_reembed_changes_survive_the_acceptance_gate(self):
        """A pure merge-point move lowers the geometric floor without
        changing any delay; the driver must count that as progress instead
        of reverting it (required-floor term in the quality tuple)."""
        spec = RunSpec(
            instance=InstanceSpec.from_family("blocked", 500, seed=1, groups=8),
            router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
        )
        result = run(spec, keep_tree=True)
        report = optimize_routing(
            result.routing, OptConfig(enabled=True, verify_oracle=False),
            intra_bound_ps=10.0,
        )
        moved = [o for o in report.passes if o.name == "reembed" and o.nodes_moved]
        assert moved, "this instance has re-embeddable detours"
        assert any(not o.reverted for o in moved)

    def test_custom_pass_pipeline_by_name(self, blocked_routing):
        bound = Technology.ps_to_internal(10.0)
        report = Optimizer(
            OptConfig(enabled=True, passes=("skew-repair",), verify_oracle=False)
        ).optimize(blocked_routing.tree, bound_for=lambda g: bound)
        assert {outcome.name for outcome in report.passes} == {"skew-repair"}


# ----------------------------------------------------------------------
# Array skew scoring against the per-sink reference
# ----------------------------------------------------------------------
def reference_group_spreads(ctx, delays):
    """The historical per-sink walk: ``{group: hi - lo}`` from a delay dict,
    groups in first-occurrence order over ``tree.sinks()``."""
    lo = {}
    hi = {}
    for sink in ctx.tree.sinks():
        group = ctx.group_of(sink)
        delay = delays[sink.node_id]
        if group in lo:
            lo[group] = min(lo[group], delay)
            hi[group] = max(hi[group], delay)
        else:
            lo[group] = hi[group] = delay
    return {group: hi[group] - lo[group] for group in lo}


def _context(tree, single_group=False, **config):
    bound = Technology.ps_to_internal(10.0)
    return OptContext(
        tree,
        OptConfig(enabled=True, **config),
        lambda group: bound,
        single_group=single_group,
    )


class TestArraySkewScoring:
    @pytest.mark.parametrize("groups", [1, 4, 8])
    @pytest.mark.parametrize("single_group", [False, True])
    def test_spreads_match_the_reference_walk(self, groups, single_group):
        tree = run(_blocked_spec(num_sinks=150, groups=groups), keep_tree=True).routing.tree
        ctx = _context(tree, single_group=single_group)
        expected = reference_group_spreads(ctx, sink_delays(tree))
        got = ctx.group_spreads()
        assert list(got.items()) == list(expected.items())
        if not single_group:
            assert len(got) == groups
        # An edit moves the spreads; the scoring follows the new snapshot.
        sink = tree.sinks()[3]
        tree.set_edge_length(sink.node_id, sink.edge_length + 500.0)
        assert list(ctx.group_spreads().items()) == list(
            reference_group_spreads(ctx, sink_delays(tree)).items()
        )

    def test_sinks_without_a_group_score_as_group_zero(self):
        tree = run(_blocked_spec(num_sinks=80, groups=4), keep_tree=True).routing.tree
        for sink in tree.sinks()[::3]:
            sink.group = None
        tree.mark_mutated()
        ctx = _context(tree)
        got = ctx.group_spreads()
        assert list(got.items()) == list(
            reference_group_spreads(ctx, sink_delays(tree)).items()
        )
        assert 0 in got

    def test_buffered_trees_match_the_reference_walk(self):
        spec = _blocked_spec(
            num_sinks=500,
            groups=4,
            opt=OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=8000.0),
        )
        tree = run(spec, keep_tree=True).routing.tree
        assert tree.num_buffers() >= 1
        ctx = _context(tree, max_cap=8000.0)
        got = ctx.group_spreads()
        assert list(got.items()) == list(
            reference_group_spreads(ctx, sink_delays(tree)).items()
        )
        delays = ctx.elmore()[1]
        assert ctx.skew_violations(delays) == sum(
            1 for s in got.values() if s > ctx.bound_for(0) + 1e-9
        )
        caps = subtree_capacitances(tree)
        assert ctx.cap_violations() == sum(1 for c in caps.values() if c > 8000.0 + 1e-9)


# ----------------------------------------------------------------------
# Buffer insertion
# ----------------------------------------------------------------------
class TestBufferInsert:
    def test_noop_without_a_cap_limit(self, blocked_routing):
        bound = Technology.ps_to_internal(10.0)
        report = Optimizer(
            OptConfig(enabled=True, passes=("buffer-insert",), verify_oracle=False)
        ).optimize(blocked_routing.tree, bound_for=lambda g: bound)
        outcome = report.passes[0]
        assert outcome.buffers_inserted == 0
        assert not outcome.changed

    def test_inserts_buffers_and_clears_cap_violations(self):
        spec = _blocked_spec(
            num_sinks=500,
            validate=True,
            opt=OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=8000.0),
        )
        result = run(spec, keep_tree=True)
        inserted = sum(p.buffers_inserted for p in result.opt.passes)
        assert inserted >= 1
        assert result.routing.tree.num_buffers() == inserted
        assert result.issues == []
        from repro.delay.elmore import subtree_capacitances

        def over_cap(tree):
            caps = subtree_capacitances(tree)
            return sum(1 for value in caps.values() if value > 8000.0)

        plain = run(_blocked_spec(num_sinks=500), keep_tree=True)
        # Insertion may skip sites where decoupling would hurt skew, so the
        # limit is not a hard guarantee -- but coverage must strictly improve.
        assert over_cap(result.routing.tree) < over_cap(plain.routing.tree)

    def test_insertion_never_degrades_skew(self):
        spec = _blocked_spec(
            opt=OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=8000.0),
        )
        report = run(spec).opt
        assert report.skew_violations_after <= report.skew_violations_before

    def test_inline_single_cell_library(self):
        cell = {
            "name": "mono",
            "input_cap": 25.0,
            "intrinsic_delay": 16000.0,
            "drive_resistance": 70.0,
        }
        spec = _blocked_spec(
            validate=True,
            opt=OptConfig(
                enabled=True,
                passes=BUFFERED_PASSES,
                max_cap=8000.0,
                buffer_library=[cell],
            ),
        )
        result = run(spec, keep_tree=True)
        assert sum(p.buffers_inserted for p in result.opt.passes) >= 1
        assert result.issues == []
        buffered = [
            node.buffer
            for node in result.routing.tree.nodes()
            if node.buffer is not None
        ]
        assert {buf.name for buf in buffered} == {"mono"}

    def test_buffered_opt_config_round_trips(self):
        config = OptConfig(
            enabled=True,
            passes=BUFFERED_PASSES,
            max_cap=5000.0,
            buffer_library=[
                {
                    "name": "mono",
                    "input_cap": 25.0,
                    "intrinsic_delay": 16000.0,
                    "drive_resistance": 70.0,
                }
            ],
        )
        data = config.to_dict()
        json.dumps(data)
        assert OptConfig.from_dict(data) == config


# ----------------------------------------------------------------------
# Integration: spec / runner / engine config
# ----------------------------------------------------------------------
class TestApiIntegration:
    def test_run_spec_round_trips_opt_and_tolerance(self):
        spec = _blocked_spec(
            validate=True,
            opt=OptConfig(enabled=True, max_iterations=2),
            locus_tolerance=0.5,
        )
        data = spec.to_dict()
        json.dumps(data)
        restored = RunSpec.from_dict(data)
        assert restored == spec
        assert restored.opt.max_iterations == 2
        assert restored.locus_tolerance == 0.5

    def test_runner_invokes_optimizer_and_validates_post_repair(self):
        result = run(_blocked_spec(validate=True, opt=OptConfig(enabled=True)))
        assert result.opt is not None
        assert result.opt.skew_violations_after == 0
        assert not [i for i in result.issues if i.code == "skew"]
        # The RunResult JSON carries the report.
        restored = type(result).from_dict(result.to_dict())
        assert restored.opt.skew_violations_before == result.opt.skew_violations_before

    def test_runner_without_opt_attaches_no_report(self):
        result = run(_blocked_spec())
        assert result.opt is None
        assert result.to_dict()["opt"] is None

    def test_disabled_opt_block_is_a_no_op(self):
        plain = run(_blocked_spec())
        disabled = run(_blocked_spec(opt=OptConfig(enabled=False)))
        assert disabled.opt is None
        assert disabled.wirelength == plain.wirelength
        assert disabled.skew.global_skew == plain.skew.global_skew

    def test_obstacle_free_run_with_repair_changes_nothing_structural(self):
        spec = RunSpec(
            instance=InstanceSpec.from_random(60, seed=2, groups=4),
            router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
            validate=True,
        )
        plain = run(spec)
        repaired = run(
            RunSpec(
                instance=spec.instance,
                router=spec.router,
                validate=True,
                opt=OptConfig(enabled=True),
            )
        )
        # No violations to fix: the optimizer may reclaim wire (relaxing
        # skew only within the bound), never violate the bound or validity.
        assert repaired.ok
        assert repaired.opt.skew_violations_before == 0
        assert repaired.opt.skew_violations_after == 0
        assert repaired.wirelength <= plain.wirelength + 1e-6

    def test_single_group_semantics_thread_through_runner(self):
        """EXT-BST / greedy-DME results are repaired as one group: the bound
        caps the *global* skew, matching the contract the router enforced,
        even when the instance carries groups."""
        spec = RunSpec(
            instance=InstanceSpec.from_family("blocked", 80, seed=1, groups=8),
            router=RouterSpec("ext-bst", {"skew_bound_ps": 10.0}),
            validate=True,
            opt=OptConfig(enabled=True),
        )
        result = run(spec, keep_tree=True)
        assert result.routing.single_group is True
        assert result.ok
        assert result.skew.global_skew_ps <= 10.0 + 1e-6

    def test_zero_skew_tree_may_relax_toward_the_bound_for_wire(self):
        """Documented trade: enabling repair on a compliant zero-skew tree
        lets recovery reclaim wire while staying within the validation
        bound (docs/optimization.md, "The bound is the contract")."""
        instance = InstanceSpec.from_random(60, seed=2)
        router = RouterSpec("greedy-dme", {"skew_bound_ps": 10.0})
        plain = run(RunSpec(instance=instance, router=router))
        repaired = run(
            RunSpec(
                instance=instance,
                router=router,
                validate=True,
                opt=OptConfig(enabled=True),
            )
        )
        assert plain.skew.global_skew_ps == pytest.approx(0.0, abs=1e-9)
        assert repaired.ok
        assert repaired.wirelength <= plain.wirelength
        assert repaired.skew.global_skew_ps <= 10.0 + 1e-6

    def test_engine_level_opt_config_through_registry(self):
        spec = RunSpec(
            instance=InstanceSpec.from_family("blocked", 80, seed=1, groups=8),
            router=RouterSpec(
                "ast-dme",
                {"skew_bound_ps": 10.0, "opt": {"enabled": True}},
            ),
            validate=True,
        )
        result = run(spec, keep_tree=True)
        assert result.routing.opt is not None
        assert result.opt is not None  # surfaced from the engine, not re-run
        assert result.opt.skew_violations_after == 0

    def test_engine_level_opt_direct(self):
        instance = InstanceSpec.from_family("blocked", 80, seed=1, groups=8).build()
        config = AstDmeConfig(opt=OptConfig(enabled=True))
        result = AstDme(config).route(instance)
        assert result.opt is not None
        assert result.opt.skew_violations_after == 0

    def test_locus_tolerance_threads_through_validation(self, blocked_routing):
        # An artificially displaced node fails the default tolerance and
        # passes a loose one.
        tree = blocked_routing.tree
        victim = next(
            node_id for node_id in blocked_routing.loci if tree.node(node_id).location
        )
        from repro.geometry.point import Point

        original = tree.node(victim).location
        locus = blocked_routing.loci[victim]
        near = locus.nearest_point_to(original)
        try:
            tree.set_location(victim, Point(near.x + 0.01, near.y))
            strict = validate_result(blocked_routing, locus_tolerance=1e-6)
            loose = validate_result(blocked_routing, locus_tolerance=1.0)
            assert any(
                i.code == "locus" and "node %d " % victim in i.message for i in strict
            )
            assert not any(
                i.code == "locus" and "node %d " % victim in i.message for i in loose
            )
        finally:
            tree.set_location(victim, original)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_version_flag(self, capsys):
        import repro
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_route_repair_and_tolerance_arguments(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["route", "x.inst", "--repair", "--tolerance", "0.5"]
        )
        assert args.repair is True
        assert args.tolerance == 0.5

    def test_optimize_subcommand_repairs(self, tmp_path, capsys):
        from repro.circuits.benchmarks import generate_instance
        from repro.circuits.io import save_instance
        from repro.cli import main

        instance = generate_instance("blocked", "b", num_sinks=80, seed=1, num_groups=8)
        path = tmp_path / "blocked.inst"
        save_instance(instance, path)
        assert main(["optimize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repair" in out
        assert "validation     : ok" in out

    def test_optimize_rejects_unknown_pass(self, tmp_path):
        from repro.circuits.benchmarks import generate_instance
        from repro.circuits.io import save_instance
        from repro.cli import main

        instance = generate_instance("blocked", "b", num_sinks=20, seed=1)
        path = tmp_path / "blocked.inst"
        save_instance(instance, path)
        with pytest.raises(SystemExit, match="unknown optimization pass"):
            main(["optimize", str(path), "--passes", "warp-drive"])

    def test_route_repair_smoke(self, tmp_path, capsys):
        from repro.circuits.benchmarks import generate_instance
        from repro.circuits.io import save_instance
        from repro.cli import main

        instance = generate_instance("blocked", "b", num_sinks=80, seed=1, num_groups=8)
        path = tmp_path / "blocked.inst"
        save_instance(instance, path)
        assert main(["route", str(path), "--repair", "--validate"]) == 0
        assert "repair" in capsys.readouterr().out