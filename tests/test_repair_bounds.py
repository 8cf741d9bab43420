"""Repairs hold each group to the bound its result was routed against.

A :class:`~repro.core.ast_dme.RoutingResult` carries the
:class:`~repro.core.group_constraints.SkewConstraints` its router enforced,
and ``optimize_routing`` -- the one repair entry, which the runner and the
ECO engine share -- derives every group's bound from them through
``Optimizer.resolve_bound``.  These tests pin that rule and the per-group
runs it fixed: repair used to hold every group to the loosest configured
bound, and a direct ECO re-merged with the router config's uniform bound.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.analysis.skew import skew_report
from repro.analysis.validate import validate_result
from repro.api.registry import RouterSpec
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.core.ast_dme import AstDmeConfig
from repro.core.group_constraints import SkewConstraints
from repro.delay.elmore import sink_delays
from repro.delay.technology import Technology
from repro.eco import EcoConfig, EcoDelta, SinkAdd, SinkMove, eco_reroute
from repro.geometry.point import Point
from repro.opt import OptConfig, Optimizer, optimize_routing

#: Group 0 routes at 2 ps, the others at 20 ps.
PER_GROUP = {
    "skew_bound_ps": 10.0,
    "per_group_bounds_ps": {"0": 2.0, "1": 20.0, "2": 20.0, "3": 20.0},
}
RANDOM = InstanceSpec.from_random(400, seed=4, groups=4, grouping_seed=4)
BLOCKED = InstanceSpec.from_family("blocked", 400, seed=2, groups=4)


def ps(value: float) -> float:
    return Technology.ps_to_internal(value)


def routed(instance, options):
    """The kept routing of ``instance`` by ast-dme with ``options``, unrepaired."""
    spec = RunSpec(instance=instance, router=RouterSpec("ast-dme", options))
    return run(spec, keep_tree=True).routing


class TestBoundRule:
    def resolve(self, constraints=None, intra_bound_ps=None, **config):
        optimizer = Optimizer(OptConfig(enabled=True, **config))
        bound_for = None if constraints is None else constraints.bound_for
        return optimizer.resolve_bound(bound_for, intra_bound_ps)

    def test_each_group_keeps_its_routed_bound(self):
        bound_for = self.resolve(SkewConstraints.per_group_ps({0: 2.0}, default_ps=20.0), 20.0)
        assert bound_for(0) == ps(2.0)
        assert bound_for(1) == ps(20.0)

    def test_a_tighter_validation_bound_wins(self):
        bound_for = self.resolve(SkewConstraints.per_group_ps({0: 2.0}, default_ps=20.0), 5.0)
        assert bound_for(0) == ps(2.0)
        assert bound_for(1) == ps(5.0)

    def test_a_zero_skew_group_takes_the_validation_bound(self):
        bound_for = self.resolve(SkewConstraints.zero_skew(), 10.0)
        assert bound_for(0) == ps(10.0)

    def test_skew_bound_ps_wins_over_both(self):
        constraints = SkewConstraints.per_group_ps({0: 2.0}, default_ps=20.0)
        bound_for = self.resolve(constraints, 10.0, skew_bound_ps=7.0)
        assert bound_for(0) == bound_for(1) == ps(7.0)

    def test_without_constraints_every_group_takes_the_validation_bound(self):
        bound_for = self.resolve(None, 10.0)
        assert bound_for(0) == bound_for(3) == ps(10.0)

    def test_without_constraints_the_routed_bound_alone_holds(self):
        bound_for = self.resolve(SkewConstraints.bounded_ps(4.0))
        assert bound_for(2) == ps(4.0)

    def test_no_constraints_and_no_bound_raises(self):
        with pytest.raises(ValueError, match="no skew bound"):
            self.resolve(None, None)

    def test_uniform_bounds_keep_their_bits(self):
        """A 10 ps routed bound capped at 10 ps is the very same float, so
        uniform-bound repairs stay bit-identical."""
        bound = self.resolve(SkewConstraints.bounded_ps(10.0), 10.0)(0)
        assert bound.hex() == ps(10.0).hex()


class TestRoutersRecordTheirConstraints:
    @pytest.mark.parametrize(
        "router, options, group0_ps",
        [
            ("ast-dme", PER_GROUP, 2.0),
            ("ast-dme", {"skew_bound_ps": 8.0}, 8.0),
            ("ext-bst", {"skew_bound_ps": 10.0}, 10.0),
            ("greedy-dme", {}, 0.0),
            ("h-tree", {"skew_bound_ps": 10.0, "trunk_levels": 1}, 10.0),
        ],
    )
    def test_result_carries_the_enforced_constraints(self, router, options, group0_ps):
        spec = RunSpec(
            instance=InstanceSpec.from_random(40, seed=1, groups=2),
            router=RouterSpec(router, options),
        )
        routing = run(spec, keep_tree=True).routing
        assert routing.constraints.bound_for(0) == ps(group0_ps)

    def test_router_level_opt_is_gone(self):
        with pytest.raises(TypeError):
            AstDmeConfig(opt=OptConfig(enabled=True))


class TestPerGroupRepair:
    @pytest.mark.parametrize("instance", [RANDOM, BLOCKED], ids=["random", "blocked"])
    def test_run_spec_opt_holds_each_group_to_its_bound(self, instance):
        """Regression: ``RunSpec.opt`` held every group to the loosest bound
        (20 ps) and relaxed group 0 from 1.73 to 16.10 ps (random) or left it
        at 16.90 ps (blocked) while reporting ``ok``."""
        result = run(
            RunSpec(
                instance=instance,
                router=RouterSpec("ast-dme", PER_GROUP),
                opt=OptConfig(enabled=True),
                validate=True,
            )
        )
        assert result.ok
        assert result.skew.group_skew_ps(0) <= 2.0 + 1e-6
        assert result.max_intra_group_skew_ps <= 20.0 + 1e-6
        assert result.opt.bound_ps == pytest.approx(2.0)

    def test_a_looser_validation_bound_does_not_relax_the_routed_one(self):
        instance = InstanceSpec.from_random(120, seed=2, groups=4)
        router = RouterSpec("ast-dme", {"skew_bound_ps": 4.0})
        opt = OptConfig(enabled=True)
        result = run(RunSpec(instance=instance, router=router, intra_bound_ps=50.0, opt=opt))
        assert result.max_intra_group_skew_ps <= 4.0 + 1e-6
        assert result.opt.bound_ps == pytest.approx(4.0)

    def test_optimize_routing_without_a_validation_bound_uses_the_routed_ones(self):
        routing = routed(BLOCKED, PER_GROUP)
        report = optimize_routing(routing, OptConfig(enabled=True))
        assert report.skew_violations_after == 0
        assert skew_report(routing.tree).group_skew_ps(0) <= 2.0 + 1e-6


class TestEcoKeepsTheBaseConstraints:
    @pytest.fixture(scope="class")
    def base(self):
        return routed(RANDOM, PER_GROUP)

    @pytest.mark.parametrize("seed", range(6))
    def test_direct_eco_holds_group_zero(self, base, seed):
        """Regression: a direct ``eco_reroute`` re-merged with the router
        config's uniform 10 ps bound and took group 0 up to 7.50 ps."""
        sinks = base.instance.sinks
        lo = min(min(s.location.x, s.location.y) for s in sinks)
        hi = max(max(s.location.x, s.location.y) for s in sinks)
        rng = random.Random(seed)
        picked = rng.sample([s.sink_id for s in sinks], 6)
        delta = EcoDelta(
            move=tuple(
                SinkMove(sid, Point(rng.uniform(lo, hi), rng.uniform(lo, hi)))
                for sid in picked[:4]
            ),
            remove=tuple(picked[4:]),
            add=(SinkAdd(Point(rng.uniform(lo, hi), rng.uniform(lo, hi)), sinks[0].cap, 0),),
        )
        outcome = eco_reroute(base, delta, EcoConfig(router=AstDmeConfig(skew_bound_ps=10.0)))
        assert outcome.routing.constraints is base.constraints
        assert skew_report(outcome.routing.tree).group_skew_ps(0) <= 2.0 + 1e-6


class TestValidationHoldsRoutedBounds:
    """Validation holds each group to the bound repair holds it to."""

    @pytest.fixture(scope="class")
    def stretched(self):
        """The per-group random route with one group-0 sink edge stretched
        until group 0 spreads about 15 ps: far over its own 2 ps, inside the
        loosest configured bound (20 ps)."""
        routing = routed(RANDOM, PER_GROUP)
        tree = routing.tree
        delays = sink_delays(tree)
        sink = max((s for s in tree.sinks() if s.group == 0), key=lambda s: delays[s.node_id])
        base = sink.edge_length
        lo, hi = 0.0, 1.0
        while True:
            tree.set_edge_length(sink.node_id, base + hi)
            if skew_report(tree).group_skew_ps(0) > 15.0:
                break
            lo, hi = hi, 2.0 * hi
        for _ in range(30):
            mid = (lo + hi) / 2.0
            tree.set_edge_length(sink.node_id, base + mid)
            lo, hi = (mid, hi) if skew_report(tree).group_skew_ps(0) < 15.0 else (lo, mid)
        return routing

    def test_a_group_over_its_own_bound_is_flagged(self, stretched):
        """Regression: with 20 ps (the loosest bound, the runner's default)
        every group was held to 20 ps and group 0 validated clean."""
        skew = skew_report(stretched.tree)
        assert 2.0 + 1.0 < skew.group_skew_ps(0) < 20.0
        assert all(skew.group_skew_ps(g) <= 20.0 for g in (1, 2, 3))
        issues = [i for i in validate_result(stretched, intra_bound_ps=20.0) if i.code == "skew"]
        assert [i.message.split()[1] for i in issues] == ["0"]
        assert "exceeds the 2.000 ps bound" in issues[0].message

    def test_a_tighter_validation_bound_caps_the_routed_ones(self, stretched):
        issues = [i for i in validate_result(stretched, intra_bound_ps=1.0) if i.code == "skew"]
        assert any(i.message.startswith("group 0 ") for i in issues)
        assert all(i.message.endswith("exceeds the 1.000 ps bound") for i in issues)

    def test_without_constraints_every_group_takes_the_validation_bound(self, stretched):
        unrouted = dataclasses.replace(stretched, constraints=None)
        assert not [i for i in validate_result(unrouted, intra_bound_ps=20.0) if i.code == "skew"]

    def test_the_reference_validator_holds_the_same_rule(self, stretched):
        pytest.importorskip("networkx")
        from tests import reference_validate

        for bound_ps in (1.0, 20.0):
            expected = reference_validate.validate_result(stretched, intra_bound_ps=bound_ps)
            got = validate_result(stretched, intra_bound_ps=bound_ps)
            assert [str(i) for i in got if i.code == "skew"] == [
                str(i) for i in expected if i.code == "skew"
            ]
