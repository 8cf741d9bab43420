"""Tests for the H-tree trunk hybrid router (repro.core.htree)."""

import pytest

from repro.analysis.validate import validate_result
from repro.api.registry import RouterSpec, get_router
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.circuits.generator import random_instance
from repro.circuits.instance import ClockInstance, Sink
from repro.core.ast_dme import AstDme, AstDmeConfig
from repro.core.htree import HTreeRouter
from repro.delay.elmore import sink_delays
from repro.delay.technology import Technology
from repro.geometry.point import Point
from repro.opt.config import OptConfig
from repro.opt.optimizer import optimize_routing


def route_htree(instance, trunk_levels=2, **config_kwargs):
    config = AstDmeConfig(skew_bound_ps=10.0, **config_kwargs)
    return HTreeRouter(config, trunk_levels=trunk_levels).route(instance)


class TestConstruction:
    def test_rejects_negative_trunk_levels(self):
        with pytest.raises(ValueError, match="non-negative"):
            HTreeRouter(trunk_levels=-1)

    def test_zero_trunk_levels_delegates_to_ast_dme(self):
        instance = random_instance("flat", num_sinks=40, seed=3, num_groups=2)
        htree = route_htree(instance, trunk_levels=0)
        plain = AstDme(AstDmeConfig(skew_bound_ps=10.0)).route(
            instance, single_group=True
        )
        assert htree.tree.total_wirelength() == plain.tree.total_wirelength()
        assert htree.single_group is True

    def test_single_sink_instance(self):
        instance = ClockInstance(
            name="one",
            sinks=(Sink(0, Point(500.0, 500.0), 40.0, group=0),),
            source=Point(0.0, 0.0),
        )
        result = route_htree(instance)
        assert validate_result(result, intra_bound_ps=10.0) == []
        assert len(result.tree.sinks()) == 1


class TestRouting:
    def test_routes_within_bound_and_validates(self):
        instance = random_instance("uniform", num_sinks=120, seed=5, num_groups=4)
        result = route_htree(instance)
        assert validate_result(result, intra_bound_ps=10.0) == []
        assert result.single_group is True
        # The trunk bounds every sink against every other: all groups are
        # mutually associated, like a merge spanning them all.
        groups = instance.groups()
        assert all(
            result.association.associated(groups[0], group)
            for group in groups[1:]
        )

    def test_trunk_aligns_whole_tree_spread_to_the_bound(self):
        instance = random_instance("uniform", num_sinks=200, seed=11, num_groups=8)
        result = route_htree(instance, trunk_levels=3)
        delays = sink_delays(result.tree)
        spread = max(delays.values()) - min(delays.values())
        assert spread <= Technology.ps_to_internal(10.0) + 1e-3

    def test_collinear_sinks_use_median_fallback(self):
        sinks = tuple(
            Sink(i, Point(1000.0 * i, 0.0), 30.0, group=0) for i in range(8)
        )
        instance = ClockInstance(name="line", sinks=sinks, source=Point(0.0, 1000.0))
        result = route_htree(instance, trunk_levels=3)
        assert validate_result(result, intra_bound_ps=10.0) == []
        assert len(result.tree.sinks()) == 8

    def test_coincident_sinks_do_not_recurse_forever(self):
        sinks = tuple(
            Sink(i, Point(5000.0, 5000.0), 25.0, group=0) for i in range(4)
        )
        instance = ClockInstance(name="stack", sinks=sinks, source=Point(0.0, 0.0))
        result = route_htree(instance, trunk_levels=2)
        assert validate_result(result, intra_bound_ps=10.0) == []

    def test_blockage_at_trunk_center_escapes_tap(self):
        spec = InstanceSpec.from_family("blocked", num_sinks=80, seed=2, groups=2)
        instance = spec.build()
        obstacles = instance.obstacle_set()
        result = route_htree(instance)
        optimize_routing(result, OptConfig(enabled=True, skew_bound_ps=10.0))
        assert validate_result(result, intra_bound_ps=10.0) == []
        for node in result.tree.nodes():
            if node.location is not None:
                assert not obstacles.blocks_point(node.location)

    def test_more_trunk_levels_add_structure_not_sinks(self):
        instance = random_instance("uniform", num_sinks=64, seed=9, num_groups=1)
        shallow = route_htree(instance, trunk_levels=1)
        deep = route_htree(instance, trunk_levels=3)
        assert len(shallow.tree.sinks()) == len(deep.tree.sinks()) == 64
        assert len(deep.tree) >= len(shallow.tree)

    @pytest.mark.parametrize("num_sinks", [60, 120])
    def test_repaired_blocked_tree_validates_within_wirelength_ratio(self, num_sinks):
        """The trunk's symmetry and junction snaking cost wire, but at most
        1.5x what ast-dme spends on the same repaired blocked instance."""
        instance = InstanceSpec.from_family("blocked", num_sinks, seed=1, groups=8)
        repair = OptConfig(enabled=True)
        htree = run(
            RunSpec(
                instance=instance,
                router=RouterSpec("h-tree", {"skew_bound_ps": 10.0, "trunk_levels": 2}),
                validate=True,
                opt=repair,
            )
        )
        baseline = run(
            RunSpec(
                instance=instance,
                router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
                opt=repair,
            )
        )
        assert htree.issues == []
        ratio = htree.opt.wirelength_after / baseline.opt.wirelength_after
        assert 0.0 < ratio <= 1.5


class TestRegistry:
    def test_htree_is_registered(self):
        instance = random_instance("uniform", num_sinks=30, seed=1, num_groups=2)
        router = get_router(
            "h-tree", {"skew_bound_ps": 10.0, "trunk_levels": 1}
        )
        result = router.route(instance)
        assert validate_result(result, intra_bound_ps=10.0) == []

    def test_unknown_options_are_rejected_and_list_shorthand(self):
        with pytest.raises(ValueError, match="trunk_levels"):
            get_router("h-tree", {"bogus_option": 1})
