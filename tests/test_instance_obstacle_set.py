"""One :class:`ObstacleSet` per instance.

``ClockInstance.obstacle_set()`` hands out one set, so the route, the repair
and validation share its detour memo instead of recomputing the detours the
route already found.  The set is rebuilt only when ``obstacles`` is no longer
the tuple it was built from, which is how tests forge blockages onto an
existing instance.
"""

from __future__ import annotations

import copy

from repro.analysis.validate import validate_result
from repro.api.spec import InstanceSpec
from repro.core.ast_dme import AstDme, AstDmeConfig
from repro.geometry.obstacles import ObstacleSet, Rect
from repro.opt import BUFFERED_PASSES, OptConfig, optimize_routing


def blocked_instance(num_sinks=200):
    return InstanceSpec.from_family("blocked", num_sinks, seed=0, groups=4).build()


def test_repeated_calls_return_one_set():
    instance = blocked_instance(60)
    obstacles = instance.obstacle_set()
    assert instance.obstacle_set() is obstacles
    assert obstacles.rects is instance.obstacles


def test_an_obstacle_set_keeps_a_tuple_as_is():
    rects = (Rect(0.0, 0.0, 1.0, 1.0),)
    assert ObstacleSet(rects).rects is rects
    assert ObstacleSet(list(rects)).rects == rects


def test_forged_obstacles_rebuild_the_set():
    instance = blocked_instance(60)
    first = instance.obstacle_set()
    forged = copy.copy(instance)
    object.__setattr__(forged, "obstacles", forged.obstacles + (Rect(0.0, 0.0, 1.0, 1.0),))
    second = forged.obstacle_set()
    assert second is not first
    assert second.rects is forged.obstacles
    assert instance.obstacle_set() is first


def test_route_repair_and_validation_share_the_instance_set(monkeypatch):
    """Nothing downstream of the instance builds another set, and validation
    after the repair reads every detour from the memo."""
    instance = blocked_instance()
    obstacles = instance.obstacle_set()
    built = []
    post_init = ObstacleSet.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ObstacleSet, "__post_init__", counting)
    routing = AstDme(AstDmeConfig(skew_bound_ps=10.0)).route(instance)
    routed = obstacles.detours_computed
    report = optimize_routing(
        routing,
        OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=1200.0),
        intra_bound_ps=10.0,
    )
    repaired = obstacles.detours_computed
    assert validate_result(routing, intra_bound_ps=10.0) == []
    assert built == []
    assert routed > 0 and report.skew_violations_after == 0
    assert obstacles.detours_computed == repaired
