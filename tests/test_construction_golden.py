"""Pinned trees of the h-tree router and of ECO chains that add blockages.

``tests/golden/construction.json`` pins what the other goldens leave open:

* 24 h-tree routes: random instances with 400 and 1500 sinks and blocked
  ones with 600 and 1200, at trunk levels 1 to 3, each with and without the
  post-construction optimizer;
* two seeded ECO chains on a random and a blocked base whose deltas add
  blockages clear of every embedded node (so edges crossing them are
  rebuilt around them) besides moving, adding and removing sinks.

Each tree is the ``tests/test_merge_loop_golden.py`` sha256 digest of every
node's ``(id, parent, edge length, location, name)``; the wirelength and
``MergeStats.obstacle_detour`` are pinned alongside.  Trees, wirelengths and
the h-tree detours compare exactly.  An ECO chain's detour compares to a
relative 1e-12: it is a sum over the rebuilt edges, and the order the
embedding visits them in may move its last bits.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python -c "
    import tests.test_construction_golden as g; g.regenerate()"

and commit the diff together with an explanation of why the numbers moved.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.api.spec import InstanceSpec
from repro.core.ast_dme import AstDme, AstDmeConfig
from repro.core.htree import HTreeRouter
from repro.eco import EcoConfig, EcoDelta, SinkAdd, SinkMove, eco_reroute
from repro.geometry.obstacles import ObstacleSet, Rect
from repro.geometry.point import Point
from repro.opt.config import OptConfig
from repro.opt.optimizer import optimize_routing
from tests.test_merge_loop_golden import tree_digest

GOLDEN_PATH = Path(__file__).parent / "golden" / "construction.json"
BOUND_PS = 10.0
REL = 1e-12

#: Instance name -> function building it.
INSTANCES = {
    "random-n400": lambda: InstanceSpec.from_random(400, seed=3, groups=4).build(),
    "random-n1500": lambda: InstanceSpec.from_random(1500, seed=3, groups=4).build(),
    "blocked-n600": lambda: InstanceSpec.from_family("blocked", 600, seed=3, groups=4).build(),
    "blocked-n1200": lambda: InstanceSpec.from_family("blocked", 1200, seed=3, groups=4).build(),
}

#: Route name -> (instance name, trunk levels, whether the optimizer runs).
HTREE_ROUTES = {
    "%s-l%d%s" % (instance, levels, "-opt" if opt else ""): (instance, levels, opt)
    for instance in INSTANCES
    for levels in (1, 2, 3)
    for opt in (False, True)
}

#: Chain name -> (base instance spec, seed of the deltas, number of deltas).
ECO_CHAINS = {
    "random-n300-4g": (InstanceSpec.from_random(300, seed=5, groups=4), 31, 3),
    "blocked-n400-3g": (InstanceSpec.from_family("blocked", 400, seed=2, groups=3), 47, 4),
}


def _summary(routing):
    return {
        "tree_sha256": tree_digest(routing.tree),
        "wirelength": routing.wirelength,
        "obstacle_detour": routing.stats.obstacle_detour,
    }


def compute_htree(name):
    """The pinned summary of one h-tree route, as a JSON-ready dict."""
    instance, levels, opt = HTREE_ROUTES[name]
    config = AstDmeConfig(skew_bound_ps=BOUND_PS)
    routing = HTreeRouter(config, trunk_levels=levels).route(INSTANCES[instance]())
    if opt:
        optimize_routing(routing, OptConfig(enabled=True))
    return _summary(routing)


def blockage_delta(routing, rng):
    """One seeded delta: a wall clear of every node, two moves, an add, a remove.

    The wall holds no embedded node of ``routing`` and overlaps no
    existing blockage; the edges it crosses must be rebuilt around it.  Moved
    and added sinks land outside every blockage.
    """
    instance = routing.instance
    coords = [c for s in instance.sinks for c in (s.location.x, s.location.y)]
    lo, hi = min(coords), max(coords)
    span = hi - lo
    locations = [node.location for node in routing.tree.nodes()]
    while True:
        # A thin wall: it blocks every monotone path across it, so the
        # edges it cuts need a detour longer than their booked wire.
        length = rng.uniform(0.1, 0.35) * span
        thickness = rng.uniform(0.002, 0.01) * span
        w, h = (length, thickness) if rng.random() < 0.5 else (thickness, length)
        x = rng.uniform(lo, hi - w)
        y = rng.uniform(lo, hi - h)
        rect = Rect(x, y, x + w, y + h)
        fresh = ObstacleSet([rect])
        clear = not any(fresh.blocks_point(p) for p in locations)
        apart = not any(
            rect.xmin < o.xmax and o.xmin < rect.xmax and rect.ymin < o.ymax and o.ymin < rect.ymax
            for o in instance.obstacles
        )
        if clear and apart:
            break
    blocked = ObstacleSet(tuple(instance.obstacles) + (rect,))

    def free_point():
        while True:
            point = Point(rng.uniform(lo, hi), rng.uniform(lo, hi))
            if not blocked.blocks_point(point):
                return point

    ids = sorted(s.sink_id for s in instance.sinks)
    picked = rng.sample(ids, 3)
    return EcoDelta(
        move=tuple(SinkMove(sid, free_point()) for sid in picked[:2]),
        remove=(picked[2],),
        add=(SinkAdd(location=free_point(), cap=0.05, group=rng.randrange(instance.num_groups)),),
        add_blockages=(rect,),
    )


def compute_eco_chain(name):
    """The pinned summary of the stitched routing after every delta of a chain."""
    spec, seed, count = ECO_CHAINS[name]
    config = AstDmeConfig(skew_bound_ps=BOUND_PS)
    current = AstDme(config).route(spec.build())
    rng = random.Random(seed)
    summaries = []
    for _ in range(count):
        delta = blockage_delta(current, rng)
        current = eco_reroute(current, delta, EcoConfig(router=config)).routing
        summaries.append(_summary(current))
    return summaries


def regenerate() -> None:
    """Rewrite the golden file from the current implementation."""
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "htree_routes": {name: compute_htree(name) for name in HTREE_ROUTES},
        "eco_chains": {name: compute_eco_chain(name) for name in ECO_CHAINS},
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _golden(section):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)[section]


@pytest.mark.parametrize("name", sorted(HTREE_ROUTES))
def test_htree_route_reproduces_golden_file(name):
    assert compute_htree(name) == _golden("htree_routes")[name]


@pytest.mark.parametrize("name", sorted(ECO_CHAINS))
def test_blockage_eco_chain_reproduces_golden_file(name):
    got = compute_eco_chain(name)
    want = _golden("eco_chains")[name]
    assert len(got) == len(want)
    for step, (have, pinned) in enumerate(zip(got, want)):
        assert have["tree_sha256"] == pinned["tree_sha256"], "delta %d" % step
        assert have["wirelength"] == pinned["wirelength"], "delta %d" % step
        assert have["obstacle_detour"] == pytest.approx(
            pinned["obstacle_detour"], rel=REL, abs=0.0
        ), "delta %d" % step
