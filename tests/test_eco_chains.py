"""Seeded ECO chains: pinned outputs, on a few groups and on many.

``tests/golden/eco_chain.json`` pins two seeded 20-delta ECO chains, one on
a small 4-group base and one on a 70-group base (wide enough that the dense
``(m, G, 2)`` delay rows carry mostly absent groups).  After each delta it
records the wirelength, the worst intra-group skew, the node count, the
merge passes and the violation slack of the stitched routing.  Counts must
match exactly and floats to a relative 1e-12, so a refactor of the re-merge
loop that moves a single split fails here (``tests/golden/merge_loop.json``
pins the same chains' trees exactly).

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python -c "
    import tests.test_eco_chains as g; g.regenerate()"

and commit the diff together with an explanation of why the numbers moved.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.analysis.skew import skew_report
from repro.analysis.validate import validate_result
from repro.analysis.wirelength import wirelength_report
from repro.api.registry import RouterSpec
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.circuits.generator import random_instance
from repro.core.ast_dme import AstDme, AstDmeConfig
from repro.cts.tree import ClockNode
from repro.eco import (
    EcoConfig,
    EcoDelta,
    SinkAdd,
    SinkMove,
    eco_reroute,
    preserved_subtrees_identical,
)
from repro.geometry.point import Point

GOLDEN_PATH = Path(__file__).parent / "golden" / "eco_chain.json"
BOUND_PS = 10.0
REL = 1e-12

#: Chain name -> (num_sinks, groups, seed) of its base instance.
CHAINS = {"small-4g": (120, 4, 5), "wide-70g": (300, 70, 7)}
CHAIN_DELTAS = 20


def make_chain(instance, seed, count):
    """``count`` seeded deltas, each valid on the instance the previous yields.

    Every delta moves three sinks by up to 2% of the layout, removes one and
    adds one at a random place in a random group.  The post-delta instance
    depends only on the deltas, never on the routing, so the chain is fixed
    by ``(instance, seed)``.
    """
    rng = random.Random(seed)
    coords = [c for s in instance.sinks for c in (s.location.x, s.location.y)]
    lo, hi = min(coords), max(coords)
    step = 0.02 * (hi - lo)
    caps = sorted(s.cap for s in instance.sinks)
    groups = instance.num_groups

    def clamp(value):
        return min(hi, max(lo, value))

    deltas = []
    for _ in range(count):
        where = {s.sink_id: s.location for s in instance.sinks}
        picked = rng.sample(sorted(where), 4)
        delta = EcoDelta(
            move=tuple(
                SinkMove(
                    sid,
                    Point(
                        clamp(where[sid].x + rng.uniform(-step, step)),
                        clamp(where[sid].y + rng.uniform(-step, step)),
                    ),
                )
                for sid in picked[:3]
            ),
            remove=(picked[3],),
            add=(
                SinkAdd(
                    Point(rng.uniform(lo, hi), rng.uniform(lo, hi)),
                    rng.choice(caps),
                    rng.randrange(groups),
                ),
            ),
        )
        instance = delta.apply(instance)
        deltas.append(delta)
    return deltas


def _base(num_sinks, groups, seed):
    config = AstDmeConfig(skew_bound_ps=BOUND_PS)
    instance = random_instance(
        "eco-chain-%dg" % groups, num_sinks, seed=seed, num_groups=groups
    )
    return AstDme(config).route(instance), config


def compute_chain(name):
    """Per-delta summaries of one pinned chain, as JSON-ready dicts."""
    num_sinks, groups, seed = CHAINS[name]
    current, config = _base(num_sinks, groups, seed)
    records = []
    for delta in make_chain(current.instance, seed, CHAIN_DELTAS):
        routing = eco_reroute(current, delta, EcoConfig(router=config)).routing
        records.append(
            {
                "wirelength": routing.wirelength,
                "max_intra_skew_ps": skew_report(routing.tree).max_intra_group_skew_ps,
                "nodes": len(routing.tree),
                "passes": routing.stats.passes,
                "max_violation": routing.stats.max_violation,
            }
        )
        current = routing
    return records


def regenerate() -> None:
    """Rewrite the golden file from the current implementation."""
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    chains = {name: compute_chain(name) for name in CHAINS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(chains, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_eco_chain_reproduces_golden_file(name):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        expected = json.load(handle)[name]
    got = compute_chain(name)
    assert len(got) == len(expected) == CHAIN_DELTAS
    for step, (row, pinned) in enumerate(zip(got, expected)):
        assert row["nodes"] == pinned["nodes"], step
        assert row["passes"] == pinned["passes"], step
        for key in ("wirelength", "max_intra_skew_ps", "max_violation"):
            assert row[key] == pytest.approx(pinned[key], rel=REL), (step, key)


class TestWideGroupFallback:
    """A 70-group route and its ECO chain, once the >64-group object fallback."""

    @pytest.fixture(scope="class")
    def base(self):
        routing, _ = _base(300, 70, 11)
        return routing

    def test_route_validates_clean(self, base):
        assert validate_result(base, intra_bound_ps=BOUND_PS) == []

    def test_eco_chain_keeps_stitching_invariants(self, base):
        config = EcoConfig(router=AstDmeConfig(skew_bound_ps=BOUND_PS))
        current = base
        for step, delta in enumerate(make_chain(base.instance, 3, 10)):
            outcome = eco_reroute(current, delta, config)
            routing = outcome.routing
            issues = validate_result(routing, intra_bound_ps=BOUND_PS)
            assert issues == [], "delta %d: %s" % (step, issues[:3])
            ids = sorted(node.node_id for node in routing.tree.nodes())
            assert ids == list(range(len(ids))), "delta %d: ids not contiguous" % step
            assert preserved_subtrees_identical(
                current.tree, routing.tree, outcome.eco.preserved_roots
            ), "delta %d: a preserved subtree changed" % step
            current = routing


class TestArenaOnlyChain:
    """Routes, ECO and validation read and build trees as arenas only."""

    def test_chain_creates_no_node_objects_before_validation(self, monkeypatch):
        created = []
        init = ClockNode.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ClockNode, "__init__", counting_init)
        spec = RunSpec(
            instance=InstanceSpec.from_random(2000, seed=4, groups=4, grouping_seed=4),
            router=RouterSpec("ast-dme", {"skew_bound_ps": BOUND_PS}),
        )
        base = run(spec, keep_tree=True).routing
        assert not created, "the route built node objects"
        config = EcoConfig(router=AstDmeConfig(skew_bound_ps=BOUND_PS))
        current = base
        for step, delta in enumerate(make_chain(base.instance, 4, 20)):
            outcome = eco_reroute(current, delta, config)
            routing = outcome.routing
            skew_report(routing.tree)
            wirelength_report(routing.tree)
            assert preserved_subtrees_identical(
                current.tree, routing.tree, outcome.eco.preserved_roots
            ), "delta %d: a preserved subtree changed" % step
            assert not created, "delta %d built node objects" % step
            current = routing
        assert validate_result(current, intra_bound_ps=BOUND_PS) == []
        assert not created
