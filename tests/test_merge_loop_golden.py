"""Pinned trees of the routes and ECO chains the merge loop refactor moved.

``tests/golden/merge_loop.json`` was generated before the bottom-up merge
became one loop, on the code where these runs still took the per-subtree
object loop (more than 64 groups, or an ECO re-merge).  It pins:

* five routes: ast-dme on random instances with 70, 130 and 256 groups, the
  blocked family with 100 groups (non-zero obstacle detour) and single-merge
  greedy-dme;
* for both chains of ``tests/golden/eco_chain.json``, the stitched tree
  after every delta.

Each tree is a sha256 digest of every node's ``(id, parent, edge length,
location, name)``; routes also pin the wirelength and the ``MergeStats``
counters.  Everything compares exactly, so a loop change that moves one
split, one node id or one pass fails here.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python -c "
    import tests.test_merge_loop_golden as g; g.regenerate()"

and commit the diff together with an explanation of why the numbers moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api.registry import get_router
from repro.api.spec import InstanceSpec
from repro.circuits.generator import random_instance
from repro.eco import EcoConfig, eco_reroute
from tests.test_eco_chains import CHAIN_DELTAS, CHAINS, _base, make_chain

GOLDEN_PATH = Path(__file__).parent / "golden" / "merge_loop.json"
BOUND_PS = 10.0

#: Route name -> (router, options, function making the instance).
ROUTES = {
    "ast-dme-n300-70g-s11": (
        "ast-dme", {"skew_bound_ps": BOUND_PS},
        lambda: random_instance("wide", 300, seed=11, num_groups=70),
    ),
    "ast-dme-n600-130g-s5": (
        "ast-dme", {"skew_bound_ps": BOUND_PS},
        lambda: random_instance("wide", 600, seed=5, num_groups=130),
    ),
    "ast-dme-n2000-256g-s7": (
        "ast-dme", {"skew_bound_ps": BOUND_PS},
        lambda: random_instance("wide", 2000, seed=7, num_groups=256),
    ),
    "ast-dme-blocked-n600-100g-s2": (
        "ast-dme", {"skew_bound_ps": BOUND_PS},
        lambda: InstanceSpec.from_family("blocked", 600, seed=2, groups=100).build(),
    ),
    "greedy-dme-single-n500-s1": (
        "greedy-dme", {"multi_merge": False},
        lambda: InstanceSpec.from_random(500, seed=1).build(),
    ),
}


def tree_digest(tree) -> str:
    """sha256 over every node's (id, parent, edge length, location, name)."""
    rows = []
    for node in tree.nodes():
        location = None if node.location is None else (node.location.x, node.location.y)
        rows.append((node.node_id, node.parent, node.edge_length, location, node.name))
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def compute_route(name):
    """The pinned summary of one route, as a JSON-ready dict."""
    router, options, build = ROUTES[name]
    routing = get_router(router, dict(options)).route(build())
    stats = routing.stats
    return {
        "tree_sha256": tree_digest(routing.tree),
        "wirelength": routing.wirelength,
        "passes": stats.passes,
        "merges_by_case": dict(sorted(stats.merges_by_case.items())),
        "snaked_merges": stats.snaked_merges,
        "total_detour": stats.total_detour,
        "max_violation": stats.max_violation,
        "obstacle_detour": stats.obstacle_detour,
        "neighbor_full_rebuilds": stats.neighbor_full_rebuilds,
        "neighbor_incremental_passes": stats.neighbor_incremental_passes,
    }


def compute_chain_digests(name):
    """The stitched tree's digest after every delta of one pinned ECO chain."""
    num_sinks, groups, seed = CHAINS[name]
    current, config = _base(num_sinks, groups, seed)
    digests = []
    for delta in make_chain(current.instance, seed, CHAIN_DELTAS):
        current = eco_reroute(current, delta, EcoConfig(router=config)).routing
        digests.append(tree_digest(current.tree))
    return digests


def regenerate() -> None:
    """Rewrite the golden file from the current implementation."""
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "routes": {name: compute_route(name) for name in ROUTES},
        "eco_chains": {name: compute_chain_digests(name) for name in CHAINS},
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _golden(section):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)[section]


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_route_reproduces_golden_file(name):
    assert compute_route(name) == _golden("routes")[name]


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_eco_chain_trees_reproduce_golden_file(name):
    assert compute_chain_digests(name) == _golden("eco_chains")[name]
