"""Pinned outputs of the opt repair pipeline on blocked instances.

``tests/golden/opt_blocked.json`` pins four blocked-family runs, each routed
at 10 ps with ``validate=True`` and repaired by the optimizer: buffered and
unbuffered pass pipelines, one to eight groups.  For every run it records a
sha256 digest of each node's ``(id, parent, edge length, location, buffer
cell name)``, the wirelength, the worst intra-group skew and every pass
outcome's ``(name, changed, reverted, buffers_inserted, nodes_moved,
edges_modified)``.  All of them are compared exactly, so a change to the
repair loop's caching or scoring that moves a single edge fails here.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python -c "
    import tests.test_opt_golden as g; g.regenerate()"

and commit the diff together with an explanation of why the numbers moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api.registry import RouterSpec
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.opt import BUFFERED_PASSES, DEFAULT_PASSES, OptConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "opt_blocked.json"
BOUND_PS = 10.0

#: Run name -> (num_sinks, seed, groups, passes, max_cap).
RUNS = {
    "n1000-s0-4g-buffered": (1000, 0, 4, BUFFERED_PASSES, 1200.0),
    "n1000-s1-8g-buffered": (1000, 1, 8, BUFFERED_PASSES, 1200.0),
    "n1000-s2-1g-default": (1000, 2, 1, DEFAULT_PASSES, None),
    "n600-s3-4g-capped": (600, 3, 4, DEFAULT_PASSES, 800.0),
}


def tree_digest(tree) -> str:
    """sha256 over every node's (id, parent, edge length, location, buffer)."""
    rows = []
    for node in tree.nodes():
        location = None if node.location is None else (node.location.x, node.location.y)
        buffer = None if node.buffer is None else node.buffer.name
        rows.append((node.node_id, node.parent, node.edge_length, location, buffer))
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def compute_run(name):
    """The pinned summary of one repair run, as a JSON-ready dict."""
    num_sinks, seed, groups, passes, max_cap = RUNS[name]
    spec = RunSpec(
        instance=InstanceSpec.from_family("blocked", num_sinks, seed=seed, groups=groups),
        router=RouterSpec("ast-dme", {"skew_bound_ps": BOUND_PS}),
        validate=True,
        opt=OptConfig(enabled=True, passes=passes, max_cap=max_cap),
    )
    result = run(spec, keep_tree=True)
    assert result.error is None, result.error
    return {
        "tree_sha256": tree_digest(result.routing.tree),
        "wirelength": result.wirelength,
        "max_intra_skew_ps": result.skew.max_intra_group_skew_ps,
        "issues": len(result.issues),
        "passes": [
            [
                outcome.name,
                outcome.changed,
                outcome.reverted,
                outcome.buffers_inserted,
                outcome.nodes_moved,
                outcome.edges_modified,
            ]
            for outcome in result.opt.passes
        ],
    }


def regenerate() -> None:
    """Rewrite the golden file from the current implementation."""
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    runs = {name: compute_run(name) for name in RUNS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(runs, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_opt_repair_reproduces_golden_file(name):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        expected = json.load(handle)[name]
    assert compute_run(name) == expected
