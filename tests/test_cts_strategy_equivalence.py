"""Equivalence regression: every pair-selection engine routes the same trees.

The routers select merge pairs with the incremental neighbour index, a pure
acceleration of the stateless ``rebuild`` selection and of the ``scalar``
seed engine, both kept in ``tests/reference_neighbors.py`` as oracles.
Routed trees must stay *identical* (topology exactly, delays / skews /
wirelength to 1e-9).  These tests route the same seeded instances once per
engine, swapping the oracles in through ``use_selector``, and compare the
full embedded trees, the skew reports and the wirelength totals, so any
drift in the index fails loudly.
"""

from __future__ import annotations

import pytest

from repro.analysis.skew import skew_report
from repro.circuits.generator import random_instance
from repro.circuits.grouping import intermingled_groups
from repro.core.ast_dme import AstDme, AstDmeConfig
from repro.cts.bst import ExtBst
from repro.cts.dme import GreedyDme
from tests.reference_dme import route_reference
from tests.reference_neighbors import use_selector

TOL = 1e-9


def tree_signature(result):
    """Topology + embedding of a routed tree, as comparable plain data."""
    signature = []
    for node in sorted(result.tree.nodes(), key=lambda n: n.node_id):
        signature.append(
            (
                node.node_id,
                node.kind,
                node.parent,
                tuple(node.children),
                node.edge_length,
                None if node.location is None else (node.location.x, node.location.y),
            )
        )
    return signature


def assert_equivalent(result_a, result_b):
    sig_a, sig_b = tree_signature(result_a), tree_signature(result_b)
    assert sig_a == sig_b, "routed trees must be identical node for node"
    assert result_a.wirelength == pytest.approx(result_b.wirelength, abs=TOL)
    skew_a, skew_b = skew_report(result_a.tree), skew_report(result_b.tree)
    assert skew_a.global_skew == pytest.approx(skew_b.global_skew, abs=TOL)
    assert skew_a.max_delay == pytest.approx(skew_b.max_delay, abs=TOL)
    assert skew_a.per_group_skew.keys() == skew_b.per_group_skew.keys()
    for group, value in skew_a.per_group_skew.items():
        assert value == pytest.approx(skew_b.per_group_skew[group], abs=TOL)


def route_with(monkeypatch, strategy, router, instance):
    """Route ``instance`` with ``router``, selecting pairs by ``strategy``."""
    with monkeypatch.context() as patch:
        use_selector(patch, strategy)
        return router.route(instance)


@pytest.mark.parametrize("seed", [3, 17])
def test_greedy_dme_strategies_identical(monkeypatch, seed):
    instance = random_instance("equiv-%d" % seed, num_sinks=220, seed=seed)
    reference = route_with(monkeypatch, "scalar", GreedyDme(), instance)
    for strategy in ("rebuild", "incremental"):
        assert_equivalent(route_with(monkeypatch, strategy, GreedyDme(), instance), reference)


def test_greedy_dme_single_merge_strategies_identical(monkeypatch):
    instance = random_instance("equiv-single", num_sinks=160, seed=5)
    router = GreedyDme(AstDmeConfig(multi_merge=False))
    reference = route_with(monkeypatch, "scalar", router, instance)
    for strategy in ("rebuild", "incremental"):
        assert_equivalent(route_with(monkeypatch, strategy, router, instance), reference)
    # The object reference loop selects through the same patched policy.
    with monkeypatch.context() as patch:
        use_selector(patch, "scalar")
        objects = route_reference(AstDme(router.config), instance, single_group=True)
    assert_equivalent(objects, reference)


@pytest.mark.parametrize("strategy", ["rebuild", "incremental"])
def test_ast_dme_strategies_identical(monkeypatch, strategy):
    instance = intermingled_groups(
        random_instance("equiv-ast", num_sinks=200, seed=9), 6, seed=1
    )
    reference = route_with(monkeypatch, "scalar", AstDme(), instance)
    assert_equivalent(route_with(monkeypatch, strategy, AstDme(), instance), reference)


@pytest.mark.parametrize("strategy", ["rebuild", "incremental"])
def test_ast_dme_delay_target_strategies_identical(monkeypatch, strategy):
    """The cost-bias path (delay-target merging order) stays equivalent too."""
    instance = intermingled_groups(
        random_instance("equiv-bias", num_sinks=150, seed=21), 4, seed=2
    )
    router = AstDme(AstDmeConfig(delay_target_weight=0.4))
    reference = route_with(monkeypatch, "scalar", router, instance)
    assert_equivalent(route_with(monkeypatch, strategy, router, instance), reference)


@pytest.mark.parametrize("strategy", ["rebuild", "incremental"])
def test_ext_bst_strategies_identical(monkeypatch, strategy):
    instance = random_instance("equiv-bst", num_sinks=180, seed=27)
    router = ExtBst(skew_bound_ps=10.0)
    reference = route_with(monkeypatch, "scalar", router, instance)
    assert_equivalent(route_with(monkeypatch, strategy, router, instance), reference)
