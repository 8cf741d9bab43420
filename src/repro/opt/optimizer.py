"""The iterative optimization driver.

``Optimizer.optimize`` runs the configured pass pipeline over a routed tree
until the skew bound is met, the passes stop changing anything, or the
iteration cap is reached; it returns an :class:`~repro.opt.report.OptReport`
with per-pass statistics and before/after quality metrics.  The tree (and,
through the re-embedding pass, its node locations) is modified in place.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence, Union

from repro.delay.rc_tree import oracle_delays
from repro.delay.technology import Technology
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.trr import Trr
from repro.obs.trace import get_tracer
from repro.opt.base import OptContext, OptPass, get_pass
from repro.opt.config import OptConfig
from repro.opt.report import OptReport

__all__ = ["Optimizer", "optimize_routing"]

_ORACLE_TOL = 1e-6


class Optimizer:
    """Run an optimization-pass pipeline to convergence."""

    def __init__(
        self,
        config: OptConfig = OptConfig(enabled=True),
        passes: Optional[Sequence[Union[str, OptPass]]] = None,
    ) -> None:
        self.config = config
        named = passes if passes is not None else config.passes
        self._passes = [get_pass(p) if isinstance(p, str) else p for p in named]

    # ------------------------------------------------------------------
    def optimize(
        self,
        tree,
        bound_for: Optional[Callable[[int], float]] = None,
        obstacles: Optional[ObstacleSet] = None,
        loci: Optional[Dict[int, Trr]] = None,
        single_group: bool = False,
    ) -> OptReport:
        """Optimize ``tree`` in place and return the report.

        Args:
            tree: the embedded :class:`~repro.cts.tree.ClockTree`.
            bound_for: per-group skew bound in internal units.  Defaults to
                the config's ``skew_bound_ps`` (which must then be set).
            obstacles: routing blockages of the instance, if any.
            loci: per-node placement loci (required for re-embedding moves).
            single_group: treat all sinks as one group, matching routers that
                ran with the instance's grouping disabled.
        """
        started = time.perf_counter()
        if not self.config.enabled:
            raise ValueError(
                "OptConfig.enabled is False; the optimizer mutates the tree "
                "in place and never runs unless explicitly enabled"
            )
        if bound_for is None:
            if self.config.skew_bound_ps is None:
                raise ValueError(
                    "no skew bound: set OptConfig.skew_bound_ps or pass bound_for"
                )
            bound = Technology.ps_to_internal(self.config.skew_bound_ps)
            bound_for = lambda group: bound  # noqa: E731 - trivial closure

        ctx = OptContext(
            tree,
            self.config,
            bound_for,
            obstacles=obstacles,
            loci=loci,
            single_group=single_group,
        )
        ctx.wire_budget = self.config.max_added_wire_fraction * tree.total_wirelength()
        bounds = [bound_for(ctx.group_of(s)) for s in tree.sinks()]
        if bounds and min(bounds) <= 0.0:
            # A zero bound would demand exact delay equality, which wire
            # snaking can approach but never reach -- the repair would add
            # wire forever.  Zero-skew routers must opt into a positive
            # repair bound via OptConfig.skew_bound_ps.
            raise ValueError(
                "tree repair needs a positive skew bound; "
                "set OptConfig.skew_bound_ps for zero-skew routers"
            )
        report = OptReport(
            bound_ps=Technology.internal_to_ps(min(bounds)) if bounds else 0.0,
            wirelength_before=tree.total_wirelength(),
        )
        spreads = ctx.group_spreads()
        report.max_intra_skew_before_ps = Technology.internal_to_ps(
            max(spreads.values(), default=0.0)
        )
        report.skew_violations_before = ctx.skew_violations()

        tracer = get_tracer()
        for iteration in range(self.config.max_iterations):
            report.iterations = iteration + 1
            anything_changed = False
            for opt_pass in self._passes:
                with tracer.span(
                    "opt.pass", pass_name=opt_pass.name, iteration=iteration
                ) as pass_span:
                    detours_before = _detours_computed(ctx)
                    snapshot = _snapshot(tree)
                    spent_before = ctx.wire_net_added
                    before = _quality(ctx)
                    outcome = opt_pass.run(ctx, iteration)
                    if outcome.changed and not _acceptable(before, _quality(ctx)):
                        # A pass may never degrade the tree: restore and move
                        # on.  (Recovery's conservative trim guards, for
                        # instance, use the pre-trim group roofs, which its
                        # own trims lower.)
                        _restore(tree, snapshot)
                        ctx.invalidate_geometry()
                        ctx.wire_net_added = spent_before
                        outcome.reverted = True
                    pass_span.set(
                        changed=outcome.changed,
                        reverted=outcome.reverted,
                        detours_computed=_detours_computed(ctx) - detours_before,
                    )
                if outcome.reverted:
                    report.passes.append(outcome)
                    continue
                report.passes.append(outcome)
                anything_changed = anything_changed or outcome.changed
            if ctx.worst_excess() <= 0.0:
                report.converged = True
                break
            if not anything_changed:
                break
        if ctx.worst_excess() <= 0.0:
            report.converged = True

        spreads = ctx.group_spreads()
        report.max_intra_skew_after_ps = Technology.internal_to_ps(
            max(spreads.values(), default=0.0)
        )
        report.skew_violations_after = ctx.skew_violations()
        report.wirelength_after = tree.total_wirelength()

        if self.config.verify_oracle:
            report.oracle_checked = True
            report.oracle_max_diff = _oracle_max_diff(ctx)
        report.total_seconds = time.perf_counter() - started
        return report


def _snapshot(tree) -> Dict[int, tuple]:
    """Edge lengths, locations and buffers, enough to undo any pass."""
    return {
        node.node_id: (node.edge_length, node.location, node.buffer)
        for node in tree.nodes()
    }


def _restore(tree, snapshot: Dict[int, tuple]) -> None:
    """Undo a pass through the tree's setters, touching only changed nodes."""
    for node_id, (edge_length, location, buffer) in snapshot.items():
        node = tree.node(node_id)
        if node.edge_length != edge_length:
            tree.set_edge_length(node_id, edge_length)
        if node.location != location:
            tree.set_location(node_id, location)
        if node.buffer != buffer:
            tree.set_buffer(node_id, buffer)


def _detours_computed(ctx: OptContext) -> int:
    """Detours the context's obstacle set has computed so far (0 without)."""
    return 0 if ctx.obstacles is None else ctx.obstacles.detours_computed


def _quality(ctx: OptContext) -> tuple:
    """Lexicographic tree quality:
    (violations, cap violations, positive excess, required floor, wirelength).

    Skew violations rank above cap violations, so buffer insertion is only
    ever accepted when it does not push a group over its bound -- insertion
    may never degrade skew.  Cap violations rank above the skew excess so
    that decoupling an over-loaded driver counts as progress even when the
    common-mode delay shift nudges in-bound spreads around.  The *required
    floor* (sum of per-edge minimum legal lengths) ranks before the
    wirelength so that a re-embedding move -- which changes no delay and
    may even cost a little wire covering a grown detour elsewhere -- counts
    as the progress it is: a lower floor is exactly the slack the repair and
    recovery passes harvest next.
    """
    delays = ctx.elmore()[1]
    return (
        ctx.skew_violations(delays),
        ctx.cap_violations(),
        max(0.0, ctx.worst_excess(delays)),
        ctx.required_total(),
        ctx.tree.total_wirelength(),
    )


def _acceptable(before: tuple, after: tuple) -> bool:
    """Whether a pass's effect counts as progress.

    Fewer violating groups always wins; then fewer over-loaded drivers; then
    a smaller skew excess; then a lower geometric floor (re-embedding's
    contribution); at an otherwise equal state the pass must have reclaimed
    wire.
    """
    if after[0] != before[0]:
        return after[0] < before[0]
    if after[1] != before[1]:
        return after[1] < before[1]
    if abs(after[2] - before[2]) > 1e-6:
        return after[2] < before[2]
    if abs(after[3] - before[3]) > 1e-6:
        return after[3] < before[3]
    return after[4] < before[4] - 1e-6


def _oracle_max_diff(ctx: OptContext) -> float:
    """Largest fast-vs-RC-oracle sink-delay disagreement on the optimized tree."""
    fast = ctx.sink_delays()
    oracle = oracle_delays(ctx.tree)
    return max(
        (abs(fast[nid] - oracle[nid]) for nid in fast), default=0.0
    )


def optimize_routing(result, config: OptConfig, intra_bound_ps: Optional[float] = None):
    """Optimize a :class:`~repro.core.ast_dme.RoutingResult` in place.

    The convenience wrapper the api runner and the CLI use: derives the
    obstacle set, the loci and the grouping semantics (a result routed with
    the instance's grouping disabled -- the EXT-BST / greedy-DME baselines --
    is repaired as one group, matching the bound the router enforced) from
    the result, resolves the skew bound (``config.skew_bound_ps`` wins, then
    ``intra_bound_ps``) and returns the :class:`OptReport`.
    """
    bound_ps = config.skew_bound_ps if config.skew_bound_ps is not None else intra_bound_ps
    if bound_ps is None:
        raise ValueError("no skew bound: set OptConfig.skew_bound_ps or intra_bound_ps")
    bound = Technology.ps_to_internal(float(bound_ps))
    obstacles = (
        result.instance.obstacle_set() if result.instance.has_obstacles else None
    )
    optimizer = Optimizer(config)
    return optimizer.optimize(
        result.tree,
        bound_for=lambda group: bound,
        obstacles=obstacles,
        loci=result.loci,
        single_group=getattr(result, "single_group", False),
    )
