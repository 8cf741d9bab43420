"""The iterative optimization driver.

``Optimizer.optimize`` runs the configured pass pipeline over a routed tree
until the skew bound is met, the passes stop changing anything, or the
iteration cap is reached; it returns an :class:`~repro.opt.report.OptReport`
with per-pass statistics and before/after quality metrics.  The tree (and,
through the re-embedding pass, its node locations) is modified in place.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.group_constraints import capped_bounds
from repro.delay.rc_tree import oracle_delays
from repro.delay.technology import Technology
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
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
    def resolve_bound(
        self,
        bound_for: Optional[Callable[[int], float]] = None,
        intra_bound_ps: Optional[float] = None,
    ) -> Callable[[int], float]:
        """The per-group bound the repair holds, in internal units.

        The one bound rule:

        1. ``OptConfig.skew_bound_ps``, when set, holds every group.
        2. Otherwise each group takes its routed bound ``bound_for(group)``,
           capped by the validation bound ``intra_bound_ps``.
        3. A group routed at zero skew takes the validation bound.
        4. Without ``bound_for`` every group takes the validation bound; with
           neither bound this raises ``ValueError``.

        Rules 2-4 are :func:`~repro.core.group_constraints.capped_bounds`,
        which validation holds too.
        """
        if self.config.skew_bound_ps is not None:
            bound = Technology.ps_to_internal(self.config.skew_bound_ps)
            return lambda group: bound
        if intra_bound_ps is None:
            if bound_for is None:
                raise ValueError(
                    "no skew bound: set OptConfig.skew_bound_ps, pass a "
                    "validation bound or route with constraints"
                )
            return bound_for
        return capped_bounds(bound_for, Technology.ps_to_internal(float(intra_bound_ps)))

    def optimize(
        self,
        tree,
        bound_for: Optional[Callable[[int], float]] = None,
        obstacles: Optional[ObstacleSet] = None,
        loci: Optional[np.ndarray] = None,
        single_group: bool = False,
    ) -> OptReport:
        """Optimize ``tree`` in place and return the report.

        Args:
            tree: the embedded :class:`~repro.cts.tree.ClockTree`.
            bound_for: the per-group skew bound in internal units; the
                config's ``skew_bound_ps`` wins over it when set (see
                :meth:`resolve_bound`).
            obstacles: routing blockages of the instance, if any.
            loci: placement locus rows by node id, NaN where a node has none
                (``RoutingResult.loci``; required for re-embedding moves).
            single_group: treat all sinks as one group, matching routers that
                ran with the instance's grouping disabled.
        """
        started = time.perf_counter()
        if not self.config.enabled:
            raise ValueError(
                "OptConfig.enabled is False; the optimizer mutates the tree "
                "in place and never runs unless explicitly enabled"
            )
        bound_for = self.resolve_bound(bound_for)

        ctx = OptContext(
            tree,
            self.config,
            bound_for,
            obstacles=obstacles,
            loci=loci,
            single_group=single_group,
        )
        ctx.wire_budget = self.config.max_added_wire_fraction * tree.total_wirelength()
        bounds = [bound_for(group) for group in ctx.sink_groups.keys]
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
                    snapshot = tree.as_arena()
                    spent_before = ctx.wire_net_added
                    before = _quality(ctx)
                    outcome = opt_pass.run(ctx, iteration)
                    reason = _rejection(before, _quality(ctx)) if outcome.changed else None
                    if reason is not None:
                        # A pass may never degrade the tree: restore and move
                        # on.  (Recovery's conservative trim guards, for
                        # instance, use the pre-trim group roofs, which its
                        # own trims lower.)  Required lengths depend on the
                        # locations alone: only those of the edges that touch
                        # a node moved back are refreshed.
                        moved = _restore(tree, snapshot)
                        if moved.size:
                            ctx.nodes_moved(moved.tolist())
                        ctx.wire_net_added = spent_before
                        outcome.reverted = True
                        outcome.revert_reason = reason
                    pass_span.set(
                        changed=outcome.changed,
                        reverted=outcome.reverted,
                        revert_reason=outcome.revert_reason,
                        detours_computed=_detours_computed(ctx) - detours_before,
                        trials=outcome.trials,
                        trial_batches=outcome.trial_batches,
                        sweeps_by_levels=outcome.sweeps_by_levels,
                        sweeps_by_nodes=outcome.sweeps_by_nodes,
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


def _restore(tree, snapshot) -> np.ndarray:
    """Undo a pass through the tree's setters, touching only changed nodes:
    ``snapshot`` is the tree's arena from before the pass (arenas never change).
    Returns the ids of the nodes the pass had moved."""
    now = tree.as_arena()
    lengths = snapshot.edge_lengths
    for node_id in np.flatnonzero(now.edge_lengths != lengths).tolist():
        tree.set_edge_length(node_id, lengths.item(node_id))
    placed = snapshot.has_location
    moved = (now.has_location != placed) | (
        placed & ((now.xs != snapshot.xs) | (now.ys != snapshot.ys))
    )
    for node_id in np.flatnonzero(moved).tolist():
        x, y = snapshot.xs.item(node_id), snapshot.ys.item(node_id)
        tree.set_location(node_id, Point(x, y) if placed[node_id] else None)
    for node_id in np.flatnonzero(now.buffer_mask | snapshot.buffer_mask).tolist():
        if now.buffers[node_id] != snapshot.buffers[node_id]:
            tree.set_buffer(node_id, snapshot.buffers[node_id])
    return np.flatnonzero(moved)


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


#: The components of :func:`_quality`, by the names a revert reports.
_QUALITY_NAMES = ("skew_violations", "cap_violations", "excess", "floor", "wirelength")


def _rejection(before: tuple, after: tuple) -> Optional[str]:
    """Why a pass's effect does not count as progress, or None when it does.

    Fewer violating groups always wins; then fewer over-loaded drivers; then
    a smaller skew excess; then a lower geometric floor (re-embedding's
    contribution); at an otherwise equal state the pass must have reclaimed
    wire.  The reason is the name of the component that decided.
    """
    for index in (0, 1):
        if after[index] != before[index]:
            return None if after[index] < before[index] else _QUALITY_NAMES[index]
    for index in (2, 3):
        if abs(after[index] - before[index]) > 1e-6:
            return None if after[index] < before[index] else _QUALITY_NAMES[index]
    return None if after[4] < before[4] - 1e-6 else _QUALITY_NAMES[4]


def _oracle_max_diff(ctx: OptContext) -> float:
    """Largest fast-vs-RC-oracle sink-delay disagreement on the optimized tree."""
    fast = ctx.elmore()[1].tolist()
    oracle = oracle_delays(ctx.tree)
    return max(
        (abs(fast[nid] - oracle[nid]) for nid in ctx.sink_groups.sink_ids.tolist()),
        default=0.0,
    )


def optimize_routing(result, config: OptConfig, intra_bound_ps: Optional[float] = None):
    """Optimize a :class:`~repro.core.ast_dme.RoutingResult` in place.

    The one repair entry: the api runner, the CLI and the ECO engine repair
    through it.  It derives the obstacle set, the loci and the grouping
    semantics (a result routed with the instance's grouping disabled -- the
    EXT-BST / greedy-DME baselines -- is repaired as one group) from the
    result, and each group's bound from the constraints the result was routed
    against, capped by the validation bound ``intra_bound_ps``
    (:meth:`Optimizer.resolve_bound`).  Returns the :class:`OptReport`.
    """
    optimizer = Optimizer(config)
    constraints = getattr(result, "constraints", None)
    bound_for = optimizer.resolve_bound(
        None if constraints is None else constraints.bound_for, intra_bound_ps
    )
    obstacles = (
        result.instance.obstacle_set() if result.instance.has_obstacles else None
    )
    return optimizer.optimize(
        result.tree,
        bound_for=bound_for,
        obstacles=obstacles,
        loci=result.loci,
        single_group=getattr(result, "single_group", False),
    )
