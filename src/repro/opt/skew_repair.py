"""Skew repair via wire snaking: restore per-group bounds after detours.

The bottom-up construction balances per-group Elmore delays exactly, but the
obstacle-aware embedding extends edges whose booked wire cannot cover their
blockage detour, silently shifting whole subtrees late.  This pass restores
the construction's guarantee on the finished tree:

* **Alignment sweep** (the workhorse): one bottom-up walk in *subtree-relative*
  delay coordinates -- the same coordinates the merge phase used, in which an
  edit inside a subtree never invalidates bookkeeping elsewhere, so every
  trim/extension is computed against exact values rather than stale global
  delays (naive global-delay iteration limit-cycles on multi-group trees; see
  docs/optimization.md).  At every internal node the per-group delay intervals
  of the children are aligned into a ``safety * bound`` window: children that
  run early are lengthened (:func:`wire_length_for_delay`; the repair books
  the length, and an export realises it as obstacle-safe serpentines on
  request through :func:`repro.cts.routing.route_edges`) and children that
  run late are shortened where their booked length exceeds the
  blockage-avoiding *required* length.

* **Greedy polish** (the endgame): when group-interval conflicts leave
  residual violations, candidate over-booked edges are trimmed one at a time,
  each move evaluated by recomputing the true sink delays, and kept only when
  the total skew excess strictly decreases -- monotone by construction.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.delay.wire import wire_delay, wire_length_for_delay
from repro.opt.base import OptContext, TreeColumns
from repro.opt.report import PassOutcome

__all__ = ["SkewRepairPass"]

_TOL = 1e-9
_LEN_TOL = 1e-6
#: Candidate edges the greedy polish ranks per move.
_POLISH_CANDIDATES = 48


def _trim_for_delay(
    length: float, downstream_cap: float, target: float, avail: float, tech
) -> Tuple[float, float]:
    """Trim amount whose delay reduction equals ``target``, capped at ``avail``.

    Shortening a wire of ``length`` driving ``downstream_cap`` by ``y`` removes
    ``r * y * (C + c*length - c*y/2)`` of Elmore delay; this inverts that
    expression.  Returns ``(trim_length, actual_delay_reduction)``.
    """
    r = tech.unit_resistance
    c = tech.unit_capacitance
    linear = r * (downstream_cap + c * length)
    discriminant = linear * linear - 2.0 * r * c * target
    if discriminant < 0.0:
        y = avail
    else:
        y = min(avail, (linear - math.sqrt(discriminant)) / (r * c))
    y = max(0.0, min(y, length))
    actual = r * y * (downstream_cap + c * length - c * y / 2.0)
    return y, actual


class SkewRepairPass:
    """Lengthen under-delayed edges (and trim over-booked ones) to meet the bound."""

    name = "skew-repair"

    def run(self, ctx: OptContext, iteration: int) -> PassOutcome:
        started = time.perf_counter()
        outcome = PassOutcome(name=self.name, iteration=iteration)

        for _ in range(ctx.config.repair_sweeps):
            if ctx.worst_excess() <= 0.0:
                break
            changed = self._alignment_sweep(ctx, outcome)
            if not changed:
                break

        if ctx.worst_excess() > 0.0 and ctx.config.polish_steps > 0:
            self._greedy_polish(ctx, outcome)

        outcome.seconds = time.perf_counter() - started
        return outcome

    # ------------------------------------------------------------------
    # Stage 1: exact bottom-up alignment in subtree-relative coordinates
    # ------------------------------------------------------------------
    def _alignment_sweep(self, ctx: OptContext, outcome: PassOutcome) -> bool:
        tech = ctx.technology
        unit_cap = tech.unit_capacitance
        required = ctx.required_lengths()
        safety = ctx.config.safety
        columns = TreeColumns(ctx.tree)
        lengths = columns.lengths
        groups = ctx.node_groups

        caps: Dict[int, float] = {}
        ivals: Dict[int, Dict[int, List[float]]] = {}
        changed = False

        for nid in reversed(columns.order):
            if columns.is_sink[nid]:
                caps[nid] = columns.sink_caps[nid]
                ivals[nid] = {groups[nid]: [0.0, 0.0]}
                continue

            children = columns.children(nid)
            shifted: List[Dict[int, List[float]]] = []
            for cid in children:
                edge = wire_delay(lengths[cid], caps[cid], tech)
                shifted.append(
                    {g: [lo + edge, hi + edge] for g, (lo, hi) in ivals[cid].items()}
                )

            if len(children) > 1:
                if self._align_children(
                    ctx, columns, children, shifted, caps, required, safety, outcome
                ):
                    changed = True

            merged: Dict[int, List[float]] = {}
            total_cap = columns.sink_caps[nid]
            for cid, intervals in zip(children, shifted):
                total_cap += caps[cid] + unit_cap * lengths[cid]
                for g, (lo, hi) in intervals.items():
                    if g in merged:
                        merged[g][0] = min(merged[g][0], lo)
                        merged[g][1] = max(merged[g][1], hi)
                    else:
                        merged[g] = [lo, hi]
            buffer = columns.buffers[nid]
            if buffer is not None:
                # Same decoupling as the Elmore engine: upstream sees only
                # the buffer input pin, and every sink below arrives one
                # stage delay later than the buffer input does.
                stage = buffer.intrinsic_delay + buffer.drive_resistance * total_cap
                for interval in merged.values():
                    interval[0] += stage
                    interval[1] += stage
                total_cap = buffer.input_cap
            caps[nid] = total_cap
            ivals[nid] = merged
        return changed

    def _align_children(
        self,
        ctx: OptContext,
        columns: TreeColumns,
        children: List[int],
        shifted: List[Dict[int, List[float]]],
        caps: Dict[int, float],
        required: Dict[int, float],
        safety: float,
        outcome: PassOutcome,
    ) -> bool:
        """Align the children's per-group intervals at one merge node."""
        tech = ctx.technology
        unit_cap = tech.unit_capacitance
        lengths = columns.lengths
        counts: Dict[int, int] = {}
        for intervals in shifted:
            for g in intervals:
                counts[g] = counts.get(g, 0) + 1
        shared = {g for g, c in counts.items() if c >= 2}
        if not shared:
            return False

        changed = False
        # Trim late-running children down to the others' window first (frees
        # wire), then lengthen early-running children up; the extension step
        # repeats because raising one child can raise another's target.
        for cindex, cid in enumerate(children):
            if cid not in required:
                continue  # unembedded edge: its minimum length is unknown
            intervals = shifted[cindex]
            avail = lengths[cid] - required[cid]
            if avail <= _LEN_TOL:
                continue
            slack = math.inf
            ahead = 0.0
            for g in shared:
                if g not in intervals:
                    continue
                others = [
                    shifted[j][g][1]
                    for j in range(len(children))
                    if j != cindex and g in shifted[j]
                ]
                if not others:
                    continue
                window_floor = max(others) - safety * ctx.bound_for(g)
                slack = min(slack, intervals[g][0] - window_floor)
                ahead = max(ahead, intervals[g][1] - max(others))
            if not math.isfinite(slack) or slack <= _TOL or ahead <= _TOL:
                continue
            trim_delay = min(slack, ahead)
            y, actual = _trim_for_delay(lengths[cid], caps[cid], trim_delay, avail, tech)
            if y <= _LEN_TOL:
                continue
            columns.set_length(cid, lengths[cid] - y)
            ctx.spend_wire(-y)
            outcome.wire_trimmed += y
            outcome.edges_modified += 1
            changed = True
            for g in intervals:
                intervals[g][0] -= actual
                intervals[g][1] -= actual

        for _ in range(3):
            extended = False
            targets = {
                g: max(
                    intervals[g][1] for intervals in shifted if g in intervals
                )
                for g in shared
            }
            for cindex, cid in enumerate(children):
                intervals = shifted[cindex]
                need = 0.0
                for g in shared:
                    if g in intervals:
                        need = max(
                            need, targets[g] - safety * ctx.bound_for(g) - intervals[g][0]
                        )
                if need <= _TOL:
                    continue
                left = ctx.budget_left()
                if left <= _LEN_TOL:
                    return changed
                length = lengths[cid]
                x = wire_length_for_delay(need, caps[cid] + unit_cap * length, tech)
                achieved = need
                if x > left:
                    # Clamp to the global net-added budget; the intervals
                    # must then track the delay actually realised.
                    x = left
                    r = tech.unit_resistance
                    achieved = r * x * (
                        unit_cap * length + unit_cap * x / 2.0 + caps[cid]
                    )
                columns.set_length(cid, length + x)
                ctx.spend_wire(x)
                outcome.wire_added += x
                outcome.edges_modified += 1
                changed = extended = True
                for g in intervals:
                    intervals[g][0] += achieved
                    intervals[g][1] += achieved
            if not extended:
                break
        return changed

    # ------------------------------------------------------------------
    # Stage 2: greedy exact-evaluation polish
    # ------------------------------------------------------------------
    def _polish_score(self, ctx: OptContext) -> Tuple[float, float, int]:
        """Lexicographic state score: (margin potential, worst excess, violations).

        The potential sums per-group excess over the *safety* target -- a
        Lyapunov function every useful move decreases.  It deliberately ranks
        *before* the violation count: a move that collapses one group's large
        excess (opening the path to fixing every group) must beat a move that
        nudges several groups just under the bound while parking another at a
        large excess forever.  The worst group's excess is part of the sum, so
        no move can trade it away unpunished.
        """
        spreads = ctx.group_spreads()
        violations = 0
        worst = 0.0
        potential = 0.0
        for g, spread in spreads.items():
            bound = ctx.bound_for(g)
            if spread > bound + 1e-9:
                violations += 1
            worst = max(worst, spread - bound)
            potential += max(0.0, spread - ctx.config.safety * bound)
        return (potential, max(0.0, worst), violations)

    def _greedy_polish(self, ctx: OptContext, outcome: PassOutcome) -> None:
        """Trim over-booked edges one exact-evaluated move at a time.

        The alignment sweep's per-node guards are local: they cannot see that
        trimming a late subtree's over-booked edge also lowers every group's
        roof through the shared upstream resistance.  Here each candidate trim
        is scored by recomputing the true per-group spreads, so exactly those
        globally-beneficial moves are found; each accepted move may then be
        followed by an alignment sweep to re-balance around the new geometry.
        """
        tree = ctx.tree
        required = ctx.required_lengths()

        current = self._polish_score(ctx)
        for _ in range(ctx.config.polish_steps):
            if current[1] <= 0.0 and current[2] == 0:
                break
            caps = ctx.elmore()[0].tolist()
            columns = TreeColumns(tree)
            moves = (
                self._trim_moves(required, caps, columns)
                + self._extend_moves(ctx, caps, columns)
                + self._spine_moves(ctx, required, caps, columns)
            )
            # Each candidate move is evaluated *together with* the alignment
            # sweep that re-balances the tree around it: a roof trim usually
            # drags other groups' floor sinks down with it and only pays off
            # once the sweep has re-aligned them, so judging the move alone
            # would reject every useful one.  The probe is undone from the
            # step's edge lengths either way.
            best = None
            baseline = columns.lengths
            baseline_column = columns.arena.edge_lengths
            spent_baseline = ctx.wire_net_added
            for move in moves:
                # Fresh probe per candidate; the probe's budget spend is
                # rolled back with the edge lengths so every candidate sees
                # the same remaining budget the accepted move will see.
                probe = PassOutcome(name=self.name, iteration=outcome.iteration)
                net = sum(delta for _, delta in move)
                if net > ctx.budget_left():
                    continue
                for nid, delta in move:
                    tree.set_edge_length(nid, baseline[nid] + delta)
                ctx.spend_wire(net)
                self._alignment_sweep(ctx, probe)
                score = self._polish_score(ctx)
                probed = tree.as_arena().edge_lengths
                for node_id in np.flatnonzero(probed != baseline_column).tolist():
                    tree.set_edge_length(node_id, baseline[node_id])
                ctx.wire_net_added = spent_baseline
                if score < current and (best is None or score < best[0]):
                    best = (score, move)
            if best is None:
                break
            score, move = best
            for nid, delta in move:
                tree.set_edge_length(nid, baseline[nid] + delta)
                ctx.spend_wire(delta)
                if delta >= 0.0:
                    outcome.wire_added += delta
                else:
                    outcome.wire_trimmed += -delta
                outcome.edges_modified += 1
            self._alignment_sweep(ctx, outcome)
            current = self._polish_score(ctx)

    @staticmethod
    def _trim_moves(
        required: Dict[int, float], caps: List[float], columns: TreeColumns
    ) -> List[List[Tuple[int, float]]]:
        """Candidate trims of over-booked edges, by rough delay leverage."""
        ranked: List[Tuple[float, int, float]] = []
        for nid, needed in required.items():
            avail = columns.lengths[nid] - needed
            if avail > _LEN_TOL:
                ranked.append((avail * (caps[nid] + 1.0), nid, avail))
        ranked.sort(reverse=True)
        moves: List[List[Tuple[int, float]]] = []
        for _, nid, avail in ranked[: _POLISH_CANDIDATES]:
            moves.append([(nid, -avail)])
            moves.append([(nid, -avail / 2.0)])
        return moves

    def _extend_moves(
        self, ctx: OptContext, caps: List[float], columns: TreeColumns
    ) -> List[List[Tuple[int, float]]]:
        """Candidate extensions raising a violating group's slowest deficits.

        The alignment sweep cannot raise a subtree whose groups pull in
        opposite directions; here each floor sink of a violating group
        proposes extensions along its root path, sized to the smallest
        deficit in the respective subtree so no sink overshoots its roof.
        """
        tree = ctx.tree
        tech = ctx.technology
        unit_cap = tech.unit_capacitance
        groups = ctx.sink_groups
        node_delays = ctx.elmore()[1]
        lo, hi = groups.ranges(node_delays)
        roof = dict(zip(groups.keys, hi.tolist()))
        violating = {
            g
            for g, low, high in zip(groups.keys, lo.tolist(), hi.tolist())
            if high - low > ctx.bound_for(g) + 1e-9
        }
        if not violating:
            return []

        # Deficit of every sink against its own group roof; min over subtrees.
        delays = node_delays.tolist()
        group_of = ctx.node_groups
        sinks = groups.sink_ids.tolist()
        deficit: Dict[int, float] = {}
        for sid in sinks:
            g = group_of[sid]
            target = roof[g] - ctx.config.safety * ctx.bound_for(g)
            deficit[sid] = max(0.0, target - delays[sid])
        min_def: Dict[int, float] = {}
        for nid in reversed(columns.order):
            if columns.is_sink[nid]:
                min_def[nid] = deficit[nid]
            else:
                min_def[nid] = min(
                    (min_def[cid] for cid in columns.children(nid)), default=0.0
                )

        floor_sinks: List[Tuple[float, int]] = []
        for sid in sinks:
            if group_of[sid] in violating and deficit[sid] > _TOL:
                floor_sinks.append((-deficit[sid], sid))
        floor_sinks.sort()

        moves: List[List[Tuple[int, float]]] = []
        seen = set()
        per_group_budget = max(1, _POLISH_CANDIDATES // (2 * len(violating)))
        taken: Dict[int, int] = {}
        for _, sink_id in floor_sinks:
            g = group_of[sink_id]
            if taken.get(g, 0) >= per_group_budget:
                continue
            taken[g] = taken.get(g, 0) + 1
            for nid in tree.path_to_root(sink_id):
                if columns.parents[nid] < 0 or nid in seen:
                    continue
                want = min_def[nid]
                if want <= _TOL:
                    break  # an ancestor subtree contains a sink at its roof
                seen.add(nid)
                x = wire_length_for_delay(
                    want, caps[nid] + unit_cap * columns.lengths[nid], tech
                )
                if x > _LEN_TOL:
                    moves.append([(nid, x)])
        return moves

    def _spine_moves(
        self,
        ctx: OptContext,
        required: Dict[int, float],
        caps: List[float],
        columns: TreeColumns,
    ) -> List[List[Tuple[int, float]]]:
        """Composite moves lowering a roof sink's *spine* while holding its
        side subtrees in place.

        When a violating group's roof sink sits in a mixed-group cluster, a
        plain trim of the shared over-booked edge drops the whole cluster --
        and the alignment sweep promptly re-extends that same edge to rescue
        the other groups, undoing the trim.  The composite move encodes the
        feasible repair directly: trim the over-booked path edge *and*
        re-extend every side subtree hanging off the path below it by a
        delay-matched amount, so only the spine down to the roof sink drops.
        """
        tree = ctx.tree
        tech = ctx.technology
        unit_cap = tech.unit_capacitance
        lengths = columns.lengths
        groups = ctx.sink_groups
        delays = ctx.elmore()[1]
        lo, hi = groups.ranges(delays)
        roofs = groups.roof_sinks(delays, hi)

        moves: List[List[Tuple[int, float]]] = []
        for g, low, high, roof in sorted(
            zip(groups.keys, lo.tolist(), hi.tolist(), roofs.tolist())
        ):
            excess = high - low - ctx.bound_for(g)
            if excess <= 1e-9:
                continue
            path = tree.path_to_root(roof)
            for index, nid in enumerate(path):
                if columns.parents[nid] < 0 or nid not in required:
                    continue
                avail = lengths[nid] - required[nid]
                if avail <= _LEN_TOL:
                    continue
                length = lengths[nid]
                downstream = caps[nid]
                for fraction in (1.0, 0.5):
                    y = avail * fraction
                    drop = tech.unit_resistance * y * (
                        unit_cap * length + downstream - unit_cap * y / 2.0
                    )
                    move = [(nid, -y)]
                    # Compensate every subtree hanging off the spine at or
                    # below the trimmed edge, so only the roof branch drops.
                    spine = set(path)
                    for below in path[: index + 1]:
                        for cid in columns.children(below):
                            if cid in spine:
                                continue
                            x = wire_length_for_delay(
                                drop, caps[cid] + unit_cap * lengths[cid], tech
                            )
                            if x > _LEN_TOL:
                                move.append((cid, x))
                    moves.append(move)
        return moves
