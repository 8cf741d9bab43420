"""Wirelength recovery: trim snaking that the other passes made redundant.

Re-embedding shrinks required detours and skew repair can overshoot an edge
that a later, higher-leverage extension made redundant; both leave booked
lengths above what geometry and the skew bound still need.  This pass walks
the tree leaves-first and shortens every over-booked edge as far as the
per-group skew bound allows: an edge may give up wire only while every sink
below it stays above its group's delay floor (``group hi - bound``), with the
delay drop computed exactly for the edge and conservatively for the
capacitance the trim removes from the upstream path.
"""

from __future__ import annotations

import math
import time
from typing import Dict

from repro.opt.base import OptContext, TreeColumns
from repro.opt.report import PassOutcome

__all__ = ["WirelengthRecoveryPass"]

_LEN_TOL = 1e-6
#: Fraction of the computed slack budget a trim may spend; the remainder
#: absorbs what the closed form does not model -- chiefly that trims elsewhere
#: lower the group roofs the slack was measured against.
_BUDGET_SAFETY = 0.5


class WirelengthRecoveryPass:
    """Shorten over-booked edges while every group stays within its bound."""

    name = "wirelength-recovery"

    def run(self, ctx: OptContext, iteration: int) -> PassOutcome:
        started = time.perf_counter()
        outcome = PassOutcome(name=self.name, iteration=iteration)
        tech = ctx.technology
        r = tech.unit_resistance
        c = tech.unit_capacitance
        required = ctx.required_lengths()
        seen_caps, node_delays = ctx.elmore()
        caps = seen_caps.tolist()
        delays = node_delays.tolist()
        # max(d - bound) over a group is max(d) - bound: rounding is monotone.
        _, hi = ctx.sink_groups.ranges(node_delays)
        floors = {
            group: roof - ctx.bound_for(group)
            for group, roof in zip(ctx.sink_groups.keys, hi.tolist())
        }

        columns = TreeColumns(ctx.tree)
        groups = ctx.node_groups
        upstream_r: Dict[int, float] = {columns.order[0]: 0.0}
        for nid in columns.order:
            for cid in columns.children(nid):
                upstream_r[cid] = upstream_r[nid] + r * columns.lengths[cid]

        # Leaves-first: a child's remaining slack is known before its parent
        # decides how much the shared edge above them may give up.
        slack: Dict[int, float] = {}
        for nid in reversed(columns.order):
            if columns.is_sink[nid]:
                slack[nid] = delays[nid] - floors[groups[nid]]
            else:
                slack[nid] = min(
                    (slack[cid] for cid in columns.children(nid)), default=math.inf
                )
            parent = columns.parents[nid]
            if parent < 0 or nid not in required:
                continue
            length = columns.lengths[nid]
            avail = length - required[nid]
            budget = slack[nid] * _BUDGET_SAFETY
            if avail <= _LEN_TOL or budget <= 0.0:
                continue
            downstream = caps[nid]
            # Delay drop of a trim y for the sinks below: the edge's own
            # Elmore term plus (upper bound) the removed wire capacitance seen
            # through the full upstream resistance.
            linear = r * (c * length + downstream) + upstream_r[parent] * c
            discriminant = linear * linear - 2.0 * r * c * budget
            if discriminant < 0.0:
                y = avail
            else:
                y = min(avail, (linear - math.sqrt(discriminant)) / (r * c))
            if y <= _LEN_TOL:
                continue
            drop = (
                r * y * (c * length + downstream)
                - r * c * y * y / 2.0
                + upstream_r[parent] * c * y
            )
            columns.set_length(nid, length - y)
            ctx.spend_wire(-y)
            outcome.wire_trimmed += y
            outcome.edges_modified += 1
            slack[nid] -= drop
        outcome.seconds = time.perf_counter() - started
        return outcome
