"""The buffered repair's per-node loops, kept as oracles of the array passes.

* :func:`alignment_sweep` is the skew repair's alignment sweep as a walk.
  :class:`repro.opt.skew_repair.SkewRepairPass` aligns a tree one height
  level at a time over arrays, or node by node where the wire budget binds,
  and must book what this walk books, bit for bit: the same edge lengths,
  the same ``wire_net_added``, the same outcome fields in the same float
  order, and the same return value.  The walk visits every node of the
  root's tree in reversed preorder with per-group ``[lo, hi]`` interval
  dicts, reading the tree once as :class:`~repro.opt.base.TreeColumns`.
* :func:`buffer_insert` is buffer insertion one trial at a time: set the
  buffer, run ``arena_elmore`` on the whole tree, judge, and unset it when
  rejected.  :class:`repro.opt.buffering.BufferInsertPass` judges batches of
  trials from one matrix of delay columns and must insert the same buffers.

``tests/test_opt_arrays.py`` runs each pair on copies of one tree and
compares.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.cts.arena import SINK_KIND
from repro.delay.wire import wire_delay, wire_length_for_delay
from repro.opt.base import OptContext, TreeColumns
from repro.opt.buffering import _pick_cell, resolve_buffer_library
from repro.opt.report import PassOutcome

__all__ = ["alignment_sweep", "buffer_insert", "trim_for_delay"]

_TOL = 1e-9
_LEN_TOL = 1e-6


def trim_for_delay(
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


def alignment_sweep(ctx: OptContext, outcome: PassOutcome) -> bool:
    """One alignment sweep of ``ctx.tree``, node by node; True when it booked
    any length.  Edits the tree and ``ctx``/``outcome`` as the pass does."""
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
            if _align_children(
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
        y, actual = trim_for_delay(lengths[cid], caps[cid], trim_delay, avail, tech)
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


def buffer_insert(ctx: OptContext, outcome: PassOutcome) -> None:
    """Buffer insertion with one whole-tree Elmore pass per trial."""
    max_cap = ctx.config.max_cap
    library = resolve_buffer_library(ctx.config.buffer_library)
    tree = ctx.tree
    arena = tree.as_arena()
    order = arena.subtree_rows([arena.root])[0][::-1]
    candidates = order[
        (arena.kinds[order] != SINK_KIND) & (order != arena.root) & ~arena.buffer_mask[order]
    ]
    caps, delays = ctx.elmore()
    violations = ctx.skew_violations(delays)
    worst = ctx.worst_excess(delays)
    for node_id in candidates.tolist():
        load = float(caps[node_id])
        if load <= max_cap:
            continue
        tree.set_buffer(node_id, _pick_cell(library, load, max_cap))
        outcome.trials += 1
        new_caps, new_delays = ctx.elmore()
        new_violations = ctx.skew_violations(new_delays)
        new_worst = ctx.worst_excess(new_delays)
        degrades = new_violations > violations or (
            new_violations == violations
            and new_violations > 0
            and new_worst > worst + 1e-9
        )
        if degrades:
            tree.set_buffer(node_id, None)
            continue
        violations, worst, caps = new_violations, new_worst, new_caps
        outcome.buffers_inserted += 1
