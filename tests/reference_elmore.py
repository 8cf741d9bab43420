"""The per-node Elmore walk over ``ClockNode`` objects, kept as the engine's oracle.

:mod:`repro.delay.elmore` computes every Elmore number with array passes over
a tree's arena snapshot.  This module keeps the walk those passes replay:
capacitances accumulate leaves-first and delays root-first, one node object
at a time, in child attach order.  It also keeps the per-sink dict loops
that :class:`repro.delay.elmore.SinkGroups` replaced with one array
reduction: the skew report's and the skew-repair move generators', and the
per-subtree one :func:`repro.delay.elmore.subtree_summary` replaced.
``tests/test_elmore_oracle.py`` asserts that the library's numbers equal
these bit for bit, errors included.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.skew import SkewReport
from repro.delay.wire import wire_capacitance, wire_delay

__all__ = [
    "subtree_capacitances",
    "elmore_delays",
    "sink_delays",
    "skew_report",
    "sink_group_ranges",
    "subtree_summary",
]


def subtree_capacitances(tree) -> Dict[int, float]:
    """Downstream capacitance seen from upstream at every reachable node."""
    caps, _ = _object_capacitances(tree)
    return caps


def _object_capacitances(tree):
    """Object-walk capacitances: ``(seen_from_upstream, internal_at_buffers)``.

    ``internal`` holds the true subtree capacitance (the buffer's load) for
    buffered nodes only; buffer-free trees get an empty dict and float
    accumulation identical to the historical walk.
    """
    tech = tree.technology
    caps: Dict[int, float] = {}
    internal: Dict[int, float] = {}
    for node_id in tree.reverse_topological_order():
        node = tree.node(node_id)
        total = node.sink_cap
        for child_id in node.children:
            child = tree.node(child_id)
            total += caps[child_id] + wire_capacitance(child.edge_length, tech)
        if node.buffer is None:
            caps[node_id] = total
        else:
            internal[node_id] = total
            caps[node_id] = node.buffer.input_cap
    return caps, internal


def elmore_delays(tree) -> Dict[int, float]:
    """Elmore delay from the tree root to every reachable node."""
    tech = tree.technology
    caps, internal = _object_capacitances(tree)
    root = tree.root()
    delays: Dict[int, float] = {}
    source_component = tech.source_resistance * caps[root.node_id]
    delays[root.node_id] = source_component
    for node_id in tree.topological_order():
        node = tree.node(node_id)
        base = delays[node_id]
        if node.buffer is not None:
            # Same float association as the arena pass (base + stage, with
            # stage = intrinsic + drive * C_internal) so both engines agree
            # bit for bit on buffered trees too.
            base = base + (
                node.buffer.intrinsic_delay
                + node.buffer.drive_resistance * internal[node_id]
            )
        for child_id in node.children:
            child = tree.node(child_id)
            delays[child_id] = base + wire_delay(child.edge_length, caps[child_id], tech)
    return delays


def sink_delays(tree) -> Dict[int, float]:
    """Elmore delay from the root to every sink, keyed by sink node id."""
    delays = elmore_delays(tree)
    return {sink.node_id: delays[sink.node_id] for sink in tree.sinks()}


def skew_report(tree) -> SkewReport:
    """The :class:`SkewReport` as a per-sink loop over the walk's sink delays."""
    delays = sink_delays(tree)
    if not delays:
        raise ValueError("the tree has no sinks")
    sinks = tree.sinks()
    values = list(delays.values())
    max_delay = max(values)
    min_delay = min(values)

    per_group_range: Dict[int, Tuple[float, float]] = {}
    for sink in sinks:
        group = sink.group if sink.group is not None else 0
        delay = delays[sink.node_id]
        if group in per_group_range:
            lo, hi = per_group_range[group]
            per_group_range[group] = (min(lo, delay), max(hi, delay))
        else:
            per_group_range[group] = (delay, delay)

    per_group_skew = {g: hi - lo for g, (lo, hi) in per_group_range.items()}
    return SkewReport(
        global_skew=max_delay - min_delay,
        max_delay=max_delay,
        min_delay=min_delay,
        per_group_skew=per_group_skew,
        per_group_delay_range=per_group_range,
    )


def sink_group_ranges(sinks, group_of, delays):
    """Per-group ``(lo, hi, roof sink)`` dicts: the first sink at each ``hi``."""
    hi: Dict[int, float] = {}
    hi_sink: Dict[int, int] = {}
    lo: Dict[int, float] = {}
    for sink in sinks:
        g = group_of(sink)
        d = delays[sink.node_id]
        if g not in hi or d > hi[g]:
            hi[g], hi_sink[g] = d, sink.node_id
        lo[g] = min(lo.get(g, d), d)
    return lo, hi, hi_sink


def subtree_summary(tree, roots, group_ids):
    """Per root: its cap, ``{column: (lo, hi)}`` of ``t(sink) - t(root)``, its sink count.

    A sink counts towards the nearest root above it; one group column takes
    every sink, and an ungrouped sink is in group 0.
    """
    caps = subtree_capacitances(tree)
    delays = elmore_delays(tree)
    column = {g: k for k, g in enumerate(group_ids)}
    owner_of = {root: k for k, root in enumerate(roots)}
    ranges = [{} for _ in roots]
    counts = [0] * len(roots)
    for sink in tree.sinks():
        owners = [owner_of[n] for n in tree.path_to_root(sink.node_id) if n in owner_of]
        if not owners:
            continue
        k = owners[0]
        g = 0 if len(group_ids) == 1 else column[0 if sink.group is None else sink.group]
        d = delays[sink.node_id] - delays[roots[k]]
        lo, hi = ranges[k].get(g, (d, d))
        ranges[k][g] = (min(lo, d), max(hi, d))
        counts[k] += 1
    return [caps[root] for root in roots], ranges, counts
