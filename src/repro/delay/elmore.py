"""Elmore delay evaluation of an embedded clock tree.

These functions are the primary delay engine: a bottom-up pass accumulates
downstream capacitances and a top-down pass accumulates source-to-node delays,
both using the stored wire lengths (which include any snaking).  The
independent :func:`repro.delay.rc_tree.oracle_delays` re-derives the same
numbers through an explicit segmented RC network; validation, the optimizer
and the test-suite check this module against it.

Two engines compute the same numbers:

``object``
    The per-node reference walk over ``ClockNode`` objects (the historical
    code path).

``arena``
    Array passes over the tree's struct-of-arrays snapshot
    (:meth:`~repro.cts.tree.ClockTree.as_arena`): capacitances accumulate
    bottom-up over height levels, delays propagate top-down over depth
    levels.  Child contributions are added slot-by-slot in attach order, so
    every float accumulation replays the object walk bit for bit.

``engine="auto"`` (the default) picks ``arena`` for trees of
:data:`ARENA_THRESHOLD` nodes or more, where the conversion cost is repaid
many times over, and the object walk below it.  Both engines return exactly
equal dictionaries, which the test-suite asserts.

:func:`arena_elmore` is the arena engine's public entry for callers that
already hold a snapshot and want node-indexed arrays rather than
dictionaries (the optimizer's skew scoring, ECO's frontier stubs).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.delay.wire import wire_capacitance, wire_delay

__all__ = [
    "subtree_capacitances",
    "elmore_delays",
    "sink_delays",
    "arena_elmore",
    "ELMORE_ENGINES",
    "ARENA_THRESHOLD",
]

#: Supported delay-evaluation engines.
ELMORE_ENGINES = ("auto", "arena", "object")

#: Node count at which ``engine="auto"`` switches to the arena passes.
ARENA_THRESHOLD = 2048


def _use_arena(tree, engine: str) -> bool:
    if engine not in ELMORE_ENGINES:
        raise ValueError(
            "unknown elmore engine %r; expected one of %s" % (engine, ELMORE_ENGINES)
        )
    if engine == "auto":
        return len(tree) >= ARENA_THRESHOLD
    return engine == "arena"


def subtree_capacitances(tree, engine: str = "auto") -> Dict[int, float]:
    """Downstream capacitance *seen from upstream* at every reachable node.

    For an unbuffered node this is the sum of every sink capacitance below it
    plus the wire capacitance of every edge below it.  A buffered node
    (``ClockNode.buffer``) decouples its subtree: upstream sees only the
    buffer cell's input capacitance.  The wire between a node and its parent
    is *not* included in that node's value (it belongs to the parent's subtree
    view), matching the usual Elmore bookkeeping.
    """
    if _use_arena(tree, engine):
        tree.root()  # same "no root yet" error as the object walk
        arena = tree.as_arena()
        caps, _ = arena_elmore(arena)
        ids = np.flatnonzero(arena.reachable_mask())
        return dict(zip(ids.tolist(), caps[ids].tolist()))
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


def elmore_delays(tree, engine: str = "auto") -> Dict[int, float]:
    """Elmore delay from the tree root to every reachable node.

    The delay accumulated over an edge of length ``L`` into a child whose
    downstream capacitance is ``C`` is ``r L (c L / 2 + C)``; the source
    resistance (if the technology models one) adds ``R_src * C_total`` to every
    node identically.  A buffered node's reported delay is the arrival at the
    buffer *input*; everything below it additionally sees the buffer's stage
    delay ``intrinsic + drive_resistance * C_internal`` (see
    :mod:`repro.delay.buffer`).
    """
    if _use_arena(tree, engine):
        tree.root()
        arena = tree.as_arena()
        _, delays = arena_elmore(arena)
        ids = np.flatnonzero(arena.reachable_mask())
        return dict(zip(ids.tolist(), delays[ids].tolist()))
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


def sink_delays(tree, engine: str = "auto") -> Dict[int, float]:
    """Elmore delay from the root to every sink, keyed by sink node id."""
    delays = elmore_delays(tree, engine=engine)
    return {sink.node_id: delays[sink.node_id] for sink in tree.sinks()}


# ----------------------------------------------------------------------
# Arena passes
# ----------------------------------------------------------------------
def arena_elmore(arena) -> Tuple[np.ndarray, np.ndarray]:
    """``(seen_caps, delays)`` of every node of a :class:`TreeArena`.

    Both arrays are indexed by node id.  ``seen_caps`` is what
    :func:`subtree_capacitances` reports: the downstream capacitance seen
    from upstream, which a buffered node decouples to its cell's input cap.
    ``delays`` is what :func:`elmore_delays` reports: the root-to-node delay
    with the source resistance term, and with each buffer's stage delay in
    front of everything below it.  Nodes unreachable from the root hold
    meaningless values; the dictionary entries above leave them out.
    """
    caps, internal = _arena_capacitances(arena)
    return caps, _arena_delays(arena, caps, internal)


def _arena_capacitances(arena):
    """Bottom-up capacitance accumulation over height levels.

    Child contributions are added one attach-order slot at a time
    (``total = total + (caps[child] + c * length)``), replaying the object
    walk's sequential float additions exactly.  Returns ``(seen, internal)``
    arrays: ``seen`` is decoupled at buffered nodes (the buffer input cap),
    ``internal`` is None on buffer-free trees and otherwise holds the true
    subtree capacitance at buffered slots.  The buffer-free path performs no
    extra float operation, keeping it bit-identical to the historical pass.
    """
    c = arena.technology.unit_capacitance
    caps = arena.sink_caps.copy()
    offsets = arena.child_offsets
    counts = arena.child_counts()
    edge_caps = c * arena.edge_lengths
    buffered = arena.has_buffers()
    internal = np.zeros(arena.num_nodes, dtype=np.float64) if buffered else None
    for level in arena.height_levels():
        nodes = level[counts[level] > 0]
        if nodes.size:
            node_counts = counts[nodes]
            starts = offsets[nodes]
            total = caps[nodes]
            for slot in range(int(node_counts.max())):
                sel = node_counts > slot
                children = arena.child_ids[starts[sel] + slot]
                total[sel] = total[sel] + (caps[children] + edge_caps[children])
            caps[nodes] = total
        if buffered:
            # Decouple before any higher level reads caps[child]: upstream
            # sees only the buffer input cap.
            buf_nodes = level[arena.buffer_mask[level]]
            if buf_nodes.size:
                internal[buf_nodes] = caps[buf_nodes]
                caps[buf_nodes] = arena.buffer_input_caps[buf_nodes]
    return caps, internal


def _arena_delays(arena, caps: np.ndarray, internal=None) -> np.ndarray:
    """Top-down delay propagation over depth levels (root component included).

    Buffered parents add their stage delay ``intrinsic + drive * C_internal``
    in front of every child edge; the buffer-free path adds nothing and stays
    bit-identical to the historical pass.
    """
    tech = arena.technology
    r = tech.unit_resistance
    c = tech.unit_capacitance
    delays = np.zeros(arena.num_nodes, dtype=np.float64)
    if arena.root >= 0:
        delays[arena.root] = tech.source_resistance * caps[arena.root]
    buffered = arena.has_buffers() and internal is not None
    if buffered:
        stage = np.zeros(arena.num_nodes, dtype=np.float64)
        mask = arena.buffer_mask
        stage[mask] = arena.buffer_intrinsics[mask] + (
            arena.buffer_drive_res[mask] * internal[mask]
        )
    for level in arena.depth_levels():
        children, parent_index = arena.children_of(level)
        if not children.size:
            continue
        lengths = arena.edge_lengths[children]
        base = delays[level[parent_index]]
        if buffered:
            base = base + stage[level[parent_index]]
        delays[children] = base + r * lengths * (
            c * lengths / 2.0 + caps[children]
        )
    return delays
