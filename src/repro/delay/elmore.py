"""Elmore delay evaluation of an embedded clock tree.

One engine computes every Elmore number in the library: array passes over
the tree's struct-of-arrays snapshot
(:meth:`~repro.cts.tree.ClockTree.as_arena`).  A bottom-up pass accumulates
downstream capacitances over height levels and a top-down pass accumulates
source-to-node delays over depth levels, both using the stored wire lengths
(which include any snaking).  Child contributions are added slot by slot in
attach order, so every float accumulation replays a per-node walk over the
nodes bit for bit; the test-suite keeps that walk as the engine's oracle.

:func:`arena_elmore` is the engine's entry: node-indexed arrays of one
snapshot.  :func:`subtree_capacitances`, :func:`elmore_delays` and
:func:`sink_delays` are dictionary views of one such pass over the nodes
reachable from the root.  :class:`SinkGroups` reduces node-indexed delays to
per-group ``(lo, hi)`` ranges, for the skew report and the optimizer alike.
:func:`subtree_summary` reduces them per subtree instead, as its root sees
them: the stubs an ECO re-merges and the leaves the h-tree grafts.
:func:`buffer_trial_delays` evaluates a batch of one-buffer edits of a
snapshot at once, each column what :func:`arena_elmore` would return for the
tree with that buffer set.

The independent :func:`repro.delay.rc_tree.oracle_delays` re-derives the same
numbers through an explicit segmented RC network; validation, the optimizer
and the test-suite check this module against it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "subtree_capacitances",
    "elmore_delays",
    "sink_delays",
    "arena_elmore",
    "SinkGroups",
    "SubtreeSummary",
    "subtree_summary",
    "buffer_trial_delays",
]


def _reachable_view(tree, column: int) -> Dict[int, float]:
    """One :func:`arena_elmore` column as a dict over the reachable nodes."""
    if tree.root_id is None:
        raise ValueError("the tree has no root yet")  # before any snapshot
    arena = tree.as_arena()
    values = arena_elmore(arena)[column]
    ids = np.flatnonzero(arena.reachable_mask())
    return dict(zip(ids.tolist(), values[ids].tolist()))


def subtree_capacitances(tree) -> Dict[int, float]:
    """Downstream capacitance *seen from upstream* at every reachable node.

    For an unbuffered node this is the sum of every sink capacitance below it
    plus the wire capacitance of every edge below it.  A buffered node
    (``ClockNode.buffer``) decouples its subtree: upstream sees only the
    buffer cell's input capacitance.  The wire between a node and its parent
    is *not* included in that node's value (it belongs to the parent's subtree
    view), matching the usual Elmore bookkeeping.
    """
    return _reachable_view(tree, 0)


def elmore_delays(tree) -> Dict[int, float]:
    """Elmore delay from the tree root to every reachable node.

    The delay accumulated over an edge of length ``L`` into a child whose
    downstream capacitance is ``C`` is ``r L (c L / 2 + C)``; the source
    resistance (if the technology models one) adds ``R_src * C_total`` to every
    node identically.  A buffered node's reported delay is the arrival at the
    buffer *input*; everything below it additionally sees the buffer's stage
    delay ``intrinsic + drive_resistance * C_internal`` (see
    :mod:`repro.delay.buffer`).
    """
    return _reachable_view(tree, 1)


def sink_delays(tree) -> Dict[int, float]:
    """Elmore delay from the root to every sink, keyed by sink node id."""
    from repro.cts.arena import SINK_KIND

    delays = elmore_delays(tree)
    sinks = np.flatnonzero(tree.as_arena().kinds == SINK_KIND)
    return {node_id: delays[node_id] for node_id in sinks.tolist()}


class SinkGroups:
    """Sinks bucketed by group: the per-group reduction of node delays.

    ``sink_ids[i]`` belongs to group ``groups[i]``.  ``keys`` holds the group
    ids in first-occurrence order over the sinks; every per-group array below
    follows that order.
    """

    def __init__(self, sink_ids: np.ndarray, groups: np.ndarray) -> None:
        keys, first, inverse = np.unique(groups, return_index=True, return_inverse=True)
        order = np.argsort(first)
        slot = np.empty(len(keys), dtype=np.int64)
        slot[order] = np.arange(len(keys))
        self.keys: List[int] = keys[order].tolist()
        self.sink_ids = np.asarray(sink_ids, dtype=np.int64)
        self.slots = slot[inverse]
        # The sinks sorted by slot, and where each slot's run starts: every
        # group has a sink, so ``ranges`` reduces each run at once.
        by_slot = np.argsort(self.slots, kind="stable")
        self._sorted_ids = self.sink_ids[by_slot]
        self._starts = np.searchsorted(self.slots[by_slot], np.arange(len(self.keys)))

    @classmethod
    def of(cls, arena, single_group: bool = False) -> "SinkGroups":
        """The sinks of a snapshot in node order, ungrouped ones in group 0.

        ``single_group`` puts every sink in group 0, as for routes that
        ignored the instance's grouping.
        """
        from repro.cts.arena import SINK_KIND

        sink_ids = np.flatnonzero(arena.kinds == SINK_KIND)
        groups = np.where(arena.has_group[sink_ids], arena.groups[sink_ids], 0)
        return cls(sink_ids, np.zeros_like(groups) if single_group else groups)

    def ranges(self, delays: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-group ``(lo, hi)`` sink delays of a node-indexed delay array.

        An ``(n, K)`` array of ``K`` delay columns gives ``(G, K)`` ranges.
        """
        values = delays[self._sorted_ids]
        if not self.keys:
            empty = np.empty((0,) + values.shape[1:])
            return empty, empty.copy()
        lo = np.minimum.reduceat(values, self._starts, axis=0)
        hi = np.maximum.reduceat(values, self._starts, axis=0)
        return lo, hi

    def roof_sinks(self, delays: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per group, the first of its sinks whose delay equals its ``hi``."""
        at_roof = np.flatnonzero(delays[self.sink_ids] == hi[self.slots])
        _, first = np.unique(self.slots[at_roof], return_index=True)
        return self.sink_ids[at_roof[first]]


class SubtreeSummary(NamedTuple):
    """Subtrees as their roots see them, one row per root (``G`` group columns)."""

    #: ``(k,)`` capacitance seen at each root from upstream.
    caps: np.ndarray
    #: ``(k, G, 2)`` per-group ``[lo, hi]`` Elmore delays from the root to its
    #: sinks; zero where the group is absent.
    delays: np.ndarray
    #: ``(k, G)`` whether the root has a sink of each group below it.
    present: np.ndarray
    #: ``(k,)`` number of sinks below each root.
    sinks: np.ndarray


def subtree_summary(arena, roots: Sequence[int], group_ids: Sequence[int]) -> SubtreeSummary:
    """Summarise the subtrees of a snapshot below ``roots``.

    ``group_ids`` are the ascending group ids of the dense columns; one
    column takes every sink, as for routes that ignore the grouping.  Each
    sink counts towards the nearest of ``roots`` above it.  One
    :func:`arena_elmore` pass gives every delay through
    ``delay(root -> sink) = t(sink) - t(root)``: everything above the root is
    a common term that cancels, so the intervals are float-exact against the
    library's Elmore numbers.
    """
    from repro.cts.arena import SINK_KIND

    caps, delays = arena_elmore(arena)
    roots = np.asarray(roots, dtype=np.int64)
    shape = (len(roots), len(group_ids))
    label = np.full(arena.num_nodes, -1, dtype=np.int64)
    label[roots] = np.arange(len(roots), dtype=np.int64)
    for level in arena.depth_levels()[1:]:
        own = label[level]
        label[level] = np.where(own >= 0, own, label[arena.parents[level]])
    sink_ids = np.flatnonzero((arena.kinds == SINK_KIND) & (label >= 0))
    sink_labels = label[sink_ids]
    relative = delays[sink_ids] - delays[roots[sink_labels]]
    if len(group_ids) == 1:
        group_index = np.zeros(len(sink_ids), dtype=np.int64)
    else:
        raw = np.where(arena.has_group[sink_ids], arena.groups[sink_ids], 0)
        dense = np.asarray(group_ids, dtype=np.int64)
        group_index = np.minimum(np.searchsorted(dense, raw), len(dense) - 1)
        if not np.array_equal(dense[group_index], raw):
            raise ValueError("subtree sinks carry groups missing from group_ids")
    lo = np.full(shape, np.inf)
    hi = np.full(shape, -np.inf)
    np.minimum.at(lo, (sink_labels, group_index), relative)
    np.maximum.at(hi, (sink_labels, group_index), relative)
    present = hi > -np.inf
    intervals = np.where(present[:, :, None], np.stack((lo, hi), axis=2), 0.0)
    counts = np.bincount(sink_labels, minlength=len(roots))
    return SubtreeSummary(caps[roots], intervals, present, counts)


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

    The pair is memoised on the arena, as its levels are, and read-only, so
    a caller that writes to it fails loudly.
    """
    if arena._elmore is None:
        caps, internal = _arena_capacitances(arena)
        delays = _arena_delays(arena, caps, internal)
        caps.flags.writeable = False
        delays.flags.writeable = False
        arena._elmore = (caps, delays)
    return arena._elmore


def _arena_capacitances(arena):
    """Bottom-up capacitance accumulation over height levels.

    Child contributions are added one attach-order slot at a time
    (``total = total + (caps[child] + c * length)``), replaying a per-node
    walk's sequential float additions exactly.  Returns ``(seen, internal)``
    arrays: ``seen`` is decoupled at buffered nodes (the buffer input cap),
    ``internal`` is None on buffer-free trees and otherwise holds the true
    subtree capacitance at buffered slots.  The buffer-free path performs no
    extra float operation.
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
    in front of every child edge; the buffer-free path adds nothing, and
    neither does a level without a buffered node: an unbuffered stage is
    +0.0, which changes no delay (none is -0.0).
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
    for level, (children, owners) in zip(arena.depth_levels(), arena.depth_children()):
        lengths = arena.edge_lengths[children]
        base = delays[owners]
        if buffered and mask[level].any():
            base = base + stage[owners]
        delays[children] = base + r * lengths * (
            c * lengths / 2.0 + caps[children]
        )
    return delays


def buffer_trial_delays(arena, nodes: Sequence[int], cells: Sequence) -> np.ndarray:
    """``(n, K)`` delays of ``K`` one-buffer edits of a snapshot, one per column.

    Column ``k`` is, bit for bit, the ``delays`` of :func:`arena_elmore` for
    the tree with buffer cell ``cells[k]`` set at the unbuffered node
    ``nodes[k]`` (and nothing else changed).  Only the trial node's root path
    sees a new capacitance: the path stops at the first buffered ancestor,
    whose stage delay changes instead, and without one the root's
    source-resistance term changes too.  The paths are re-derived with the
    capacitance pass's slot-order additions, all columns climbing together;
    one top-down pass then carries every column at once, with the changed
    edge terms and stage delays applied as sparse per-level patches that
    repeat :func:`_arena_delays`' expressions term for term.
    """
    n, width = arena.num_nodes, len(nodes)
    if not width:
        return np.zeros((n, 0))
    tech = arena.technology
    r = tech.unit_resistance
    c = tech.unit_capacitance
    caps = arena_elmore(arena)[0]
    lengths = arena.edge_lengths
    edge_caps = c * lengths
    parents = arena.parents
    offsets = arena.child_offsets
    counts = arena.child_counts()
    buffered = arena.buffer_mask if arena.buffer_mask is not None else np.zeros(n, dtype=bool)

    def slot_sums(owners, child, seen):
        """The capacitance pass's total at each of ``owners``, with its
        ``child`` (-1: none) seen at ``seen``."""
        total = arena.sink_caps[owners]
        owned = counts[owners]
        starts = offsets[owners]
        for slot in range(int(owned.max()) if owners.size else 0):
            rows = slice(None) if owned.min() > slot else np.flatnonzero(owned > slot)
            kids = arena.child_ids[starts[rows] + slot]
            value = np.where(kids == child[rows], seen[rows], caps[kids])
            total[rows] = total[rows] + (value + edge_caps[kids])
        return total

    def stages(owners, internal):
        return arena.buffer_intrinsics[owners] + arena.buffer_drive_res[owners] * internal

    # Stage delays of the snapshot's own buffers (their internal loads).
    stage = np.zeros(n, dtype=np.float64)
    own = np.flatnonzero(buffered)
    stage[own] = stages(own, slot_sums(own, np.full(len(own), -1), np.zeros(len(own))))

    # Climb every trial's path at once, collecting per column the nodes whose
    # edge term (below the path's top) and stage delay (the trial node, the
    # buffer that stops the path) change, and the root delay.
    child = np.asarray(nodes, dtype=np.int64)
    column = np.arange(width, dtype=np.int64)
    seen = np.array([cell.input_cap for cell in cells], dtype=np.float64)
    intrinsics = np.array([cell.intrinsic_delay for cell in cells], dtype=np.float64)
    drives = np.array([cell.drive_resistance for cell in cells], dtype=np.float64)
    stage_patches = [(child, column, intrinsics + drives * caps[child])]
    edges, stops = [], []
    roots = np.zeros(width, dtype=np.float64)
    if arena.root >= 0:
        roots[:] = tech.source_resistance * caps[arena.root]
    while column.size:
        parent = parents[child]
        top = parent < 0
        if top.any():
            roots[column[top]] = tech.source_resistance * seen[top]
            keep = ~top
            child, column, seen, parent = child[keep], column[keep], seen[keep], parent[keep]
        edges.append((child, column, seen))
        total = slot_sums(parent, child, seen)
        stop = buffered[parent]
        if stop.any():
            stops.append((parent[stop], column[stop], total[stop]))
            keep = ~stop
            parent, column, total = parent[keep], column[keep], total[keep]
        child, seen = parent, total
    if stops:
        owner, owner_column, internal = (np.concatenate(part) for part in zip(*stops))
        stage_patches.append((owner, owner_column, stages(owner, internal)))
    edge_kid, edge_column, edge_seen = (np.concatenate(part) for part in zip(*edges))
    edge_length = lengths[edge_kid]
    edge_value = r * edge_length * (c * edge_length / 2.0 + edge_seen)

    # A stage patch reaches every child of its node: spread it over them.
    owner, owner_column, owner_value = (np.concatenate(part) for part in zip(*stage_patches))
    spread = counts[owner]
    first = np.repeat(np.cumsum(spread) - spread, spread)
    stage_kid = arena.child_ids[np.repeat(offsets[owner], spread) + np.arange(len(first)) - first]
    stage_owner = np.repeat(owner, spread)
    stage_column = np.repeat(owner_column, spread)
    stage_value = np.repeat(owner_value, spread)

    # Sort both patch lists by their child's depth, to slice them per level.
    levels = arena.depth_levels()
    depth = np.empty(n, dtype=np.int64)
    for index, level in enumerate(levels):
        depth[level] = index
    stage_order = np.argsort(depth[stage_kid], kind="stable")
    edge_order = np.argsort(depth[edge_kid], kind="stable")
    stage_bounds = np.searchsorted(depth[stage_kid][stage_order], np.arange(len(levels) + 1))
    edge_bounds = np.searchsorted(depth[edge_kid][edge_order], np.arange(len(levels) + 1))
    staged_levels = set(depth[own].tolist())

    delays = np.zeros((n, width), dtype=np.float64)
    if arena.root >= 0:
        delays[arena.root] = roots
    edge_terms = r * lengths * (c * lengths / 2.0 + caps)
    row_of = np.zeros(n, dtype=np.int64)  # a patched child's row in its level
    for index, (children, owners) in enumerate(arena.depth_children()):
        base = delays[owners]
        if index in staged_levels:  # as in _arena_delays
            base += stage[owners][:, None]
        staged = stage_order[stage_bounds[index + 1] : stage_bounds[index + 2]]
        edged = edge_order[edge_bounds[index + 1] : edge_bounds[index + 2]]
        if staged.size or edged.size:
            row_of[children] = np.arange(len(children), dtype=np.int64)
        if staged.size:
            rows, columns = row_of[stage_kid[staged]], stage_column[staged]
            base[rows, columns] = delays[stage_owner[staged], columns] + stage_value[staged]
        if edged.size:
            rows, columns = row_of[edge_kid[edged]], edge_column[edged]
            patched = base[rows, columns] + edge_value[edged]
        base += edge_terms[children][:, None]
        if edged.size:
            base[rows, columns] = patched
        delays[children] = base
    return delays
