"""Struct-of-arrays (arena) view of a :class:`~repro.cts.tree.ClockTree`.

The object tree stores one Python ``ClockNode`` per node, which is ideal for
incremental construction and small-tree analysis but caps routing around a
few thousand sinks: every merge, embedding step and Elmore walk pays Python
attribute/dict overhead per node.  ``TreeArena`` is the scalable counterpart:
one contiguous numpy array per attribute, indexed by node id.

Layout (``n`` nodes, ``e = n - #roots`` edges)::

    kinds         (n,)  int8     0 = sink, 1 = internal, 2 = source
    parents       (n,)  int64    parent node id, -1 for roots
    edge_lengths  (n,)  float64  wire length to the parent (0 for roots);
                                 may exceed Manhattan distance when snaked
    xs, ys        (n,)  float64  embedded location (NaN when unset)
    has_location  (n,)  bool
    sink_caps     (n,)  float64  load capacitance (0 for non-sinks)
    groups        (n,)  int64    sink group id (only valid where has_group)
    has_group     (n,)  bool
    names         list[Optional[str]]
    root          int            root node id, -1 when the tree has no root
    child_offsets (n+1,) int64   CSR row pointers into child_ids
    child_ids     (e,)  int64    children in attach order (order matters:
                                 sequential float accumulation in the Elmore
                                 walk follows it)

Invariants:

* Node ids are contiguous ``0..n-1`` in insertion order (this is true of
  every ``ClockTree`` the routers build; :meth:`from_clock_tree` rejects
  anything else).
* ``child_ids`` preserves ``ClockNode.children`` order exactly, so any
  order-sensitive float accumulation replays bit-identically.
* Conversion is lossless: ``TreeArena.from_clock_tree(t).to_clock_tree()``
  reproduces ``t`` node for node (ids, kinds, topology, children order,
  locations, edge lengths, caps, groups, names, root).

The arena also memoises the derived orders used by the vectorized kernels:
nodes grouped by depth (for top-down passes) and by height above the leaves
(for bottom-up passes), plus reachability from the root.

Snapshots are never modified after they are handed out.  When only
setter-mutable attributes changed (edge length, location, buffer),
:meth:`TreeArena.refreshed` builds the next snapshot from the previous one:
it shares the topology arrays and memoised levels and re-reads just the
changed rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point

__all__ = ["TreeArena", "SINK_KIND", "INTERNAL_KIND", "SOURCE_KIND"]

SINK_KIND = 0
INTERNAL_KIND = 1
SOURCE_KIND = 2

_KIND_CODES = {"sink": SINK_KIND, "internal": INTERNAL_KIND, "source": SOURCE_KIND}
_KIND_NAMES = ("sink", "internal", "source")


@dataclass
class TreeArena:
    """Contiguous-array snapshot of a clock tree (see module docstring)."""

    kinds: np.ndarray
    parents: np.ndarray
    edge_lengths: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    has_location: np.ndarray
    sink_caps: np.ndarray
    groups: np.ndarray
    has_group: np.ndarray
    names: List[Optional[str]]
    root: int
    child_offsets: np.ndarray
    child_ids: np.ndarray
    technology: object = None
    #: Buffered-node annotations (see repro.delay.buffer): ``buffers`` keeps
    #: the cells themselves for lossless round-trips, the parallel arrays feed
    #: the vectorized Elmore kernels.  All-False mask on buffer-free trees.
    buffers: List[Optional[object]] = field(default_factory=list)
    buffer_mask: Optional[np.ndarray] = None
    buffer_input_caps: Optional[np.ndarray] = None
    buffer_intrinsics: Optional[np.ndarray] = None
    buffer_drive_res: Optional[np.ndarray] = None

    _depth_levels: Optional[List[np.ndarray]] = field(default=None, repr=False)
    _height_levels: Optional[List[np.ndarray]] = field(default=None, repr=False)
    _reachable: Optional[np.ndarray] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.kinds)

    def has_buffers(self) -> bool:
        """Whether any node of this snapshot carries a buffer cell."""
        return self.buffer_mask is not None and bool(self.buffer_mask.any())

    def child_counts(self) -> np.ndarray:
        return self.child_offsets[1:] - self.child_offsets[:-1]

    def children_of(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All children of ``nodes`` gathered from the CSR arrays.

        Returns ``(children, parent_index)`` where ``parent_index[k]`` is the
        position in ``nodes`` whose child ``children[k]`` is; children of one
        node appear in attach order.
        """
        starts = self.child_offsets[nodes]
        counts = self.child_offsets[nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        rep_starts = np.repeat(starts, counts)
        offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
        inner = np.arange(total, dtype=np.int64) - np.repeat(offs, counts)
        parent_index = np.repeat(np.arange(len(nodes), dtype=np.int64), counts)
        return self.child_ids[rep_starts + inner], parent_index

    # ------------------------------------------------------------------
    # Derived orders
    # ------------------------------------------------------------------
    def depth_levels(self) -> List[np.ndarray]:
        """Node ids grouped by depth: levels[0] are the roots, levels[d+1]
        the children of levels[d].  Raises on cyclic structures."""
        if self._depth_levels is None:
            levels: List[np.ndarray] = []
            frontier = np.flatnonzero(self.parents < 0).astype(np.int64)
            seen = 0
            while frontier.size:
                levels.append(frontier)
                seen += len(frontier)
                frontier, _ = self.children_of(frontier)
            if seen != self.num_nodes:
                raise ValueError("tree structure contains a cycle")
            self._depth_levels = levels
        return self._depth_levels

    def height_levels(self) -> List[np.ndarray]:
        """Node ids grouped by height above the leaves: levels[0] are leaves,
        and every child of a node in levels[h] lives strictly below h."""
        if self._height_levels is None:
            n = self.num_nodes
            heights = np.zeros(n, dtype=np.int64)
            for level in reversed(self.depth_levels()):
                parents = self.parents[level]
                mask = parents >= 0
                if mask.any():
                    np.maximum.at(heights, parents[mask], heights[level[mask]] + 1)
            order = np.argsort(heights, kind="stable")
            sorted_heights = heights[order]
            bounds = np.searchsorted(
                sorted_heights, np.arange(sorted_heights[-1] + 2 if n else 1)
            )
            self._height_levels = [
                order[bounds[h] : bounds[h + 1]]
                for h in range(len(bounds) - 1)
                if bounds[h + 1] > bounds[h]
            ]
        return self._height_levels

    def reachable_mask(self) -> np.ndarray:
        """Boolean mask of nodes reachable from the tree root (all False when
        the tree has no root yet)."""
        if self._reachable is None:
            reach = np.zeros(self.num_nodes, dtype=bool)
            if self.root >= 0:
                reach[self.root] = True
                for level in self.depth_levels():
                    children, parent_index = self.children_of(level)
                    if children.size:
                        reach[children] = reach[level[parent_index]]
            self._reachable = reach
        return self._reachable

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_clock_tree(cls, tree) -> "TreeArena":
        """Snapshot ``tree`` into arrays.  Requires contiguous node ids."""
        nodes = list(tree.nodes())
        for i, node in enumerate(nodes):
            if node.node_id != i:
                raise ValueError(
                    "arena conversion requires contiguous node ids (saw id %d "
                    "at position %d)" % (node.node_id, i)
                )
        groups = [node.group for node in nodes]
        child_offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
        child_offsets[1:] = np.cumsum([len(node.children) for node in nodes])
        return cls(
            kinds=np.array([_KIND_CODES[node.kind] for node in nodes], dtype=np.int8),
            parents=np.array(
                [-1 if node.parent is None else node.parent for node in nodes], dtype=np.int64
            ),
            sink_caps=np.array([node.sink_cap for node in nodes], dtype=np.float64),
            groups=np.array([0 if g is None else g for g in groups], dtype=np.int64),
            has_group=np.array([g is not None for g in groups], dtype=bool),
            names=[node.name for node in nodes],
            root=-1 if tree.root_id is None else tree.root_id,
            child_offsets=child_offsets,
            child_ids=np.array(
                [child for node in nodes for child in node.children], dtype=np.int64
            ),
            technology=tree.technology,
            **_attribute_columns(nodes),
        )

    def refreshed(self, tree, node_ids: Iterable[int]) -> "TreeArena":
        """A new snapshot of ``tree`` that re-reads only the rows ``node_ids``.

        Valid while ``tree`` has seen no structural edit since this snapshot
        was taken, so that only the setter-mutable columns (edge length,
        location, buffer) can differ, and only on ``node_ids``.  Those rows
        are re-read with the same code :meth:`from_clock_tree` uses, into
        copies of the columns; the topology arrays and the memoised levels
        are shared.  ``self`` is left unchanged.
        """
        ids = sorted(node_ids)
        columns = _attribute_columns([tree.node(i) for i in ids])
        changes = {}
        for name, values in columns.items():
            if name == "buffers":
                merged = list(self.buffers)
                for i, cell in zip(ids, values):
                    merged[i] = cell
            else:
                merged = getattr(self, name).copy()
                merged[ids] = values
            changes[name] = merged
        return replace(self, **changes)

    def to_clock_tree(self):
        """Rebuild the object tree this arena describes.

        Nodes are materialised directly (the arena came from a validated tree
        or the validated construction loop, so the incremental-construction
        checks of the public API would only re-prove what already holds);
        ids, children order, attributes and the root are reproduced exactly.
        """
        from repro.cts.tree import ClockNode, ClockTree

        tree = ClockTree(technology=self.technology)
        offsets = self.child_offsets
        for i in range(self.num_nodes):
            location = None
            if self.has_location[i]:
                location = Point(float(self.xs[i]), float(self.ys[i]))
            parent = int(self.parents[i])
            tree._nodes[i] = ClockNode(
                node_id=i,
                kind=_KIND_NAMES[self.kinds[i]],
                location=location,
                parent=None if parent < 0 else parent,
                children=[int(c) for c in self.child_ids[offsets[i] : offsets[i + 1]]],
                edge_length=float(self.edge_lengths[i]),
                sink_cap=float(self.sink_caps[i]),
                group=int(self.groups[i]) if self.has_group[i] else None,
                name=self.names[i],
                buffer=self.buffers[i] if self.buffers else None,
            )
        tree._next_id = self.num_nodes
        tree.root_id = None if self.root < 0 else self.root
        return tree


def _attribute_columns(nodes: Sequence) -> Dict[str, object]:
    """The setter-mutable columns of ``nodes``, one row per node.

    Edge length, location and buffer are the attributes ``ClockTree``'s
    setters change in place.  The full conversion and the row refresh both
    read them here, so a refreshed row is exactly the row a rebuild gives.
    """
    locations = [node.location for node in nodes]
    cells = [node.buffer for node in nodes]
    return {
        "edge_lengths": np.array([node.edge_length for node in nodes], dtype=np.float64),
        "xs": np.array([np.nan if p is None else p.x for p in locations], dtype=np.float64),
        "ys": np.array([np.nan if p is None else p.y for p in locations], dtype=np.float64),
        "has_location": np.array([p is not None for p in locations], dtype=bool),
        "buffers": cells,
        "buffer_mask": np.array([c is not None for c in cells], dtype=bool),
        "buffer_input_caps": np.array(
            [0.0 if c is None else c.input_cap for c in cells], dtype=np.float64
        ),
        "buffer_intrinsics": np.array(
            [0.0 if c is None else c.intrinsic_delay for c in cells], dtype=np.float64
        ),
        "buffer_drive_res": np.array(
            [0.0 if c is None else c.drive_resistance for c in cells], dtype=np.float64
        ),
    }
