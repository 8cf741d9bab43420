"""The struct-of-arrays (arena) form of a :class:`~repro.cts.tree.ClockTree`.

A ``TreeArena`` is one contiguous numpy array per attribute, indexed by node
id: the columns a ``ClockTree`` stores, as ``ClockTree.as_arena`` hands them
out.  An arena never changes once handed out, so every vectorized kernel --
the merge loop's construction, the embedding, the Elmore engine, validation
-- reads one consistent tree.

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
    sink_ids      (n,)  int64    instance sink id, -1 off the sinks
    root          int            root node id, -1 when the tree has no root
    child_offsets (n+1,) int64   CSR row pointers into child_ids
    child_ids     (e,)  int64    children in attach order (order matters:
                                 sequential float accumulation in the Elmore
                                 walk follows it)
    buffers       list[Optional[BufferCell]], with the cells' input caps,
                  intrinsic delays and drive resistances as (n,) columns
    labels        dict[int, str]  node id -> name, for the few names no
                                 sink id gives (the source's ``clk``, ...)

A node's name (:meth:`TreeArena.name_of`) is its label if it has one,
else ``sink-<id>`` when its sink id is set, else None.

Node ids are contiguous ``0..n-1`` in creation order, and ``child_ids``
keeps each node's children in attach order, so any order-sensitive float
accumulation replays bit-identically.

The arena also memoises the derived orders used by the vectorized kernels:
nodes grouped by depth (for top-down passes) and by height above the leaves
(for bottom-up passes), reachability from the root, and the depth-first
preorder index (:meth:`TreeArena.preorder`), under which every subtree is
one contiguous slice; ``arena_elmore`` memoises its pass on it too.
:meth:`TreeArena.gather_subtrees` copies such slices into a new arena, and
:meth:`TreeArena.appended` adds rows after the last: the routers and ECO
build their trees from these two, and :meth:`TreeArena.to_clock_tree` turns
the result into a tree without copying.  :meth:`TreeArena.with_attributes`
changes attribute columns while sharing the topology and the derived orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["TreeArena", "SINK_KIND", "INTERNAL_KIND", "SOURCE_KIND"]

SINK_KIND = 0
INTERNAL_KIND = 1
SOURCE_KIND = 2
#: ``ClockNode.kind`` of each kind code.
_KIND_NAMES = ("sink", "internal", "source")


def node_name(labels: Mapping[int, str], sink_ids: np.ndarray, node_id: int) -> Optional[str]:
    """A node's name: its label, else ``sink-<id>`` when its sink id is set
    (not -1), else None."""
    label = labels.get(node_id)
    if label is not None:
        return label
    sink_id = sink_ids.item(node_id)
    return None if sink_id < 0 else "sink-%d" % sink_id


def _memo():
    return field(default=None, init=False, repr=False, compare=False)


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
    sink_ids: np.ndarray
    root: int
    child_offsets: np.ndarray
    child_ids: np.ndarray
    technology: object = None
    #: Node id -> name, for the names no sink id gives.
    labels: Dict[int, str] = field(default_factory=dict)
    #: Buffered-node annotations (see repro.delay.buffer): ``buffers`` keeps
    #: the cells themselves for lossless round-trips, the parallel arrays feed
    #: the vectorized Elmore kernels.  All-False mask on buffer-free trees.
    buffers: List[Optional[object]] = field(default_factory=list)
    buffer_mask: Optional[np.ndarray] = None
    buffer_input_caps: Optional[np.ndarray] = None
    buffer_intrinsics: Optional[np.ndarray] = None
    buffer_drive_res: Optional[np.ndarray] = None

    #: Memoised derived orders and ``arena_elmore``'s memo.  None of them is
    #: an init field, so ``dataclasses.replace`` starts without them;
    #: :meth:`with_attributes` shares the orders.
    _depth_levels: Optional[List[np.ndarray]] = _memo()
    _depth_children: Optional[List[Tuple[np.ndarray, np.ndarray]]] = _memo()
    _height_levels: Optional[List[np.ndarray]] = _memo()
    _reachable: Optional[np.ndarray] = _memo()
    _preorder: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = _memo()
    _elmore: Optional[Tuple[np.ndarray, np.ndarray]] = _memo()

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.kinds)

    def has_buffers(self) -> bool:
        """Whether any node of this snapshot carries a buffer cell."""
        return self.buffer_mask is not None and bool(self.buffer_mask.any())

    def name_of(self, node_id: int) -> Optional[str]:
        """The node's label, else ``sink-<id>`` when it has a sink id, else None."""
        return node_name(self.labels, self.sink_ids, node_id)

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

    def depth_children(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(children, parents)`` of every :meth:`depth_levels` level but the
        last: the level's children in :meth:`children_of` order, and each
        one's parent.  The top-down passes' gathers, memoised with the
        levels."""
        if self._depth_children is None:
            levels = self.depth_levels()
            self._depth_children = [
                (children, level[parent_index])
                for level, (children, parent_index) in zip(
                    levels, map(self.children_of, levels[:-1])
                )
            ]
        return self._depth_children

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

    def preorder(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, pre, size)``: the depth-first preorder of the snapshot.

        ``order`` lists each tree root first, then the subtrees of its
        children in attach order -- on a rooted tree exactly
        ``ClockTree.topological_order()`` -- and the trees of a forest one
        after another by root id.  ``pre[v]`` is the position of ``v`` in
        ``order`` and ``size[v]`` the node count of its subtree, so that
        subtree is ``order[pre[v] : pre[v] + size[v]]``.  Raises on cyclic
        structures.
        """
        if self._preorder is None:
            n = self.num_nodes
            levels = self.depth_levels()
            size = np.ones(n, dtype=np.int64)
            for level in reversed(levels[1:]):
                np.add.at(size, self.parents[level], size[level])
            pre = np.zeros(n, dtype=np.int64)
            if levels:
                roots = levels[0]
                pre[roots] = np.cumsum(size[roots]) - size[roots]
            counts = self.child_counts()
            for level in levels[:-1]:
                children, parent_index = self.children_of(level)
                # A child follows its parent and the subtrees of its earlier
                # siblings: an exclusive running sum restarted per parent.
                sizes = size[children]
                before = np.cumsum(sizes) - sizes
                level_counts = counts[level]
                firsts = np.repeat(np.cumsum(level_counts) - level_counts, level_counts)
                pre[children] = pre[level[parent_index]] + 1 + before - before[firsts]
            order = np.empty(n, dtype=np.int64)
            order[pre] = np.arange(n, dtype=np.int64)
            self._preorder = (order, pre, size)
        return self._preorder

    def subtree_rows(self, roots: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """The nodes of the subtrees below ``roots``, one :meth:`preorder`
        slice after another in the order of ``roots``, and where each slice
        starts in that list."""
        order, pre, size = self.preorder()
        roots = np.asarray(roots, dtype=np.int64)
        lengths = size[roots]
        starts = np.cumsum(lengths) - lengths
        offsets = np.repeat(pre[roots] - starts, lengths)
        return order[offsets + np.arange(len(offsets), dtype=np.int64)], starts

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def gather_subtrees(self, roots: Sequence[int]) -> Tuple["TreeArena", np.ndarray]:
        """A new arena holding copies of the subtrees below ``roots``.

        The subtrees follow one another in the order of ``roots``, each in
        :meth:`preorder`, renumbered from 0: the ids, child order and every
        column ``ClockTree.copy_subtree_from`` gives when grafting the same
        subtrees, one after another, into an empty tree.  Each root arrives
        detached (no parent, edge length 0) and the result has no root yet.
        Returns the arena and, for each of its rows, the id it was copied
        from.  The subtrees must be disjoint.
        """
        rows, starts = self.subtree_rows(roots)
        total = len(rows)
        new_id = np.full(self.num_nodes, -1, dtype=np.int64)
        new_id[rows] = np.arange(total, dtype=np.int64)
        parents = new_id[self.parents[rows]]
        parents[starts] = -1
        edge_lengths = self.edge_lengths[rows]
        edge_lengths[starts] = 0.0
        counts = self.child_counts()[rows]
        child_offsets = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(counts, out=child_offsets[1:])
        children, _ = self.children_of(rows)
        buffers = self.buffers
        arena = TreeArena(
            kinds=self.kinds[rows],
            parents=parents,
            edge_lengths=edge_lengths,
            xs=self.xs[rows],
            ys=self.ys[rows],
            has_location=self.has_location[rows],
            sink_caps=self.sink_caps[rows],
            groups=self.groups[rows],
            has_group=self.has_group[rows],
            sink_ids=self.sink_ids[rows],
            root=-1,
            child_offsets=child_offsets,
            child_ids=new_id[children],
            technology=self.technology,
            labels={
                new_id.item(node): label
                for node, label in self.labels.items()
                if new_id.item(node) >= 0
            },
            buffers=[buffers[i] for i in rows.tolist()],
            buffer_mask=self.buffer_mask[rows],
            buffer_input_caps=self.buffer_input_caps[rows],
            buffer_intrinsics=self.buffer_intrinsics[rows],
            buffer_drive_res=self.buffer_drive_res[rows],
        )
        return arena, rows

    def appended(
        self,
        kinds: np.ndarray,
        parents: np.ndarray,
        edge_lengths: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        has_location: np.ndarray,
        sink_caps: np.ndarray,
        groups: np.ndarray,
        has_group: np.ndarray,
        child_counts: np.ndarray,
        child_ids: np.ndarray,
        root: int,
        sink_ids: Optional[np.ndarray] = None,
        labels: Optional[Mapping[int, str]] = None,
    ) -> "TreeArena":
        """A new arena: this one's rows followed by ``len(kinds)`` new ones.

        ``parents`` and ``edge_lengths`` cover every row, the old ones
        included, since a new row may adopt an old root; the other columns
        cover the new rows only (``groups`` is read where ``has_group``;
        ``sink_ids`` defaults to -1).  ``labels`` names new rows by their
        position among them.  The new rows' children, in attach order, are
        ``child_ids``, split by ``child_counts``; old rows keep theirs.  New
        rows carry no buffer.  ``self`` is left unchanged.
        """
        added = len(kinds)
        first = self.num_nodes
        if sink_ids is None:
            sink_ids = np.full(added, -1, dtype=np.int64)
        merged_labels = dict(self.labels)
        merged_labels.update((first + k, label) for k, label in (labels or {}).items())
        offsets = np.concatenate(
            (self.child_offsets, self.child_offsets[-1] + np.cumsum(child_counts))
        )
        zeros = np.zeros(added, dtype=np.float64)
        return TreeArena(
            kinds=np.concatenate((self.kinds, kinds)).astype(np.int8, copy=False),
            parents=parents,
            edge_lengths=edge_lengths,
            xs=np.concatenate((self.xs, xs)),
            ys=np.concatenate((self.ys, ys)),
            has_location=np.concatenate((self.has_location, has_location)),
            sink_caps=np.concatenate((self.sink_caps, sink_caps)),
            groups=np.concatenate((self.groups, np.where(has_group, groups, 0))),
            has_group=np.concatenate((self.has_group, has_group)),
            sink_ids=np.concatenate((self.sink_ids, sink_ids)).astype(np.int64, copy=False),
            root=root,
            child_offsets=offsets.astype(np.int64, copy=False),
            child_ids=np.concatenate((self.child_ids, child_ids)).astype(np.int64, copy=False),
            technology=self.technology,
            labels=merged_labels,
            buffers=self.buffers + [None] * added,
            buffer_mask=np.concatenate((self.buffer_mask, np.zeros(added, dtype=bool))),
            buffer_input_caps=np.concatenate((self.buffer_input_caps, zeros)),
            buffer_intrinsics=np.concatenate((self.buffer_intrinsics, zeros)),
            buffer_drive_res=np.concatenate((self.buffer_drive_res, zeros)),
        )

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def with_attributes(self, **columns) -> "TreeArena":
        """A new arena with some attribute columns replaced.

        Anything but the topology (``kinds``, ``parents``, ``root`` and the
        CSR children) may change.  The new arena shares the topology arrays
        and the memoised orders; ``arena_elmore``'s memo starts afresh.
        ``self`` is left unchanged.
        """
        topology = {"kinds", "parents", "root", "child_offsets", "child_ids"}.intersection(columns)
        if topology:
            raise ValueError("with_attributes keeps the topology; got %s" % sorted(topology))
        arena = replace(self, **columns)
        shared = ("_depth_levels", "_depth_children", "_height_levels", "_reachable", "_preorder")
        for name in shared:
            setattr(arena, name, getattr(self, name))
        return arena

    def to_clock_tree(self):
        """The :class:`~repro.cts.tree.ClockTree` this arena describes: it
        adopts these columns, with no per-row work, and copies a column before
        its first write to it, so the arena stays as it is."""
        from repro.cts.tree import ClockTree

        return ClockTree(self.technology)._adopt(self)
