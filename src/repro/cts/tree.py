"""The embedded clock tree produced by the routers.

A :class:`ClockTree` is a rooted tree whose leaves are clock sinks and whose
root is the clock source.  Every node other than the root carries the length
of the wire connecting it to its parent; the length may exceed the Manhattan
distance between the endpoints when the router snaked the wire to balance
delays.  Wirelength, delays and skew reports are all derived from this
structure.

The tree is stored as columns, one growable array per attribute indexed by
node id, in the layout of :class:`~repro.cts.arena.TreeArena`.  The builders
(:meth:`ClockTree.add_sink`, :meth:`~ClockTree.attach`, ...) append rows and
the setters write them; :meth:`ClockTree.as_arena` hands the columns out as
an arena that never changes afterwards, and a finished arena becomes a tree
by :meth:`~repro.cts.arena.TreeArena.to_clock_tree` without copying.
:class:`ClockNode` is a read-only view of one row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cts.arena import (
    _KIND_NAMES,
    INTERNAL_KIND,
    SINK_KIND,
    SOURCE_KIND,
    TreeArena,
    node_name,
)
from repro.delay.technology import DEFAULT_TECHNOLOGY, Technology
from repro.geometry.point import Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delay.buffer import BufferCell

__all__ = ["ClockNode", "ClockTree"]

#: Node kinds.
SINK, INTERNAL, SOURCE = _KIND_NAMES

#: The array columns a tree grows, with their dtypes (``TreeArena`` fields).
_ARRAYS = (
    ("kinds", np.int8),
    ("parents", np.int64),
    ("edge_lengths", np.float64),
    ("xs", np.float64),
    ("ys", np.float64),
    ("has_location", bool),
    ("sink_caps", np.float64),
    ("groups", np.int64),
    ("has_group", bool),
    ("sink_ids", np.int64),
    ("buffer_mask", bool),
    ("buffer_input_caps", np.float64),
    ("buffer_intrinsics", np.float64),
    ("buffer_drive_res", np.float64),
)
#: The columns held as Python containers: the buffer cells by node, and the
#: labels (node id -> name).
_OBJECTS = ("buffers", "labels")


def _scalar(column: str) -> property:
    """A view attribute: one column of the tree, as a Python scalar."""
    return property(lambda node: node._tree._columns[column].item(node._id))


class ClockNode:
    """A read-only view of one node of a :class:`ClockTree`.

    Every attribute reads the tree's columns when asked, as a Python value, so
    a view sees the tree's later edits; assigning an attribute raises.  Edit
    the tree through its setters instead.  ``buffer`` is the cell driving the
    node's subtree (None = unbuffered; see repro.delay.buffer).  ``sink_id``
    is the instance sink the node stands for (None off the sinks), and
    ``name`` its label, else ``sink-<id>``, else None.
    """

    __slots__ = ("_tree", "_id")
    _FIELDS = ("node_id", "kind", "location", "parent", "children", "edge_length",
               "sink_cap", "group", "sink_id", "name", "buffer")

    def __init__(self, tree: "ClockTree", node_id: int) -> None:
        object.__setattr__(self, "_tree", tree)
        object.__setattr__(self, "_id", node_id)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(
            "ClockNode is a read-only view: edit the tree through ClockTree's setters"
        )

    __delattr__ = __setattr__
    node_id = property(lambda node: node._id)
    edge_length = _scalar("edge_lengths")
    sink_cap = _scalar("sink_caps")
    name = property(lambda node: node_name(node._tree._labels, node._tree._columns["sink_ids"],
                                           node._id))
    buffer = property(lambda node: node._tree._buffers[node._id])
    is_sink = property(lambda node: node.kind == SINK)
    is_source = property(lambda node: node.kind == SOURCE)
    is_internal = property(lambda node: node.kind == INTERNAL)

    @property
    def kind(self) -> str:
        return _KIND_NAMES[self._tree._columns["kinds"].item(self._id)]

    @property
    def location(self) -> Optional[Point]:
        columns = self._tree._columns
        if not columns["has_location"].item(self._id):
            return None
        return Point(columns["xs"].item(self._id), columns["ys"].item(self._id))

    @property
    def parent(self) -> Optional[int]:
        parent = self._tree._columns["parents"].item(self._id)
        return None if parent < 0 else parent

    @property
    def children(self) -> List[int]:
        """Child ids in attach order (a new list on every read)."""
        offsets, child_ids = self._tree._children()
        return child_ids[offsets[self._id] : offsets[self._id + 1]].tolist()

    @property
    def sink_id(self) -> Optional[int]:
        sink_id = self._tree._columns["sink_ids"].item(self._id)
        return None if sink_id < 0 else sink_id

    @property
    def group(self) -> Optional[int]:
        columns = self._tree._columns
        return columns["groups"].item(self._id) if columns["has_group"].item(self._id) else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClockNode):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._FIELDS)
        return "ClockNode(%s)" % fields


def _room(array: np.ndarray, used: int, count: int) -> np.ndarray:
    """``array`` with room for ``count`` rows after its first ``used``; it
    at least doubles when it runs out, so appends are amortised O(1)."""
    if used + count <= len(array):
        return array
    grown = np.empty(max(2 * len(array), used + count, 8), dtype=array.dtype)
    grown[:used] = array[:used]
    return grown


class ClockTree:
    """A rooted, embedded clock routing tree.

    A tree is built incrementally through :meth:`add_sink`,
    :meth:`add_internal` and :meth:`add_source` (sinks first, then internal
    merge nodes bottom-up, and finally a source node adopting the last
    remaining subtree root), or from a finished arena
    (``TreeArena.to_clock_tree``), as the routers do.  Node ids are
    contiguous from 0 in creation order.  Locations may be filled in later by
    the top-down embedding pass; wirelength is always derived from the stored
    edge lengths (which include snaking), never from the geometry.
    """

    def __init__(self, technology: Technology = DEFAULT_TECHNOLOGY) -> None:
        self.technology = technology
        self._size = 0
        #: The array columns, each ``capacity`` long; rows ``_size`` and up
        #: are unused.
        self._columns: Dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dtype) for name, dtype in _ARRAYS
        }
        self._buffers: List[Optional["BufferCell"]] = []
        self._labels: Dict[int, str] = {}
        #: Every child id in attach order (``_num_edges`` of them); the CSR
        #: children are this list sorted stably by parent.
        self._edges = np.empty(0, dtype=np.int64)
        self._num_edges = 0
        self._root = -1
        #: Columns a handed-out arena holds: the next write to one copies it.
        self._shared = set()
        #: The arena of the current state, once handed out (None after edits).
        self._arena: Optional[TreeArena] = None
        #: The latest arena whose topology is current, whose derived orders
        #: the next arena shares (None after a structural edit).
        self._latest: Optional[TreeArena] = None
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _adopt(self, arena: TreeArena) -> "ClockTree":
        """Take ``arena``'s columns as this empty tree's, as its first arena
        (``TreeArena.to_clock_tree``)."""
        self._size = arena.num_nodes
        self._columns = {name: getattr(arena, name) for name, _ in _ARRAYS}
        self._buffers = arena.buffers
        self._labels = arena.labels
        self._edges = arena.child_ids
        self._num_edges = len(arena.child_ids)
        self._root = arena.root
        self._shared = {name for name, _ in _ARRAYS} | set(_OBJECTS)
        self._arena = self._latest = arena
        self._csr = (arena.child_offsets, arena.child_ids)
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_sink(
        self,
        location: Point,
        sink_cap: float,
        group: Optional[int] = None,
        name: Optional[str] = None,
        sink_id: Optional[int] = None,
    ) -> int:
        """Add a sink (leaf) node and return its id.

        ``sink_id`` is the instance sink the node stands for; without a
        ``name`` the node is named ``sink-<sink_id>``.
        """
        if sink_cap < 0.0:
            raise ValueError("sink capacitance must be non-negative")
        if sink_id is not None and sink_id < 0:
            raise ValueError("sink ids must be non-negative")
        return self._add_row(
            SINK_KIND, location, sink_cap, group, name, -1 if sink_id is None else sink_id
        )

    def add_internal(
        self,
        children: List[int],
        edge_lengths: List[float],
        location: Optional[Point] = None,
        name: Optional[str] = None,
    ) -> int:
        """Add an internal merge node adopting ``children`` and return its id.

        ``edge_lengths[i]`` is the wire length from the new node down to
        ``children[i]``; it is stored on the child.
        """
        if len(children) != len(edge_lengths):
            raise ValueError("children and edge_lengths must have the same length")
        if not children:
            raise ValueError("an internal node needs at least one child")
        node_id = self._add_row(INTERNAL_KIND, location, 0.0, None, name)
        for child_id, length in zip(children, edge_lengths):
            self.attach(node_id, child_id, length)
        return node_id

    def add_source(
        self, location: Point, child: int, edge_length: float, name: str = "clk"
    ) -> int:
        """Add the clock source driving ``child`` and make it the tree root."""
        node_id = self._add_row(SOURCE_KIND, location, 0.0, None, name)
        self.attach(node_id, child, edge_length)
        self._root = node_id
        return node_id

    def attach(self, parent_id: int, child_id: int, edge_length: float) -> None:
        """Connect ``child_id`` under ``parent_id`` with the given wire length."""
        if edge_length < 0.0:
            raise ValueError("edge length must be non-negative")
        self._row(parent_id)
        child = self._row(child_id)
        if self._columns["parents"][child] >= 0:
            raise ValueError("node %d already has a parent" % child_id)
        self._writable("parents", "edge_lengths")
        self._columns["parents"][child] = parent_id
        self._columns["edge_lengths"][child] = edge_length
        self._edges = _room(self._edges, self._num_edges, 1)
        self._edges[self._num_edges] = child
        self._num_edges += 1
        self._structure_changed()

    def set_location(self, node_id: int, location: Optional[Point]) -> None:
        """Record the embedded location of a node (None: unplaced)."""
        row = self._row(node_id)
        self._writable("xs", "ys", "has_location")
        columns = self._columns
        if location is None:
            columns["xs"][row] = columns["ys"][row] = np.nan
        else:
            columns["xs"][row] = location.x
            columns["ys"][row] = location.y
        columns["has_location"][row] = location is not None

    def set_edge_length(self, node_id: int, edge_length: float) -> None:
        """Update the wire length between ``node_id`` and its parent."""
        if edge_length < 0.0:
            raise ValueError("edge length must be non-negative")
        row = self._row(node_id)
        self._writable("edge_lengths")
        self._columns["edge_lengths"][row] = edge_length

    def set_buffer(self, node_id: int, cell: Optional["BufferCell"]) -> None:
        """Place (or with ``None`` remove) a buffer cell at ``node_id``."""
        row = self._row(node_id)
        self._writable("buffers", "buffer_mask", "buffer_input_caps", "buffer_intrinsics",
                       "buffer_drive_res")
        columns = self._columns
        self._buffers[row] = cell
        columns["buffer_mask"][row] = cell is not None
        columns["buffer_input_caps"][row] = 0.0 if cell is None else cell.input_cap
        columns["buffer_intrinsics"][row] = 0.0 if cell is None else cell.intrinsic_delay
        columns["buffer_drive_res"][row] = 0.0 if cell is None else cell.drive_resistance

    def copy_subtree_from(self, other: "ClockTree", root_id: int) -> Dict[int, int]:
        """Graft a copy of ``other``'s subtree rooted at ``root_id`` into this tree.

        Every node below (and including) ``root_id`` is copied with a fresh
        contiguous id, in preorder; child order, locations, edge lengths, sink
        caps, groups, sink ids, labels and buffers are preserved exactly, so the copy is
        bit-identical to the source subtree.  The copied root arrives detached
        (no parent, edge length 0) ready to be adopted via :meth:`attach` or
        :meth:`add_internal` / :meth:`add_source`.

        The rows are one ``TreeArena.gather_subtrees`` slice of ``other``'s
        arena.  Returns the old-id -> new-id mapping.
        """
        other._row(root_id)
        sub, copied_from = other.as_arena().gather_subtrees([root_id])
        offset, count = self._size, sub.num_nodes
        self._grow(count)
        rows = slice(offset, offset + count)
        for name, _ in _ARRAYS:
            self._columns[name][rows] = getattr(sub, name)
        self._columns["parents"][rows] = np.where(sub.parents >= 0, sub.parents + offset, -1)
        self._writable(*_OBJECTS)
        self._buffers.extend(sub.buffers)
        self._labels.update((node + offset, label) for node, label in sub.labels.items())
        edges, used = sub.child_ids + offset, self._num_edges
        self._edges = _room(self._edges, used, len(edges))
        self._edges[used : used + len(edges)] = edges
        self._num_edges += len(edges)
        self._size += count
        self._structure_changed()
        return dict(zip(copied_from.tolist(), range(offset, offset + count)))

    def _add_row(self, kind: int, location, sink_cap: float, group, name, sink_id=-1) -> int:
        node_id = self._size
        self._grow(1)
        placed = location is not None
        row = dict(
            kinds=kind, parents=-1, edge_lengths=0.0, xs=location.x if placed else np.nan,
            ys=location.y if placed else np.nan, has_location=placed, sink_caps=sink_cap,
            groups=0 if group is None else group, has_group=group is not None,
            sink_ids=sink_id, buffer_mask=False, buffer_input_caps=0.0, buffer_intrinsics=0.0,
            buffer_drive_res=0.0,
        )
        for column, value in row.items():
            self._columns[column][node_id] = value
        self._writable(*_OBJECTS)
        self._buffers.append(None)
        if name is not None:
            self._labels[node_id] = name
        self._size += 1
        self._structure_changed()
        return node_id

    def _grow(self, count: int) -> None:
        """Room for ``count`` more rows in every column."""
        for name, _ in _ARRAYS:
            column = self._columns[name]
            self._columns[name] = _room(column, self._size, count)
            if self._columns[name] is not column:
                self._shared.discard(name)

    def _writable(self, *names: str) -> None:
        """Copy the named columns that a handed-out arena holds, before a write."""
        self._arena = None
        for name in self._shared.intersection(names):
            self._shared.discard(name)
            if name == "buffers":
                self._buffers = list(self._buffers)
            elif name == "labels":
                self._labels = dict(self._labels)
            else:
                self._columns[name] = self._columns[name].copy()

    def _structure_changed(self) -> None:
        self._arena = self._latest = self._csr = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def root_id(self) -> Optional[int]:
        """Id of the root (the clock source once the tree is finished)."""
        return None if self._root < 0 else self._root

    def _row(self, node_id: int) -> int:
        """``node_id`` as a row index (KeyError when absent)."""
        if node_id not in self:
            raise KeyError(node_id)
        return int(node_id)

    def _column(self, name: str) -> np.ndarray:
        return self._columns[name][: self._size]


    def _children(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(child_offsets, child_ids)``: the children in CSR form, attach order."""
        if self._csr is None:
            edges = self._edges[: self._num_edges]
            owners = self._columns["parents"][edges]
            order = np.argsort(owners, kind="stable")
            offsets = np.zeros(self._size + 1, dtype=np.int64)
            np.cumsum(np.bincount(owners, minlength=self._size), out=offsets[1:])
            self._csr = (offsets, edges[order])
        return self._csr

    def node(self, node_id: int) -> ClockNode:
        """The node with the given id (KeyError when absent)."""
        return ClockNode(self, self._row(node_id))

    def __contains__(self, node_id) -> bool:
        return isinstance(node_id, (int, np.integer)) and 0 <= node_id < self._size

    def __len__(self) -> int:
        return self._size

    def nodes(self) -> Iterator[ClockNode]:
        """All nodes, in id order."""
        return (ClockNode(self, i) for i in range(self._size))

    def sinks(self) -> List[ClockNode]:
        """All sink nodes, in id order."""
        sinks = np.flatnonzero(self._column("kinds") == SINK_KIND)
        return [ClockNode(self, i) for i in sinks.tolist()]

    def groups(self) -> List[int]:
        """Sorted list of distinct sink group ids present in the tree."""
        grouped = (self._column("kinds") == SINK_KIND) & self._column("has_group")
        return sorted(set(self._column("groups")[grouped].tolist()))

    def num_buffers(self) -> int:
        """Number of buffered nodes in the tree."""
        return int(np.count_nonzero(self._column("buffer_mask")))

    def root(self) -> ClockNode:
        """The root node (the clock source once the tree is finished)."""
        if self._root < 0:
            raise ValueError("the tree has no root yet")
        return ClockNode(self, self._root)

    def children_of(self, node_id: int) -> List[ClockNode]:
        return [ClockNode(self, c) for c in self.node(node_id).children]

    def topological_order(self) -> List[int]:
        """Node ids with every parent preceding its children (root first):
        the preorder of the root's tree, children in attach order."""
        root = self.root().node_id
        return self.as_arena().subtree_rows([root])[0].tolist()

    def reverse_topological_order(self) -> List[int]:
        """Node ids with every child preceding its parent (leaves first)."""
        return self.topological_order()[::-1]

    def path_to_root(self, node_id: int) -> List[int]:
        """Node ids from ``node_id`` up to (and including) the root."""
        parents = self._columns["parents"]
        path = [self._row(node_id)]
        parent = parents.item(path[0])
        while parent >= 0:
            path.append(parent)
            parent = parents.item(parent)
        return path

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def total_wirelength(self) -> float:
        """Sum of all edge lengths (snaking included), added in node order."""
        edges = self._column("parents") >= 0
        return sum(self._column("edge_lengths")[edges].tolist(), 0.0)

    def snaking_wirelength(self) -> float:
        """Total extra wire beyond the Manhattan distance of each embedded edge.

        Requires locations on both endpoints of every edge; edges without
        locations contribute zero.  Added in node order, one edge at a time.
        """
        columns = self._columns
        nodes = np.flatnonzero(self._column("parents") >= 0)
        parents = columns["parents"][nodes]
        placed = columns["has_location"][nodes] & columns["has_location"][parents]
        nodes, parents = nodes[placed], parents[placed]
        xs, ys = columns["xs"], columns["ys"]
        # |dx| + |dy| in manhattan_distance's operand order.
        distance = np.abs(xs[nodes] - xs[parents]) + np.abs(ys[nodes] - ys[parents])
        extra = 0.0  # one edge at a time like a walk; sum() may compensate
        for wire in np.maximum(columns["edge_lengths"][nodes] - distance, 0.0).tolist():
            extra += wire
        return extra

    def depth(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        self.root()
        arena = self.as_arena()
        reachable = arena.reachable_mask()
        return max(d for d, level in enumerate(arena.depth_levels()) if reachable[level].any())

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_arena(self) -> TreeArena:
        """The tree as a :class:`~repro.cts.arena.TreeArena` over its columns.

        The arena never changes afterwards: the tree copies a column before
        its next write to it.  Until the next edit every call returns the
        same arena, so repeated analysis passes over an unchanged tree share
        its memoised orders and Elmore pass; after setter edits alone the new
        arena shares the topology arrays and memoised orders of the last.
        Callers must treat the returned arena as read-only.
        """
        arena = self._arena
        if arena is None:
            columns = {name: self._column(name) for name, _ in _ARRAYS}
            columns.update(labels=self._labels, buffers=self._buffers, technology=self.technology)
            if self._latest is not None:
                del columns["kinds"], columns["parents"]
                arena = self._latest.with_attributes(**columns)
            else:
                offsets, child_ids = self._children()
                arena = TreeArena(root=self._root, child_offsets=offsets, child_ids=child_ids,
                                  **columns)
            self._shared = {name for name, _ in _ARRAYS} | set(_OBJECTS)
            self._arena = self._latest = arena
        return arena

    def to_networkx(self):
        """The tree as a ``networkx.DiGraph`` (edges point from parent to child)."""
        import networkx as nx

        graph = nx.DiGraph()
        for node in self.nodes():
            graph.add_node(
                node.node_id,
                kind=node.kind,
                group=node.group,
                sink_cap=node.sink_cap,
                location=None if node.location is None else (node.location.x, node.location.y),
            )
        for node in self.nodes():
            if node.parent is not None:
                graph.add_edge(node.parent, node.node_id, length=node.edge_length)
        return graph
