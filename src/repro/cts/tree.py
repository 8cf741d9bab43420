"""The embedded clock tree produced by the routers.

A :class:`ClockTree` is a rooted tree whose leaves are clock sinks and whose
root is the clock source.  Every node other than the root carries the length
of the wire connecting it to its parent; the length may exceed the Manhattan
distance between the endpoints when the router snaked the wire to balance
delays.  Wirelength, delays and skew reports are all derived from this
structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set

from repro.delay.technology import DEFAULT_TECHNOLOGY, Technology
from repro.geometry.point import Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delay.buffer import BufferCell

__all__ = ["ClockNode", "ClockTree"]

#: Node kinds.
SOURCE = "source"
INTERNAL = "internal"
SINK = "sink"


@dataclass
class ClockNode:
    """A single node of an embedded clock tree."""

    node_id: int
    kind: str
    location: Optional[Point] = None
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)
    edge_length: float = 0.0
    sink_cap: float = 0.0
    group: Optional[int] = None
    name: Optional[str] = None
    #: Buffer cell driving this node's subtree (None = unbuffered).  A buffered
    #: node presents only the cell's input cap upstream and adds the cell's
    #: stage delay in front of everything below it; see repro.delay.buffer.
    buffer: Optional["BufferCell"] = None

    @property
    def is_sink(self) -> bool:
        return self.kind == SINK

    @property
    def is_source(self) -> bool:
        return self.kind == SOURCE

    @property
    def is_internal(self) -> bool:
        return self.kind == INTERNAL


class ClockTree:
    """A rooted, embedded clock routing tree.

    The tree is built incrementally by the routers: sinks first, then internal
    merge nodes bottom-up, and finally a source node adopting the last
    remaining subtree root.  Locations may be filled in later by the top-down
    embedding pass; wirelength is always derived from the stored edge lengths
    (which include snaking), never from the geometry.
    """

    def __init__(self, technology: Technology = DEFAULT_TECHNOLOGY) -> None:
        self.technology = technology
        self._nodes: Dict[int, ClockNode] = {}
        self._next_id = 0
        self.root_id: Optional[int] = None
        # Arena snapshot cache.  Structural edits drop it; the attribute
        # setters record their node id in _stale_rows, and the next
        # as_arena() re-reads only those rows (see TreeArena.refreshed).
        self._arena = None
        self._stale_rows: Set[int] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_sink(
        self,
        location: Point,
        sink_cap: float,
        group: Optional[int] = None,
        name: Optional[str] = None,
    ) -> int:
        """Add a sink (leaf) node and return its id."""
        if sink_cap < 0.0:
            raise ValueError("sink capacitance must be non-negative")
        return self._add_node(
            ClockNode(
                node_id=self._next_id,
                kind=SINK,
                location=location,
                sink_cap=sink_cap,
                group=group,
                name=name,
            )
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
        node_id = self._add_node(
            ClockNode(node_id=self._next_id, kind=INTERNAL, location=location, name=name)
        )
        for child_id, length in zip(children, edge_lengths):
            self.attach(node_id, child_id, length)
        return node_id

    def add_source(
        self, location: Point, child: int, edge_length: float, name: str = "clk"
    ) -> int:
        """Add the clock source driving ``child`` and make it the tree root."""
        node_id = self._add_node(
            ClockNode(node_id=self._next_id, kind=SOURCE, location=location, name=name)
        )
        self.attach(node_id, child, edge_length)
        self.root_id = node_id
        return node_id

    def attach(self, parent_id: int, child_id: int, edge_length: float) -> None:
        """Connect ``child_id`` under ``parent_id`` with the given wire length."""
        if edge_length < 0.0:
            raise ValueError("edge length must be non-negative")
        parent = self.node(parent_id)
        child = self.node(child_id)
        if child.parent is not None:
            raise ValueError("node %d already has a parent" % child_id)
        parent.children.append(child_id)
        child.parent = parent_id
        child.edge_length = edge_length
        self._arena = None

    def set_location(self, node_id: int, location: Point) -> None:
        """Record the embedded location of a node."""
        self.node(node_id).location = location
        if self._arena is not None:
            self._stale_rows.add(node_id)

    def set_edge_length(self, node_id: int, edge_length: float) -> None:
        """Update the wire length between ``node_id`` and its parent."""
        if edge_length < 0.0:
            raise ValueError("edge length must be non-negative")
        self.node(node_id).edge_length = edge_length
        if self._arena is not None:
            self._stale_rows.add(node_id)

    def set_buffer(self, node_id: int, cell: Optional["BufferCell"]) -> None:
        """Place (or with ``None`` remove) a buffer cell at ``node_id``."""
        self.node(node_id).buffer = cell
        if self._arena is not None:
            self._stale_rows.add(node_id)

    def copy_subtree_from(self, other: "ClockTree", root_id: int) -> Dict[int, int]:
        """Graft a copy of ``other``'s subtree rooted at ``root_id`` into this tree.

        Every node below (and including) ``root_id`` is copied with a fresh
        contiguous id; child order, locations, edge lengths, sink caps, groups
        and names are preserved exactly, so the copy is bit-identical to the
        source subtree.  The copied root arrives detached (no parent, edge
        length 0) ready to be adopted via :meth:`attach` or
        :meth:`add_internal` / :meth:`add_source`.

        Returns the old-id -> new-id mapping.
        """
        # Grafting is on the ECO hot path (it copies every clean node), so
        # the traversal stays a tight preorder loop over the raw node dicts.
        src = other._nodes
        dst = self._nodes
        next_id = self._next_id
        id_map: Dict[int, int] = {}
        stack = [root_id]
        while stack:  # preorder: every parent is copied before its children
            nid = stack.pop()
            node = src[nid]
            new_id = next_id
            next_id += 1
            id_map[nid] = new_id
            if nid == root_id:
                parent = None
                edge_length = 0.0
            else:
                parent = id_map[node.parent]
                edge_length = node.edge_length
            # Positional construction: measurably cheaper than keywords on
            # a 10k+-node graft and the field order is part of the dataclass.
            dst[new_id] = ClockNode(
                new_id,
                node.kind,
                node.location,
                parent,
                [],
                edge_length,
                node.sink_cap,
                node.group,
                node.name,
                node.buffer,
            )
            if parent is not None:
                dst[parent].children.append(new_id)
            children = node.children
            if children:
                stack.extend(children[::-1])
        self._next_id = next_id
        self._arena = None
        return id_map

    def mark_mutated(self) -> None:
        """Invalidate cached derived views after direct node mutations.

        Everything in this library edits nodes through the methods above.
        Code that writes ``ClockNode`` fields in place instead must call this
        once afterwards, or the cached arena snapshot -- and everything
        computed from it, such as the array Elmore engine -- keeps serving
        the pre-mutation tree.  The next :meth:`as_arena` rebuilds in full.
        """
        self._arena = None

    def _add_node(self, node: ClockNode) -> int:
        self._nodes[node.node_id] = node
        self._next_id += 1
        self._arena = None
        return node.node_id

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> ClockNode:
        """The node with the given id (KeyError when absent)."""
        return self._nodes[node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[ClockNode]:
        """All nodes, in insertion order."""
        return iter(self._nodes.values())

    def sinks(self) -> List[ClockNode]:
        """All sink nodes, in insertion order."""
        return [n for n in self._nodes.values() if n.is_sink]

    def groups(self) -> List[int]:
        """Sorted list of distinct sink group ids present in the tree."""
        return sorted({n.group for n in self.sinks() if n.group is not None})

    def buffered_nodes(self) -> List[ClockNode]:
        """All nodes carrying a buffer cell, in insertion order."""
        return [n for n in self._nodes.values() if n.buffer is not None]

    def num_buffers(self) -> int:
        """Number of buffered nodes in the tree."""
        return sum(1 for n in self._nodes.values() if n.buffer is not None)

    def root(self) -> ClockNode:
        """The root node (the clock source once the tree is finished)."""
        if self.root_id is None:
            raise ValueError("the tree has no root yet")
        return self.node(self.root_id)

    def children_of(self, node_id: int) -> List[ClockNode]:
        return [self.node(c) for c in self.node(node_id).children]

    def topological_order(self) -> List[int]:
        """Node ids with every parent preceding its children (root first)."""
        order: List[int] = []
        stack = [self.root().node_id]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(reversed(self.node(nid).children))
        return order

    def reverse_topological_order(self) -> List[int]:
        """Node ids with every child preceding its parent (leaves first)."""
        return list(reversed(self.topological_order()))

    def path_to_root(self, node_id: int) -> List[int]:
        """Node ids from ``node_id`` up to (and including) the root."""
        path = [node_id]
        current = self.node(node_id)
        while current.parent is not None:
            path.append(current.parent)
            current = self.node(current.parent)
        return path

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def total_wirelength(self) -> float:
        """Sum of all edge lengths (snaking included)."""
        return sum(n.edge_length for n in self._nodes.values() if n.parent is not None)

    def snaking_wirelength(self) -> float:
        """Total extra wire beyond the Manhattan distance of each embedded edge.

        Requires locations on both endpoints of every edge; edges without
        locations contribute zero.
        """
        extra = 0.0
        for node in self._nodes.values():
            if node.parent is None or node.location is None:
                continue
            parent = self.node(node.parent)
            if parent.location is None:
                continue
            extra += max(0.0, node.edge_length - node.location.distance_to(parent.location))
        return extra

    def depth(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        depths = {self.root().node_id: 0}
        deepest = 0
        for nid in self.topological_order():
            d = depths[nid]
            deepest = max(deepest, d)
            for child in self.node(nid).children:
                depths[child] = d + 1
        return deepest

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_arena(self):
        """A struct-of-arrays snapshot of this tree (see repro.cts.arena).

        The snapshot is cached and reused until the next mutation, so
        repeated analysis passes over an unchanged tree pay the conversion
        once.  After structural edits (node addition, :meth:`attach`,
        :meth:`copy_subtree_from`) and :meth:`mark_mutated` the snapshot is
        rebuilt in full; after :meth:`set_location`, :meth:`set_edge_length`
        and :meth:`set_buffer` only the rows those setters touched are
        re-read.  Either way a new arena is returned and every snapshot
        handed out earlier stays as it was.  Callers must treat the returned
        arena as read-only.
        """
        arena = self._arena
        if arena is None:
            from repro.cts.arena import TreeArena

            arena = self._arena = TreeArena.from_clock_tree(self)
        elif self._stale_rows:
            arena = self._arena = arena.refreshed(self, self._stale_rows)
        self._stale_rows.clear()
        return arena

    def to_networkx(self):
        """The tree as a ``networkx.DiGraph`` (edges point from parent to child)."""
        import networkx as nx

        graph = nx.DiGraph()
        for node in self._nodes.values():
            graph.add_node(
                node.node_id,
                kind=node.kind,
                group=node.group,
                sink_cap=node.sink_cap,
                location=None if node.location is None else (node.location.x, node.location.y),
            )
        for node in self._nodes.values():
            if node.parent is not None:
                graph.add_edge(node.parent, node.node_id, length=node.edge_length)
        return graph
