"""The object clock tree the column store replaced, kept as its oracle.

``repro.cts.tree.ClockTree`` stores a tree as growable columns and hands them
out as arenas; ``ClockNode`` is a read-only view of one row.  This module
keeps the form it replaced: one mutable :class:`Node` object per node, built,
edited and copied node by node (the preorder copy of ``copy_subtree_from``
included), with the walks over them.  :func:`arena_of` converts any tree
exposing ``nodes()``, ``root_id`` and ``technology`` -- a reference tree or
a column tree's node views -- into a ``TreeArena`` row by row, and
:func:`with_structure` rewires an arena's parents and children, which is how
tests corrupt a tree's structure.
``tests/test_cts_arena.py`` applies the same edits to both trees and asserts
equal arenas, node for node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.cts.arena import INTERNAL_KIND, SINK_KIND, SOURCE_KIND, TreeArena
from repro.delay.technology import DEFAULT_TECHNOLOGY, Technology
from repro.geometry.point import Point

__all__ = ["Node", "ReferenceTree", "arena_of", "label_of", "with_structure"]

_KIND_CODES = {"sink": SINK_KIND, "internal": INTERNAL_KIND, "source": SOURCE_KIND}


@dataclass
class Node:
    """A single node of an embedded clock tree."""

    node_id: int
    kind: str
    location: Optional[Point] = None
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)
    edge_length: float = 0.0
    sink_cap: float = 0.0
    group: Optional[int] = None
    label: Optional[str] = None
    buffer: Optional[object] = None
    sink_id: Optional[int] = None

    @property
    def name(self) -> Optional[str]:
        """The label, else ``sink-<id>`` when the node has a sink id."""
        if self.label is not None:
            return self.label
        return None if self.sink_id is None else "sink-%d" % self.sink_id

    @property
    def is_sink(self) -> bool:
        return self.kind == "sink"

    @property
    def is_source(self) -> bool:
        return self.kind == "source"

    @property
    def is_internal(self) -> bool:
        return self.kind == "internal"


class ReferenceTree:
    """``ClockTree``'s public construction, edit and walk API over objects."""

    def __init__(self, technology: Technology = DEFAULT_TECHNOLOGY) -> None:
        self.technology = technology
        self._nodes: Dict[int, Node] = {}
        self.root_id: Optional[int] = None

    def _add(self, kind: str, **fields) -> int:
        node_id = len(self._nodes)
        self._nodes[node_id] = Node(node_id, kind, **fields)
        return node_id

    def add_sink(self, location, sink_cap, group=None, name=None, sink_id=None) -> int:
        if sink_cap < 0.0:
            raise ValueError("sink capacitance must be non-negative")
        return self._add(
            "sink", location=location, sink_cap=sink_cap, group=group, label=name, sink_id=sink_id
        )

    def add_internal(self, children, edge_lengths, location=None, name=None) -> int:
        if len(children) != len(edge_lengths):
            raise ValueError("children and edge_lengths must have the same length")
        if not children:
            raise ValueError("an internal node needs at least one child")
        node_id = self._add("internal", location=location, label=name)
        for child_id, length in zip(children, edge_lengths):
            self.attach(node_id, child_id, length)
        return node_id

    def add_source(self, location, child, edge_length, name="clk") -> int:
        node_id = self._add("source", location=location, label=name)
        self.attach(node_id, child, edge_length)
        self.root_id = node_id
        return node_id

    def attach(self, parent_id: int, child_id: int, edge_length: float) -> None:
        if edge_length < 0.0:
            raise ValueError("edge length must be non-negative")
        parent = self.node(parent_id)
        child = self.node(child_id)
        if child.parent is not None:
            raise ValueError("node %d already has a parent" % child_id)
        parent.children.append(child_id)
        child.parent = parent_id
        child.edge_length = edge_length

    def set_location(self, node_id: int, location) -> None:
        self.node(node_id).location = location

    def set_edge_length(self, node_id: int, edge_length: float) -> None:
        if edge_length < 0.0:
            raise ValueError("edge length must be non-negative")
        self.node(node_id).edge_length = edge_length

    def set_buffer(self, node_id: int, cell) -> None:
        self.node(node_id).buffer = cell

    def copy_subtree_from(self, other, root_id: int) -> Dict[int, int]:
        """Copy ``other``'s subtree below ``root_id`` node by node, in
        preorder, the copied root detached; returns old id -> new id."""
        id_map: Dict[int, int] = {}
        stack = [root_id]
        while stack:  # preorder: every parent is copied before its children
            nid = stack.pop()
            node = other.node(nid)
            new_id = len(self._nodes)
            id_map[nid] = new_id
            parent = None if nid == root_id else id_map[node.parent]
            self._nodes[new_id] = Node(
                new_id,
                node.kind,
                node.location,
                parent,
                [],
                0.0 if parent is None else node.edge_length,
                node.sink_cap,
                node.group,
                label_of(node),
                node.buffer,
                node.sink_id,
            )
            if parent is not None:
                self._nodes[parent].children.append(new_id)
            stack.extend(reversed(node.children))
        return id_map

    @classmethod
    def of(cls, tree) -> "ReferenceTree":
        """A node-by-node copy of ``tree`` (anything exposing ``nodes()``)."""
        copy = cls(tree.technology)
        for node in tree.nodes():
            copy._nodes[node.node_id] = Node(
                node.node_id, node.kind, node.location, node.parent, list(node.children),
                node.edge_length, node.sink_cap, node.group, label_of(node), node.buffer,
                node.sink_id,
            )
        copy.root_id = tree.root_id
        return copy

    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def sinks(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.is_sink]

    def root(self) -> Node:
        if self.root_id is None:
            raise ValueError("the tree has no root yet")
        return self.node(self.root_id)

    def topological_order(self) -> List[int]:
        order: List[int] = []
        stack = [self.root().node_id]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(reversed(self.node(nid).children))
        return order

    def path_to_root(self, node_id: int) -> List[int]:
        path = [node_id]
        current = self.node(node_id)
        while current.parent is not None:
            path.append(current.parent)
            current = self.node(current.parent)
        return path

    def total_wirelength(self) -> float:
        return sum(n.edge_length for n in self._nodes.values() if n.parent is not None)

    def snaking_wirelength(self) -> float:
        extra = 0.0
        for node in self._nodes.values():
            if node.parent is None or node.location is None:
                continue
            parent = self.node(node.parent)
            if parent.location is None:
                continue
            extra += max(0.0, node.edge_length - node.location.distance_to(parent.location))
        return extra


def label_of(node) -> Optional[str]:
    """The name of ``node`` (a reference node or a column tree's view) that
    its sink id does not give: its label."""
    default = None if node.sink_id is None else "sink-%d" % node.sink_id
    return None if node.name == default else node.name


def arena_of(tree) -> TreeArena:
    """The arena of ``tree``'s nodes, converted row by row.  Requires
    contiguous node ids."""
    nodes = list(tree.nodes())
    for i, node in enumerate(nodes):
        assert node.node_id == i, "non-contiguous node ids"
    groups = [node.group for node in nodes]
    locations = [node.location for node in nodes]
    cells = [node.buffer for node in nodes]
    child_offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
    child_offsets[1:] = np.cumsum([len(node.children) for node in nodes])
    return TreeArena(
        kinds=np.array([_KIND_CODES[node.kind] for node in nodes], dtype=np.int8),
        parents=np.array(
            [-1 if node.parent is None else node.parent for node in nodes], dtype=np.int64
        ),
        edge_lengths=np.array([node.edge_length for node in nodes], dtype=np.float64),
        xs=np.array([np.nan if p is None else p.x for p in locations], dtype=np.float64),
        ys=np.array([np.nan if p is None else p.y for p in locations], dtype=np.float64),
        has_location=np.array([p is not None for p in locations], dtype=bool),
        sink_caps=np.array([node.sink_cap for node in nodes], dtype=np.float64),
        groups=np.array([0 if g is None else g for g in groups], dtype=np.int64),
        has_group=np.array([g is not None for g in groups], dtype=bool),
        sink_ids=np.array(
            [-1 if node.sink_id is None else node.sink_id for node in nodes], dtype=np.int64
        ),
        root=-1 if tree.root_id is None else tree.root_id,
        child_offsets=child_offsets,
        child_ids=np.array([child for node in nodes for child in node.children], dtype=np.int64),
        technology=tree.technology,
        labels={node.node_id: label_of(node) for node in nodes if label_of(node) is not None},
        buffers=cells,
        buffer_mask=np.array([c is not None for c in cells], dtype=bool),
        buffer_input_caps=np.array(
            [0.0 if c is None else c.input_cap for c in cells], dtype=np.float64
        ),
        buffer_intrinsics=np.array(
            [0.0 if c is None else c.intrinsic_delay for c in cells], dtype=np.float64
        ),
        buffer_drive_res=np.array(
            [0.0 if c is None else c.drive_resistance for c in cells], dtype=np.float64
        ),
    )


def with_structure(arena: TreeArena, parents, children) -> TreeArena:
    """``arena`` with new parent ids and child lists (in attach order): how
    tests corrupt a tree's structure, since node views are read-only."""
    offsets = np.zeros(len(children) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(ids) for ids in children])
    return replace(
        arena,
        parents=np.array(parents, dtype=np.int64),
        child_offsets=offsets,
        child_ids=np.array([c for ids in children for c in ids], dtype=np.int64),
    )
