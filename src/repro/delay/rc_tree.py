"""An explicit RC-tree evaluator used as an independent verification oracle.

The paper cross-checks its Elmore-based skews against SPICE (Chapter III); we
do not have SPICE, so the closest faithful substitute is an independent
re-derivation of the delays from first principles: each clock-tree edge is
expanded into a chain of lumped RC segments (a discretised distributed line)
and the Elmore delay of every node is computed as the classic sum
``sum_k R_k * C_downstream(k)`` over the resistors on the source-to-node path.

For the Elmore metric the discretisation is exact for any segment count, so
the oracle must agree with :mod:`repro.delay.elmore` to numerical precision --
which validation, the optimizer's ``verify_oracle`` and the test-suite assert.
:func:`oracle_delays` expands a tree's edges as array passes and never calls
the Elmore engine or its closed form ``r L (c L / 2 + C)``.  :class:`RcTree`
builds such a network node by node in plain dictionaries; only its
:meth:`RcTree.graph` export imports ``networkx``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.delay.technology import DEFAULT_TECHNOLOGY, Technology

__all__ = ["RcTree", "arena_oracle_delays", "oracle_delays"]


class RcTree:
    """A lumped RC tree built node by node.

    Nodes are identified by arbitrary hashable keys.  Each node carries a
    grounded capacitance; each edge carries a resistance.  The tree is rooted
    at the driver node, which may also have a source resistance in front of it.
    """

    def __init__(self, root, technology: Technology = DEFAULT_TECHNOLOGY) -> None:
        self._root = root
        self._technology = technology
        self._caps: Dict[object, float] = {root: 0.0}
        self._parent: Dict[object, object] = {}
        self._children: Dict[object, List[object]] = {root: []}
        self._resistance: Dict[object, float] = {}
        self._graph_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node, parent, resistance: float, cap: float = 0.0) -> None:
        """Attach ``node`` below ``parent`` through ``resistance`` ohms."""
        if node in self._caps:
            raise ValueError("node %r already exists" % (node,))
        if parent not in self._caps:
            raise ValueError("parent %r does not exist" % (parent,))
        if resistance < 0.0 or cap < 0.0:
            raise ValueError("resistance and capacitance must be non-negative")
        self._caps[node] = cap
        self._children[node] = []
        self._children[parent].append(node)
        self._parent[node] = parent
        self._resistance[node] = resistance
        self._graph_cache = None

    def add_cap(self, node, cap: float) -> None:
        """Add grounded capacitance to an existing node."""
        if cap < 0.0:
            raise ValueError("capacitance must be non-negative")
        self._caps[node] += cap
        self._graph_cache = None

    def add_wire(self, node, parent, length: float, segments: int = 4) -> None:
        """Attach ``node`` below ``parent`` through a wire of ``length`` micrometres.

        The wire is discretised into ``segments`` lumped RC sections; the final
        section lands on ``node`` itself so that the caller can then add the
        node's own load capacitance with :meth:`add_cap`.
        """
        if segments < 1:
            raise ValueError("a wire needs at least one segment")
        if length < 0.0:
            raise ValueError("wire length must be non-negative")
        tech = self._technology
        seg_len = length / segments
        seg_res = tech.unit_resistance * seg_len
        seg_cap = tech.unit_capacitance * seg_len
        previous = parent
        for index in range(segments):
            current = node if index == segments - 1 else ("__wire__", node, index)
            self.add_node(current, previous, seg_res, cap=0.0)
            # Pi model: half of the segment capacitance at each end.
            self.add_cap(previous, seg_cap / 2.0)
            self.add_cap(current, seg_cap / 2.0)
            previous = current

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _topological_order(self) -> List[object]:
        """Every node with parents before children (root first)."""
        order: List[object] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(self._children[node]))
        return order

    def total_capacitance(self) -> float:
        """Sum of every grounded capacitance in the network."""
        return sum(self._caps.values())

    def downstream_capacitances(self) -> Dict[object, float]:
        """Capacitance of the subtree rooted at every node (node cap included)."""
        caps: Dict[object, float] = {}
        for node in reversed(self._topological_order()):
            total = self._caps[node]
            for child in self._children[node]:
                total += caps[child]
            caps[node] = total
        return caps

    def elmore_delays(self) -> Dict[object, float]:
        """Elmore delay from the driver to every node of the network."""
        caps = self.downstream_capacitances()
        delays: Dict[object, float] = {}
        source_term = self._technology.source_resistance * caps[self._root]
        delays[self._root] = source_term
        resistance = self._resistance
        parent = self._parent
        for node in self._topological_order():
            if node == self._root:
                continue
            delays[node] = delays[parent[node]] + resistance[node] * caps[node]
        return delays

    def delay_to(self, node) -> float:
        """Elmore delay from the driver to a single node."""
        return self.elmore_delays()[node]

    # ------------------------------------------------------------------
    # Conversion from an embedded clock tree
    # ------------------------------------------------------------------
    @classmethod
    def from_clock_tree(cls, tree, segments_per_edge: int = 4) -> "RcTree":
        """Expand an embedded :class:`~repro.cts.tree.ClockTree` into an RC network.

        Sink capacitances become grounded caps on the corresponding leaf nodes;
        each edge becomes a discretised distributed line.  Node keys reuse the
        clock-tree node ids so that delays can be compared directly.  Read
        from the columns of one ``tree.as_arena()``, in topological order.

        A single RC network cannot model buffer isolation, so buffered trees
        are rejected; use :func:`oracle_delays`, which composes one network
        per buffer stage.
        """
        arena = tree.as_arena()
        if arena.has_buffers():
            raise ValueError(
                "tree contains buffers; a single RC network cannot model "
                "buffer isolation -- use repro.delay.rc_tree.oracle_delays"
            )
        root = arena.root
        if root < 0:
            raise ValueError("the tree has no root yet")
        caps, lengths = arena.sink_caps.tolist(), arena.edge_lengths.tolist()
        offsets, child_ids = arena.child_offsets.tolist(), arena.child_ids.tolist()
        rc = cls(root, technology=tree.technology)
        rc.add_cap(root, caps[root])
        # Parents before children, each node's children in attach order.
        for node_id in arena.subtree_rows([root])[0].tolist():
            for child in child_ids[offsets[node_id] : offsets[node_id + 1]]:
                rc.add_wire(child, node_id, lengths[child], segments_per_edge)
                rc.add_cap(child, caps[child])
        return rc

    def graph(self):
        """The network as a ``networkx.DiGraph`` (parents point to children).

        Built on demand for analysis/report consumers and cached until the
        next mutation; construction and delay evaluation never touch it.
        """
        if self._graph_cache is None:
            import networkx as nx

            graph = nx.DiGraph()
            for node, cap in self._caps.items():
                graph.add_node(node, cap=cap)
            for node, parent in self._parent.items():
                graph.add_edge(parent, node, resistance=self._resistance[node])
            self._graph_cache = graph
        return self._graph_cache

    @property
    def root(self):
        return self._root


def oracle_delays(tree, segments_per_edge: int = 4) -> Dict[int, float]:
    """Independent RC re-derivation of the Elmore delay of every node reachable
    from the root: :func:`arena_oracle_delays` over ``tree.as_arena()``."""
    if tree.root_id is None:
        raise ValueError("the tree has no root yet")  # the engine's error
    arena = tree.as_arena()
    ids = np.flatnonzero(arena.reachable_mask())
    return dict(zip(ids.tolist(), arena_oracle_delays(arena, segments_per_edge)[ids].tolist()))


def arena_oracle_delays(arena, segments_per_edge: int = 4) -> np.ndarray:
    """Node-indexed delays of a :class:`TreeArena` from its segmented RC network.

    Each edge becomes ``segments_per_edge`` sections of resistance ``r L / S``
    with half of ``c L / S`` at either end, as in :meth:`RcTree.add_wire`.
    Bottom-up over height levels, each edge's load grows one section at a
    time and its delay sums ``R_k * C_downstream(k)``; top-down over depth
    levels, the edge delays add up from the root.  A buffered node is a leaf
    of its parent stage carrying the cell's input cap, its delay is the
    arrival at that pin (a buffered root's pin is driven by the source
    resistance), and every node below adds ``intrinsic + drive * C_stage``.
    """
    if segments_per_edge < 1:
        raise ValueError("a wire needs at least one segment")
    tech = arena.technology
    lengths = np.where(arena.parents >= 0, arena.edge_lengths, 0.0) / segments_per_edge
    section_res = tech.unit_resistance * lengths
    section_cap = tech.unit_capacitance * lengths
    buffered = arena.buffer_mask
    stage_load = np.zeros(arena.num_nodes)  # own cap plus the child wires' loads
    pin_load = np.zeros(arena.num_nodes)  # a buffer's input cap, else stage_load
    presented = np.zeros(arena.num_nodes)  # a node's wire and load, seen from its parent
    edge_delay = np.zeros(arena.num_nodes)
    for level in arena.height_levels():
        children, at = arena.children_of(level)
        below = np.bincount(at, weights=presented[children], minlength=len(level))
        stage_load[level] = arena.sink_caps[level] + below
        pin_load[level] = np.where(
            buffered[level], arena.buffer_input_caps[level], stage_load[level]
        )
        down = section_cap[level] / 2.0 + pin_load[level]  # the last section ends on the node
        drop = section_res[level] * down
        for _ in range(segments_per_edge - 1):
            down = down + section_cap[level]
            drop = drop + section_res[level] * down
        presented[level] = down + section_cap[level] / 2.0
        edge_delay[level] = drop
    stage_delay = np.where(
        buffered, arena.buffer_intrinsics + arena.buffer_drive_res * stage_load, 0.0
    )
    delays = tech.source_resistance * pin_load  # kept at the roots only
    for level in arena.depth_levels()[1:]:
        parents = arena.parents[level]
        delays[level] = delays[parents] + stage_delay[parents] + edge_delay[level]
    return delays
