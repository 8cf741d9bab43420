"""The optimization-pass contract and the shared per-run context.

An :class:`OptPass` is anything with a ``name`` and a ``run(ctx)`` method
returning a :class:`~repro.opt.report.PassOutcome`.  Passes are looked up in a
string-keyed registry (mirroring the router registry of :mod:`repro.api`), so
third-party passes plug into the :class:`~repro.opt.optimizer.Optimizer` and
the ``repro optimize`` CLI without touching library code.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.cts.arena import SINK_KIND
from repro.delay.elmore import SinkGroups, arena_elmore
from repro.delay.technology import Technology
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.opt.config import OptConfig
from repro.opt.report import PassOutcome

__all__ = [
    "OptContext",
    "TreeColumns",
    "OptPass",
    "register_pass",
    "unregister_pass",
    "get_pass",
    "available_passes",
]


class TreeColumns:
    """One arena's columns as Python lists, for a pass's per-node walks.

    Read once per pass (or polish step) from ``ctx.tree.as_arena()``.  A
    walk that edits edge lengths writes :attr:`lengths` as well as the tree
    (:meth:`set_length`), so it sees its own edits.
    """

    def __init__(self, tree) -> None:
        arena = self.arena = tree.as_arena()
        self.tree = tree
        #: The root's tree in preorder: every parent before its children.
        self.order: List[int] = arena.subtree_rows([arena.root])[0].tolist()
        self.parents: List[int] = arena.parents.tolist()
        self.is_sink: List[bool] = (arena.kinds == SINK_KIND).tolist()
        self.sink_caps: List[float] = arena.sink_caps.tolist()
        self.lengths: List[float] = arena.edge_lengths.tolist()
        self.buffers = arena.buffers
        self._offsets: List[int] = arena.child_offsets.tolist()
        self._child_ids: List[int] = arena.child_ids.tolist()

    def children(self, node_id: int) -> List[int]:
        """The children of ``node_id``, in attach order."""
        return self._child_ids[self._offsets[node_id] : self._offsets[node_id + 1]]

    def set_length(self, node_id: int, length: float) -> None:
        """Book ``length`` on the edge above ``node_id``, here and in the tree."""
        self.lengths[node_id] = length
        self.tree.set_edge_length(node_id, length)


class OptContext:
    """Everything a pass needs to inspect and mutate one routed tree.

    The context owns the expensive invariants: per-edge *required* lengths
    (the blockage-avoiding detour distance each booked length must cover) are
    cached and only recomputed when a pass reports geometry changes via
    :meth:`invalidate_geometry` or :meth:`nodes_moved`.

    Skew is scored on arrays: :meth:`elmore` runs one arena Elmore pass per
    tree snapshot, and :attr:`sink_groups`, fixed here since no pass adds or
    removes nodes, reduces its delays to per-group ranges.  The passes edit
    the tree through its setters only and read it as columns (``TreeColumns``).
    """

    def __init__(
        self,
        tree,
        config: OptConfig,
        bound_for: Callable[[int], float],
        obstacles: Optional[ObstacleSet] = None,
        loci: Optional[np.ndarray] = None,
        single_group: bool = False,
    ) -> None:
        if obstacles is not None and not obstacles:
            obstacles = None
        self.tree = tree
        self.config = config
        self.bound_for = bound_for
        self.obstacles = obstacles
        #: Placement locus rows by node id (``RoutingResult.loci``); a node
        #: with a NaN row or an id past the rows has no locus.
        self.loci = np.empty((0, 4)) if loci is None else loci
        #: When the routing ignored the instance's grouping (the EXT-BST /
        #: greedy-DME baselines), the repair must too: sink nodes still carry
        #: their original group ids for reporting, but the bound spans all of
        #: them.
        self.single_group = single_group
        self.technology: Technology = tree.technology
        self._required: Optional[Dict[int, float]] = None
        self._required_columns: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._locations: Optional[List[Optional[Point]]] = None
        #: The sinks by :meth:`group_of`; its key order is the order of
        #: :meth:`group_spreads`.
        self.sink_groups = SinkGroups.of(tree.as_arena(), single_group)
        groups = np.zeros(len(tree), dtype=np.int64)
        keys = np.asarray(self.sink_groups.keys, dtype=np.int64)
        groups[self.sink_groups.sink_ids] = keys[self.sink_groups.slots]
        #: :meth:`group_of` of every node, by node id (0 off the sinks).
        self.node_groups: List[int] = groups.tolist()
        #: Absolute cap on *net* wire growth (set by the Optimizer from
        #: ``config.max_added_wire_fraction``); ``math.inf`` when unlimited.
        self.wire_budget: float = float("inf")
        #: Net wire added so far (trims credit it back).
        self.wire_net_added: float = 0.0

    def budget_left(self) -> float:
        """Remaining net wire the optimizer may still add."""
        return self.wire_budget - self.wire_net_added

    def spend_wire(self, delta: float) -> None:
        """Record a booked-length change (positive extension, negative trim)."""
        self.wire_net_added += delta

    # ------------------------------------------------------------------
    # Delay / skew helpers
    # ------------------------------------------------------------------
    def elmore(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(seen_caps, delays)`` of the current tree, indexed by node id.

        :func:`~repro.delay.elmore.arena_elmore` of the current snapshot,
        which runs once per snapshot: the result is reused until a mutation
        produces a new one.  The arrays are shared and read-only.
        """
        return arena_elmore(self.tree.as_arena())

    def group_of(self, node) -> int:
        """The group ``node``'s bound comes from: its own, 0 when it has none
        or the repair runs as one group."""
        return self.node_groups[node.node_id]

    def group_spreads(self, delays: Optional[np.ndarray] = None) -> Dict[int, float]:
        """Per-group intra-group skew (hi - lo sink delay), internal units.

        ``delays`` is a node-indexed delay array (default: the current
        tree's, from :meth:`elmore`).  Groups come back in first-occurrence
        order over the sinks.
        """
        if delays is None:
            delays = self.elmore()[1]
        lo, hi = self.sink_groups.ranges(delays)
        return dict(zip(self.sink_groups.keys, (hi - lo).tolist()))

    def skew_violations(self, delays: Optional[np.ndarray] = None) -> int:
        """Number of groups whose intra-group skew exceeds the bound."""
        return int(self.skew_scores(delays)[0])

    def worst_excess(self, delays: Optional[np.ndarray] = None) -> float:
        """Largest per-group skew excess over its bound (<= 0 when repaired)."""
        return float(self.skew_scores(delays)[1])

    def skew_scores(self, delays: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`skew_violations` and :meth:`worst_excess` at once; for an
        ``(n, K)`` matrix of delay columns, one of each per column.  The
        excess is 0 when there is no group."""
        if delays is None:
            delays = self.elmore()[1]
        lo, hi = self.sink_groups.ranges(delays)
        spreads = hi - lo
        bounds = np.array([self.bound_for(g) for g in self.sink_groups.keys])
        bounds = bounds.reshape(bounds.shape + (1,) * (spreads.ndim - 1))
        violations = np.count_nonzero(spreads > bounds + 1e-9, axis=0)
        if not len(bounds):
            return violations, np.zeros(delays.shape[1:])
        return violations, (spreads - bounds).max(axis=0)

    def cap_violations(self) -> int:
        """Nodes whose driver-seen capacitance exceeds ``config.max_cap``.

        The seen cap is the decoupled subtree capacitance -- what the wire
        into the node (or the source) actually drives, with buffered subtrees
        replaced by the buffer input cap.  Zero when no cap limit is set, so
        buffer-free optimization keeps its historical quality ordering.
        """
        max_cap = self.config.max_cap
        if max_cap is None:
            return 0
        seen = self.elmore()[0][self.tree.as_arena().reachable_mask()]
        return int(np.count_nonzero(seen > max_cap + 1e-9))

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def locations(self) -> List[Optional[Point]]:
        """Every node's embedded location (None when unplaced), by node id;
        cached, like :meth:`required_lengths`, until a pass moves a node."""
        if self._locations is None:
            arena = self.tree.as_arena()
            self._locations = [
                Point(x, y) if placed else None
                for x, y, placed in zip(
                    arena.xs.tolist(), arena.ys.tolist(), arena.has_location.tolist()
                )
            ]
        return self._locations

    def required_lengths(self) -> Dict[int, float]:
        """Minimum legal booked length of every embedded edge, keyed by child
        id in id order: the blockage-avoiding detour distance between the
        endpoints (plain Manhattan distance without obstacles).  Cached until
        a pass moves a node.
        """
        if self._required is None:
            arena = self.tree.as_arena()
            children = np.flatnonzero(arena.parents >= 0)
            parents = arena.parents[children]
            placed = arena.has_location[children] & arena.has_location[parents]
            children, parents = children[placed], parents[placed]
            if self.obstacles is None:
                # Point.distance_to from the parent, operand for operand.
                distance = np.abs(arena.xs[parents] - arena.xs[children]) + np.abs(
                    arena.ys[parents] - arena.ys[children]
                )
                self._required = dict(zip(children.tolist(), distance.tolist()))
            else:
                points = self.locations()
                detour = self.obstacles.detour_distance
                self._required = {
                    child: detour(points[parent], points[child])
                    for child, parent in zip(children.tolist(), parents.tolist())
                }
        return self._required

    def required_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`required_lengths` by node id: ``(has, lengths)``, where
        ``has[v]`` says whether the edge above ``v`` has a required length
        and ``lengths[v]`` is it (0 elsewhere).  Cached alongside it."""
        if self._required_columns is None:
            required = self.required_lengths()
            ids = np.fromiter(required.keys(), dtype=np.int64, count=len(required))
            has = np.zeros(len(self.tree), dtype=bool)
            lengths = np.zeros(len(self.tree), dtype=np.float64)
            has[ids] = True
            lengths[ids] = np.fromiter(required.values(), dtype=np.float64, count=len(required))
            self._required_columns = (has, lengths)
        return self._required_columns

    def invalidate_geometry(self) -> None:
        """Drop cached geometry after a pass moved embedded nodes."""
        self._required = None
        self._required_columns = None
        self._locations = None

    def nodes_moved(self, node_ids: Iterable[int]) -> None:
        """Bring cached geometry up to date after a pass moved ``node_ids``.

        The same as :meth:`invalidate_geometry` followed by a recompute, for
        less: only the moved nodes' locations and the required lengths of the
        edges that touch them are recomputed, in child-id order, so the
        detours the obstacle set computes (and the order it memoises them
        in) are those of a full recompute.  A node that was placed or
        unplaced adds or drops edges, so that drops the caches instead.
        """
        arena = self.tree.as_arena()
        moved = sorted(set(node_ids))
        if self._locations is not None:
            for node in moved:
                placed = arena.has_location.item(node)
                self._locations[node] = (
                    Point(arena.xs.item(node), arena.ys.item(node)) if placed else None
                )
        if self._required is None:
            return
        kids = arena.children_of(np.asarray(moved, dtype=np.int64))[0]
        points = self.locations()
        edges = []
        for child in sorted(set(moved).union(kids.tolist())):
            parent = arena.parents.item(child)
            if parent < 0:
                continue
            placed = points[child] is not None and points[parent] is not None
            if placed != (child in self._required):
                self.invalidate_geometry()
                return
            if placed:
                edges.append((child, parent))
        for child, parent in edges:
            if self.obstacles is None:
                required = points[parent].distance_to(points[child])
            else:
                required = self.obstacles.detour_distance(points[parent], points[child])
            self._required[child] = required
        self._required_columns = None

    def required_total(self) -> float:
        """Sum of every edge's minimum legal booked length.

        The geometric floor of the tree's wirelength: re-embedding lowers it
        by shrinking blockage detours, which is what turns forced-detour wire
        into slack the other passes can trim.
        """
        return sum(self.required_lengths().values())


@runtime_checkable
class OptPass(Protocol):
    """One tree-optimization pass.

    ``run`` mutates ``ctx.tree`` (and possibly node locations) in place and
    returns a :class:`PassOutcome` describing what changed.  A pass that moves
    nodes must call ``ctx.invalidate_geometry()`` or name them to
    ``ctx.nodes_moved()``.
    """

    name: str

    def run(self, ctx: OptContext, iteration: int) -> PassOutcome:  # pragma: no cover
        ...


# ----------------------------------------------------------------------
# Pass registry
# ----------------------------------------------------------------------
PassFactory = Callable[[], OptPass]

_REGISTRY: Dict[str, Tuple[PassFactory, str]] = {}


def register_pass(name: str, factory: PassFactory, description: str = "",
                  overwrite: bool = False) -> None:
    """Register an optimization pass factory under ``name``."""
    if not name:
        raise ValueError("pass name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ValueError(
            "pass %r is already registered (pass overwrite=True to replace it)" % name
        )
    _REGISTRY[name] = (factory, description)


def unregister_pass(name: str) -> None:
    """Remove a registration (KeyError when absent); mainly for tests/plugins."""
    if name not in _REGISTRY:
        raise KeyError(
            "unknown optimization pass %r; available: %s"
            % (name, ", ".join(available_passes()))
        )
    del _REGISTRY[name]


def get_pass(name: str) -> OptPass:
    """Construct the registered pass (KeyError lists the known names)."""
    try:
        factory, _ = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown optimization pass %r; available: %s"
            % (name, ", ".join(available_passes()))
        ) from None
    return factory()


def available_passes() -> List[str]:
    """Sorted names of every registered optimization pass."""
    return sorted(_REGISTRY)
