"""The optimization-pass contract and the shared per-run context.

An :class:`OptPass` is anything with a ``name`` and a ``run(ctx)`` method
returning a :class:`~repro.opt.report.PassOutcome`.  Passes are looked up in a
string-keyed registry (mirroring the router registry of :mod:`repro.api`), so
third-party passes plug into the :class:`~repro.opt.optimizer.Optimizer` and
the ``repro optimize`` CLI without touching library code.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.delay.elmore import arena_elmore, sink_delays, subtree_capacitances
from repro.delay.technology import Technology
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.trr import Trr
from repro.opt.config import OptConfig
from repro.opt.report import PassOutcome

__all__ = [
    "OptContext",
    "OptPass",
    "register_pass",
    "unregister_pass",
    "get_pass",
    "available_passes",
]


class OptContext:
    """Everything a pass needs to inspect and mutate one routed tree.

    The context owns the expensive invariants: per-edge *required* lengths
    (the blockage-avoiding detour distance each booked length must cover) are
    cached and only recomputed when a pass reports geometry changes via
    :meth:`invalidate_geometry`.

    Skew is scored on arrays: :meth:`elmore` runs one arena Elmore pass per
    tree snapshot, and the per-group spreads reduce over sink ids and group
    indices fixed here, since no pass adds or removes sinks.
    """

    def __init__(
        self,
        tree,
        config: OptConfig,
        bound_for: Callable[[int], float],
        obstacles: Optional[ObstacleSet] = None,
        loci: Optional[Dict[int, Trr]] = None,
        single_group: bool = False,
    ) -> None:
        if obstacles is not None and not obstacles:
            obstacles = None
        self.tree = tree
        self.config = config
        self.bound_for = bound_for
        self.obstacles = obstacles
        self.loci = loci or {}
        #: When the routing ignored the instance's grouping (the EXT-BST /
        #: greedy-DME baselines), the repair must too: sink nodes still carry
        #: their original group ids for reporting, but the bound spans all of
        #: them.
        self.single_group = single_group
        self.technology: Technology = tree.technology
        self._required: Optional[Dict[int, float]] = None
        sinks = tree.sinks()
        groups = [self.group_of(sink) for sink in sinks]
        #: Group ids in first-occurrence order over the sinks, the key order
        #: of :meth:`group_spreads`.
        self._group_keys: List[int] = list(dict.fromkeys(groups))
        slot = {group: index for index, group in enumerate(self._group_keys)}
        self._sink_ids = np.array([sink.node_id for sink in sinks], dtype=np.int64)
        self._sink_slots = np.array([slot[g] for g in groups], dtype=np.int64)
        self._elmore_arena = None
        self._elmore: Optional[Tuple[np.ndarray, np.ndarray]] = None
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
    def sink_delays(self) -> Dict[int, float]:
        return sink_delays(self.tree)

    def subtree_capacitances(self) -> Dict[int, float]:
        return subtree_capacitances(self.tree)

    def elmore(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(seen_caps, delays)`` of the current tree, indexed by node id.

        One :func:`~repro.delay.elmore.arena_elmore` pass per tree snapshot:
        the result is reused until a mutation produces a new snapshot.  The
        arrays are shared, so callers must not write to them.
        """
        arena = self.tree.as_arena()
        if arena is not self._elmore_arena:
            self._elmore = arena_elmore(arena)
            self._elmore_arena = arena
        return self._elmore

    def group_of(self, node) -> int:
        if self.single_group:
            return 0
        return node.group if node.group is not None else 0

    def group_spreads(self, delays: Optional[np.ndarray] = None) -> Dict[int, float]:
        """Per-group intra-group skew (hi - lo sink delay), internal units.

        ``delays`` is a node-indexed delay array (default: the current
        tree's, from :meth:`elmore`).  Groups come back in first-occurrence
        order over the sinks.
        """
        if delays is None:
            delays = self.elmore()[1]
        count = len(self._group_keys)
        lo = np.full(count, np.inf)
        hi = np.full(count, -np.inf)
        values = delays[self._sink_ids]
        np.minimum.at(lo, self._sink_slots, values)
        np.maximum.at(hi, self._sink_slots, values)
        return dict(zip(self._group_keys, (hi - lo).tolist()))

    def skew_violations(self, delays: Optional[np.ndarray] = None) -> int:
        """Number of groups whose intra-group skew exceeds the bound."""
        spreads = self.group_spreads(delays)
        return sum(1 for g, s in spreads.items() if s > self.bound_for(g) + 1e-9)

    def worst_excess(self, delays: Optional[np.ndarray] = None) -> float:
        """Largest per-group skew excess over its bound (<= 0 when repaired)."""
        spreads = self.group_spreads(delays)
        return max(
            (s - self.bound_for(g) for g, s in spreads.items()), default=0.0
        )

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
        seen = self.elmore()[0][self._elmore_arena.reachable_mask()]
        return int(np.count_nonzero(seen > max_cap + 1e-9))

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def required_lengths(self) -> Dict[int, float]:
        """Minimum legal booked length of every edge, keyed by child id.

        The blockage-avoiding detour distance between the embedded endpoints
        (plain Manhattan distance without obstacles).  Cached until a pass
        moves a node.
        """
        if self._required is None:
            required: Dict[int, float] = {}
            for node in self.tree.nodes():
                if node.parent is None:
                    continue
                parent = self.tree.node(node.parent)
                if node.location is None or parent.location is None:
                    continue
                if self.obstacles is None:
                    required[node.node_id] = parent.location.distance_to(node.location)
                else:
                    required[node.node_id] = self.obstacles.detour_distance(
                        parent.location, node.location
                    )
            self._required = required
        return self._required

    def invalidate_geometry(self) -> None:
        """Drop cached geometry after a pass moved embedded nodes."""
        self._required = None

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
    nodes must call ``ctx.invalidate_geometry()``.
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
