"""Clock routing problem instances.

An instance is a named set of sinks (location, load capacitance, group id),
a clock source location, the interconnect technology and an optional set of
rectangular routing blockages no wire may cross.  Instances are immutable
from the router's point of view; regrouping helpers return new instances
sharing the same sinks with different group assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.delay.technology import DEFAULT_TECHNOLOGY, Technology
from repro.geometry.obstacles import ObstacleSet, Rect
from repro.geometry.point import Point

__all__ = ["Sink", "ClockInstance"]


@dataclass(frozen=True)
class Sink:
    """A clock sink: a flip-flop clock pin to be reached by the tree."""

    sink_id: int
    location: Point
    cap: float
    group: int = 0

    def __post_init__(self) -> None:
        if self.cap < 0.0:
            raise ValueError("sink capacitance must be non-negative")


@dataclass(frozen=True)
class ClockInstance:
    """A complete clock routing problem instance."""

    name: str
    sinks: Tuple[Sink, ...]
    source: Point
    technology: Technology = field(default=DEFAULT_TECHNOLOGY)
    #: Rectangular routing blockages; wires may touch their boundaries but
    #: never cross their interiors.
    obstacles: Tuple[Rect, ...] = ()

    def __post_init__(self) -> None:
        if not self.sinks:
            raise ValueError("an instance needs at least one sink")
        ids = [s.sink_id for s in self.sinks]
        if len(set(ids)) != len(ids):
            raise ValueError("sink ids must be unique")
        if self.obstacles:
            blocked = self.obstacle_set()
            if blocked.blocks_point(self.source):
                raise ValueError("the clock source lies inside a blockage")
            n = len(self.sinks)
            xs = np.fromiter((s.location.x for s in self.sinks), dtype=np.float64, count=n)
            ys = np.fromiter((s.location.y for s in self.sinks), dtype=np.float64, count=n)
            inside = np.flatnonzero(blocked.blocks_points(xs, ys))
            if inside.size:
                sink = self.sinks[inside[0]]
                raise ValueError(
                    "sink %d at %r lies inside a blockage" % (sink.sink_id, sink.location)
                )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_sinks(self) -> int:
        return len(self.sinks)

    def groups(self) -> List[int]:
        """Sorted list of distinct group ids."""
        return sorted({s.group for s in self.sinks})

    @property
    def num_groups(self) -> int:
        return len(self.groups())

    def sinks_in_group(self, group: int) -> List[Sink]:
        """All sinks belonging to ``group`` (possibly empty)."""
        return [s for s in self.sinks if s.group == group]

    def group_sizes(self) -> Dict[int, int]:
        """Number of sinks per group."""
        sizes: Dict[int, int] = {}
        for sink in self.sinks:
            sizes[sink.group] = sizes.get(sink.group, 0) + 1
        return sizes

    def sink_by_id(self, sink_id: int) -> Sink:
        """The sink with the given id (KeyError when absent)."""
        for sink in self.sinks:
            if sink.sink_id == sink_id:
                return sink
        raise KeyError(sink_id)

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the sink locations."""
        return Point.bounding_box(s.location for s in self.sinks)

    def total_sink_capacitance(self) -> float:
        """Sum of all sink load capacitances."""
        return sum(s.cap for s in self.sinks)

    @property
    def has_obstacles(self) -> bool:
        return bool(self.obstacles)

    def obstacle_set(self) -> ObstacleSet:
        """The blockages as a queryable :class:`ObstacleSet` (possibly empty).

        One set per ``obstacles`` tuple, so the route, the repair and
        validation share its detour memo.
        """
        cached = self.__dict__.get("_obstacle_set")
        if cached is None or cached.rects is not self.obstacles:
            cached = ObstacleSet(self.obstacles)
            object.__setattr__(self, "_obstacle_set", cached)
        return cached

    # ------------------------------------------------------------------
    # Derived instances
    # ------------------------------------------------------------------
    def with_groups(self, assignment: Dict[int, int], name: Optional[str] = None) -> "ClockInstance":
        """A new instance with groups reassigned according to ``assignment``.

        ``assignment`` maps sink id to new group id and must cover every sink.
        """
        missing = [s.sink_id for s in self.sinks if s.sink_id not in assignment]
        if missing:
            raise ValueError("group assignment misses sinks: %s" % missing[:5])
        new_sinks = tuple(replace(s, group=assignment[s.sink_id]) for s in self.sinks)
        return replace(self, sinks=new_sinks, name=name or self.name)

    def with_single_group(self, name: Optional[str] = None) -> "ClockInstance":
        """A copy with every sink in group 0 (conventional skew routing)."""
        return self.with_groups({s.sink_id: 0 for s in self.sinks}, name=name)

    def with_technology(self, technology: Technology) -> "ClockInstance":
        """A copy using a different interconnect technology."""
        return replace(self, technology=technology)

    def with_obstacles(
        self, obstacles: Iterable[Rect], name: Optional[str] = None
    ) -> "ClockInstance":
        """A copy carrying the given routing blockages (replacing any present)."""
        return replace(self, obstacles=tuple(obstacles), name=name or self.name)

    def without_obstacles(self, name: Optional[str] = None) -> "ClockInstance":
        """A copy with every blockage removed (obstacle-free comparison runs)."""
        return replace(self, obstacles=(), name=name or self.name)

    def subset(self, sink_ids, name: Optional[str] = None) -> "ClockInstance":
        """A copy containing only the requested sinks (order preserved)."""
        wanted = set(sink_ids)
        new_sinks = tuple(s for s in self.sinks if s.sink_id in wanted)
        if not new_sinks:
            raise ValueError("the requested subset is empty")
        return replace(self, sinks=new_sinks, name=name or "%s-subset" % self.name)
