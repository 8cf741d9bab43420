"""Clock routing problem instances.

An instance is a named set of sinks (location, load capacitance, group id),
a clock source location, the interconnect technology and an optional set of
rectangular routing blockages no wire may cross.  Instances are immutable
from the router's point of view; regrouping helpers return new instances
sharing the same sinks with different group assignments.

The sinks are stored as columns (:class:`SinkTable`): one read-only array per
field, in instance order.  The table is a sequence of :class:`Sink` values
built on demand, so callers that index or iterate it see the sinks they
always saw, while the generators, the routers, ECO and validation read and
write the columns and never build a ``Sink``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.delay.technology import DEFAULT_TECHNOLOGY, Technology
from repro.geometry.obstacles import ObstacleSet, Rect
from repro.geometry.point import Point

__all__ = ["Sink", "SinkTable", "ClockInstance"]


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


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only 1-D column: a read-only array of ``dtype``
    is shared, anything else is copied."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        column = values
    else:
        column = np.array(values, dtype=dtype)
        column.flags.writeable = False
    if column.ndim != 1:
        raise ValueError("a sink column must be one-dimensional")
    return column


class SinkTable(Sequence):
    """An instance's sinks as five read-only columns, in instance order.

    ``ids`` and ``groups`` are int64, ``xs``, ``ys`` and ``caps`` float64.
    Indexing or iterating the table builds :class:`Sink` values on demand;
    slicing gives a table.  A table compares equal to the tuple of the sinks
    it holds (and hashes like it), concatenates with tables and tuples of
    sinks, and pickles by its columns.
    """

    __slots__ = ("ids", "xs", "ys", "caps", "groups")

    def __init__(self, ids, xs, ys, caps, groups) -> None:
        self.ids = _frozen(ids, np.int64)
        self.xs = _frozen(xs, np.float64)
        self.ys = _frozen(ys, np.float64)
        self.caps = _frozen(caps, np.float64)
        self.groups = _frozen(groups, np.int64)
        if len({len(column) for column in self.columns()}) != 1:
            raise ValueError("sink columns must have equal lengths")

    @classmethod
    def from_sinks(cls, sinks: Iterable[Sink]) -> "SinkTable":
        """The columns of ``sinks``, in order.  Every sink needs a group."""
        sinks = list(sinks)
        for sink in sinks:
            if sink.group is None:
                raise ValueError("sink %d has no group; every sink needs one" % sink.sink_id)
        return cls(
            [s.sink_id for s in sinks],
            [s.location.x for s in sinks],
            [s.location.y for s in sinks],
            [s.cap for s in sinks],
            [s.group for s in sinks],
        )

    def columns(self) -> Tuple[np.ndarray, ...]:
        """``(ids, xs, ys, caps, groups)``."""
        return self.ids, self.xs, self.ys, self.caps, self.groups

    def rows(self, index) -> "SinkTable":
        """The sinks at ``index`` (a slice, a row mask or row indices), in
        that order, as a table."""
        return SinkTable(*(column[index] for column in self.columns()))

    def with_groups(self, groups) -> "SinkTable":
        """The same sinks with the group column ``groups`` (instance order)."""
        return SinkTable(self.ids, self.xs, self.ys, self.caps, groups)

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the sink locations, by Python's
        ``min``/``max`` in row order (the first of equal values, ``0.0`` or
        ``-0.0``, as ``Point.bounding_box`` picks it)."""
        xs, ys = self.xs.tolist(), self.ys.tolist()
        return min(xs), min(ys), max(xs), max(ys)

    # ------------------------------------------------------------------
    # The tuple protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.rows(index)
        return Sink(
            self.ids.item(index),
            Point(self.xs.item(index), self.ys.item(index)),
            self.caps.item(index),
            self.groups.item(index),
        )

    def __iter__(self) -> Iterator[Sink]:
        for sink_id, x, y, cap, group in zip(*(column.tolist() for column in self.columns())):
            yield Sink(sink_id, Point(x, y), cap, group)

    def __eq__(self, other) -> bool:
        if isinstance(other, SinkTable):
            return len(self) == len(other) and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(self.columns(), other.columns())
            )
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other) -> "SinkTable":
        if isinstance(other, tuple):
            other = SinkTable.from_sinks(other)
        if not isinstance(other, SinkTable):
            return NotImplemented
        return SinkTable(*map(np.concatenate, zip(self.columns(), other.columns())))

    def __radd__(self, other) -> "SinkTable":
        if not isinstance(other, tuple):
            return NotImplemented
        return SinkTable.from_sinks(other) + self

    def __reduce__(self):
        return SinkTable, self.columns()

    def __repr__(self) -> str:
        return "SinkTable(%r)" % (tuple(self),)


@dataclass(frozen=True)
class ClockInstance:
    """A complete clock routing problem instance.

    ``sinks`` may be given as any sequence of :class:`Sink` values or as a
    :class:`SinkTable`; the instance stores a table.
    """

    name: str
    sinks: SinkTable
    source: Point
    technology: Technology = field(default=DEFAULT_TECHNOLOGY)
    #: Rectangular routing blockages; wires may touch their boundaries but
    #: never cross their interiors.
    obstacles: Tuple[Rect, ...] = ()

    def __post_init__(self) -> None:
        sinks = self.sinks
        if not isinstance(sinks, SinkTable):
            sinks = SinkTable.from_sinks(sinks)
            object.__setattr__(self, "sinks", sinks)
        if not len(sinks):
            raise ValueError("an instance needs at least one sink")
        if (sinks.caps < 0.0).any():
            raise ValueError("sink capacitance must be non-negative")
        ids = sinks.ids
        # Generated ids ascend, which rules duplicates out without a sort.
        if not (ids[1:] > ids[:-1]).all() and len(np.unique(ids)) != len(ids):
            raise ValueError("sink ids must be unique")
        if ids.min() < 0:
            # A tree marks the nodes without a sink id with -1.
            raise ValueError("sink ids must be non-negative")
        if self.obstacles:
            blocked = self.obstacle_set()
            if blocked.blocks_point(self.source):
                raise ValueError("the clock source lies inside a blockage")
            inside = np.flatnonzero(blocked.blocks_points(sinks.xs, sinks.ys))
            if inside.size:
                k = inside[0]
                raise ValueError(
                    "sink %d at %r lies inside a blockage"
                    % (ids[k], Point(sinks.xs.item(k), sinks.ys.item(k)))
                )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_sinks(self) -> int:
        return len(self.sinks)

    def groups(self) -> List[int]:
        """Sorted list of distinct group ids."""
        cached = self.__dict__.get("_groups")
        if cached is None:
            cached = tuple(np.unique(self.sinks.groups).tolist())
            object.__setattr__(self, "_groups", cached)
        return list(cached)

    @property
    def num_groups(self) -> int:
        return len(self.groups())

    def sinks_in_group(self, group: int) -> List[Sink]:
        """All sinks belonging to ``group`` (possibly empty)."""
        sinks = self.sinks
        return [sinks[k] for k in np.flatnonzero(sinks.groups == group).tolist()]

    def group_sizes(self) -> Dict[int, int]:
        """Number of sinks per group, in order of first appearance."""
        groups, first, counts = np.unique(
            self.sinks.groups, return_index=True, return_counts=True
        )
        order = np.argsort(first)
        return dict(zip(groups[order].tolist(), counts[order].tolist()))

    def sink_by_id(self, sink_id: int) -> Sink:
        """The sink with the given id (KeyError when absent)."""
        rows = np.flatnonzero(self.sinks.ids == sink_id)
        if not rows.size:
            raise KeyError(sink_id)
        return self.sinks[int(rows[0])]

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the sink locations."""
        return self.sinks.bounding_box()

    def total_sink_capacitance(self) -> float:
        """Sum of all sink load capacitances, added in instance order."""
        return sum(self.sinks.caps.tolist())

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
        ids = self.sinks.ids.tolist()
        missing = [sid for sid in ids if sid not in assignment]
        if missing:
            raise ValueError("group assignment misses sinks: %s" % missing[:5])
        groups = [assignment[sid] for sid in ids]
        if None in groups:
            raise ValueError("sink %d has no group; every sink needs one" % ids[groups.index(None)])
        return replace(self, sinks=self.sinks.with_groups(groups), name=name or self.name)

    def with_single_group(self, name: Optional[str] = None) -> "ClockInstance":
        """A copy with every sink in group 0 (conventional skew routing)."""
        groups = np.zeros(self.num_sinks, dtype=np.int64)
        return replace(self, sinks=self.sinks.with_groups(groups), name=name or self.name)

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
        kept = self.sinks.rows(np.isin(self.sinks.ids, list(set(sink_ids))))
        if not len(kept):
            raise ValueError("the requested subset is empty")
        return replace(self, sinks=kept, name=name or "%s-subset" % self.name)
