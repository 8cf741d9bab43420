"""The ECO delta model: a small edit to an already-routed instance.

An :class:`EcoDelta` describes an engineering change order as plain data:
sinks added (location, load, group), sinks moved (new location), sinks
removed, and routing blockages added.  Deltas are immutable, validate
themselves loudly, round-trip through JSON (``to_dict``/``from_dict`` reject
unknown keys) and apply to a :class:`~repro.circuits.instance.ClockInstance`
to produce the post-change instance.  Added sinks receive fresh sequential
ids above the instance's current maximum, in the order they appear in the
delta, so the assignment is deterministic and cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from repro.circuits.instance import ClockInstance, SinkTable
from repro.geometry.obstacles import Rect
from repro.geometry.point import Point

__all__ = ["EcoDeltaError", "SinkAdd", "SinkMove", "EcoDelta"]


class EcoDeltaError(ValueError):
    """A malformed or inapplicable ECO delta."""


@dataclass(frozen=True)
class SinkAdd:
    """A sink to add: where it goes, what it loads, which group it joins."""

    location: Point
    cap: float
    group: int = 0

    def __post_init__(self) -> None:
        if self.cap < 0.0:
            raise EcoDeltaError("added sink capacitance must be non-negative")
        if self.group is None:
            raise EcoDeltaError("an added sink needs a group")


@dataclass(frozen=True)
class SinkMove:
    """An existing sink relocated to a new position (id and load unchanged)."""

    sink_id: int
    location: Point


@dataclass(frozen=True)
class EcoDelta:
    """One engineering change order, described entirely as data."""

    add: Tuple[SinkAdd, ...] = ()
    move: Tuple[SinkMove, ...] = ()
    remove: Tuple[int, ...] = ()
    add_blockages: Tuple[Rect, ...] = ()

    def __post_init__(self) -> None:
        # Accept any iterable but store tuples so deltas hash and compare.
        object.__setattr__(self, "add", tuple(self.add))
        object.__setattr__(self, "move", tuple(self.move))
        object.__setattr__(self, "remove", tuple(int(r) for r in self.remove))
        object.__setattr__(self, "add_blockages", tuple(self.add_blockages))
        moved = [m.sink_id for m in self.move]
        if len(set(moved)) != len(moved):
            raise EcoDeltaError("a sink may be moved at most once per delta")
        if len(set(self.remove)) != len(self.remove):
            raise EcoDeltaError("a sink may be removed at most once per delta")
        conflict = sorted(set(moved) & set(self.remove))
        if conflict:
            raise EcoDeltaError(
                "sinks %s are both moved and removed by the same delta" % conflict
            )

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not (self.add or self.move or self.remove or self.add_blockages)

    @property
    def num_changes(self) -> int:
        """Total number of individual edits the delta describes."""
        return (
            len(self.add) + len(self.move) + len(self.remove) + len(self.add_blockages)
        )

    def moved_ids(self) -> Tuple[int, ...]:
        return tuple(m.sink_id for m in self.move)

    def added_sink_ids(self, instance: ClockInstance) -> Tuple[int, ...]:
        """The ids :meth:`apply` will assign to the added sinks."""
        next_id = int(instance.sinks.ids.max()) + 1
        return tuple(range(next_id, next_id + len(self.add)))

    # ------------------------------------------------------------------
    def apply(self, instance: ClockInstance) -> ClockInstance:
        """The instance after this change order.

        Raises :class:`EcoDeltaError` when the delta references unknown sink
        ids, removes every sink, or leaves a kept sink (or the source) inside
        an added blockage.

        The new instance's columns are the old ones with the moved rows
        rewritten, the removed rows dropped and the added sinks appended.
        """
        sinks = instance.sinks
        moved = np.array([m.sink_id for m in self.move], dtype=np.int64)
        removed = np.array(self.remove, dtype=np.int64)
        referenced = np.concatenate((moved, removed))
        unknown = sorted(set(referenced[~np.isin(referenced, sinks.ids)].tolist()))
        if unknown:
            raise EcoDeltaError(
                "delta references unknown sink ids %s (instance %r has %d sinks)"
                % (unknown, instance.name, instance.num_sinks)
            )
        xs, ys = sinks.xs.copy(), sinks.ys.copy()
        if self.move:
            order = np.argsort(sinks.ids, kind="stable")
            rows = order[np.searchsorted(sinks.ids, moved, sorter=order)]
            xs[rows] = [m.location.x for m in self.move]
            ys[rows] = [m.location.y for m in self.move]
        kept = ~np.isin(sinks.ids, removed)
        if not kept.any() and not self.add:
            raise EcoDeltaError("the delta removes every sink of the instance")
        columns = (
            (sinks.ids, self.added_sink_ids(instance)),
            (xs, [a.location.x for a in self.add]),
            (ys, [a.location.y for a in self.add]),
            (sinks.caps, [a.cap for a in self.add]),
            (sinks.groups, [a.group for a in self.add]),
        )
        table = SinkTable(
            *(np.concatenate((old[kept], np.array(new, dtype=old.dtype))) for old, new in columns)
        )
        try:
            return replace(
                instance,
                name="%s+eco" % instance.name,
                sinks=table,
                obstacles=instance.obstacles + self.add_blockages,
            )
        except ValueError as exc:
            # ClockInstance rejects sinks/source inside blockages; surface
            # that as a delta error so callers get one uniform exception.
            raise EcoDeltaError(str(exc)) from exc

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable form that round-trips via :meth:`from_dict`."""
        data: Dict[str, Any] = {}
        if self.add:
            data["add"] = [
                {"location": [a.location.x, a.location.y], "cap": a.cap, "group": a.group}
                for a in self.add
            ]
        if self.move:
            data["move"] = [
                {"sink_id": m.sink_id, "location": [m.location.x, m.location.y]}
                for m in self.move
            ]
        if self.remove:
            data["remove"] = list(self.remove)
        if self.add_blockages:
            data["add_blockages"] = [list(r.to_tuple()) for r in self.add_blockages]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EcoDelta":
        known = {"add", "move", "remove", "add_blockages"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise EcoDeltaError(
                "unknown delta keys %s; valid keys: %s"
                % (unknown, ", ".join(sorted(known)))
            )
        try:
            add = tuple(
                SinkAdd(
                    location=_point(entry["location"]),
                    cap=float(entry.get("cap", 0.0)),
                    group=int(entry.get("group", 0)),
                )
                for entry in data.get("add", ())
            )
            move = tuple(
                SinkMove(sink_id=int(entry["sink_id"]), location=_point(entry["location"]))
                for entry in data.get("move", ())
            )
            blockages = tuple(
                Rect(*(float(v) for v in entry)) for entry in data.get("add_blockages", ())
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EcoDeltaError("malformed delta: %s" % exc) from exc
        return cls(
            add=add,
            move=move,
            remove=tuple(int(r) for r in data.get("remove", ())),
            add_blockages=blockages,
        )


def _point(value: Any) -> Point:
    x, y = value
    return Point(float(x), float(y))
