"""The one-object-at-a-time instance code the sink columns replaced, kept as oracles.

``repro.circuits`` stores an instance's sinks as columns (``SinkTable``) and
its generators, groupings and ``EcoDelta.apply`` write those columns.  This
module keeps what they replaced, one :class:`~repro.circuits.instance.Sink`
at a time: ``random_instance``'s sink loop, the families' point collection
and ``_build``, the three groupings with ``with_groups``, ``subset``,
``EcoDelta.apply``'s loop and ``ClockInstance``'s checks over a sink tuple.
``tests/test_instance_columns.py`` holds the columnar code to them, sink
for sink.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.grouping import _grid_shape
from repro.circuits.instance import Sink
from repro.eco.delta import EcoDelta, EcoDeltaError
from repro.geometry.obstacles import ObstacleSet, Rect
from repro.geometry.point import Point

__all__ = [
    "random_sinks",
    "free_points",
    "build_sinks",
    "check_sinks",
    "clustered_assignment",
    "intermingled_assignment",
    "striped_assignment",
    "with_groups",
    "subset",
    "apply_delta",
]


def random_sinks(
    num_sinks: int,
    seed: int,
    layout_size: float = 100_000.0,
    cap_range: Sequence[float] = (20.0, 80.0),
    num_groups: int = 1,
) -> Tuple[Sink, ...]:
    """``random_instance``'s sinks, built one ``Sink`` at a time."""
    lo, hi = cap_range
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, layout_size, size=num_sinks)
    ys = rng.uniform(0.0, layout_size, size=num_sinks)
    caps = rng.uniform(lo, hi, size=num_sinks)

    return tuple(
        Sink(
            sink_id=i,
            location=Point(float(xs[i]), float(ys[i])),
            cap=float(caps[i]),
            group=i % num_groups,
        )
        for i in range(num_sinks)
    )


def free_points(rng, num: int, obstacles: ObstacleSet, draw) -> List[Point]:
    """The families' ``_free_points`` as a list of ``Point`` objects."""
    points: List[Point] = []
    while len(points) < num:
        batch = draw(num - len(points))
        free = batch[~obstacles.blocks_points(batch[:, 0], batch[:, 1])]
        points.extend(Point(x, y) for x, y in free.tolist())
    return points


def build_sinks(locations: List[Point], caps, num_groups: int) -> Tuple[Sink, ...]:
    """The sinks of the families' ``_build``."""
    return tuple(
        Sink(sink_id=i, location=location, cap=float(caps[i]), group=i % num_groups)
        for i, location in enumerate(locations)
    )


def check_sinks(sinks: Tuple[Sink, ...], source: Point, obstacles: Tuple[Rect, ...]) -> None:
    """``ClockInstance``'s checks over a sink tuple, with their messages."""
    if not sinks:
        raise ValueError("an instance needs at least one sink")
    ids = [s.sink_id for s in sinks]
    if len(set(ids)) != len(ids):
        raise ValueError("sink ids must be unique")
    if obstacles:
        blocked = ObstacleSet(obstacles)
        if blocked.blocks_point(source):
            raise ValueError("the clock source lies inside a blockage")
        n = len(sinks)
        xs = np.fromiter((s.location.x for s in sinks), dtype=np.float64, count=n)
        ys = np.fromiter((s.location.y for s in sinks), dtype=np.float64, count=n)
        inside = np.flatnonzero(blocked.blocks_points(xs, ys))
        if inside.size:
            sink = sinks[inside[0]]
            raise ValueError(
                "sink %d at %r lies inside a blockage" % (sink.sink_id, sink.location)
            )


def clustered_assignment(sinks: Tuple[Sink, ...], num_groups: int) -> Dict[int, int]:
    """``clustered_groups``' sink id -> group, one sink at a time."""
    xmin, ymin, xmax, ymax = Point.bounding_box(s.location for s in sinks)
    rows, cols = _grid_shape(num_groups)
    width = max(xmax - xmin, 1e-9)
    height = max(ymax - ymin, 1e-9)
    assignment: Dict[int, int] = {}
    for sink in sinks:
        col = min(int((sink.location.x - xmin) / width * cols), cols - 1)
        row = min(int((sink.location.y - ymin) / height * rows), rows - 1)
        assignment[sink.sink_id] = (row * cols + col) % num_groups
    return assignment


def intermingled_assignment(
    sinks: Tuple[Sink, ...], num_groups: int, seed: int = 0
) -> Dict[int, int]:
    """``intermingled_groups``' sink id -> group: a shuffled list, then one
    scalar draw per sink past the first ``num_groups``."""
    rng = np.random.default_rng(seed)
    sink_ids = [s.sink_id for s in sinks]
    shuffled = list(sink_ids)
    rng.shuffle(shuffled)
    assignment: Dict[int, int] = {}
    for index, sink_id in enumerate(shuffled):
        if index < num_groups:
            assignment[sink_id] = index
        else:
            assignment[sink_id] = int(rng.integers(0, num_groups))
    return assignment


def striped_assignment(sinks: Tuple[Sink, ...], num_groups: int) -> Dict[int, int]:
    """``striped_groups``' sink id -> group, round-robin in id order."""
    ordered = sorted(sinks, key=lambda s: s.sink_id)
    return {s.sink_id: i % num_groups for i, s in enumerate(ordered)}


def with_groups(sinks: Tuple[Sink, ...], assignment: Dict[int, int]) -> Tuple[Sink, ...]:
    """``ClockInstance.with_groups``' sinks."""
    missing = [s.sink_id for s in sinks if s.sink_id not in assignment]
    if missing:
        raise ValueError("group assignment misses sinks: %s" % missing[:5])
    return tuple(replace(s, group=assignment[s.sink_id]) for s in sinks)


def subset(sinks: Tuple[Sink, ...], sink_ids) -> Tuple[Sink, ...]:
    """``ClockInstance.subset``'s sinks."""
    wanted = set(sink_ids)
    new_sinks = tuple(s for s in sinks if s.sink_id in wanted)
    if not new_sinks:
        raise ValueError("the requested subset is empty")
    return new_sinks


def apply_delta(
    delta: EcoDelta,
    name: str,
    sinks: Tuple[Sink, ...],
    source: Point,
    obstacles: Tuple[Rect, ...],
) -> Tuple[Tuple[Sink, ...], Tuple[Rect, ...]]:
    """``EcoDelta.apply``'s loop over a sink tuple: the new sinks and
    blockages, or its :class:`EcoDeltaError`."""
    known = {s.sink_id for s in sinks}
    unknown = sorted(
        {m.sink_id for m in delta.move if m.sink_id not in known}
        | {r for r in delta.remove if r not in known}
    )
    if unknown:
        raise EcoDeltaError(
            "delta references unknown sink ids %s (instance %r has %d sinks)"
            % (unknown, name, len(sinks))
        )
    removed = set(delta.remove)
    moved = {m.sink_id: m.location for m in delta.move}
    new_sinks: List[Sink] = []
    for sink in sinks:
        if sink.sink_id in removed:
            continue
        if sink.sink_id in moved:
            new_sinks.append(replace(sink, location=moved[sink.sink_id]))
        else:
            new_sinks.append(sink)
    next_id = max(known) + 1
    for entry in delta.add:
        new_sinks.append(
            Sink(
                sink_id=next_id,
                location=entry.location,
                cap=entry.cap,
                group=entry.group,
            )
        )
        next_id += 1
    if not new_sinks:
        raise EcoDeltaError("the delta removes every sink of the instance")
    new_obstacles = obstacles + delta.add_blockages
    try:
        check_sinks(tuple(new_sinks), source, new_obstacles)
    except ValueError as exc:
        raise EcoDeltaError(str(exc)) from exc
    return tuple(new_sinks), new_obstacles
