"""On-disk benchmark ingestion and synthetic scenario families.

Two things live here:

1. **An ISPD-CNS-style benchmark format.**  Real clock-net workloads come
   from text files listing sinks, macro blockages and the clock source.  The
   dialect parsed and written here is deliberately close to the ISPD
   clock-network-synthesis contest files while staying line oriented and
   diff-friendly::

       # anything after '#' is a comment
       num sink 4
       num blockage 1
       source 50000.0 50000.0
       sink 0 12034.5 87121.0 43.2 1
       sink 1 ...
       blockage 20000.0 30000.0 45000.0 42000.0

   ``sink`` lines are ``sink <id> <x> <y> <cap> [<group>]`` (group defaults
   to 0); ``blockage`` lines are ``blockage <xmin> <ymin> <xmax> <ymax>``.
   The declared ``num`` counts must match the listed entries and every parse
   error is loud -- a silently skipped sink would corrupt every downstream
   comparison.

2. **Seeded synthetic generator families** beyond the uniform generator of
   :mod:`repro.circuits.generator`:

   * ``clustered`` -- sinks in Gaussian clusters (register banks);
   * ``ring``      -- sinks on an annulus around the source (pad rings);
   * ``blocked``   -- uniform sinks avoiding randomly placed macro blockages.

   Every family accepts ``num_blockages`` so obstacle scenarios can be
   produced from any spatial distribution; the same seed always yields the
   same instance.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.circuits.instance import ClockInstance, Sink, SinkTable
from repro.delay.technology import DEFAULT_TECHNOLOGY, Technology
from repro.geometry.obstacles import ObstacleSet, Rect
from repro.geometry.point import Point

__all__ = [
    "BenchmarkFormatError",
    "load_benchmark",
    "save_benchmark",
    "GENERATOR_FAMILIES",
    "available_families",
    "generate_instance",
    "clustered_instance",
    "ring_instance",
    "blocked_instance",
]


class BenchmarkFormatError(ValueError):
    """A benchmark file violates the format contract."""


# ----------------------------------------------------------------------
# ISPD-CNS-style file format
# ----------------------------------------------------------------------
def load_benchmark(
    path: Union[str, Path],
    name: Optional[str] = None,
    technology: Technology = DEFAULT_TECHNOLOGY,
) -> ClockInstance:
    """Parse an ISPD-CNS-style benchmark file into a :class:`ClockInstance`.

    Args:
        path: the benchmark file.
        name: instance name (defaults to the file stem).
        technology: interconnect technology to attach (the contest files do
            not carry RC parameters).

    Raises:
        BenchmarkFormatError: on any malformed, missing or contradictory
            content -- errors are always loud.
    """
    path = Path(path)
    declared: Dict[str, int] = {}
    source: Optional[Point] = None
    sinks: List[Sink] = []
    blockages: List[Rect] = []

    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0].lower()
        try:
            if keyword == "num":
                if len(tokens) != 3 or tokens[1].lower() not in ("sink", "blockage"):
                    raise BenchmarkFormatError(
                        "expected 'num sink <n>' or 'num blockage <n>'"
                    )
                declared[tokens[1].lower()] = int(tokens[2])
            elif keyword == "source":
                if source is not None:
                    raise BenchmarkFormatError("duplicate source line")
                if len(tokens) != 3:
                    raise BenchmarkFormatError("expected 'source <x> <y>'")
                source = Point(float(tokens[1]), float(tokens[2]))
            elif keyword == "sink":
                if len(tokens) not in (5, 6):
                    raise BenchmarkFormatError(
                        "expected 'sink <id> <x> <y> <cap> [<group>]'"
                    )
                sinks.append(
                    Sink(
                        sink_id=int(tokens[1]),
                        location=Point(float(tokens[2]), float(tokens[3])),
                        cap=float(tokens[4]),
                        group=int(tokens[5]) if len(tokens) == 6 else 0,
                    )
                )
            elif keyword == "blockage":
                if len(tokens) != 5:
                    raise BenchmarkFormatError(
                        "expected 'blockage <xmin> <ymin> <xmax> <ymax>'"
                    )
                blockages.append(
                    Rect(float(tokens[1]), float(tokens[2]), float(tokens[3]), float(tokens[4]))
                )
            else:
                raise BenchmarkFormatError("unrecognised keyword %r" % keyword)
        except BenchmarkFormatError as exc:
            raise BenchmarkFormatError("%s:%d: %s" % (path, lineno, exc)) from None
        except ValueError as exc:
            raise BenchmarkFormatError("%s:%d: %s" % (path, lineno, exc)) from None

    if source is None:
        raise BenchmarkFormatError("%s: missing a source line" % path)
    if not sinks:
        raise BenchmarkFormatError("%s: contains no sinks" % path)
    for key, entries in (("sink", sinks), ("blockage", blockages)):
        if key in declared and declared[key] != len(entries):
            raise BenchmarkFormatError(
                "%s: declares %d %ss but lists %d" % (path, declared[key], key, len(entries))
            )
    try:
        return ClockInstance(
            name=name or path.stem,
            sinks=tuple(sinks),
            source=source,
            technology=technology,
            obstacles=tuple(blockages),
        )
    except ValueError as exc:
        raise BenchmarkFormatError("%s: %s" % (path, exc)) from None


def save_benchmark(instance: ClockInstance, path: Union[str, Path]) -> None:
    """Write ``instance`` in the ISPD-CNS-style format read by :func:`load_benchmark`.

    The interconnect technology is not part of the format (as in the contest
    files); a round-trip therefore preserves everything except technology and
    derives the name from the file stem.
    """
    lines = [
        "# repro CNS benchmark (ISPD-style): sinks + blockages + source",
        "num sink %d" % instance.num_sinks,
        "num blockage %d" % len(instance.obstacles),
        "source %.17g %.17g" % (instance.source.x, instance.source.y),
    ]
    for sink in instance.sinks:
        lines.append(
            "sink %d %.17g %.17g %.17g %d"
            % (sink.sink_id, sink.location.x, sink.location.y, sink.cap, sink.group)
        )
    for rect in instance.obstacles:
        lines.append(
            "blockage %.17g %.17g %.17g %.17g"
            % (rect.xmin, rect.ymin, rect.xmax, rect.ymax)
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Synthetic generator families
# ----------------------------------------------------------------------
def _sample_blockages(
    rng: np.random.Generator,
    layout_size: float,
    count: int,
    keep_clear: Sequence[Point],
) -> ObstacleSet:
    """``count`` disjoint blockage rectangles keeping ``keep_clear`` points free.

    Rejection sampling with a deterministic RNG; raises when the layout is too
    congested to place the requested count (loud beats silently under-filled).
    """
    rects: List[Rect] = []
    attempts = 0
    while len(rects) < count:
        attempts += 1
        if attempts > 200 * max(count, 1):
            raise ValueError(
                "could not place %d disjoint blockages in a %g layout" % (count, layout_size)
            )
        cx = rng.uniform(0.12, 0.88) * layout_size
        cy = rng.uniform(0.12, 0.88) * layout_size
        w = rng.uniform(0.06, 0.16) * layout_size
        h = rng.uniform(0.06, 0.16) * layout_size
        rect = Rect(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
        if any(rect.interior_contains(point) for point in keep_clear):
            continue
        if any(rect.expanded(0.01 * layout_size).overlaps(other) for other in rects):
            continue
        rects.append(rect)
    return ObstacleSet(tuple(rects))


def _free_points(
    rng: np.random.Generator,
    num: int,
    obstacles: ObstacleSet,
    draw: Callable[[int], "np.ndarray"],
) -> "np.ndarray":
    """``(num, 2)`` points drawn by ``draw`` and re-drawn while inside a blockage.

    Each draw asks for the points still missing, so its free points, in
    order, are all kept."""
    batches: List["np.ndarray"] = []
    found = 0
    while found < num:
        batch = draw(num - found)
        free = batch[~obstacles.blocks_points(batch[:, 0], batch[:, 1])]
        batches.append(free)
        found += len(free)
    return np.concatenate(batches)


def _build(
    name: str,
    points: "np.ndarray",
    caps: "np.ndarray",
    num_groups: int,
    source: Point,
    technology: Technology,
    obstacles: ObstacleSet,
) -> ClockInstance:
    ids = np.arange(len(points), dtype=np.int64)
    return ClockInstance(
        name=name,
        sinks=SinkTable(ids, points[:, 0], points[:, 1], caps, ids % num_groups),
        source=source,
        technology=technology,
        obstacles=obstacles.rects,
    )


def _validate_family_args(num_sinks: int, num_groups: int, layout_size: float) -> None:
    if num_sinks < 1:
        raise ValueError("num_sinks must be at least 1")
    if num_groups < 1:
        raise ValueError("num_groups must be at least 1")
    if layout_size <= 0.0:
        raise ValueError("layout_size must be positive")


def clustered_instance(
    name: str,
    num_sinks: int,
    seed: int,
    layout_size: float = 100_000.0,
    num_clusters: Optional[int] = None,
    cap_range: Sequence[float] = (20.0, 80.0),
    num_groups: int = 1,
    num_blockages: int = 0,
    technology: Technology = DEFAULT_TECHNOLOGY,
    source: Optional[Point] = None,
) -> ClockInstance:
    """Sinks in Gaussian clusters around random centres (register banks)."""
    _validate_family_args(num_sinks, num_groups, layout_size)
    rng = np.random.default_rng(seed)
    k = num_clusters or max(2, int(round(math.sqrt(num_sinks) / 2.0)))
    centre = source or Point(layout_size / 2.0, layout_size / 2.0)
    obstacles = _sample_blockages(rng, layout_size, num_blockages, [centre])
    centres = rng.uniform(0.15, 0.85, size=(k, 2)) * layout_size
    spread = 0.05 * layout_size

    def draw(n: int) -> "np.ndarray":
        which = rng.integers(0, k, size=n)
        offsets = rng.normal(0.0, spread, size=(n, 2))
        return np.clip(centres[which] + offsets, 0.0, layout_size)

    points = _free_points(rng, num_sinks, obstacles, draw)
    caps = rng.uniform(cap_range[0], cap_range[1], size=num_sinks)
    return _build(name, points, caps, num_groups, centre, technology, obstacles)


def ring_instance(
    name: str,
    num_sinks: int,
    seed: int,
    layout_size: float = 100_000.0,
    radii: Sequence[float] = (0.3, 0.45),
    cap_range: Sequence[float] = (20.0, 80.0),
    num_groups: int = 1,
    num_blockages: int = 0,
    technology: Technology = DEFAULT_TECHNOLOGY,
    source: Optional[Point] = None,
) -> ClockInstance:
    """Sinks on an annulus around the layout centre (pad-ring style)."""
    _validate_family_args(num_sinks, num_groups, layout_size)
    lo, hi = radii
    if not (0.0 < lo <= hi <= 0.5):
        raise ValueError("radii must satisfy 0 < lo <= hi <= 0.5 (layout fractions)")
    rng = np.random.default_rng(seed)
    centre = source or Point(layout_size / 2.0, layout_size / 2.0)
    obstacles = _sample_blockages(rng, layout_size, num_blockages, [centre])

    def draw(n: int) -> "np.ndarray":
        angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
        radius = rng.uniform(lo, hi, size=n) * layout_size
        xs = layout_size / 2.0 + radius * np.cos(angles)
        ys = layout_size / 2.0 + radius * np.sin(angles)
        return np.clip(np.stack([xs, ys], axis=1), 0.0, layout_size)

    points = _free_points(rng, num_sinks, obstacles, draw)
    caps = rng.uniform(cap_range[0], cap_range[1], size=num_sinks)
    return _build(name, points, caps, num_groups, centre, technology, obstacles)


def blocked_instance(
    name: str,
    num_sinks: int,
    seed: int,
    layout_size: float = 100_000.0,
    num_blockages: Optional[int] = None,
    cap_range: Sequence[float] = (20.0, 80.0),
    num_groups: int = 1,
    technology: Technology = DEFAULT_TECHNOLOGY,
    source: Optional[Point] = None,
) -> ClockInstance:
    """Uniform sinks dodging randomly placed macro blockages.

    ``num_blockages`` defaults to a sink-count-scaled value capped at 12 so
    escape-graph routing stays cheap at bench sizes.
    """
    _validate_family_args(num_sinks, num_groups, layout_size)
    if num_blockages is None:
        num_blockages = max(2, min(12, num_sinks // 25))
    rng = np.random.default_rng(seed)
    centre = source or Point(layout_size / 2.0, layout_size / 2.0)
    obstacles = _sample_blockages(rng, layout_size, num_blockages, [centre])

    def draw(n: int) -> "np.ndarray":
        return rng.uniform(0.0, layout_size, size=(n, 2))

    points = _free_points(rng, num_sinks, obstacles, draw)
    caps = rng.uniform(cap_range[0], cap_range[1], size=num_sinks)
    return _build(name, points, caps, num_groups, centre, technology, obstacles)


#: The registry of generator families (name -> factory with the shared
#: ``(name, num_sinks, seed, ...)`` signature).
GENERATOR_FAMILIES: Dict[str, Callable[..., ClockInstance]] = {
    "clustered": clustered_instance,
    "ring": ring_instance,
    "blocked": blocked_instance,
}


def available_families() -> List[str]:
    """Sorted names of the synthetic generator families."""
    return sorted(GENERATOR_FAMILIES)


def generate_instance(
    family: str, name: str, num_sinks: int, seed: int, **kwargs
) -> ClockInstance:
    """Generate an instance of the named family (KeyError-free, loud errors)."""
    try:
        factory = GENERATOR_FAMILIES[family]
    except KeyError:
        raise ValueError(
            "unknown generator family %r; available: %s"
            % (family, ", ".join(available_families()))
        ) from None
    return factory(name, num_sinks, seed, **kwargs)
