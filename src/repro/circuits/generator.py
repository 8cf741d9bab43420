"""Generic random clock-instance generator.

Used both by the synthetic r1-r5 substitutes and by the test-suite (small
random instances with controlled seeds).  Sinks are placed uniformly over a
square layout; loads are drawn uniformly from a realistic range; the clock
source sits at the layout centre unless overridden.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.circuits.instance import ClockInstance, SinkTable
from repro.delay.technology import DEFAULT_TECHNOLOGY, Technology
from repro.geometry.point import Point

__all__ = ["random_instance"]


def random_instance(
    name: str,
    num_sinks: int,
    seed: int,
    layout_size: float = 100_000.0,
    cap_range: Sequence[float] = (20.0, 80.0),
    num_groups: int = 1,
    technology: Technology = DEFAULT_TECHNOLOGY,
    source: Optional[Point] = None,
) -> ClockInstance:
    """Generate a random clock routing instance.

    Args:
        name: instance name.
        num_sinks: number of clock sinks.
        seed: RNG seed; the same seed always yields the same instance.
        layout_size: side of the square layout in micrometres.
        cap_range: ``(low, high)`` of the uniform sink-load distribution (fF).
        num_groups: number of sink groups; sinks are assigned round-robin so
            the groups are intermingled by construction.  Use the helpers in
            :mod:`repro.circuits.grouping` for other grouping styles.
        technology: interconnect technology of the instance.
        source: clock source location (defaults to the layout centre).

    Returns:
        A :class:`~repro.circuits.instance.ClockInstance`.
    """
    if num_sinks < 1:
        raise ValueError("num_sinks must be at least 1")
    if num_groups < 1:
        raise ValueError("num_groups must be at least 1")
    if layout_size <= 0.0:
        raise ValueError("layout_size must be positive")
    lo, hi = cap_range
    if lo < 0.0 or hi < lo:
        raise ValueError("cap_range must satisfy 0 <= low <= high")

    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, layout_size, size=num_sinks)
    ys = rng.uniform(0.0, layout_size, size=num_sinks)
    caps = rng.uniform(lo, hi, size=num_sinks)

    ids = np.arange(num_sinks, dtype=np.int64)
    sinks = SinkTable(ids, xs, ys, caps, ids % num_groups)
    centre = source or Point(layout_size / 2.0, layout_size / 2.0)
    return ClockInstance(name=name, sinks=sinks, source=centre, technology=technology)
