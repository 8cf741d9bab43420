"""Skew analysis of an embedded clock tree.

All skews are derived from the Elmore sink delays of the final tree:

* *global skew*: max - min delay over every pair of sinks (the "Maximum Skew"
  column of the paper's tables -- for AST-DME it grows well beyond the
  intra-group bound because inter-group skew is unconstrained);
* *intra-group skew*: the delay spread within each sink group (this is the
  quantity the constraints actually bound);
* *inter-group offsets*: the difference between group mean delays, i.e. the
  by-product "offsets" the associative formulation produces implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.delay.elmore import SinkGroups, arena_elmore
from repro.delay.technology import Technology

__all__ = ["SkewReport", "skew_report"]


@dataclass
class SkewReport:
    """Skew metrics of one routed tree, in internal time units (femtoseconds)."""

    global_skew: float
    max_delay: float
    min_delay: float
    per_group_skew: Dict[int, float] = field(default_factory=dict)
    per_group_delay_range: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def max_intra_group_skew(self) -> float:
        """Largest intra-group skew over every group (0 for an empty report)."""
        return max(self.per_group_skew.values(), default=0.0)

    @property
    def global_skew_ps(self) -> float:
        return Technology.internal_to_ps(self.global_skew)

    @property
    def max_intra_group_skew_ps(self) -> float:
        return Technology.internal_to_ps(self.max_intra_group_skew)

    def group_skew_ps(self, group: int) -> float:
        """Intra-group skew of one group in picoseconds."""
        return Technology.internal_to_ps(self.per_group_skew[group])

    def inter_group_offset(self, group_a: int, group_b: int) -> float:
        """Difference between the mid-range delays of two groups.

        Positive when ``group_a`` is slower than ``group_b``.  This is the
        implicit inter-group skew ("offset") that the associative formulation
        leaves free.
        """
        lo_a, hi_a = self.per_group_delay_range[group_a]
        lo_b, hi_b = self.per_group_delay_range[group_b]
        return (lo_a + hi_a) / 2.0 - (lo_b + hi_b) / 2.0

    def satisfies_intra_bound(self, bound: float, tolerance: float = 1e-6) -> bool:
        """Whether every group's skew is within ``bound`` internal units."""
        return all(skew <= bound + tolerance for skew in self.per_group_skew.values())


def skew_report(tree) -> SkewReport:
    """Compute the :class:`SkewReport` of an embedded clock tree.

    Sinks without a group count as group 0.  Raises ``ValueError`` when the
    tree has no root or no sinks, or when a sink is not reachable from the
    root (its delay is undefined).
    """
    if tree.root_id is None:
        raise ValueError("the tree has no root yet")
    arena = tree.as_arena()
    groups = SinkGroups.of(arena)
    if not groups.sink_ids.size:
        raise ValueError("the tree has no sinks")
    unreached = np.flatnonzero(~arena.reachable_mask()[groups.sink_ids])
    if unreached.size:
        raise ValueError(
            "sink %d is not reachable from the root" % groups.sink_ids[unreached[0]]
        )
    lo, hi = groups.ranges(arena_elmore(arena)[1])
    max_delay = float(hi.max())
    min_delay = float(lo.min())
    return SkewReport(
        global_skew=max_delay - min_delay,
        max_delay=max_delay,
        min_delay=min_delay,
        per_group_skew=dict(zip(groups.keys, (hi - lo).tolist())),
        per_group_delay_range=dict(zip(groups.keys, zip(lo.tolist(), hi.tolist()))),
    )
