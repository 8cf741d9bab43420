"""Per-subtree state carried through the bottom-up merging phase.

Each active subtree is summarised by

* its placement locus (a :class:`~repro.geometry.trr.Trr`): the set of points
  where its root may still be embedded without changing any delay below it;
* its total downstream capacitance (sinks plus already-committed wire);
* for every sink group present in the subtree, the exact interval of Elmore
  delays from the (deferred) root to that group's sinks.

Delays are exact, not estimates, because edge lengths below the root are fixed
at merge time -- only root *positions* are deferred, which is the defining
property of deferred-merge embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.geometry.trr import Trr

__all__ = ["Subtree"]


@dataclass
class Subtree:
    """Summary of an active subtree during bottom-up merging."""

    node_id: int
    locus: Trr
    cap: float
    delays: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    num_sinks: int = 1
    #: Unresolved split of a cross-group merge, as the object reference loop
    #: in ``tests/reference_dme.py`` keeps it.  ``None`` for sinks and for
    #: constrained merges.
    pending: Optional[object] = None

    def __post_init__(self) -> None:
        if self.cap < 0.0:
            raise ValueError("subtree capacitance must be non-negative")
        if self.num_sinks < 1:
            raise ValueError("a subtree contains at least one sink")
        for group, (lo, hi) in self.delays.items():
            if hi < lo:
                raise ValueError(
                    "group %r has a malformed delay interval (%r, %r)" % (group, lo, hi)
                )

    # ------------------------------------------------------------------
    # Group / delay queries
    # ------------------------------------------------------------------
    @property
    def groups(self) -> FrozenSet[int]:
        """The set of sink groups with at least one sink in this subtree."""
        return frozenset(self.delays)

    def shares_group_with(self, other: "Subtree") -> FrozenSet[int]:
        """Groups present in both subtrees."""
        return self.groups & other.groups

    @property
    def max_delay(self) -> float:
        """Largest root-to-sink delay over every group."""
        return max(hi for _, hi in self.delays.values())

    @property
    def min_delay(self) -> float:
        """Smallest root-to-sink delay over every group."""
        return min(lo for lo, _ in self.delays.values())

    def delay_interval(self, group: int) -> Tuple[float, float]:
        """Delay interval of a single group (KeyError when absent)."""
        return self.delays[group]

    def group_spread(self, group: int) -> float:
        """Current intra-group delay spread (skew) of ``group`` inside this subtree."""
        lo, hi = self.delays[group]
        return hi - lo

    def worst_spread(self) -> float:
        """Largest intra-group spread over every group in the subtree."""
        return max(hi - lo for lo, hi in self.delays.values())

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def shifted_delays(self, added_delay: float) -> Dict[int, Tuple[float, float]]:
        """Delay intervals after adding a common wire delay above the root.

        A wire above the subtree root delays every sink identically, so every
        interval translates rigidly; in particular intra-group spreads are
        unchanged, which is why unconstrained (cross-group) merges can never
        break an intra-group constraint.
        """
        return {
            group: (lo + added_delay, hi + added_delay)
            for group, (lo, hi) in self.delays.items()
        }

    @classmethod
    def for_sink(cls, node_id: int, locus: Trr, cap: float, group: int) -> "Subtree":
        """The trivial subtree consisting of a single sink."""
        return cls(
            node_id=node_id,
            locus=locus,
            cap=cap,
            delays={group: (0.0, 0.0)},
            num_sinks=1,
        )
