"""Wirelength metrics and the "Reduction" column of the paper's tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WirelengthReport", "wirelength_report", "reduction_percent"]


@dataclass
class WirelengthReport:
    """Breakdown of the wire in one routed tree (micrometres)."""

    total: float
    snaking: float
    source_connection: float
    num_edges: int

    @property
    def straight(self) -> float:
        """Wire that is not snaking detour."""
        return self.total - self.snaking

    @property
    def snaking_fraction(self) -> float:
        """Fraction of the total wire spent on balancing detours."""
        return self.snaking / self.total if self.total > 0.0 else 0.0


def wirelength_report(tree) -> WirelengthReport:
    """Compute the :class:`WirelengthReport` of an embedded tree.

    The total and the snaking are ``ClockTree.total_wirelength`` and
    ``snaking_wirelength``; the source connection sums the root's child
    edges in attach order.
    """
    root = tree.root_id
    if root is None:
        raise ValueError("the tree has no root yet")
    arena = tree.as_arena()
    offsets = arena.child_offsets
    source_edges = arena.edge_lengths[arena.child_ids[offsets[root]:offsets[root + 1]]]
    return WirelengthReport(
        total=tree.total_wirelength(),
        snaking=tree.snaking_wirelength(),
        source_connection=sum(source_edges.tolist(), 0.0),
        num_edges=int(np.count_nonzero(arena.parents >= 0)),
    )


def reduction_percent(baseline: float, improved: float) -> float:
    """Percentage reduction of ``improved`` relative to ``baseline``.

    Matches the paper's "Reduction" column: positive when ``improved`` uses
    less wire than ``baseline``.
    """
    if baseline <= 0.0:
        raise ValueError("baseline wirelength must be positive")
    return (baseline - improved) / baseline * 100.0
