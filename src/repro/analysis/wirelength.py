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

    Reads the tree's arena snapshot, the one ``skew_report`` reads, and adds
    in node order, so every field equals the walk of
    ``ClockTree.total_wirelength`` / ``snaking_wirelength`` bit for bit.
    """
    root = tree.root_id
    if root is None:
        raise ValueError("the tree has no root yet")
    arena = tree.as_arena()
    nodes = np.flatnonzero(arena.parents >= 0)
    parents = arena.parents[nodes]
    lengths = arena.edge_lengths[nodes]
    placed = arena.has_location[nodes] & arena.has_location[parents]
    nodes, parents = nodes[placed], parents[placed]
    # |dx| + |dy| in manhattan_distance's operand order.
    distance = np.abs(arena.xs[nodes] - arena.xs[parents]) + np.abs(
        arena.ys[nodes] - arena.ys[parents]
    )
    snaking = 0.0  # added one at a time like the walk; sum() may compensate
    for extra in np.maximum(lengths[placed] - distance, 0.0).tolist():
        snaking += extra
    offsets = arena.child_offsets
    source_edges = arena.edge_lengths[arena.child_ids[offsets[root]:offsets[root + 1]]]
    return WirelengthReport(
        total=sum(lengths.tolist(), 0.0),
        snaking=snaking,
        source_connection=sum(source_edges.tolist(), 0.0),
        num_edges=len(lengths),
    )


def reduction_percent(baseline: float, improved: float) -> float:
    """Percentage reduction of ``improved`` relative to ``baseline``.

    Matches the paper's "Reduction" column: positive when ``improved`` uses
    less wire than ``baseline``.
    """
    if baseline <= 0.0:
        raise ValueError("baseline wirelength must be positive")
    return (baseline - improved) / baseline * 100.0
