"""Optimization reports: what each pass did and what the tree looks like now.

Both report classes are plain serialisable data so they can ride inside
:class:`~repro.api.spec.RunResult` JSON, bench rows and batch output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["PassOutcome", "OptReport"]


@dataclass
class PassOutcome:
    """What a single pass invocation changed."""

    name: str
    iteration: int
    edges_modified: int = 0
    nodes_moved: int = 0
    wire_added: float = 0.0
    wire_trimmed: float = 0.0
    seconds: float = 0.0
    #: Buffers the pass inserted (the buffer-insertion pass only).
    buffers_inserted: int = 0
    #: True when the optimizer rejected and undid this pass's changes.
    reverted: bool = False
    #: Why the optimizer reverted the pass: the first quality component
    #: that got worse (``skew_violations``, ``cap_violations``, ``excess``,
    #: ``floor`` or ``wirelength``); None when it was kept.
    revert_reason: Optional[str] = None
    #: Tentative buffers judged and batched Elmore passes that judged them
    #: (the buffer-insertion pass only).
    trials: int = 0
    trial_batches: int = 0
    #: Alignment sweeps run level by level, and those rerun node by node
    #: because the wire budget bound (the skew-repair pass only).
    sweeps_by_levels: int = 0
    sweeps_by_nodes: int = 0

    @property
    def changed(self) -> bool:
        return (
            self.edges_modified > 0
            or self.nodes_moved > 0
            or self.buffers_inserted > 0
        ) and not self.reverted

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "iteration": self.iteration,
            "edges_modified": self.edges_modified,
            "nodes_moved": self.nodes_moved,
            "wire_added": self.wire_added,
            "wire_trimmed": self.wire_trimmed,
            "seconds": self.seconds,
            "buffers_inserted": self.buffers_inserted,
            "reverted": self.reverted,
            "revert_reason": self.revert_reason,
            "trials": self.trials,
            "trial_batches": self.trial_batches,
            "sweeps_by_levels": self.sweeps_by_levels,
            "sweeps_by_nodes": self.sweeps_by_nodes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PassOutcome":
        return cls(**dict(data))


@dataclass
class OptReport:
    """Everything one optimizer run did, plus before/after quality metrics.

    ``skew_violations_*`` count the groups whose intra-group skew exceeds the
    targeted bound -- the same quantity ``validate_result`` reports one
    ``skew`` issue per group for.
    """

    bound_ps: float = 0.0
    iterations: int = 0
    converged: bool = False
    wirelength_before: float = 0.0
    wirelength_after: float = 0.0
    max_intra_skew_before_ps: float = 0.0
    max_intra_skew_after_ps: float = 0.0
    skew_violations_before: int = 0
    skew_violations_after: int = 0
    passes: List[PassOutcome] = field(default_factory=list)
    total_seconds: float = 0.0
    #: RC oracle cross-check of the optimized tree (when enabled):
    #: largest |fast - oracle| sink-delay difference, in internal units.
    oracle_checked: bool = False
    oracle_max_diff: float = 0.0

    @property
    def wire_added(self) -> float:
        """Net wire the optimizer added (negative when it reclaimed more)."""
        return self.wirelength_after - self.wirelength_before

    @property
    def violations_eliminated_fraction(self) -> float:
        """Fraction of pre-repair skew violations the optimizer eliminated."""
        if self.skew_violations_before == 0:
            return 1.0
        fixed = self.skew_violations_before - self.skew_violations_after
        return fixed / self.skew_violations_before

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "bound_ps": self.bound_ps,
            "iterations": self.iterations,
            "converged": self.converged,
            "wirelength_before": self.wirelength_before,
            "wirelength_after": self.wirelength_after,
            "max_intra_skew_before_ps": self.max_intra_skew_before_ps,
            "max_intra_skew_after_ps": self.max_intra_skew_after_ps,
            "skew_violations_before": self.skew_violations_before,
            "skew_violations_after": self.skew_violations_after,
            "passes": [outcome.to_dict() for outcome in self.passes],
            "total_seconds": self.total_seconds,
            "oracle_checked": self.oracle_checked,
            "oracle_max_diff": self.oracle_max_diff,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptReport":
        payload = dict(data)
        payload["passes"] = [
            PassOutcome.from_dict(entry) for entry in payload.get("passes", [])
        ]
        return cls(**payload)
