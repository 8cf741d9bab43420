"""Configuration of the post-construction tree optimizer.

:class:`OptConfig` is a frozen, JSON-round-trippable block that rides along
inside :class:`~repro.api.spec.RunSpec` (the api facade / CLI / service) and
:class:`~repro.eco.engine.EcoConfig`; library users pass it to
:func:`~repro.opt.optimizer.optimize_routing`.  It deliberately has no heavy
imports so that spec modules can depend on it without pulling the optimizer
machinery in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["OptConfig", "DEFAULT_PASSES", "BUFFERED_PASSES"]

#: The default pass pipeline, in execution order: re-embed merge points away
#: from blockage detours, re-balance delays by snaking under-delayed edges,
#: then reclaim wire the earlier passes made redundant.
DEFAULT_PASSES: Tuple[str, ...] = ("reembed", "skew-repair", "wirelength-recovery")

#: The buffered pipeline: cap-limit-driven buffer insertion first, so the
#: wire-level passes repair and polish the buffered topology.
BUFFERED_PASSES: Tuple[str, ...] = ("buffer-insert",) + DEFAULT_PASSES


@dataclass(frozen=True)
class OptConfig:
    """Tunable parameters of the post-construction optimizer."""

    #: Master switch: the optimizer never runs unless explicitly enabled, so
    #: default runs stay bit-identical to unoptimized output.
    enabled: bool = False
    #: Pass pipeline, by registered name, executed in order each iteration.
    passes: Tuple[str, ...] = DEFAULT_PASSES
    #: Outer iterations of the pipeline (each pass sees the others' output).
    max_iterations: int = 5
    #: Skew bound the repair targets, in picoseconds, for every group.  Wins
    #: over the bounds the result was routed against, which hold when
    #: ``None``; the rule lives in ``Optimizer.resolve_bound``.
    skew_bound_ps: Optional[float] = None
    #: Fraction of the skew bound the repair aims for, leaving headroom for
    #: the capacitive cross-coupling that snaking introduces.
    safety: float = 0.6
    #: Alignment sweeps per skew-repair invocation.
    repair_sweeps: int = 4
    #: Greedy exact-evaluation polish: maximum accepted moves (0 disables it).
    polish_steps: int = 64
    #: Hard cap on *net* wire growth (extensions minus trims), as a fraction
    #: of the routed tree's wirelength; the optimizer tracks the budget
    #: globally across passes and iterations, clamps the extension that would
    #: cross it, and reports non-convergence when the cap binds.
    max_added_wire_fraction: float = 1.0
    #: Cross-check the optimized tree's Elmore delays against the independent
    #: RC oracle (``oracle_delays``) and record the agreement in the report.
    verify_oracle: bool = True
    #: Capacitance limit (femtofarads) a single driver -- the source or a
    #: buffer -- may see before the buffer-insertion pass decouples the load.
    #: ``None`` disables insertion entirely, keeping buffer-free runs
    #: bit-identical to historical output.
    max_cap: Optional[float] = None
    #: Buffer library the insertion pass draws from: ``None`` (the built-in
    #: default library), a JSON path (``BufferLibrary.save`` format) or an
    #: inline sequence of cells / cell dicts (normalised to ``BufferCell``
    #: tuples so the config stays hashable and JSON-round-trippable).
    buffer_library: Optional[Any] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "passes", tuple(self.passes))
        if self.max_cap is not None and not self.max_cap > 0.0:
            raise ValueError("max_cap must be positive")
        if self.skew_bound_ps is not None and not self.skew_bound_ps > 0.0:
            # NaN would make every ``spread > bound`` test False, so the repair
            # would see no violation at all.
            raise ValueError("skew_bound_ps must be positive, got %r" % (self.skew_bound_ps,))
        library = self.buffer_library
        if library is not None and not isinstance(library, str):
            from repro.delay.buffer import BufferCell

            cells = tuple(
                cell if isinstance(cell, BufferCell) else BufferCell.from_dict(cell)
                for cell in library
            )
            if not cells:
                raise ValueError("an inline buffer_library needs at least one cell")
            object.__setattr__(self, "buffer_library", cells)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must be in (0, 1]")
        if self.repair_sweeps < 1:
            raise ValueError("repair_sweeps must be at least 1")
        if self.max_added_wire_fraction < 0.0:
            raise ValueError("max_added_wire_fraction must be non-negative")
        if self.polish_steps < 0:
            raise ValueError("polish_steps must be non-negative")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"enabled": self.enabled, "passes": list(self.passes)}
        defaults = OptConfig()
        for f in fields(self):
            if f.name in ("enabled", "passes"):
                continue
            value = getattr(self, f.name)
            if value != getattr(defaults, f.name):
                if f.name == "buffer_library" and isinstance(value, tuple):
                    value = [cell.to_dict() for cell in value]
                data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                "unknown opt config keys %s; valid keys: %s"
                % (unknown, ", ".join(sorted(known)))
            )
        payload = dict(data)
        if "passes" in payload:
            payload["passes"] = tuple(payload["passes"])
        return cls(**payload)
