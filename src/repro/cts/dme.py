"""Greedy-DME: the zero-skew baseline.

Greedy-DME (Edahiro 1993 on top of the DME embedding of Chao et al. / Tsay) is
"one of the best zero skew routing algorithms" and the reference point of the
paper's introduction.  In this library it is the unified AST engine run with
every sink in a single group and a zero skew bound: every merge is then the
classic balanced DME merge and the result is an (Elmore) zero-skew tree.

The engine lives in :mod:`repro.core.ast_dme`; it is imported lazily here so
that ``repro.core`` and ``repro.cts`` can be imported in either order.

All merging-order knobs are inherited from the supplied
:class:`~repro.core.ast_dme.AstDmeConfig` (via ``dataclasses.replace``), so
``GreedyDme(AstDmeConfig(multi_merge=False))`` runs Edahiro's strict
single-merge order while the default merges many disjoint pairs per pass.
Both select their pairs with the incremental neighbour index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuits.instance import ClockInstance
    from repro.core.ast_dme import AstDmeConfig, RoutingResult

__all__ = ["GreedyDme"]


class GreedyDme:
    """Zero-skew clock router (greedy-DME baseline)."""

    def __init__(self, config: Optional["AstDmeConfig"] = None) -> None:
        from dataclasses import replace

        from repro.core.ast_dme import AstDme, AstDmeConfig

        base = config or AstDmeConfig()
        # Zero-skew means a 0 ps bound; everything else is inherited via
        # dataclasses.replace so no configuration field is silently dropped.
        self.config = replace(base, skew_bound_ps=0.0)
        self._engine = AstDme(self.config)

    def route(self, instance: "ClockInstance") -> "RoutingResult":
        """Route ``instance`` with a zero-skew constraint over all sinks."""
        return self._engine.route(instance, single_group=True)
