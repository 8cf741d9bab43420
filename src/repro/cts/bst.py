"""EXT-BST: the bounded-skew baseline used in the paper's tables.

The paper compares AST-DME against an "extended greedy-BST": the conventional
bounded-skew tree algorithm run with a single global skew bound of 10 ps over
*all* sinks, which is the simple practical answer to the associative-skew
problem ("just force all groups to agree").  In this library that is the
unified AST engine run with every sink in one group and a 10 ps bound.

The engine lives in :mod:`repro.core.ast_dme`; it is imported lazily here so
that ``repro.core`` and ``repro.cts`` can be imported in either order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuits.instance import ClockInstance
    from repro.core.ast_dme import AstDmeConfig, RoutingResult

__all__ = ["ExtBst"]


class ExtBst:
    """Bounded-skew clock router with a single global bound (EXT-BST baseline)."""

    def __init__(
        self, skew_bound_ps: float = 10.0, config: Optional["AstDmeConfig"] = None
    ) -> None:
        from dataclasses import replace

        from repro.core.ast_dme import AstDme, AstDmeConfig

        base = config or AstDmeConfig()
        # dataclasses.replace keeps every other field (present and future)
        # instead of copying a hand-maintained list.
        self.config = replace(base, skew_bound_ps=skew_bound_ps)
        self._engine = AstDme(self.config)

    def route(self, instance: "ClockInstance") -> "RoutingResult":
        """Route ``instance`` with one global bounded-skew constraint."""
        return self._engine.route(instance, single_group=True)
