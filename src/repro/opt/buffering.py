"""Cap-limit-driven buffer insertion that never degrades skew.

When ``OptConfig.max_cap`` is set, every driver -- the clock source and each
inserted buffer -- must see at most that much capacitance.  This pass walks
the routed tree leaves-first and, at every internal node whose decoupled
subtree capacitance exceeds the limit, tries a buffer from the configured
library: the candidate cell minimises the stage delay of driving the node's
internal load, preferring cells whose own input pin respects the limit.

Associative-skew safety is enforced *per insertion*, not per pass: a buffer
adds its stage delay to every sink below it, which is a pure common-mode
shift only when the subtree covers whole sink groups.  After each tentative
insertion the pass re-evaluates the per-group spreads and keeps the buffer
only if no group crossed its bound (and a positive worst excess did not
grow).  Rejected insertions are undone on the spot, so the pass hands the
optimizer a tree that is never worse on the skew axes of its quality tuple
-- the outer accept/revert check then passes because cap violations rank
immediately after skew violations.
"""

from __future__ import annotations

import time

from repro.delay.buffer import BufferCell, BufferLibrary, default_library
from repro.opt.base import OptContext
from repro.opt.report import PassOutcome

__all__ = ["BufferInsertPass", "resolve_buffer_library"]

_EXCESS_TOL = 1e-9


def resolve_buffer_library(spec) -> BufferLibrary:
    """Materialise ``OptConfig.buffer_library`` into a :class:`BufferLibrary`.

    ``None`` resolves to the built-in default library, a string to a JSON
    file in ``BufferLibrary.save`` format, and a sequence of cells (what
    ``OptConfig`` normalises inline cell dicts into) to an ad-hoc library.
    """
    if spec is None:
        return default_library()
    if isinstance(spec, BufferLibrary):
        return spec
    if isinstance(spec, str):
        return BufferLibrary.load(spec)
    return BufferLibrary(cells=tuple(spec), name="inline")


class BufferInsertPass:
    """Insert buffers where the seen capacitance exceeds ``max_cap``."""

    name = "buffer-insert"

    def run(self, ctx: OptContext, iteration: int) -> PassOutcome:
        started = time.perf_counter()
        outcome = PassOutcome(name=self.name, iteration=iteration)
        max_cap = ctx.config.max_cap
        if max_cap is None:
            outcome.seconds = time.perf_counter() - started
            return outcome
        library = resolve_buffer_library(ctx.config.buffer_library)
        tree = ctx.tree
        root_id = tree.root().node_id

        caps, delays = ctx.elmore()
        violations = ctx.skew_violations(delays)
        worst = ctx.worst_excess(delays)
        # Leaves-first, so a deep insertion relieves every driver above it
        # before the shallower (larger) loads are even considered.
        for node_id in tree.reverse_topological_order():
            node = tree.node(node_id)
            if node.is_sink or node_id == root_id or node.buffer is not None:
                continue
            load = float(caps[node_id])
            if load <= max_cap:
                continue
            tree.set_buffer(node_id, _pick_cell(library, load, max_cap))
            new_caps, new_delays = ctx.elmore()
            new_violations = ctx.skew_violations(new_delays)
            new_worst = ctx.worst_excess(new_delays)
            degrades = new_violations > violations or (
                new_violations == violations
                and new_violations > 0
                and new_worst > worst + _EXCESS_TOL
            )
            if degrades:
                tree.set_buffer(node_id, None)
                continue
            violations, worst, caps = new_violations, new_worst, new_caps
            outcome.buffers_inserted += 1
        outcome.seconds = time.perf_counter() - started
        return outcome


def _pick_cell(library: BufferLibrary, load: float, max_cap: float) -> BufferCell:
    """Fastest cell for ``load``, preferring input pins within the cap limit."""
    eligible = [cell for cell in library if cell.input_cap <= max_cap]
    candidates = eligible if eligible else list(library)
    return min(candidates, key=lambda cell: (cell.stage_delay(load), cell.input_cap))
