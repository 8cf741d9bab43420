"""Cap-limit-driven buffer insertion that never degrades skew.

When ``OptConfig.max_cap`` is set, every driver -- the clock source and each
inserted buffer -- must see at most that much capacitance.  This pass walks
the routed tree leaves-first and, at every internal node whose decoupled
subtree capacitance exceeds the limit, tries a buffer from the configured
library: the candidate cell minimises the stage delay of driving the node's
internal load, preferring cells whose own input pin respects the limit.

Associative-skew safety is enforced *per insertion*, not per pass: a buffer
adds its stage delay to every sink below it, which is a pure common-mode
shift only when the subtree covers whole sink groups.  Each tentative
insertion (a *trial*) is judged on the per-group spreads of the tree with
that buffer set, and kept only if no group crossed its bound (and a positive
worst excess did not grow).  So the pass hands the optimizer a tree that is
never worse on the skew axes of its quality tuple -- the outer accept/revert
check then passes because cap violations rank immediately after skew
violations.

Trials run in batches of up to :data:`TRIAL_BATCH` consecutive candidates:
:func:`~repro.delay.elmore.buffer_trial_delays` gives each trial's delays as
one column of a matrix, bit for bit what ``arena_elmore`` returns for that
tree, without setting the buffer.  The trials are judged in candidate order;
a rejected trial never touches the tree.  The first accepted trial is set
with ``set_buffer``, the capacitances are re-read from ``arena_elmore``, and
the next batch starts after it, so the outcome is the one-trial-at-a-time
loop's, buffer for buffer.  A batch holds ``(n, TRIAL_BATCH)`` delays plus
its sparse patches: about 2 MB on a 16,000-node tree.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cts.arena import SINK_KIND
from repro.delay.buffer import BufferCell, BufferLibrary, default_library
from repro.delay.elmore import buffer_trial_delays
from repro.opt.base import OptContext
from repro.opt.report import PassOutcome

__all__ = ["BufferInsertPass", "resolve_buffer_library", "TRIAL_BATCH"]

_EXCESS_TOL = 1e-9
#: Trials evaluated per batched Elmore pass.
TRIAL_BATCH = 16


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
        arena = tree.as_arena()
        # Leaves-first, so a deep insertion relieves every driver above it
        # before the shallower (larger) loads are even considered.  Only the
        # visited node's buffer changes, so the candidates are known up front.
        order = arena.subtree_rows([arena.root])[0][::-1]
        candidates = order[
            (arena.kinds[order] != SINK_KIND) & (order != arena.root) & ~arena.buffer_mask[order]
        ]

        caps, delays = ctx.elmore()
        violations = ctx.skew_violations(delays)
        worst = ctx.worst_excess(delays)
        position = 0
        while position < len(candidates):
            # The next trials under the current caps: a node whose load is
            # within the limit is no trial.
            batch = position + np.flatnonzero(caps[candidates[position:]] > max_cap)[:TRIAL_BATCH]
            if not batch.size:
                break
            nodes = candidates[batch].tolist()
            cells = [_pick_cell(library, caps.item(node), max_cap) for node in nodes]
            trial_delays = buffer_trial_delays(tree.as_arena(), nodes, cells)
            outcome.trial_batches += 1
            scores = zip(*(score.tolist() for score in ctx.skew_scores(trial_delays)))
            position = int(batch[-1]) + 1
            for index, node_id, cell, (new_violations, new_worst) in zip(
                batch.tolist(), nodes, cells, scores
            ):
                outcome.trials += 1
                degrades = new_violations > violations or (
                    new_violations == violations
                    and new_violations > 0
                    and new_worst > worst + _EXCESS_TOL
                )
                if degrades:
                    continue
                tree.set_buffer(node_id, cell)
                caps = ctx.elmore()[0]
                violations, worst = new_violations, new_worst
                outcome.buffers_inserted += 1
                position = index + 1  # later trials saw the old tree
                break
        outcome.seconds = time.perf_counter() - started
        return outcome


def _pick_cell(library: BufferLibrary, load: float, max_cap: float) -> BufferCell:
    """Fastest cell for ``load``, preferring input pins within the cap limit."""
    eligible = [cell for cell in library if cell.input_cap <= max_cap]
    candidates = eligible if eligible else list(library)
    return min(candidates, key=lambda cell: (cell.stage_delay(load), cell.input_cap))
