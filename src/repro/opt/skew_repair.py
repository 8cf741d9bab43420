"""Skew repair via wire snaking: restore per-group bounds after detours.

The bottom-up construction balances per-group Elmore delays exactly, but the
obstacle-aware embedding extends edges whose booked wire cannot cover their
blockage detour, silently shifting whole subtrees late.  This pass restores
the construction's guarantee on the finished tree:

* **Alignment sweep** (the workhorse): one bottom-up pass in *subtree-relative*
  delay coordinates -- the same coordinates the merge phase used, in which an
  edit inside a subtree never invalidates bookkeeping elsewhere, so every
  trim/extension is computed against exact values rather than stale global
  delays (naive global-delay iteration limit-cycles on multi-group trees; see
  docs/optimization.md).  At every internal node the per-group delay intervals
  of the children are aligned into a ``safety * bound`` window: children that
  run early are lengthened (:func:`wire_length_for_delay`; the repair books
  the length, and an export realises it as obstacle-safe serpentines on
  request through :func:`repro.cts.routing.route_edges`) and children that
  run late are shortened where their booked length exceeds the
  blockage-avoiding *required* length.

  The sweep runs over arrays, one height level at a time, with the merge
  loop's ``(n, G)`` interval layout (:class:`_Sweep`), and books what a walk
  over the nodes in reversed preorder books, bit for bit
  (``tests/reference_repair.py`` keeps that walk as its oracle).  Nodes of
  one level interact only through the global wire budget; a replay of the
  recorded edits in the walk's order finds the nodes where the budget binds,
  and those run one at a time.

* **Greedy polish** (the endgame): when group-interval conflicts leave
  residual violations, candidate over-booked edges are trimmed one at a time,
  each move evaluated by recomputing the true sink delays, and kept only when
  the total skew excess strictly decreases -- monotone by construction.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.cts.arena import SINK_KIND
from repro.delay.wire import wire_length_for_delay
from repro.opt.base import OptContext, TreeColumns
from repro.opt.report import PassOutcome

__all__ = ["SkewRepairPass"]

_TOL = 1e-9
_LEN_TOL = 1e-6
#: The fewest walk positions an alignment sweep looks ahead after the wire
#: budget bound a node; it looks twice as far as the distance to the previous
#: such node, and the look-ahead doubles each time the budget does not bind.
_RESUME_WINDOW = 16
#: What an alignment sweep assumes of the wire budget: that it never binds,
#: that it stops every node at its first extension, or nothing (one node at a
#: time, checked as it goes).
_UNLIMITED, _EXHAUSTED, _LIVE = range(3)
#: Kinds of recorded edits: a trim, an extension, and an extension the
#: budget stopped (no edit).
_TRIM, _EXTEND, _STOP = range(3)
#: Candidate edges the greedy polish ranks per move.
_POLISH_CANDIDATES = 48


class SkewRepairPass:
    """Lengthen under-delayed edges (and trim over-booked ones) to meet the bound."""

    name = "skew-repair"

    def run(self, ctx: OptContext, iteration: int) -> PassOutcome:
        started = time.perf_counter()
        outcome = PassOutcome(name=self.name, iteration=iteration)

        for _ in range(ctx.config.repair_sweeps):
            if ctx.worst_excess() <= 0.0:
                break
            changed = self._alignment_sweep(ctx, outcome)
            if not changed:
                break

        if ctx.worst_excess() > 0.0 and ctx.config.polish_steps > 0:
            self._greedy_polish(ctx, outcome)

        outcome.seconds = time.perf_counter() - started
        return outcome

    # ------------------------------------------------------------------
    # Stage 1: exact bottom-up alignment in subtree-relative coordinates
    # ------------------------------------------------------------------
    def _alignment_sweep(self, ctx: OptContext, outcome: PassOutcome) -> bool:
        """One alignment sweep (:class:`_Sweep`); True when it booked any
        length."""
        sweep = _Sweep(ctx)
        if sweep.run():
            outcome.sweeps_by_nodes += 1
        else:
            outcome.sweeps_by_levels += 1
        spends = sweep.spends()
        for _, amount, extension in spends:
            if extension:
                ctx.spend_wire(amount)
                outcome.wire_added += amount
            else:
                ctx.spend_wire(-amount)
                outcome.wire_trimmed += amount
            outcome.edges_modified += 1
        for kid in dict.fromkeys(kid for kid, _, _ in spends):
            ctx.tree.set_edge_length(kid, sweep.lengths.item(kid))
        return bool(spends)

    # ------------------------------------------------------------------
    # Stage 2: greedy exact-evaluation polish
    # ------------------------------------------------------------------
    def _polish_score(self, ctx: OptContext) -> Tuple[float, float, int]:
        """Lexicographic state score: (margin potential, worst excess, violations).

        The potential sums per-group excess over the *safety* target -- a
        Lyapunov function every useful move decreases.  It deliberately ranks
        *before* the violation count: a move that collapses one group's large
        excess (opening the path to fixing every group) must beat a move that
        nudges several groups just under the bound while parking another at a
        large excess forever.  The worst group's excess is part of the sum, so
        no move can trade it away unpunished.
        """
        spreads = ctx.group_spreads()
        violations = 0
        worst = 0.0
        potential = 0.0
        for g, spread in spreads.items():
            bound = ctx.bound_for(g)
            if spread > bound + 1e-9:
                violations += 1
            worst = max(worst, spread - bound)
            potential += max(0.0, spread - ctx.config.safety * bound)
        return (potential, max(0.0, worst), violations)

    def _greedy_polish(self, ctx: OptContext, outcome: PassOutcome) -> None:
        """Trim over-booked edges one exact-evaluated move at a time.

        The alignment sweep's per-node guards are local: they cannot see that
        trimming a late subtree's over-booked edge also lowers every group's
        roof through the shared upstream resistance.  Here each candidate trim
        is scored by recomputing the true per-group spreads, so exactly those
        globally-beneficial moves are found; each accepted move may then be
        followed by an alignment sweep to re-balance around the new geometry.
        """
        tree = ctx.tree
        required = ctx.required_lengths()

        current = self._polish_score(ctx)
        for _ in range(ctx.config.polish_steps):
            if current[1] <= 0.0 and current[2] == 0:
                break
            caps = ctx.elmore()[0].tolist()
            columns = TreeColumns(tree)
            moves = (
                self._trim_moves(required, caps, columns)
                + self._extend_moves(ctx, caps, columns)
                + self._spine_moves(ctx, required, caps, columns)
            )
            # Each candidate move is evaluated *together with* the alignment
            # sweep that re-balances the tree around it: a roof trim usually
            # drags other groups' floor sinks down with it and only pays off
            # once the sweep has re-aligned them, so judging the move alone
            # would reject every useful one.  The probe is undone from the
            # step's edge lengths either way.
            best = None
            baseline = columns.lengths
            baseline_column = columns.arena.edge_lengths
            spent_baseline = ctx.wire_net_added
            for move in moves:
                # Fresh probe per candidate; the probe's budget spend is
                # rolled back with the edge lengths so every candidate sees
                # the same remaining budget the accepted move will see.
                probe = PassOutcome(name=self.name, iteration=outcome.iteration)
                net = sum(delta for _, delta in move)
                if net > ctx.budget_left():
                    continue
                for nid, delta in move:
                    tree.set_edge_length(nid, baseline[nid] + delta)
                ctx.spend_wire(net)
                self._alignment_sweep(ctx, probe)
                outcome.sweeps_by_levels += probe.sweeps_by_levels
                outcome.sweeps_by_nodes += probe.sweeps_by_nodes
                score = self._polish_score(ctx)
                probed = tree.as_arena().edge_lengths
                for node_id in np.flatnonzero(probed != baseline_column).tolist():
                    tree.set_edge_length(node_id, baseline[node_id])
                ctx.wire_net_added = spent_baseline
                if score < current and (best is None or score < best[0]):
                    best = (score, move)
            if best is None:
                break
            score, move = best
            for nid, delta in move:
                tree.set_edge_length(nid, baseline[nid] + delta)
                ctx.spend_wire(delta)
                if delta >= 0.0:
                    outcome.wire_added += delta
                else:
                    outcome.wire_trimmed += -delta
                outcome.edges_modified += 1
            self._alignment_sweep(ctx, outcome)
            current = self._polish_score(ctx)

    @staticmethod
    def _trim_moves(
        required: Dict[int, float], caps: List[float], columns: TreeColumns
    ) -> List[List[Tuple[int, float]]]:
        """Candidate trims of over-booked edges, by rough delay leverage."""
        ranked: List[Tuple[float, int, float]] = []
        for nid, needed in required.items():
            avail = columns.lengths[nid] - needed
            if avail > _LEN_TOL:
                ranked.append((avail * (caps[nid] + 1.0), nid, avail))
        ranked.sort(reverse=True)
        moves: List[List[Tuple[int, float]]] = []
        for _, nid, avail in ranked[: _POLISH_CANDIDATES]:
            moves.append([(nid, -avail)])
            moves.append([(nid, -avail / 2.0)])
        return moves

    def _extend_moves(
        self, ctx: OptContext, caps: List[float], columns: TreeColumns
    ) -> List[List[Tuple[int, float]]]:
        """Candidate extensions raising a violating group's slowest deficits.

        The alignment sweep cannot raise a subtree whose groups pull in
        opposite directions; here each floor sink of a violating group
        proposes extensions along its root path, sized to the smallest
        deficit in the respective subtree so no sink overshoots its roof.
        """
        tree = ctx.tree
        tech = ctx.technology
        unit_cap = tech.unit_capacitance
        groups = ctx.sink_groups
        node_delays = ctx.elmore()[1]
        lo, hi = groups.ranges(node_delays)
        roof = dict(zip(groups.keys, hi.tolist()))
        violating = {
            g
            for g, low, high in zip(groups.keys, lo.tolist(), hi.tolist())
            if high - low > ctx.bound_for(g) + 1e-9
        }
        if not violating:
            return []

        # Deficit of every sink against its own group roof; min over subtrees.
        delays = node_delays.tolist()
        group_of = ctx.node_groups
        sinks = groups.sink_ids.tolist()
        deficit: Dict[int, float] = {}
        for sid in sinks:
            g = group_of[sid]
            target = roof[g] - ctx.config.safety * ctx.bound_for(g)
            deficit[sid] = max(0.0, target - delays[sid])
        min_def: Dict[int, float] = {}
        for nid in reversed(columns.order):
            if columns.is_sink[nid]:
                min_def[nid] = deficit[nid]
            else:
                min_def[nid] = min(
                    (min_def[cid] for cid in columns.children(nid)), default=0.0
                )

        floor_sinks: List[Tuple[float, int]] = []
        for sid in sinks:
            if group_of[sid] in violating and deficit[sid] > _TOL:
                floor_sinks.append((-deficit[sid], sid))
        floor_sinks.sort()

        moves: List[List[Tuple[int, float]]] = []
        seen = set()
        per_group_budget = max(1, _POLISH_CANDIDATES // (2 * len(violating)))
        taken: Dict[int, int] = {}
        for _, sink_id in floor_sinks:
            g = group_of[sink_id]
            if taken.get(g, 0) >= per_group_budget:
                continue
            taken[g] = taken.get(g, 0) + 1
            for nid in tree.path_to_root(sink_id):
                if columns.parents[nid] < 0 or nid in seen:
                    continue
                want = min_def[nid]
                if want <= _TOL:
                    break  # an ancestor subtree contains a sink at its roof
                seen.add(nid)
                x = wire_length_for_delay(
                    want, caps[nid] + unit_cap * columns.lengths[nid], tech
                )
                if x > _LEN_TOL:
                    moves.append([(nid, x)])
        return moves

    def _spine_moves(
        self,
        ctx: OptContext,
        required: Dict[int, float],
        caps: List[float],
        columns: TreeColumns,
    ) -> List[List[Tuple[int, float]]]:
        """Composite moves lowering a roof sink's *spine* while holding its
        side subtrees in place.

        When a violating group's roof sink sits in a mixed-group cluster, a
        plain trim of the shared over-booked edge drops the whole cluster --
        and the alignment sweep promptly re-extends that same edge to rescue
        the other groups, undoing the trim.  The composite move encodes the
        feasible repair directly: trim the over-booked path edge *and*
        re-extend every side subtree hanging off the path below it by a
        delay-matched amount, so only the spine down to the roof sink drops.
        """
        tree = ctx.tree
        tech = ctx.technology
        unit_cap = tech.unit_capacitance
        lengths = columns.lengths
        groups = ctx.sink_groups
        delays = ctx.elmore()[1]
        lo, hi = groups.ranges(delays)
        roofs = groups.roof_sinks(delays, hi)

        moves: List[List[Tuple[int, float]]] = []
        for g, low, high, roof in sorted(
            zip(groups.keys, lo.tolist(), hi.tolist(), roofs.tolist())
        ):
            excess = high - low - ctx.bound_for(g)
            if excess <= 1e-9:
                continue
            path = tree.path_to_root(roof)
            for index, nid in enumerate(path):
                if columns.parents[nid] < 0 or nid not in required:
                    continue
                avail = lengths[nid] - required[nid]
                if avail <= _LEN_TOL:
                    continue
                length = lengths[nid]
                downstream = caps[nid]
                for fraction in (1.0, 0.5):
                    y = avail * fraction
                    drop = tech.unit_resistance * y * (
                        unit_cap * length + downstream - unit_cap * y / 2.0
                    )
                    move = [(nid, -y)]
                    # Compensate every subtree hanging off the spine at or
                    # below the trimmed edge, so only the roof branch drops.
                    spine = set(path)
                    for below in path[: index + 1]:
                        for cid in columns.children(below):
                            if cid in spine:
                                continue
                            x = wire_length_for_delay(
                                drop, caps[cid] + unit_cap * lengths[cid], tech
                            )
                            if x > _LEN_TOL:
                                move.append((cid, x))
                    moves.append(move)
        return moves


class _Sweep:
    """One alignment sweep over arrays, one node set at a time.

    Per node: the capacitance seen from upstream, and per group (the
    ``G`` columns of ``ctx.sink_groups``) the ``[lo, hi]`` delays from the
    node to its sinks with a ``present`` mask, the merge loop's layout.
    :meth:`process` takes nodes whose children are all done -- one height
    level, or one node -- and repeats the per-node walk's expressions term
    for term: ``wire_delay`` for the shift, the trim inversion and
    ``wire_length_for_delay`` for the edits, and ``min``/``max`` folds for
    windows, targets and the merge.

    The walk visits the nodes in reversed preorder, and nodes of one level
    interact only through the wire budget: an extension stops its node when
    ``budget_left() <= _LEN_TOL`` and is clamped to what is left.  So
    :meth:`run` sweeps level by level under an assumption about the budget
    -- that it never binds or, once spent, that it stops every node at its
    first extension -- recording every edit with its place in the walk
    (reversed preorder; in a node the trims, then each extension round, by
    slot), and replays the edits in that order to check it.  Everything
    before the first node where the assumption fails is what the walk
    books.  That node is rerun alone with the budget checked as it goes,
    and the sweep resumes level by level over the next nodes of the walk: a
    look-ahead of twice the distance since the previous such node (at least
    ``_RESUME_WINDOW``), which doubles while the assumption holds.
    """

    def __init__(self, ctx: OptContext) -> None:
        arena = self.arena = ctx.tree.as_arena()
        tech = ctx.technology
        self.r = tech.unit_resistance
        self.c = tech.unit_capacitance
        self.lengths = arena.edge_lengths.copy()
        self.has_required, self.required = ctx.required_columns()
        groups = ctx.sink_groups
        safety = ctx.config.safety
        #: ``safety * bound`` of every group column.
        self.window = np.array([safety * ctx.bound_for(g) for g in groups.keys], dtype=np.float64)
        n, width = arena.num_nodes, len(groups.keys)
        self.caps = np.zeros(n, dtype=np.float64)
        self.lo = np.zeros((n, width), dtype=np.float64)
        self.hi = np.zeros((n, width), dtype=np.float64)
        self.present = np.zeros((n, width), dtype=bool)
        self.present[groups.sink_ids, groups.slots] = True
        self.caps[groups.sink_ids] = arena.sink_caps[groups.sink_ids]
        self.counts = arena.child_counts()
        self.merging = (arena.kinds != SINK_KIND) & arena.reachable_mask()
        #: Every merge node's place in the walk (reversed preorder).
        self.position = np.zeros(n, dtype=np.int64)
        self.budget = ctx.wire_budget
        #: Net wire added by the spends booked so far, in the walk's order.
        self.spent = ctx.wire_net_added
        #: What :meth:`process` assumes of the budget (``_UNLIMITED``,
        #: ``_EXHAUSTED``), or ``_LIVE``: it checks and clamps against it,
        #: one node at a time.
        self.mode = _UNLIMITED
        self._records: List[tuple] = []

    def run(self) -> int:
        """Sweep the tree; returns how many nodes the wire budget bound."""
        order = self.arena.subtree_rows([self.arena.root])[0][::-1]
        walk = order[self.merging[order]]
        self.position[walk] = np.arange(len(walk))
        start, window, bound, last = 0, len(walk), 0, 0
        while start < len(walk):
            # A prefix of what is left of the walk holds every child of its
            # nodes that is not done yet, so it can go level by level.
            chunk = np.zeros(self.arena.num_nodes, dtype=bool)
            chunk[walk[start : start + window]] = True
            spent = self.budget - self.spent <= _LEN_TOL
            self.mode = _EXHAUSTED if spent else _UNLIMITED
            for level in self.arena.height_levels():
                nodes = level[chunk[level]]
                if nodes.size:
                    self.process(nodes)
            binding = self._first_binding(chunk)
            if binding is None:
                start, window = start + window, 2 * window
                continue
            bound += 1
            node, self.spent = binding
            self._discard(chunk & (self.position >= self.position[node]))
            self.mode = _LIVE
            self.process(np.array([node], dtype=np.int64))
            gap, last = self.position[node] - last, self.position[node]
            start, window = last + 1, max(_RESUME_WINDOW, 2 * gap)
        return bound

    def _first_binding(self, nodes: np.ndarray):
        """Replay the edits of the nodes of mask ``nodes`` in the walk's
        order from ``self.spent``: the first node whose extension the budget
        treats otherwise than assumed, and the net wire before that node's
        edits; None (with ``self.spent`` past them all) when there is none."""
        if math.isinf(self.budget):
            return None
        spent = self.spent
        node_spent, last = spent, -1
        for node, _, amount, kind in self._ordered(nodes):
            if node != last:
                node_spent, last = spent, node
            if kind == _TRIM:
                spent += -amount
                continue
            left = self.budget - spent
            if kind == _STOP:
                if left > _LEN_TOL:
                    return node, node_spent
            elif left <= _LEN_TOL or amount > left:
                return node, node_spent
            else:
                spent += amount
        self.spent = spent
        return None

    def _discard(self, nodes: np.ndarray) -> None:
        """Forget what was computed for the nodes of mask ``nodes``: their
        spends, and the lengths they gave their children's edges."""
        self._records = [
            tuple(column[~nodes[record[0]]] for column in record) for record in self._records
        ]
        kids = self.arena.children_of(np.flatnonzero(nodes))[0]
        self.lengths[kids] = self.arena.edge_lengths[kids]

    def _ordered(self, nodes: np.ndarray = None):
        """``(node, edge, amount, kind)`` of the recorded edits in the walk's
        order; only those of the nodes of mask ``nodes`` if given."""
        if not self._records:
            return []
        node, phase, slot, kid, amount, kind = (
            np.concatenate(column) for column in zip(*self._records)
        )
        order = np.lexsort((slot, phase, self.position[node]))
        if nodes is not None:
            order = order[nodes[node[order]]]
        return list(
            zip(node[order].tolist(), kid[order].tolist(), amount[order].tolist(),
                kind[order].tolist())
        )

    def spends(self) -> List[Tuple[int, float, bool]]:
        """``(edge, amount, is_extension)`` of every edit, in the walk's order."""
        return [
            (kid, amount, kind == _EXTEND)
            for _, kid, amount, kind in self._ordered()
            if kind != _STOP
        ]

    def _record(self, nodes, phase, slot, kids, amounts, kind) -> None:
        count = len(kids)
        self._records.append(
            (nodes, np.full(count, phase), np.full(count, slot), kids, amounts,
             np.full(count, kind))
        )

    # ------------------------------------------------------------------
    def process(self, nodes: np.ndarray) -> None:
        """Shift, align, merge and decouple ``nodes``."""
        r, c = self.r, self.c
        counts = self.counts[nodes]
        kids, owner = self.arena.children_of(nodes)
        first = np.cumsum(counts) - counts
        slots = int(counts.max()) if counts.size else 0
        length = self.lengths[kids]
        kid_caps = self.caps[kids]
        edge = (r * length * (c * length / 2.0 + kid_caps))[:, None]
        lo = self.lo[kids] + edge
        hi = self.hi[kids] + edge
        present = self.present[kids]

        fewest = int(counts.min()) if counts.size else 0

        def slot_rows(rows, slot):
            """Of ``rows`` (positions in ``nodes``), those with a child at
            ``slot``, that child's position in ``kids``, and where they are
            in ``rows``."""
            if slot < fewest:
                return rows, first[rows] + slot, np.arange(len(rows))
            have = np.flatnonzero(counts[rows] > slot)
            rows = rows[have]
            return rows, first[rows] + slot, have

        everyone = np.arange(len(nodes))
        groups = np.zeros((len(nodes), self.lo.shape[1]), dtype=np.int64)
        for slot in range(slots):
            rows, at, _ = slot_rows(everyone, slot)
            groups[rows] += present[at]
        shared = groups >= 2
        aligning = np.flatnonzero(shared.any(axis=1))
        if aligning.size:
            self._align(nodes, kids, owner, slots, slot_rows, aligning, shared, lo, hi, present)

        merged_lo = np.full(groups.shape, np.inf)
        merged_hi = np.full(groups.shape, -np.inf)
        total = self.arena.sink_caps[nodes]
        for slot in range(slots):
            rows, at, _ = slot_rows(everyone, slot)
            merged_lo[rows] = np.minimum(merged_lo[rows], np.where(present[at], lo[at], np.inf))
            merged_hi[rows] = np.maximum(merged_hi[rows], np.where(present[at], hi[at], -np.inf))
            child = kids[at]
            total[rows] = total[rows] + (self.caps[child] + c * self.lengths[child])
        mask = self.arena.buffer_mask
        if mask is not None and mask[nodes].any():
            # The Elmore engine's decoupling: upstream sees only the buffer
            # input pin, and every sink below arrives one stage later.
            rows = np.flatnonzero(mask[nodes])
            buffered = nodes[rows]
            stage = self.arena.buffer_intrinsics[buffered] + (
                self.arena.buffer_drive_res[buffered] * total[rows]
            )
            merged_lo[rows] += stage[:, None]
            merged_hi[rows] += stage[:, None]
            total[rows] = self.arena.buffer_input_caps[buffered]
        placed = groups > 0
        self.lo[nodes] = np.where(placed, merged_lo, 0.0)
        self.hi[nodes] = np.where(placed, merged_hi, 0.0)
        self.present[nodes] = placed
        self.caps[nodes] = total

    def _align(self, nodes, kids, owner, slots, slot_rows, aligning, shared, lo, hi, present):
        """Align the children's intervals at the ``aligning`` nodes: trim
        late-running children first (frees wire), then lengthen early ones
        in up to three rounds, since raising one child can raise another's
        target."""
        r, c = self.r, self.c
        window = self.window
        usable = shared[owner] & present  # (kid, group): shared and present
        # Trims, one slot at a time: a trim moves the windows of later slots.
        for slot in range(slots):
            rows, at, _ = slot_rows(aligning, slot)
            child = kids[at]
            avail = self.lengths[child] - self.required[child]
            keep = self.has_required[child] & (avail > _LEN_TOL)
            rows, at, child, avail = rows[keep], at[keep], child[keep], avail[keep]
            if not rows.size:
                continue
            others = np.full((len(rows), len(window)), -np.inf)
            for other in range(slots):
                if other != slot:
                    _, other_at, index = slot_rows(rows, other)
                    others[index] = np.maximum(
                        others[index], np.where(present[other_at], hi[other_at], -np.inf)
                    )
            valid = usable[at]
            slack = np.where(valid, lo[at] - (others - window), np.inf).min(axis=1)
            ahead = np.maximum(0.0, np.where(valid, hi[at] - others, -np.inf).max(axis=1))
            keep = np.isfinite(slack) & (slack > _TOL) & (ahead > _TOL)
            rows, at, child, avail = rows[keep], at[keep], child[keep], avail[keep]
            if not rows.size:
                continue
            length = self.lengths[child]
            y, actual = _trim_arrays(
                length, self.caps[child], np.minimum(slack[keep], ahead[keep]), avail, r, c
            )
            keep = y > _LEN_TOL
            rows, at, child, y, actual = rows[keep], at[keep], child[keep], y[keep], actual[keep]
            if not rows.size:
                continue
            self.lengths[child] = length[keep] - y
            lo[at] -= actual[:, None]
            hi[at] -= actual[:, None]
            self._record(nodes[rows], 0, slot, child, y, _TRIM)
            if self.mode == _LIVE:
                self.spent += -y.item()

        active = aligning
        for round_ in range(1, 4):
            targets = np.full((len(active), len(window)), -np.inf)
            for slot in range(slots):
                _, at, index = slot_rows(active, slot)
                targets[index] = np.maximum(
                    targets[index], np.where(present[at], hi[at], -np.inf)
                )
            extended = np.zeros(len(active), dtype=bool)
            stopped = np.zeros(len(active), dtype=bool)
            for slot in range(slots):
                rows, at, index = slot_rows(active, slot)
                need = np.where(usable[at], targets[index] - window - lo[at], -np.inf)
                need = np.maximum(0.0, need.max(axis=1))
                keep = (need > _TOL) & ~stopped[index]
                rows, at, index, need = rows[keep], at[keep], index[keep], need[keep]
                if not rows.size:
                    continue
                child = kids[at]
                if self.mode == _EXHAUSTED:
                    stopped[index] = True
                    self._record(nodes[rows], round_, slot, child, np.zeros(len(rows)), _STOP)
                    continue
                length = self.lengths[child]
                x = _length_for_delay(need, self.caps[child] + c * length, r, c)
                achieved = need
                if self.mode == _LIVE:  # one node: at most one child per slot
                    left = self.budget - self.spent
                    if left <= _LEN_TOL:
                        return
                    if x.item() > left:
                        # Clamp to the global net-added budget; the
                        # intervals then track the delay actually realised.
                        x = np.array([left])
                        achieved = r * x * (c * length + c * x / 2.0 + self.caps[child])
                    self.spent += x.item()
                self.lengths[child] = length + x
                lo[at] += achieved[:, None]
                hi[at] += achieved[:, None]
                extended[index] = True
                self._record(nodes[rows], round_, slot, child, x, _EXTEND)
            active = active[extended]
            if not active.size:
                return


def _trim_arrays(length, downstream_cap, target, avail, r, c):
    """Per row, the trim whose delay reduction equals ``target``, capped at
    ``avail``, and the reduction it achieves: ``(trim, reduction)``.

    Shortening a wire of ``length`` driving ``downstream_cap`` by ``y``
    removes ``r * y * (C + c*length - c*y/2)`` of Elmore delay; this inverts
    that expression.
    """
    linear = r * (downstream_cap + c * length)
    discriminant = linear * linear - 2.0 * r * c * target
    y = avail.copy()
    real = discriminant >= 0.0
    y[real] = np.minimum(
        avail[real], (linear[real] - np.sqrt(discriminant[real])) / (r * c)
    )
    y = np.maximum(0.0, np.minimum(y, length))
    actual = r * y * (downstream_cap + c * length - c * y / 2.0)
    return y, actual


def _length_for_delay(target, downstream_cap, r, c):
    """:func:`~repro.delay.wire.wire_length_for_delay` of positive targets."""
    a = r * c / 2.0
    b = r * downstream_cap
    discriminant = b * b + 4.0 * a * target
    return (2.0 * target) / (b + np.sqrt(discriminant))
