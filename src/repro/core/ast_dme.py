"""The AST-DME router (Fig. 6 of the paper) and its configuration.

``AstDme.route`` runs the full two-phase construction through
:meth:`AstDme.grow`, the one construction step, which the ECO engine's
re-merge runs as well:

1. *Bottom-up merging.*  Every sink starts as a one-node subtree.  In each
   pass a merging-order policy proposes disjoint nearest pairs; the pass
   plans all of its merges at once (:func:`repro.core.merge_batch.plan_merges`,
   the batched form of the scalar ``plan_merge`` that
   ``tests/reference_merge.py`` keeps as its oracle), which dispatches on
   whether the subtrees share sink groups and produces each new root's
   placement locus, the two wire lengths (possibly snaked) and the merged
   per-group delay intervals.  Merging continues until one subtree
   remains, which is then connected to the clock source.  This loop is
   :meth:`AstDme.merge_rows`.
2. *Top-down embedding.*  Concrete locations are chosen for every new merge
   node, one depth level at a time (:func:`repro.cts.embedding.embed_levels`);
   booked wire lengths are never changed, so all delays and skews decided
   bottom-up are preserved.  When the instance carries routing blockages the
   embedding is obstacle aware: locations are chosen by blockage-avoiding
   detour distance and edges whose booked wire cannot cover the detour are
   extended (the total extension is reported as
   ``MergeStats.obstacle_detour``).

The merge loop holds the active subtrees as struct-of-arrays rows
(:class:`SubtreeRows`, ``m`` rows over ``G`` dense routing groups):

``loci``
    ``(m, 4)`` TRR interval rows ``(ulo, uhi, vlo, vhi)`` in rotated
    coordinates.
``cap`` / ``node_id``
    ``(m,)`` downstream capacitance and clock-tree node id.
``delays`` / ``present``
    ``(m, G, 2)`` per-group delay intervals with a ``(m, G)`` presence mask
    (entries are zero and never read where the mask is False).

The merges of an unconstrained (cross-group) pair keep their split along the
corridor pending until the merged subtree's next partner is known.  Each pass
resolves its pending splits in two calls of
:func:`repro.core.merge_batch.resolve_split`, the a-sides first, from a table
of the live pendings that row ``i`` reaches through ``slot[i]``.  The rows and
the table live in buffers allocated once per loop, compacted in place after
each pass.  The built nodes accumulate in flat arrays indexed by node id
(:class:`MergedTree`) and become rows of a :class:`~repro.cts.arena.TreeArena`
once, at the end, which the embedding places: the routed
:class:`~repro.cts.tree.ClockTree` adopts that arena's columns.

Running the router with ``single_group=True`` ignores the instance's grouping
and yields the conventional bounded-skew (EXT-BST) or zero-skew (greedy-DME)
trees used as baselines in the paper's tables.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.opt.report import OptReport

from repro.circuits.instance import ClockInstance, SinkTable
from repro.core.group_constraints import GroupAssociation, SkewConstraints
from repro.core.merge_batch import (
    CASE_LABELS,
    DISJOINT_CODE,
    BatchMergePlan,
    merge_loci,
    plan_merges,
    resolve_split,
)
from repro.core.merging_order import MergeOrderPolicy
from repro.cts.arena import INTERNAL_KIND, SINK_KIND, SOURCE_KIND, TreeArena
from repro.cts.embedding import embed_levels
from repro.cts.tree import ClockTree
from repro.delay.elmore import SubtreeSummary
from repro.delay.technology import Technology
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from repro.obs.trace import get_tracer

__all__ = [
    "AstDmeConfig",
    "MergeStats",
    "RoutingResult",
    "SubtreeRows",
    "MergedTree",
    "AstDme",
    "point_loci",
    "copied_loci",
]


@dataclass(frozen=True)
class AstDmeConfig:
    """Tunable parameters of the AST-DME router."""

    #: Intra-group skew bound in picoseconds (the paper uses 10 ps).
    skew_bound_ps: float = 10.0
    #: Merge several disjoint nearest pairs per pass (Edahiro multi-merge).
    multi_merge: bool = True
    #: Fraction of possible pairs merged per pass in multi-merge mode.
    merge_fraction: float = 0.5
    #: Weight of the delay-target merging-order enhancement (0 disables it).
    delay_target_weight: float = 0.0
    #: KD-tree candidates examined per subtree during pair selection.
    neighbor_candidates: int = 8
    #: Fraction of the intra-group skew bound each cross-group merge may spend
    #: as positional freedom when its split is resolved lazily (see
    #: repro.core.merge_batch.resolve_split).  Smaller values limit the slack
    #: later shared-group merges declare in ``MergeStats.max_violation`` when
    #: no offset keeps every shared group within its bound, but do not remove
    #: it; larger values chase wirelength more aggressively.
    sdr_skew_budget: float = 0.45

    def __post_init__(self) -> None:
        # Written so NaN fails too; an infinite budget stays allowed.
        if not self.sdr_skew_budget >= 0.0:
            raise ValueError("sdr_skew_budget must be non-negative")

    def order_policy(self) -> MergeOrderPolicy:
        """The merging-order policy implied by this configuration."""
        return MergeOrderPolicy(
            multi_merge=self.multi_merge,
            merge_fraction=self.merge_fraction,
            delay_target_weight=self.delay_target_weight,
            neighbor_candidates=self.neighbor_candidates,
        )

    def constraints(self) -> SkewConstraints:
        """The intra-group skew constraints implied by this configuration."""
        return SkewConstraints.bounded_ps(self.skew_bound_ps)


@dataclass
class MergeStats:
    """Counters collected during the bottom-up phase."""

    passes: int = 0
    merges_by_case: Dict[str, int] = field(default_factory=dict)
    snaked_merges: int = 0
    total_detour: float = 0.0
    max_violation: float = 0.0
    #: Wall time spent selecting merge pairs (the neighbour engine).
    select_seconds: float = 0.0
    #: Wall time spent resolving pendings, planning merges and recording the
    #: new nodes (everything in a merging pass after pair selection).
    merge_seconds: float = 0.0
    #: Wall time spent embedding locations and building the ClockTree.
    embed_seconds: float = 0.0
    #: Full neighbour-index rebuilds / incremental repairs.
    neighbor_full_rebuilds: int = 0
    neighbor_incremental_passes: int = 0
    #: Extra wire added at embedding time to route around blockages (0 for
    #: obstacle-free instances).
    obstacle_detour: float = 0.0

    @property
    def total_merges(self) -> int:
        return sum(self.merges_by_case.values())


@dataclass
class RoutingResult:
    """Output of one routing run."""

    tree: ClockTree
    instance: ClockInstance
    stats: MergeStats
    association: GroupAssociation
    #: Placement loci as float64 ``(ulo, uhi, vlo, vhi)`` rows by node id, one
    #: per node the router built.  A node without a locus has a NaN row: the
    #: sinks, the source and nodes ECO copied without one.  A node added to
    #: the tree after routing has an id past the rows and no locus.
    loci: np.ndarray
    elapsed_seconds: float
    #: Report of the post-construction optimizer (repro.opt), when it ran.
    opt: Optional["OptReport"] = None
    #: Whether the run ignored the instance's grouping (the EXT-BST /
    #: greedy-DME baselines); consumers like the optimizer must then treat
    #: all sinks as one group.
    single_group: bool = False
    #: The skew constraints the router enforced (on group 0 alone when
    #: ``single_group``); the repair derives its bounds from them.
    constraints: Optional[SkewConstraints] = None

    @property
    def wirelength(self) -> float:
        """Total wirelength of the routed tree (snaking included):
        ``ClockTree.total_wirelength``."""
        return self.tree.total_wirelength()


@dataclass
class SubtreeRows:
    """Subtrees to merge, one row each (see the module docstring).

    ``group_ids[k]`` is the routing group id of dense column ``k``; the ids
    ascend, so the dense order is the group order.
    """

    loci: np.ndarray
    cap: np.ndarray
    delays: np.ndarray
    present: np.ndarray
    node_id: np.ndarray
    group_ids: List[int]


@dataclass
class MergedTree:
    """The nodes :meth:`AstDme.merge_rows` built, as flat arrays by node id.

    Ids ``first_id .. source_id - 1`` are the new merge nodes in creation
    order and ``source_id`` is the clock source; ``child_a``/``child_b`` and
    ``loci`` hold their children and placement loci (``loci`` is NaN on
    every other row).  ``parent`` and ``edge`` hold the parent and booked
    wire of every node below them, the input rows' nodes included.
    """

    child_a: np.ndarray
    child_b: np.ndarray
    parent: np.ndarray
    edge: np.ndarray
    loci: np.ndarray
    first_id: int
    source_id: int

    def append_to(self, prefix: TreeArena, source: Point) -> Tuple[TreeArena, np.ndarray]:
        """``prefix`` grown by the merge nodes and the source, and the loci.

        ``prefix`` must hold exactly the ``first_id`` nodes the rows refer
        to, so the new nodes get the ids the loop gave them; the rows' nodes
        are adopted by their merge nodes.  The merge nodes are left unplaced,
        for the embedding (:func:`~repro.cts.embedding.embed_levels`, with
        :attr:`loci` as its locus rows).  The loci returned are :attr:`loci`
        itself, one row per node of the grown arena.
        """
        if prefix.num_nodes != self.first_id:
            raise ValueError(
                "the prefix holds %d nodes, the merge started at id %d"
                % (prefix.num_nodes, self.first_id)
            )
        first, last = self.first_id, self.source_id
        merges = last - first
        adopted = self.parent[:first] >= 0
        parents = self.parent.copy()
        parents[:first] = np.where(adopted, parents[:first], prefix.parents)
        edges = self.edge.copy()
        edges[:first] = np.where(adopted, edges[:first], prefix.edge_lengths)
        unplaced = np.full(merges, np.nan)
        arena = prefix.appended(
            kinds=np.append(np.full(merges, INTERNAL_KIND, dtype=np.int8), SOURCE_KIND),
            parents=parents,
            edge_lengths=edges,
            xs=np.append(unplaced, source.x),
            ys=np.append(unplaced, source.y),
            has_location=np.append(np.zeros(merges, dtype=bool), True),
            sink_caps=np.zeros(merges + 1),
            groups=np.zeros(merges + 1, dtype=np.int64),
            has_group=np.zeros(merges + 1, dtype=bool),
            child_counts=np.append(np.full(merges, 2, dtype=np.int64), 1),
            child_ids=np.append(
                np.stack((self.child_a[first:last], self.child_b[first:last]), axis=1),
                self.child_a[last],
            ),
            root=last,
            labels={merges: "clk"},
        )
        return arena, self.loci


def point_loci(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``(m, 4)`` locus rows of single points: ``Trr.from_point``, row-wise."""
    u = xs + ys
    v = xs - ys
    return np.stack((u, u, v, v), axis=1)


def copied_loci(loci: np.ndarray, copied_from: np.ndarray) -> np.ndarray:
    """The locus rows of the nodes :meth:`TreeArena.gather_subtrees` copied
    from ``copied_from``: row ``k`` is node ``copied_from[k]``'s row of
    ``loci``, NaN for an id past its rows (ECO and the h-tree carry their
    copies' loci with it)."""
    rows = np.full((len(copied_from), 4), np.nan)
    known = copied_from < len(loci)
    rows[known] = loci[copied_from[known]]
    return rows


class AstDme:
    """Associative skew clock router (the paper's contribution)."""

    def __init__(
        self,
        config: AstDmeConfig = AstDmeConfig(),
        constraints: Optional[SkewConstraints] = None,
    ) -> None:
        self.config = config
        self._constraints = constraints

    # ------------------------------------------------------------------
    def route(
        self,
        instance: ClockInstance,
        single_group: bool = False,
    ) -> RoutingResult:
        """Route ``instance`` and return the embedded tree plus statistics.

        Args:
            instance: the problem to solve.
            single_group: when True the instance's grouping is ignored for
                routing purposes (every sink constrained against every other),
                which reproduces the conventional EXT-BST / greedy-DME
                baselines.  Sink nodes of the resulting tree still carry the
                original group ids so that skew reports stay comparable.
        """
        start = time.perf_counter()
        constraints = self._constraints or self.config.constraints()
        obstacles = instance.obstacle_set() if instance.has_obstacles else None
        stats = MergeStats()
        association = GroupAssociation(instance.groups())
        group_ids = [0] if single_group else instance.groups()
        tree, loci = self.grow(
            ClockTree(technology=instance.technology).as_arena(),
            instance.sinks,
            instance.source,
            group_ids,
            stats,
            association,
            obstacles,
        )
        return RoutingResult(
            tree=tree,
            instance=instance,
            stats=stats,
            association=association,
            loci=loci,
            elapsed_seconds=time.perf_counter() - start,
            single_group=single_group,
            constraints=constraints,
        )

    def grow(
        self,
        prefix: TreeArena,
        sinks: SinkTable,
        source: Point,
        group_ids: List[int],
        stats: MergeStats,
        association: GroupAssociation,
        obstacles: Optional[ObstacleSet] = None,
        stubs: Sequence[int] = (),
        stub_summary: Optional[SubtreeSummary] = None,
    ) -> Tuple[ClockTree, np.ndarray]:
        """Grow ``prefix`` into one tree over ``stubs`` and ``sinks``, driven from ``source``.

        This is the construction step of Fig. 6.  :meth:`route` runs it on an
        empty arena; the ECO engine runs it on the stitched clean subtrees.

        ``stubs`` are ids of placed subtree roots in ``prefix``; row ``k`` of
        ``stub_summary`` (:func:`~repro.delay.elmore.subtree_summary`)
        describes ``stubs[k]``.  The sinks (instance columns) take the ids
        after the prefix's nodes, in order, and carry their instance ids in
        the tree's ``sink_ids`` column.  With one group column, every sink
        falls in it; otherwise every sink's group must be one of
        ``group_ids``.

        Each stub and sink becomes one merge row at its point, and
        :meth:`merge_rows` merges them.  The sinks, the merge nodes and the
        source are appended to the prefix as arena rows and embedded
        top-down, level by level (:func:`~repro.cts.embedding.embed_levels`,
        obstacle aware with ``obstacles``); the detour extension goes to
        ``stats.obstacle_detour``.  The stubs' subtrees are not touched.
        Returns the tree (:meth:`TreeArena.to_clock_tree`) and its locus
        rows by node id (:attr:`MergedTree.loci`: NaN off the merge nodes,
        the prefix's rows included).
        """
        first = prefix.num_nodes
        n = len(sinks)
        stub_ids = np.asarray(stubs, dtype=np.int64)
        row_ids = np.concatenate((stub_ids, np.arange(first, first + n, dtype=np.int64)))
        xs = np.concatenate((prefix.xs[stub_ids], sinks.xs))
        ys = np.concatenate((prefix.ys[stub_ids], sinks.ys))
        present = np.zeros((n, len(group_ids)), dtype=bool)
        present[np.arange(n), _group_columns(sinks.groups, group_ids)] = True
        cap = sinks.caps
        delays = np.zeros((n, len(group_ids), 2), dtype=np.float64)
        if stub_summary is not None:
            cap = np.concatenate((stub_summary.caps, cap))
            delays = np.concatenate((stub_summary.delays, delays))
            present = np.concatenate((stub_summary.present, present))
        rows = SubtreeRows(point_loci(xs, ys), cap, delays, present, row_ids, group_ids)
        merged = self.merge_rows(rows, first + n, source, prefix.technology, stats, association)

        embed_start = time.perf_counter()
        with get_tracer().span("dme.embed") as embed_span:
            detours_before = 0 if obstacles is None else obstacles.detours_computed
            with_sinks = prefix.appended(
                kinds=np.full(n, SINK_KIND, dtype=np.int8),
                parents=np.concatenate((prefix.parents, np.full(n, -1, dtype=np.int64))),
                edge_lengths=np.concatenate((prefix.edge_lengths, np.zeros(n))),
                xs=sinks.xs,
                ys=sinks.ys,
                has_location=np.ones(n, dtype=bool),
                sink_caps=sinks.caps,
                groups=sinks.groups,
                has_group=np.ones(n, dtype=bool),
                child_counts=np.zeros(n, dtype=np.int64),
                child_ids=np.empty(0, dtype=np.int64),
                root=prefix.root,
                sink_ids=sinks.ids,
            )
            arena, loci = merged.append_to(with_sinks, source)
            arena, stats.obstacle_detour = embed_levels(arena, merged.loci, obstacles)
            tree = arena.to_clock_tree()
            embed_span.add("obstacle_detour", stats.obstacle_detour)
            detours_after = 0 if obstacles is None else obstacles.detours_computed
            embed_span.set(detours_computed=detours_after - detours_before)
        stats.embed_seconds += time.perf_counter() - embed_start
        return tree, loci

    def merge_rows(
        self,
        rows: SubtreeRows,
        first_id: int,
        source: Point,
        tech: Technology,
        stats: MergeStats,
        association: GroupAssociation,
    ) -> MergedTree:
        """Merge ``rows`` bottom-up into one tree and connect it to ``source``.

        The construction loop (Fig. 6): each pass selects disjoint nearest
        pairs, spends any deferred cross-group freedom now that the partners
        are known, plans every merge of the pass at once and numbers the new
        nodes from ``first_id`` in pair order.  The last subtree's pending
        split is resolved towards ``source`` before the source edge is
        booked.  The pass counters and timings go into ``stats`` and each
        merge's group association into ``association``.  :meth:`grow` runs
        it on one row per subtree stub and per sink.  The loop works on
        copies of the rows' arrays, so ``rows`` is left unchanged.
        """
        config = self.config
        constraints = self._constraints or config.constraints()
        r = tech.unit_resistance
        c = tech.unit_capacitance
        group_ids = rows.group_ids
        bounds = np.array([constraints.bound_for(g) for g in group_ids], dtype=np.float64)

        # The live rows are views [:m] of buffers allocated once; each pass
        # compacts them in place.  So is the table of pending splits, which
        # holds at most one entry per row.
        row_buffers = [
            np.array(column)
            for column in (rows.loci, rows.cap, rows.delays, rows.present, rows.node_id)
        ]
        loci, cap, delays, present, node_id = row_buffers
        m = int(node_id.shape[0])
        # Row i's pending split is table entry slot[i] (-1: none).
        slot_buffer = np.full(m, -1, dtype=np.int64)
        slot = slot_buffer
        table_buffers = None
        table = None

        # The built nodes: m - 1 merges and the source, after the first_id
        # nodes the rows refer to.
        total_nodes = first_id + m
        t_child_a = np.full(total_nodes, -1, dtype=np.int64)
        t_child_b = np.full(total_nodes, -1, dtype=np.int64)
        t_parent = np.full(total_nodes, -1, dtype=np.int64)
        t_edge = np.zeros(total_nodes, dtype=np.float64)
        t_loci = np.full((total_nodes, 4), np.nan)
        next_id = first_id

        selector = config.order_policy().make_selector()
        want_bias = config.delay_target_weight > 0.0

        def _resolve(rows_i: np.ndarray, targets: np.ndarray) -> None:
            """Resolve the pending splits of rows ``rows_i`` towards ``targets``."""
            p = _Pendings._make(column[slot[rows_i]] for column in table)
            d = p.distance
            split = resolve_split(
                p.locus_a, p.locus_b, d, p.cap_a, p.cap_b, p.balance, targets, r, c, p.budget
            )
            split_c = np.minimum(np.maximum(split, 0.0), d)
            resolved = merge_loci(p.locus_a, p.locus_b, split_c, d - split_c)
            delay_a = r * split_c * (c * split_c / 2.0 + p.cap_a)
            delay_b = r * (d - split_c) * (c * (d - split_c) / 2.0 + p.cap_b)
            shift = np.where(p.side_a, delay_a[:, None], delay_b[:, None])
            loci[rows_i] = resolved
            delays[rows_i] = np.where(
                present[rows_i][:, :, None], p.delays + shift[:, :, None], 0.0
            )
            t_edge[p.child_a] = split
            t_edge[p.child_b] = d - split
            t_loci[node_id[rows_i]] = resolved

        tracer = get_tracer()
        while m > 1:
            with tracer.span("dme.pass", index=stats.passes, subtrees=m) as pass_span:
                select_start = time.perf_counter()
                max_delays = (
                    np.where(present, delays[:, :, 1], -np.inf).max(axis=1)
                    if want_bias
                    else None
                )
                with tracer.span("dme.select"):
                    a_idx, b_idx = selector.pairs_for_pass_arrays(loci, node_id, max_delays)
                stats.select_seconds += time.perf_counter() - select_start
                num_pairs = len(a_idx)
                if not num_pairs:
                    raise RuntimeError("merging-order policy returned no pairs")
                stats.passes += 1
                pass_span.set(pairs=num_pairs)

                merge_start = time.perf_counter()
                with tracer.span("dme.merge") as merge_span:
                    # Spend deferred cross-group freedom now that the partners
                    # are known: the a-sides towards their partners' loci, then
                    # the b-sides towards the a-sides' updated loci.  The pairs
                    # are disjoint, so this is the pair-sequential order.
                    for side, partner in ((a_idx, b_idx), (b_idx, a_idx)):
                        waiting = slot[side] >= 0
                        if waiting.any():
                            _resolve(side[waiting], loci[partner[waiting]])

                    plan = plan_merges(
                        loci[a_idx],
                        loci[b_idx],
                        cap[a_idx],
                        cap[b_idx],
                        delays[a_idx],
                        delays[b_idx],
                        present[a_idx],
                        present[b_idx],
                        bounds,
                        r,
                        c,
                    )

                    # Record the new merge nodes: ids continue in pair order.
                    new_ids = np.arange(next_id, next_id + num_pairs, dtype=np.int64)
                    ca_ids = node_id[a_idx]
                    cb_ids = node_id[b_idx]
                    t_child_a[new_ids] = ca_ids
                    t_child_b[new_ids] = cb_ids
                    t_parent[ca_ids] = new_ids
                    t_parent[cb_ids] = new_ids
                    t_edge[ca_ids] = plan.ea
                    t_edge[cb_ids] = plan.eb
                    t_loci[new_ids] = plan.locus
                    next_id += num_pairs
                    _record_pass(stats, plan)
                    _associate(association, present[a_idx], present[b_idx], group_ids)

                    # New pendings.  The budget is a fraction of the tightest
                    # bound among the merged groups, so two independently
                    # resolved commitments of a group pair can still be
                    # reconciled within the bound when their subtrees merge.
                    is_fresh = (plan.case_codes == DISJOINT_CODE) & ~plan.snaked
                    fresh = np.flatnonzero(is_fresh)
                    ia, ib = a_idx[fresh], b_idx[fresh]
                    tightest = np.where(plan.present[fresh], bounds, np.inf).min(axis=1)
                    with np.errstate(invalid="ignore"):  # an infinite budget times 0
                        budget = config.sdr_skew_budget * tightest
                    fresh_table = _Pendings(
                        ca_ids[fresh], cb_ids[fresh], loci[ia], loci[ib],
                        plan.distance[fresh], cap[ia], cap[ib], plan.ea[fresh], budget,
                        np.where(present[ia][:, :, None], delays[ia], delays[ib]),
                        present[ia],
                    )

                    # Compact: survivors keep their order, merged rows append
                    # in pair order.  The table holds its entries in row order.
                    keep_mask = np.ones(m, dtype=bool)
                    keep_mask[a_idx] = False
                    keep_mask[b_idx] = False
                    keep = np.flatnonzero(keep_mask)
                    kept = slot[keep]
                    loci, cap, delays, present, node_id = _compact(
                        row_buffers,
                        keep,
                        (plan.locus, plan.cap, plan.delays, plan.present, new_ids),
                    )
                    if table_buffers is None:
                        table_buffers = [
                            np.empty((len(slot_buffer),) + new.shape[1:], dtype=new.dtype)
                            for new in fresh_table
                        ]
                    table = _Pendings._make(
                        _compact(table_buffers, kept[kept >= 0], fresh_table)
                    )
                    waiting = np.concatenate((kept >= 0, is_fresh))
                    m = len(waiting)
                    slot = slot_buffer[:m]
                    np.cumsum(waiting, out=slot)
                    slot -= 1
                    slot[~waiting] = -1
                    merge_span.add("nodes_merged", 2 * num_pairs)
                stats.merge_seconds += time.perf_counter() - merge_start

        # Source connection.
        if slot[0] >= 0:
            su = source.x + source.y
            sv = source.x - source.y
            _resolve(np.zeros(1, dtype=np.int64), np.array([[su, su, sv, sv]]))
        root = loci[0]
        root_trr = Trr(float(root[0]), float(root[1]), float(root[2]), float(root[3]))
        source_id = next_id
        root_id = int(node_id[0])
        t_child_a[source_id] = root_id
        t_parent[root_id] = source_id
        t_edge[root_id] = root_trr.distance_to_point(source)

        stats.neighbor_full_rebuilds = selector.full_rebuilds
        stats.neighbor_incremental_passes = selector.incremental_passes
        return MergedTree(
            child_a=t_child_a,
            child_b=t_child_b,
            parent=t_parent,
            edge=t_edge,
            loci=t_loci,
            first_id=first_id,
            source_id=source_id,
        )


#: The live pending splits of :meth:`AstDme.merge_rows`, one entry each: the
#: free split of an unconstrained merge, kept until the merged subtree's next
#: partner is known.  ``balance`` is the delay-balanced split and ``budget``
#: the useful-skew budget; ``delays`` holds both children's ``(P, G, 2)``
#: intervals, side a's groups where ``side_a`` (the sides share no group).
_Pendings = namedtuple(
    "_Pendings",
    "child_a child_b locus_a locus_b distance cap_a cap_b balance budget delays side_a",
)


def _group_columns(groups: np.ndarray, group_ids: List[int]) -> np.ndarray:
    """Each sink's dense group column: 0 with one column, else the position
    of its group in the ascending ``group_ids`` (KeyError for a group not
    there)."""
    if len(group_ids) == 1:
        return np.zeros(len(groups), dtype=np.int64)
    ids = np.asarray(group_ids, dtype=np.int64)
    columns = np.minimum(np.searchsorted(ids, groups), len(ids) - 1)
    missing = np.flatnonzero(ids[columns] != groups)
    if missing.size:
        raise KeyError(int(groups[missing[0]]))
    return columns


def _compact(buffers: List[np.ndarray], keep: np.ndarray, appended: Sequence[np.ndarray]):
    """Move rows ``keep`` (ascending) of each buffer to its front, in order,
    write the rows of the matching ``appended`` array after them, and return
    the live views."""
    kept = len(keep)
    end = kept + len(appended[0])
    live = []
    for buffer, new in zip(buffers, appended):
        buffer[:kept] = buffer[keep]
        buffer[kept:end] = new
        live.append(buffer[:end])
    return live


def _record_pass(stats: MergeStats, plan: BatchMergePlan) -> None:
    """Count one pass's merges into ``stats``, as if one pair at a time."""
    codes, first_seen, counts = np.unique(plan.case_codes, return_index=True, return_counts=True)
    for k in np.argsort(first_seen).tolist():
        label = CASE_LABELS[codes[k]]
        stats.merges_by_case[label] = stats.merges_by_case.get(label, 0) + int(counts[k])
    stats.snaked_merges += int(np.count_nonzero(plan.snaked))
    for detour in plan.detour[plan.snaked].tolist():
        stats.total_detour += detour
    stats.max_violation = max(stats.max_violation, float(plan.violation.max()))


def _associate(association: GroupAssociation, present_a, present_b, group_ids) -> None:
    """Associate every group of each merge with the smallest group of side a:
    once per distinct pair of presence masks, in first occurrence order (a
    repeated pattern joins no class), and not once all groups form one class."""
    if association.num_classes == 1 and all(g in association for g in group_ids):
        return
    masks = np.packbits(np.concatenate((present_a, present_b), axis=1), axis=1)
    keys = masks.view(np.dtype((np.void, masks.shape[1]))).ravel()
    for t in np.sort(np.unique(keys, return_index=True)[1]).tolist():
        sides = (present_a[t], present_b[t])
        groups = [group_ids[k] for side in sides for k in np.flatnonzero(side).tolist()]
        for group in groups[1:]:
            association.associate(groups[0], group)

