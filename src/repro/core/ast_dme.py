"""The AST-DME router (Fig. 6 of the paper) and its configuration.

``AstDme.route`` runs the full two-phase construction:

1. *Bottom-up merging.*  Every sink starts as a one-node subtree.  In each
   pass a merging-order policy proposes disjoint nearest pairs; the pass
   plans all of its merges at once (:func:`repro.core.merge_batch.plan_merges`,
   the batched form of :func:`repro.core.merge_cases.plan_merge`), which
   dispatches on whether the subtrees share sink groups and produces each new
   root's placement locus, the two wire lengths (possibly snaked) and the
   merged per-group delay intervals.  Merging continues until one subtree
   remains, which is then connected to the clock source.  This loop is
   :meth:`AstDme.merge_rows`; the ECO engine's re-merge runs it as well.
2. *Top-down embedding.*  Concrete locations are chosen for every internal
   node, one depth level at a time; booked wire lengths are never changed,
   so all delays and skews decided bottom-up are preserved.  When the
   instance carries routing blockages the embedding is obstacle aware
   (:func:`repro.cts.embedding.embed_tree`): locations are chosen by
   blockage-avoiding detour distance and edges whose booked wire cannot
   cover the detour are extended (the total extension is reported as
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
corridor pending until the merged subtree's next partner is known; see
:func:`repro.core.merge_batch.resolve_split`.  The built nodes accumulate in
flat arrays indexed by node id (:class:`MergedTree`) and are added to a
:class:`~repro.cts.tree.ClockTree` once, at the end.

Running the router with ``single_group=True`` ignores the instance's grouping
and yields the conventional bounded-skew (EXT-BST) or zero-skew (greedy-DME)
trees used as baselines in the paper's tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.opt.config import OptConfig
    from repro.opt.report import OptReport

from repro.circuits.instance import ClockInstance
from repro.core.group_constraints import GroupAssociation, SkewConstraints
from repro.core.merge_batch import (
    ArenaPending,
    CASE_LABELS,
    DISJOINT_CODE,
    plan_merges,
    resolve_split,
)
from repro.core.merging_order import MergeOrderPolicy
from repro.cts.embedding import embed_tree
from repro.cts.tree import ClockTree
from repro.delay.technology import Technology
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
]

_EPS = 1e-9  # Trr intersection tolerance (repro.geometry.trr._EPS)
_TOL = 1e-6  # embedding edge-length tolerance (repro.cts.embedding._TOL)


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
    #: Neighbour-candidate engine: "incremental" (maintained index, default),
    #: "rebuild" (vectorised, stateless per pass) or "scalar" (the seed
    #: per-pair reference).  All strategies select identical merge pairs; see
    #: docs/performance.md.
    neighbor_strategy: str = "incremental"
    #: Fraction of candidate lists a pass may invalidate before the
    #: incremental strategy falls back to a full rebuild.
    staleness_threshold: float = 0.25
    #: Allow wire snaking in constrained merges (required for exactness).
    allow_snaking: bool = True
    #: Fraction of the intra-group skew bound each cross-group merge may spend
    #: as positional freedom when its split is resolved lazily (see
    #: repro.core.merge_batch.resolve_split).  Small values guarantee later
    #: shared-group merges stay feasible; large values chase wirelength more
    #: aggressively.
    sdr_skew_budget: float = 0.45
    #: Post-construction optimization (repro.opt): when set and enabled, the
    #: router runs the configured pass pipeline -- detour-aware re-embedding,
    #: skew repair via wire snaking, wirelength recovery -- on the finished
    #: tree and attaches the OptReport to the RoutingResult.  ``None`` (the
    #: default) keeps routing bit-identical to previous releases.
    opt: Optional["OptConfig"] = None

    def order_policy(self) -> MergeOrderPolicy:
        """The merging-order policy implied by this configuration."""
        return MergeOrderPolicy(
            multi_merge=self.multi_merge,
            merge_fraction=self.merge_fraction,
            delay_target_weight=self.delay_target_weight,
            neighbor_candidates=self.neighbor_candidates,
            neighbor_strategy=self.neighbor_strategy,
            staleness_threshold=self.staleness_threshold,
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
    #: Wall time spent embedding locations and materialising the ClockTree.
    embed_seconds: float = 0.0
    #: Full neighbour-index rebuilds / incremental repairs (incremental
    #: strategy only; both stay 0 for the stateless strategies).
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
    loci: Dict[int, Trr]
    elapsed_seconds: float
    #: Report of the post-construction optimizer (repro.opt), when it ran.
    opt: Optional["OptReport"] = None
    #: Whether the run ignored the instance's grouping (the EXT-BST /
    #: greedy-DME baselines); consumers like the optimizer must then treat
    #: all sinks as one group.
    single_group: bool = False

    @property
    def wirelength(self) -> float:
        """Total wirelength of the routed tree (snaking included)."""
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
    ``loci`` hold their children and placement loci.  ``parent`` and
    ``edge`` hold the parent and booked wire of every node below them, the
    input rows' nodes included.
    """

    child_a: np.ndarray
    child_b: np.ndarray
    parent: np.ndarray
    edge: np.ndarray
    loci: np.ndarray
    first_id: int
    source_id: int

    def add_to(
        self,
        tree: ClockTree,
        source: Point,
        xs: Optional[np.ndarray] = None,
        ys: Optional[np.ndarray] = None,
    ) -> Dict[int, Trr]:
        """Add the merge nodes and the source to ``tree``; return their loci.

        ``tree`` must hold exactly the ``first_id`` nodes the rows refer to,
        so the new nodes get the ids the loop gave them.  With ``xs``/``ys``
        (locations by node id) the merge nodes are placed, otherwise they are
        left for an embedding pass.  Only the new rows become Python lists.
        """
        if len(tree) != self.first_id:
            raise ValueError(
                "tree holds %d nodes, the merge started at id %d"
                % (len(tree), self.first_id)
            )
        first, last = self.first_id, self.source_id
        children_a = self.child_a[first:last]
        children_b = self.child_b[first:last]
        edges_a = self.edge[children_a].tolist()
        edges_b = self.edge[children_b].tolist()
        rows = self.loci[first:last].tolist()
        if xs is None:
            locations = [None] * (last - first)
        else:
            locations = [
                Point(x, y) for x, y in zip(xs[first:last].tolist(), ys[first:last].tolist())
            ]
        loci: Dict[int, Trr] = {}
        for ca, cb, ea, eb, row, location in zip(
            children_a.tolist(), children_b.tolist(), edges_a, edges_b, rows, locations
        ):
            node_id = tree.add_internal(
                children=[ca, cb], edge_lengths=[ea, eb], location=location
            )
            loci[node_id] = Trr(row[0], row[1], row[2], row[3])
        root_id = int(self.child_a[last])
        tree.add_source(source, root_id, float(self.edge[root_id]))
        return loci


def point_loci(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``(m, 4)`` locus rows of single points: ``Trr.from_point``, row-wise."""
    u = xs + ys
    v = xs - ys
    return np.stack((u, u, v, v), axis=1)


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
        tech = instance.technology
        constraints = self._constraints or self.config.constraints()
        sinks = instance.sinks
        n = len(sinks)

        # One row per sink; node ids 0..n-1 are the sinks, in instance order.
        group_ids: List[int] = [0] if single_group else instance.groups()
        gindex = {g: k for k, g in enumerate(group_ids)}
        xs0 = np.fromiter((s.location.x for s in sinks), dtype=np.float64, count=n)
        ys0 = np.fromiter((s.location.y for s in sinks), dtype=np.float64, count=n)
        present = np.zeros((n, len(group_ids)), dtype=bool)
        sink_gidx = np.fromiter(
            (gindex[0 if single_group else s.group] for s in sinks),
            dtype=np.int64,
            count=n,
        )
        present[np.arange(n), sink_gidx] = True
        rows = SubtreeRows(
            loci=point_loci(xs0, ys0),
            cap=np.fromiter((s.cap for s in sinks), dtype=np.float64, count=n),
            delays=np.zeros((n, len(group_ids), 2), dtype=np.float64),
            present=present,
            node_id=np.arange(n, dtype=np.int64),
            group_ids=group_ids,
        )

        stats = MergeStats()
        association = GroupAssociation(instance.groups())
        src = instance.source
        merged = self.merge_rows(rows, n, src, tech, stats, association)

        embed_start = time.perf_counter()
        with get_tracer().span("dme.embed") as embed_span:
            obstacles = instance.obstacle_set() if instance.has_obstacles else None
            xs = ys = None
            if obstacles is None:
                xs, ys = _embed_levels(merged, xs0, ys0, src)
            tree = ClockTree(technology=tech)
            for sink in sinks:
                tree.add_sink(
                    location=sink.location,
                    sink_cap=sink.cap,
                    group=sink.group,
                    name="sink-%d" % sink.sink_id,
                )
            loci = merged.add_to(tree, src, xs, ys)
            if obstacles is None:
                stats.obstacle_detour = 0.0
            else:
                stats.obstacle_detour = embed_tree(tree, loci, obstacles=obstacles)
            embed_span.add("obstacle_detour", stats.obstacle_detour)
        stats.embed_seconds += time.perf_counter() - embed_start

        opt_report = self._run_opt(tree, constraints, obstacles, loci, single_group)

        elapsed = time.perf_counter() - start
        return RoutingResult(
            tree=tree,
            instance=instance,
            stats=stats,
            association=association,
            loci=loci,
            elapsed_seconds=elapsed,
            opt=opt_report,
            single_group=single_group,
        )

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
        merge's group association into ``association``.  :meth:`route` runs
        it on one row per sink; the ECO engine runs it on the frontier stubs
        and fresh sinks of a dirty cone.
        """
        config = self.config
        constraints = self._constraints or config.constraints()
        r = tech.unit_resistance
        c = tech.unit_capacitance
        group_ids = rows.group_ids
        num_groups = len(group_ids)
        bounds = np.array([constraints.bound_for(g) for g in group_ids], dtype=np.float64)

        loci = rows.loci
        cap = rows.cap
        delays = rows.delays
        present = rows.present
        node_id = rows.node_id
        m = int(node_id.shape[0])
        pending: List[Optional[ArenaPending]] = [None] * m

        # The built nodes: m - 1 merges and the source, after the first_id
        # nodes the rows refer to.
        total_nodes = first_id + m
        t_child_a = np.full(total_nodes, -1, dtype=np.int64)
        t_child_b = np.full(total_nodes, -1, dtype=np.int64)
        t_parent = np.full(total_nodes, -1, dtype=np.int64)
        t_edge = np.zeros(total_nodes, dtype=np.float64)
        t_loci = np.zeros((total_nodes, 4), dtype=np.float64)
        next_id = first_id

        selector = config.order_policy().make_selector()
        want_bias = config.delay_target_weight > 0.0

        def _resolve_row(i: int, target_row: np.ndarray) -> None:
            """Resolve row ``i``'s pending split towards ``target_row``.

            The useful-skew budget is a fraction of the tightest bound among
            the row's groups, so two independently resolved commitments of
            the same group pair can still be reconciled within the bound when
            their subtrees later merge.
            """
            p = pending[i]
            tightest = float(bounds[present[i]].min())
            budget = config.sdr_skew_budget * tightest
            d = p.distance
            split = resolve_split(
                p.locus_a, p.locus_b, d, p.cap_a, p.cap_b, p.balance_split,
                target_row, r, c, budget,
            )
            split_c = min(max(split, 0.0), d)
            ea = max(split_c, 0.0)
            eb = max(d - split_c, 0.0)
            la = p.locus_a
            lb = p.locus_b
            ulo = max(la[0] - ea, lb[0] - eb)
            uhi = min(la[1] + ea, lb[1] + eb)
            vlo = max(la[2] - ea, lb[2] - eb)
            vhi = min(la[3] + ea, lb[3] + eb)
            if uhi < ulo - _EPS or vhi < vlo - _EPS:  # pragma: no cover - defensive
                raise RuntimeError("pending split produced an empty locus")
            uhi = max(uhi, ulo)
            vhi = max(vhi, vlo)
            loci[i, 0] = ulo
            loci[i, 1] = uhi
            loci[i, 2] = vlo
            loci[i, 3] = vhi
            delay_a = r * split_c * (c * split_c / 2.0 + p.cap_a)
            delay_b = r * (d - split_c) * (c * (d - split_c) / 2.0 + p.cap_b)
            row = delays[i]
            row[:] = 0.0
            row[p.present_a] = p.delays_a[p.present_a] + delay_a
            row[p.present_b] = p.delays_b[p.present_b] + delay_b
            t_edge[p.child_a_id] = split
            t_edge[p.child_b_id] = d - split
            t_loci[node_id[i]] = loci[i]
            pending[i] = None

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
                    pairs = selector.pairs_for_pass_arrays(
                        loci, node_id.tolist(), max_delays
                    )
                stats.select_seconds += time.perf_counter() - select_start
                if not pairs:
                    raise RuntimeError("merging-order policy returned no pairs")
                stats.passes += 1
                pass_span.set(pairs=len(pairs))

                merge_start = time.perf_counter()
                with tracer.span("dme.merge") as merge_span:
                    # Spend deferred cross-group freedom now that the partners
                    # are known, sequentially in pair order: each side resolves
                    # towards the partner's current (possibly just updated)
                    # locus.
                    for ia, ib in pairs:
                        if pending[ia] is not None:
                            _resolve_row(ia, loci[ib])
                        if pending[ib] is not None:
                            _resolve_row(ib, loci[ia])

                    num_pairs = len(pairs)
                    a_idx = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=num_pairs)
                    b_idx = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=num_pairs)
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
                        config.allow_snaking,
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

                    # Statistics, group association and new pendings, in pair order.
                    case_list = plan.case_codes.tolist()
                    snaked_list = plan.snaked.tolist()
                    detour_list = plan.detour.tolist()
                    viol_list = plan.violation.tolist()
                    ea_list = plan.ea.tolist()
                    dist_list = plan.distance.tolist()
                    by_case = stats.merges_by_case
                    new_pending: List[Optional[ArenaPending]] = [None] * num_pairs
                    for t in range(num_pairs):
                        label = CASE_LABELS[case_list[t]]
                        by_case[label] = by_case.get(label, 0) + 1
                        if snaked_list[t]:
                            stats.snaked_merges += 1
                            stats.total_detour += detour_list[t]
                        stats.max_violation = max(stats.max_violation, viol_list[t])
                        ia = int(a_idx[t])
                        ib = int(b_idx[t])
                        # Every group of both sides is now associated with the
                        # smallest group of side a.
                        if num_groups == 1:
                            association.associate(group_ids[0], group_ids[0])
                        else:
                            ga = [group_ids[k] for k in np.flatnonzero(present[ia]).tolist()]
                            gb = [group_ids[k] for k in np.flatnonzero(present[ib]).tolist()]
                            anchor = ga[0]
                            for g in ga[1:]:
                                association.associate(anchor, g)
                            for g in gb:
                                association.associate(anchor, g)
                        if case_list[t] == DISJOINT_CODE and not snaked_list[t]:
                            new_pending[t] = ArenaPending(
                                child_a_id=int(ca_ids[t]),
                                child_b_id=int(cb_ids[t]),
                                locus_a=loci[ia].copy(),
                                locus_b=loci[ib].copy(),
                                distance=dist_list[t],
                                cap_a=float(cap[ia]),
                                cap_b=float(cap[ib]),
                                delays_a=delays[ia].copy(),
                                delays_b=delays[ib].copy(),
                                present_a=present[ia].copy(),
                                present_b=present[ib].copy(),
                                balance_split=ea_list[t],
                            )

                    # Compact: survivors keep their order, merged rows append
                    # in pair order.
                    keep_mask = np.ones(m, dtype=bool)
                    keep_mask[a_idx] = False
                    keep_mask[b_idx] = False
                    keep = np.flatnonzero(keep_mask)
                    loci = np.concatenate((loci[keep], plan.locus))
                    cap = np.concatenate((cap[keep], plan.cap))
                    delays = np.concatenate((delays[keep], plan.delays))
                    present = np.concatenate((present[keep], plan.present))
                    node_id = np.concatenate((node_id[keep], new_ids))
                    pending = [pending[k] for k in keep.tolist()] + new_pending
                    m = int(node_id.shape[0])
                    merge_span.add("nodes_merged", 2 * num_pairs)
                stats.merge_seconds += time.perf_counter() - merge_start

        # Source connection.
        if pending[0] is not None:
            su = source.x + source.y
            sv = source.x - source.y
            _resolve_row(0, np.array([su, su, sv, sv], dtype=np.float64))
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

    # ------------------------------------------------------------------
    def _run_opt(
        self,
        tree: ClockTree,
        constraints: SkewConstraints,
        obstacles,
        loci: Dict[int, Trr],
        single_group: bool,
    ) -> Optional["OptReport"]:
        """Run the configured post-construction optimizer, if any."""
        if self.config.opt is None or not self.config.opt.enabled:
            return None
        from repro.opt.optimizer import Optimizer

        bound_fn = constraints.bound_for
        if self.config.opt.skew_bound_ps is not None:
            override = Technology.ps_to_internal(self.config.opt.skew_bound_ps)
            bound_fn = lambda group: override  # noqa: E731 - trivial closure
        return Optimizer(self.config.opt).optimize(
            tree,
            bound_for=bound_fn,
            obstacles=obstacles,
            loci=loci,
            single_group=single_group,
        )


def _embed_levels(
    merged: MergedTree, xs0: np.ndarray, ys0: np.ndarray, src: Point
) -> tuple:
    """Vectorised obstacle-free top-down embedding of a routed tree.

    Node ids ``0..first_id-1`` are the sinks at ``xs0``/``ys0``.  Mirrors
    :func:`repro.cts.embedding.embed_tree`: every internal node is placed at
    the point of its locus nearest (in Manhattan distance) to its parent's
    already-chosen location, one depth level at a time.  The booked edge
    lengths are then verified against the realised geometry exactly like the
    scalar ``_check_edge``.
    """
    n = merged.first_id
    source_id = merged.source_id
    t_child_a, t_child_b = merged.child_a, merged.child_b
    t_parent, t_edge, t_loci = merged.parent, merged.edge, merged.loci
    count = source_id + 1
    xs = np.empty(count, dtype=np.float64)
    ys = np.empty(count, dtype=np.float64)
    xs[:n] = xs0
    ys[:n] = ys0
    xs[source_id] = src.x
    ys[source_id] = src.y

    frontier = np.array([source_id], dtype=np.int64)
    while frontier.size:
        children = np.concatenate((t_child_a[frontier], t_child_b[frontier]))
        children = children[children >= 0]
        internal = children[children >= n]
        if internal.size:
            parents = t_parent[internal]
            # Trr.nearest_point_to(parent): rotate, clamp per axis, rotate back.
            pu = xs[parents] + ys[parents]
            pv = xs[parents] - ys[parents]
            rows = t_loci[internal]
            cu = np.minimum(np.maximum(pu, rows[:, 0]), rows[:, 1])
            cv = np.minimum(np.maximum(pv, rows[:, 2]), rows[:, 3])
            xs[internal] = (cu + cv) / 2.0
            ys[internal] = (cu - cv) / 2.0
        frontier = children

    # _check_edge over every parented node at once.
    nodes = np.flatnonzero(t_parent[:count] >= 0)
    parents = t_parent[nodes]
    distance = np.abs(xs[parents] - xs[nodes]) + np.abs(ys[parents] - ys[nodes])
    bad = distance > t_edge[nodes] + _TOL
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(
            "edge to node %d needs %.6g wire but only %.6g was booked"
            % (int(nodes[k]), float(distance[k]), float(t_edge[nodes[k]]))
        )
    return xs, ys
