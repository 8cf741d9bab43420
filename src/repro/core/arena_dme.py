"""The arena (struct-of-arrays) construction loop of the AST-DME router.

:func:`route_arena` is the batched counterpart of
:meth:`repro.core.ast_dme.AstDme.route`: the same two-phase algorithm with the
active-subtree state held in contiguous numpy arrays instead of ``Subtree``
objects, merge planning evaluated array-at-a-time
(:mod:`repro.core.merge_batch`) and the top-down embedding vectorised over
depth levels.  The produced :class:`~repro.core.ast_dme.RoutingResult` is
bit-identical to the object backend's -- same node ids, same edge lengths,
same locations, same statistics counters -- which the bench identity gates
assert on every scenario.

State layout (``m`` active subtrees, ``G`` dense routing groups):

``loci``
    ``(m, 4)`` TRR interval rows ``(ulo, uhi, vlo, vhi)`` in rotated
    coordinates.
``cap`` / ``node_id``
    ``(m,)`` downstream capacitance and clock-tree node id.
``delays`` / ``present``
    ``(m, G, 2)`` per-group delay intervals with a ``(m, G)`` presence mask
    (rows are zero and never read where the mask is False).
``pending``
    Python list of :class:`~repro.core.merge_batch.ArenaPending` (or None):
    lazily-resolved splits of unconstrained merges, exactly mirroring
    :mod:`repro.core.lazy_sdr`.

The finished tree accumulates in flat arrays (``child_a``/``child_b``/
``parent``/``edge``/``loci``) indexed by node id -- sinks ``0..n-1``,
internal merge nodes ``n..2n-3`` in creation order, source ``2n-2`` --
and is materialised into a :class:`~repro.cts.tree.ClockTree` only once, at
the end.  Instances with routing blockages keep the scalar obstacle-aware
embedding (:func:`repro.cts.embedding.embed_tree`) on the materialised tree,
so detour behaviour is shared, not duplicated.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.circuits.instance import ClockInstance
from repro.core.group_constraints import GroupAssociation
from repro.core.merge_batch import (
    ArenaPending,
    CASE_LABELS,
    DISJOINT_CODE,
    plan_merges,
    resolve_split,
)
from repro.cts.embedding import embed_tree
from repro.obs.trace import get_tracer
from repro.cts.tree import ClockTree
from repro.geometry.point import Point
from repro.geometry.trr import Trr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ast_dme import AstDme, RoutingResult

__all__ = ["route_arena"]

_EPS = 1e-9  # Trr intersection tolerance (repro.geometry.trr._EPS)
_TOL = 1e-6  # embedding edge-length tolerance (repro.cts.embedding._TOL)


def route_arena(
    router: "AstDme",
    instance: ClockInstance,
    single_group: bool = False,
) -> "RoutingResult":
    """Route ``instance`` through the arena backend (see module docstring)."""
    from repro.core.ast_dme import MergeStats, RoutingResult

    config = router.config
    start = time.perf_counter()
    tech = instance.technology
    constraints = router._constraints or config.constraints()
    policy = config.order_policy()
    r = tech.unit_resistance
    c = tech.unit_capacitance

    sinks = instance.sinks
    n = len(sinks)

    # Dense routing-group mapping: ascending dense index == ascending group id.
    group_ids: List[int] = [0] if single_group else instance.groups()
    gindex = {g: k for k, g in enumerate(group_ids)}
    num_groups = len(group_ids)
    bounds = np.array([constraints.bound_for(g) for g in group_ids], dtype=np.float64)

    # Active-subtree state (one row per sink initially).
    xs0 = np.fromiter((s.location.x for s in sinks), dtype=np.float64, count=n)
    ys0 = np.fromiter((s.location.y for s in sinks), dtype=np.float64, count=n)
    u0 = xs0 + ys0
    v0 = xs0 - ys0
    loci = np.empty((n, 4), dtype=np.float64)
    loci[:, 0] = u0
    loci[:, 1] = u0
    loci[:, 2] = v0
    loci[:, 3] = v0
    cap = np.fromiter((s.cap for s in sinks), dtype=np.float64, count=n)
    node_id = np.arange(n, dtype=np.int64)
    delays = np.zeros((n, num_groups, 2), dtype=np.float64)
    present = np.zeros((n, num_groups), dtype=bool)
    sink_gidx = np.fromiter(
        (gindex[0 if single_group else s.group] for s in sinks),
        dtype=np.int64,
        count=n,
    )
    present[np.arange(n), sink_gidx] = True
    pending: List[Optional[ArenaPending]] = [None] * n

    # The finished tree, as flat arrays indexed by node id.
    total_nodes = 2 * n  # n sinks + (n - 1) internal nodes + 1 source
    t_child_a = np.full(total_nodes, -1, dtype=np.int64)
    t_child_b = np.full(total_nodes, -1, dtype=np.int64)
    t_parent = np.full(total_nodes, -1, dtype=np.int64)
    t_edge = np.zeros(total_nodes, dtype=np.float64)
    t_loci = np.zeros((total_nodes, 4), dtype=np.float64)
    next_id = n

    stats = MergeStats()
    association = GroupAssociation(instance.groups())
    selector = policy.make_selector()
    want_bias = policy.delay_target_weight > 0.0

    def _resolve_row(i: int, target_row: np.ndarray) -> None:
        """Scalar mirror of :func:`repro.core.lazy_sdr.resolve_pending`."""
        p = pending[i]
        if p is None:
            return
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

    # ------------------------------------------------------------------
    # Bottom-up merging.
    # ------------------------------------------------------------------
    m = n
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
                # Spend deferred cross-group freedom now that the partners are known,
                # sequentially in pair order exactly like the object backend (each
                # side resolves towards the partner's current -- possibly just
                # updated -- locus).
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

                # Materialise the new merge nodes: ids continue in pair order, so
                # they match the object backend's add_internal ids exactly.
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

                # Compact: survivors keep their order, merged rows append in pair
                # order (the object backend's survivor-list + new-subtree layout).
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

    # ------------------------------------------------------------------
    # Source connection.
    # ------------------------------------------------------------------
    src = instance.source
    if pending[0] is not None:
        su = src.x + src.y
        sv = src.x - src.y
        _resolve_row(0, np.array([su, su, sv, sv], dtype=np.float64))
    root_locus = loci[0]
    root_trr = Trr(
        float(root_locus[0]),
        float(root_locus[1]),
        float(root_locus[2]),
        float(root_locus[3]),
    )
    source_edge = root_trr.distance_to_point(src)
    source_id = next_id
    root_id = int(node_id[0])
    t_child_a[source_id] = root_id
    t_parent[root_id] = source_id
    t_edge[root_id] = source_edge
    next_id += 1

    # ------------------------------------------------------------------
    # Top-down embedding and tree materialisation.
    # ------------------------------------------------------------------
    embed_start = time.perf_counter()
    with tracer.span("dme.embed") as embed_span:
        obstacles = instance.obstacle_set() if instance.has_obstacles else None

        xs_list = ys_list = None
        if obstacles is None:
            xs, ys = _embed_levels(
                t_child_a, t_child_b, t_parent, t_edge, t_loci, xs0, ys0, src, n, source_id
            )
            xs_list = xs.tolist()
            ys_list = ys.tolist()

        tree = ClockTree(technology=tech)
        for sink in sinks:
            tree.add_sink(
                location=sink.location,
                sink_cap=sink.cap,
                group=sink.group,
                name="sink-%d" % sink.sink_id,
            )
        edge_list = t_edge[:next_id].tolist()
        ca_list = t_child_a[:next_id].tolist()
        cb_list = t_child_b[:next_id].tolist()
        locus_list = t_loci[:next_id].tolist()
        loci_out: Dict[int, Trr] = {}
        for nid in range(n, source_id):
            ca = ca_list[nid]
            cb = cb_list[nid]
            location = None if xs_list is None else Point(xs_list[nid], ys_list[nid])
            tree.add_internal(
                children=[ca, cb],
                edge_lengths=[edge_list[ca], edge_list[cb]],
                location=location,
            )
            row = locus_list[nid]
            loci_out[nid] = Trr(row[0], row[1], row[2], row[3])
        tree.add_source(src, ca_list[source_id], edge_list[ca_list[source_id]])

        if obstacles is None:
            stats.obstacle_detour = 0.0
        else:
            stats.obstacle_detour = embed_tree(tree, loci_out, obstacles=obstacles)
        embed_span.add("obstacle_detour", stats.obstacle_detour)
    stats.embed_seconds += time.perf_counter() - embed_start

    stats.neighbor_full_rebuilds = selector.full_rebuilds
    stats.neighbor_incremental_passes = selector.incremental_passes

    opt_report = router._run_opt(tree, constraints, obstacles, loci_out, single_group)

    elapsed = time.perf_counter() - start
    return RoutingResult(
        tree=tree,
        instance=instance,
        stats=stats,
        association=association,
        loci=loci_out,
        elapsed_seconds=elapsed,
        opt=opt_report,
        single_group=single_group,
    )


def _embed_levels(
    t_child_a: np.ndarray,
    t_child_b: np.ndarray,
    t_parent: np.ndarray,
    t_edge: np.ndarray,
    t_loci: np.ndarray,
    xs0: np.ndarray,
    ys0: np.ndarray,
    src: Point,
    n: int,
    source_id: int,
) -> tuple:
    """Vectorised obstacle-free top-down embedding.

    Mirrors :func:`repro.cts.embedding.embed_tree`: every internal node is
    placed at the point of its locus nearest (in Manhattan distance) to its
    parent's already-chosen location, one depth level at a time.  The booked
    edge lengths are then verified against the realised geometry exactly like
    the scalar ``_check_edge``.
    """
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
