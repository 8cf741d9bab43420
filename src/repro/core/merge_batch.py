"""Array-at-a-time merge planning and lazy-split resolution.

This module is the batched counterpart of :mod:`repro.core.merge_cases` and
:mod:`repro.core.balancing`: the same arithmetic, evaluated over whole arrays
of candidate pairs at once.  It backs the router's construction loop
(:meth:`repro.core.ast_dme.AstDme.merge_rows`).  Its lazy-split scan,
:func:`resolve_split`, is the only one: the object reference loop in
``tests/reference_dme.py`` resolves its pending splits through it too.

Bit identity is a hard requirement, not an aspiration: the loop must produce
float-for-float the same trees as the scalar merge equations applied one
merge at a time, which the identity tests against the reference loop
assert.  Every expression here therefore mirrors its scalar
original term by term -- same association, same operand order, same clamps --
because IEEE-754 addition and multiplication are not associative and numpy
evaluates ``a + b + c`` exactly like Python does only when written
identically.  Three scalar subtleties deserve calling out:

* ``solve_merge`` with snaking disallowed always lands in the detour-free
  split branch: the clamp pulls the target into ``[g_lo, g_hi]`` and
  ``g_lo <= 0 <= g_hi`` always holds, so the batched disjoint case needs no
  snaking arithmetic at all.
* Python's banker's ``round(x, 6)`` (used by the lazy-split tie-break) does
  not match ``np.round`` bit for bit.  ``resolve_split`` exploits that
  ``round`` is monotone: the minimal rounded distance equals the rounding of
  the minimal distance, so only a tiny superset of near-minimal samples is
  re-rounded with Python's ``round`` to find the scalar-identical winner.
* Masked branches are evaluated on gathered index subsets
  (``np.flatnonzero``), never via ``np.where`` over full arrays, so sqrt /
  division never see operands the scalar code would not have produced.

Delay intervals are carried densely: ``delays`` is ``(n, G, 2)`` (lo, hi per
group) with a boolean ``present`` mask of shape ``(n, G)``, where ``G`` is
the number of distinct routing groups.  Entries where ``present`` is False
are zero and never read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.merge_cases import DISJOINT, SAME_GROUP, SHARED
from repro.geometry.trr import region_distances

__all__ = [
    "CASE_LABELS",
    "DISJOINT_CODE",
    "SAME_GROUP_CODE",
    "SHARED_CODE",
    "SAMPLES",
    "BatchMergePlan",
    "ArenaPending",
    "plan_merges",
    "merge_loci",
    "resolve_split",
]

_EPS = 1e-9  # keep in sync with repro.core.balancing._EPS

#: Merge-case codes (array-friendly stand-ins for the string labels).
DISJOINT_CODE = 0
SAME_GROUP_CODE = 1
SHARED_CODE = 2
CASE_LABELS = (DISJOINT, SAME_GROUP, SHARED)

#: Corridor samples of the lazy-split scan (:func:`resolve_split`).
SAMPLES = 129


@dataclass
class BatchMergePlan:
    """The decisions of one pass's merges, one array entry per pair.

    Field-for-field the arrays hold what the scalar
    :class:`~repro.core.merge_cases.MergeDecision` objects would: wire
    lengths, snaking, violation, merged capacitance / delay intervals and the
    merge locus rows.
    """

    case_codes: np.ndarray  # (P,) int8
    distance: np.ndarray  # (P,)
    ea: np.ndarray  # (P,)
    eb: np.ndarray  # (P,)
    detour: np.ndarray  # (P,)
    snaked: np.ndarray  # (P,) bool
    violation: np.ndarray  # (P,)
    delay_a: np.ndarray  # (P,)
    delay_b: np.ndarray  # (P,)
    cap: np.ndarray  # (P,)
    delays: np.ndarray  # (P, G, 2)
    present: np.ndarray  # (P, G) bool
    locus: np.ndarray  # (P, 4)


@dataclass
class ArenaPending:
    """The free split of an unconstrained merge, kept until its next partner.

    ``balance_split`` (the delay-balanced wire towards child a) is the
    tie-breaker of :func:`resolve_split`; the rest describes the two
    children the split runs between.
    """

    child_a_id: int
    child_b_id: int
    locus_a: np.ndarray  # (4,)
    locus_b: np.ndarray  # (4,)
    distance: float
    cap_a: float
    cap_b: float
    delays_a: np.ndarray  # (G, 2)
    delays_b: np.ndarray  # (G, 2)
    present_a: np.ndarray  # (G,) bool
    present_b: np.ndarray  # (G,) bool
    balance_split: float


def _wire_delay(length, cap, r: float, c: float):
    """Vector form of :func:`repro.delay.wire.wire_delay` (same expression)."""
    return r * length * (c * length / 2.0 + cap)


def merge_loci(rows_a: np.ndarray, rows_b: np.ndarray, ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.geometry.sdr.balance_locus` over TRR rows.

    Expansion by ``max(e, 0)``, interval intersection, and the same clamping
    of empty-but-within-tolerance axes as ``Trr.intersection``; raises the
    scalar ``balance_locus`` error when any pair's edges cannot bridge it.
    """
    ea_c = np.maximum(ea, 0.0)
    eb_c = np.maximum(eb, 0.0)
    ulo = np.maximum(rows_a[:, 0] - ea_c, rows_b[:, 0] - eb_c)
    uhi = np.minimum(rows_a[:, 1] + ea_c, rows_b[:, 1] + eb_c)
    vlo = np.maximum(rows_a[:, 2] - ea_c, rows_b[:, 2] - eb_c)
    vhi = np.minimum(rows_a[:, 3] + ea_c, rows_b[:, 3] + eb_c)
    empty = (uhi < ulo - _EPS) | (vhi < vlo - _EPS)
    if np.any(empty):
        k = int(np.flatnonzero(empty)[0])
        raise ValueError(
            "edge lengths (%.6g, %.6g) cannot bridge regions at distance %.6g"
            % (
                float(ea[k]),
                float(eb[k]),
                float(region_distances(rows_a[k : k + 1], rows_b[k : k + 1])[0]),
            )
        )
    return np.stack(
        (ulo, np.maximum(uhi, ulo), vlo, np.maximum(vhi, vlo)), axis=1
    )


def plan_merges(
    loci_a: np.ndarray,
    loci_b: np.ndarray,
    cap_a: np.ndarray,
    cap_b: np.ndarray,
    delays_a: np.ndarray,
    delays_b: np.ndarray,
    present_a: np.ndarray,
    present_b: np.ndarray,
    bounds: np.ndarray,
    r: float,
    c: float,
    allow_snaking: bool,
) -> BatchMergePlan:
    """Batched :func:`repro.core.merge_cases.plan_merge` over ``P`` pairs.

    ``bounds`` maps dense group index to the group's skew bound.  All arrays
    are per-pair gathers of the active-subtree state.
    """
    dist = region_distances(loci_a, loci_b)

    shared = present_a & present_b
    has_shared = shared.any(axis=1)
    num_a = present_a.sum(axis=1)
    num_b = present_b.sum(axis=1)
    num_shared = shared.sum(axis=1)
    same_group = has_shared & (num_a == 1) & (num_b == 1) & (num_shared == 1)
    case_codes = np.where(
        has_shared,
        np.where(same_group, SAME_GROUP_CODE, SHARED_CODE),
        DISJOINT_CODE,
    ).astype(np.int8)

    # max_delay per side: max over present groups' hi (delays are shifts of
    # sink zeros, so the -inf fill never survives a max over >= 1 group).
    neg_inf = -np.inf
    max_a = np.where(present_a, delays_a[:, :, 1], neg_inf).max(axis=1)
    max_b = np.where(present_b, delays_b[:, :, 1], neg_inf).max(axis=1)
    balance_target = max_b - max_a

    # Detour-free offset range [g(0), g(d)] = [-D(d, Cb), D(d, Ca)].
    g_lo = -(r * dist * (c * dist / 2.0 + cap_b))
    g_hi = r * dist * (c * dist / 2.0 + cap_a)

    # Shared-group feasible offset interval (max/min over shared groups).
    violation = np.zeros(len(dist))
    target = balance_target.copy()
    shared_rows = np.flatnonzero(has_shared)
    if shared_rows.size:
        sa = delays_a[shared_rows]
        sb = delays_b[shared_rows]
        mask = shared[shared_rows]
        lo_vals = np.where(mask, sb[:, :, 1] - sa[:, :, 0] - bounds[None, :], neg_inf)
        hi_vals = np.where(mask, bounds[None, :] - sa[:, :, 1] + sb[:, :, 0], np.inf)
        offset_lo = lo_vals.max(axis=1)
        offset_hi = hi_vals.min(axis=1)
        feasible = offset_lo <= offset_hi
        target[shared_rows] = np.where(
            feasible,
            np.minimum(np.maximum(balance_target[shared_rows], offset_lo), offset_hi),
            (offset_lo + offset_hi) / 2.0,
        )
        violation[shared_rows] = np.where(feasible, 0.0, (offset_lo - offset_hi) / 2.0)

    # solve_merge: rows without snaking permission (all disjoint rows, and
    # every row when the config disables snaking) clamp the target into the
    # detour-free range and therefore always take the split branch.
    may_snake = has_shared if allow_snaking else np.zeros(len(dist), dtype=bool)
    clamped = np.minimum(np.maximum(target, g_lo), g_hi)
    target = np.where(may_snake, target, clamped)

    snake_a = may_snake & (target > g_hi + _EPS)
    snake_b = may_snake & (target < g_lo - _EPS)
    split_rows = np.flatnonzero(~(snake_a | snake_b))

    ea = np.empty(len(dist))
    eb = np.empty(len(dist))
    if split_rows.size:
        d_s = dist[split_rows]
        slope = r * (c * d_s + cap_a[split_rows] + cap_b[split_rows])
        intercept = r * (c * d_s * d_s / 2.0 + cap_b[split_rows] * d_s)
        positive = slope > 0.0
        ea_s = np.where(
            positive,
            (target[split_rows] + intercept) / np.where(positive, slope, 1.0),
            0.0,
        )
        ea_s = np.minimum(np.maximum(ea_s, 0.0), d_s)
        ea[split_rows] = ea_s
        eb[split_rows] = d_s - ea_s
    for rows, snake_cap, towards_a in (
        (np.flatnonzero(snake_a), cap_a, True),
        (np.flatnonzero(snake_b), cap_b, False),
    ):
        if not rows.size:
            continue
        # wire_length_for_delay: positive root of the wire-delay quadratic.
        # The target is strictly positive here (beyond g_hi + eps / below
        # g_lo - eps and g_lo <= 0 <= g_hi), so the scalar zero-target
        # shortcut cannot trigger.
        t = target[rows] if towards_a else -target[rows]
        a_coef = r * c / 2.0
        b_coef = r * snake_cap[rows]
        # Citardauq root, float-op-identical to the scalar wire_length_for_delay
        # (the reference-loop identity tests compare the two bit for bit).
        length = (2.0 * t) / (b_coef + np.sqrt(b_coef * b_coef + 4.0 * a_coef * t))
        if towards_a:
            ea[rows] = np.maximum(length, dist[rows])
            eb[rows] = 0.0
        else:
            ea[rows] = 0.0
            eb[rows] = np.maximum(length, dist[rows])

    total = ea + eb
    detour = np.maximum(0.0, total - dist)
    snaked = detour > 1e-6

    delay_a = _wire_delay(ea, cap_a, r, c)
    delay_b = _wire_delay(eb, cap_b, r, c)

    shifted_a = delays_a + delay_a[:, None, None]
    shifted_b = delays_b + delay_b[:, None, None]
    both = shared
    only_a = present_a & ~present_b
    merged_lo = np.where(
        both,
        np.minimum(shifted_a[:, :, 0], shifted_b[:, :, 0]),
        np.where(only_a, shifted_a[:, :, 0], shifted_b[:, :, 0]),
    )
    merged_hi = np.where(
        both,
        np.maximum(shifted_a[:, :, 1], shifted_b[:, :, 1]),
        np.where(only_a, shifted_a[:, :, 1], shifted_b[:, :, 1]),
    )
    present = present_a | present_b
    merged = np.stack((merged_lo, merged_hi), axis=2)
    merged[~present] = 0.0

    cap = cap_a + cap_b + c * total  # wire_capacitance(total) = c * total
    locus = merge_loci(loci_a, loci_b, ea, eb)

    return BatchMergePlan(
        case_codes=case_codes,
        distance=dist,
        ea=ea,
        eb=eb,
        detour=detour,
        snaked=snaked,
        violation=violation,
        delay_a=delay_a,
        delay_b=delay_b,
        cap=cap,
        delays=merged,
        present=present,
        locus=locus,
    )


def resolve_split(
    locus_a,
    locus_b,
    distance: float,
    cap_a: float,
    cap_b: float,
    balance_split: float,
    target_row,
    r: float,
    c: float,
    max_deviation: float,
) -> float:
    """The lazy split of a pending merge that brings its locus nearest a target.

    ``locus_a``/``locus_b`` are the children's ``(ulo, uhi, vlo, vhi)`` rows,
    ``distance`` the corridor length, ``cap_a``/``cap_b`` the children's
    downstream capacitances and ``balance_split`` the delay-balanced wire
    towards child a.  Only splits whose delay shift on either side, relative
    to the balanced split, stays within ``max_deviation`` (the useful-skew
    budget) qualify; the balanced split always does.  ``SAMPLES`` evenly
    spaced corridor splits are scanned and the winner minimises the key
    ``(round(distance_to_target, 6), abs(split - balance_split))``, the
    balanced split first and earlier samples winning ties.  Python's
    ``round`` is monotone, so the minimal rounded distance is the rounding of
    the minimal distance; only samples within a whisker of the minimum can
    share that rounded value, and just those few are re-rounded with Python's
    ``round`` to keep the comparison exact.  The per-sample scalar reference,
    ``resolution_for_target``, lives in the tests.
    """
    d = distance
    if d <= 0.0:
        return 0.0
    balance = balance_split

    # Sample 0 is the balanced split itself so its target distance comes from
    # the same elementwise expressions as the candidates'.
    splits = np.empty(SAMPLES + 1)
    splits[0] = balance
    splits[1:] = d * np.arange(SAMPLES, dtype=np.float64) / float(SAMPLES - 1)

    clamped = np.minimum(np.maximum(splits, 0.0), d)
    ea = np.maximum(clamped, 0.0)
    eb = np.maximum(d - clamped, 0.0)
    la = locus_a
    lb = locus_b
    ulo = np.maximum(la[0] - ea, lb[0] - eb)
    uhi = np.minimum(la[1] + ea, lb[1] + eb)
    vlo = np.maximum(la[2] - ea, lb[2] - eb)
    vhi = np.minimum(la[3] + ea, lb[3] + eb)
    if np.any((uhi < ulo - _EPS) | (vhi < vlo - _EPS)):  # pragma: no cover - defensive
        raise RuntimeError("pending split produced an empty locus")
    uhi = np.maximum(uhi, ulo)
    vhi = np.maximum(vhi, vlo)
    gap_u = np.maximum(target_row[0] - uhi, ulo - target_row[1])
    gap_v = np.maximum(target_row[2] - vhi, vlo - target_row[3])
    dists = np.maximum(np.maximum(gap_u, gap_v), 0.0)

    # Deviation filter (the balanced sample always qualifies by construction).
    raw = splits[1:]
    shift_a = np.abs(_wire_delay(raw, cap_a, r, c) - _wire_delay(balance, cap_a, r, c))
    shift_b = np.abs(
        _wire_delay(d - raw, cap_b, r, c) - _wire_delay(d - balance, cap_b, r, c)
    )
    valid = np.maximum(shift_a, shift_b) <= max_deviation

    best_key = (round(float(dists[0]), 6), 0.0)
    best_split = balance
    if valid.any():
        sample_d = dists[1:]
        masked = np.where(valid, sample_d, np.inf)
        dmin = float(masked.min())
        b = round(dmin, 6)
        # Superset of every sample that can round to b: round(x, 6) == b
        # implies x <= b + 5e-7 + ulp and b <= dmin + 5e-7 + ulp.
        near = valid & (sample_d <= dmin + 2e-6)
        tie_best = None
        split_best = None
        for k in np.flatnonzero(near).tolist():
            if round(float(sample_d[k]), 6) != b:
                continue
            tie = abs(float(raw[k]) - balance)
            if tie_best is None or tie < tie_best:
                tie_best = tie
                split_best = float(raw[k])
        if tie_best is not None and (b, tie_best) < best_key:
            best_split = split_best
    return best_split
