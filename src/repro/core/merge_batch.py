"""Array-at-a-time merge planning and lazy-split resolution.

This module states the merge equations of the paper (the case dispatch of
Fig. 6 and Eqs. 5.1-5.3) over whole arrays of candidate pairs at once.  It
backs the router's construction loop
(:meth:`repro.core.ast_dme.AstDme.merge_rows`), which routes and ECO
re-merges share.  Its lazy-split scan, :func:`resolve_split`, runs over all
pending splits of one side of a pass at once, and it is the only one: the
object reference loop in ``tests/reference_dme.py`` resolves its pending
splits through it too.

Bit identity is a hard requirement, not an aspiration: the loop must produce
float-for-float the same trees as the scalar merge equations applied one
merge at a time, which ``tests/reference_merge.py`` keeps as the oracle
(``plan_merge``, ``solve_merge``, ``balance_locus``) and the identity tests
against the reference loop assert.  Every expression here therefore mirrors
its scalar original term by term -- same association, same operand order,
same clamps -- because IEEE-754 addition and multiplication are not
associative and numpy evaluates ``a + b + c`` exactly like Python does only
when written identically.  Three scalar subtleties deserve calling out:

* ``solve_merge`` with snaking disallowed always lands in the detour-free
  split branch: the clamp pulls the target into ``[g_lo, g_hi]`` and
  ``g_lo <= 0 <= g_hi`` always holds, so the batched disjoint case needs no
  snaking arithmetic at all.
* Python's banker's ``round(x, 6)`` (used by the lazy-split tie-break) is
  correctly rounded, which ``np.round`` is not.  ``resolve_split`` compares
  integer decimal classes instead (:func:`_decimal_classes`: ``rint(x *
  1e6)``, with Python's ``round`` only where the product lies within a few
  ulps of a half-integer), and exploits that ``round`` is monotone: the
  minimal rounded distance equals the rounding of the minimal distance, so
  only a tiny superset of near-minimal samples is classed to find the
  scalar-identical winner, and only in rows whose minimum lies below the
  balanced split's distance.
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

from repro.geometry.trr import region_distances

__all__ = [
    "CASE_LABELS",
    "DISJOINT_CODE",
    "SAME_GROUP_CODE",
    "SHARED_CODE",
    "SAMPLES",
    "RESOLVE_CHUNK",
    "BatchMergePlan",
    "plan_merges",
    "merge_loci",
    "resolve_split",
]

#: Tolerance of the edge-length and empty-locus checks.
_EPS = 1e-9

#: Merge-case labels (Fig. 6): no shared group, one group on both sides and
#: nothing else, or at least one group shared among others.
DISJOINT = "disjoint"
SAME_GROUP = "same_group"
SHARED = "shared"

#: Merge-case codes (array-friendly stand-ins for the string labels).
DISJOINT_CODE = 0
SAME_GROUP_CODE = 1
SHARED_CODE = 2
CASE_LABELS = (DISJOINT, SAME_GROUP, SHARED)

#: Corridor samples of the lazy-split scan (:func:`resolve_split`).
SAMPLES = 129
_SAMPLE_INDEX = np.arange(SAMPLES, dtype=np.float64)

#: Rows :func:`resolve_split` scans at a time; each ``(rows, SAMPLES + 1)``
#: temporary then stays near 0.3 MB.
RESOLVE_CHUNK = 256


@dataclass
class BatchMergePlan:
    """The decisions of one pass's merges, one array entry per pair.

    Field-for-field the arrays hold what the scalar ``MergeDecision`` objects
    of ``tests/reference_merge.py`` would: wire lengths, snaking, violation,
    merged capacitance / delay intervals and the merge locus rows.
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


def _wire_delay(length, cap, r: float, c: float):
    """Vector form of :func:`repro.delay.wire.wire_delay` (same expression)."""
    return r * length * (c * length / 2.0 + cap)


def merge_loci(rows_a: np.ndarray, rows_b: np.ndarray, ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """Vectorized scalar ``balance_locus`` (``tests/reference_merge.py``) over TRR rows.

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
) -> BatchMergePlan:
    """Batched scalar ``plan_merge`` (``tests/reference_merge.py``) over ``P`` pairs.

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

    # solve_merge: rows without snaking permission (the disjoint rows) clamp
    # the target into the detour-free range and therefore always take the
    # split branch.
    may_snake = has_shared
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
    locus_a, locus_b, distance, cap_a, cap_b, balance_split, target, r, c, max_deviation
) -> np.ndarray:
    """The lazy splits of ``k`` pending merges that bring their loci nearest targets.

    Row ``i`` is one pending merge: ``locus_a``/``locus_b`` are the children's
    ``(k, 4)`` ``(ulo, uhi, vlo, vhi)`` rows, ``distance`` the corridor
    lengths, ``cap_a``/``cap_b`` the children's downstream capacitances,
    ``balance_split`` the delay-balanced wire towards child a and ``target``
    the ``(k, 4)`` loci to approach.  Only splits whose delay shift on either
    side, relative to the balanced split, stays within ``max_deviation[i]``
    (the useful-skew budget) qualify; the balanced split always does.
    ``SAMPLES`` evenly spaced corridor splits are scanned and the winner
    minimises the key ``(round(distance_to_target, 6), abs(split -
    balance_split))``, the balanced split first and earlier samples winning
    ties.  Python's ``round`` is monotone, so the minimal rounded distance is
    the rounding of the minimal distance; only samples within a whisker of
    the minimum can share that rounded value, and just those few are
    compared, by their exact decimal classes (:func:`_decimal_classes`).  Rows
    with ``distance <= 0`` return 0.0; the others are scanned
    ``RESOLVE_CHUNK`` at a time.  The per-sample scalar reference,
    ``resolution_for_target``, lives in the tests.
    """
    splits = np.zeros(len(distance))
    live = np.flatnonzero(distance > 0.0)
    for start in range(0, live.size, RESOLVE_CHUNK):
        rows = live[start : start + RESOLVE_CHUNK]
        splits[rows] = _resolve_chunk(
            locus_a[rows], locus_b[rows], distance[rows, None], cap_a[rows, None],
            cap_b[rows, None], balance_split[rows, None], target[rows], r, c,
            max_deviation[rows, None],
        )
    return splits


#: How close (in ulps of ``x * 1e6``) to a half-integer a product must lie
#: before :func:`_decimal_classes` asks Python's ``round`` for its class.
_HALF_ULPS = 4


def _decimal_classes(values: np.ndarray) -> np.ndarray:
    """``round(x, 6)`` of every value as an integer class: ``n`` with
    ``round(x, 6) == n / 10**6``, held as a float.

    Classes compare as the rounded values do (``round`` is monotone and
    distinct classes round to distinct floats).  ``rint(x * 1e6)`` is the
    class wherever the rounded product cannot sit on the wrong side of a
    half-integer; within ``_HALF_ULPS`` ulps of one, Python's correctly
    rounded ``round`` decides.
    """
    scaled = values * 1e6
    classes = np.rint(scaled)
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) <= _HALF_ULPS * np.spacing(
        np.abs(scaled)
    )
    for index in np.flatnonzero(near_half).tolist():
        classes[index] = np.rint(round(float(values[index]), 6) * 1e6)
    return classes


def _resolve_chunk(la, lb, d, cap_a, cap_b, bal, target, r, c, max_deviation):
    """:func:`resolve_split` on rows of positive length (per-row columns ``(n, 1)``)."""
    # Column 0 is the balanced split itself so its target distance comes from
    # the same elementwise expressions as the candidates'.
    splits = np.empty((len(bal), SAMPLES + 1))
    splits[:, :1] = bal
    splits[:, 1:] = d * _SAMPLE_INDEX / float(SAMPLES - 1)

    clamped = np.minimum(np.maximum(splits, 0.0), d)
    ea = np.maximum(clamped, 0.0)
    eb = np.maximum(d - clamped, 0.0)
    ulo = np.maximum(la[:, 0:1] - ea, lb[:, 0:1] - eb)
    uhi = np.minimum(la[:, 1:2] + ea, lb[:, 1:2] + eb)
    vlo = np.maximum(la[:, 2:3] - ea, lb[:, 2:3] - eb)
    vhi = np.minimum(la[:, 3:4] + ea, lb[:, 3:4] + eb)
    if np.any((uhi < ulo - _EPS) | (vhi < vlo - _EPS)):  # pragma: no cover - defensive
        raise RuntimeError("pending split produced an empty locus")
    uhi = np.maximum(uhi, ulo)
    vhi = np.maximum(vhi, vlo)
    dists = region_distances(np.stack((ulo, uhi, vlo, vhi), axis=2), target[:, None, :])

    # Deviation filter (the balanced sample always qualifies by construction).
    raw = splits[:, 1:]
    shift_a = np.abs(_wire_delay(raw, cap_a, r, c) - _wire_delay(bal, cap_a, r, c))
    shift_b = np.abs(
        _wire_delay(d - raw, cap_b, r, c) - _wire_delay(d - bal, cap_b, r, c)
    )
    valid = np.maximum(shift_a, shift_b) <= max_deviation

    # A row takes a sample only when the rounded minimum beats the balanced
    # split's rounded distance (a tie keeps the balanced split, whose tie key
    # is 0).  ``round`` is monotone, so only rows whose minimum lies strictly
    # below the balanced distance can qualify.
    sample_d = dists[:, 1:]
    dmin = np.where(valid, sample_d, np.inf).min(axis=1)
    result = bal[:, 0].copy()
    rows = np.flatnonzero(dmin < dists[:, 0])
    best = _decimal_classes(dmin[rows])
    takes = best < _decimal_classes(dists[rows, 0])
    rows, best = rows[takes], best[takes]
    # Superset of every sample that can round to the row's best: round(x, 6)
    # == b implies x <= b + 5e-7 + ulp and b <= dmin + 5e-7 + ulp.
    near = valid[rows] & (sample_d[rows] <= dmin[rows, None] + 2e-6)
    hit, col = np.nonzero(near)
    exact = _decimal_classes(sample_d[rows[hit], col]) == best[hit]
    hit, col = hit[exact], col[exact]
    # Per row the sample nearest the balanced split wins, the earliest on ties.
    tie = np.abs(raw[rows[hit], col] - bal[rows[hit], 0])
    order = np.lexsort((col, tie, hit))
    first = order[np.unique(hit[order], return_index=True)[1]]
    result[rows[hit[first]]] = raw[rows[hit[first]], col[first]]
    return result
