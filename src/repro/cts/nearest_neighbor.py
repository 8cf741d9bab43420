"""Nearest-neighbour pair selection for greedy bottom-up merging.

Greedy-DME (Edahiro 1993) repeatedly merges the pair of subtrees whose roots
are closest; its multi-merge variant merges many mutually disjoint nearest
pairs per pass, which cuts the number of neighbour-graph rebuilds and is one
of the two merging-order enhancements the paper adopts (Chapter V.F).

This module is purely geometric: it holds the candidate generation and the
greedy selection that :class:`repro.cts.neighbor_index.NeighborIndex`, the
routers' one pair-selection engine, runs over the ``(n, 4)`` locus rows of
the active subtrees (plus an optional additive cost bias per subtree, used
by the delay-target enhancement), returning a set of disjoint pairs ordered
by cost.  Candidate generation uses a KD-tree on locus centres in rotated
coordinates with the Chebyshev metric, followed by exact locus-to-locus
distances on the candidates, computed with the batch kernels of
:mod:`repro.geometry.trr` (numpy broadcasting).

The index maintains the candidate lists across merging passes and selects
exactly what a fresh selection over the same loci would.  That stateless
selection (``select_merge_pairs``) and the seed's per-pair implementation
are kept in ``tests/reference_neighbors.py`` as its oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.trr import pair_distances

__all__ = [
    "NeighborPairing",
    "CandidateArrays",
    "locus_centres",
    "candidate_pairs_from_array",
    "select_from_candidates",
]


@dataclass
class NeighborPairing:
    """The pairs selected for one merging pass, in selection order.

    ``a[t] < b[t]`` are the indices of pair ``t`` and ``cost[t]`` its cost;
    :attr:`pairs` and :attr:`costs` list them as Python values.
    """

    a: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    b: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    cost: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))

    @property
    def pairs(self) -> List[Tuple[int, int]]:
        return list(zip(self.a.tolist(), self.b.tolist()))

    @property
    def costs(self) -> List[float]:
        return self.cost.tolist()

    def __len__(self) -> int:
        return len(self.a)

    def __iter__(self):
        return iter(self.pairs)


@dataclass(frozen=True)
class CandidateArrays:
    """Candidate merge pairs in array form.

    ``i < j`` index into the caller's locus sequence; ``dist`` holds the exact
    region distance of each pair.  Rows are in canonical enumeration order
    (first occurrence while scanning locus ``i`` ascending, then that locus's
    neighbours in query-rank order), which is what makes selection results
    independent of how the candidates were generated.
    """

    dist: np.ndarray
    i: np.ndarray
    j: np.ndarray

    def __len__(self) -> int:
        return len(self.dist)


# ----------------------------------------------------------------------
# Candidate generation
# ----------------------------------------------------------------------
def locus_centres(arr: np.ndarray) -> np.ndarray:
    """The ``(n, 2)`` array of region centres in rotated coordinates."""
    centres = np.empty((len(arr), 2), dtype=float)
    centres[:, 0] = (arr[:, 0] + arr[:, 1]) / 2.0
    centres[:, 1] = (arr[:, 2] + arr[:, 3]) / 2.0
    return centres


#: Centres from which a KD query runs on all cores: below, starting the threads
#: costs more than they save (2-vCPU Xeon, build plus ``k = 9`` query: 0.31
#: against 0.67 ms at 150 rows, even at 4,000-5,000, 152 against 96 ms at 50k).
PARALLEL_QUERY_ROWS = 4000


def query_neighbors(
    centres: np.ndarray, k_candidates: int
) -> Tuple[np.ndarray, np.ndarray]:
    """KD-tree ``k``-nearest neighbours per centre (Chebyshev metric).

    Returns ``(distances, indices)``, both ``(n, k)`` with ``k =
    min(k_candidates + 1, n)``; the shape is uniform for every ``n`` and ``k``
    (scipy squeezes the ``k == 1`` case to a 1-D array, which the old code
    only special-cased for ``k == 1`` -- ``reshape(n, -1)`` handles every
    degenerate shape the same way).  From :data:`PARALLEL_QUERY_ROWS` centres
    on the query runs on all cores, below on one; the result is exact either
    way.
    """
    n = len(centres)
    tree = cKDTree(centres)
    k = min(k_candidates + 1, n)
    workers = -1 if n >= PARALLEL_QUERY_ROWS else 1
    dist, neighbors = tree.query(centres, k=k, p=np.inf, workers=workers)
    return (
        np.asarray(dist).reshape(n, -1),
        np.asarray(neighbors).reshape(n, -1),
    )


def candidates_from_neighbors(arr: np.ndarray, neighbors: np.ndarray) -> CandidateArrays:
    """Candidate pairs from per-locus neighbour index lists.

    ``neighbors[r]`` lists candidate partners of locus ``r`` (self-references
    are ignored), enumerated as the scalar reference scans them: rows in
    order.  A pair listed by both of its endpoints appears twice, where the
    scalar reference keeps its first occurrence only: greedy selection is
    invariant to duplicates -- the stable cost sort keeps first occurrences
    ahead of their copies and a copy of a selected pair is skipped by the
    disjointness check -- so the per-pass paths save the sort that
    deduplication costs.
    """
    n = len(arr)
    k = neighbors.shape[1] if neighbors.ndim > 1 else 1
    flat_i = np.repeat(np.arange(n, dtype=np.int64), k)
    flat_j = neighbors.astype(np.int64, copy=False).ravel()
    keep = flat_i != flat_j
    flat_i = flat_i[keep]
    flat_j = flat_j[keep]
    lo = np.minimum(flat_i, flat_j)
    hi = np.maximum(flat_i, flat_j)
    return CandidateArrays(dist=pair_distances(arr, lo, hi), i=lo, j=hi)


def all_pairs_candidates(arr: np.ndarray) -> CandidateArrays:
    """Every pair ``i < j`` with its exact distance (small populations)."""
    n = len(arr)
    i, j = np.triu_indices(n, k=1)
    i = i.astype(np.int64, copy=False)
    j = j.astype(np.int64, copy=False)
    return CandidateArrays(dist=pair_distances(arr, i, j), i=i, j=j)


def candidate_pairs_from_array(
    arr: np.ndarray,
    k_candidates: int = 8,
    exhaustive_threshold: int = 48,
) -> CandidateArrays:
    """Candidate merge pairs for the ``(n, 4)`` locus rows ``arr``.

    Below ``exhaustive_threshold`` every pair is a candidate; above it, each
    locus contributes its ``k_candidates`` nearest centres (KD-tree, Chebyshev
    metric in rotated coordinates), exactly like the scalar reference.
    """
    if len(arr) <= exhaustive_threshold:
        return all_pairs_candidates(arr)
    _, neighbors = query_neighbors(locus_centres(arr), k_candidates)
    return candidates_from_neighbors(arr, neighbors)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
#: Candidates in the first band of :func:`select_from_candidates`, per pair it
#: may pick; each later band doubles.  The first pass of a 50k route walks the
#: cheapest 44,007 of its 400,000 candidates for its 12,500 pairs (3.5 a pair).
BAND_FACTOR = 4


def select_from_candidates(
    candidates: CandidateArrays,
    num_loci: int,
    max_pairs: Optional[int] = None,
    cost_bias: Optional[Sequence[float]] = None,
) -> NeighborPairing:
    """Greedy disjoint selection over candidate pairs in ascending cost order.

    The cost of a pair is ``distance + bias[i] + bias[j]`` (bias omitted when
    ``cost_bias`` is ``None``); ties keep candidate enumeration order (stable
    sort), matching the scalar reference.

    The greedy usually stops long before the last candidate, so it sorts and
    walks one band at a time: the candidates not yet walked whose cost is at
    most the ``k``-th smallest among them (ties at that threshold included),
    in stable order.  ``k`` starts at :data:`BAND_FACTOR` times the pair limit
    and doubles per band; the last band takes everything left, NaN costs
    last.  The bands cut the full stable order into consecutive runs, so the
    walk visits candidates in that order and stops at the same pair.  The
    full-sort greedy is the oracle in ``tests/reference_neighbors.py``.
    """
    if cost_bias is None:
        costs = candidates.dist
    else:
        bias = np.asarray(cost_bias, dtype=float)
        costs = candidates.dist + bias[candidates.i] + bias[candidates.j]

    limit = max_pairs if max_pairs is not None else num_loci // 2
    limit = max(1, min(limit, num_loci // 2))

    used = bytearray(num_loci)
    picked: List[np.ndarray] = []
    found = 0
    rest = np.arange(len(costs), dtype=np.int64)  # not yet walked, ascending
    k = BAND_FACTOR * limit
    while found < limit and len(rest):
        rest_costs = costs[rest]
        in_band = np.ones(len(rest), dtype=bool)  # the last band: everything left
        if k < len(rest):
            kth = np.partition(rest_costs, k - 1)[k - 1]
            if kth == kth:  # not NaN: NaN costs wait for the last band
                in_band = rest_costs <= kth
        band = rest[in_band][np.argsort(rest_costs[in_band], kind="stable")]
        rest = rest[~in_band]
        band_i, band_j = candidates.i[band], candidates.j[band]
        chosen = []
        for rank, (i, j) in enumerate(zip(band_i.tolist(), band_j.tolist())):
            if used[i] or used[j]:
                continue
            used[i] = 1
            used[j] = 1
            chosen.append(rank)
            found += 1
            if found >= limit:
                break
        picked.append(band[chosen])
        k *= 2
    chosen = np.concatenate(picked) if picked else np.empty(0, dtype=np.int64)
    return NeighborPairing(candidates.i[chosen], candidates.j[chosen], costs[chosen])
