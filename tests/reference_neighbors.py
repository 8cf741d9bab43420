"""Reference pair-selection engines, kept as oracles of the incremental index.

The library selects merge pairs with one engine, the incremental
:class:`~repro.cts.neighbor_index.NeighborIndex`.  The two engines it
replaced live here, so tests can check that it selects exactly what they do,
and so does the greedy both run, :func:`select_from_candidates`, in the form
that sorts every candidate before walking them (the library sorts and walks
one cost band at a time):

``scalar``
    The seed implementation: a KD-tree rebuilt every pass and one scalar
    ``Trr.distance_to`` call per candidate pair.
``rebuild``
    The stateless vectorised :func:`select_merge_pairs`, run afresh every
    pass: the library's candidate generation and band greedy over a fresh
    candidate set, with no state kept between calls.

:func:`loci_to_array` stacks ``Trr`` objects into the ``(n, 4)`` locus rows
the library takes.

:func:`use_selector` swaps either engine in for a whole route by patching
:meth:`MergeOrderPolicy.make_selector`, so ``AstDme.route`` and the object
loop of ``tests/reference_dme.py`` both select their pairs through it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.core.merging_order import MergeOrderPolicy, MergePairSelector
from repro.cts import nearest_neighbor
from repro.cts.nearest_neighbor import (
    CandidateArrays,
    NeighborPairing,
    candidate_pairs_from_array,
)
from repro.geometry.trr import Trr

#: Selection engines a route can run on: the library's and the two oracles.
STRATEGIES = ("incremental", "rebuild", "scalar")


def loci_to_array(loci: Sequence[Trr]) -> np.ndarray:
    """Stack regions into an ``(n, 4)`` array of ``(ulo, uhi, vlo, vhi)`` rows.

    Row ``r`` corresponds to ``loci[r]``.  An ``(n, 4)`` float array (or a
    sequence of 4-element rows, as produced by slicing one) passes through
    unchanged, so the selection engines here take the merge loop's native
    locus arrays as well.
    """
    if isinstance(loci, np.ndarray) and loci.ndim == 2 and loci.shape[1] == 4:
        return np.ascontiguousarray(loci, dtype=float)
    n = len(loci)
    out = np.empty((n, 4), dtype=float)
    if n and isinstance(loci[0], np.ndarray):
        for index, row in enumerate(loci):
            out[index] = row
        return out
    for index, locus in enumerate(loci):
        out[index, 0] = locus.ulo
        out[index, 1] = locus.uhi
        out[index, 2] = locus.vlo
        out[index, 3] = locus.vhi
    return out


def candidate_pairs(
    loci: Sequence[Trr],
    k_candidates: int = 8,
    exhaustive_threshold: int = 48,
) -> CandidateArrays:
    """Candidate merge pairs for the given loci.

    Below ``exhaustive_threshold`` every pair is a candidate; above it, each
    locus contributes its ``k_candidates`` nearest centres (KD-tree, Chebyshev
    metric in rotated coordinates), exactly like the scalar reference.
    """
    return candidate_pairs_from_array(loci_to_array(loci), k_candidates, exhaustive_threshold)


def select_merge_pairs(
    loci: Sequence[Trr],
    max_pairs: Optional[int] = None,
    cost_bias: Optional[Sequence[float]] = None,
    k_candidates: int = 8,
    exhaustive_threshold: int = 48,
) -> NeighborPairing:
    """Select disjoint nearest pairs among the given loci.

    Args:
        loci: placement loci of the active subtrees.
        max_pairs: maximum number of disjoint pairs to return (``None`` means
            as many as fit; ``1`` gives the strict single-merge order).
        cost_bias: optional per-subtree additive bias; the cost of a pair is
            ``distance + bias[i] + bias[j]``.  Negative biases give priority.
        k_candidates: neighbours considered per subtree when the KD-tree path
            is used.
        exhaustive_threshold: below this many subtrees every pair is examined
            exactly instead of going through the KD-tree.

    Returns:
        A :class:`NeighborPairing` with the selected index pairs in increasing
        cost order.  At least one pair is returned whenever two or more loci
        are supplied.
    """
    n = len(loci)
    if n < 2:
        return NeighborPairing()
    if cost_bias is not None and len(cost_bias) != n:
        raise ValueError("cost_bias must have one entry per locus")
    candidates = candidate_pairs(loci, k_candidates, exhaustive_threshold)
    return nearest_neighbor.select_from_candidates(candidates, n, max_pairs, cost_bias)


def pairing_of(pairs: Sequence[Tuple[int, int]], costs: Sequence[float]) -> NeighborPairing:
    """A :class:`NeighborPairing` of ``pairs`` and their ``costs``, in order."""
    rows = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return NeighborPairing(rows[:, 0].copy(), rows[:, 1].copy(), np.array(costs, dtype=float))


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
    """
    if cost_bias is None:
        costs = candidates.dist
    else:
        bias = np.asarray(cost_bias, dtype=float)
        costs = candidates.dist + bias[candidates.i] + bias[candidates.j]
    order = np.argsort(costs, kind="stable")

    limit = max_pairs if max_pairs is not None else num_loci // 2
    limit = max(1, min(limit, num_loci // 2))

    used = bytearray(num_loci)
    pairs: List[Tuple[int, int]] = []
    pair_costs: List[float] = []
    for i, j, cost in zip(
        candidates.i[order].tolist(),
        candidates.j[order].tolist(),
        costs[order].tolist(),
    ):
        if used[i] or used[j]:
            continue
        used[i] = 1
        used[j] = 1
        pairs.append((i, j))
        pair_costs.append(cost)
        if len(pairs) >= limit:
            break
    return pairing_of(pairs, pair_costs)


def scalar_candidate_pairs(
    loci: Sequence[Trr], k_candidates: int
) -> List[Tuple[float, int, int]]:
    """Candidate (distance, i, j) triples from a KD-tree over locus centres."""
    n = len(loci)
    centres = np.empty((n, 2), dtype=float)
    for index, locus in enumerate(loci):
        centres[index, 0] = (locus.ulo + locus.uhi) / 2.0
        centres[index, 1] = (locus.vlo + locus.vhi) / 2.0
    tree = cKDTree(centres)
    k = min(k_candidates + 1, n)
    _, neighbors = tree.query(centres, k=k, p=np.inf)
    # scipy squeezes k == 1 queries to shape (n,); reshape uniformly so every
    # degenerate population (n == 1, n == 2, k_candidates >= n) takes the same
    # path.
    neighbors = np.asarray(neighbors).reshape(n, -1)
    seen = set()
    candidates: List[Tuple[float, int, int]] = []
    for i in range(n):
        for j in neighbors[i]:
            j = int(j)
            if j == i:
                continue
            key = (min(i, j), max(i, j))
            if key in seen:
                continue
            seen.add(key)
            candidates.append((loci[i].distance_to(loci[j]), key[0], key[1]))
    return candidates


def scalar_select_merge_pairs(
    loci: Sequence[Trr],
    max_pairs: Optional[int] = None,
    cost_bias: Optional[Sequence[float]] = None,
    k_candidates: int = 8,
    exhaustive_threshold: int = 48,
) -> NeighborPairing:
    """:func:`select_merge_pairs`, per pair."""
    n = len(loci)
    if n < 2:
        return NeighborPairing()
    if cost_bias is not None and len(cost_bias) != n:
        raise ValueError("cost_bias must have one entry per locus")
    if n <= exhaustive_threshold:
        candidates = [
            (loci[i].distance_to(loci[j]), i, j)
            for i in range(n)
            for j in range(i + 1, n)
        ]
    else:
        candidates = scalar_candidate_pairs(loci, k_candidates)

    def pair_cost(item: Tuple[float, int, int]) -> float:
        distance, i, j = item
        if cost_bias is None:
            return distance
        return distance + cost_bias[i] + cost_bias[j]

    candidates.sort(key=pair_cost)

    limit = max_pairs if max_pairs is not None else n // 2
    limit = max(1, min(limit, n // 2))

    used = set()
    pairs: List[Tuple[int, int]] = []
    pair_costs: List[float] = []
    for item in candidates:
        if len(pairs) >= limit:
            break
        _, i, j = item
        if i in used or j in used:
            continue
        used.add(i)
        used.add(j)
        pairs.append((i, j))
        pair_costs.append(pair_cost(item))
    return pairing_of(pairs, pair_costs)


class StatelessIndex:
    """Stands in for a selector's ``NeighborIndex``: selects afresh per pass,
    and returns the index's :class:`NeighborPairing`, whose ``a``/``b``
    index arrays the selector hands to the merge loop."""

    full_rebuilds = 0
    incremental_passes = 0

    def __init__(self, strategy: str, k_candidates: int) -> None:
        self.strategy = strategy
        self.k_candidates = k_candidates

    def select_pairs(self, loci_arr, keys, max_pairs, cost_bias) -> NeighborPairing:
        if self.strategy == "scalar":
            return scalar_select_merge_pairs(
                [Trr(*row) for row in loci_arr.tolist()],
                max_pairs=max_pairs,
                cost_bias=None if cost_bias is None else cost_bias.tolist(),
                k_candidates=self.k_candidates,
            )
        return select_merge_pairs(
            loci_arr,
            max_pairs=max_pairs,
            cost_bias=cost_bias,
            k_candidates=self.k_candidates,
        )


def oracle_selector(policy: MergeOrderPolicy, strategy: str) -> MergePairSelector:
    """A selector for ``policy`` that picks pairs with an oracle engine."""
    selector = MergePairSelector(policy)
    selector._index = StatelessIndex(strategy, policy.neighbor_candidates)
    return selector


def use_selector(monkeypatch, strategy: str) -> None:
    """Make every route in this test select its pairs with ``strategy``."""
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r; expected one of %s" % (strategy, STRATEGIES))
    if strategy != "incremental":
        monkeypatch.setattr(
            MergeOrderPolicy,
            "make_selector",
            lambda policy: oracle_selector(policy, strategy),
        )
