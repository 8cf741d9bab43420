"""Incremental nearest-neighbour candidate maintenance across merging passes.

The bottom-up phase calls pair selection once per pass over an evolving
population of subtrees: each pass removes the merged subtrees and adds their
merge results, leaving everything else untouched.  Rebuilding the KD-tree and
re-deriving every candidate list from scratch each pass therefore repeats
almost all of the previous pass's work when only a few subtrees merged (the
strict single-merge order of the original Greedy-DME is the extreme case: two
removals and one insertion per pass).

:class:`NeighborIndex` keeps, per active subtree, the list of its ``k``
nearest locus centres (Chebyshev metric in rotated coordinates, self
included) *and* the exact TRR distance of each (subtree, candidate) pair, and
repairs only what a pass invalidated:

* subtrees whose cached list references a removed subtree are *dirty*: their
  lists are recomputed exactly by a vectorised brute-force scan;
* a clean list is re-merged only when a newly added subtree is strictly
  closer than its current ``k``-th candidate (the ``k`` nearest among ``old
  minus removed`` plus the new candidates are exactly the ``k`` nearest of
  the new population, so the repair is exact, not approximate); all other
  clean lists survive untouched, modulo a cheap position remap;
* when the fraction of recomputed rows exceeds ``staleness_threshold`` the
  whole index is rebuilt from a fresh KD-tree -- with the default multi-merge
  order half the population changes per pass, and a full vectorised rebuild
  is then cheaper than repairing nearly every row.

Because the exact pair distances are cached alongside the candidate lists,
the strict single-merge order selects its pair with one ``argmin`` over the
cached cost matrix instead of materialising and sorting every candidate pair
each pass -- that is what turns the seed's quadratic scalar loop into a run
dominated by small O(n) numpy passes.

Contract: the caller supplies a stable integer key per subtree (the routers
use tree node ids) and a key present in successive calls must always refer to
the *same, unchanged* locus -- populations evolve by removing rows
(order-preserving) and appending fresh ones, exactly what the bottom-up
merging loop does.  Pass ``keys=None`` to disable incremental reuse.

The candidate *sets* produced this way are identical to a full rebuild
(modulo exact distance ties at the ``k``-th neighbour, which cannot occur for
generic instances), so the index selects exactly what a stateless selection
over the same loci selects.  It is the routers' only pair-selection engine;
that stateless selection (``select_merge_pairs``) and the seed's per-pair
engine, both in ``tests/reference_neighbors.py``, are its test oracles.

Loci are passed as ``(n, 4)`` float rows ``(ulo, uhi, vlo, vhi)``, the form
the merge loop holds them in.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cts.nearest_neighbor import (
    CandidateArrays,
    NeighborPairing,
    candidate_pairs_from_array,
    locus_centres,
    query_neighbors,
    select_from_candidates,
)
from repro.geometry.trr import region_distances

__all__ = ["NeighborIndex"]


def _chebyshev(centres_a: np.ndarray, centres_b: np.ndarray) -> np.ndarray:
    """The ``(len(a), len(b))`` Chebyshev distance matrix between centres."""
    du = np.abs(centres_a[:, np.newaxis, 0] - centres_b[np.newaxis, :, 0])
    dv = np.abs(centres_a[:, np.newaxis, 1] - centres_b[np.newaxis, :, 1])
    return np.maximum(du, dv)


#: Rows per block of a full rebuild's pair distances.  The ``(rows, k + 1, 4)``
#: candidate gather then stays near 1 MB; one gather of every row (14 MB at
#: n = 50k) is released to the OS on free, which raises glibc's dynamic mmap
#: threshold to its size and its heap trim threshold to twice that, so the
#: merge loop's later temporaries stay resident after the loop.
REBUILD_BLOCK = 4096


def _pair_block(rows: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Exact TRR distances between ``rows[t]`` and every region in ``cands[t]``.

    ``rows`` is ``(r, 4)`` and ``cands`` is ``(r, w, 4)``; the result is
    ``(r, w)``, via the one shared batch kernel so a rebuild and a repair
    evaluate the identical arithmetic.
    """
    return region_distances(rows[:, np.newaxis, :], cands)


class NeighborIndex:
    """Maintained candidate neighbour lists over an evolving population.

    Call :meth:`select_pairs` (or :meth:`candidate_pairs`) once per merging
    pass with the current ``(n, 4)`` locus rows and a parallel sequence of
    stable integer keys (the routers use subtree node ids).  Between calls
    the index diffs the population by key, repairs invalidated lists
    incrementally and falls back to a full rebuild when the pass changed too
    much (``staleness_threshold``) or the population diff does not look like
    "remove some, append new" (defensive).

    Internally the candidate lists store *positions* into the current
    population (remapped cheaply as rows are removed), so selection needs no
    key lookups; keys are only used to diff successive populations.

    Counters (``full_rebuilds``, ``incremental_passes``,
    ``exhaustive_passes``) expose how the index behaved; the router's merge
    statistics report them.
    """

    def __init__(
        self,
        k_candidates: int = 8,
        exhaustive_threshold: int = 48,
        staleness_threshold: float = 0.25,
    ) -> None:
        if k_candidates < 1:
            raise ValueError("k_candidates must be at least 1")
        if not 0.0 <= staleness_threshold <= 1.0:
            raise ValueError("staleness_threshold must lie in [0, 1]")
        self.k_candidates = k_candidates
        self.exhaustive_threshold = exhaustive_threshold
        self.staleness_threshold = staleness_threshold
        self.full_rebuilds = 0
        self.incremental_passes = 0
        self.exhaustive_passes = 0
        self._keys: Optional[np.ndarray] = None
        self._arr: Optional[np.ndarray] = None
        self._centres: Optional[np.ndarray] = None
        #: (n, k_candidates + 1) neighbour positions / centre distances, each
        #: row sorted ascending by centre distance (self normally at rank 0).
        self._cand_pos: Optional[np.ndarray] = None
        self._cand_d: Optional[np.ndarray] = None
        #: Exact TRR distance of each (row, candidate) pair; +inf on the
        #: self-candidate entries so selection can argmin without masking.
        self._pair_d: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all cached state (the next call rebuilds from scratch)."""
        self._keys = None
        self._arr = None
        self._centres = None
        self._cand_pos = None
        self._cand_d = None
        self._pair_d = None

    # ------------------------------------------------------------------
    def select_pairs(
        self,
        loci: np.ndarray,
        keys: Optional[Sequence[int]] = None,
        max_pairs: Optional[int] = None,
        cost_bias: Optional[Sequence[float]] = None,
    ) -> NeighborPairing:
        """Disjoint nearest pairs among the ``(n, 4)`` locus rows ``loci``.

        ``max_pairs`` caps the number of disjoint pairs (``None`` means as
        many as fit; ``1`` gives the strict single-merge order) and
        ``cost_bias`` adds ``bias[i] + bias[j]`` to the distance of pair
        ``(i, j)``.  The pairs come back in increasing cost order, the same
        selection a fresh stateless call would make, but candidate lists are
        maintained across calls and the strict single-merge order takes a
        cached-``argmin`` fast path instead of sorting every candidate.
        """
        n = len(loci)
        if n < 2:
            return NeighborPairing()
        if cost_bias is not None and len(cost_bias) != n:
            raise ValueError("cost_bias must have one entry per locus")
        if n <= self.exhaustive_threshold or self.k_candidates + 1 >= n:
            self.reset()
            self.exhaustive_passes += 1
            candidates = candidate_pairs_from_array(
                loci, self.k_candidates, self.exhaustive_threshold
            )
            return select_from_candidates(candidates, n, max_pairs, cost_bias)

        self._ensure(loci, keys)
        limit = max_pairs if max_pairs is not None else n // 2
        limit = max(1, min(limit, n // 2))
        if limit == 1:
            return self._select_single(cost_bias)
        return select_from_candidates(
            self._emit_candidates(), n, max_pairs, cost_bias
        )

    # ------------------------------------------------------------------
    def candidate_pairs(
        self, loci: np.ndarray, keys: Optional[Sequence[int]] = None
    ) -> CandidateArrays:
        """Candidate merge pairs for the ``(n, 4)`` locus rows ``loci``.

        ``keys`` are stable per-subtree identifiers (``None`` disables
        incremental reuse); candidate arrays index into ``loci`` positionally,
        exactly like :func:`~repro.cts.nearest_neighbor.candidate_pairs_from_array`.
        """
        n = len(loci)
        if n <= self.exhaustive_threshold or self.k_candidates + 1 >= n:
            self.reset()
            self.exhaustive_passes += 1
            return candidate_pairs_from_array(
                loci, self.k_candidates, self.exhaustive_threshold
            )
        self._ensure(loci, keys)
        return self._emit_candidates()

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _ensure(self, loci: np.ndarray, keys: Optional[Sequence[int]]) -> None:
        """Bring the cached candidate lists up to date for this population."""
        if keys is None:
            # Positional keys carry no identity across calls: rebuild, and
            # leave no cached keys behind so a later *keyed* call can never
            # diff against positions and silently reuse stale lists.
            self.reset()
            self._rebuild(loci, np.arange(len(loci), dtype=np.int64))
            self._keys = None
            return
        # A copy: the merge loop passes its node-id column, whose memory it
        # reuses for its next pass, and the cached keys must outlive it.
        key_arr = np.array(keys, dtype=np.int64)
        if len(key_arr) != len(loci):
            raise ValueError("keys must have one entry per locus")
        if self._keys is None or not self._try_incremental(loci, key_arr):
            self._rebuild(loci, key_arr)

    def _select_single(self, cost_bias: Optional[Sequence[float]]) -> NeighborPairing:
        """The cheapest pair by cached-cost ``argmin`` (single-merge order).

        A flat ``argmin`` over the row-major ``(n, w)`` cost matrix returns
        the first minimum in exactly the enumeration order the stateless
        selection sorts by, so ties resolve identically.
        """
        costs = self._pair_d
        if cost_bias is not None:
            bias = np.asarray(cost_bias, dtype=float)
            costs = costs + bias[:, np.newaxis] + bias[self._cand_pos]
        flat = int(np.argmin(costs))
        row, rank = divmod(flat, costs.shape[1])
        partner = int(self._cand_pos[row, rank])
        return NeighborPairing(
            np.array([min(row, partner)], dtype=np.int64),
            np.array([max(row, partner)], dtype=np.int64),
            np.array([costs[row, rank]], dtype=np.float64),
        )

    def _emit_candidates(self) -> CandidateArrays:
        """Cached candidate lists as :class:`CandidateArrays` (duplicates kept).

        Row-major enumeration with self-candidates dropped -- the order of
        ``candidates_from_neighbors`` exactly, with the exact distances read
        from the cache instead of recomputed.
        """
        n, w = self._cand_pos.shape
        flat_i = np.repeat(np.arange(n, dtype=np.int64), w)
        flat_j = self._cand_pos.ravel()
        flat_d = self._pair_d.ravel()
        keep = flat_i != flat_j
        flat_i = flat_i[keep]
        flat_j = flat_j[keep]
        return CandidateArrays(
            dist=flat_d[keep],
            i=np.minimum(flat_i, flat_j),
            j=np.maximum(flat_i, flat_j),
        )

    # ------------------------------------------------------------------
    def _rebuild(self, arr: np.ndarray, keys: np.ndarray) -> None:
        centres = locus_centres(arr)
        # The KD query hands back the centre distances it already computed;
        # caching them is what makes later incremental merges exact and free.
        self._cand_d, self._cand_pos = query_neighbors(centres, self.k_candidates)
        self._pair_d = np.empty(self._cand_pos.shape)
        for start in range(0, len(arr), REBUILD_BLOCK):
            block = slice(start, start + REBUILD_BLOCK)
            self._pair_d[block] = _pair_block(arr[block], arr[self._cand_pos[block]])
        self._pair_d[self._cand_pos == np.arange(len(arr))[:, np.newaxis]] = np.inf
        self._keys = keys
        # A copy: ``arr`` is the caller's (n, 4) array, and the merge loop
        # reuses that memory for its next pass.
        self._arr = arr.copy()
        self._centres = centres
        self.full_rebuilds += 1

    # ------------------------------------------------------------------
    def _try_incremental(self, loci: np.ndarray, keys: np.ndarray) -> bool:
        """Repair the cached lists for the new population; False -> rebuild."""
        prev_keys = self._keys
        surv_mask = np.isin(prev_keys, keys, assume_unique=True)
        surv_pos = np.flatnonzero(surv_mask)
        m = len(surv_pos)
        n = len(keys)
        # The fresh rows alone exceed the staleness share, which the dirty
        # survivors only add to: no repair can pass the check below.
        if (n - m) / n > self.staleness_threshold:
            return False
        # The routers remove merged subtrees (order-preserving) and append the
        # merge results; anything else is handled by a full rebuild.
        if n < m or not np.array_equal(keys[:m], prev_keys[surv_pos]):
            return False
        if m < n and np.isin(keys[m:], prev_keys, assume_unique=True).any():
            return False

        # Old position -> new position; removed rows map to -1 so that any
        # cached reference to them marks its row dirty.
        remap = np.full(len(prev_keys), -1, dtype=np.int64)
        remap[surv_pos] = np.arange(m, dtype=np.int64)

        mapped = remap[self._cand_pos[surv_pos]]
        dirty = (mapped < 0).any(axis=1)
        num_fresh = n - m
        if (int(np.count_nonzero(dirty)) + num_fresh) / n > self.staleness_threshold:
            return False

        fresh_arr = loci[m:n]
        arr = np.concatenate([self._arr[surv_pos], fresh_arr])
        centres = np.concatenate([self._centres[surv_pos], locus_centres(fresh_arr)])
        fresh_rows = np.arange(m, n, dtype=np.int64)
        w = self.k_candidates + 1
        new_cand_pos = np.empty((n, w), dtype=np.int64)
        new_cand_d = np.empty((n, w), dtype=float)
        new_pair_d = np.empty((n, w), dtype=float)

        clean = np.flatnonzero(~dirty)
        if len(clean):
            # Clean survivors keep their lists verbatim (positions remapped).
            new_cand_pos[clean] = mapped[clean]
            new_cand_d[clean] = self._cand_d[surv_pos][clean]
            new_pair_d[clean] = self._pair_d[surv_pos][clean]
            if num_fresh:
                # A fresh row enters a clean list only when strictly closer
                # than the current k-th candidate (on a tie the stable merge
                # keeps the old candidate, so equality never changes a list).
                fresh_d = _chebyshev(centres[clean], centres[fresh_rows])
                affected = np.flatnonzero(
                    (fresh_d < new_cand_d[clean][:, -1:]).any(axis=1)
                )
                if len(affected):
                    rows = clean[affected]
                    # Exact merge: the cached list already holds the w nearest
                    # among the surviving old population; fold in the fresh
                    # rows and keep the w nearest of the union.
                    merged_d = np.hstack([new_cand_d[rows], fresh_d[affected]])
                    merged_pos = np.hstack(
                        [
                            new_cand_pos[rows],
                            np.broadcast_to(fresh_rows, (len(rows), num_fresh)),
                        ]
                    )
                    merged_pair = np.hstack(
                        [
                            new_pair_d[rows],
                            _pair_block(
                                arr[rows],
                                np.broadcast_to(
                                    arr[fresh_rows], (len(rows), num_fresh, 4)
                                ),
                            ),
                        ]
                    )
                    order = np.argsort(merged_d, axis=1, kind="stable")[:, :w]
                    take = np.arange(len(rows))[:, np.newaxis]
                    new_cand_d[rows] = merged_d[take, order]
                    new_cand_pos[rows] = merged_pos[take, order]
                    new_pair_d[rows] = merged_pair[take, order]

        recompute_rows = np.concatenate([np.flatnonzero(dirty), fresh_rows])
        if len(recompute_rows):
            # Exact repair: brute-force scan of the whole population (self
            # included, mirroring the KD-tree query semantics).  argpartition
            # pulls out the w nearest in O(n); only those get sorted (by
            # distance, positions breaking ties -- the stable full-sort
            # order).
            d_all = _chebyshev(centres[recompute_rows], centres)
            take = np.arange(len(recompute_rows))[:, np.newaxis]
            part = np.argpartition(d_all, w - 1, axis=1)[:, :w]
            d_part = d_all[take, part]
            rank = np.lexsort((part, d_part))
            order = part[take, rank]
            new_cand_d[recompute_rows] = d_part[take, rank]
            new_cand_pos[recompute_rows] = order
            pair_d = _pair_block(arr[recompute_rows], arr[order])
            pair_d[order == recompute_rows[:, np.newaxis]] = np.inf
            new_pair_d[recompute_rows] = pair_d

        self._keys = keys
        self._arr = arr
        self._centres = centres
        self._cand_pos = new_cand_pos
        self._cand_d = new_cand_d
        self._pair_d = new_pair_d
        self.incremental_passes += 1
        return True
