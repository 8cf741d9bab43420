"""Merging-order policies for the bottom-up phase.

The baseline order is "minimum merging cost": the pair of subtrees with the
smallest distance between their placement loci is merged first.  The paper
adopts two enhancements from earlier work (Chapter V.F), both exposed here:

* *multi-merge* (Edahiro): merge many disjoint nearest pairs per pass instead
  of a single pair, which mainly reduces runtime;
* *delay-target ordering* (Chaturvedi & Hu): prefer merging subtrees that are
  already slow, which evens out delay targets and reduces later wire snaking.

A policy turns the list of active subtrees into the list of index pairs to
merge in the current pass; the router is agnostic to how they were chosen.

The candidate search is one engine, the incremental
:class:`~repro.cts.neighbor_index.NeighborIndex`: it is maintained across
passes, recomputes only the candidate lists the previous pass invalidated,
and rebuilds from scratch when a pass invalidated too many of them.  It
selects exactly the pairs a stateless selection (``select_merge_pairs``)
selects each pass; ``tests/reference_neighbors.py`` keeps that engine and
the seed's per-pair one as oracles (see ``docs/performance.md``).

Routers hold per-run selection state in a :class:`MergePairSelector` obtained
from :meth:`MergeOrderPolicy.make_selector` and call
:meth:`MergePairSelector.pairs_for_pass_arrays` once per merging pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.cts.neighbor_index import NeighborIndex

__all__ = ["MergeOrderPolicy", "MergePairSelector"]


@dataclass(frozen=True)
class MergeOrderPolicy:
    """Configuration of the merging order.

    Attributes:
        multi_merge: merge several disjoint nearest pairs per pass when True,
            exactly one pair per pass when False.
        merge_fraction: fraction of the maximum possible number of pairs
            (``n // 2``) merged per pass in multi-merge mode.
        delay_target_weight: weight of the delay-target bias.  0 disables the
            enhancement; positive values subtract
            ``weight * (subtree max delay) / (largest max delay)`` scaled by
            the current median pair distance from the cost of pairs involving
            slow subtrees, so they are merged earlier.
        neighbor_candidates: KD-tree candidate count per subtree.
    """

    multi_merge: bool = True
    merge_fraction: float = 0.5
    delay_target_weight: float = 0.0
    neighbor_candidates: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.merge_fraction <= 1.0:
            raise ValueError("merge_fraction must lie in (0, 1]")
        if not self.delay_target_weight >= 0.0:
            raise ValueError("delay_target_weight must be non-negative")
        if self.neighbor_candidates < 1:
            raise ValueError("neighbor_candidates must be at least 1")

    # ------------------------------------------------------------------
    def make_selector(self) -> "MergePairSelector":
        """A fresh per-run selector carrying this policy's search state."""
        return MergePairSelector(self)

    # ------------------------------------------------------------------
    def _delay_bias_arrays(self, loci_arr, max_delays) -> "object":
        """Per-subtree additive cost bias implementing delay-target ordering.

        Subtrees whose max delay is already large receive a negative bias, so
        that (all else equal) slow subtrees are merged before fast ones.  The
        bias is scaled by the extent of the locus centres (and the widest
        locus) so the two cost components are commensurable.  ``loci_arr``
        is the ``(n, 4)`` locus array and ``max_delays`` the per-subtree max
        delay vector; the per-subtree scalar reference lives in
        ``tests/test_core_merging_order.py``.
        """
        n = len(loci_arr)
        largest = float(max_delays.max())
        if largest <= 0.0:
            return np.zeros(n)
        spans = np.maximum(
            loci_arr[:, 1] - loci_arr[:, 0], loci_arr[:, 3] - loci_arr[:, 2]
        )
        cu = (loci_arr[:, 0] + loci_arr[:, 1]) / 2.0
        cv = (loci_arr[:, 2] + loci_arr[:, 3]) / 2.0
        xs = (cu + cv) / 2.0
        ys = (cu - cv) / 2.0
        extent = max(
            float(xs.max()) - float(xs.min()),
            float(ys.max()) - float(ys.min()),
            float(spans.max()),
            1.0,
        )
        scale = self.delay_target_weight * extent / max(n, 1)
        return -(scale * (max_delays / largest))


class MergePairSelector:
    """Per-run pair selection: a policy plus its neighbour index.

    The routers create one selector per routing run and call
    :meth:`pairs_for_pass_arrays` once per merging pass; the index is keyed
    by subtree node ids, so successive passes reuse every candidate list the
    previous pass did not invalidate.
    """

    def __init__(self, policy: MergeOrderPolicy) -> None:
        self.policy = policy
        self._index = NeighborIndex(k_candidates=policy.neighbor_candidates)

    # ------------------------------------------------------------------
    @property
    def full_rebuilds(self) -> int:
        """Full index rebuilds performed so far."""
        return self._index.full_rebuilds

    @property
    def incremental_passes(self) -> int:
        """Passes answered by incremental repair instead of a rebuild."""
        return self._index.incremental_passes

    # ------------------------------------------------------------------
    def pairs_for_pass_arrays(
        self, loci_arr, node_ids, max_delays=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Indices of the subtree pairs to merge in the current pass.

        ``loci_arr`` is the ``(n, 4)`` locus-interval array of the active
        subtrees, ``node_ids`` the parallel stable keys and ``max_delays`` the
        per-subtree max delay vector (only read when delay-target ordering is
        enabled).  Returns the a- and b-side index arrays, pair ``t`` being
        ``(a[t], b[t])`` with ``a[t] < b[t]``, in selection order.
        """
        policy = self.policy
        n = len(loci_arr)
        if n < 2:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if policy.multi_merge:
            max_pairs = max(1, int(round(policy.merge_fraction * (n // 2))))
        else:
            max_pairs = 1

        bias = (
            policy._delay_bias_arrays(loci_arr, max_delays)
            if policy.delay_target_weight > 0.0
            else None
        )
        pairing = self._index.select_pairs(loci_arr, node_ids, max_pairs, bias)
        return pairing.a, pairing.b
