"""Clock-tree synthesis substrate.

This package contains everything that is *not* specific to associative skew:

* :class:`ClockTree` / :class:`ClockNode` -- the embedded clock tree produced
  by every router.
* :mod:`repro.cts.nearest_neighbor` -- nearest-neighbour pair selection for
  greedy bottom-up merging (single-pair and Edahiro-style multi-merge).
* :mod:`repro.cts.neighbor_index` -- incremental candidate maintenance across
  merging passes (the "incremental" neighbour strategy; see
  docs/performance.md).
* :mod:`repro.cts.embedding` -- the top-down embedding pass shared by DME, BST
  and AST-DME.
* :mod:`repro.cts.routing` -- rectilinear (L-shape + snake) realisations of the
  embedded edges, for export and visualisation.
* :class:`GreedyDme` and :class:`ExtBst` -- the two baselines the paper
  compares against, implemented as configurations of the unified AST engine.
"""

from repro.cts.tree import ClockNode, ClockTree
from repro.cts.nearest_neighbor import NeighborPairing, select_merge_pairs
from repro.cts.neighbor_index import NeighborIndex
from repro.cts.routing import route_edges, RectilinearRoute
from repro.cts.dme import GreedyDme
from repro.cts.bst import ExtBst

__all__ = [
    "ClockNode",
    "ClockTree",
    "ExtBst",
    "GreedyDme",
    "NeighborIndex",
    "NeighborPairing",
    "RectilinearRoute",
    "route_edges",
    "select_merge_pairs",
]
