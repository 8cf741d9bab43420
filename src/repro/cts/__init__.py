"""Clock-tree synthesis substrate.

This package contains everything that is *not* specific to associative skew:

* :class:`ClockTree` / :class:`ClockNode` -- the embedded clock tree produced
  by every router.
* :mod:`repro.cts.nearest_neighbor` -- candidate generation and greedy
  disjoint selection of nearest pairs for bottom-up merging (single-pair and
  Edahiro-style multi-merge).
* :class:`NeighborIndex` -- the routers' pair-selection engine: candidate
  lists maintained across merging passes (see docs/performance.md).
* :mod:`repro.cts.embedding` -- the top-down embedding pass shared by DME, BST
  and AST-DME.
* :mod:`repro.cts.routing` -- rectilinear (L-shape + snake) realisations of the
  embedded edges, which an export or a visualisation asks for on request.
* :class:`GreedyDme` and :class:`ExtBst` -- the two baselines the paper
  compares against, implemented as configurations of the unified AST engine.
"""

from repro.cts.tree import ClockNode, ClockTree
from repro.cts.nearest_neighbor import NeighborPairing
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
]
