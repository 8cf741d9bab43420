"""The paper's contribution: the AST-DME associative-skew clock router.

The associative skew tree (AST) problem partitions the clock sinks into groups
``G1..Gk``; a skew constraint applies only between sinks of the same group.
The :class:`AstDme` router merges subtrees bottom-up in nearest-neighbour
order, dispatching each merge on the relationship between the two subtrees'
group sets (Fig. 6 of the paper):

* both from the same group          -> classic DME / BST balanced merge,
* from entirely different groups    -> unconstrained merge on the shortest
                                       distance locus (no snaking ever),
* sharing one or more groups        -> balanced merge on the intersection of
                                       the feasible skew ranges of the shared
                                       groups, snaking when necessary
                                       (Eqs. 5.1-5.3).

The merges of a pass are planned together by the array kernels of
:mod:`repro.core.merge_batch`; the scalar statement of the same equations
(one merge at a time) is the test oracle ``tests/reference_merge.py``.

The two baselines of the evaluation, greedy-DME (zero skew) and EXT-BST
(a single global 10 ps bound), are the same engine run with all sinks in one
group; their thin wrappers live in :mod:`repro.cts`.
"""

from repro.core.group_constraints import GroupAssociation, SkewConstraints
from repro.core.merging_order import MergeOrderPolicy
from repro.core.ast_dme import AstDme, AstDmeConfig, RoutingResult

__all__ = [
    "AstDme",
    "AstDmeConfig",
    "GroupAssociation",
    "MergeOrderPolicy",
    "RoutingResult",
    "SkewConstraints",
]
