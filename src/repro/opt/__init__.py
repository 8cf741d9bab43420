"""repro.opt -- post-construction clock-tree optimization.

The routers' bottom-up phase balances delays exactly but is blockage-blind;
the obstacle-aware embedding then extends edges for detours and silently
breaks the per-group skew guarantee (``skew`` validation issues on heavily
blocked instances).  This subsystem repairs finished trees in place:

* :class:`ReembedPass` -- move merge points on the blockage escape grid to
  minimise true detoured wirelength;
* :class:`SkewRepairPass` -- restore per-group skew bounds by lengthening
  under-delayed edges (wire snaking) and trimming over-booked ones, with
  exact subtree-relative delay accounting;
* :class:`WirelengthRecoveryPass` -- reclaim booked wire the other passes
  made redundant;
* :class:`BufferInsertPass` -- decouple drivers that see more than
  ``OptConfig.max_cap`` behind library buffers, rejecting any insertion that
  would push a sink group over its skew bound.

Passes implement the :class:`OptPass` protocol and live in a string-keyed
registry (``register_pass`` / ``available_passes``); the :class:`Optimizer`
iterates a configured pipeline to convergence and reports per-pass statistics
in an :class:`OptReport`.  Everything is driven by a serialisable
:class:`OptConfig` (``RunSpec.opt``, ``EcoConfig.repair``), and every repair
of a routed result goes through :func:`optimize_routing`, which holds each
group to the bound the result was routed against.
"""

from repro.opt.base import (
    OptContext,
    OptPass,
    available_passes,
    get_pass,
    register_pass,
    unregister_pass,
)
from repro.opt.buffering import BufferInsertPass
from repro.opt.config import BUFFERED_PASSES, DEFAULT_PASSES, OptConfig
from repro.opt.optimizer import Optimizer, optimize_routing
from repro.opt.recovery import WirelengthRecoveryPass
from repro.opt.reembed import ReembedPass
from repro.opt.report import OptReport, PassOutcome
from repro.opt.skew_repair import SkewRepairPass

__all__ = [
    "BUFFERED_PASSES",
    "BufferInsertPass",
    "DEFAULT_PASSES",
    "OptConfig",
    "OptContext",
    "OptPass",
    "OptReport",
    "Optimizer",
    "PassOutcome",
    "ReembedPass",
    "SkewRepairPass",
    "WirelengthRecoveryPass",
    "available_passes",
    "get_pass",
    "optimize_routing",
    "register_pass",
    "unregister_pass",
]

register_pass(
    "buffer-insert",
    BufferInsertPass,
    description="decouple over-loaded drivers with library buffers, skew-safely",
)
register_pass(
    "reembed",
    ReembedPass,
    description="move merge points on the blockage escape grid to shrink detours",
)
register_pass(
    "skew-repair",
    SkewRepairPass,
    description="restore per-group skew bounds by snaking under-delayed edges",
)
register_pass(
    "wirelength-recovery",
    WirelengthRecoveryPass,
    description="trim booked wire that geometry and the skew bound no longer need",
)
