"""The benchmark's workloads, driven through the public ``repro`` API.

A workload is set up once per run (:meth:`setup`, timed by the runner), then
executes flows (:meth:`flow`) in a closed loop of one caller.  A flow returns
a :class:`FlowOutcome`: how long the library took, the latency of each op,
the final tree's quality, the counts the library reports about its own work,
and every output check that failed.  Output checks run outside the timed
regions.

* ``uniform-50k`` -- one full flow per op: instance build, ``ast-dme`` route,
  reports and validation of a random 50 000-sink, 8-group instance.
* ``blocked-buffered-8k`` -- the same flow on two ``blocked`` family
  instances with the buffered repair pipeline.
* ``eco-stream-10k`` -- a 10 000-sink base route (set-up), then a seeded
  chain of ECO deltas, each re-routed incrementally from the previous result
  and followed by the skew and wirelength reports; the stitched tree is
  validated once at the end.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import (
    AstDmeConfig,
    InstanceSpec,
    OptConfig,
    RouterSpec,
    RunSpec,
    run,
    skew_report,
    validate_result,
    wirelength_report,
)
from repro.eco import EcoConfig, EcoDelta, SinkAdd, SinkMove, eco_reroute
from repro.eco import preserved_subtrees_identical
from repro.geometry.point import Point
from repro.opt.config import BUFFERED_PASSES

__all__ = ["FlowOutcome", "FullFlow", "EcoStream", "WORKLOADS", "make_workload"]

#: The intra-group skew bound every workload routes and validates against.
SKEW_BOUND_PS = 10.0
GROUPS = 8
#: Driver cap limit (fF) of the buffered workload.
MAX_CAP = 8000.0


@dataclass
class FlowOutcome:
    """What one flow did, as measured and checked from outside the library."""

    #: Library time of the flow: the sum of its timed regions.
    seconds: float = 0.0
    #: Latency of each op that completed (a whole flow, or one ECO delta).
    op_seconds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wirelength_um: float = 0.0
    max_intra_skew_ps: float = 0.0
    #: Work counts reported by the library's own results (per flow).
    counts: Dict[str, float] = field(default_factory=dict)
    #: One line per failed output check.
    problems: List[str] = field(default_factory=list)
    #: Which of the run's inputs the flow used.
    instance: int = 0

    @property
    def outputs(self) -> tuple:
        return (self.wirelength_um, self.max_intra_skew_ps)


def _router() -> RouterSpec:
    return RouterSpec("ast-dme", {"skew_bound_ps": SKEW_BOUND_PS})


def _error(exc: BaseException) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


class FullFlow:
    """Build, route, (repair,) report and validate one instance per op.

    A run has ``instances`` inputs, drawn from instance seeds
    ``seed * instances + i``, and flows cycle through them; an untraced run
    makes at least one flow of each.  More than one input per run averages
    out how much the work depends on the input.
    """

    def __init__(self, num_sinks: int, family: Optional[str], instances: int = 1) -> None:
        self.num_sinks = num_sinks
        self.family = family
        self.min_flows = instances
        self.specs: List[RunSpec] = []

    def _spec(self, seed: int) -> RunSpec:
        if self.family is None:
            instance = InstanceSpec.from_random(
                self.num_sinks, seed=seed, groups=GROUPS, grouping_seed=seed
            )
            return RunSpec(instance=instance, router=_router(), validate=True)
        instance = InstanceSpec.from_family(
            self.family, self.num_sinks, seed=seed, groups=GROUPS, grouping_seed=seed
        )
        opt = OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=MAX_CAP)
        return RunSpec(instance=instance, router=_router(), opt=opt, validate=True)

    def setup(self, seed: int) -> float:
        """Describe the run's instances; the flow builds them, so nothing is timed."""
        self.specs = [self._spec(seed * self.min_flows + i) for i in range(self.min_flows)]
        return 0.0

    def flow(self, index: int) -> FlowOutcome:
        """The ``index``-th flow of the run."""
        outcome = FlowOutcome(attempted=1, instance=index % len(self.specs))
        start = time.perf_counter()
        try:
            result = run(self.specs[outcome.instance], keep_tree=True)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            outcome.seconds = time.perf_counter() - start
            outcome.failed = 1
            outcome.problems.append(_error(exc))
            return outcome
        outcome.seconds = time.perf_counter() - start
        outcome.op_seconds.append(outcome.seconds)
        outcome.wirelength_um = result.wirelength
        outcome.max_intra_skew_ps = result.max_intra_group_skew_ps
        outcome.counts["core.passes"] = result.routing.stats.passes
        report = result.opt
        if report is not None:
            outcome.counts.update(
                {
                    "opt.iterations": report.iterations,
                    "opt.reverted": sum(p.reverted for p in report.passes),
                    "opt.buffers_inserted": sum(p.buffers_inserted for p in report.passes),
                    "opt.violations_pre": report.skew_violations_before,
                    "opt.violations_post": report.skew_violations_after,
                }
            )
        outcome.problems.extend(str(issue) for issue in result.issues)
        if report is not None and report.skew_violations_after > 0:
            outcome.problems.append(
                "%d skew violations left after repair" % report.skew_violations_after
            )
        outcome.failed = int(bool(outcome.problems))
        return outcome


def make_deltas(instance, seed: int, count: int, moves: int = 12, removes: int = 4, adds: int = 4):
    """A seeded chain of deltas, each valid on the result of the previous one.

    Each delta moves ``moves`` sinks by up to 2% of the layout, removes
    ``removes`` sinks and adds ``adds`` sinks at random places, with loads
    drawn from the instance's and random groups.  Sink ids are tracked the
    way :meth:`EcoDelta.apply` assigns them, so no routing is needed here.
    """
    rng = random.Random(seed)
    where = {sink.sink_id: sink.location for sink in instance.sinks}
    caps = sorted(sink.cap for sink in instance.sinks)
    lo = min(min(p.x, p.y) for p in where.values())
    hi = max(max(p.x, p.y) for p in where.values())
    step = 0.02 * (hi - lo)

    def clamp(value: float) -> float:
        return min(hi, max(lo, value))

    deltas = []
    for _ in range(count):
        picked = rng.sample(sorted(where), moves + removes)
        moved = tuple(
            SinkMove(
                sid,
                Point(
                    clamp(where[sid].x + rng.uniform(-step, step)),
                    clamp(where[sid].y + rng.uniform(-step, step)),
                ),
            )
            for sid in picked[:moves]
        )
        added = tuple(
            SinkAdd(
                Point(rng.uniform(lo, hi), rng.uniform(lo, hi)),
                rng.choice(caps),
                rng.randrange(GROUPS),
            )
            for _ in range(adds)
        )
        delta = EcoDelta(add=added, move=moved, remove=tuple(picked[moves:]))
        next_id = max(where) + 1
        for move in moved:
            where[move.sink_id] = move.location
        for sid in delta.remove:
            del where[sid]
        for offset, add in enumerate(added):
            where[next_id + offset] = add.location
        deltas.append(delta)
    return deltas


class EcoStream:
    """A chain of ECO deltas on a routed base; one op per delta."""

    min_flows = 1

    def __init__(self, num_sinks: int, deltas: int) -> None:
        self.num_sinks = num_sinks
        self.num_deltas = deltas
        self.config = EcoConfig(router=AstDmeConfig(skew_bound_ps=SKEW_BOUND_PS))
        self.base = None
        self.deltas: List[EcoDelta] = []

    def setup(self, seed: int) -> float:
        """Route the base instance (timed); then derive the delta chain."""
        instance = InstanceSpec.from_random(
            self.num_sinks, seed=seed, groups=GROUPS, grouping_seed=seed
        )
        start = time.perf_counter()
        self.base = run(RunSpec(instance=instance, router=_router()), keep_tree=True).routing
        seconds = time.perf_counter() - start
        self.deltas = make_deltas(self.base.instance, seed, self.num_deltas)
        return seconds

    def flow(self, index: int) -> FlowOutcome:
        """One whole chain; every flow of the run replays the same chain."""
        outcome = FlowOutcome(attempted=len(self.deltas) + 1)
        counts = dict.fromkeys(
            ("core.passes", "eco.cone_nodes", "eco.rebuilt_nodes", "eco.reused_nodes", "eco.frontier_subtrees"),
            0,
        )
        current = self.base
        for step, delta in enumerate(self.deltas):
            start = time.perf_counter()
            try:
                stitched = eco_reroute(current, delta, self.config)
                skew = skew_report(stitched.routing.tree)
                wire = wirelength_report(stitched.routing.tree)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                outcome.seconds += time.perf_counter() - start
                # Later deltas were drawn against this delta's result.
                outcome.failed += len(self.deltas) - step + 1
                outcome.problems.append("delta %d: %s" % (step, _error(exc)))
                break
            latency = time.perf_counter() - start
            outcome.seconds += latency
            outcome.op_seconds.append(latency)
            stats = stitched.eco
            counts["core.passes"] += stitched.routing.stats.passes
            counts["eco.cone_nodes"] += stats.cone_nodes
            counts["eco.rebuilt_nodes"] += stats.rebuilt_nodes
            counts["eco.reused_nodes"] += stats.reused_nodes
            counts["eco.frontier_subtrees"] += stats.frontier_subtrees
            if not preserved_subtrees_identical(current.tree, stitched.routing.tree, stats.preserved_roots):
                outcome.failed += 1
                outcome.problems.append("delta %d: a preserved subtree changed" % step)
            outcome.wirelength_um = wire.total
            outcome.max_intra_skew_ps = skew.max_intra_group_skew_ps
            current = stitched.routing
        else:
            start = time.perf_counter()
            try:
                issues = validate_result(current, intra_bound_ps=SKEW_BOUND_PS)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                issues = [_error(exc)]
            outcome.seconds += time.perf_counter() - start
            if issues:
                outcome.failed += 1
                outcome.problems.extend("final tree: %s" % issue for issue in issues)
        outcome.counts = counts
        return outcome


#: name -> factory of the workload; ``scale`` shrinks the instances for smoke
#: tests.  Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    "uniform-50k": lambda scale: FullFlow(max(64, int(50_000 * scale)), None),
    # The opt passes' work depends on where the blockages fall: one instance
    # can take twice as long as another, so each run averages two.
    "blocked-buffered-8k": lambda scale: FullFlow(max(64, int(8_000 * scale)), "blocked", instances=2),
    "eco-stream-10k": lambda scale: EcoStream(max(64, int(10_000 * scale)), deltas=100),
}


def make_workload(name: str, scale: float = 1.0):
    return WORKLOADS[name](scale)
