"""Executing one :class:`RunSpec`: the ``run`` / ``run_safe`` entry points."""

from __future__ import annotations

import time
import traceback

from repro.analysis.skew import skew_report
from repro.analysis.validate import validate_result
from repro.analysis.wirelength import wirelength_report
from repro.api.registry import get_router
from repro.api.spec import RunResult, RunSpec
from repro.obs.metrics import peak_rss_mb
from repro.obs.trace import StageSpans, get_tracer

__all__ = ["run", "run_safe"]


#: The run's top-level stages, in run order.  With ``other_seconds``, the
#: residual, they add up to ``wall_seconds``.
_STAGE_KEYS = (
    "build_seconds",
    "route_seconds",
    "opt_seconds",
    "delay_seconds",
    "wire_seconds",
    "validate_seconds",
)


def _run_stats(stages: StageSpans, routing, started: float) -> dict:
    """Assemble ``RunResult.stats`` from the stage spans and routing stats.

    The top-level stages (``_STAGE_KEYS``) come from the runner's own
    :class:`~repro.obs.trace.StageSpans`, except ``route_seconds``, the
    router's own clock; a stage that did not run has no key.
    ``other_seconds`` is ``wall_seconds`` minus the stages: router set-up,
    result assembly and whatever else ran between them.  Per-stage
    construction times (select/merge/embed, inside ``route_seconds``) come
    from the router's :class:`MergeStats` when it recorded them.
    ``peak_rss_mb`` is the process high-water mark at the end of the run
    (see :func:`repro.obs.metrics.peak_rss_mb` for its semantics).
    """
    stats = dict(stages.seconds)
    merge_stats = getattr(routing, "stats", None)
    for name in ("select_seconds", "merge_seconds", "embed_seconds"):
        value = getattr(merge_stats, name, None)
        if value:
            stats[name] = float(value)
    stats["route_seconds"] = float(routing.elapsed_seconds)
    stats["wall_seconds"] = time.perf_counter() - started
    stats["other_seconds"] = stats["wall_seconds"] - sum(
        stats.get(key, 0.0) for key in _STAGE_KEYS
    )
    stats["peak_rss_mb"] = peak_rss_mb()
    return stats


def run(spec: RunSpec, keep_tree: bool = False, trace: bool = False) -> RunResult:
    """Execute one routing run described by ``spec``.

    Builds the instance, constructs the router through the registry, routes,
    optionally repairs the routed tree with the post-construction optimizer
    (``spec.opt``), and bundles skew / wirelength reports, validation issues
    (when ``spec.validate``, re-checked *after* any repair) and timings into a
    :class:`RunResult`.

    Args:
        spec: the declarative run description.
        keep_tree: also attach the full ``RoutingResult`` (tree, merge stats,
            loci) as ``RunResult.routing``.  Off by default so results stay
            cheap to pickle and serialise.
        trace: record a span trace of this run and attach the NDJSON-ready
            event list as ``RunResult.trace``.  Off by default: the routed
            result is bit-identical either way (tracing only observes), but
            the trace itself costs a few percent of wall time.
    """
    if not trace:
        return _run(spec, keep_tree)
    with get_tracer().session() as session:
        result = _run(spec, keep_tree)
    result.trace = session.events
    return result


def _run(spec: RunSpec, keep_tree: bool) -> RunResult:
    started = time.perf_counter()
    stages = StageSpans()
    with get_tracer().span(
        "run", router=spec.router.name, label=spec.label
    ) as run_span:
        with stages.stage("build_seconds", "run.build") as build_span:
            instance = spec.instance.build()
            build_span.set(num_sinks=instance.num_sinks)
        run_span.set(
            instance=instance.name,
            num_sinks=instance.num_sinks,
            num_groups=instance.num_groups,
        )
        router = get_router(spec.router)
        # A plain span (not a stages entry): route_seconds comes from the
        # router's own wall clock, the span exists for trace structure.
        with get_tracer().span("run.route", router=spec.router.name):
            routing = router.route(instance)

        opt_report = None
        if spec.opt is not None and spec.opt.enabled:
            from repro.opt.optimizer import optimize_routing

            with stages.stage("opt_seconds", "run.opt"):
                opt_report = optimize_routing(
                    routing, spec.opt, intra_bound_ps=spec.effective_bound_ps()
                )
            routing.opt = opt_report

        with stages.stage("delay_seconds", "run.delay"):
            skew = skew_report(routing.tree)
        with stages.stage("wire_seconds", "run.wire"):
            wire = wirelength_report(routing.tree)
        validate_kwargs = {"intra_bound_ps": spec.effective_bound_ps()}
        if spec.locus_tolerance is not None:
            validate_kwargs["locus_tolerance"] = spec.locus_tolerance
        if spec.validate:
            with stages.stage("validate_seconds", "run.validate") as validate_span:
                # Validation's detours come from the instance's one set (an
                # empty set computes none).
                obstacles = routing.instance.obstacle_set()
                detours_before = obstacles.detours_computed
                issues = validate_result(routing, **validate_kwargs)
                validate_span.set(
                    issues=len(issues),
                    detours_computed=obstacles.detours_computed - detours_before,
                )
        else:
            issues = []
    return RunResult(
        spec=spec,
        instance_name=instance.name,
        num_sinks=instance.num_sinks,
        num_groups=instance.num_groups,
        num_nodes=len(routing.tree),
        wirelength=routing.wirelength,
        skew=skew,
        wire=wire,
        issues=issues,
        route_seconds=routing.elapsed_seconds,
        total_seconds=time.perf_counter() - started,
        opt=opt_report,
        stats=_run_stats(stages, routing, started),
        routing=routing if keep_tree else None,
    )


def run_safe(spec: RunSpec, trace: bool = False) -> RunResult:
    """Like :func:`run` but captures exceptions in ``RunResult.error``.

    This is what :class:`~repro.api.batch.BatchRunner` executes per spec so a
    single bad run cannot abort a batch.
    """
    started = time.perf_counter()
    try:
        return run(spec, trace=trace)
    except Exception as exc:  # noqa: BLE001 - per-run capture is the point
        return RunResult(
            spec=spec,
            error="%s: %s\n%s" % (type(exc).__name__, exc, traceback.format_exc()),
            total_seconds=time.perf_counter() - started,
            stats={
                "wall_seconds": time.perf_counter() - started,
                "peak_rss_mb": peak_rss_mb(),
            },
        )
