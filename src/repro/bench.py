"""The ``repro bench`` perf-gate harness.

Runs a scaling suite of routing benchmarks -- seeded random instances at
growing sink counts, each routed by every registered algorithm through the
:mod:`repro.api` facade -- and writes a ``BENCH_*.json`` trajectory file with
wall-time, peak-RSS and quality (wirelength / skew) columns.  Since schema v4
the harness also owns the *serving-side* suite (``--suite service``): the
:mod:`repro.service` load harness contributes ``kind == "service"`` rows
(requests/sec, p50/p99 latency, cache hit rate) and gates to the same
payload; since schema v6 ``--suite eco`` contributes ``kind == "eco"`` rows
measuring the incremental re-route (:mod:`repro.eco`) against a full
re-route of the same instance; ``--suite all`` runs everything.

Three kinds of routing rows are produced per instance size:

* one row per router (``ast-dme`` on an 8-group intermingled instance,
  ``greedy-dme`` and ``ext-bst`` on the ungrouped instance) with the default
  configuration -- the headline trajectory every PR is compared against;
* one ``greedy-dme`` strict single-merge row per neighbour strategy
  (``scalar`` seed reference, ``rebuild`` vectorised, ``incremental``
  maintained index) -- the merging loop dominates there, which is what the
  speed-up *gates* measure;
* buffered-CTS rows (since schema v7): the blocked instance under the
  cap-limited buffered pipeline, a buffer-free identity row whose pipeline
  carries the insertion pass but no cap limit, and an ``h-tree`` trunk-hybrid
  comparison row -- gated on buffer-free bit-identity, at least one clean
  validated insertion, and the h-tree wirelength ratio;
* one obstacle-scenario row per router on the ``blocked`` generator family
  (uniform sinks dodging macro blockages) -- the obstacle-aware embedding
  path, tracked with the same wall/RSS/quality columns.  These rows run with
  the post-construction repair (:mod:`repro.opt`) enabled and carry pre/post
  skew-violation counts plus the repaired wirelength; a *repair gate* per
  size asserts the repair eliminates at least 90% of the pre-repair ``skew``
  violations.

Each run executes in a fresh worker process so ``ru_maxrss`` is a true
per-run peak and runs cannot warm each other's caches; runs execute
sequentially so timings do not contend.

The JSON payload (see :func:`validate_bench_payload` for the schema) is what
``repro bench`` writes and CI uploads as a per-PR artifact; committed
``BENCH_scaling.json`` files form the measured perf trajectory of the repo.
``benchmarks/harness.py`` is a runnable shim around this module.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from repro.api.registry import RouterSpec
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.obs.metrics import peak_rss_mb
from repro.opt.config import BUFFERED_PASSES, OptConfig

__all__ = [
    "SCHEMA",
    "DEFAULT_SIZES",
    "SMOKE_SIZES",
    "LARGE_SIZES",
    "SMOKE_LARGE_SIZES",
    "ECO_SIZES",
    "SMOKE_ECO_SIZES",
    "SUITES",
    "GATE_SPEEDUP",
    "GATE_ECO_SPEEDUP",
    "BENCH_MAX_CAP",
    "GATE_HTREE_MAX_WIRELENGTH_RATIO",
    "LARGE_WALL_LIMITS",
    "LARGE_RSS_LIMITS",
    "scaling_configs",
    "large_configs",
    "eco_configs",
    "run_suite",
    "validate_bench_payload",
    "format_rows",
]

#: Schema identifier stamped into every payload this harness writes.
#: v2 added the ``family`` row column (``uniform`` / ``blocked`` scenarios);
#: v3 added the repair columns (``repaired``, ``skew_violations_pre``/``_post``,
#: ``repaired_wirelength``) and typed gates (``kind``: speedup / repair);
#: v4 added the ``kind`` row discriminator (``routing`` / ``service``), the
#: top-level ``suite`` / ``smoke`` / ``service_sizes`` fields and the
#: serving-side rows + gates of ``repro bench --suite service``;
#: v5 added the ``tree_backend`` / ``merge_seconds`` / ``embed_seconds`` /
#: ``delay_seconds`` row columns, the arena-vs-object identity rows + backend
#: gates, and the ``--suite large`` sweep (50k/200k sinks) with its resource
#: gates (wall/RSS ceilings) and the top-level ``large_sizes`` field;
#: v6 added the ``kind == "eco"`` rows and gates of ``--suite eco`` (the
#: incremental re-route versus a full re-route of the same instance) and the
#: top-level ``eco_sizes`` field;
#: v7 adds the ``buffers_inserted`` / ``validation_issues`` row columns, the
#: ``h-tree`` comparison rows and buffered-insertion rows on the blocked
#: scenarios, and the ``buffered`` (buffer-free runs stay bit-identical;
#: buffered runs insert and validate) and ``htree`` (valid tree within the
#: wirelength ratio ceiling versus ast-dme) gates.  Since the object merge
#: loop left the library every row's ``tree_backend`` reads ``"arena"`` and
#: no run emits ``backend`` gates; the validator still accepts them, so older
#: v7 files (the committed trajectory) stay valid.
SCHEMA = "repro-bench/v7"

#: The suites ``repro bench --suite`` can run.
SUITES = ("scaling", "large", "service", "eco", "all")

#: Default sink counts of the scaling suite (the perf gate runs at the last).
DEFAULT_SIZES = (500, 2000, 8000)

#: Sink counts of the ``--smoke`` suite (seconds, not minutes; CI-friendly).
SMOKE_SIZES = (60, 120)

#: Sink counts of the large suite.
LARGE_SIZES = (50000, 200000)

#: Large-suite sizes under ``--smoke`` (one size CI can afford).
SMOKE_LARGE_SIZES = (50000,)

#: Wall-time improvement the gate demands of the incremental strategy over
#: the scalar seed reference on the single-merge greedy-DME configuration.
GATE_SPEEDUP = 5.0

#: Wall-time ceilings (seconds) of the large-suite resource gates, per sink
#: count.  Measured arena walls are ~5.7s at 50k and ~30s at 200k on the
#: reference machine; the ceilings leave ~4x headroom for slower CI hosts.
LARGE_WALL_LIMITS = {50000: 30.0, 200000: 150.0}

#: Peak-RSS ceilings (MB) of the large-suite resource gates, per sink count.
#: Measured peaks are ~210MB at 50k and ~590MB at 200k (~2.5x headroom).
LARGE_RSS_LIMITS = {50000: 600.0, 200000: 1600.0}

#: Fraction of pre-repair skew violations that may survive the repair pass on
#: the blocked scenario rows (the repair gate demands >= 90% elimination).
GATE_REPAIR_MAX_SURVIVING = 0.1

#: Driver cap limit (fF) of the buffered blocked rows.  Low enough that every
#: bench size (including the smoke sizes) carries over-cap drivers, so the
#: buffered gate can demand at least one insertion everywhere.
BENCH_MAX_CAP = 8000.0

#: Wirelength the h-tree trunk hybrid may spend relative to ast-dme on the
#: same blocked instance (measured ~1.13-1.17x; the trunk symmetry and the
#: junction alignment snaking both cost wire).
GATE_HTREE_MAX_WIRELENGTH_RATIO = 1.5

#: Sink counts of the ECO suite (the speed-up gate runs at the last).
ECO_SIZES = (2000, 8000)

#: ECO-suite sizes under ``--smoke`` (the speed-up threshold is waived there;
#: identity and validation still gate).
SMOKE_ECO_SIZES = (120,)

#: Sinks the ECO suite's delta moves (scaled down on tiny instances).
ECO_MOVED_SINKS = 16

#: Wall-time improvement the ECO gate demands of the incremental re-route
#: over a full route of the same instance, at the largest ECO size.
GATE_ECO_SPEEDUP = 10.0

#: Keys every ``kind == "routing"`` bench row carries (the JSON schema,
#: enforced by :func:`validate_bench_payload`).
ROW_KEYS = frozenset(
    {
        "kind", "label", "router", "num_sinks", "groups", "seed", "order",
        "family", "neighbor_strategy", "tree_backend", "wall_seconds",
        "select_seconds", "merge_seconds", "embed_seconds", "delay_seconds",
        "total_seconds", "peak_rss_mb", "wirelength", "global_skew_ps",
        "max_intra_group_skew_ps", "num_nodes", "passes",
        "neighbor_full_rebuilds", "neighbor_incremental_passes",
        "obstacle_detour", "repaired", "skew_violations_pre",
        "skew_violations_post", "repaired_wirelength", "buffers_inserted",
        "validation_issues", "ok", "error",
    }
)

#: Keys every ``kind == "service"`` row carries (written by the
#: :mod:`repro.service.loadtest` harness).
SERVICE_ROW_KEYS = frozenset(
    {
        "kind", "label", "router", "num_sinks", "groups", "seed", "workers",
        "requests", "hits", "misses", "hit_rate", "cold_seconds",
        "hot_seconds_total", "requests_per_sec", "p50_ms", "p99_ms",
        "identical_results", "ok", "error",
    }
)

#: Keys every ``kind == "eco"`` row carries (written by :func:`_eco_worker`).
ECO_ROW_KEYS = frozenset(
    {
        "kind", "label", "router", "num_sinks", "groups", "seed",
        "moved_sinks", "full_seconds", "eco_seconds", "speedup",
        "cone_nodes", "reused_nodes", "rebuilt_nodes", "frontier_subtrees",
        "preserved_identical", "validation_ok", "wirelength",
        "global_skew_ps", "max_intra_group_skew_ps", "num_nodes",
        "peak_rss_mb", "ok", "error",
    }
)

SPEEDUP_GATE_KEYS = frozenset(
    {
        "kind", "name", "baseline_label", "candidate_label", "identity_label",
        "speedup", "threshold", "identical_results", "passed",
    }
)

#: Keys of the ``backend`` gates (arena-vs-object loop identity and speed-up)
#: that v7 files written before the object loop left the library carry.
BACKEND_GATE_KEYS = frozenset(
    {
        "kind", "name", "baseline_label", "candidate_label", "speedup",
        "threshold", "identical_results", "passed",
    }
)

RESOURCE_GATE_KEYS = frozenset(
    {
        "kind", "name", "row_label", "wall_seconds", "max_wall_seconds",
        "peak_rss_mb", "max_peak_rss_mb", "passed",
    }
)

REPAIR_GATE_KEYS = frozenset(
    {
        "kind", "name", "row_labels", "violations_pre", "violations_post",
        "max_surviving_fraction", "passed",
    }
)

SERVICE_GATE_KEYS = frozenset(
    {
        "kind", "name", "row_label", "hit_rate", "min_hit_rate",
        "hot_speedup", "speedup_threshold", "identical_results", "passed",
    }
)

ECO_GATE_KEYS = frozenset(
    {
        "kind", "name", "row_label", "speedup", "threshold",
        "preserved_identical", "validation_ok", "passed",
    }
)

BUFFERED_GATE_KEYS = frozenset(
    {
        "kind", "name", "plain_label", "bufferfree_label", "buffered_label",
        "identical_results", "buffers_inserted", "min_buffers",
        "validation_issues", "passed",
    }
)

HTREE_GATE_KEYS = frozenset(
    {
        "kind", "name", "htree_label", "baseline_label", "wirelength_ratio",
        "max_ratio", "validation_issues", "passed",
    }
)


# ----------------------------------------------------------------------
# Suite definition
# ----------------------------------------------------------------------
def scaling_configs(
    sizes: Sequence[int] = DEFAULT_SIZES, seed: int = 1
) -> List[Dict[str, Any]]:
    """The bench configurations of the scaling suite, as plain dicts.

    Each entry holds a serialisable :class:`RunSpec` dict plus the metadata
    columns (``order``, ``neighbor_strategy``) the spec alone does not show.
    """
    configs: List[Dict[str, Any]] = []
    for n in sizes:
        # Headline trajectory: default configuration per router.
        for router, groups in (("ast-dme", 8), ("greedy-dme", 1), ("ext-bst", 1)):
            label = "%s-n%d" % (router, n)
            configs.append(
                {
                    "label": label,
                    "order": "multi",
                    "family": "uniform",
                    "neighbor_strategy": "incremental",
                    "tree_backend": "arena",
                    "spec": RunSpec(
                        instance=InstanceSpec.from_random(n, seed=seed, groups=groups),
                        router=RouterSpec(router, {"skew_bound_ps": 10.0}),
                        label=label,
                    ).to_dict(),
                }
            )
        # Perf-gate rows: strict single-merge order, one row per strategy.
        for strategy in ("scalar", "rebuild", "incremental"):
            label = "greedy-dme-single-%s-n%d" % (strategy, n)
            configs.append(
                {
                    "label": label,
                    "order": "single",
                    "family": "uniform",
                    "neighbor_strategy": strategy,
                    "tree_backend": "arena",
                    "spec": RunSpec(
                        instance=InstanceSpec.from_random(n, seed=seed),
                        router=RouterSpec(
                            "greedy-dme",
                            {"multi_merge": False, "neighbor_strategy": strategy},
                        ),
                        label=label,
                    ).to_dict(),
                }
            )
        # Obstacle-scenario rows: the blocked family through every router
        # (macro blockages exercise the obstacle-aware embedding path), with
        # the post-construction repair enabled -- the pre/post quality columns
        # and the repair gates come from these rows.
        for router, groups in (("ast-dme", 8), ("greedy-dme", 1), ("ext-bst", 1)):
            label = "%s-blocked-n%d" % (router, n)
            configs.append(
                {
                    "label": label,
                    "order": "multi",
                    "family": "blocked",
                    "neighbor_strategy": "incremental",
                    "tree_backend": "arena",
                    "spec": RunSpec(
                        instance=InstanceSpec.from_family(
                            "blocked", n, seed=seed, groups=groups
                        ),
                        router=RouterSpec(router, {"skew_bound_ps": 10.0}),
                        label=label,
                        opt=OptConfig(enabled=True),
                    ).to_dict(),
                }
            )
        # Buffered-CTS rows (schema v7).  The blocked instance again, but with
        # the cap-limited buffered pipeline: insertion decouples over-loaded
        # drivers, the repair then restores the bounds around the inserted
        # stage delays.  Validated end to end -- the buffered gate demands a
        # clean tree with at least one insertion at every size.
        label = "ast-dme-buffered-blocked-n%d" % n
        configs.append(
            {
                "label": label,
                "order": "multi",
                "family": "blocked",
                "neighbor_strategy": "incremental",
                "tree_backend": "arena",
                "spec": RunSpec(
                    instance=InstanceSpec.from_family("blocked", n, seed=seed, groups=8),
                    router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
                    label=label,
                    validate=True,
                    opt=OptConfig(
                        enabled=True, passes=BUFFERED_PASSES, max_cap=BENCH_MAX_CAP
                    ),
                ).to_dict(),
            }
        )
        # Buffer-free identity row: the headline uniform instance with the
        # insertion pass in the pipeline but no cap limit, so the pass must
        # no-op and the run must stay bit-identical to ``ast-dme-n{n}`` --
        # the buffered gate's identity half.
        label = "ast-dme-bufferfree-n%d" % n
        configs.append(
            {
                "label": label,
                "order": "multi",
                "family": "uniform",
                "neighbor_strategy": "incremental",
                "tree_backend": "arena",
                "spec": RunSpec(
                    instance=InstanceSpec.from_random(n, seed=seed, groups=8),
                    router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
                    label=label,
                    opt=OptConfig(enabled=True, passes=("buffer-insert",)),
                ).to_dict(),
            }
        )
        # H-tree comparison row: the trunk hybrid on the same blocked
        # instance as ``ast-dme-blocked-n{n}``, repair enabled (the leaf
        # subtrees inherit the embedding's detour shifts) and validated; the
        # htree gate prices its wirelength against the ast-dme row.
        label = "h-tree-blocked-n%d" % n
        configs.append(
            {
                "label": label,
                "order": "multi",
                "family": "blocked",
                "neighbor_strategy": "incremental",
                "tree_backend": "arena",
                "spec": RunSpec(
                    instance=InstanceSpec.from_family("blocked", n, seed=seed, groups=8),
                    router=RouterSpec(
                        "h-tree", {"skew_bound_ps": 10.0, "trunk_levels": 2}
                    ),
                    label=label,
                    validate=True,
                    opt=OptConfig(enabled=True),
                ).to_dict(),
            }
        )
    return configs


def large_configs(
    sizes: Sequence[int] = LARGE_SIZES, seed: int = 1
) -> List[Dict[str, Any]]:
    """The bench configurations of the large suite (``--suite large``).

    One grouped ast-dme row and one single-group greedy-dme row per size.
    """
    configs: List[Dict[str, Any]] = []
    for n in sizes:
        for router, groups in (("ast-dme", 8), ("greedy-dme", 1)):
            label = "%s-large-n%d" % (router, n)
            configs.append(
                {
                    "label": label,
                    "order": "multi" if router == "ast-dme" else "single",
                    "family": "uniform",
                    "neighbor_strategy": "incremental",
                    "tree_backend": "arena",
                    "spec": RunSpec(
                        instance=InstanceSpec.from_random(n, seed=seed, groups=groups),
                        router=RouterSpec(
                            router,
                            {"skew_bound_ps": 10.0} if router == "ast-dme" else {},
                        ),
                        label=label,
                    ).to_dict(),
                }
            )
    return configs


def eco_configs(
    sizes: Sequence[int] = ECO_SIZES, seed: int = 1
) -> List[Dict[str, Any]]:
    """The bench configurations of the ECO suite (``--suite eco``).

    One grouped ast-dme instance per size; the worker routes it once (the
    full-route baseline), moves ``moved_sinks`` sinks spread across the
    instance and re-routes incrementally through :func:`repro.api.eco.run_eco`.
    """
    configs: List[Dict[str, Any]] = []
    for n in sizes:
        label = "ast-dme-eco-n%d" % n
        configs.append(
            {
                "label": label,
                "moved_sinks": min(ECO_MOVED_SINKS, max(1, n // 8)),
                "spec": RunSpec(
                    instance=InstanceSpec.from_random(n, seed=seed, groups=8),
                    router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
                    label=label,
                ).to_dict(),
            }
        )
    return configs


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _bench_worker(config: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one bench config in this (fresh) process; returns the row.

    With ``config["trace"]`` the run records a span trace and the row carries
    the event list under ``"trace"`` -- a transport key the parent pops (and
    namespaces) before the row enters the payload.
    """
    spec = RunSpec.from_dict(config["spec"])
    row: Dict[str, Any] = {
        "kind": "routing",
        "label": config["label"],
        "router": spec.router.name,
        "num_sinks": spec.instance.num_sinks or 0,
        "groups": spec.instance.groups,
        "seed": spec.instance.seed,
        "order": config["order"],
        "family": config["family"],
        "neighbor_strategy": config["neighbor_strategy"],
        "tree_backend": config.get("tree_backend", "arena"),
        "wall_seconds": 0.0,
        "select_seconds": 0.0,
        "merge_seconds": 0.0,
        "embed_seconds": 0.0,
        "delay_seconds": 0.0,
        "total_seconds": 0.0,
        "peak_rss_mb": 0.0,
        "wirelength": 0.0,
        "global_skew_ps": 0.0,
        "max_intra_group_skew_ps": 0.0,
        "num_nodes": 0,
        "passes": 0,
        "neighbor_full_rebuilds": 0,
        "neighbor_incremental_passes": 0,
        "obstacle_detour": 0.0,
        "repaired": spec.opt is not None and spec.opt.enabled,
        "skew_violations_pre": 0,
        "skew_violations_post": 0,
        "repaired_wirelength": 0.0,
        "buffers_inserted": 0,
        # ``None`` distinguishes "row did not validate" from "validated
        # clean" (0) -- only rows with ``spec.validate`` carry a count.
        "validation_issues": None,
        "ok": False,
        "error": None,
    }
    try:
        result = run(spec, keep_tree=True, trace=bool(config.get("trace")))
    except Exception as exc:  # noqa: BLE001 - a bench row must never abort the suite
        row["error"] = "%s: %s" % (type(exc).__name__, exc)
        return row
    if result.trace:
        row["trace"] = result.trace
    stats = result.routing.stats
    # The ``wirelength`` column stays comparable across schema versions: for
    # repaired rows it is the *routed* (pre-repair) wirelength and the final
    # tree's total lands in ``repaired_wirelength``.
    wirelength = result.wirelength
    repaired_wirelength = result.wirelength
    if result.opt is not None:
        wirelength = result.opt.wirelength_before
        repaired_wirelength = result.opt.wirelength_after
        row.update(
            skew_violations_pre=result.opt.skew_violations_before,
            skew_violations_post=result.opt.skew_violations_after,
            buffers_inserted=sum(p.buffers_inserted for p in result.opt.passes),
        )
    if spec.validate:
        row["validation_issues"] = len(result.issues)
    row.update(
        wall_seconds=result.route_seconds,
        select_seconds=stats.select_seconds,
        merge_seconds=result.stats.get("merge_seconds", 0.0),
        embed_seconds=result.stats.get("embed_seconds", 0.0),
        delay_seconds=result.stats.get("delay_seconds", 0.0),
        total_seconds=result.total_seconds,
        # The fresh worker process makes the RSS high-water mark a true
        # per-run peak rather than the peak of the whole suite.
        peak_rss_mb=peak_rss_mb(),
        wirelength=wirelength,
        global_skew_ps=result.global_skew_ps,
        max_intra_group_skew_ps=result.max_intra_group_skew_ps,
        num_nodes=result.num_nodes,
        passes=stats.passes,
        neighbor_full_rebuilds=stats.neighbor_full_rebuilds,
        neighbor_incremental_passes=stats.neighbor_incremental_passes,
        obstacle_detour=stats.obstacle_detour,
        repaired_wirelength=repaired_wirelength,
        ok=True,
    )
    return row


def _eco_worker(config: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one ECO bench config in this (fresh) process; returns the row.

    ``full_seconds`` is the wall time of routing the instance from scratch --
    the delta only moves sinks, so the base route is the cost of the full
    re-run the ECO replaces.  ``eco_seconds`` is the best of three
    ``eco_reroute`` calls: the incremental path is sub-100ms where a single
    scheduler hiccup could flip a 10x gate.
    """
    from repro.api.eco import EcoSpec, run_eco
    from repro.eco import EcoDelta, SinkMove, preserved_subtrees_identical
    from repro.geometry.point import Point

    spec = RunSpec.from_dict(config["spec"])
    moved = config["moved_sinks"]
    row: Dict[str, Any] = {
        "kind": "eco",
        "label": config["label"],
        "router": spec.router.name,
        "num_sinks": spec.instance.num_sinks or 0,
        "groups": spec.instance.groups,
        "seed": spec.instance.seed,
        "moved_sinks": moved,
        "full_seconds": 0.0,
        "eco_seconds": 0.0,
        "speedup": 0.0,
        "cone_nodes": 0,
        "reused_nodes": 0,
        "rebuilt_nodes": 0,
        "frontier_subtrees": 0,
        "preserved_identical": False,
        "validation_ok": False,
        "wirelength": 0.0,
        "global_skew_ps": 0.0,
        "max_intra_group_skew_ps": 0.0,
        "num_nodes": 0,
        "peak_rss_mb": 0.0,
        "ok": False,
        "error": None,
    }
    try:
        base = run(spec, keep_tree=True)
        instance = base.routing.instance
        n = instance.num_sinks
        moves = tuple(
            SinkMove(
                sid,
                Point(
                    instance.sinks[sid].location.x + 800.0,
                    instance.sinks[sid].location.y - 400.0,
                ),
            )
            for sid in range(0, n, max(1, n // moved))[:moved]
        )
        eco_spec = EcoSpec(base=spec, delta=EcoDelta(move=moves), validate=True)
        result = None
        eco_seconds = float("inf")
        for _ in range(3):
            result = run_eco(
                eco_spec,
                keep_tree=True,
                base_routing=base.routing,
                trace=bool(config.get("trace")),
            )
            eco_seconds = min(eco_seconds, result.eco_seconds)
    except Exception as exc:  # noqa: BLE001 - a bench row must never abort the suite
        row["error"] = "%s: %s" % (type(exc).__name__, exc)
        return row
    if result.trace:
        row["trace"] = result.trace
    stats = result.eco
    row.update(
        moved_sinks=len(moves),
        full_seconds=base.route_seconds,
        eco_seconds=eco_seconds,
        speedup=base.route_seconds / eco_seconds if eco_seconds > 0.0 else 0.0,
        cone_nodes=stats.cone_nodes,
        reused_nodes=stats.reused_nodes,
        rebuilt_nodes=stats.rebuilt_nodes,
        frontier_subtrees=stats.frontier_subtrees,
        preserved_identical=preserved_subtrees_identical(
            base.routing.tree, result.routing.tree, stats.preserved_roots
        ),
        validation_ok=not result.issues,
        wirelength=result.wirelength,
        global_skew_ps=result.global_skew_ps,
        max_intra_group_skew_ps=result.max_intra_group_skew_ps,
        num_nodes=result.num_nodes,
        peak_rss_mb=peak_rss_mb(),
        # ``ok`` means the row completed (like routing rows); the eco *gate*
        # is what enforces identity and validation.
        ok=True,
    )
    return row


def _gates(
    rows: List[Dict[str, Any]], sizes: Sequence[int], threshold: float
) -> List[Dict[str, Any]]:
    """The speed-up / identity gates derived from the finished rows.

    For every instance size: ``incremental`` must route results identical to
    both the ``scalar`` seed reference and the stateless ``rebuild`` strategy,
    and at the largest size must beat the scalar baseline by ``threshold``
    (small runs are noise-bound, so only identity gates there).
    """
    by_label = {row["label"]: row for row in rows}
    gates: List[Dict[str, Any]] = []
    largest = max(sizes)
    for n in sizes:
        baseline = by_label.get("greedy-dme-single-scalar-n%d" % n)
        candidate = by_label.get("greedy-dme-single-incremental-n%d" % n)
        identity = by_label.get("greedy-dme-single-rebuild-n%d" % n)
        if not baseline or not candidate or not identity:
            continue
        usable = baseline["ok"] and candidate["ok"] and identity["ok"]
        speedup = (
            baseline["wall_seconds"] / candidate["wall_seconds"]
            if usable and candidate["wall_seconds"] > 0.0
            else 0.0
        )
        identical = usable and all(
            baseline[key] == candidate[key] == identity[key]
            for key in (
                "wirelength",
                "global_skew_ps",
                "max_intra_group_skew_ps",
                "num_nodes",
            )
        )
        required = threshold if n == largest else 0.0
        gates.append(
            {
                "kind": "speedup",
                "name": "greedy-dme-single-n%d" % n,
                "baseline_label": baseline["label"],
                "candidate_label": candidate["label"],
                "identity_label": identity["label"],
                "speedup": speedup,
                "threshold": required,
                "identical_results": identical,
                "passed": usable and identical and speedup >= required,
            }
        )
    gates.extend(_repair_gates(rows, sizes))
    gates.extend(_buffered_gates(rows, sizes))
    gates.extend(_htree_gates(rows, sizes))
    return gates


#: Row columns two runs must agree on exactly for an identity gate to pass.
_IDENTITY_KEYS = (
    "wirelength",
    "global_skew_ps",
    "max_intra_group_skew_ps",
    "num_nodes",
)


def _large_gates(rows: List[Dict[str, Any]], smoke: bool) -> List[Dict[str, Any]]:
    """The large-suite gates: per-row wall/RSS ceilings (waived under
    ``--smoke``, where only completion gates)."""
    gates: List[Dict[str, Any]] = []
    for row in rows:
        max_wall = 0.0 if smoke else LARGE_WALL_LIMITS.get(row["num_sinks"], 0.0)
        max_rss = 0.0 if smoke else LARGE_RSS_LIMITS.get(row["num_sinks"], 0.0)
        within_wall = max_wall == 0.0 or row["wall_seconds"] <= max_wall
        within_rss = max_rss == 0.0 or row["peak_rss_mb"] <= max_rss
        gates.append(
            {
                "kind": "resource",
                "name": "resource-%s" % row["label"],
                "row_label": row["label"],
                "wall_seconds": row["wall_seconds"],
                "max_wall_seconds": max_wall,
                "peak_rss_mb": row["peak_rss_mb"],
                "max_peak_rss_mb": max_rss,
                "passed": row["ok"] and within_wall and within_rss,
            }
        )
    return gates


def _repair_gates(rows: List[Dict[str, Any]], sizes: Sequence[int]) -> List[Dict[str, Any]]:
    """One repair gate per size: the blocked rows' post-repair ``skew``
    violations must be at most ``GATE_REPAIR_MAX_SURVIVING`` of the pre-repair
    count (>= 90% eliminated)."""
    gates: List[Dict[str, Any]] = []
    for n in sizes:
        blocked = [
            row
            for row in rows
            if row["family"] == "blocked" and row["num_sinks"] == n and row["repaired"]
        ]
        if not blocked:
            continue
        usable = all(row["ok"] for row in blocked)
        pre = sum(row["skew_violations_pre"] for row in blocked)
        post = sum(row["skew_violations_post"] for row in blocked)
        gates.append(
            {
                "kind": "repair",
                "name": "blocked-repair-n%d" % n,
                "row_labels": [row["label"] for row in blocked],
                "violations_pre": pre,
                "violations_post": post,
                "max_surviving_fraction": GATE_REPAIR_MAX_SURVIVING,
                "passed": usable and post <= GATE_REPAIR_MAX_SURVIVING * pre,
            }
        )
    return gates


def _buffered_gates(
    rows: List[Dict[str, Any]], sizes: Sequence[int]
) -> List[Dict[str, Any]]:
    """One buffered-delay gate per size, in two halves.

    *Identity half*: the buffer-free pipeline row (insertion pass present but
    no cap limit) must stay bit-identical to the headline ast-dme row and
    insert nothing -- buffered-Elmore bookkeeping must be invisible until a
    cap limit asks for buffers.  *Insertion half*: the cap-limited blocked row
    must insert at least one buffer and validate clean.
    """
    by_label = {row["label"]: row for row in rows}
    gates: List[Dict[str, Any]] = []
    for n in sizes:
        plain = by_label.get("ast-dme-n%d" % n)
        free = by_label.get("ast-dme-bufferfree-n%d" % n)
        buffered = by_label.get("ast-dme-buffered-blocked-n%d" % n)
        if not plain or not free or not buffered:
            continue
        usable = plain["ok"] and free["ok"] and buffered["ok"]
        identical = (
            usable
            and all(plain[key] == free[key] for key in _IDENTITY_KEYS)
            and free["buffers_inserted"] == 0
        )
        issues = buffered["validation_issues"]
        gates.append(
            {
                "kind": "buffered",
                "name": "buffered-n%d" % n,
                "plain_label": plain["label"],
                "bufferfree_label": free["label"],
                "buffered_label": buffered["label"],
                "identical_results": identical,
                "buffers_inserted": buffered["buffers_inserted"],
                "min_buffers": 1,
                "validation_issues": issues,
                "passed": usable
                and identical
                and buffered["buffers_inserted"] >= 1
                and issues == 0,
            }
        )
    return gates


def _htree_gates(rows: List[Dict[str, Any]], sizes: Sequence[int]) -> List[Dict[str, Any]]:
    """One h-tree gate per size: the trunk hybrid must produce a clean
    validated tree on the blocked instance and spend at most
    ``GATE_HTREE_MAX_WIRELENGTH_RATIO`` times the ast-dme wirelength."""
    by_label = {row["label"]: row for row in rows}
    gates: List[Dict[str, Any]] = []
    for n in sizes:
        baseline = by_label.get("ast-dme-blocked-n%d" % n)
        htree = by_label.get("h-tree-blocked-n%d" % n)
        if not baseline or not htree:
            continue
        usable = baseline["ok"] and htree["ok"]

        def final_wirelength(row: Dict[str, Any]) -> float:
            return row["repaired_wirelength"] if row["repaired"] else row["wirelength"]

        ratio = (
            final_wirelength(htree) / final_wirelength(baseline)
            if usable and final_wirelength(baseline) > 0.0
            else 0.0
        )
        issues = htree["validation_issues"]
        gates.append(
            {
                "kind": "htree",
                "name": "htree-blocked-n%d" % n,
                "htree_label": htree["label"],
                "baseline_label": baseline["label"],
                "wirelength_ratio": ratio,
                "max_ratio": GATE_HTREE_MAX_WIRELENGTH_RATIO,
                "validation_issues": issues,
                "passed": usable
                and issues == 0
                and 0.0 < ratio <= GATE_HTREE_MAX_WIRELENGTH_RATIO,
            }
        )
    return gates


def _eco_gates(
    rows: List[Dict[str, Any]], sizes: Sequence[int], smoke: bool
) -> List[Dict[str, Any]]:
    """One ECO gate per size: preserved subtrees bit-identical and the
    stitched tree valid at every size; the >= ``GATE_ECO_SPEEDUP`` speed-up
    over the full route only at the largest size outside smoke mode (tiny
    runs are noise-bound)."""
    gates: List[Dict[str, Any]] = []
    largest = max(sizes)
    for row in rows:
        threshold = (
            GATE_ECO_SPEEDUP if row["num_sinks"] == largest and not smoke else 0.0
        )
        gates.append(
            {
                "kind": "eco",
                "name": "eco-n%d" % row["num_sinks"],
                "row_label": row["label"],
                "speedup": row["speedup"],
                "threshold": threshold,
                "preserved_identical": row["preserved_identical"],
                "validation_ok": row["validation_ok"],
                "passed": row["ok"]
                and row["preserved_identical"]
                and row["validation_ok"]
                and row["speedup"] >= threshold,
            }
        )
    return gates


def _collect_row_trace(row: Dict[str, Any], trace_events: List[Dict[str, Any]]) -> None:
    """Move a worker row's span events into the suite-wide ``trace_events``.

    Every worker runs in a fresh process, so span ids restart at 1 per row;
    the merged stream namespaces them by row label to keep parent/child links
    unambiguous.  The transport key is popped so payload rows stay clean.
    """
    label = row["label"]
    for event in row.pop("trace", []):
        event = dict(event)
        event["span_id"] = "%s/%s" % (label, event["span_id"])
        if event.get("parent_id") is not None:
            event["parent_id"] = "%s/%s" % (label, event["parent_id"])
        event.setdefault("attrs", {})["bench_label"] = label
        trace_events.append(event)


def _run_configs(
    configs: List[Dict[str, Any]],
    progress=None,
    worker=_bench_worker,
    trace_events: Optional[List[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    """Execute bench configs sequentially, one fresh worker process each.

    A fresh single-use pool per run: each row executes in its own child
    process, so peak-RSS is a true per-run measurement and runs cannot warm
    each other's caches.  (Recreating the pool is the 3.8-compatible
    equivalent of max_tasks_per_child=1, which needs Python 3.11.)
    """
    rows: List[Dict[str, Any]] = []
    for config in configs:
        if trace_events is not None:
            config = dict(config, trace=True)
        with ProcessPoolExecutor(max_workers=1) as pool:
            row = pool.submit(worker, config).result()
        if trace_events is not None:
            _collect_row_trace(row, trace_events)
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows


def run_suite(
    sizes: Optional[Sequence[int]] = None,
    seed: int = 1,
    smoke: bool = False,
    progress=None,
    suite: str = "scaling",
    service_sizes: Optional[Sequence[int]] = None,
    large_sizes: Optional[Sequence[int]] = None,
    eco_sizes: Optional[Sequence[int]] = None,
    trace_events: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Run the requested suite(s) and return the ``BENCH_*.json`` payload.

    Args:
        sizes: sink counts of the scaling sweep (defaults to 500/2000/8000,
            or the tiny smoke sizes with ``smoke=True``).
        seed: instance seed shared by every run.
        smoke: run the CI-sized suite: tiny instances, and the speed-up /
            latency / resource thresholds are waived (identity and hit-rate
            still gate) because sub-second runs are dominated by noise.
        progress: optional callable invoked with each finished row.
        suite: ``"scaling"`` (construction-side rows + gates), ``"large"``
            (the 50k/200k arena sweep with resource gates), ``"service"``
            (the :mod:`repro.service` load harness), ``"eco"`` (the
            incremental re-route suite) or ``"all"`` (every one).
        service_sizes: sink counts of the service load suite (defaults to
            500/2000, or 120 with ``smoke=True``).
        large_sizes: sink counts of the large suite (defaults to 50k/200k,
            or 50k with ``smoke=True``).
        eco_sizes: sink counts of the ECO suite (defaults to 2000/8000, or
            120 with ``smoke=True``).
        trace_events: when a list is supplied, every routing / eco run
            executes with span tracing on and its events are appended here
            with span ids namespaced by row label (``label/id``) -- what
            ``repro bench --trace-out`` writes as NDJSON.  Service rows do
            not contribute (the load harness measures the server, not one
            run).  Traced rows pay the tracing overhead, so do not compare
            their timings against untraced trajectories.
    """
    if suite not in SUITES:
        raise ValueError("unknown bench suite %r; expected one of %s" % (suite, SUITES))
    explicit_sizes = sizes is not None
    if sizes is None:
        sizes = SMOKE_SIZES if smoke else DEFAULT_SIZES
    threshold = 0.0 if smoke else GATE_SPEEDUP
    rows: List[Dict[str, Any]] = []
    gates: List[Dict[str, Any]] = []
    scaling_sizes: List[int] = []
    if suite in ("scaling", "all"):
        scaling_sizes = list(sizes)
        rows.extend(
            _run_configs(
                scaling_configs(scaling_sizes, seed=seed),
                progress,
                trace_events=trace_events,
            )
        )
        gates.extend(_gates(rows, scaling_sizes, threshold))
    used_large_sizes: List[int] = []
    if suite in ("large", "all"):
        if large_sizes is None:
            # ``--suite large --sizes ...`` applies the explicit sizes to the
            # one suite being run; for ``all`` each suite has its own.
            if suite == "large" and explicit_sizes:
                large_sizes = sizes
            else:
                large_sizes = SMOKE_LARGE_SIZES if smoke else LARGE_SIZES
        used_large_sizes = list(large_sizes)
        large_rows = _run_configs(
            large_configs(used_large_sizes, seed=seed),
            progress,
            trace_events=trace_events,
        )
        rows.extend(large_rows)
        gates.extend(_large_gates(large_rows, smoke))
    used_eco_sizes: List[int] = []
    if suite in ("eco", "all"):
        if eco_sizes is None:
            # ``--suite eco --sizes ...`` applies the explicit sizes to the
            # one suite being run; for ``all`` each suite has its own.
            if suite == "eco" and explicit_sizes:
                eco_sizes = sizes
            else:
                eco_sizes = SMOKE_ECO_SIZES if smoke else ECO_SIZES
        used_eco_sizes = list(eco_sizes)
        eco_rows = _run_configs(
            eco_configs(used_eco_sizes, seed=seed),
            progress,
            worker=_eco_worker,
            trace_events=trace_events,
        )
        rows.extend(eco_rows)
        gates.extend(_eco_gates(eco_rows, used_eco_sizes, smoke))
    used_service_sizes: List[int] = []
    if suite in ("service", "all"):
        from repro.service.loadtest import (
            DEFAULT_SERVICE_SIZES,
            SMOKE_SERVICE_SIZES,
            run_service_suite,
        )

        if service_sizes is None:
            # ``--suite service --sizes ...`` applies the explicit sizes to
            # the one suite being run; for ``all`` each suite has its own.
            if suite == "service" and explicit_sizes:
                service_sizes = sizes
            else:
                service_sizes = SMOKE_SERVICE_SIZES if smoke else DEFAULT_SERVICE_SIZES
        used_service_sizes = list(service_sizes)
        service_rows, service_gates = run_service_suite(
            sizes=used_service_sizes, seed=seed, smoke=smoke, progress=progress
        )
        rows.extend(service_rows)
        gates.extend(service_gates)
    return {
        "schema": SCHEMA,
        "suite": suite,
        "smoke": smoke,
        "seed": seed,
        "sizes": scaling_sizes,
        "large_sizes": used_large_sizes,
        "service_sizes": used_service_sizes,
        "eco_sizes": used_eco_sizes,
        "rows": rows,
        "gates": gates,
    }


# ----------------------------------------------------------------------
# Schema validation / reporting
# ----------------------------------------------------------------------
def validate_bench_payload(payload: Any) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid bench JSON document.

    This is the schema contract CI asserts on the ``--smoke`` artifact and
    future PRs assert on committed ``BENCH_*.json`` trajectories.
    """
    if not isinstance(payload, dict):
        raise ValueError("bench payload must be a JSON object")
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            "unknown bench schema %r (expected %r)" % (payload.get("schema"), SCHEMA)
        )
    for key in (
        "suite", "smoke", "seed", "sizes", "large_sizes", "service_sizes",
        "eco_sizes", "rows", "gates",
    ):
        if key not in payload:
            raise ValueError("bench payload misses key %r" % key)
    if payload["suite"] not in SUITES:
        raise ValueError(
            "unknown bench suite %r; expected one of %s" % (payload["suite"], SUITES)
        )
    if not isinstance(payload["rows"], list) or not payload["rows"]:
        raise ValueError("bench payload must contain a non-empty 'rows' list")
    for row in payload["rows"]:
        kind = row.get("kind")
        if kind == "routing":
            expected = ROW_KEYS
        elif kind == "service":
            expected = SERVICE_ROW_KEYS
        elif kind == "eco":
            expected = ECO_ROW_KEYS
        else:
            raise ValueError(
                "bench row %r has unknown kind %r" % (row.get("label"), kind)
            )
        missing = expected - set(row)
        if missing:
            raise ValueError(
                "bench row %r misses keys %s" % (row.get("label"), sorted(missing))
            )
        if row["error"] is None and not row["ok"]:
            raise ValueError("bench row %r is not ok but carries no error" % row.get("label"))
    if not isinstance(payload["gates"], list):
        raise ValueError("bench payload must contain a 'gates' list")
    for gate in payload["gates"]:
        kind = gate.get("kind")
        if kind == "speedup":
            expected = SPEEDUP_GATE_KEYS
        elif kind == "backend":
            expected = BACKEND_GATE_KEYS
        elif kind == "resource":
            expected = RESOURCE_GATE_KEYS
        elif kind == "repair":
            expected = REPAIR_GATE_KEYS
        elif kind == "service":
            expected = SERVICE_GATE_KEYS
        elif kind == "eco":
            expected = ECO_GATE_KEYS
        elif kind == "buffered":
            expected = BUFFERED_GATE_KEYS
        elif kind == "htree":
            expected = HTREE_GATE_KEYS
        else:
            raise ValueError(
                "bench gate %r has unknown kind %r" % (gate.get("name"), kind)
            )
        missing = expected - set(gate)
        if missing:
            raise ValueError(
                "bench gate %r misses keys %s" % (gate.get("name"), sorted(missing))
            )


def format_rows(payload: Dict[str, Any], profile: bool = False) -> str:
    """A human-readable table of a bench payload (what ``repro bench`` prints).

    With ``profile=True`` (the CLI's ``--profile`` flag) the routing table
    carries the per-stage construction breakdown -- select / merge / embed /
    delay seconds -- instead of the compact default columns.
    """
    lines = []
    routing = [row for row in payload["rows"] if row["kind"] == "routing"]
    service = [row for row in payload["rows"] if row["kind"] == "service"]
    eco = [row for row in payload["rows"] if row["kind"] == "eco"]
    if routing and profile:
        lines.append(
            "%-36s %9s %9s %9s %9s %9s %9s"
            % ("label", "wall s", "select s", "merge s", "embed s", "delay s", "rss MB")
        )
        for row in routing:
            status = "" if row["ok"] else "  ERROR %s" % (row["error"] or "")
            lines.append(
                "%-36s %9.3f %9.3f %9.3f %9.3f %9.3f %9.1f%s"
                % (
                    row["label"],
                    row["wall_seconds"],
                    row["select_seconds"],
                    row["merge_seconds"],
                    row["embed_seconds"],
                    row["delay_seconds"],
                    row["peak_rss_mb"],
                    status,
                )
            )
    elif routing:
        lines.append(
            "%-36s %9s %9s %9s %12s"
            % ("label", "wall s", "select s", "rss MB", "wirelength")
        )
        for row in routing:
            status = "" if row["ok"] else "  ERROR %s" % (row["error"] or "")
            lines.append(
                "%-36s %9.3f %9.3f %9.1f %12.0f%s"
                % (
                    row["label"],
                    row["wall_seconds"],
                    row["select_seconds"],
                    row["peak_rss_mb"],
                    row["wirelength"],
                    status,
                )
            )
    if eco:
        lines.append(
            "%-36s %9s %9s %9s %7s %7s %10s"
            % ("label", "full s", "eco s", "speedup", "moved", "cone", "identical")
        )
        for row in eco:
            status = "" if row["ok"] else "  ERROR %s" % (row["error"] or "")
            lines.append(
                "%-36s %9.3f %9.4f %8.1fx %7d %7d %10s%s"
                % (
                    row["label"],
                    row["full_seconds"],
                    row["eco_seconds"],
                    row["speedup"],
                    row["moved_sinks"],
                    row["cone_nodes"],
                    row["preserved_identical"],
                    status,
                )
            )
    if service:
        lines.append(
            "%-36s %9s %9s %9s %9s %9s"
            % ("label", "cold s", "req/s", "p50 ms", "p99 ms", "hit rate")
        )
    for row in service:
        status = "" if row["ok"] else "  ERROR %s" % (row["error"] or "")
        lines.append(
            "%-36s %9.3f %9.1f %9.2f %9.2f %9.3f%s"
            % (
                row["label"],
                row["cold_seconds"],
                row["requests_per_sec"],
                row["p50_ms"],
                row["p99_ms"],
                row["hit_rate"],
                status,
            )
        )
    for gate in payload["gates"]:
        if gate["kind"] == "service":
            lines.append(
                "gate %-31s hit rate %.3f (>= %.2f)  hot x%.0f (>= x%.0f)  identical=%s  %s"
                % (
                    gate["name"],
                    gate["hit_rate"],
                    gate["min_hit_rate"],
                    gate["hot_speedup"],
                    gate["speedup_threshold"],
                    gate["identical_results"],
                    "PASS" if gate["passed"] else "FAIL",
                )
            )
            continue
        if gate["kind"] == "resource":
            wall_limit = (
                "(<= %.0fs)" % gate["max_wall_seconds"]
                if gate["max_wall_seconds"]
                else "(waived)"
            )
            rss_limit = (
                "(<= %.0fMB)" % gate["max_peak_rss_mb"]
                if gate["max_peak_rss_mb"]
                else "(waived)"
            )
            lines.append(
                "gate %-31s wall %.1fs %s  rss %.0fMB %s  %s"
                % (
                    gate["name"],
                    gate["wall_seconds"],
                    wall_limit,
                    gate["peak_rss_mb"],
                    rss_limit,
                    "PASS" if gate["passed"] else "FAIL",
                )
            )
            continue
        if gate["kind"] == "eco":
            lines.append(
                "gate %-31s %9.2fx (>= %.1fx)  identical=%s  valid=%s  %s"
                % (
                    gate["name"],
                    gate["speedup"],
                    gate["threshold"],
                    gate["preserved_identical"],
                    gate["validation_ok"],
                    "PASS" if gate["passed"] else "FAIL",
                )
            )
            continue
        if gate["kind"] == "buffered":
            lines.append(
                "gate %-31s buffers %d (>= %d)  identical=%s  issues=%s  %s"
                % (
                    gate["name"],
                    gate["buffers_inserted"],
                    gate["min_buffers"],
                    gate["identical_results"],
                    gate["validation_issues"],
                    "PASS" if gate["passed"] else "FAIL",
                )
            )
            continue
        if gate["kind"] == "htree":
            lines.append(
                "gate %-31s wirelength x%.3f (<= x%.2f)  issues=%s  %s"
                % (
                    gate["name"],
                    gate["wirelength_ratio"],
                    gate["max_ratio"],
                    gate["validation_issues"],
                    "PASS" if gate["passed"] else "FAIL",
                )
            )
            continue
        if gate["kind"] == "repair":
            lines.append(
                "gate %-31s skew violations %d -> %d (<= %.0f%% surviving)  %s"
                % (
                    gate["name"],
                    gate["violations_pre"],
                    gate["violations_post"],
                    100.0 * gate["max_surviving_fraction"],
                    "PASS" if gate["passed"] else "FAIL",
                )
            )
            continue
        lines.append(
            "gate %-31s %9.2fx (>= %.1fx)  identical=%s  %s"
            % (
                gate["name"],
                gate["speedup"],
                gate["threshold"],
                gate["identical_results"],
                "PASS" if gate["passed"] else "FAIL",
            )
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - `repro bench` is the entry point
    from repro.cli import main as cli_main

    sys.exit(cli_main(["bench"] + sys.argv[1:]))
