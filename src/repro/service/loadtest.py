"""The service load test behind ``repro bench``.

For each configured sink count it stands up a real server (background-thread
event loop, ephemeral port, fresh disk cache in a temp dir), then drives it
through :class:`~repro.service.client.ServiceClient` exactly like external
traffic:

* one **cold** ``POST /route`` (a guaranteed cache miss -- the full CTS run);
* ``hot_requests`` **hot** repeats of the same spec (cache hits), measuring
  per-request end-to-end wall time.

Each size contributes one ``kind == "service"`` row (requests/sec, p50/p99
latency, hit rate, cold-run wall) and one ``kind == "service"`` gate to the
payload: the hot hit rate must reach :data:`GATE_SERVICE_HIT_RATE`, every hot
result must be byte-identical (via ``to_dict()``) to the cold one, and -- at
the largest size of a full (non-smoke) run -- the hot p50 must beat the cold
routing run by :data:`GATE_SERVICE_SPEEDUP`.

The payload (schema :data:`SCHEMA`) is what ``repro bench`` writes.  Timing
claims about routing itself come from the flow benchmark in ``flowbench/``.
"""

from __future__ import annotations

import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.api.registry import RouterSpec
from repro.api.spec import InstanceSpec, RunSpec
from repro.service.client import ServiceClient
from repro.service.server import ServerThread, ServiceConfig

__all__ = [
    "SCHEMA",
    "DEFAULT_SERVICE_SIZES",
    "SMOKE_SERVICE_SIZES",
    "GATE_SERVICE_HIT_RATE",
    "GATE_SERVICE_SPEEDUP",
    "service_spec",
    "run_service_suite",
    "format_rows",
]

#: Schema identifier stamped into every payload ``repro bench`` writes.
SCHEMA = "repro-bench/v8"

#: Sink counts of the full service suite (the latency gate runs at the last;
#: 2000 is the "cold n=2000 routing run" the hot path is gated against).
DEFAULT_SERVICE_SIZES = (500, 2000)

#: Sink counts of the ``--smoke`` service suite.
SMOKE_SERVICE_SIZES = (120,)

#: Hot requests per size (one preceding cold miss makes the expected hit rate
#: ``hot / (hot + 1)``).
DEFAULT_HOT_REQUESTS = 40
SMOKE_HOT_REQUESTS = 12

#: Minimum hot-path cache hit rate the service gate demands.
GATE_SERVICE_HIT_RATE = 0.9

#: Cold-run wall over hot p50 the service gate demands at the largest size of
#: a full suite (hot hits must be at least this much faster than routing).
GATE_SERVICE_SPEEDUP = 20.0


def service_spec(num_sinks: int, seed: int = 1) -> RunSpec:
    """The spec one load-test size revolves around: ast-dme on 8
    intermingled groups with a 10 ps bound."""
    label = "service-ast-dme-n%d" % num_sinks
    return RunSpec(
        instance=InstanceSpec.from_random(num_sinks, seed=seed, groups=8),
        router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
        label=label,
    )


def _percentile_ms(sorted_seconds: List[float], fraction: float) -> float:
    if not sorted_seconds:
        return 0.0
    rank = min(len(sorted_seconds) - 1, max(0, int(round(fraction * (len(sorted_seconds) - 1)))))
    return 1000.0 * sorted_seconds[rank]


def _load_one_size(
    num_sinks: int, seed: int, hot_requests: int, workers: int
) -> Dict[str, Any]:
    """Stand up a server, drive cold + hot traffic, return the row."""
    spec = service_spec(num_sinks, seed=seed)
    row: Dict[str, Any] = {
        "kind": "service",
        "label": "service-n%d" % num_sinks,
        "router": spec.router.name,
        "num_sinks": num_sinks,
        "groups": spec.instance.groups,
        "seed": seed,
        "workers": workers,
        "requests": 0,
        "hits": 0,
        "misses": 0,
        "hit_rate": 0.0,
        "cold_seconds": 0.0,
        "hot_seconds_total": 0.0,
        "requests_per_sec": 0.0,
        "p50_ms": 0.0,
        "p99_ms": 0.0,
        "identical_results": False,
        "ok": False,
        "error": None,
    }
    try:
        with tempfile.TemporaryDirectory(prefix="repro-loadtest-") as cache_dir:
            config = ServiceConfig(port=0, cache_dir=cache_dir, workers=workers)
            with ServerThread(config) as server:
                client = ServiceClient(port=server.port)
                started = time.perf_counter()
                cold = client.route(spec)
                cold_seconds = time.perf_counter() - started
                if cold.cached:
                    raise RuntimeError("cold request hit a fresh cache")
                if cold.result.error is not None:
                    raise RuntimeError("cold run errored: %s" % cold.result.error)
                cold_dict = cold.result.to_dict()
                hits = 0
                identical = True
                latencies: List[float] = []
                for _ in range(hot_requests):
                    started = time.perf_counter()
                    hot = client.route(spec)
                    latencies.append(time.perf_counter() - started)
                    if hot.cached:
                        hits += 1
                    identical = identical and hot.result.to_dict() == cold_dict
                hot_total = sum(latencies)
                latencies.sort()
                requests = hot_requests + 1
                row.update(
                    requests=requests,
                    hits=hits,
                    misses=requests - hits,
                    hit_rate=hits / requests,
                    cold_seconds=cold_seconds,
                    hot_seconds_total=hot_total,
                    requests_per_sec=hot_requests / hot_total if hot_total > 0 else 0.0,
                    p50_ms=_percentile_ms(latencies, 0.50),
                    p99_ms=_percentile_ms(latencies, 0.99),
                    identical_results=identical,
                    ok=True,
                )
    except Exception as exc:  # noqa: BLE001 - a load row must never abort the suite
        row["error"] = "%s: %s" % (type(exc).__name__, exc)
    return row


def _service_gates(
    rows: List[Dict[str, Any]], sizes: Sequence[int], speedup_threshold: float
) -> List[Dict[str, Any]]:
    """One gate per size; the latency speed-up only binds at the largest."""
    by_label = {row["label"]: row for row in rows}
    gates: List[Dict[str, Any]] = []
    largest = max(sizes) if sizes else 0
    for n in sizes:
        row = by_label.get("service-n%d" % n)
        if row is None:
            continue
        speedup = (
            1000.0 * row["cold_seconds"] / row["p50_ms"] if row["p50_ms"] > 0 else 0.0
        )
        required = speedup_threshold if n == largest else 0.0
        gates.append(
            {
                "kind": "service",
                "name": "service-n%d" % n,
                "row_label": row["label"],
                "hit_rate": row["hit_rate"],
                "min_hit_rate": GATE_SERVICE_HIT_RATE,
                "hot_speedup": speedup,
                "speedup_threshold": required,
                "identical_results": row["identical_results"],
                "passed": (
                    row["ok"]
                    and row["identical_results"]
                    and row["hit_rate"] >= GATE_SERVICE_HIT_RATE
                    and speedup >= required
                ),
            }
        )
    return gates


def run_service_suite(
    sizes: Optional[Sequence[int]] = None,
    seed: int = 1,
    smoke: bool = False,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    hot_requests: Optional[int] = None,
    workers: int = 1,
) -> Dict[str, Any]:
    """Run the service load test; returns the ``repro bench`` payload.

    Args:
        sizes: sink counts to load-test (defaults to 500/2000, or 120 with
            ``smoke=True``).
        seed: instance seed of the routed spec.
        smoke: CI-sized run: tiny instance, fewer hot requests, and the
            latency speed-up threshold is waived (hit-rate and identity still
            gate) because sub-second cold runs are noise-bound.
        progress: optional callable invoked with each finished row.
        hot_requests: hot requests per size (defaults to 40, or 12 in smoke).
        workers: routing worker processes of the server under test.
    """
    if sizes is None:
        sizes = SMOKE_SERVICE_SIZES if smoke else DEFAULT_SERVICE_SIZES
    if hot_requests is None:
        hot_requests = SMOKE_HOT_REQUESTS if smoke else DEFAULT_HOT_REQUESTS
    if hot_requests < 1:
        raise ValueError("hot_requests must be at least 1")
    threshold = 0.0 if smoke else GATE_SERVICE_SPEEDUP
    rows: List[Dict[str, Any]] = []
    for n in sizes:
        row = _load_one_size(n, seed=seed, hot_requests=hot_requests, workers=workers)
        rows.append(row)
        if progress is not None:
            progress(row)
    return {
        "schema": SCHEMA,
        "smoke": smoke,
        "seed": seed,
        "sizes": list(sizes),
        "rows": rows,
        "gates": _service_gates(rows, sizes, threshold),
    }


def format_rows(payload: Dict[str, Any]) -> str:
    """A human-readable table of a payload (what ``repro bench`` prints)."""
    lines = [
        "%-36s %9s %9s %9s %9s %9s"
        % ("label", "cold s", "req/s", "p50 ms", "p99 ms", "hit rate")
    ]
    for row in payload["rows"]:
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
    return "\n".join(lines)
