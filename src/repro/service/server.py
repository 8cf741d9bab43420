"""Routing-as-a-service: a stdlib-only asyncio HTTP server over ``repro.api``.

The server turns the library into a long-running system: requests are
:class:`~repro.api.spec.RunSpec` JSON documents, responses are
:class:`~repro.api.spec.RunResult` JSON documents, and a content-addressed
two-tier :class:`~repro.service.cache.RunCache` sits in front of the routers
so repeat traffic is served in microseconds instead of CTS runtimes.

Endpoints (HTTP/1.1, one request per connection, ``Connection: close``):

* ``POST /route`` -- body: one ``RunSpec`` dict.  Cache-first; a miss falls
  through to the routing worker pool.  Response:
  ``{"key", "cached", "result"}``.
* ``POST /eco`` -- body: one :class:`~repro.api.eco.EcoSpec` dict.
  Cache-first against a separate ECO result cache; a miss re-routes only the
  delta's dirty cone, reusing the base routing from an in-memory LRU when a
  previous request (``/eco`` with the same base) already computed it.
  Response: ``{"key", "cached", "result"}`` with an
  :class:`~repro.api.eco.EcoResult` payload.
* ``POST /batch`` -- body: a list of spec dicts (or ``{"runs": [...]}``).
  Streams NDJSON: one ``{"index", "key", "cached", "result"}`` line per run
  *as it completes* (cached entries first, then
  :meth:`~repro.api.batch.BatchRunner.run` completions via its ``on_result``
  callback), terminated by a ``{"done": true, ...}`` summary line.
* ``GET /routers`` -- the router registry (name + description).
* ``GET /stats`` -- cache counters plus server request/latency counters
  (p50/p99 over the most recent ``/route`` requests).
* ``GET /healthz`` -- liveness (never touches the cache or the pool).
* ``POST /cache/clear`` -- the invalidation API over the wire.

Concurrency model: the asyncio event loop only parses HTTP and JSON; every
route compute is dispatched to a worker (a persistent ``ProcessPoolExecutor``
mirroring the :class:`~repro.api.batch.BatchRunner` registry initializer when
``workers > 1``, otherwise an executor thread) behind an
``asyncio.Semaphore``, so the loop stays responsive while CPU-heavy routing
runs and at most ``max_concurrency`` computes are in flight.  Batch requests
drive one ``BatchRunner`` per request from an executor thread and forward its
``on_result`` completions into the loop with ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.api.batch import BatchRunner, _init_worker, _picklable_registrations
from repro.api.eco import EcoResult, EcoSpec, run_eco_safe
from repro.api.registry import available_routers, router_description
from repro.api.runner import run_safe
from repro.api.spec import RunResult, RunSpec
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.service.cache import RunCache

__all__ = ["ServiceConfig", "RoutingService", "RoutingServer", "ServerThread", "serve"]

#: Hard ceiling on request bodies (a batch of a few thousand specs fits with
#: room to spare; anything larger is a client bug, not a workload).
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Hard ceiling on header lines per request.
MAX_HEADER_LINES = 100


def _peak_rss() -> float:
    from repro.obs.metrics import peak_rss_mb

    return peak_rss_mb()


def _strip_trace(result):
    """A shallow copy of a Run/EcoResult without its span trace.

    Cached entries never carry traces: a trace describes one compute, not
    the spec's content-addressed identity, and replaying it on a cache hit
    would misreport where time went.
    """
    import copy

    stripped = copy.copy(result)
    stripped.trace = []
    return stripped


class _HttpError(Exception):
    """An error that maps onto an HTTP status + JSON error body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class ServiceConfig:
    """Configuration of one :class:`RoutingServer`."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it back from ``server.port``).
    port: int = 8343
    #: Directory of the cache's disk tier; ``None`` keeps the cache in memory.
    cache_dir: Optional[str] = None
    #: Memory-tier LRU capacity (entries).
    memory_capacity: int = 256
    #: Routing worker processes.  ``<= 1`` routes in executor threads (no
    #: process pool -- the right setting for sandboxes and tests); ``> 1``
    #: keeps a persistent process pool for ``/route`` and sizes each batch
    #: request's :class:`BatchRunner` accordingly.
    workers: int = 1
    #: Maximum route computes in flight at once (cache hits are not limited).
    max_concurrency: int = 4
    #: Per-read timeout while parsing a request, seconds.
    read_timeout: float = 30.0
    #: Base RoutingResults (full trees) kept in memory for ``POST /eco``:
    #: repeated deltas against the same base skip the full base re-route,
    #: which is the entire point of serving ECO.
    base_routing_capacity: int = 8


#: Endpoints with per-endpoint latency histograms (``repro_request_seconds``).
_TIMED_ENDPOINTS = ("route", "eco", "batch")


class ServerMetrics:
    """Request accounting of the HTTP layer, backed by a metrics registry.

    The successor of the old ``_ServerStats`` counter dataclass: every number
    the JSON ``/stats`` endpoint reports now lives as a named metric in
    ``self.registry`` -- and is therefore also scrapeable in Prometheus text
    form from ``GET /metrics``.  :meth:`to_dict` renders the exact legacy
    ``/stats`` JSON shape from the registry (counters plus nearest-rank
    p50/p99 over each endpoint's recent requests) and adds a per-endpoint
    latency block.
    """

    def __init__(self) -> None:
        self.started = time.time()
        registry = self.registry = MetricsRegistry()
        self._requests = registry.counter(
            "repro_http_requests_total", "HTTP requests received (any endpoint)"
        )
        self._endpoint_requests = registry.counter(
            "repro_endpoint_requests_total",
            "Requests per service endpoint",
            labelnames=("endpoint",),
        )
        self._cache_outcomes = registry.counter(
            "repro_endpoint_cache_total",
            "Content-addressed cache hits and misses per cached endpoint",
            labelnames=("endpoint", "outcome"),
        )
        self._errors = registry.counter(
            "repro_http_errors_total",
            "Error responses by class (client = 4xx, server = 5xx)",
            labelnames=("kind",),
        )
        self._batch_runs = registry.counter(
            "repro_batch_runs_total", "Run specs received via POST /batch"
        )
        self._eco_base_reuses = registry.counter(
            "repro_eco_base_reuses_total",
            "/eco misses that reused an in-memory base routing",
        )
        self._latency = registry.histogram(
            "repro_request_seconds",
            "Request wall time per endpoint, seconds",
            labelnames=("endpoint",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        registry.gauge(
            "repro_uptime_seconds",
            "Seconds since the server started",
            callback=lambda: time.time() - self.started,
        )

    # ------------------------------------------------------------------
    def record_request(self) -> None:
        self._requests.inc()

    def record_endpoint(self, endpoint: str) -> None:
        self._endpoint_requests.labels(endpoint=endpoint).inc()

    def record_cache(self, endpoint: str, hit: bool) -> None:
        outcome = "hit" if hit else "miss"
        self._cache_outcomes.labels(endpoint=endpoint, outcome=outcome).inc()

    def observe_latency(self, endpoint: str, seconds: float) -> None:
        self._latency.labels(endpoint=endpoint).observe(seconds)

    def record_client_error(self) -> None:
        self._errors.labels(kind="client").inc()

    def record_server_error(self) -> None:
        self._errors.labels(kind="server").inc()

    def record_batch_runs(self, count: int) -> None:
        self._batch_runs.inc(count)

    def record_eco_base_reuse(self) -> None:
        self._eco_base_reuses.inc()

    # ------------------------------------------------------------------
    def _endpoint_count(self, endpoint: str) -> int:
        return int(self._endpoint_requests.labels(endpoint=endpoint).value)

    def _cache_count(self, endpoint: str, outcome: str) -> int:
        return int(
            self._cache_outcomes.labels(endpoint=endpoint, outcome=outcome).value
        )

    def _latency_block(self, endpoint: str) -> Dict[str, float]:
        histogram = self._latency.labels(endpoint=endpoint)
        return {
            "count": histogram.recent_count(),
            "p50_ms": 1000.0 * histogram.percentile(0.50),
            "p99_ms": 1000.0 * histogram.percentile(0.99),
            "mean_ms": 1000.0 * histogram.mean_recent(),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "uptime_seconds": time.time() - self.started,
            "requests": int(self._requests.value),
            "route_requests": self._endpoint_count("route"),
            "batch_requests": self._endpoint_count("batch"),
            "batch_runs": int(self._batch_runs.value),
            "route_hits": self._cache_count("route", "hit"),
            "route_misses": self._cache_count("route", "miss"),
            "eco_requests": self._endpoint_count("eco"),
            "eco_hits": self._cache_count("eco", "hit"),
            "eco_misses": self._cache_count("eco", "miss"),
            "eco_base_reuses": int(self._eco_base_reuses.value),
            "client_errors": int(self._errors.labels(kind="client").value),
            "server_errors": int(self._errors.labels(kind="server").value),
            # Kept for compatibility: the pre-metrics "latency" block tracked
            # /route wall times; per-endpoint blocks live under "endpoints".
            "latency": self._latency_block("route"),
            "endpoints": {
                endpoint: self._latency_block(endpoint)
                for endpoint in _TIMED_ENDPOINTS
            },
        }


class RoutingService:
    """The endpoint logic, independent of the HTTP transport.

    Owns the :class:`RunCache`, the routing worker pool and the concurrency
    semaphore; :class:`RoutingServer` wires it to sockets.  Kept separate so
    tests (and future transports) can drive endpoints directly.
    """

    def __init__(self, config: ServiceConfig, cache: Optional[RunCache] = None) -> None:
        self.config = config
        self.cache = cache if cache is not None else RunCache(
            cache_dir=config.cache_dir, memory_capacity=config.memory_capacity
        )
        # ECO results have their own cache (an EcoSpec key can never collide
        # with a RunSpec key, but the decoders differ) under a sibling dir.
        self.eco_cache = RunCache(
            cache_dir=None
            if config.cache_dir is None
            else str(Path(config.cache_dir) / "eco"),
            memory_capacity=config.memory_capacity,
            decoder=EcoResult.from_dict,
        )
        # Base RoutingResults (full trees) for /eco, LRU by base cache key.
        self._base_routings: "OrderedDict[str, Any]" = OrderedDict()
        self._base_lock = threading.Lock()
        self.stats = ServerMetrics()
        # Scrape-time gauges over state the service already tracks.
        self.stats.registry.gauge(
            "repro_base_routings",
            "Base RoutingResults held in memory for POST /eco",
            callback=lambda: len(self._base_routings),
        )
        self.stats.registry.gauge(
            "repro_cache_memory_entries",
            "Entries in the run cache's memory tier",
            callback=lambda: self.cache.stats().memory_entries,
        )
        self.stats.registry.gauge(
            "repro_peak_rss_mb",
            "Process peak resident set size, MiB",
            callback=_peak_rss,
        )
        self._semaphore = asyncio.Semaphore(max(1, config.max_concurrency))
        # Executor threads block on the process pool / BatchRunner, so size
        # past the semaphore to keep a slot free for batch drivers.
        self._threads = ThreadPoolExecutor(
            max_workers=max(1, config.max_concurrency) + 2,
            thread_name_prefix="repro-service",
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_broken = False
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Compute path
    # ------------------------------------------------------------------
    def _run_one_blocking(self, spec: RunSpec) -> RunResult:
        """Route one spec (called from an executor thread, never the loop).

        With ``workers > 1`` the compute happens in a persistent process pool
        (mirroring the parent's router registry, exactly like
        ``BatchRunner``); a pool that cannot start or dies falls back, with a
        ``RuntimeWarning``, to in-thread routing for this and every later
        request, so a request never fails on infrastructure.
        """
        if self.config.workers > 1 and not self._pool_broken:
            try:
                with self._pool_lock:
                    if self._pool is None:
                        self._pool = ProcessPoolExecutor(
                            max_workers=self.config.workers,
                            initializer=_init_worker,
                            initargs=(_picklable_registrations(),),
                        )
                    pool = self._pool
                return pool.submit(run_safe, spec).result()
            except (OSError, BrokenProcessPool) as exc:
                self._pool_broken = True
                warnings.warn(
                    "routing service: the process pool failed (%s: %s); routing "
                    "in-thread from now on" % (type(exc).__name__, exc),
                    RuntimeWarning,
                    stacklevel=2,
                )
        return run_safe(spec)

    async def route_one(
        self, spec: RunSpec, trace: bool = False
    ) -> Tuple[str, bool, RunResult]:
        """Cache-first single-spec routing: ``(key, cached, result)``.

        ``trace`` (the ``X-Repro-Trace`` request header) records a span trace
        of the compute and attaches it to the response's result.  Traced
        computes always run in the executor thread, never the process pool
        (spans cannot cross a process boundary), and the cache stores a
        trace-stripped copy -- a later cache hit carries no trace.
        """
        key = spec.cache_key()
        cached = self.cache.get(key)
        if cached is not None:
            return key, True, cached
        loop = asyncio.get_running_loop()
        async with self._semaphore:
            if trace:
                result = await loop.run_in_executor(
                    self._threads, lambda: run_safe(spec, trace=True)
                )
            else:
                result = await loop.run_in_executor(
                    self._threads, self._run_one_blocking, spec
                )
        # Errored runs are not cached: errors may be transient (a worker OOM
        # kill) and must not be served forever after.
        if result.error is None:
            self.cache.put(key, _strip_trace(result) if result.trace else result)
        return key, False, result

    def _run_eco_blocking(self, spec: EcoSpec, trace: bool = False) -> EcoResult:
        """ECO one spec (called from an executor thread, never the loop).

        ECO computes stay in-process: the base routing LRU holds live
        ``RoutingResult`` trees that cannot cross a process boundary, and an
        incremental re-route is orders of magnitude cheaper than the full
        runs the worker pool exists for.
        """
        base_key = spec.base.cache_key()
        with self._base_lock:
            routing = self._base_routings.get(base_key)
            if routing is not None:
                self._base_routings.move_to_end(base_key)
        if routing is not None:
            self.stats.record_eco_base_reuse()
        else:
            try:
                from repro.api.runner import run

                routing = run(spec.base, keep_tree=True).routing
            except Exception as exc:  # noqa: BLE001 - surfaced in the result
                import traceback

                return EcoResult(
                    spec=spec,
                    error="%s: %s\n%s"
                    % (type(exc).__name__, exc, traceback.format_exc()),
                )
            with self._base_lock:
                self._base_routings[base_key] = routing
                self._base_routings.move_to_end(base_key)
                while len(self._base_routings) > max(1, self.config.base_routing_capacity):
                    self._base_routings.popitem(last=False)
        return run_eco_safe(spec, base_routing=routing, trace=trace)

    async def eco_one(
        self, spec: EcoSpec, trace: bool = False
    ) -> Tuple[str, bool, EcoResult]:
        """Cache-first single-spec ECO: ``(key, cached, result)``.

        ``trace`` works exactly like :meth:`route_one`'s: the response result
        carries the span trace, the cache stores a stripped copy.
        """
        key = spec.cache_key()
        cached = self.eco_cache.get(key)
        if cached is not None:
            return key, True, cached
        loop = asyncio.get_running_loop()
        async with self._semaphore:
            result = await loop.run_in_executor(
                self._threads, self._run_eco_blocking, spec, trace
            )
        if result.error is None:
            self.eco_cache.put(key, _strip_trace(result) if result.trace else result)
        return key, False, result

    async def batch_events(self, specs: List[RunSpec]):
        """Async iterator of ``(index, key, cached, result)`` in completion
        order: cached entries first, then ``BatchRunner`` completions."""
        keys = [spec.cache_key() for spec in specs]
        miss_indices: List[int] = []
        for index, key in enumerate(keys):
            cached = self.cache.get(key)
            if cached is not None:
                yield index, key, True, cached
            else:
                miss_indices.append(index)
        if not miss_indices:
            return
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue[Optional[Tuple[int, RunResult]]]" = asyncio.Queue()

        def on_result(batch_index: int, result: RunResult) -> None:
            # Runs in the BatchRunner driver thread; hop into the loop.
            loop.call_soon_threadsafe(queue.put_nowait, (batch_index, result))

        def drive() -> None:
            runner = BatchRunner(workers=self.config.workers)
            try:
                runner.run([specs[i] for i in miss_indices], on_result=on_result)
            finally:
                loop.call_soon_threadsafe(queue.put_nowait, None)

        async with self._semaphore:
            driver = loop.run_in_executor(self._threads, drive)
            while True:
                event = await queue.get()
                if event is None:
                    break
                batch_index, result = event
                index = miss_indices[batch_index]
                if result.error is None:
                    self.cache.put(keys[index], result)
                yield index, keys[index], False, result
            await driver

    # ------------------------------------------------------------------
    def routers_payload(self) -> Dict[str, Any]:
        return {
            "routers": [
                {"name": name, "description": router_description(name)}
                for name in available_routers()
            ]
        }

    def stats_payload(self) -> Dict[str, Any]:
        import repro
        from repro.obs.metrics import peak_rss_mb

        with self._base_lock:
            base_routings = len(self._base_routings)
        return {
            "version": repro.__version__,
            "cache": self.cache.stats().to_dict(),
            "eco_cache": self.eco_cache.stats().to_dict(),
            "base_routings": base_routings,
            "server": self.stats.to_dict(),
            # Same measurement path as RunResult.stats.
            "resources": {"peak_rss_mb": peak_rss_mb()},
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition document ``GET /metrics`` serves."""
        return self.stats.registry.render()

    def clear_caches(self) -> int:
        """Drop every cached result (run + eco tiers) and base routing."""
        removed = self.cache.clear() + self.eco_cache.clear()
        with self._base_lock:
            self._base_routings.clear()
        return removed

    def close(self) -> None:
        self._threads.shutdown(wait=False)
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
def _parse_specs(body: bytes, batch: bool) -> List[RunSpec]:
    """Decode a request body into specs; 400s carry the exact reason."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, "request body is not valid JSON: %s" % exc) from exc
    if batch:
        if isinstance(data, dict):
            data = data.get("runs")
        if not isinstance(data, list) or not data:
            raise _HttpError(
                400, "batch body must be a non-empty list of run specs (or {'runs': [...]})"
            )
        entries = data
    else:
        if not isinstance(data, dict):
            raise _HttpError(400, "route body must be one run spec object")
        entries = [data]
    specs = []
    for index, entry in enumerate(entries):
        try:
            specs.append(RunSpec.from_dict(entry))
        except (KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, "bad run spec at index %d: %s" % (index, exc)) from exc
    return specs


def _parse_eco_spec(body: bytes) -> EcoSpec:
    """Decode an ``/eco`` request body; 400s carry the exact reason."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, "request body is not valid JSON: %s" % exc) from exc
    if not isinstance(data, dict):
        raise _HttpError(400, "eco body must be one eco spec object")
    try:
        return EcoSpec.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _HttpError(400, "bad eco spec: %s" % exc) from exc


class RoutingServer:
    """Binds a :class:`RoutingService` to a TCP socket with asyncio streams."""

    def __init__(self, config: ServiceConfig, cache: Optional[RunCache] = None) -> None:
        self.config = config
        self.service = RoutingService(config, cache=cache)
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.close()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, body, headers = await self._read_request(reader)
            except _HttpError as exc:
                self.service.stats.record_request()
                await self._send_error(writer, exc)
                return
            self.service.stats.record_request()
            try:
                await self._dispatch(writer, method, target, body, headers)
            except _HttpError as exc:
                await self._send_error(writer, exc)
            except Exception as exc:  # noqa: BLE001 - a handler bug must 500, not kill the server
                self.service.stats.record_server_error()
                await self._send_json(
                    writer, 500, {"error": "%s: %s" % (type(exc).__name__, exc)}
                )
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/response; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down with this connection in flight
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        timeout = self.config.read_timeout
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout)
        except asyncio.TimeoutError:
            raise _HttpError(408, "timed out reading the request line") from None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line %r" % request_line.decode("latin-1", "replace").strip())
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES):
            try:
                line = await asyncio.wait_for(reader.readline(), timeout)
            except asyncio.TimeoutError:
                raise _HttpError(408, "timed out reading headers") from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(431, "too many header lines")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body exceeds %d bytes" % MAX_BODY_BYTES)
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(reader.readexactly(length), timeout)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                raise _HttpError(400, "request body shorter than Content-Length") from None
        return method, target, body, headers

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, writer, method: str, target: str, body: bytes, headers: Dict[str, str]
    ) -> None:
        path = target.split("?", 1)[0]
        stats = self.service.stats
        trace = headers.get("x-repro-trace", "").lower() in ("1", "true", "yes", "on")
        if path == "/healthz":
            self._require(method, "GET", path)
            import repro

            await self._send_json(writer, 200, {"status": "ok", "version": repro.__version__})
        elif path == "/routers":
            self._require(method, "GET", path)
            await self._send_json(writer, 200, self.service.routers_payload())
        elif path == "/stats":
            self._require(method, "GET", path)
            await self._send_json(writer, 200, self.service.stats_payload())
        elif path == "/metrics":
            self._require(method, "GET", path)
            await self._send_text(writer, 200, self.service.metrics_text())
        elif path == "/route":
            self._require(method, "POST", path)
            stats.record_endpoint("route")
            spec = _parse_specs(body, batch=False)[0]
            started = time.perf_counter()
            key, cached, result = await self.service.route_one(spec, trace=trace)
            stats.observe_latency("route", time.perf_counter() - started)
            stats.record_cache("route", cached)
            await self._send_json(
                writer, 200, {"key": key, "cached": cached, "result": result.to_dict()}
            )
        elif path == "/eco":
            self._require(method, "POST", path)
            stats.record_endpoint("eco")
            spec = _parse_eco_spec(body)
            started = time.perf_counter()
            key, cached, result = await self.service.eco_one(spec, trace=trace)
            stats.observe_latency("eco", time.perf_counter() - started)
            stats.record_cache("eco", cached)
            await self._send_json(
                writer, 200, {"key": key, "cached": cached, "result": result.to_dict()}
            )
        elif path == "/batch":
            self._require(method, "POST", path)
            stats.record_endpoint("batch")
            specs = _parse_specs(body, batch=True)
            started = time.perf_counter()
            await self._stream_batch(writer, specs)
            stats.observe_latency("batch", time.perf_counter() - started)
        elif path == "/cache/clear":
            self._require(method, "POST", path)
            removed = self.service.clear_caches()
            await self._send_json(writer, 200, {"cleared": removed})
        else:
            raise _HttpError(404, "no such endpoint %r" % path)

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise _HttpError(405, "%s requires %s, got %s" % (path, expected, method))

    async def _stream_batch(self, writer, specs: List[RunSpec]) -> None:
        """NDJSON streaming: one line per completed run, then a summary."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()
        hits = misses = errors = 0
        async for index, key, cached, result in self.service.batch_events(specs):
            if cached:
                hits += 1
            else:
                misses += 1
            if result.error is not None:
                errors += 1
            line = json.dumps(
                {"index": index, "key": key, "cached": cached, "result": result.to_dict()},
                sort_keys=True,
            )
            writer.write(line.encode("utf-8") + b"\n")
            await writer.drain()
        self.service.stats.record_batch_runs(len(specs))
        summary = json.dumps(
            {"done": True, "total": len(specs), "hits": hits, "misses": misses, "errors": errors},
            sort_keys=True,
        )
        writer.write(summary.encode("utf-8") + b"\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    _REASONS = {
        200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
        408: "Request Timeout", 413: "Payload Too Large", 431: "Request Header Fields Too Large",
        500: "Internal Server Error",
    }

    async def _send_json(self, writer, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        await self._send_body(writer, status, "application/json", body)

    async def _send_text(self, writer, status: int, text: str) -> None:
        # The content type Prometheus scrapers expect for text exposition.
        await self._send_body(
            writer, status, "text/plain; version=0.0.4; charset=utf-8",
            text.encode("utf-8"),
        )

    async def _send_body(
        self, writer, status: int, content_type: str, body: bytes
    ) -> None:
        reason = self._REASONS.get(status, "Unknown")
        head = (
            "HTTP/1.1 %d %s\r\n"
            "Content-Type: %s\r\n"
            "Content-Length: %d\r\n"
            "Connection: close\r\n"
            "\r\n" % (status, reason, content_type, len(body))
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _send_error(self, writer, exc: _HttpError) -> None:
        if 400 <= exc.status < 500:
            self.service.stats.record_client_error()
        else:
            self.service.stats.record_server_error()
        await self._send_json(writer, exc.status, {"error": exc.message})


# ----------------------------------------------------------------------
# Lifecycle helpers
# ----------------------------------------------------------------------
class ServerThread:
    """A :class:`RoutingServer` running on a background-thread event loop.

    The in-process deployment used by tests, ``examples/service_flow.py`` and
    the load harness::

        with ServerThread(ServiceConfig(port=0, cache_dir=...)) as server:
            client = ServiceClient(port=server.port)
            ...

    ``port`` is the actually bound port (ephemeral when the config asked for
    port 0).  ``stop()`` (or leaving the ``with`` block) shuts the loop down
    and joins the thread.
    """

    def __init__(self, config: ServiceConfig, cache: Optional[RunCache] = None) -> None:
        self.server = RoutingServer(config, cache=cache)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    @property
    def service(self) -> RoutingService:
        return self.server.service

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, name="repro-serve", daemon=True)
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        if not self._started.is_set():
            raise RuntimeError("service did not start within 30s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            # Cancel in-flight connection handlers (a client may have gone
            # away mid-stream) so nothing is destroyed while still pending.
            pending = [task for task in asyncio.all_tasks(loop) if not task.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(config: ServiceConfig) -> None:
    """Run a server in the foreground until interrupted (``repro serve``)."""
    server = RoutingServer(config)

    async def _main() -> None:
        await server.start()
        print("repro service listening on http://%s:%d" % (config.host, server.port))
        print(
            "cache: %s, workers: %d, max concurrency: %d"
            % (config.cache_dir or "memory-only", config.workers, config.max_concurrency)
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
