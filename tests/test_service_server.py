"""End-to-end tests of the routing service (repro.service.server / client).

One module-scoped server on an ephemeral port backs most tests; each test
talks real HTTP through :class:`ServiceClient` (plus a few raw-socket probes
for the protocol-error paths).
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.api import InstanceSpec, RouterSpec, RunSpec
from repro.service import (
    BatchEvent,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)


def _spec(num_sinks: int = 16, seed: int = 5) -> RunSpec:
    return RunSpec(
        instance=InstanceSpec.from_random(num_sinks, seed=seed, groups=4),
        router=RouterSpec("greedy-dme"),
        label="svc-%d-%d" % (num_sinks, seed),
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-cache")
    config = ServiceConfig(port=0, cache_dir=str(cache_dir), max_concurrency=2)
    with ServerThread(config) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server.port)


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["version"]

    def test_routers_lists_the_registry(self, client):
        routers = client.routers()
        names = {entry["name"] for entry in routers}
        assert {"ast-dme", "ext-bst", "greedy-dme"} <= names
        assert all(entry["description"] for entry in routers)

    def test_route_miss_then_hit(self, client):
        spec = _spec(seed=11)
        cold = client.route(spec)
        assert cold.cached is False
        assert cold.key == spec.cache_key()
        assert cold.result.error is None
        hot = client.route(spec)
        assert hot.cached is True
        assert hot.key == cold.key
        # The acceptance criterion: hits are byte-identical via to_dict().
        assert hot.result.to_dict() == cold.result.to_dict()

    def test_route_accepts_plain_dicts(self, client):
        spec = _spec(seed=12)
        response = client.route(spec.to_dict())
        assert response.key == spec.cache_key()
        assert response.result.error is None

    def test_batch_streams_cached_and_new(self, client):
        warm, cold_a, cold_b = _spec(seed=21), _spec(seed=22), _spec(seed=23)
        client.route(warm)  # pre-populate one entry
        events = list(client.iter_batch([warm, cold_a, cold_b]))
        summary = events[-1]
        assert summary == {"done": True, "total": 3, "hits": 1, "misses": 2, "errors": 0}
        batch_events = [e for e in events[:-1] if isinstance(e, BatchEvent)]
        assert len(batch_events) == 3
        # Cached entries stream first; every index appears exactly once.
        assert batch_events[0].index == 0 and batch_events[0].cached is True
        assert sorted(e.index for e in batch_events) == [0, 1, 2]
        assert all(e.result.error is None for e in batch_events)
        # A re-run of the same batch is now all hits.
        rerun = list(client.iter_batch([warm, cold_a, cold_b]))[-1]
        assert rerun["hits"] == 3 and rerun["misses"] == 0

    def test_batch_returns_results_in_spec_order(self, client):
        specs = [_spec(seed=31), _spec(seed=32)]
        results = client.batch(specs)
        assert len(results) == 2
        for spec, result in zip(specs, results):
            assert result.to_dict() == client.route(spec).result.to_dict()

    def test_stats_reflect_traffic(self, client):
        spec = _spec(seed=41)
        client.route(spec)
        client.route(spec)
        payload = client.stats()
        assert payload["version"]
        cache = payload["cache"]
        assert cache["hits"] >= 1 and cache["stores"] >= 1
        assert 0.0 < cache["hit_rate"] <= 1.0
        assert cache["disk_entries"] >= 1 and cache["disk_bytes"] > 0
        server_stats = payload["server"]
        assert server_stats["route_requests"] >= 2
        assert server_stats["route_hits"] >= 1
        assert server_stats["route_misses"] >= 1
        assert server_stats["latency"]["count"] >= 2
        assert server_stats["latency"]["p50_ms"] <= server_stats["latency"]["p99_ms"]

    def test_cache_clear(self, client):
        spec = _spec(seed=51)
        client.route(spec)
        assert client.clear_cache() >= 1
        assert client.route(spec).cached is False
        assert client.route(spec).cached is True


class TestEcoEndpoint:
    """``POST /eco``: incremental re-routes with their own cache and the
    server-side base-routing LRU."""

    @staticmethod
    def _eco_spec(seed=5, move_id=3, dx=900.0):
        from repro.api.eco import EcoSpec
        from repro.eco import EcoDelta, SinkMove
        from repro.geometry.point import Point

        base = RunSpec(
            instance=InstanceSpec.from_random(24, seed=seed, groups=4),
            router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
        )
        delta = EcoDelta(move=(SinkMove(move_id, Point(2000.0 + dx, 3000.0)),))
        return EcoSpec(base=base, delta=delta, validate=True)

    def test_eco_miss_then_hit(self, client):
        spec = self._eco_spec(seed=91)
        cold = client.eco(spec)
        assert cold.cached is False
        assert cold.key == spec.cache_key()
        assert cold.result.ok, cold.result.issues or cold.result.error
        assert cold.result.eco.sinks_moved == 1
        hot = client.eco(spec)
        assert hot.cached is True and hot.key == cold.key
        # The acceptance criterion: hits are byte-identical via to_dict().
        assert hot.result.to_dict() == cold.result.to_dict()

    def test_base_routing_reused_across_deltas(self, client):
        before = client.stats()["server"]["eco_base_reuses"]
        first = client.eco(self._eco_spec(seed=92, move_id=2))
        second = client.eco(self._eco_spec(seed=92, move_id=7))
        assert first.cached is False and second.cached is False
        assert first.key != second.key
        # The second delta found the base routing in the LRU: no re-route.
        assert second.result.base_seconds == 0.0
        assert client.stats()["server"]["eco_base_reuses"] >= before + 1

    def test_eco_accepts_plain_dicts(self, client):
        spec = self._eco_spec(seed=93)
        response = client.eco(spec.to_dict())
        assert response.key == spec.cache_key()
        assert response.result.error is None

    def test_bad_eco_spec_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request_json("POST", "/eco", {"base": "nonsense"})
        assert excinfo.value.status == 400
        assert "bad eco spec" in excinfo.value.message

    def test_eco_errors_reported_not_cached(self, client):
        spec = self._eco_spec(seed=94).to_dict()
        spec["delta"] = {"move": [{"sink_id": 99999, "location": [0.0, 0.0]}]}
        response = client._request_json("POST", "/eco", spec)
        assert response["cached"] is False
        assert "unknown sink ids" in response["result"]["error"]
        again = client._request_json("POST", "/eco", spec)
        assert again["cached"] is False  # errors are never cached

    def test_stats_carry_eco_counters_and_cache(self, client):
        spec = self._eco_spec(seed=95)
        client.eco(spec)
        client.eco(spec)
        payload = client.stats()
        server_stats = payload["server"]
        assert server_stats["eco_requests"] >= 2
        assert server_stats["eco_hits"] >= 1
        assert server_stats["eco_misses"] >= 1
        assert payload["eco_cache"]["stores"] >= 1
        assert payload["base_routings"] >= 1

    def test_cache_clear_also_clears_eco_tier(self, client):
        spec = self._eco_spec(seed=96)
        assert client.eco(spec).cached is False
        client.clear_cache()
        assert client.eco(spec).cached is False  # eco tier was dropped too
        assert client.eco(spec).cached is True


class TestHttpErrors:
    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request_json("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request_json("GET", "/route")
        assert excinfo.value.status == 405
        with pytest.raises(ServiceError) as excinfo:
            client._request_json("POST", "/healthz", {})
        assert excinfo.value.status == 405

    def test_invalid_json_body_is_400(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            connection.request(
                "POST", "/route", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_bad_spec_is_400_with_reason(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request_json("POST", "/route", {"instance": "nonsense"})
        assert excinfo.value.status == 400
        assert "bad run spec" in excinfo.value.message

    def test_unknown_router_is_reported_not_crashed(self, client):
        spec = _spec(seed=61).to_dict()
        spec["router"]["name"] = "no-such-router"
        response = client._request_json("POST", "/route", spec)
        assert response["cached"] is False
        assert response["result"]["error"]
        # Errored runs must not be cached (the error could be transient).
        again = client._request_json("POST", "/route", spec)
        assert again["cached"] is False

    def test_empty_batch_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            list(client.iter_batch([]))
        assert excinfo.value.status == 400

    def test_malformed_request_line_is_400(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            data = sock.recv(65536)
        assert b"400" in data.split(b"\r\n", 1)[0]


class TestLifecycle:
    def test_memory_only_server_and_spec_order_streaming(self):
        # No cache_dir: the cache is memory-only and everything still works.
        with ServerThread(ServiceConfig(port=0)) as thread:
            client = ServiceClient(port=thread.port)
            spec = _spec(seed=71)
            assert client.route(spec).cached is False
            assert client.route(spec).cached is True
            stats = client.stats()
            assert stats["cache"]["disk_entries"] == 0

    def test_disk_cache_survives_a_restart(self, tmp_path):
        config = ServiceConfig(port=0, cache_dir=str(tmp_path / "cache"))
        spec = _spec(seed=81)
        with ServerThread(config) as thread:
            assert ServiceClient(port=thread.port).route(spec).cached is False
        # A fresh server over the same directory serves the hit from disk.
        with ServerThread(config) as thread:
            assert ServiceClient(port=thread.port).route(spec).cached is True

    def test_two_servers_bind_distinct_ephemeral_ports(self, server):
        with ServerThread(ServiceConfig(port=0)) as other:
            assert other.port != server.port
            assert ServiceClient(port=other.port).healthz()["status"] == "ok"


class TestObservability:
    """``GET /metrics`` (Prometheus exposition) and ``X-Repro-Trace``."""

    def test_metrics_exposition_parses_and_carries_requests(self, client):
        from repro.obs.metrics import parse_exposition

        client.route(_spec(seed=101))
        samples = parse_exposition(client.metrics())
        assert samples["repro_http_requests_total"][""] >= 1.0
        assert samples["repro_endpoint_requests_total"]['endpoint="route"'] >= 1.0
        buckets = samples["repro_request_seconds_bucket"]
        route_buckets = {k: v for k, v in buckets.items() if 'endpoint="route"' in k}
        assert route_buckets
        # The +Inf bucket equals the count series.
        inf_key = 'endpoint="route",le="+Inf"'
        assert buckets[inf_key] == samples["repro_request_seconds_count"][
            'endpoint="route"'
        ]
        assert samples["repro_uptime_seconds"][""] > 0.0
        assert samples["repro_peak_rss_mb"][""] > 0.0

    def test_metrics_cache_outcomes_labelled(self, client):
        from repro.obs.metrics import parse_exposition

        spec = _spec(seed=102)
        client.route(spec)
        client.route(spec)
        samples = parse_exposition(client.metrics())
        cache = samples["repro_endpoint_cache_total"]
        assert cache['endpoint="route",outcome="miss"'] >= 1.0
        assert cache['endpoint="route",outcome="hit"'] >= 1.0

    def test_stats_carry_per_endpoint_latency(self, client):
        spec = _spec(seed=103)
        client.route(spec)
        endpoints = client.stats()["server"]["endpoints"]
        assert set(endpoints) == {"route", "eco", "batch"}
        route = endpoints["route"]
        assert route["count"] >= 1
        assert route["p50_ms"] <= route["p99_ms"]
        assert route["mean_ms"] > 0.0

    def test_trace_header_returns_trace_on_miss_only(self, client):
        spec = _spec(seed=104)
        cold = client.route(spec, trace=True)
        assert cold.cached is False
        names = {event["name"] for event in cold.result.trace}
        assert {"run", "run.route", "dme.pass"} <= names
        # Hits serve the cached (trace-stripped) result.
        hot = client.route(spec, trace=True)
        assert hot.cached is True
        assert hot.result.trace == []

    def test_untraced_request_carries_no_trace(self, client):
        cold = client.route(_spec(seed=105))
        assert cold.cached is False
        assert cold.result.trace == []

    def test_traced_result_matches_untraced_shape(self, client):
        """The cached entry of a traced miss equals a plain run's result."""
        spec = _spec(seed=106)
        traced = client.route(spec, trace=True)
        cached = client.route(spec)
        a, b = traced.result.to_dict(), cached.result.to_dict()
        a.pop("trace", None)
        assert a == b

    def test_eco_trace_header(self, client):
        spec = TestEcoEndpoint._eco_spec(seed=107)
        cold = client.eco(spec, trace=True)
        assert cold.cached is False
        names = {event["name"] for event in cold.result.trace}
        assert {"eco", "eco.cone", "eco.remerge"} <= names
        hot = client.eco(spec, trace=True)
        assert hot.cached is True
        assert hot.result.trace == []


class TestPoolFallback:
    def test_pool_failure_warns_once_and_routes_in_thread(self, monkeypatch):
        """A process pool that cannot start falls back to in-thread routing
        with one RuntimeWarning naming the exception; later requests route
        in-thread without trying the pool again."""
        import repro.service.server as server_module
        from repro.api.runner import run_safe

        attempts = []

        def no_pool(*args, **kwargs):
            attempts.append(1)
            raise OSError("no process pool here")

        monkeypatch.setattr(server_module, "ProcessPoolExecutor", no_pool)
        service = server_module.RoutingService(ServiceConfig(port=0, workers=2))
        try:
            specs = [_spec(seed=seed) for seed in (5, 6)]
            with pytest.warns(RuntimeWarning) as caught:
                results = [service._run_one_blocking(spec) for spec in specs]
        finally:
            service.close()
        (warning,) = caught
        assert "OSError: no process pool here" in str(warning.message)
        assert len(attempts) == 1

        def stable(result):
            d = result.to_dict()
            d.pop("route_seconds"), d.pop("total_seconds"), d.pop("stats")
            return d

        assert [stable(r) for r in results] == [stable(run_safe(spec)) for spec in specs]
