"""repro.service -- routing as a service on top of the :mod:`repro.api` facade.

The serving layer of the repo: a long-running asyncio HTTP server whose unit
of work is the same declarative :class:`~repro.api.spec.RunSpec` ->
:class:`~repro.api.spec.RunResult` contract the rest of the library speaks,
fronted by a content-addressed result cache so repeat traffic never re-routes.

* :mod:`repro.service.cache`: :class:`RunCache`, the two-tier (bounded
  in-memory LRU over on-disk JSON) cache keyed by ``RunSpec.cache_key()``,
  with :class:`CacheStats` and an invalidation API;
* :mod:`repro.service.server`: :class:`RoutingServer` / :class:`ServerThread`
  and the ``repro serve`` entry point (``POST /route``, ``POST /eco``,
  streaming ``POST /batch``, ``GET /routers``, ``GET /stats``,
  ``GET /healthz``, ``POST /cache/clear``);
* :mod:`repro.service.client`: :class:`ServiceClient`, the blocking client;
* :mod:`repro.service.loadtest`: the load test ``repro bench`` runs
  (requests/sec, p50/p99, hit-rate gates).

Quickstart::

    from repro.service import ServerThread, ServiceClient, ServiceConfig

    with ServerThread(ServiceConfig(port=0, cache_dir="cache")) as server:
        client = ServiceClient(port=server.port)
        miss = client.route(spec)      # cold: routes, then caches
        hit = client.route(spec)       # hot: served from the cache
        assert hit.cached and hit.result.to_dict() == miss.result.to_dict()

See ``docs/service.md`` for the endpoint and cache semantics.
"""

from repro.service.cache import CacheStats, RunCache
from repro.service.client import (
    BatchEvent,
    EcoResponse,
    RouteResponse,
    ServiceClient,
    ServiceError,
)
from repro.service.loadtest import run_service_suite, service_spec
from repro.service.server import (
    RoutingServer,
    RoutingService,
    ServerThread,
    ServiceConfig,
    serve,
)

__all__ = [
    "BatchEvent",
    "CacheStats",
    "EcoResponse",
    "RouteResponse",
    "RoutingServer",
    "RoutingService",
    "RunCache",
    "ServerThread",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "run_service_suite",
    "serve",
    "service_spec",
]
