"""Multi-tenant allocation service over the solver API.

The standing, stdlib-only (asyncio) layer that turns the library into
a traffic-serving system: many tenants submit the typed requests of
:mod:`repro.api` concurrently; the service admits or reject-fasts them
against per-tenant quotas (concurrency, queue depth, token-bucket
rate), schedules the admitted ones with strict priorities and
weighted-fair round-robin across tenants, executes them on the
existing executor backends, and exposes per-tenant counters and
latency percentiles.

Pieces (one module each):

* :mod:`~repro.service.tenants` — :class:`TenantConfig` quotas,
  :class:`TokenBucket`, the :class:`TenantRegistry`;
* :mod:`~repro.service.queueing` — the priority + weighted-fair-share
  :class:`FairQueue` (pure data structure);
* :mod:`~repro.service.broker` — :class:`AllocationService` itself
  (admission, dispatch, execution; counters and latency percentiles
  in its own :class:`~repro.telemetry.MetricsRegistry`, with
  ``snapshot()`` a view over it);
* :mod:`~repro.service.http` — the JSON-over-HTTP front door
  (``repro serve``);
* :mod:`~repro.service.shard` — the sharded deployment:
  :class:`ShardRouter` over N :class:`AllocationService` shards
  (tenant→shard map, global admission, merged stats/metrics;
  ``repro serve --shards N | --shard HOST:PORT``);
* :mod:`~repro.service.client` — the in-process :class:`ServiceClient`
  and the stdlib :class:`HttpServiceClient` (``repro submit``).

Quickstart (in-process)::

    from repro.api import InstanceSpec, SolveRequest
    from repro.service import ServiceClient, TenantConfig

    with ServiceClient(
        tenants=(TenantConfig("acme", weight=2),), jobs=2
    ) as client:
        result = client.solve(
            SolveRequest(spec=InstanceSpec(n_operators=20), seed=7),
            tenant="acme", priority=1,
        )

Over HTTP: ``repro serve --port 8642`` on one side,
``repro submit --url http://host:8642 -n 20 --seed 7`` (or
:class:`HttpServiceClient`) on the other.
"""

from ..telemetry.metrics import percentile
from .broker import (
    AdmissionRejected,
    AllocationService,
    Ticket,
    request_cache_key,
)
from .client import (
    HttpServiceClient,
    PendingResult,
    ServiceClient,
    ServiceError,
)
from .http import BaseHTTPServer, ServiceHTTPServer
from .queueing import FairQueue, QueuedTicket
from .shard import (
    HttpShard,
    LocalShard,
    RouterHTTPServer,
    ShardBackend,
    ShardRouter,
    parse_shard_map,
    rendezvous_shard,
)
from .tenants import (
    TenantConfig,
    TenantRegistry,
    TokenBucket,
    parse_tenant_spec,
)

__all__ = [
    "AdmissionRejected",
    "AllocationService",
    "BaseHTTPServer",
    "FairQueue",
    "HttpServiceClient",
    "HttpShard",
    "LocalShard",
    "PendingResult",
    "QueuedTicket",
    "RouterHTTPServer",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "ShardBackend",
    "ShardRouter",
    "TenantConfig",
    "TenantRegistry",
    "Ticket",
    "TokenBucket",
    "parse_shard_map",
    "parse_tenant_spec",
    "percentile",
    "rendezvous_shard",
    "request_cache_key",
]
