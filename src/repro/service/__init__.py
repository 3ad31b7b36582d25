"""The estimation service plane: warm sessions served over HTTP.

Everything below :mod:`repro.engine` amortizes work *within* one process
invocation; this package amortizes it *across* invocations by keeping the
engine warm in a long-running process:

* :class:`SessionRegistry` (:mod:`repro.service.registry`) — an LRU of
  warm :class:`~repro.engine.session.EstimationSession`\\ s keyed by
  :func:`~repro.engine.store.instance_cache_key`, each with its lazily
  grown shared sample pool, a per-session lock (sessions are not
  thread-safe), and optional :class:`~repro.engine.store.CacheStore`
  warm-start on admission / spill on eviction.
* :class:`MicroBatcher` (:mod:`repro.service.batching`) — coalesces
  concurrent requests for the same group into one batched
  pool-extension + hit-counting pass, so concurrency widens batches
  instead of contending on the session lock; its queues are bounded
  (:class:`QueueFull` → HTTP 429 + ``Retry-After``).
* :class:`AnswerCache` (:mod:`repro.service.cache`) — a digest-verified
  LRU of served result rows in front of the estimate path (seeded
  servers only; a poisoned entry is detected and recomputed, never
  served).
* :class:`MetricsRegistry` (:mod:`repro.service.metrics`) — the
  dependency-free Prometheus-text instrumentation behind
  ``GET /metrics``.
* :class:`EstimationServer` / :func:`serve` / :class:`BackgroundServer`
  (:mod:`repro.service.server`) — a stdlib-only asyncio HTTP JSON API
  (``/estimate``, ``/answers``, ``/healthz``, ``/stats``,
  ``/metrics``), started from the command line as
  ``python -m repro serve``, with admission control and per-request
  deadline budgets.
* :class:`Shard` / :class:`LocalPool` / :class:`WorkerPool` /
  :class:`WorkerConfig` / :func:`shard_for_key` /
  :func:`aggregate_shard_stats` (:mod:`repro.service.sharding`) — the
  server's one execution path: a pool of shards (registry +
  micro-batcher each), in-process or one warm worker process per shard
  (``serve --workers N``), with served rows bit-identical either way.
* :class:`ServiceClient` (:mod:`repro.service.client`) — a small
  ``urllib``-based client for the HTTP API; every failure mode
  surfaces as :class:`ServiceClientError`.
* :func:`run_loadtest` / :class:`LoadTestConfig` /
  :class:`LoadTestReport` / :class:`ServerProcess`
  (:mod:`repro.service.loadtest`) — the closed-loop fault-injection
  load-test harness (``python -m repro loadtest``) that proves the
  plane degrades gracefully past saturation, through the harness-only
  fault server of :mod:`repro.service.faults`.

The determinism contract carries all the way through: a served estimate
is bit-identical to the same request inside an offline
:func:`~repro.engine.batch.batch_estimate` run under the same workload
seed, regardless of arrival order, batching, caching, or server
restarts (group seeds are content-derived and every request evaluates
its group's pool from position zero).
``benchmarks/bench_e27_service_throughput.py`` asserts exactly that
while measuring the warm-registry speedup, and
``benchmarks/bench_e29_saturation.py`` re-asserts it past saturation
with every fault injected.
"""

from .batching import MicroBatcher, QueueFull
from .cache import DEFAULT_ANSWER_CACHE_SIZE, AnswerCache
from .client import ServiceClient, ServiceClientError
from .loadtest import (
    LoadTestConfig,
    LoadTestReport,
    ServerProcess,
    format_report,
    run_loadtest,
)
from .metrics import MetricsRegistry, parse_metrics_text
from .registry import DEFAULT_MAX_SESSIONS, SessionHandle, SessionRegistry
from .server import DEFAULT_HOST, DEFAULT_PORT, BackgroundServer, EstimationServer, serve
from .sharding import (
    LocalPool,
    Shard,
    WorkerConfig,
    WorkerPool,
    aggregate_shard_stats,
    shard_for_key,
)

__all__ = [
    "AnswerCache",
    "BackgroundServer",
    "DEFAULT_ANSWER_CACHE_SIZE",
    "DEFAULT_HOST",
    "DEFAULT_MAX_SESSIONS",
    "DEFAULT_PORT",
    "EstimationServer",
    "LoadTestConfig",
    "LoadTestReport",
    "LocalPool",
    "MetricsRegistry",
    "MicroBatcher",
    "QueueFull",
    "ServerProcess",
    "ServiceClient",
    "ServiceClientError",
    "SessionHandle",
    "SessionRegistry",
    "Shard",
    "WorkerConfig",
    "WorkerPool",
    "aggregate_shard_stats",
    "format_report",
    "parse_metrics_text",
    "run_loadtest",
    "serve",
    "shard_for_key",
]
