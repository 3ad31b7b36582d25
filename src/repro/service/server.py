"""The estimation HTTP server: a stdlib-only asyncio JSON API, hardened.

Endpoints (request/response JSON specified in ``docs/FORMATS.md``):

* ``POST /estimate`` — a workload-shaped document (``instances`` +
  ``requests`` + optional ``mode``/``defaults``, the exact
  ``python -m repro batch`` format with *inline* instance documents) or
  a single-request document (``instance`` + ``query`` + optional
  ``generator``/``answer``/``answers``/``epsilon``/``delta``/
  ``method``/``max_samples``/``mode``/``label``); responds with
  ``{"mode": ..., "results": [row, ...]}`` in request order, each row in
  the ``batch --json`` schema (scope errors are *rows*, not HTTP
  errors).
* ``POST /answers`` — single-request shape without ``answer``; expands
  every candidate tuple of ``Q(D)`` (the workload format's
  ``"answers": "all"``) and responds ``{"answers": [row, ...]}``.
* ``GET /healthz`` — liveness, session count and shard liveness.
* ``GET /stats`` — registry, micro-batcher, answer-cache, shard and
  server counters as one JSON document.
* ``GET /metrics`` — the same operational signals in Prometheus text
  exposition format (:mod:`repro.service.metrics`).

**One execution path.**  The server parses, answers from its answer
cache, and hands every other instance group to a pool of shards
(:mod:`repro.service.sharding`), whose per-shard documents feed the
monitoring endpoints.  Hardening (``docs/ARCHITECTURE.md``): bounded
queues refuse overflow with ``429`` + ``Retry-After``, deadline budgets
(``408`` / ``504``) cancel expired work, the digest-verified answer cache
serves seeded repeats, and cache-store failures degrade the cache (an
accounted degraded mode), never the answers.

Instance documents must be inline: the on-disk workload format's
"instance by file path" convenience is rejected here (a network service
must not read files named by its callers).

The server is deliberately minimal HTTP/1.1 — one request per
connection, ``Connection: close`` — because its job is to demonstrate
and exercise the service plane (registry + micro-batching) with zero
dependencies, not to replace a production front end; the concurrency
that matters (estimation) happens behind the event loop in coalesced
batches, where an idle keep-alive connection would buy nothing.
"""

from __future__ import annotations

import asyncio
import json
import signal as signal_module
import sys
import threading
import time
from typing import Any, Callable, Mapping

from ..engine.batch import BatchRequest, BatchResult
from ..io import InstanceFormatError, batch_result_to_row, workload_from_dict
from .batching import MODES, QueueFull
from .cache import DEFAULT_ANSWER_CACHE_SIZE, AnswerCache
from .metrics import LATENCY_BUCKETS, WIDTH_BUCKETS, MetricsRegistry
from .registry import DEFAULT_MAX_SESSIONS, SessionRegistry
from .sharding import (
    LocalPool,
    Shard,
    WorkerConfig,
    WorkerPool,
    aggregate_shard_stats,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Request bodies past this size are rejected (64 MiB — far above any
#: reasonable workload document, far below a memory-exhaustion payload).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: A connection must deliver its complete request within this window;
#: slow or truncated-then-silent senders are dropped instead of pinning
#: a reader task forever.
READ_TIMEOUT_SECONDS = 30.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Request-row fields forwarded from a single-request document into the
#: wrapped workload row (everything else is server-side configuration).
_SINGLE_REQUEST_FIELDS = (
    "query",
    "generator",
    "answer",
    "answers",
    "epsilon",
    "delta",
    "method",
    "max_samples",
)


class _BadRequest(Exception):
    """A client error carried to the HTTP layer as a 400 row."""


class _ShuttingDown(Exception):
    """Queued work that outlived :meth:`EstimationServer.stop`'s drain
    timeout fails with this, as a 503 — never silently dropped."""


class _DeadlineExceeded(Exception):
    """A request budget expired: 408 (client budget) or 504 (server's)."""

    def __init__(self, status: int, budget: float):
        self.status = status
        self.budget = budget
        super().__init__(
            f"request budget of {budget:g}s exceeded; partial work cancelled"
        )


class _Response:
    """One rendered HTTP response (status, body, headers)."""

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: Mapping[str, str] | None = None,
    ):
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = dict(headers or {})


def _json_response(
    status: int, payload: Any, headers: Mapping[str, str] | None = None
) -> _Response:
    return _Response(
        status, json.dumps(payload).encode("utf-8"), headers=headers
    )


def _parse_body(body: bytes) -> Mapping[str, Any]:
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _BadRequest(f"request body is not valid JSON: {error}") from None
    if not isinstance(document, Mapping):
        raise _BadRequest("request body must be a JSON object")
    return document


def _reject_instance_paths(instances: Any) -> None:
    """The service never loads instances from server-side file paths."""
    if isinstance(instances, Mapping):
        for name, spec in instances.items():
            if not isinstance(spec, Mapping):
                raise _BadRequest(
                    f"instance {name!r} must be an inline instance document "
                    "(file paths are not served)"
                )


def _parse_mode(document: Mapping[str, Any]) -> str:
    mode = document.get("mode", "fixed")
    if mode not in MODES:
        raise _BadRequest(f"unknown mode {mode!r}; choose from {MODES}")
    return mode


def _estimate_requests(
    document: Mapping[str, Any],
) -> tuple[list[BatchRequest], str]:
    """Both ``/estimate`` body shapes → (requests, mode)."""
    if "requests" in document:
        _reject_instance_paths(document.get("instances"))
        try:
            return workload_from_dict(document), _parse_mode(document)
        except InstanceFormatError as error:
            raise _BadRequest(str(error)) from None
    return _single_request(document)


def _single_request(
    document: Mapping[str, Any], force_all_answers: bool = False
) -> tuple[list[BatchRequest], str]:
    """A single-request document, wrapped into the workload format."""
    instance = document.get("instance")
    if not isinstance(instance, Mapping):
        raise _BadRequest(
            "request needs an inline 'instance' document (or use the "
            "workload shape with 'instances' + 'requests')"
        )
    label = document.get("label", "request")
    if not isinstance(label, str):
        raise _BadRequest("'label' must be a string")
    row = {
        key: document[key] for key in _SINGLE_REQUEST_FIELDS if key in document
    }
    if force_all_answers:
        row.pop("answer", None)
        row["answers"] = "all"
    row["instance"] = label
    try:
        requests = workload_from_dict(
            {"instances": {label: instance}, "requests": [row]}
        )
    except InstanceFormatError as error:
        raise _BadRequest(str(error)) from None
    return requests, _parse_mode(document)


class EstimationServer:
    """The asyncio HTTP server in front of a pool of shards.

    Hardening knobs (all optional; ``None``/default = pre-hardening
    behavior): ``max_queue`` / ``max_pending`` bound each shard
    micro-batcher's queued requests per group / in total,
    ``max_inflight`` bounds the estimation requests being handled at
    once, ``default_budget`` is the server-wide deadline (seconds) for
    requests without their own ``budget_seconds``, and
    ``answer_cache_size`` sizes the answer cache (0 disables it).

    Execution goes through one pool (:mod:`repro.service.sharding`): a
    one-shard :class:`~repro.service.sharding.LocalPool` over
    ``registry`` itself by default, so embedding callers see every
    session the server admits; with ``workers=N`` a
    :class:`~repro.service.sharding.WorkerPool` of ``N`` warm worker
    processes built from this server's configuration, and ``registry``
    only derives keys and seeds.  Results are bit-identical at any
    worker count — group seeds are content-derived.
    """

    def __init__(
        self,
        registry: SessionRegistry | None = None,
        *,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        max_queue: int | None = None,
        max_pending: int | None = None,
        max_inflight: int | None = None,
        default_budget: float | None = None,
        answer_cache_size: int = DEFAULT_ANSWER_CACHE_SIZE,
        workers: int | None = None,
    ):
        if default_budget is not None and default_budget <= 0:
            raise ValueError("default_budget must be positive (or None)")
        if answer_cache_size < 0:
            raise ValueError("answer_cache_size must be >= 0")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be positive (or None)")
        self.registry = registry if registry is not None else SessionRegistry()
        self.max_queue = max_queue
        self.max_pending = max_pending
        self.metrics = MetricsRegistry()
        self._build_metrics()
        if workers is None:
            self.pool: LocalPool | WorkerPool = LocalPool(
                Shard(
                    self.registry,
                    max_queue=max_queue,
                    max_pending=max_pending,
                    on_batch=self._observe_batch,
                )
            )
        else:
            store = self.registry.store
            self.pool = WorkerPool(
                WorkerConfig(
                    seed=self.registry.seed,
                    cache_dir=None if store is None else store.directory,
                    max_sessions=self.registry.max_sessions,
                    max_queue=max_queue,
                    max_pending=max_pending,
                ),
                workers,
                on_restart=lambda shard: self._m_worker_restarts.labels(
                    str(shard)
                ).inc(),
            )
        # The latest per-shard documents and their fold, refreshed by
        # every monitoring request (metric callbacks must not await).
        self._shards: list[dict] = []
        self._totals = aggregate_shard_stats(self._shards)
        self.default_budget = default_budget
        self.max_inflight = max_inflight
        self._inflight = 0
        self._connections: set[asyncio.Task] = set()
        self.answer_cache = (
            AnswerCache(answer_cache_size) if answer_cache_size else None
        )
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self.requests_served = 0
        self._server: asyncio.AbstractServer | None = None
        self._started_at: float | None = None

    @classmethod
    def build(
        cls,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        seed: int | None = None,
        cache_dir: str | None = None,
        max_sessions: int | None = None,
        answer_cache_size: int | None = None,
        **options,
    ) -> "EstimationServer":
        """A server of this class from the ``serve`` arguments (``None``
        selects the default session and answer-cache capacities)."""
        if max_sessions is None:
            max_sessions = DEFAULT_MAX_SESSIONS
        if answer_cache_size is None:
            answer_cache_size = DEFAULT_ANSWER_CACHE_SIZE
        registry = SessionRegistry(
            seed=seed, cache_dir=cache_dir, max_sessions=max_sessions
        )
        return cls(
            registry,
            host=host,
            port=port,
            answer_cache_size=answer_cache_size,
            **options,
        )

    # -- metrics -----------------------------------------------------------------------

    def _build_metrics(self) -> None:
        metrics = self.metrics
        self._m_requests = metrics.counter(
            "repro_requests_total",
            "HTTP requests handled, by endpoint and status code.",
            ("endpoint", "status"),
        )
        self._m_request_seconds = metrics.histogram(
            "repro_request_seconds",
            "Wall-clock HTTP request handling latency in seconds, by "
            "endpoint and status (admitted latency is the status=200 series).",
            LATENCY_BUCKETS,
            ("endpoint", "status"),
        )
        self._m_batch_seconds = metrics.histogram(
            "repro_batch_seconds",
            "Coalesced batch execution latency in seconds, by group key prefix.",
            LATENCY_BUCKETS,
            ("group",),
        )
        self._m_batch_width = metrics.histogram(
            # Dimensionless by design (a request count, not a latency);
            # its _bucket/_count/_sum series are still counter-shaped and
            # the monotonicity checker covers them via those suffixes.
            "repro_batch_width",  # repro-lint: disable=RL005
            "Estimation requests coalesced into one batch pass.",
            WIDTH_BUCKETS,
        )
        self._m_rejected = metrics.counter(
            "repro_rejected_total",
            "Requests refused admission, by reason.",
            ("reason",),
        )
        metrics.counter(
            "repro_estimates_served_total",
            "Estimation request rows served (cache hits included).",
            callback=lambda: self.requests_served,
        )
        # Shard-derived series read the fold of the latest per-shard
        # documents (refreshed by every monitoring request).
        def summed(field: str) -> Callable[[], int]:
            return lambda: self._totals["registry"][field]

        metrics.gauge(
            "repro_sessions",
            "Warm sessions held, summed over the shards.",
            callback=summed("sessions"),
        )
        metrics.counter(
            "repro_registry_hits_total",
            "Registry hits, summed over the shards.",
            callback=summed("hits"),
        )
        metrics.counter(
            "repro_registry_misses_total",
            "Registry misses (cold admissions), summed over the shards.",
            callback=summed("misses"),
        )
        metrics.counter(
            "repro_registry_evictions_total",
            "Sessions evicted from the registry LRUs, summed over the shards.",
            callback=summed("evictions"),
        )
        metrics.counter(
            "repro_store_errors_total",
            "Cache-store failures absorbed into degraded mode, by "
            "operation (load/warm/spill/save) and kind, summed over the shards.",
            ("op", "kind"),
            callback=lambda: {
                tuple(key.split(":", 1)): count
                for key, count in self._totals["storage_errors"].items()
            },
        )
        metrics.gauge(
            "repro_degraded_mode",
            "1 while the most recent cache-store interaction of any shard "
            "failed, 0 otherwise.",
            callback=lambda: int(self._totals["degraded"]),
        )
        metrics.counter(
            "repro_answer_cache_hits_total",
            "Answer cache hits.",
            callback=lambda: self.answer_cache.hits if self.answer_cache else 0,
        )
        metrics.counter(
            "repro_answer_cache_misses_total",
            "Answer cache misses.",
            callback=lambda: self.answer_cache.misses if self.answer_cache else 0,
        )
        metrics.counter(
            "repro_answer_cache_poisoned_total",
            "Answer cache entries dropped after digest verification failed.",
            callback=lambda: self.answer_cache.poisoned if self.answer_cache else 0,
        )
        metrics.gauge(
            "repro_answer_cache_entries",
            "Answer cache entries currently held.",
            callback=lambda: len(self.answer_cache) if self.answer_cache else 0,
        )
        metrics.gauge(
            "repro_inflight_requests",
            "Estimation endpoint requests currently being handled.",
            callback=lambda: self._inflight,
        )
        metrics.gauge(
            "repro_pending_requests",
            "Estimation requests queued in the shard micro-batchers.",
            callback=lambda: self._totals["batching"]["pending_requests"],
        )
        # The loadtest harness uses this as the server-lifetime marker: a
        # decrease between scrapes means a restart, which legitimately
        # resets every counter above.
        metrics.gauge(
            "repro_uptime_seconds",
            "Seconds since this server process started serving.",
            callback=lambda: (
                0.0
                if self._started_at is None
                else time.monotonic() - self._started_at
            ),
        )
        # Per-shard breakdowns.  The restart counter is router-owned
        # (monotone across respawns); the per-shard registry/batcher
        # series are *gauges* because a respawned worker's counters
        # restart from zero — a labeled counter would violate the
        # monotonicity invariant the loadtest asserts.
        self._m_worker_restarts = metrics.counter(
            "repro_worker_restarts_total",
            "Worker processes respawned after dying, by shard.",
            ("shard",),
        )
        metrics.gauge(
            "repro_shard_workers",
            "Configured shard count (1 when serving in-process).",
            callback=lambda: self.pool.workers,
        )
        for name, section, field in (
            ("repro_shard_sessions", "registry", "sessions"),
            ("repro_shard_registry_hits", "registry", "hits"),
            ("repro_shard_registry_misses", "registry", "misses"),
            ("repro_shard_store_errors", "registry", "store_errors"),
            ("repro_shard_pending_requests", "batching", "pending_requests"),
            ("repro_shard_batches_run", "batching", "batches_run"),
        ):
            metrics.gauge(
                name,
                f"Each shard's latest {section} {field} (counts of a respawned "
                "worker restart from zero).",
                callback=self._shard_gauge(section, field),
                labelnames=("shard",),
            )

    def _shard_gauge(self, section: str, field: str):
        """A labeled-gauge callback reading the latest shard documents."""

        def read() -> dict[str, float]:
            return {
                str(entry["shard"]): entry[section].get(field, 0)
                for entry in self._shards
                if entry.get(section)
            }

        return read

    def _observe_batch(self, key: str, seconds: float, width: int) -> None:
        self._m_batch_seconds.labels(key[:12]).observe(seconds)
        self._m_batch_width.observe(width)

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Start the pool, bind and start serving; returns ``(host, port)``
        actually bound (``port=0`` picks an ephemeral port)."""
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self._started_at = time.monotonic()
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_forever(self) -> None:
        """Serve until cancelled (:meth:`start` must have run)."""
        await self._server.serve_forever()

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Stop accepting, give in-flight requests ``drain_timeout``
        seconds, then stop the pool: each shard drains what is still
        queued for up to ``drain_timeout`` seconds, fails the rest with a
        clean 503 (never a silent drop), and spills its registry."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = {task for task in self._connections if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=drain_timeout)
        await self.pool.stop(
            drain_timeout,
            _ShuttingDown("server shutting down; request was not executed"),
        )

    @property
    def url(self) -> str:
        """The served base URL (after :meth:`start`)."""
        if self.address is None:
            raise RuntimeError("server not started")
        return f"http://{self.address[0]}:{self.address[1]}"

    # -- HTTP plumbing -----------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            if task is not None:
                self._connections.discard(task)

    async def _serve_connection(self, reader, writer) -> None:
        try:
            response = await asyncio.wait_for(
                self._handle_request(reader), READ_TIMEOUT_SECONDS
            )
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
            asyncio.LimitOverrunError,
            ValueError,  # readline() wraps over-long header lines in this
        ):
            writer.close()
            return
        # ``Exception`` (not ``BaseException``) by contract: CrashPoint
        # sails through this backstop exactly like SIGKILL would.
        except Exception as error:  # pragma: no cover  # repro-lint: disable=RL003
            response = _json_response(500, {"error": f"internal error: {error}"})
        head_lines = [
            f"HTTP/1.1 {response.status} {_STATUS_TEXT.get(response.status, 'Error')}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
        ]
        head_lines.extend(f"{name}: {value}" for name, value in response.headers.items())
        head_lines.append("Connection: close")
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("ascii")
        try:
            writer.write(head + response.body)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover - client gone
            pass

    async def _handle_request(self, reader) -> _Response:
        # The whole head arrives in one readuntil: under a rejection
        # flood every await is an event-loop round trip, and a
        # line-by-line header loop costs ~10 of them per connection.
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial.strip():
                raise ConnectionError("empty request") from None
            raise
        lines = head.decode("latin-1").split("\r\n")
        request_line = lines[0].strip()
        if not request_line:
            raise ConnectionError("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            return self._finish(
                "other",
                _json_response(400, {"error": f"malformed request line {request_line!r}"}),
                time.perf_counter(),
            )
        method, target, _ = parts
        path = target.split("?", 1)[0]
        started = time.perf_counter()
        length = 0
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = -1
                if length < 0:
                    return self._finish(
                        self._endpoint_label(path),
                        _json_response(400, {"error": "malformed Content-Length"}),
                        started,
                    )
        if length > MAX_BODY_BYTES:
            return self._finish(
                self._endpoint_label(path),
                _json_response(
                    413, {"error": f"request body over {MAX_BODY_BYTES} bytes"}
                ),
                started,
            )
        body = await reader.readexactly(length) if length else b""
        response = await self._dispatch(method, path, body)
        return self._finish(self._endpoint_label(path), response, started)

    def _endpoint_label(self, path: str) -> str:
        """Known route paths verbatim; everything else pooled (bounded
        label cardinality — callers must not mint metric series)."""
        return path if path in self._routes() else "other"

    def _finish(self, endpoint: str, response: _Response, started: float) -> _Response:
        self._m_requests.labels(endpoint, str(response.status)).inc()
        self._m_request_seconds.labels(endpoint, str(response.status)).observe(
            time.perf_counter() - started
        )
        return response

    # -- routing -----------------------------------------------------------------------

    def _routes(self) -> dict[str, tuple[str, Callable]]:
        return {
            "/healthz": ("GET", self._healthz),
            "/stats": ("GET", self._stats),
            "/metrics": ("GET", self._metrics_endpoint),
            "/estimate": ("POST", self._estimate),
            "/answers": ("POST", self._answers),
        }

    async def _dispatch(self, method: str, path: str, body: bytes) -> _Response:
        routes = self._routes()
        route = routes.get(path)
        if route is None:
            return _json_response(
                404, {"error": f"unknown path {path!r}", "paths": sorted(routes)}
            )
        expected, endpoint = route
        if method != expected:
            return _json_response(405, {"error": f"{path} expects {expected}"})
        try:
            if expected == "GET":
                result = await endpoint()
            elif path in ("/estimate", "/answers"):
                result = await self._admit_request(endpoint, body)
            else:
                result = await endpoint(_parse_body(body))
        except _BadRequest as error:
            return _json_response(400, {"error": str(error)})
        except _ShuttingDown as error:
            return _json_response(503, {"error": str(error)})
        except QueueFull as error:
            self._m_rejected.labels("queue_full").inc()
            return _json_response(
                429,
                {
                    "error": str(error),
                    "retry_after_seconds": error.retry_after,
                },
                headers={"Retry-After": str(error.retry_after)},
            )
        except _DeadlineExceeded as error:
            return _json_response(error.status, {"error": str(error)})
        if isinstance(result, _Response):
            return result
        return _json_response(200, result)

    async def _admit_request(self, endpoint, body: bytes):
        """Run one estimation endpoint under the ``max_inflight`` bound.

        Body parsing, instance construction, and cache-key hashing all
        run on the event loop, so *connection-level* concurrency — not
        just the batcher queue — needs an admission bound: without one,
        every concurrent request waits behind the CPU work of all the
        others (head-of-line blocking the batcher bounds cannot see).
        The check runs *before* the body is parsed, so a rejected
        request costs almost nothing.  Single-threaded event loop, so
        the counter needs no lock.
        """
        if self.max_inflight is not None and self._inflight >= self.max_inflight:
            raise QueueFull(
                "inflight",
                self._inflight,
                self.max_inflight,
                self.pool.retry_after_hint(self._inflight),
            )
        self._inflight += 1
        try:
            return await endpoint(_parse_body(body))
        finally:
            self._inflight -= 1

    # -- monitoring endpoints ----------------------------------------------------------

    async def _refresh(self) -> list[dict]:
        """Poll the pool's per-shard documents and fold them into totals
        (the cached fold also feeds the metric callbacks)."""
        self._shards = await self.pool.stats()
        self._totals = aggregate_shard_stats(self._shards)
        return self._shards

    def _workers_document(self) -> dict:
        """Shard count + per-shard liveness from the latest documents."""
        return {
            "count": self.pool.workers,
            "alive": [entry["alive"] for entry in self._shards],
        }

    async def _healthz(self) -> dict:
        # Degraded storage does not fail liveness: the whole point of
        # degraded mode is that the service keeps answering (by
        # recomputing) while the disk is broken.
        await self._refresh()
        totals = self._totals
        last_errors = [
            entry["registry"]["storage"]["last_error"]
            for entry in self._shards
            if entry.get("registry")
        ]
        return {
            "status": "ok",
            "sessions": totals["registry"]["sessions"],
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "storage": {
                "degraded": totals["degraded"],
                "store_errors": totals["registry"]["store_errors"],
                "last_error": next(filter(None, last_errors), None),
            },
            "workers": self._workers_document(),
        }

    async def _stats(self) -> dict:
        await self._refresh()
        totals = self._totals
        return {
            "requests_served": self.requests_served,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "default_budget": self.default_budget,
            "max_inflight": self.max_inflight,
            "inflight": self._inflight,
            "registry": {
                **self.registry.stats(),
                **totals["registry"],
                "degraded": totals["degraded"],
                "groups": totals["groups"],
            },
            "batching": {
                "max_queue": self.max_queue,
                "max_pending": self.max_pending,
                **totals["batching"],
            },
            "answer_cache": (
                self.answer_cache.stats() if self.answer_cache else None
            ),
            "workers": self._workers_document(),
            "shards": self._shards,
        }

    async def _metrics_endpoint(self) -> _Response:
        await self._refresh()
        return _Response(
            200,
            self.metrics.render().encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    # -- estimation endpoints ----------------------------------------------------------

    def _budget_for(self, document: Mapping[str, Any]) -> tuple[float | None, int]:
        """``(budget seconds or None, status on expiry)`` for a document.

        A client-supplied ``budget_seconds`` expires as 408 (the client
        asked for the deadline); the server-wide ``default_budget``
        expires as 504.  A client budget is capped by the server's.
        """
        raw = document.get("budget_seconds")
        if raw is None:
            return self.default_budget, 504
        if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw <= 0:
            raise _BadRequest("'budget_seconds' must be a positive number")
        budget = float(raw)
        if self.default_budget is not None:
            budget = min(budget, self.default_budget)
        return budget, 408

    async def _with_budget(self, document: Mapping[str, Any], work):
        """Run ``work()`` under the document's deadline budget.

        Expiry cancels the awaited work — queued micro-batcher waiters
        are dropped before execution (see ``batching._pop_round``), so a
        timed-out request stops consuming capacity.
        """
        budget, status = self._budget_for(document)
        if budget is None:
            return await work()
        try:
            return await asyncio.wait_for(work(), budget)
        except asyncio.TimeoutError:
            self._m_rejected.labels("deadline").inc()
            raise _DeadlineExceeded(status, budget) from None

    async def _estimate(self, document: Mapping[str, Any]) -> dict:
        requests, mode = _estimate_requests(document)
        rows = await self._with_budget(
            document, lambda: self._run_rows(requests, mode)
        )
        return {"mode": mode, "count": len(rows), "results": rows}

    async def _answers(self, document: Mapping[str, Any]) -> dict:
        if "answer" in document:
            raise _BadRequest(
                "/answers enumerates all candidate tuples; "
                "use /estimate to score one answer"
            )
        requests, mode = _single_request(document, force_all_answers=True)
        rows = await self._with_budget(
            document, lambda: self._run_rows(requests, mode)
        )
        query = requests[0].query if requests else document.get("query")
        generator = requests[0].generator.name if requests else None
        return {
            "query": str(query),
            "generator": generator,
            "mode": mode,
            "answers": rows,
        }

    # -- execution ---------------------------------------------------------------------

    def _cache_key(self, request: BatchRequest, mode: str) -> tuple:
        """Everything that determines a served row, hashable."""
        return (
            self.registry.key_for(
                request.database, request.constraints, request.generator
            ),
            request.query,
            request.answer,
            request.epsilon,
            request.delta,
            request.method,
            request.max_samples,
            request.label,
            mode,
        )

    async def _run_rows(
        self, requests: list[BatchRequest], mode: str
    ) -> list[dict]:
        """Serve every request as a JSON row: answer cache, then the pool."""
        rows: list[dict | None] = [None] * len(requests)
        use_cache = self.answer_cache is not None and self.registry.seed is not None
        keys: list[tuple | None] = [None] * len(requests)
        pending: list[tuple[int, BatchRequest]] = []
        if use_cache:
            for position, request in enumerate(requests):
                keys[position] = self._cache_key(request, mode)
                cached = self.answer_cache.get(keys[position])
                if cached is not None:
                    rows[position] = cached
                else:
                    pending.append((position, request))
        else:
            pending = list(enumerate(requests))
        if pending:
            outcomes = await self._run([request for _, request in pending], mode)
            for (position, _), outcome in zip(pending, outcomes):
                row = batch_result_to_row(outcome)
                rows[position] = row
                if use_cache:
                    self.answer_cache.put(keys[position], row)
        self.requests_served += len(requests)
        return rows  # type: ignore[return-value]  # every slot is filled above

    async def _run(
        self, requests: list[BatchRequest], mode: str
    ) -> list[BatchResult]:
        """Fan one parsed request list out per group and reassemble.

        Each group goes to the pool as one submission, keyed by its
        registry key (the shard placement); coalescing happens inside
        the shard's micro-batcher.  Results come back in request order.
        """
        groups: dict[tuple, list[tuple[int, BatchRequest]]] = {}
        for position, request in enumerate(requests):
            groups.setdefault(request.group_key(), []).append((position, request))
        submissions = []
        for members in groups.values():
            first = members[0][1]
            submissions.append(
                self.pool.submit(
                    self.registry.key_for(
                        first.database, first.constraints, first.generator
                    ),
                    first.database,
                    first.constraints,
                    first.generator,
                    [request for _, request in members],
                    mode,
                )
            )
        chunks = await asyncio.gather(*submissions)
        results: list[BatchResult | None] = [None] * len(requests)
        for members, chunk in zip(groups.values(), chunks):
            for (position, _), outcome in zip(members, chunk):
                results[position] = outcome
        return results  # type: ignore[return-value]  # every slot is filled above


def serve(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT, **options) -> int:
    """Run the estimation service until interrupted (the CLI entry point).

    ``options`` (``seed``, ``cache_dir``, ``max_sessions``, ``max_queue``,
    ``max_pending``, ``max_inflight``, ``default_budget``,
    ``answer_cache_size``, ``workers``) go to :meth:`EstimationServer.build`;
    :func:`run_server` runs the result and returns ``0`` on clean shutdown.
    """
    return run_server(EstimationServer.build(host, port, **options))


def run_server(server: EstimationServer) -> int:
    """Serve a built server until SIGTERM or SIGINT; returns ``0``.

    Binds, prints the served URL to stderr, and blocks.  Both signals
    shut down gracefully (see :meth:`EstimationServer.stop`): queued
    batch waiters are drained (or failed with a clean 503 past the drain
    timeout) and warm sessions are spilled to the cache store before the
    loop closes — whatever pool the server runs on.
    """
    # A mixed IO/CPU process: under a request flood the event-loop
    # thread would otherwise keep the GIL for the default 5 ms switch
    # interval while an executor thread sits mid-batch — measured to
    # inflate a ~0.1 ms batch to ~3 ms wall and admitted tail latency
    # by 10x.  A finer interval trades a sliver of throughput for
    # bounded tails; process-wide, so set only in this entry point.
    sys.setswitchinterval(0.001)
    registry = server.registry
    cache_dir = None if registry.store is None else registry.store.directory

    async def _main() -> None:
        bound_host, bound_port = await server.start()
        # Graceful shutdown: both signals set the stop event, letting
        # stop() drain queued waiters instead of the loop tearing down
        # underneath them.  Installed before the URL is announced, so a
        # SIGTERM sent as soon as the URL appears still exits cleanly.
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        handled: list[int] = []
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_event.set)
                handled.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-posix loops fall back to KeyboardInterrupt
        print(
            f"repro estimation service on http://{bound_host}:{bound_port} "
            f"(seed={registry.seed}, cache_dir={cache_dir}, "
            f"max_sessions={registry.max_sessions}, "
            f"workers={server.pool.workers})",
            file=sys.stderr,
            flush=True,
        )
        try:
            await stop_event.wait()
            print("shutting down", file=sys.stderr, flush=True)
        except asyncio.CancelledError:
            pass
        finally:
            for signum in handled:
                loop.remove_signal_handler(signum)
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


class BackgroundServer:
    """An :class:`EstimationServer` on a daemon thread, for embedding.

    ``with BackgroundServer(seed=7) as server:`` yields a bound server
    (ephemeral port by default) whose :attr:`url` a
    :class:`~repro.service.client.ServiceClient` can hit from any
    thread; exiting stops the loop and spills warm sessions.
    ``server_options`` forwards the constructor knobs (``max_queue``,
    ``max_pending``, ``max_inflight``, ``default_budget``,
    ``answer_cache_size``, ``workers``) to the :attr:`server_type`.
    """

    #: The class the wrapped server is built from.
    server_type: type[EstimationServer] = EstimationServer

    def __init__(
        self,
        registry: SessionRegistry | None = None,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        server_options: Mapping[str, Any] | None = None,
        **registry_options,
    ):
        if registry is not None and registry_options:
            raise TypeError("pass a registry or registry options, not both")
        self.registry = (
            registry if registry is not None else SessionRegistry(**registry_options)
        )
        self.server = self.server_type(
            self.registry, host=host, port=port, **dict(server_options or {})
        )
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "EstimationServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self.server

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    def _run(self) -> None:
        async def _main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            # Captured, not swallowed: ``__enter__`` re-raises this on
            # the entering thread (see ``raise self._startup_error``).
            except BaseException as error:  # repro-lint: disable=RL003
                self._startup_error = error
                self._ready.set()
                return
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                await self.server.stop()

        asyncio.run(_main())
