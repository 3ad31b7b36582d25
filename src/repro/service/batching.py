"""Micro-batching: coalesce concurrent same-group requests into one pass.

The engine's economics reward width: one
:func:`~repro.engine.batch.run_group` pass over ``k`` requests costs one
pool extension (whole vector batches) plus ``k`` cheap batched
hit-counting reductions, whereas ``k`` sequential passes serialize on
the session lock and re-enter the evaluation machinery ``k`` times.
:class:`MicroBatcher` turns concurrency into width: requests arriving
for a group *while a batch for that group is already being scored* pile
into a pending list, and the next drain round executes all of them as a
single coalesced pass.

Coalescing is free, correctness-wise: every request evaluates the group
pool from position zero, so results are independent of how requests are
partitioned into batches (the bit-identity contract of
:func:`~repro.engine.batch.run_group`).  Fixed-mode and adaptive-mode
waiters sharing a drain round are executed as one pass per mode over
the same pool.

**Admission control.**  Pending work is bounded: ``max_queue`` caps the
requests queued per group and ``max_pending`` caps the total across
groups.  A :meth:`submit` that would exceed either bound raises
:class:`QueueFull` *immediately* — before any state is enqueued — with
a ``retry_after`` hint derived from the smoothed batch execution time
and the queue depth ahead of the rejected request.  The server turns
that into ``429`` + ``Retry-After``; under saturation the queues stay
bounded and admitted requests keep bounded latency instead of the whole
service collapsing into one unbounded backlog.

**Cancellation.**  A waiter whose future is cancelled while queued (a
request deadline expired) is dropped at drain time without being
executed — its share of the coalesced pass is never paid.  Work already
*running* in the executor cannot be interrupted, but its results are
simply discarded for cancelled waiters (``future.done()`` guards every
resolution).

Threading model: all queue state lives on the asyncio event loop (no
locks); only the compute — :meth:`SessionHandle.run
<repro.service.registry.SessionHandle.run>` under the per-session lock —
runs in the executor.  At most one drain task exists per group key, so
the session lock is uncontended in the server path and the event loop
stays free to accept (and thereby coalesce) more requests.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Callable, Sequence

from ..chains.generators import MarkovChainGenerator
from ..core.database import Database
from ..core.dependencies import FDSet
from ..engine.batch import BatchRequest, BatchResult
from .registry import SessionRegistry

#: The two per-request execution modes a waiter may ask for.
MODES = ("fixed", "adaptive")

#: Smoothing factor for the exponentially weighted batch-duration
#: estimate behind ``Retry-After`` hints.
_EWMA_ALPHA = 0.3


def retry_after_hint(depth: int, batch_seconds: float = 0.0, widest: int = 0) -> int:
    """Whole seconds (>= 1) until ``depth`` queued requests likely drain,
    given the smoothed batch duration (0 = unknown) and widest batch."""
    # Depth drains in coalesced passes; assume modest width so the hint
    # errs conservative rather than thundering-herd optimistic.
    return max(1, math.ceil((batch_seconds or 0.1) * (1 + depth / max(1, widest))))


class QueueFull(RuntimeError):
    """Admission refused: a micro-batcher queue bound would be exceeded.

    ``retry_after`` is the batcher's estimate (whole seconds, >= 1) of
    when retrying is likely to be admitted, sized from the smoothed
    batch duration and the depth of the queue that rejected the request.
    """

    def __init__(self, scope: str, depth: int, limit: int, retry_after: int):
        self.scope = scope
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after
        super().__init__(
            f"{scope} queue full ({depth} pending requests, limit {limit}); "
            f"retry in ~{retry_after}s"
        )


class _Waiter:
    """One submitted request bundle awaiting its coalesced batch."""

    __slots__ = ("database", "constraints", "generator", "requests", "mode", "future")

    def __init__(self, database, constraints, generator, requests, mode, future):
        self.database = database
        self.constraints = constraints
        self.generator = generator
        self.requests = requests
        self.mode = mode
        self.future = future


class MicroBatcher:
    """Coalesces concurrent :meth:`submit` calls per instance group.

    Construct one per shard over its :class:`SessionRegistry`; batches
    run on the event loop's default thread pool.  ``max_queue`` /
    ``max_pending`` bound the queued *requests* per group / in total
    (``None`` = unbounded, the pre-hardening behavior);
    ``on_batch(key, seconds, width)`` is an optional observation hook
    the server uses for latency/width histograms.
    """

    def __init__(
        self,
        registry: SessionRegistry,
        *,
        max_queue: int | None = None,
        max_pending: int | None = None,
        on_batch: Callable[[str, float, int], None] | None = None,
    ):
        if max_queue is not None and max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if max_pending is not None and max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self.registry = registry
        self.max_queue = max_queue
        self.max_pending = max_pending
        self._on_batch = on_batch
        self._pending: dict[str, list[_Waiter]] = {}
        self._pending_sizes: dict[str, int] = {}
        self._pending_total = 0
        self._draining: set[str] = set()
        self._drain_tasks: set[asyncio.Task] = set()
        self._batch_seconds_ewma = 0.0
        self.batches_run = 0
        self.coalesced_batches = 0
        self.widest_batch = 0
        self.rejected = 0
        self.cancelled_waiters = 0

    # -- admission ---------------------------------------------------------------------

    def retry_after_hint(self, depth: int) -> int:
        """Whole seconds (>= 1) until ``depth`` queued requests likely drain."""
        return retry_after_hint(depth, self._batch_seconds_ewma, self.widest_batch)

    def _admit(self, key: str, size: int) -> None:
        depth = self._pending_sizes.get(key, 0)
        if self.max_queue is not None and depth + size > self.max_queue:
            self.rejected += size
            raise QueueFull("group", depth, self.max_queue, self.retry_after_hint(depth))
        if (
            self.max_pending is not None
            and self._pending_total + size > self.max_pending
        ):
            self.rejected += size
            raise QueueFull(
                "server",
                self._pending_total,
                self.max_pending,
                self.retry_after_hint(self._pending_total),
            )

    async def submit(
        self,
        database: Database,
        constraints: FDSet,
        generator: MarkovChainGenerator,
        requests: Sequence[BatchRequest],
        mode: str = "fixed",
    ) -> list[BatchResult]:
        """Score ``requests`` (one group) and return results in order.

        Out-of-scope groups resolve to per-request error rows, exactly
        like ``batch_estimate``; malformed calls (unknown mode) and
        genuine internal failures raise, and a full queue raises
        :class:`QueueFull` before enqueueing anything.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r} (use 'fixed' or 'adaptive')")
        loop = asyncio.get_running_loop()
        key = self.registry.key_for(database, constraints, generator)
        size = len(requests)
        self._admit(key, size)
        waiter = _Waiter(
            database, constraints, generator, list(requests), mode, loop.create_future()
        )
        self._pending.setdefault(key, []).append(waiter)
        self._pending_sizes[key] = self._pending_sizes.get(key, 0) + size
        self._pending_total += size
        if key not in self._draining:
            self._draining.add(key)
            task = loop.create_task(self._drain(key))
            # Keep a strong reference: the loop only holds weak ones.
            self._drain_tasks.add(task)
            task.add_done_callback(self._drain_tasks.discard)
        return await waiter.future

    # -- draining ----------------------------------------------------------------------

    def _pop_round(self, key: str) -> list[_Waiter]:
        """Dequeue every pending waiter for ``key``, dropping cancelled ones."""
        waiters = self._pending.pop(key, [])
        self._pending_total -= self._pending_sizes.pop(key, 0)
        live = []
        for waiter in waiters:
            if waiter.future.cancelled():
                self.cancelled_waiters += 1
            else:
                live.append(waiter)
        return live

    async def _drain(self, key: str) -> None:
        """Serve ``key``'s pending waiters in coalesced rounds until empty."""
        loop = asyncio.get_running_loop()
        try:
            while self._pending.get(key):
                waiters = self._pop_round(key)
                if not waiters:
                    continue
                started = time.perf_counter()
                try:
                    outputs = await loop.run_in_executor(None, self._run_batch, waiters)
                except Exception as error:
                    # One poisoned batch fails only its own waiters; the
                    # drain loop survives to serve the next round.
                    for waiter in waiters:
                        if not waiter.future.done():
                            waiter.future.set_exception(error)
                    continue
                elapsed = time.perf_counter() - started
                self._batch_seconds_ewma = (
                    elapsed
                    if self._batch_seconds_ewma == 0.0
                    else (1 - _EWMA_ALPHA) * self._batch_seconds_ewma
                    + _EWMA_ALPHA * elapsed
                )
                self.batches_run += 1
                self.widest_batch = max(self.widest_batch, len(waiters))
                if len(waiters) > 1:
                    self.coalesced_batches += 1
                if self._on_batch is not None:
                    self._on_batch(key, elapsed, sum(len(w.requests) for w in waiters))
                for waiter, rows in zip(waiters, outputs):
                    if not waiter.future.done():
                        waiter.future.set_result(rows)
        finally:
            self._draining.discard(key)

    def _run_batch(self, waiters: list[_Waiter]) -> list[list[BatchResult]]:
        """Executor-side: one coalesced :meth:`SessionHandle.run` per mode.

        All waiters share one registry key, so the handle resolves once;
        their request lists are flattened into a single pass per mode and
        the results split back per waiter.  Waiters cancelled between
        dequeue and execution are skipped (their slots stay ``None`` —
        the drain loop never resolves a done future).
        """
        from ..approx.fpras import FPRASUnavailable

        first = waiters[0]
        try:
            handle = self.registry.handle(
                first.database, first.constraints, first.generator
            )
        except (FPRASUnavailable, ValueError) as error:
            message = str(error)
            return [
                [BatchResult(request, error=message) for request in waiter.requests]
                for waiter in waiters
            ]
        outputs: list[list[BatchResult] | None] = [None] * len(waiters)
        for mode in MODES:
            flat: list[BatchRequest] = []
            spans: list[tuple[int, int, int]] = []
            for position, waiter in enumerate(waiters):
                if waiter.mode != mode or waiter.future.cancelled():
                    continue
                spans.append((position, len(flat), len(flat) + len(waiter.requests)))
                flat.extend(waiter.requests)
            if not flat:
                continue
            results = handle.run(flat, mode)
            for position, start, stop in spans:
                outputs[position] = results[start:stop]
        return outputs  # type: ignore[return-value]  # every live waiter has a mode

    # -- shutdown ----------------------------------------------------------------------

    async def drain(self) -> None:
        """Wait until every queued waiter has been served.

        The graceful-shutdown half of the batcher: awaits the live drain
        tasks (which keep spawning rounds while work is pending) until no
        pending requests and no running drains remain.  New submissions
        arriving *during* the wait are drained too — callers that want a
        hard stop should fence admissions first and use
        :meth:`fail_pending` for whatever outlives their timeout.
        """
        while self._drain_tasks or self._pending_total:
            tasks = list(self._drain_tasks)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            else:  # pending but no drain task yet: let it get scheduled
                await asyncio.sleep(0)

    def fail_pending(self, error: BaseException) -> int:
        """Fail every still-queued waiter with ``error``; returns how many.

        The forceful-shutdown half: dequeues everything (so drain rounds
        find nothing) and resolves the waiters' futures exceptionally —
        the server maps the error to a clean ``503`` instead of the
        pre-fix behavior of silently dropping queued work when the loop
        closed underneath it.
        """
        failed = 0
        for key in list(self._pending):
            for waiter in self._pop_round(key):
                if not waiter.future.done():
                    waiter.future.set_exception(error)
                    failed += 1
        return failed

    def stats(self) -> dict:
        """Coalescing, queue and rejection counters, JSON-native."""
        return {
            "batches_run": self.batches_run,
            "coalesced_batches": self.coalesced_batches,
            "widest_batch": self.widest_batch,
            "pending_requests": self._pending_total,
            "max_queue": self.max_queue,
            "max_pending": self.max_pending,
            "rejected": self.rejected,
            "cancelled_waiters": self.cancelled_waiters,
            "batch_seconds_ewma": round(self._batch_seconds_ewma, 6),
        }
