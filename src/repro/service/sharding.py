"""The service plane's execution pools: every served group runs on a shard.

A :class:`Shard` is one :class:`~repro.service.registry.SessionRegistry`
plus its :class:`~repro.service.batching.MicroBatcher`.  The server talks
only to a *pool* of shards with one interface — ``workers``, ``start()``,
``submit(key, database, constraints, generator, requests, mode)``,
``stats()`` (one document per shard, folded by
:func:`aggregate_shard_stats`), ``retry_after_hint(depth)`` and
``stop(timeout, error)`` — so serving modes differ only in where the
shards live:

* :class:`LocalPool` — in-process serving: one shard, called directly
  (no pickling, no pipe, no thread hop).
* :class:`WorkerPool` — ``serve --workers N``: one warm worker process
  per shard (built from a picklable :class:`WorkerConfig`), each a frame
  loop around its own :class:`Shard`; dead workers are respawned,
  re-warmed from the shared cache store, and their in-flight frames
  transparently retried.  Groups are placed by :func:`shard_for_key`,
  a rendezvous (highest-random-weight) hash of the registry key:
  growing ``n → n + 1`` workers remaps only the keys that land on the
  *new* shard, and removing a shard remaps only that shard's keys, so
  warm sessions survive resizes.

Content-derived group seeds (:func:`~repro.engine.batch.group_seed_for`
over :func:`~repro.engine.store.instance_cache_key`) make *placement
irrelevant to results* — any shard, in any process, that evaluates a
group produces the same seeded sample stream.

**Protocol.**  Frames are pickled ``(request_id, kind, payload)`` tuples
over ``multiprocessing.Pipe`` connections — ``send_bytes`` writes a
length-prefixed packet, so framing is inherent.  Router→worker kinds:
``estimate`` (one instance group per frame), ``warm`` (admit a group
without scoring), ``stats``, ``shutdown``.  Worker→router statuses:
``result``, ``queue_full`` (re-raised as
:class:`~repro.service.batching.QueueFull` router-side so 429/Retry-After
semantics are shard-transparent), ``error``, ``stats``, ``ok``.

Workers always spawn (see :class:`WorkerPool`).
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import multiprocessing
import os
import pickle
import signal
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from .batching import MicroBatcher, QueueFull, retry_after_hint
from .registry import DEFAULT_MAX_SESSIONS, SessionRegistry

__all__ = [
    "LocalPool",
    "Shard",
    "WorkerConfig",
    "WorkerPool",
    "aggregate_shard_stats",
    "shard_for_key",
]

#: Monotone registry counters: summed across shards, and carried over a
#: worker respawn so plane-wide totals never decrease.  The per-``"op:kind"``
#: store-error counts (``registry.storage.errors``) travel with them, under
#: ``storage_errors`` (see :func:`_counters_of`).
_REGISTRY_COUNTER_KEYS = ("hits", "misses", "evictions", "store_errors")
#: Batcher stat keys summed across shards.
_BATCHING_SUM_KEYS = (
    "batches_run",
    "coalesced_batches",
    "pending_requests",
    "rejected",
    "cancelled_waiters",
)
#: Batcher stat keys folded with ``max`` (a width or a smoothed batch
#: duration is not additive).
_BATCHING_MAX_KEYS = ("widest_batch", "batch_seconds_ewma")

#: In-flight frames are retried at most this many times across respawns
#: before failing the caller (a worker that dies twice on the same frame
#: is likely being killed *by* it).
_MAX_RETRIES = 2


def shard_for_key(key: str, shards: int) -> int:
    """Rendezvous-hash a registry key to a shard in ``range(shards)``.

    Each ``(key, shard)`` pair gets an independent SHA-256 weight and
    the key goes to the argmax — the classic highest-random-weight
    scheme.  Placement is a pure function of the key and the shard
    *count*, and resizing moves only the minimal set of keys (see the
    module docstring); both properties are pinned by hypothesis tests.
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    if shards == 1:
        return 0
    encoded = key.encode("utf-8")
    best_shard = 0
    best_weight = b""
    for shard in range(shards):
        weight = hashlib.sha256(encoded + b"|" + str(shard).encode()).digest()
        if weight > best_weight:
            best_weight = weight
            best_shard = shard
    return best_shard


def _zero_counters() -> dict:
    return {**dict.fromkeys(_REGISTRY_COUNTER_KEYS, 0), "storage_errors": {}}


def _counters_of(registry: Mapping) -> dict:
    """A registry stat document's monotone counters, in carry form."""
    counters = {key: registry.get(key, 0) for key in _REGISTRY_COUNTER_KEYS}
    counters["storage_errors"] = dict(
        (registry.get("storage") or {}).get("errors") or {}
    )
    return counters


def _add_counters(total: dict, counters: Mapping) -> None:
    """Add carry-form ``counters`` into ``total`` (missing keys count 0)."""
    for key in _REGISTRY_COUNTER_KEYS:
        total[key] += counters.get(key, 0)
    errors = total["storage_errors"]
    for kind, count in (counters.get("storage_errors") or {}).items():
        errors[kind] = errors.get(kind, 0) + count


def aggregate_shard_stats(per_shard: Iterable[Mapping | None]) -> dict:
    """Fold per-shard stat documents into plane-wide totals.

    ``registry``/``batching`` counters are summed (plus each entry's
    ``carried`` counts, see :meth:`WorkerPool.stats`, so a restarting
    pool's totals never decrease), ``widest_batch`` and
    ``batch_seconds_ewma`` take the ``max``, ``degraded`` is or-ed and
    ``groups`` concatenated.  ``storage_errors`` sums each shard's
    ``registry.storage.errors`` (``"op:kind"`` → count) the same way.
    Shards that failed to report (``None`` entries, or no ``registry``
    section — e.g. mid-respawn) count in ``unreported``.  Pure, so the
    contract (sum over shards == totals) is unit-testable without
    processes.
    """
    registry_totals = {"sessions": 0, **_zero_counters()}
    batching_totals = dict.fromkeys(_BATCHING_SUM_KEYS + _BATCHING_MAX_KEYS, 0)
    degraded = False
    groups: list = []
    reported = 0
    unreported = 0
    for entry in per_shard:
        _add_counters(registry_totals, (entry or {}).get("carried") or {})
        if not entry or not entry.get("registry"):
            unreported += 1
            continue
        reported += 1
        registry = entry["registry"]
        batching = entry.get("batching") or {}
        registry_totals["sessions"] += registry.get("sessions", 0)
        _add_counters(registry_totals, _counters_of(registry))
        degraded = degraded or bool(registry.get("degraded"))
        groups.extend(registry.get("groups") or [])
        for key in _BATCHING_SUM_KEYS:
            batching_totals[key] += batching.get(key, 0)
        for key in _BATCHING_MAX_KEYS:
            batching_totals[key] = max(batching_totals[key], batching.get(key, 0))
    storage_errors = registry_totals.pop("storage_errors")
    return {
        "shards": reported,
        "unreported": unreported,
        "registry": registry_totals,
        "storage_errors": storage_errors,
        "batching": batching_totals,
        "degraded": degraded,
        "groups": groups,
    }


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to build its :class:`Shard`.

    Plain picklable fields only — the config crosses the spawn boundary.
    """

    seed: int | None = None
    cache_dir: str | None = None
    max_sessions: int = DEFAULT_MAX_SESSIONS
    max_queue: int | None = None
    max_pending: int | None = None


class WorkerDied(RuntimeError):
    """An estimate could not be completed: its worker kept dying."""


# --------------------------------------------------------------------------------------
# The shard and the in-process pool
# --------------------------------------------------------------------------------------


class Shard:
    """One :class:`SessionRegistry` and the :class:`MicroBatcher` over it
    (``max_queue``, ``max_pending`` and ``on_batch`` configure the
    batcher): the unit every served group runs on."""

    def __init__(
        self,
        registry: SessionRegistry,
        *,
        max_queue: int | None = None,
        max_pending: int | None = None,
        on_batch: Callable[[str, float, int], None] | None = None,
    ):
        self.registry = registry
        self.batcher = MicroBatcher(
            registry, max_queue=max_queue, max_pending=max_pending, on_batch=on_batch
        )

    async def estimate(self, database, constraints, generator, requests, mode):
        """Score one group's requests through the micro-batcher
        (:class:`~repro.service.batching.QueueFull` past its bounds)."""
        return await self.batcher.submit(
            database, constraints, generator, requests, mode
        )

    async def warm(self, database, constraints, generator) -> None:
        """Admit a group without scoring (warm-starting it from the store)."""
        await asyncio.get_running_loop().run_in_executor(
            None, self.registry.handle, database, constraints, generator
        )

    def stats(self) -> dict:
        """``{"registry": ..., "batching": ...}`` — JSON-native counters."""
        return {"registry": self.registry.stats(), "batching": self.batcher.stats()}

    async def close(
        self, timeout: float | None = None, error: BaseException | None = None
    ) -> None:
        """Drain queued batch rounds — failing what outlives ``timeout``
        with ``error``, never dropping it — then spill every warm session
        (off the event loop: spilling walks session locks)."""
        try:
            await asyncio.wait_for(self.batcher.drain(), timeout)
        except asyncio.TimeoutError:
            pass
        if error is not None:
            self.batcher.fail_pending(error)
        await asyncio.get_running_loop().run_in_executor(None, self.registry.close)


class LocalPool:
    """In-process serving: a one-shard pool calling its shard directly."""

    workers = 1

    def __init__(self, shard: Shard):
        self.shard = shard

    async def start(self) -> None:
        """Nothing to spawn: the shard lives in this process."""

    async def submit(self, key, database, constraints, generator, requests, mode):
        """Run one group on the shard (``key`` only matters for routing)."""
        return await self.shard.estimate(
            database, constraints, generator, requests, mode
        )

    async def stats(self) -> list[dict]:
        """The shard's stat document, in :meth:`WorkerPool.stats` shape."""
        document = {"shard": 0, "pid": os.getpid(), **self.shard.stats()}
        return [{**document, "alive": True, "restarts": 0}]

    def retry_after_hint(self, depth: int) -> int:
        """The shard batcher's ``Retry-After`` estimate for ``depth``."""
        return self.shard.batcher.retry_after_hint(depth)

    async def stop(self, timeout: float = 10.0, error: BaseException | None = None):
        """Drain and close the shard (see :meth:`Shard.close`)."""
        await self.shard.close(timeout, error)


# --------------------------------------------------------------------------------------
# Worker side (runs in the spawned child process)
# --------------------------------------------------------------------------------------


def _worker_main(shard: int, conn, config: WorkerConfig) -> None:
    """Child-process entry point: serve frames until shutdown/SIGTERM.

    The worker ignores SIGINT (the router's terminal Ctrl-C reaches the
    whole process group; shutdown is the router's call) and treats
    SIGTERM as a graceful-drain request: in-flight batches complete and
    the registry spills before exit.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        asyncio.run(_worker_loop(shard, conn, config))
    except (KeyboardInterrupt, BrokenPipeError):  # pragma: no cover - exit races
        pass


async def _worker_loop(index: int, conn, config: WorkerConfig) -> None:
    """The frame loop around one :class:`Shard`."""
    loop = asyncio.get_running_loop()
    registry = SessionRegistry(
        seed=config.seed,
        cache_dir=config.cache_dir,
        max_sessions=config.max_sessions,
    )
    shard = Shard(registry, max_queue=config.max_queue, max_pending=config.max_pending)
    frames: asyncio.Queue = asyncio.Queue()
    send_lock = threading.Lock()

    def send(frame) -> None:
        blob = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        with send_lock:
            conn.send_bytes(blob)

    def read_frames() -> None:
        # Blocking pipe reads stay off the loop; EOF (router gone) and a
        # local shutdown sentinel both funnel through the same queue.
        while True:
            try:
                blob = conn.recv_bytes()
            except (EOFError, OSError):
                loop.call_soon_threadsafe(frames.put_nowait, None)
                return
            loop.call_soon_threadsafe(frames.put_nowait, blob)

    threading.Thread(
        target=read_frames, name=f"repro-shard-{index}-reader", daemon=True
    ).start()
    try:
        loop.add_signal_handler(
            signal.SIGTERM, lambda: frames.put_nowait(_SHUTDOWN_SENTINEL)
        )
    except (NotImplementedError, RuntimeError):  # pragma: no cover - non-posix
        pass

    tasks: set[asyncio.Task] = set()

    async def handle(blob: bytes) -> None:
        request_id, kind, payload = pickle.loads(blob)
        try:
            if kind == "estimate":
                reply = (request_id, "result", await shard.estimate(*payload))
            elif kind == "warm":
                await shard.warm(*payload)
                reply = (request_id, "ok", None)
            elif kind == "stats":
                document = {"shard": index, "pid": os.getpid(), **shard.stats()}
                reply = (request_id, "stats", document)
            elif kind == "shutdown":
                frames.put_nowait(_SHUTDOWN_SENTINEL)
                reply = (request_id, "ok", None)
            else:
                reply = (request_id, "error", f"unknown frame kind {kind!r}")
        except QueueFull as error:
            reply = (
                request_id,
                "queue_full",
                (error.scope, error.depth, error.limit, error.retry_after),
            )
        except BaseException as error:  # noqa: BLE001 - must cross the pipe
            reply = (request_id, "error", f"{type(error).__name__}: {error}")
        try:
            await loop.run_in_executor(None, send, reply)
        except (OSError, ValueError):  # pragma: no cover - router went away
            pass

    while True:
        blob = await frames.get()
        if blob is None or blob is _SHUTDOWN_SENTINEL:
            break
        task = asyncio.create_task(handle(blob))
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    # Graceful drain: finish accepted frames, then queued batch rounds,
    # then spill warm sessions on the way out.
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)
    await shard.close()
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


#: Queue sentinel distinguishing "drain and exit" from reader EOF.
_SHUTDOWN_SENTINEL = object()


# --------------------------------------------------------------------------------------
# Router side
# --------------------------------------------------------------------------------------


@dataclass(eq=False)
class _Worker:
    """Router-side state for one worker process (one generation)."""

    shard: int
    process: multiprocessing.Process
    conn: Any
    reader: threading.Thread | None = None
    # request_id -> (future, kind, payload, retries); loop-confined.
    inflight: dict[int, tuple] = field(default_factory=dict)
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    dead: bool = False


class WorkerPool:
    """The router's pool of warm worker processes, one :class:`Shard` each.

    All mutable state is confined to the asyncio event loop; reader
    threads (one per worker, blocking on the pipe) hand frames back via
    ``call_soon_threadsafe`` and sends run in the loop's default
    executor, so the loop never blocks on a pipe.

    Fault handling: a worker whose pipe hits EOF is respawned with the
    same shard id.  Its in-flight frames are retried on the replacement
    up to ``_MAX_RETRIES`` times — estimates are deterministic and
    idempotent (every request reads its group pool from position zero),
    so a mid-storm ``SIGKILL`` is invisible in served rows — and the
    keys recently routed to that shard are re-warmed from the cache
    store via fire-and-forget ``warm`` frames, so a killed worker comes
    back hot instead of cold.
    """

    def __init__(
        self,
        config: WorkerConfig,
        workers: int,
        *,
        warm_keys: int = 256,
        on_restart: Callable[[int], None] | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        self.config = config
        self.workers = workers
        self._on_restart = on_restart
        self._loop: asyncio.AbstractEventLoop | None = None
        # Never fork, not even when ``REPRO_UOCQA_START_METHOD`` asks for
        # it (that setting is the offline ``batch_estimate`` fan-out's):
        # shards start concurrently from executor threads, so a forked
        # sibling inherits every already-created shard pipe — and a held
        # write end means a SIGKILLed worker never EOFs its reader, so
        # the router never notices the death (no respawn).  Spawned
        # children fork+exec with explicit fd passing, which cannot
        # cross-inherit.
        self._context = multiprocessing.get_context("spawn")
        self._workers: list[_Worker] = []
        self._ids = itertools.count(1)
        self._stopping = False
        #: Monotone per-shard respawn counters (rendered as a counter
        #: metric — the router owns them, so restarts never reset them).
        self.restarts = [0] * workers
        # Per shard: the live worker's last reported registry counters,
        # and the sum of its dead predecessors' (see stats()).
        self._reported = [_zero_counters() for _ in range(workers)]
        self._carried = [_zero_counters() for _ in range(workers)]
        # key -> (database, constraints, generator): the bounded LRU of
        # recently routed groups used to re-warm a respawned shard.
        self._warm: OrderedDict[str, tuple] = OrderedDict()
        self._warm_limit = warm_keys
        self._revivals: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn every worker (concurrently — spawn imports are slow)."""
        self._loop = asyncio.get_running_loop()
        self._workers = list(
            await asyncio.gather(
                *(
                    self._loop.run_in_executor(None, self._spawn, shard)
                    for shard in range(self.workers)
                )
            )
        )

    def _spawn(self, shard: int) -> _Worker:
        """Blocking: fork/spawn one worker and wire its reader thread."""
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(shard, child_conn, self.config),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(shard, process, parent_conn)
        worker.reader = threading.Thread(
            target=self._read_loop,
            args=(worker,),
            name=f"repro-router-read-{shard}",
            daemon=True,
        )
        worker.reader.start()
        return worker

    async def stop(
        self, timeout: float = 10.0, error: BaseException | None = None
    ) -> None:
        """Drain and terminate every worker (graceful, then forceful).

        Frames still unanswered once the workers are gone fail with
        ``error`` (default :class:`WorkerDied`).
        """
        if self._loop is None:
            return
        self._stopping = True
        goodbyes = []
        for worker in self._workers:
            future = self._loop.create_future()
            self._dispatch(worker.shard, future, "shutdown", None)
            goodbyes.append(future)
        if goodbyes:
            done, pending = await asyncio.wait(goodbyes, timeout=timeout)
            for future in pending:
                future.cancel()
            for future in done:
                future.exception()  # consume, ignore
        for worker in self._workers:
            await self._loop.run_in_executor(None, self._reap, worker, timeout)
        for worker in self._workers:
            for future, *_ in list(worker.inflight.values()):
                if not future.done():
                    future.set_exception(error or WorkerDied("worker pool stopped"))
            worker.inflight.clear()

    @staticmethod
    def _reap(worker: _Worker, timeout: float) -> None:
        worker.process.join(timeout)
        if worker.process.is_alive():  # pragma: no cover - drain overrun
            worker.process.terminate()
            worker.process.join(1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(1.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def kill(self, shard: int) -> int:
        """SIGKILL ``shard``'s worker (fault injection); returns its pid.

        The reader thread notices the EOF and the normal respawn/retry
        path takes over — this is exactly the fault the loadtest's
        per-worker kill beat injects.
        """
        if not 0 <= shard < self.workers:
            raise ValueError(f"shard must be in [0, {self.workers})")
        process = self._workers[shard].process
        pid = process.pid
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):  # pragma: no cover
                pass
        return pid or -1

    # -- request path ------------------------------------------------------------------

    async def submit(
        self,
        key: str,
        database,
        constraints,
        generator,
        requests: Sequence,
        mode: str,
    ):
        """Route one instance group's requests to its shard and await rows.

        Raises :class:`~repro.service.batching.QueueFull` when the
        shard's batcher refuses admission (the server's 429 path works
        unchanged) and :class:`WorkerDied` when the shard keeps dying.
        """
        shard = shard_for_key(key, self.workers)
        self._remember(key, (database, constraints, generator))
        status, payload = await self._request(
            shard, "estimate", (database, constraints, generator, list(requests), mode)
        )
        return payload

    def retry_after_hint(self, depth: int) -> int:
        """A ``Retry-After`` estimate for ``depth`` requests ahead (batch
        timings live in the workers: the no-history default)."""
        return retry_after_hint(depth)

    async def stats(self, timeout: float = 5.0) -> list[dict]:
        """One stat document per shard: ``shard``, ``pid``, ``alive``,
        ``restarts``, the shard's ``registry``/``batching`` sections
        (``None`` when it missed ``timeout`` or its worker has since died)
        and ``carried`` — the registry counters and store-error counts its
        dead worker generations reported (plus, while unreported, the live
        one's last report), which :func:`aggregate_shard_stats` adds to the
        totals.
        """

        async def one(shard: int) -> dict:
            try:
                status, payload = await asyncio.wait_for(
                    self._request(shard, "stats", None), timeout
                )
                document = dict(payload)
            except (asyncio.TimeoutError, WorkerDied, QueueFull):
                document = {}
            worker = self._workers[shard]
            alive = not worker.dead and worker.process.is_alive()
            carried = _zero_counters()
            _add_counters(carried, self._carried[shard])
            if document.get("pid") == worker.process.pid and not worker.dead:
                self._reported[shard] = _counters_of(document["registry"])
            else:
                document = {"shard": shard, "registry": None, "batching": None}
                _add_counters(carried, self._reported[shard])
            document.update(
                alive=alive, restarts=self.restarts[shard], carried=carried
            )
            return document

        return list(await asyncio.gather(*(one(s) for s in range(self.workers))))

    async def _request(self, shard: int, kind: str, payload):
        assert self._loop is not None, "WorkerPool.start() was never awaited"
        future = self._loop.create_future()
        self._dispatch(shard, future, kind, payload)
        status, result = await future
        return status, result

    def _dispatch(
        self, shard: int, future: asyncio.Future, kind: str, payload, retries: int = 0
    ) -> None:
        """Loop-side: register the frame in-flight and post it.

        Frames dispatched to a shard mid-respawn park in the dead
        worker's ``inflight`` map; the revival migrates them to the
        replacement, so callers never observe the gap.
        """
        worker = self._workers[shard]
        request_id = next(self._ids)
        worker.inflight[request_id] = (future, kind, payload, retries)
        if not worker.dead:
            self._post(worker, request_id, kind, payload)

    def _post(self, worker: _Worker, request_id: int, kind: str, payload) -> None:
        blob = pickle.dumps(
            (request_id, kind, payload), protocol=pickle.HIGHEST_PROTOCOL
        )

        def write() -> None:
            try:
                with worker.send_lock:
                    worker.conn.send_bytes(blob)
            except (OSError, ValueError, BrokenPipeError):
                # The reader thread sees the same death and triggers the
                # respawn path, which retries this frame.
                pass

        self._loop.run_in_executor(None, write)

    def _read_loop(self, worker: _Worker) -> None:
        while True:
            try:
                blob = worker.conn.recv_bytes()
            except (EOFError, OSError):
                self._loop.call_soon_threadsafe(self._worker_died, worker)
                return
            self._loop.call_soon_threadsafe(self._deliver, worker, blob)

    def _deliver(self, worker: _Worker, blob: bytes) -> None:
        request_id, status, payload = pickle.loads(blob)
        entry = worker.inflight.pop(request_id, None)
        if entry is None:
            return
        future, _kind, _payload, _retries = entry
        if future.done():
            return
        if status == "queue_full":
            scope, depth, limit, retry_after = payload
            future.set_exception(QueueFull(scope, depth, limit, retry_after))
        elif status == "error":
            future.set_exception(
                RuntimeError(f"shard {worker.shard}: {payload}")
            )
        else:
            future.set_result((status, payload))

    # -- death and rebirth -------------------------------------------------------------

    def _worker_died(self, worker: _Worker) -> None:
        if worker.dead or self._stopping:
            return
        if self._workers[worker.shard] is not worker:
            return  # a stale generation's reader winding down
        worker.dead = True
        self.restarts[worker.shard] += 1
        # The dead generation's last reported counters become carried;
        # the replacement reports from zero.
        _add_counters(self._carried[worker.shard], self._reported[worker.shard])
        self._reported[worker.shard] = _zero_counters()
        if self._on_restart is not None:
            self._on_restart(worker.shard)
        task = asyncio.ensure_future(self._revive(worker))
        self._revivals.add(task)
        task.add_done_callback(self._revivals.discard)

    async def _revive(self, worker: _Worker) -> None:
        shard = worker.shard
        await self._loop.run_in_executor(None, worker.process.join, 1.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        replacement = await self._loop.run_in_executor(None, self._spawn, shard)
        if self._stopping:
            return
        # From here to the end of the method is one synchronous block on
        # the loop: dispatches cannot interleave, so no frame can slip
        # into the dead worker's map after migration.
        self._workers[shard] = replacement
        # Re-warm the shard's recently routed groups from the store
        # (fire-and-forget: a warm failure just means a cold first hit).
        for key, group in list(self._warm.items()):
            if shard_for_key(key, self.workers) == shard:
                request_id = next(self._ids)
                self._post(replacement, request_id, "warm", group)
        # Transparently retry what the dead worker was holding.
        pending = worker.inflight
        worker.inflight = {}
        for future, kind, payload, retries in pending.values():
            if future.done():
                continue
            if retries >= _MAX_RETRIES:
                future.set_exception(
                    WorkerDied(
                        f"shard {shard} died {retries + 1} times executing one frame"
                    )
                )
            else:
                self._dispatch(shard, future, kind, payload, retries + 1)

    def _remember(self, key: str, group: tuple) -> None:
        self._warm[key] = group
        self._warm.move_to_end(key)
        while len(self._warm) > self._warm_limit:
            self._warm.popitem(last=False)
