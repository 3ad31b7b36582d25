"""The sharded multi-process service plane (PR 8).

The promises under test, in rough dependency order:

* :func:`~repro.service.sharding.shard_for_key` is a *rendezvous* hash:
  deterministic, uniform enough, and stable — growing the pool from
  ``n`` to ``n + 1`` shards only ever remaps keys onto the new shard.
* :func:`~repro.service.sharding.aggregate_shard_stats` sums per-shard
  registry/batching sections exactly (what ``/stats`` and ``/metrics``
  serve in sharded mode).
* Store-error counts (``"op:kind"``) fold across shards, survive a
  worker respawn, and render as ``repro_store_errors_total{op,kind}``.
* Sharded workers always spawn, whatever ``REPRO_UOCQA_START_METHOD`` says.
* The micro-batcher drains on shutdown: queued work is either served
  normally or failed with the shutdown error — never silently dropped —
  and a SIGTERM'd ``serve`` subprocess exits cleanly (code 0).
* Served rows are **bit-identical** to offline ``batch_estimate`` at
  any worker count, and across a SIGKILL + respawn of a shard worker.
"""

import asyncio
import json
import signal
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.generators import M_UR, M_US
from repro.engine import batch_estimate
from repro.service import (
    BackgroundServer,
    MicroBatcher,
    ServiceClient,
    ServiceClientError,
    SessionRegistry,
    WorkerConfig,
    WorkerPool,
    aggregate_shard_stats,
    shard_for_key,
)
from repro.service.faults import FaultBackgroundServer
from repro.service.loadtest import ServerProcess
from repro.workloads import figure2_database

from test_service import EPSILON, DELTA, QUERY_TEXT, fig2_requests


@pytest.fixture(scope="module", autouse=True)
def _lockdep(lockdep_state):
    """Lock-order sanitizing across the sharded plane's router locks."""
    return lockdep_state


# -- placement -----------------------------------------------------------------------------


class TestShardForKey:
    def test_single_shard_is_always_zero(self):
        assert shard_for_key("anything", 1) == 0
        assert shard_for_key("", 1) == 0

    def test_rejects_non_positive_shard_counts(self):
        with pytest.raises(ValueError):
            shard_for_key("k", 0)
        with pytest.raises(ValueError):
            shard_for_key("k", -2)

    @given(key=st.text(max_size=64), shards=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_deterministic_and_in_range(self, key, shards):
        placed = shard_for_key(key, shards)
        assert 0 <= placed < shards
        assert shard_for_key(key, shards) == placed

    @given(key=st.text(max_size=64), shards=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_rendezvous_stability_under_growth(self, key, shards):
        """Adding shard ``n`` only ever moves keys *onto* shard ``n`` —
        every other key keeps its placement (the property that makes
        restarts with a different ``--workers`` cheap to re-warm)."""
        before = shard_for_key(key, shards)
        after = shard_for_key(key, shards + 1)
        assert after in (before, shards)

    def test_spreads_keys_across_shards(self):
        placements = {shard_for_key(f"group-{i}", 4) for i in range(200)}
        assert placements == {0, 1, 2, 3}


# -- stats aggregation ---------------------------------------------------------------------


def shard_stats(shard, *, sessions, hits, misses, evictions, batches, widest, pending=0):
    return {
        "shard": shard,
        "registry": {
            "sessions": sessions,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "store_errors": 0,
        },
        "batching": {
            "batches_run": batches,
            "coalesced_batches": 0,
            "pending_requests": pending,
            "rejected": 0,
            "cancelled_waiters": 0,
            "widest_batch": widest,
        },
    }


class TestAggregateShardStats:
    def test_sums_every_counter_and_maxes_widest_batch(self):
        per_shard = [
            shard_stats(0, sessions=2, hits=5, misses=2, evictions=1, batches=7, widest=3),
            shard_stats(1, sessions=1, hits=9, misses=1, evictions=0, batches=4, widest=6),
        ]
        merged = aggregate_shard_stats(per_shard)
        assert merged["shards"] == 2
        assert merged["unreported"] == 0
        assert merged["registry"] == {
            "sessions": 3, "hits": 14, "misses": 3, "evictions": 1,
            "store_errors": 0,
        }
        assert merged["batching"]["batches_run"] == 11
        assert merged["batching"]["widest_batch"] == 6  # max, not sum

    def test_dead_shards_count_as_unreported(self):
        per_shard = [
            shard_stats(0, sessions=1, hits=1, misses=1, evictions=0, batches=1, widest=1),
            {},  # a shard that died mid-scrape
            {"shard": 2, "registry": None, "batching": None},
        ]
        merged = aggregate_shard_stats(per_shard)
        assert merged["shards"] == 1
        assert merged["unreported"] == 2
        assert merged["registry"]["sessions"] == 1


    def test_carried_counts_join_the_totals_reported_or_not(self):
        """A respawned worker counts from zero; the counts its dead
        predecessors reported travel in ``carried`` and stay in the
        totals, even while the shard is unreported."""
        carried = {"hits": 4, "misses": 2, "evictions": 1, "store_errors": 0}
        live = shard_stats(0, sessions=1, hits=1, misses=1, evictions=0, batches=1, widest=1)
        live["carried"] = carried
        merged = aggregate_shard_stats([live, {"shard": 1, "registry": None, "carried": carried}])
        assert merged["unreported"] == 1
        assert merged["registry"] == {
            "sessions": 1, "hits": 9, "misses": 5, "evictions": 2, "store_errors": 0,
        }

    def test_store_error_kinds_are_summed_with_their_carry(self):
        first = shard_stats(0, sessions=1, hits=0, misses=1, evictions=0, batches=1, widest=1)
        second = shard_stats(1, sessions=1, hits=0, misses=1, evictions=0, batches=1, widest=1)
        first["registry"]["storage"] = {"errors": {"spill:enospc": 2, "load:corrupt": 1}}
        second["registry"]["storage"] = {"errors": {"spill:enospc": 1}}
        second["carried"] = {"store_errors": 3, "storage_errors": {"save:eio": 3}}
        merged = aggregate_shard_stats([first, second, {"carried": {
            "storage_errors": {"load:corrupt": 4},
        }}])
        assert merged["storage_errors"] == {
            "spill:enospc": 3, "load:corrupt": 5, "save:eio": 3,
        }
        assert merged["registry"]["store_errors"] == 3
        assert aggregate_shard_stats([])["storage_errors"] == {}

    def test_degraded_is_or_ed_and_groups_concatenated(self):
        first = shard_stats(0, sessions=1, hits=0, misses=1, evictions=0, batches=1, widest=1)
        second = shard_stats(1, sessions=2, hits=0, misses=2, evictions=0, batches=1, widest=1)
        first["registry"].update(degraded=False, groups=[{"key": "a"}])
        second["registry"].update(degraded=True, groups=[{"key": "b"}, {"key": "c"}])
        merged = aggregate_shard_stats([first, second])
        assert merged["degraded"] is True
        assert [group["key"] for group in merged["groups"]] == ["a", "b", "c"]
        assert aggregate_shard_stats([first])["degraded"] is False


# -- graceful shutdown ---------------------------------------------------------------------


class TestShutdownDrain:
    def test_fail_pending_rejects_queued_waiters(self):
        """Waiters still queued (batch not yet started) get the shutdown
        error; nothing hangs and nothing is silently dropped."""
        requests = fig2_requests(generators=(M_UR,))
        database, constraints = figure2_database()

        async def scenario():
            batcher = MicroBatcher(SessionRegistry(seed=7))
            submitted = asyncio.ensure_future(
                batcher.submit(database, constraints, M_UR, requests, "fixed")
            )
            # One tick: submit() has enqueued its waiter and scheduled
            # the drain task, but the drain task has not run yet.
            await asyncio.sleep(0)
            failed = batcher.fail_pending(RuntimeError("shutting down"))
            assert failed == 1
            with pytest.raises(RuntimeError, match="shutting down"):
                await submitted
            await batcher.drain()  # nothing left; returns immediately
            assert batcher.stats()["pending_requests"] == 0

        asyncio.run(scenario())

    def test_drain_waits_for_inflight_batches(self):
        requests = fig2_requests(generators=(M_UR,))
        database, constraints = figure2_database()
        offline = batch_estimate(requests, seed=7)

        async def scenario():
            batcher = MicroBatcher(SessionRegistry(seed=7))
            submitted = asyncio.ensure_future(
                batcher.submit(database, constraints, M_UR, requests, "fixed")
            )
            await asyncio.sleep(0)
            await batcher.drain()
            assert submitted.done()  # drain returned only after the batch ran
            assert batcher.fail_pending(RuntimeError("late")) == 0
            return await submitted

        outcomes = asyncio.run(scenario())
        assert [o.result for o in outcomes] == [r.result for r in offline]

    def test_stop_mid_request_serves_or_503s(self):
        """A request in flight when the server stops is either served
        bit-identically (drained) or failed with a clean 503 — never a
        hang, never a dropped connection."""
        database, constraints = figure2_database()
        requests = fig2_requests(generators=(M_UR,))
        offline = batch_estimate(requests, seed=7)
        expected = offline[0].result
        outcome = {}

        background = FaultBackgroundServer(seed=7)
        with background as server:
            client = ServiceClient(server.url, timeout=30.0, max_retries=0)
            client._call("POST", "/_fault", {"slow_seconds": 0.5})

            def call():
                try:
                    outcome["row"] = client.estimate(
                        database, constraints, QUERY_TEXT,
                        list(requests[0].answer),
                        epsilon=EPSILON, delta=DELTA, label="fig2",
                    )
                except ServiceClientError as error:
                    outcome["error"] = error

            caller = threading.Thread(target=call)
            caller.start()
            time.sleep(0.2)  # the slow handler is now holding the request
        caller.join(timeout=30)
        assert not caller.is_alive()
        if "row" in outcome:
            assert outcome["row"]["estimate"] == expected.estimate
            assert outcome["row"]["samples"] == expected.samples_used
        else:
            assert outcome["error"].status == 503

    def test_sigterm_exits_cleanly_sharded(self):
        """``serve --workers 2`` drains and exits 0 on SIGTERM (the
        pre-PR behavior was an abrupt KeyboardInterrupt traceback)."""
        process = ServerProcess(seed=7, workers=2, fault_injection=False)
        process.start()
        try:
            assert ServiceClient(process.url).healthz()["status"] == "ok"
            process._process.send_signal(signal.SIGTERM)
            process._process.wait(timeout=60)
            assert process._process.returncode == 0
        finally:
            process.stop()


# -- the sharded HTTP plane ----------------------------------------------------------------


def serve_rows(client, database, constraints, requests):
    return [
        client.estimate(
            database, constraints, QUERY_TEXT, list(request.answer),
            generator=request.generator.name,
            epsilon=EPSILON, delta=DELTA, label="fig2",
        )
        for request in requests
    ]


class TestShardedHttp:
    def test_bit_identity_at_every_worker_count_and_across_kill(self):
        database, constraints = figure2_database()
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        expected = [
            {"estimate": r.result.estimate, "samples": r.result.samples_used}
            for r in offline
        ]

        def served(client):
            return [
                {"estimate": row["estimate"], "samples": row["samples"]}
                for row in serve_rows(client, database, constraints, requests)
            ]

        for workers in (1, 2, 4):
            options = {"workers": workers}
            with FaultBackgroundServer(seed=7, server_options=options) as server:
                client = ServiceClient(server.url)
                assert served(client) == expected, f"workers={workers} drifted"

                if workers == 2:
                    # SIGKILL shard 0 mid-run: the router respawns and
                    # re-warms it; re-served rows must not move a bit.
                    before = client.metrics()
                    report = client._call("POST", "/_fault", {"kill_worker": 0})
                    assert report["killed_worker"] == 0
                    assert report["killed_pid"]
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        stats = client.stats()
                        if all(stats.get("workers", {}).get("alive", [])):
                            break
                        time.sleep(0.1)
                    assert served(client) == expected, "post-kill drift"
                    restarts = sum(
                        entry.get("restarts", 0) for entry in client.stats()["shards"]
                    )
                    assert restarts >= 1
                    after = client.metrics()
                    for name in (
                        "repro_registry_hits_total",
                        "repro_registry_misses_total",
                        "repro_registry_evictions_total",
                    ):
                        assert after[name] >= before[name], name

                if workers == 4:
                    self.check_aggregation(client)

    def check_aggregation(self, client):
        """Top-level /stats and /metrics totals equal the sum over shards."""
        stats = client.stats()
        assert stats["workers"]["count"] == 4
        shards = stats["shards"]
        assert len(shards) == 4
        for field in ("sessions", "hits", "misses", "evictions"):
            total = stats["registry"][field]
            assert total == sum(
                (entry.get("registry") or {}).get(field, 0) for entry in shards
            ), field
        assert stats["batching"]["batches_run"] == sum(
            (entry.get("batching") or {}).get("batches_run", 0) for entry in shards
        )
        # Two generators over one instance -> two groups, spread by the
        # rendezvous hash but never duplicated.
        assert stats["registry"]["sessions"] == 2

        series = client.metrics()
        for field, metric in (
            ("sessions", "repro_shard_sessions"),
            ("hits", "repro_shard_registry_hits"),
            ("misses", "repro_shard_registry_misses"),
        ):
            labeled = sum(
                value for key, value in series.items()
                if key.startswith(metric + "{")
            )
            assert labeled == stats["registry"][field], metric

    def test_healthz_reports_worker_liveness(self):
        options = {"workers": 2}
        with BackgroundServer(seed=7, server_options=options) as server:
            health = ServiceClient(server.url).healthz()
            assert health["workers"]["count"] == 2
            assert health["workers"]["alive"] == [True, True]


class TestOneExecutionPath:
    """In-process serving is a one-shard pool: every mode reports through
    the same per-shard documents, so the endpoints cannot disagree."""

    @pytest.mark.parametrize("workers", [None, 1, 2], ids=lambda w: f"workers={w}")
    def test_endpoints_agree_on_sessions_and_registry_counters(self, workers):
        database, constraints = figure2_database()
        options = {} if workers is None else {"workers": workers}
        with BackgroundServer(seed=7, server_options=options) as server:
            client = ServiceClient(server.url)
            serve_rows(client, database, constraints, fig2_requests())
            health = client.healthz()
            stats = client.stats()
            series = client.metrics()
        # Two generators over one instance: two warm groups.
        assert health["sessions"] == 2
        assert stats["registry"]["sessions"] == 2
        assert len(stats["registry"]["groups"]) == 2
        assert series["repro_sessions"] == 2
        shard_misses = sum(entry["registry"]["misses"] for entry in stats["shards"])
        assert series["repro_registry_misses_total"] == shard_misses == 2
        assert stats["registry"]["misses"] == shard_misses
        assert stats["workers"]["count"] == len(stats["shards"]) == (workers or 1)
        assert health["workers"] == stats["workers"]

    def test_sharded_harness_rejects_in_process_faults(self):
        """Spilling or dropping sessions (and the disk shim) act on the
        server process's own registry; under --workers they would miss
        the shards, so they are refused instead of reporting 0."""
        database, constraints = figure2_database()
        with FaultBackgroundServer(seed=7, server_options={"workers": 2}) as server:
            client = ServiceClient(server.url)
            serve_rows(client, database, constraints, fig2_requests())
            for fault in (
                {"spill_sessions": True, "drop_sessions": True},
                {"spill_sessions": True},
                {"drop_sessions": True},
                {"disk_enospc": True},
            ):
                with pytest.raises(ServiceClientError) as caught:
                    client._call("POST", "/_fault", fault)
                assert caught.value.status == 400, fault
            assert client.healthz()["sessions"] == 2
            assert client.stats()["faults"]["disk_enospc"] == 0.0


class TestWorkerPoolCounters:
    def test_registry_counters_are_carried_across_a_respawn(self):
        database, constraints = figure2_database()
        requests = fig2_requests(generators=(M_UR,))
        key = SessionRegistry(seed=7).key_for(database, constraints, M_UR)

        async def scenario():
            pool = WorkerPool(WorkerConfig(seed=7), 1)
            await pool.start()
            try:
                await pool.submit(key, database, constraints, M_UR, requests, "fixed")
                (before,) = await pool.stats()
                assert before["registry"]["misses"] == 1
                assert before["carried"]["misses"] == 0
                pool.kill(0)
                deadline = time.monotonic() + 60
                while pool.restarts[0] == 0 and time.monotonic() < deadline:
                    await asyncio.sleep(0.05)
                rows = await pool.submit(
                    key, database, constraints, M_UR, requests, "fixed"
                )
                (after,) = await pool.stats()
            finally:
                await pool.stop()
            return before, after, rows

        before, after, rows = asyncio.run(scenario())
        assert [row.result for row in rows] == [
            outcome.result for outcome in batch_estimate(requests, seed=7)
        ]
        assert after["restarts"] == 1
        assert after["carried"]["misses"] == 1
        assert after["carried"]["hits"] == before["registry"]["hits"]
        totals = aggregate_shard_stats([after])["registry"]
        assert totals["misses"] >= aggregate_shard_stats([before])["registry"]["misses"]
        assert totals["hits"] >= aggregate_shard_stats([before])["registry"]["hits"]


class _FakeProcess:
    def __init__(self, pid):
        self.pid = pid

    def is_alive(self):
        return True


def _registry_document(pid, errors):
    registry = shard_stats(0, sessions=1, hits=0, misses=1, evictions=0, batches=1, widest=1)
    registry["registry"].update(
        store_errors=sum(errors.values()), storage={"errors": dict(errors)}
    )
    return {"shard": 0, "pid": pid, **registry}


class TestStoreErrorsAcrossRespawns:
    """The per-kind store-error counts a dead worker reported stay in the
    plane-wide fold (synthetic shard documents; no processes)."""

    def test_respawn_carries_store_error_kinds(self):
        from types import SimpleNamespace

        pool = WorkerPool(WorkerConfig(seed=7), 1)
        documents = {}

        async def fake_request(shard, kind, payload):
            return "stats", documents[pool._workers[shard].process.pid]

        async def no_revive(worker):
            return None

        pool._request = fake_request
        pool._revive = no_revive

        def generation(pid):
            return SimpleNamespace(
                shard=0, process=_FakeProcess(pid), dead=False, inflight={}
            )

        async def scenario():
            pool._loop = asyncio.get_running_loop()
            pool._workers = [generation(101)]
            documents[101] = _registry_document(101, {"spill:enospc": 2})
            first = aggregate_shard_stats(await pool.stats())
            pool._worker_died(pool._workers[0])
            unreported = aggregate_shard_stats(await pool.stats())
            pool._workers = [generation(202)]
            documents[202] = _registry_document(202, {"load:corrupt": 1})
            reborn = aggregate_shard_stats(await pool.stats())
            return first, unreported, reborn

        first, unreported, reborn = asyncio.run(scenario())
        assert first["storage_errors"] == {"spill:enospc": 2}
        assert unreported["unreported"] == 1
        assert unreported["storage_errors"] == {"spill:enospc": 2}
        assert reborn["storage_errors"] == {"spill:enospc": 2, "load:corrupt": 1}
        assert reborn["registry"]["store_errors"] == 3

    def test_fold_renders_the_labeled_counter(self):
        from repro.service.metrics import parse_metrics_text
        from repro.service.server import EstimationServer

        server = EstimationServer(SessionRegistry(seed=7))
        server._totals = aggregate_shard_stats([
            _registry_document(1, {"spill:enospc": 2}),
            {**_registry_document(2, {}), "carried": {
                "storage_errors": {"spill:enospc": 1, "load:corrupt": 4},
            }},
        ])
        series = parse_metrics_text(server.metrics.render())
        assert series['repro_store_errors_total{kind="enospc",op="spill"}'] == 3
        assert series['repro_store_errors_total{kind="corrupt",op="load"}'] == 4


class TestWorkersAlwaysSpawn:
    def test_fork_env_does_not_reach_the_worker_pool(self, monkeypatch):
        """``REPRO_UOCQA_START_METHOD`` configures the offline fan-out
        only: a forked shard would inherit its siblings' pipes and hide
        their deaths from the router."""
        from repro.engine.batch import START_METHOD_ENV

        monkeypatch.setenv(START_METHOD_ENV, "fork")
        pool = WorkerPool(WorkerConfig(seed=7), 2)
        assert pool._context.get_start_method() == "spawn"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: WorkerConfig(start_method="fork"),
            lambda: WorkerConfig(shared_pools=True),
            lambda: SessionRegistry(shared_pools=True),
        ],
        ids=["worker-start-method", "worker-shared-pools", "registry-shared-pools"],
    )
    def test_removed_knobs_are_rejected(self, build):
        with pytest.raises(TypeError):
            build()
