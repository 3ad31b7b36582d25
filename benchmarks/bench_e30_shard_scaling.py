"""E30 — Sharded service plane: near-linear rps scaling across cores.

The single-process service plane (E27/E29) tops out at one core: the
sampling passes run under the registry's per-session locks inside one
GIL.  PR 8's sharded mode (``serve --workers N``) runs one warm
:class:`~repro.service.registry.SessionRegistry` per worker process
behind the asyncio router, with requests placed by rendezvous-hashing
the group's :func:`~repro.engine.store.instance_cache_key` — so adding
workers adds *independent* sampling cores, and throughput should scale
near-linearly until the machine runs out of them.

Two tests:

* **bit identity** (always runs) — the same mixed workload served at
  ``--workers`` 1, 2, and 4 equals the offline
  ``batch_estimate(seed)`` reference bit-for-bit, including after a
  mid-run SIGKILL of one shard worker (the router respawns and
  re-warms it; group seeds are content-derived, so placement and
  process lifetime never touch the math).
* **scaling** (needs ≥ 4 cores; skips with a message on smaller
  boxes) — warm closed-loop rps at 4 workers must be ≥ 2.5× the
  1-worker rps on the identical mix.
"""

import os
import time

import pytest

from repro.engine import batch_estimate
from repro.service import ServiceClient
from repro.service.faults import FaultBackgroundServer

from bench_e27_service_throughput import assert_rows_match, build_mix, run_service
from bench_utils import emit

SEED = 30
WORKER_COUNTS = (1, 2, 4)
MIN_SCALING = 2.5
SCALING_CORES = 4


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def serve_mix(workers: int, query, requests, offline, *, kill: bool = False):
    """One warm-measured pass at a worker count; returns warm rps.

    The first pass admits every group cold (and is discarded); the
    second, fully warm pass is the measured one.  With ``kill=True`` a
    shard worker is SIGKILLed between the passes, so the measured pass
    also proves the respawn is transparent and re-served rows stay
    bit-identical.
    """
    options = {"workers": workers}
    with FaultBackgroundServer(seed=SEED, server_options=options) as server:
        rows, _ = run_service(server, query, requests)
        assert_rows_match(rows, offline)
        client = ServiceClient(server.url)
        restarts = 0
        if kill:
            report = client._call("POST", "/_fault", {"kill_worker": 0})
            assert report.get("killed_pid"), report
            time.sleep(0.5)
        rows, seconds = run_service(server, query, requests)
        assert_rows_match(rows, offline)
        if kill:
            stats = client.stats()
            restarts = sum(
                int(entry.get("restarts", 0)) for entry in stats["shards"]
            )
            assert restarts >= 1, stats
    return len(requests) / seconds, restarts


def test_e30_shard_bit_identity(benchmark):
    """Served rows are bit-identical at every worker count, kill included."""

    def check():
        query, requests = build_mix()
        offline = batch_estimate(requests, seed=SEED)
        assert all(outcome.ok for outcome in offline)
        rps = {}
        restarts = 0
        for workers in WORKER_COUNTS:
            # The 2-worker leg doubles as the kill+respawn identity check.
            rps[workers], revived = serve_mix(
                workers, query, requests, offline, kill=workers == 2
            )
            restarts += revived
        return {"requests": len(requests), "rps": rps, "restarts": restarts}

    measured = benchmark.pedantic(check, rounds=1, iterations=1)
    assert measured["restarts"] >= 1
    emit(
        "E30",
        check="bit_identity",
        requests=measured["requests"],
        worker_counts=",".join(str(w) for w in WORKER_COUNTS),
        kill_respawns=measured["restarts"],
        bit_identical=True,
        **{f"rps_w{w}": round(r, 1) for w, r in measured["rps"].items()},
    )


def test_e30_shard_scaling(benchmark):
    """Warm rps at 4 workers ≥ 2.5× the 1-worker rps (needs ≥ 4 cores)."""
    cores = available_cores()
    if cores < SCALING_CORES:
        pytest.skip(
            f"shard scaling needs >= {SCALING_CORES} cores to mean anything; "
            f"this box has {cores}"
        )

    def measure():
        query, requests = build_mix()
        offline = batch_estimate(requests, seed=SEED)
        rps = {
            workers: serve_mix(workers, query, requests, offline)[0]
            for workers in (1, SCALING_CORES)
        }
        return {"requests": len(requests), "rps": rps}

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    rps = measured["rps"]
    scaling = rps[SCALING_CORES] / rps[1]
    assert scaling >= MIN_SCALING, (
        f"{SCALING_CORES} workers only {scaling:.2f}x over 1 worker "
        f"({rps[SCALING_CORES]:.1f} vs {rps[1]:.1f} rps) on a {cores}-core box"
    )
    emit(
        "E30",
        check="scaling",
        cores=cores,
        requests=measured["requests"],
        rps_w1=round(rps[1], 1),
        **{f"rps_w{SCALING_CORES}": round(rps[SCALING_CORES], 1)},
        scaling=round(scaling, 2),
        floor=MIN_SCALING,
    )
