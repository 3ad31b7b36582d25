"""Tier-1 smoke coverage for the load-test harness.

A scaled-down end-to-end run against an in-process
:class:`FaultBackgroundServer` (fast, deterministic) plus the
:class:`ServerProcess` lifecycle — start, URL parse, kill, same-port
restart with bit-identical answers.  The full-fault saturation leg
lives in ``test_saturation.py`` behind the ``tier2`` marker.
"""

import pytest

from repro.cli import main
from repro.service import BackgroundServer, ServiceClient, run_loadtest
from repro.service.faults import FaultBackgroundServer
from repro.service.loadtest import (
    LoadTestConfig,
    ServerProcess,
    _build_mix,
    _call_item,
    _Recorder,
    format_report,
)

SMOKE_CONFIG = LoadTestConfig(
    baseline_seconds=0.4,
    saturation_seconds=0.4,
    overload_seconds=0.6,
    cache_seconds=0.3,
    # Long enough that budget-carrying calls (every 3rd per worker) land
    # inside the slow-handler window; shorter windows miss it.
    fault_seconds=2.4,
    saturation_clients=3,
    overload_clients=12,
    # Latency assertions need a quiet machine; the smoke run only checks
    # the behavioral invariants (backpressure, bit identity, faults).
    check_p99=False,
    inject_kill=False,
)


class TestSmokeRun:
    def test_harness_passes_against_background_server(self):
        with FaultBackgroundServer(
            seed=SMOKE_CONFIG.seed,
            server_options={
                "max_queue": SMOKE_CONFIG.max_queue,
                "max_pending": SMOKE_CONFIG.max_pending,
                "max_inflight": SMOKE_CONFIG.max_inflight,
                "default_budget": SMOKE_CONFIG.default_budget,
                "answer_cache_size": SMOKE_CONFIG.answer_cache_size,
            },
        ) as server:
            report = run_loadtest(SMOKE_CONFIG, base_url=server.url)
        assert report.ok, format_report(report)
        assert report.bit_identity_checked > 0
        assert report.bit_identity_failures == 0
        assert report.overload_rejected > 0
        assert report.rejected_missing_retry_after == 0
        assert report.cache_hits > 0
        assert report.poisoned_detected > 0
        assert report.deadline_hits > 0
        assert report.malformed_probes == 5
        assert report.metrics_scrapes > 0
        assert report.metrics_violations == []

    def test_url_against_a_production_server_is_a_scored_failure(self, capsys):
        """A production server has no ``/_fault``: every fault beat turns
        into a failure that names it, and the run exits 1 — no traceback."""
        with BackgroundServer(seed=SMOKE_CONFIG.seed) as server:
            code = main(
                ["loadtest", "--url", server.url, "--scale", "0.1", "--no-p99-check"]
            )
        output = capsys.readouterr()
        assert code == 1
        assert "was rejected (POST /_fault)" in output.out
        assert "Traceback" not in output.out + output.err


class TestServerProcess:
    def test_lifecycle_and_bit_identity_across_restart(self):
        item = _build_mix(LoadTestConfig())[0]
        recorder = _Recorder()
        with ServerProcess(seed=7, max_pending=8, max_inflight=1) as server:
            assert server.url and server.port > 0
            client = ServiceClient(server.url, timeout=30)
            assert client.healthz()["status"] == "ok"
            kind = _call_item(
                client, item, item.request.label, phase="before", recorder=recorder
            )
            assert kind == "admitted"
            first_port = server.port
            server.restart()
            # Same port, fresh process: determinism is content-derived,
            # so the served row must come back bit-identical.
            assert server.port == first_port
            kind = _call_item(
                client, item, item.request.label, phase="after", recorder=recorder
            )
            assert kind == "admitted"
        assert recorder.checked == 2
        assert recorder.mismatches == []

    def test_double_start_rejected(self):
        with ServerProcess(seed=7) as server:
            with pytest.raises(RuntimeError, match="already running"):
                server.start()

    def test_stop_and_kill_close_the_stderr_pipe(self):
        with ServerProcess(seed=7, fault_injection=False) as server:
            first = server._process.stderr
            server.restart()  # kill() + start() on the same port
            assert first.closed
        assert server._process.stderr.closed
        assert server._process.returncode == 0
