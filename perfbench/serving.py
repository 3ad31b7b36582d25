"""The serving workload: one client calling ``python -m repro serve`` in a loop.

The server runs as a subprocess in in-process mode (no ``--workers``, no
fault injection).  Set-up is spawn-until-ready plus a warm-up that admits
the session and asks every warm answer once.  The measured phase is a
closed loop: one client thread sends the seeded request sequence back to
back through ``ServiceClient.estimate``, each request timed from send to
reply, for the run's duration.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

import tracing
from offline import peak_rss_mb
from tracing import clock
from workloads import instance, label_for, serve_requests

HERE = Path(__file__).resolve().parent
#: Client timeout; a request that fails is counted at this latency.
TIMEOUT_S = 30.0
#: ``estimates_per_s`` and ``latency_p90_ms`` are medians over this many
#: consecutive slices of the loop.
SLICES = 10


def _server(seed: int, spans_path: str | None):
    """The service subprocess: ``python -m repro serve``, or the traced launcher.

    ``ServerProcess`` spawns it on an ephemeral loopback port at raised
    priority (when the OS allows), reads the URL it reports, and stops it
    with SIGTERM.
    """
    from repro.service.loadtest import ServerProcess

    class LauncherProcess(ServerProcess):
        def _command(self, port: int) -> list[str]:
            return [sys.executable, str(HERE / "launcher.py"), spans_path, str(seed)]

    kind = ServerProcess if spans_path is None else LauncherProcess
    return kind(seed=seed, fault_injection=False)


def _metrics_delta(before: dict, after: dict) -> dict:
    """Counter differences summed over labels, keyed by series name.

    Only ``/estimate`` request latency counts: scrapes and health checks
    are excluded by their endpoint label.
    """
    delta: dict[str, float] = {}
    for key, value in after.items():
        name = key.partition("{")[0]
        if name.startswith("repro_request_seconds") and 'endpoint="/estimate"' not in key:
            continue
        delta[name] = delta.get(name, 0.0) + value - before.get(key, 0.0)
    return delta


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Phase:
    """One server life: set-up (spawn + warm-up) and, optionally, the closed loop."""

    def __init__(self, workload, seed: int, database, constraints, query):
        self.workload = workload
        self.seed = seed
        self.database = database
        self.constraints = constraints
        self.query = query
        self.rows: list[tuple[tuple, dict | None, str | None]] = []

    def _ask(self, client, answer):
        """One estimate call; returns ``(row, error)``."""
        from repro.service.client import ServiceClientError

        try:
            row = client.estimate(
                self.database,
                self.constraints,
                self.query,
                answer,
                generator=self.workload.generator,
                epsilon=self.workload.epsilon,
                delta=self.workload.delta,
                label=label_for(answer),
            )
        except (ServiceClientError, OSError) as error:
            return None, str(error)
        return row, None

    def setup(self, warm, spans_path=None):
        """Spawn the server and warm it up; returns ``(server, client, seconds)``."""
        from repro.service.client import ServiceClient

        spawned = clock()
        server = _server(self.seed, spans_path)
        client = ServiceClient(server.start(), timeout=TIMEOUT_S)
        try:
            for answer in warm:
                row, error = self._ask(client, answer)
                self.rows.append((answer, row, error))
        except BaseException:
            server.stop()
            raise
        return server, client, clock() - spawned

    def closed_loop(self, client, sequence, seconds: float):
        """Send ``sequence`` back to back for ``seconds``.

        Returns ``[(latency, answer, row, error)]`` and the measured window.
        The loop also ends when the sequence does (after every answer of
        the instance has been asked once).
        """
        records = []
        start = clock()
        deadline = start + seconds
        for answer in sequence:
            sent = clock()
            if sent >= deadline:
                break
            row, error = self._ask(client, answer)
            records.append((clock() - sent, answer, row, error))
        end = clock()
        self.rows.extend((answer, row, error) for _, answer, row, error in records)
        return records, start, end


def server_layers(spans, requests: int, window, client_spans, delta, rows) -> dict:
    """Per-layer metrics of one traced serving phase (seconds per request).

    Span metrics cover the measured window; the sampling-plane metrics
    cover the server's whole life, because the pool is drawn in warm-up.
    """
    measured = tracing.within(spans, *window)
    client_total, _ = tracing.totals(tracing.within(client_spans, *window))
    used = max((row["samples"] for _, row, _ in rows if row), default=0)
    waits = tracing.queue_waits(measured)
    estimate_s = _ratio(client_total.get("service.client.estimate", 0.0), requests)
    serialize_s = _ratio(client_total.get("io.instance_to_dict", 0.0), requests)
    request_s = _ratio(
        delta.get("repro_request_seconds_sum", 0.0),
        delta.get("repro_request_seconds_count", 0.0),
    )
    hits = delta.get("repro_answer_cache_hits_total", 0.0)
    misses = delta.get("repro_answer_cache_misses_total", 0.0)
    return {
        **tracing.span_metrics(measured, requests),
        **tracing.sampling_metrics(spans, used),
        "io.instance_to_dict_s": serialize_s,
        "service.client.estimate_s": estimate_s,
        "service.client.transport_s": estimate_s - serialize_s - request_s,
        "service.server.request_s": request_s,
        "service.server.rejected": delta.get("repro_rejected_total", 0.0),
        "service.cache.hit_ratio": _ratio(hits, hits + misses),
        "service.batching.batch_width_mean": _ratio(
            delta.get("repro_batch_width_sum", 0.0), delta.get("repro_batch_width_count", 0.0)
        ),
        "service.batching.batch_s": _ratio(
            delta.get("repro_batch_seconds_sum", 0.0),
            delta.get("repro_batch_seconds_count", 0.0),
        ),
        "service.batching.queue_wait_s": _ratio(sum(waits), len(waits)),
    }


def _percentile(values, percent: int) -> float:
    """The ``percent``-th percentile of ``values``, linearly interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _mean_latency(records) -> float:
    return sum(record[0] for record in records) / len(records)


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run the serving workload; returns metrics, rows and check results.

    Untraced: three set-ups (the median is ``setup_s``), the last one
    followed by the closed loop.  Traced: the closed loop for half the
    run against a plain server, then for the other half against the
    traced launcher, both from the start of the same sequence; the
    difference in mean latency is the tracing overhead.
    """
    from repro.engine.batch import BatchRequest, batch_estimate
    from repro.io import batch_result_to_row

    database, constraints, query, generator = instance(workload)
    warm, sequence = serve_requests(workload, seed, database)
    loop_s = seconds / 2 if trace else seconds
    phases: list[Phase] = []
    setups: list[float] = []
    exit_codes: list[int] = []

    def stopped(server) -> None:
        server.stop()
        exit_codes.append(server._process.returncode)

    def set_up(spans_path=None):
        phase = Phase(workload, seed, database, constraints, query)
        server, client, setup_s = phase.setup(warm, spans_path)
        phases.append(phase)
        setups.append(setup_s)
        return server, client

    def measured_phase(spans_path=None):
        server, client = set_up(spans_path)
        try:
            before = client.metrics()
            records, start, end = phases[-1].closed_loop(client, sequence, loop_s)
            after = client.metrics()
            rss = peak_rss_mb(str(server._process.pid))
        finally:
            stopped(server)
        return records, (start, end), before, after, rss

    result: dict = {}
    if not trace:
        for _ in range(2):
            server, _ = set_up()
            stopped(server)
        records, window, _, _, rss = measured_phase()
        latencies = [record[0] if record[3] is None else TIMEOUT_S for record in records]
        # Throughput and the p90 are medians over ten consecutive slices of
        # the loop (≈200 requests each), so that a stretch in which the host
        # slowed the guest decides one slice, not the run.  A slice's rate is
        # its completed requests per second of client-observed time.
        size = len(records) // SLICES
        slices = [range(first, first + size) for first in range(0, size * SLICES, size)]
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "estimates_per_s": statistics.median(
                sum(1 for index in chunk if records[index][3] is None)
                / sum(latencies[index] for index in chunk)
                for chunk in slices
            ),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.median(
                _percentile([latencies[index] for index in chunk], 90) for chunk in slices
            )
            * 1e3,
            "peak_rss_mb": rss,
        }
        result["notes"] = {
            "latency_samples": len(records),
            "latency_p99_ms over every request (not gated)": _percentile(latencies, 99) * 1e3,
            "requests per second over the whole loop": len(records) / (window[1] - window[0]),
        }
    else:
        plain_records = measured_phase()[0]
        recorder = tracing.Recorder()
        recorder.install(tracing.CLIENT_LAYERS)
        # The launcher writes its spans inside the checkout, then exits.
        scratch = HERE.parent / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        spans_path = scratch / f"server-spans-{os.getpid()}.json"
        try:
            records, window, before, after, _ = measured_phase(str(spans_path))
            spans = tracing.load_spans(str(spans_path))
        finally:
            recorder.uninstall()
            spans_path.unlink(missing_ok=True)
            try:
                scratch.rmdir()
            except OSError:  # another run's spans are still there
                pass
        layers = server_layers(
            spans,
            len(records),
            window,
            recorder.spans,
            _metrics_delta(before, after),
            phases[-1].rows,
        )
        layers["service.registry.admissions"] = after.get("repro_registry_misses_total", 0.0)
        layers["bench.trace_overhead_s"] = _mean_latency(records) - _mean_latency(
            plain_records
        )
        result["layers"] = layers
        result["fired"] = tracing.calls_by_name(spans + recorder.spans)
        request_path = sum(
            layers[name]
            for name in (
                "io.instance_to_dict_s",
                "io.workload_from_dict_s",
                "io.batch_result_to_row_s",
                "engine.store.instance_cache_key_s",
                "service.registry.key_for_s",
                "service.client.transport_s",
            )
        )
        result["shares"] = {
            "io + content key + transport, of client-observed time": _ratio(
                request_path, layers["service.client.estimate_s"]
            )
        }

    # Correctness: every served row must equal its offline twin, the row
    # batch_estimate(seed=SEED) produces for the same request.
    answers = sorted({answer for phase in phases for answer, _, _ in phase.rows})
    twins = batch_estimate(
        [
            BatchRequest(
                database,
                constraints,
                generator,
                query,
                answer,
                epsilon=workload.epsilon,
                delta=workload.delta,
                label=label_for(answer),
            )
            for answer in answers
        ],
        seed=seed,
    )
    expected = {answer: batch_result_to_row(twin) for answer, twin in zip(answers, twins)}
    # Every server must also exit 0 on SIGTERM (a graceful drain).
    attempted = len(exit_codes)
    failed = sum(1 for code in exit_codes if code != 0)
    failures = [f"server exited with code {code}" for code in exit_codes if code != 0]
    for phase in phases:
        for answer, row, error in phase.rows:
            attempted += 1
            if error is not None:
                failed += 1
                failures.append(f"request for {answer} failed: {error}")
            elif row != expected[answer]:
                failed += 1
                failures.append(f"served row for {answer} differs from its offline twin")
    result.update(attempted=attempted, failed=failed, failures=failures)
    return result
