"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and their rationale are in ``BENCHMARK.json`` and
``perfbench/DESIGN.md``.  With ``--trace 0`` the run measures the
end-to-end metrics with no wrapper installed; with ``--trace 1`` it
reports the per-layer metrics from spans recorded around the calls into
each layer, plus the tracing overhead.  Every run checks the program's
outputs, prints a human-readable report and the environment, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Layers each workload must reach; a traced run in which one of these saw
#: no call fails (the wrapper sits where no caller looks).
_ENGINE = {
    "engine.batch.run_group",
    "engine.batch.group_seed_for",
    "engine.store.instance_cache_key",
    "engine.session.decomposition",
    "engine.session.index",
    "engine.session.is_possible",
    "engine.session.witness_masks",
    "engine.session.estimate_pooled",
    "engine.session.pool_ensure",
    "sampling.vectorized.draw_batch",
    "sampling.vectorized.scatter",
    "sampling.vectorized.batch_hit_flags",
}
REACHES = {
    "batch-mur-10k": _ENGINE,
    "batch-mus-160": _ENGINE
    | {"counting.crs_count.aggregated_step_weights"},
    "serve-mur-1k": _ENGINE
    | {
        "io.instance_to_dict",
        "io.workload_from_dict",
        "io.batch_result_to_row",
        "service.client.estimate",
        "service.registry.handle",
        "service.registry.key_for",
        "service.batching.submit",
    },
}


def metric_units(section: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def cpu_ticks(cpu: int) -> tuple[int, int]:
    """``(steal, total)`` jiffies of one CPU since boot, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as stat:
        line = next(line for line in stat if line.startswith(f"cpu{cpu} "))
    fields = [int(value) for value in line.split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is in user)
    return fields[7], sum(fields[:8])


def environment() -> dict:
    import numpy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    lines = 0
    for path in sorted((SRC / "repro").rglob("*.py")):
        with open(path, encoding="utf-8") as source:
            lines += sum(1 for _ in source)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "src_repro_py_lines": lines,
    }


def pin_to_one_cpu() -> int:
    """Confine this process, and every process it starts, to one CPU.

    On a small virtual machine a vCPU that idles is handed back to the
    hypervisor and waits to be scheduled again when it wakes, and two busy
    vCPUs are stolen from far more often than one.  The benchmark runs one
    thing at a time (a batch call, or a client and a server that take
    turns), so on one CPU it keeps that CPU busy and steadies its timings.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_reference_ms() -> float:
    """Median wall time of a fixed piece of interpreter work, in ms.

    A note on how fast the host ran this run: on a shared host the same
    code can run at half speed for minutes with no steal time to show it.
    """
    times = []
    for _ in range(5):
        start = time.monotonic()
        total = 0
        for number in range(100_000):
            total += number * number % 7
        times.append(time.monotonic() - start)
    return statistics.median(times) * 1e3


# -- offline workloads -------------------------------------------------------------


def _survival(workload, database, constraints, fact) -> Fraction:
    from repro.counting.survival import ground_survival_mur, ground_survival_mus

    exact = ground_survival_mur if workload.generator == "M_ur" else ground_survival_mus
    return exact(database, constraints, {fact})


def run_batch(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Fresh-process ``batch_estimate`` calls until ``seconds`` have passed.

    Traced runs alternate untraced and traced calls, so that the tracing
    overhead is the difference of their median wall times.
    """
    from tracing import clock
    from workloads import batch_requests

    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + str(HERE))
    calls = []
    deadline = clock() + seconds
    while clock() < deadline or len(calls) < (4 if trace else 3):
        traced = trace and len(calls) % 2 == 1
        spawned = clock()
        completed = subprocess.run(
            [sys.executable, str(HERE / "offline.py"), workload.name, str(seed), str(int(traced))],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"offline call failed:\n{completed.stderr[-2000:]}")
        document = json.loads(completed.stdout.strip().splitlines()[-1])
        document["setup_s"] = document["ready"] - spawned
        document["traced"] = traced
        calls.append(document)

    # Correctness, outside the timed calls: each estimate against the
    # exact survival probability of its fact, and every call on this
    # seed against the first (seeded runs must repeat bit for bit).
    database, constraints, facts, requests = batch_requests(workload, seed)
    truths = [_survival(workload, database, constraints, fact) for fact in facts]
    failures = []
    attempted = failed = 0
    for number, call in enumerate(calls):
        for position, (row, truth) in enumerate(zip(call["rows"], truths)):
            attempted += 1
            if row[0] == "error":
                failed += 1
                failures.append(f"call {number} row {position}: {row[1]}")
            elif abs(Fraction(row[0]) - truth) > Fraction(workload.epsilon) * truth:
                failed += 1
                failures.append(
                    f"call {number} row {position}: estimate {row[0]} outside "
                    f"(1 ± {workload.epsilon}) · {float(truth)}"
                )
            elif row != calls[0]["rows"][position]:
                failed += 1
                failures.append(f"call {number} row {position}: differs from call 0")

    plain = [call for call in calls if not call["traced"]]
    result = {"attempted": attempted, "failed": failed, "failures": failures}
    walls = [call["batch_s"] for call in plain]
    if not trace:
        # Every row of a call arrives when batch_estimate returns, so a
        # row's latency is its call's wall time.  As when serving, the p90
        # is the median over windows -- here calls -- of the window's p90,
        # which within one call is the call's wall time.
        row_latencies = [wall for wall in walls for _ in requests]
        result["metrics"] = {
            "setup_s": statistics.median(call["setup_s"] for call in calls),
            "estimates_per_s": statistics.median(len(requests) / wall for wall in walls),
            "latency_p50_ms": statistics.median(row_latencies) * 1e3,
            "latency_p90_ms": statistics.median(walls) * 1e3,
            "peak_rss_mb": statistics.median(call["peak_rss_mb"] for call in plain),
        }
        result["notes"] = {
            "latency_samples": len(row_latencies),
            "latency_p99_ms over every row (not gated)": statistics.quantiles(
                row_latencies, n=100, method="inclusive"
            )[98]
            * 1e3,
        }
        return result
    traced_calls = [call for call in calls if call["traced"]]
    # Counts repeat exactly from call to call; median_low keeps them whole.
    layers = {
        name: statistics.median_low(call["layers"][name] for call in traced_calls)
        for name in traced_calls[0]["layers"]
    }
    traced_wall = statistics.median(call["batch_s"] for call in traced_calls)
    layers["bench.trace_overhead_s"] = traced_wall - statistics.median(walls)
    result["layers"] = layers
    admission = (
        layers["engine.session.decomposition_s"]
        + layers["engine.session.index_s"]
        + layers["engine.session.is_possible_s"]
    )
    result["shares"] = {
        "session admission (decomposition + index + is_possible), of the call": admission
        / traced_wall,
        "sampling.vectorized.draw_batch, of the call": layers["sampling.vectorized.draw_batch_s"]
        / traced_wall,
    }
    result["fired"] = traced_calls[0]["calls"]
    return result


# -- entry point ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminated(signum, frame):
    # Unwind like an exception, so that every server and child process
    # this run started is stopped by the code that started it.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    machine = environment()
    cpu = machine["cpu_pinned"] = pin_to_one_cpu()
    reference_before = host_reference_ms()
    steal_before, total_before = cpu_ticks(cpu)
    if workload.kind == "batch":
        result = run_batch(workload, args.seed, args.seconds, bool(args.trace))
    else:
        import serving

        result = serving.run(workload, args.seed, args.seconds, bool(args.trace))
    steal_after, total_after = cpu_ticks(cpu)
    machine["host_reference_ms"] = round((reference_before + host_reference_ms()) / 2, 3)
    # Time the hypervisor gave our CPU to other guests: a validity note,
    # since every timing here assumes the machine was ours.
    machine["steal_share_during_run"] = round(
        (steal_after - steal_before) / max(total_after - total_before, 1), 4
    )

    failures, attempted, failed = result["failures"], result["attempted"], result["failed"]
    if args.trace:
        # One more check: every wrapper on the workload's path fired.
        attempted += 1
        missing = sorted(name for name in REACHES[workload.name] if not result["fired"].get(name))
        if missing:
            failed += 1
            failures.append(f"trace wrappers saw no call: {', '.join(missing)}")
        values = dict(result["layers"], **{"bench.error_rate": failed / attempted})
        units = metric_units("per_layer")
    else:
        values = result["metrics"]
        units = metric_units("end_to_end")
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    correct = not failures

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    for note, value in result.get("notes", {}).items():
        print(f"  note: {note}: {value:.6g}")
    print(
        f"  {'error_rate':<48} {failed / attempted:>14.6g} "
        f"({failed} of {attempted} operations failed)"
    )
    for what, share in result.get("shares", {}).items():
        print(f"  share: {what}: {share:.3f}")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    print("environment " + json.dumps(machine, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
