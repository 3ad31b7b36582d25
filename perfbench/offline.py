"""One offline batch call in a fresh interpreter (a child of ``run.py``).

Usage: ``python3 perfbench/offline.py WORKLOAD SEED TRACE`` with the
repository's ``src`` on ``PYTHONPATH``.  Generates the workload's inputs,
times one serial ``batch_estimate(requests, seed=SEED)`` and prints one
JSON object: when set-up ended, the batch wall time, the result rows, the
peak resident set and, with ``TRACE`` = 1, the per-layer metrics and call
counts of the layers the call went through.
"""

from __future__ import annotations

import json
import sys

import tracing
from tracing import clock


def peak_rss_mb(pid: str = "self") -> float:
    """The process's resident-set high-water mark (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def main(argv) -> int:
    from repro.engine.batch import batch_estimate
    from workloads import WORKLOADS, batch_requests

    workload, seed, trace = WORKLOADS[argv[0]], int(argv[1]), argv[2] == "1"
    _, _, _, requests = batch_requests(workload, seed)
    ready = clock()
    recorder = None
    if trace:
        recorder = tracing.Recorder()
        recorder.install(tracing.OFFLINE_LAYERS)
    start = clock()
    results = batch_estimate(requests, seed=seed)
    end = clock()
    if recorder is not None:
        recorder.uninstall()
    rows = [
        [r.result.estimate, r.result.samples_used, r.result.method]
        if r.ok
        else ["error", r.error]
        for r in results
    ]
    document = {
        "ready": ready,
        "batch_s": end - start,
        "rows": rows,
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder is not None:
        used = max((row[1] for row in rows if row[0] != "error"), default=0)
        document["layers"] = dict(
            tracing.span_metrics(recorder.spans),
            **tracing.sampling_metrics(recorder.spans, used),
        )
        document["calls"] = tracing.calls_by_name(recorder.spans)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
