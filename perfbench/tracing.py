"""Span recording around calls into the program's layers, from outside it.

The benchmark times each layer by replacing a public function with a
wrapper at the place its caller looks the name up (a module global for
``from x import f`` imports, a class attribute for methods).  A wrapper
records one span per call: name, start, end, its own id, the id of the
span that was open when it was called (per thread and per asyncio task,
through a context variable) and an optional tag used to link spans across
threads.  Spans stay in memory until :meth:`Recorder.dump`.

Clock: ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux), so spans from
the server process and the load generator share one time base.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import time
from collections import defaultdict

clock = time.monotonic


# Tags, from a call's positional arguments (every traced caller passes
# these positionally).


def _tag_run_group(args):  # run_group(session, pool, members, mode)
    return [id(request) for _, request in args[2]]


def _tag_submit(args):  # MicroBatcher.submit(self, database, constraints, generator, requests, mode)
    return id(args[4][0])


def _tag_draw_batch(args):  # plane.draw_batch(self, batch_index, size)
    return args[2]


#: Every traced layer: span name -> (kind, lookup sites, tag function).
#: A lookup site is ``(module, attribute path)``; every site a caller can
#: reach the function through is patched, because ``from m import f``
#: copies the binding into the importing module.
LAYERS = {
    "engine.batch.run_group": (
        "function",
        [("repro.engine.batch", "run_group"), ("repro.service.registry", "run_group")],
        _tag_run_group,
    ),
    "engine.batch.group_seed_for": (
        "function",
        [
            ("repro.engine.batch", "group_seed_for"),
            ("repro.service.registry", "group_seed_for"),
        ],
        None,
    ),
    "engine.store.instance_cache_key": (
        "function",
        [
            ("repro.engine.batch", "instance_cache_key"),
            ("repro.service.registry", "instance_cache_key"),
        ],
        None,
    ),
    "engine.session.decomposition": (
        "function",
        [("repro.engine.session", "EstimationSession.decomposition")],
        None,
    ),
    "engine.session.index": (
        "function",
        [("repro.engine.session", "EstimationSession.index")],
        None,
    ),
    "engine.session.is_possible": (
        "function",
        [("repro.engine.session", "EstimationSession.is_possible")],
        None,
    ),
    "engine.session.witness_masks": (
        "function",
        [("repro.engine.session", "EstimationSession.witness_masks")],
        None,
    ),
    "engine.session.estimate_pooled": (
        "function",
        [("repro.engine.session", "EstimationSession.estimate_pooled")],
        None,
    ),
    "engine.session.pool_ensure": (
        "function",
        [("repro.engine.session", "SamplePool.ensure")],
        None,
    ),
    # Both planes inherit draw_batch/scatter from the shared base class.
    "sampling.vectorized.draw_batch": (
        "function",
        [("repro.sampling.vectorized", "_BlockPlane.draw_batch")],
        _tag_draw_batch,
    ),
    "sampling.vectorized.scatter": (
        "function",
        [("repro.sampling.vectorized", "_BlockPlane.scatter")],
        None,
    ),
    # The session calls it as ``vectorized_plane.batch_hit_flags``.
    "sampling.vectorized.batch_hit_flags": (
        "function",
        [("repro.sampling.vectorized", "batch_hit_flags")],
        None,
    ),
    # Looked up in the vectorized module, which imports it by name.
    "counting.crs_count.aggregated_step_weights": (
        "function",
        [("repro.sampling.vectorized", "aggregated_step_weights")],
        None,
    ),
    "io.instance_to_dict": (
        "function",
        [("repro.service.client", "instance_to_dict")],
        None,
    ),
    "io.workload_from_dict": (
        "function",
        [("repro.service.server", "workload_from_dict")],
        None,
    ),
    "io.batch_result_to_row": (
        "function",
        [("repro.service.server", "batch_result_to_row")],
        None,
    ),
    "service.client.estimate": (
        "function",
        [("repro.service.client", "ServiceClient.estimate")],
        None,
    ),
    "service.registry.handle": (
        "function",
        [("repro.service.registry", "SessionRegistry.handle")],
        None,
    ),
    "service.registry.key_for": (
        "function",
        [("repro.service.registry", "SessionRegistry.key_for")],
        None,
    ),
    "service.batching.submit": (
        "coroutine",
        [("repro.service.batching", "MicroBatcher.submit")],
        _tag_submit,
    ),
}

#: The layers each process of a workload reaches.
OFFLINE_LAYERS = [
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
    "counting.crs_count.aggregated_step_weights",
]
SERVER_LAYERS = OFFLINE_LAYERS + [
    "io.workload_from_dict",
    "io.batch_result_to_row",
    "service.registry.handle",
    "service.registry.key_for",
    "service.batching.submit",
]
CLIENT_LAYERS = ["service.client.estimate", "io.instance_to_dict"]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Recorder:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._patched: list[tuple[object, str, object]] = []

    def _function_wrapper(self, name, function, tag):
        spans, ids, current = self.spans, self._ids, self._current

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append((name, start, end, span_id, parent, tag(args) if tag else None))

        return wrapper

    def _coroutine_wrapper(self, name, function, tag):
        spans, ids, current = self.spans, self._ids, self._current

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            try:
                return await function(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append((name, start, end, span_id, parent, tag(args) if tag else None))

        return wrapper

    def install(self, names) -> None:
        """Wrap every lookup site of the named layers."""
        for name in names:
            kind, sites, tag = LAYERS[name]
            make = self._coroutine_wrapper if kind == "coroutine" else self._function_wrapper
            for module_name, path in sites:
                owner, attribute = _resolve(module_name, path)
                original = getattr(owner, attribute)
                setattr(owner, attribute, make(name, original, tag))
                self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


def calls_by_name(spans) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[0]] += 1
    return dict(counts)


def totals(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self seconds per span name.

    A span's self time is its duration minus the time its direct children
    cover.  Children run on their parent's thread (or task) between its
    start and end, one after another, so their durations add up.
    """
    total: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, _, parent, _ in spans:
        total[name] += end - start
        if parent:
            child_time[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    for name, start, end, span_id, _, _ in spans:
        own[name] += (end - start) - child_time.get(span_id, 0.0)
    return dict(total), dict(own)


#: Per-layer metrics read off span sums: metric -> (span name, what).
#: ``self`` is used where a layer's traced children are reported on their own.
SPAN_METRICS = {
    "engine.batch.run_group_s": ("engine.batch.run_group", "self"),
    "engine.batch.group_seed_for_s": ("engine.batch.group_seed_for", "total"),
    "engine.session.decomposition_s": ("engine.session.decomposition", "total"),
    "engine.session.index_s": ("engine.session.index", "self"),
    "engine.session.is_possible_s": ("engine.session.is_possible", "total"),
    "engine.session.is_possible_calls": ("engine.session.is_possible", "calls"),
    "engine.session.witness_masks_s": ("engine.session.witness_masks", "total"),
    "engine.session.pool_ensure_s": ("engine.session.pool_ensure", "self"),
    "engine.session.estimate_pooled_s": ("engine.session.estimate_pooled", "self"),
    "sampling.vectorized.draw_batch_s": ("sampling.vectorized.draw_batch", "total"),
    "sampling.vectorized.draw_batch_calls": ("sampling.vectorized.draw_batch", "calls"),
    "sampling.vectorized.scatter_s": ("sampling.vectorized.scatter", "total"),
    "sampling.vectorized.batch_hit_flags_s": ("sampling.vectorized.batch_hit_flags", "total"),
    "counting.crs_count.aggregated_step_weights_s": (
        "counting.crs_count.aggregated_step_weights",
        "total",
    ),
    "counting.crs_count.aggregated_step_weights_calls": (
        "counting.crs_count.aggregated_step_weights",
        "calls",
    ),
    "engine.store.instance_cache_key_s": ("engine.store.instance_cache_key", "total"),
    "io.workload_from_dict_s": ("io.workload_from_dict", "total"),
    "io.batch_result_to_row_s": ("io.batch_result_to_row", "total"),
    "service.registry.handle_s": ("service.registry.handle", "total"),
    "service.registry.key_for_s": ("service.registry.key_for", "total"),
}


def span_metrics(spans, operations: int = 1) -> dict:
    """The :data:`SPAN_METRICS` of ``spans``; seconds per operation."""
    total, own = totals(spans)
    sums = {"total": total, "self": own, "calls": calls_by_name(spans)}
    metrics = {}
    for metric, (name, what) in SPAN_METRICS.items():
        value = sums[what].get(name, 0)
        metrics[metric] = value if what == "calls" else value / operations
    return metrics


def sampling_metrics(spans, samples_used: int) -> dict:
    """Samples drawn, the share the largest request used, and draw cost per sample."""
    draws = [span for span in spans if span[0] == "sampling.vectorized.draw_batch"]
    drawn = sum(span[5] for span in draws)
    seconds = sum(span[2] - span[1] for span in draws)
    return {
        "engine.session.samples_drawn": drawn,
        "engine.session.samples_used_ratio": samples_used / drawn if drawn else 0.0,
        "sampling.vectorized.us_per_sample": seconds * 1e6 / drawn if drawn else 0.0,
    }


def within(spans, start: float, end: float) -> list[tuple]:
    """The spans that started inside ``[start, end]``."""
    return [span for span in spans if start <= span[1] <= end]


def queue_waits(spans) -> list[float]:
    """Per micro-batcher submit: its self time minus the run_group span serving it.

    The two run on different threads, so they are linked by the identity
    of the submitted request (the batcher hands the same request objects
    to run_group) and by the run_group span lying inside the submit span.
    Traced calls made by submit itself (the registry key lookup) are not
    waiting, so they are left out through its self time.
    """
    groups_by_request: dict[int, list[tuple]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[0] == "engine.batch.run_group" and span[5]:
            for request_id in span[5]:
                groups_by_request[request_id].append(span)
        if span[4]:
            child_time[span[4]] += span[2] - span[1]
    waits = []
    for name, start, end, span_id, _, tag in spans:
        if name != "service.batching.submit" or tag is None:
            continue
        for group in groups_by_request.get(tag, ()):
            if start <= group[1] and group[2] <= end:
                own = (end - start) - child_time.get(span_id, 0.0)
                waits.append(own - (group[2] - group[1]))
                break
    return waits
