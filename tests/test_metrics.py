"""Unit tests for the dependency-free Prometheus metrics kernel.

:mod:`repro.service.metrics` backs ``GET /metrics``; these tests pin the
exposition format (HELP/TYPE lines, label rendering and escaping,
cumulative histogram buckets) and the parser the load-test harness uses
to assert counter monotonicity, without any server in the loop.
"""

import threading

import pytest

from repro.service.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_metrics_text,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c_total", "help")
        assert counter.value() == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("c_total", "help")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_series_are_independent(self):
        counter = Counter("req_total", "help", ("endpoint", "status"))
        counter.labels("/estimate", "200").inc(3)
        counter.labels("/estimate", "429").inc()
        assert counter.value("/estimate", "200") == 3
        assert counter.value("/estimate", "429") == 1
        assert counter.value("/answers", "200") == 0

    def test_labeled_counter_requires_labels(self):
        counter = Counter("req_total", "help", ("endpoint",))
        with pytest.raises(ValueError):
            counter.inc()
        with pytest.raises(ValueError):
            counter.labels("a", "b")

    def test_callback_counter_samples_external_state(self):
        state = {"served": 0}
        counter = Counter("served_total", "help", callback=lambda: state["served"])
        assert counter.value() == 0
        state["served"] = 7
        assert counter.value() == 7
        assert counter.render()[-1] == "served_total 7"

    def test_labeled_callback_counter_samples_a_mapping(self):
        state = {("spill", "enospc"): 2}
        counter = Counter("e_total", "help", ("op", "kind"), callback=lambda: state)
        assert counter.value("spill", "enospc") == 2
        assert counter.value("load", "corrupt") == 0
        state[("load", "corrupt")] = 1
        assert counter.render()[2:] == [
            'e_total{op="load",kind="corrupt"} 1',
            'e_total{op="spill",kind="enospc"} 2',
        ]
        with pytest.raises(ValueError):
            counter.labels("spill", "enospc").inc()

    def test_unlabeled_counter_renders_zero_sample(self):
        lines = Counter("c_total", "help").render()
        assert "# HELP c_total help" in lines
        assert "# TYPE c_total counter" in lines
        assert lines[-1] == "c_total 0"

    def test_labeled_counter_with_no_children_renders_no_samples(self):
        lines = Counter("c_total", "help", ("endpoint",)).render()
        assert lines == ["# HELP c_total help", "# TYPE c_total counter"]


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g", "help")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6

    def test_callback_gauge_is_read_only(self):
        gauge = Gauge("g", "help", callback=lambda: 1.5)
        assert gauge.value() == 1.5
        with pytest.raises(ValueError):
            gauge.set(0)
        with pytest.raises(ValueError):
            gauge.inc()


class TestHistogram:
    def test_buckets_are_cumulative(self):
        histogram = Histogram("h", "help", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        counts, total, count = histogram.snapshot()
        assert counts == [1, 3, 4, 5]  # <=0.1, <=1, <=10, +Inf
        assert count == 5
        assert total == pytest.approx(56.05)

    def test_rendered_bucket_counts_never_decrease_with_bound(self):
        histogram = Histogram("h", "help")  # default LATENCY_BUCKETS
        for value in (0.0001, 0.003, 0.02, 0.3, 42.0):
            histogram.observe(value)
        counts, _, _ = histogram.snapshot()
        assert counts == sorted(counts)
        assert len(counts) == len(LATENCY_BUCKETS) + 1

    def test_labeled_series(self):
        histogram = Histogram("h", "help", buckets=(1.0,), labelnames=("endpoint",))
        histogram.labels("/estimate").observe(0.5)
        histogram.labels("/estimate").observe(2.0)
        counts, total, count = histogram.snapshot("/estimate")
        assert counts == [1, 2]
        assert count == 2
        assert total == pytest.approx(2.5)
        lines = histogram.render()
        assert 'h_bucket{endpoint="/estimate",le="1"} 1' in lines
        assert 'h_bucket{endpoint="/estimate",le="+Inf"} 2' in lines
        assert 'h_count{endpoint="/estimate"} 2' in lines

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", "help", buckets=())

    def test_thread_safety_of_observations(self):
        histogram = Histogram("h", "help", buckets=(0.5,))

        def observe():
            for _ in range(1000):
                histogram.observe(0.1)

        threads = [threading.Thread(target=observe) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counts, _, count = histogram.snapshot()
        assert count == 4000
        assert counts == [4000, 4000]


class TestRegistry:
    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dup_total", "help")
        with pytest.raises(ValueError):
            registry.gauge("dup_total", "help")

    def test_render_parse_roundtrip(self):
        registry = MetricsRegistry()
        requests = registry.counter("req_total", "help", ("endpoint", "status"))
        requests.labels("/estimate", "200").inc(3)
        requests.labels("other", "404").inc()
        registry.gauge("up", "help").set(1)
        latency = registry.histogram("lat_seconds", "help", buckets=(1.0,))
        latency.observe(0.5)
        parsed = parse_metrics_text(registry.render())
        assert parsed['req_total{endpoint="/estimate",status="200"}'] == 3
        assert parsed['req_total{endpoint="other",status="404"}'] == 1
        assert parsed["up"] == 1
        assert parsed['lat_seconds_bucket{le="1"}'] == 1
        assert parsed['lat_seconds_bucket{le="+Inf"}'] == 1
        assert parsed["lat_seconds_count"] == 1
        assert parsed["lat_seconds_sum"] == 0.5


class TestParse:
    def test_labels_are_sorted_for_stable_keys(self):
        text = 'm{b="2",a="1"} 3\nm{a="1",b="2"} 3\n'
        parsed = parse_metrics_text(text)
        assert parsed == {'m{a="1",b="2"}': 3.0}

    def test_commas_and_escapes_inside_quoted_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("m_total", "help", ("path",))
        counter.labels('a,b"c\\d').inc()
        parsed = parse_metrics_text(registry.render())
        (key,) = [k for k in parsed if k.startswith("m_total{")]
        assert parsed[key] == 1.0

    def test_comments_and_blank_lines_skipped(self):
        text = "# HELP m help\n# TYPE m counter\n\nm 4\n"
        assert parse_metrics_text(text) == {"m": 4.0}
