"""Tests for the metrics registry: primitives, labels, exposition."""

import json
import threading

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    get_registry,
    histogram_quantile,
    set_registry,
)


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help")
        second = registry.counter("c_total")
        first.inc()
        assert second.value == 1

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing")

    def test_label_schema_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("route",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("c_total", labelnames=("verb",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name")
        with pytest.raises(ValueError):
            registry.counter("ok_name", labelnames=("bad-label",))


class TestLabels:
    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", labelnames=("route",))
        family.labels(route="/a").inc(2)
        family.labels(route="/b").inc(3)
        assert family.labels(route="/a").value == 2
        assert family.labels(route="/b").value == 3

    def test_positional_and_keyword_labels_agree(self):
        family = MetricsRegistry().counter("c_total", labelnames=("x",))
        family.labels("v").inc()
        assert family.labels(x="v").value == 1

    def test_wrong_label_count_rejected(self):
        family = MetricsRegistry().counter("c_total", labelnames=("x", "y"))
        with pytest.raises(ValueError):
            family.labels("only-one")
        with pytest.raises(ValueError):
            family.labels(x="a", z="b")

    def test_unlabeled_shortcut_rejected_on_labeled_family(self):
        family = MetricsRegistry().counter("c_total", labelnames=("x",))
        with pytest.raises(ValueError, match="labeled"):
            family.inc()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec(0.5)
        assert gauge.value == pytest.approx(12.0)

    def test_scrape_time_function(self):
        gauge = MetricsRegistry().gauge("g")
        values = iter([1.0, 2.0])
        gauge.set_function(lambda: next(values))
        assert gauge.value == 1.0
        assert gauge.value == 2.0


class TestHistogram:
    def test_observe_and_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 5.0))
        for value in (0.5, 0.7, 3.0, 100.0):
            hist.observe(value)
        cumulative = dict(hist.cumulative_buckets())
        assert cumulative[1.0] == 2
        assert cumulative[5.0] == 3
        assert cumulative[float("inf")] == 4
        assert hist.count == 4
        assert hist.sum == pytest.approx(104.2)

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_bucket_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", buckets=(2.0,))


class TestHistogramQuantile:
    BOUNDS = (0.0005, 0.001, 0.0025)

    def _hist(self, *values):
        hist = MetricsRegistry().histogram("h", buckets=self.BOUNDS)
        for value in values:
            hist.observe(value)
        return hist.cumulative_buckets()

    def test_single_sample_interpolates_inside_its_bucket(self):
        # One 1 ms sample in (0.5, 1] ms: rank 0.5 of 1 lands halfway.
        assert histogram_quantile(0.5, self._hist(0.001)) == pytest.approx(
            0.00075
        )

    def test_empty_histogram_is_none(self):
        assert histogram_quantile(0.5, self._hist()) is None
        assert histogram_quantile(0.5, []) is None

    def test_target_in_inf_bucket_returns_last_finite_bound(self):
        buckets = self._hist(0.0002, 7.0, 9.0)
        assert histogram_quantile(0.99, buckets) == 0.0025

    def test_first_bucket_interpolates_from_zero(self):
        buckets = self._hist(0.0001, 0.0001, 0.0001, 0.0001)
        assert histogram_quantile(0.25, buckets) == pytest.approx(0.000125)


class TestPrometheusText:
    def test_counter_format(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Total requests").inc(7)
        text = registry.prometheus_text()
        assert "# HELP requests_total Total requests\n" in text
        assert "# TYPE requests_total counter\n" in text
        assert "\nrequests_total 7\n" in text

    def test_labeled_series_sorted_and_quoted(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", labelnames=("route",))
        family.labels(route="/b").inc()
        family.labels(route="/a").inc(2)
        text = registry.prometheus_text()
        assert text.index('hits_total{route="/a"} 2') < text.index(
            'hits_total{route="/b"} 1'
        )

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        family = registry.gauge("g", labelnames=("name",))
        family.labels(name='say "hi"\nback\\slash').set(1)
        text = registry.prometheus_text()
        assert r'name="say \"hi\"\nback\\slash"' in text

    def test_histogram_renders_inf_sum_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = registry.prometheus_text()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_sum 5.05" in text
        assert "lat_seconds_count 2" in text

    def test_every_series_line_parses(self):
        """Each non-comment line is `name{labels} value` with float value."""
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.gauge("b", labelnames=("x",)).labels(x="1").set(2.5)
        registry.histogram("c", buckets=(1.0,)).observe(0.5)
        for line in registry.prometheus_text().splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value_part = line.rsplit(" ", 1)
            assert name_part
            float(value_part)  # must parse

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().prometheus_text() == ""


class TestExemplars:
    def _hist(self, buckets=(0.1, 1.0)):
        return MetricsRegistry().histogram("lat_seconds", buckets=buckets)

    def test_observe_without_exemplar_retains_nothing(self):
        hist = self._hist()
        hist.observe(0.05)
        assert hist.exemplars() == []

    def test_latest_exemplar_per_bucket(self):
        hist = self._hist()
        hist.observe(0.04, exemplar="aaa")
        hist.observe(0.06, exemplar="bbb")  # same bucket: replaces aaa
        hist.observe(0.5, exemplar="ccc")
        retained = hist.exemplars()
        assert [(e.trace_id, e.value) for e in retained] == [
            ("bbb", 0.06), ("ccc", 0.5),
        ]
        assert [e.bucket_le for e in retained] == [0.1, 1.0]

    def test_overflow_bucket_le_is_inf(self):
        hist = self._hist()
        hist.observe(30.0, exemplar="slow")
        [exemplar] = hist.exemplars()
        assert exemplar.bucket_le == float("inf")

    def test_worst_exemplars_walks_highest_bucket_first(self):
        hist = self._hist()
        hist.observe(0.05, exemplar="fast")
        hist.observe(0.5, exemplar="mid")
        hist.observe(30.0, exemplar="slow")
        worst = hist.worst_exemplars(2)
        assert [e.trace_id for e in worst] == ["slow", "mid"]
        assert hist.worst_exemplars(0) == []
        assert [e.trace_id for e in hist.worst_exemplars(10)] == [
            "slow", "mid", "fast",
        ]

    def test_prometheus_text_exemplar_suffix(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05, exemplar="deadbeef0001")
        hist.observe(0.05)  # bare observation keeps the exemplar
        text = registry.prometheus_text()
        assert (
            'lat_seconds_bucket{le="0.1"} 2 '
            '# {trace_id="deadbeef0001"} 0.05'
        ) in text
        # Buckets without a retained exemplar render the classic line.
        assert 'lat_seconds_bucket{le="1"} 2\n' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2\n' in text

    def test_to_dict_exemplars_list(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1,))
        hist.observe(7.0, exemplar="cafe")
        snapshot = json.loads(json.dumps(registry.to_dict()))
        assert snapshot["lat_seconds"]["series"][0]["exemplars"] == [
            {"bucket": "+Inf", "value": 7.0, "trace_id": "cafe"}
        ]

    def test_labeled_series_keep_separate_exemplars(self):
        registry = MetricsRegistry()
        family = registry.histogram(
            "lat_seconds", buckets=(1.0,), labelnames=("route",)
        )
        family.labels(route="/a").observe(0.5, exemplar="aaa")
        family.labels(route="/b").observe(0.5, exemplar="bbb")
        by_route = {
            labels: [e.trace_id for e in child.exemplars()]
            for labels, child in family.series()
        }
        assert by_route == {("/a",): ["aaa"], ("/b",): ["bbb"]}


class TestJsonExposition:
    def test_to_dict_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = json.loads(json.dumps(registry.to_dict()))
        assert snapshot["c_total"]["type"] == "counter"
        assert snapshot["c_total"]["series"][0]["value"] == 3
        assert snapshot["h"]["series"][0]["count"] == 1
        assert snapshot["h"]["series"][0]["buckets"]["+Inf"] == 1


class TestRegistryLifecycle:
    def test_unregister_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        registry.counter("b_total")
        registry.unregister("a_total")
        assert registry.get("a_total") is None
        registry.reset()
        assert registry.families() == []

    def test_default_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        hist = registry.histogram("h", buckets=(0.5,))
        n_threads, n_iter = 8, 2000

        def worker():
            for _ in range(n_iter):
                counter.inc()
                hist.observe(0.1)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == n_threads * n_iter
        assert hist.count == n_threads * n_iter
