"""Tests for the serving-side metrics: counters, latency, export."""

import json

import pytest

from repro.obs.tsdb import MetricsTSDB
from repro.serve.metrics import ServeMetrics


class TestServeMetrics:
    def test_counters_and_requests(self):
        metrics = ServeMetrics()
        metrics.observe_request(0.001, n_vectors=3)
        metrics.observe_request(0.002, n_vectors=1)
        metrics.incr("cache_hits", 2)
        metrics.incr("cache_misses", 2)
        assert metrics.count("requests") == 2
        assert metrics.count("vectors_classified") == 4
        assert metrics.cache_hit_rate() == pytest.approx(0.5)

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ServeMetrics().incr("nope")

    def test_cache_hit_rate_none_before_lookups(self):
        assert ServeMetrics().cache_hit_rate() is None

    def test_batch_histogram_and_mean(self):
        metrics = ServeMetrics()
        metrics.observe_batch(4)
        metrics.observe_batch(4)
        metrics.observe_batch(16)
        assert metrics.registry.get("repro_serve_batch_rows").count == 3
        assert metrics.mean_batch_size() == pytest.approx(8.0)

    def test_qps_zero_until_two_requests(self):
        metrics = ServeMetrics()
        assert metrics.qps() == 0.0
        metrics.observe_request(0.001)
        assert metrics.qps() == 0.0

    def test_to_dict_is_json_serializable(self):
        metrics = ServeMetrics()
        metrics.observe_request(0.001, n_vectors=2)
        metrics.observe_batch(2)
        snapshot = metrics.to_dict()
        text = json.dumps(snapshot)
        assert "counters" in snapshot and "derived" in snapshot
        assert snapshot["counters"]["requests"] == 1
        # One 1 ms sample in the (0.5, 1] ms bucket: p50 sits halfway.
        assert json.loads(text)["derived"]["p50_ms"] == pytest.approx(0.75)
        assert json.loads(text)["derived"]["mean_batch_size"] == 2.0

    def test_to_dict_snapshot_ts_is_monotonic(self):
        metrics = ServeMetrics()
        first = metrics.to_dict()["snapshot_ts"]
        second = metrics.to_dict()["snapshot_ts"]
        assert isinstance(first, float)
        assert second >= first

    def test_summary_mentions_key_lines(self):
        metrics = ServeMetrics()
        metrics.observe_request(0.001)
        text = metrics.summary()
        assert "requests served" in text
        assert "cache hit rate:    n/a" in text
        assert "p95" in text

    def test_latency_quantiles_ms_keys(self):
        metrics = ServeMetrics()
        assert metrics.latency_quantiles_ms() == {
            "p50_ms": None, "p95_ms": None, "p99_ms": None,
        }
        metrics.observe_request(0.002)
        quantiles = metrics.latency_quantiles_ms()
        assert set(quantiles) == {"p50_ms", "p95_ms", "p99_ms"}
        # (1, 2.5] ms bucket, rank 0.5 of 1.
        assert quantiles["p50_ms"] == pytest.approx(1.75)

    def test_summary_before_any_request(self):
        assert "latency:           n/a" in ServeMetrics().summary()

    def test_p95_matches_tsdb_quantile_over_time(self):
        # One interpolation serves both the snapshot and GET /query.
        metrics = ServeMetrics()
        tsdb = MetricsTSDB(metrics.registry)
        # The empty read also creates the series the baseline scrape sees.
        assert metrics.to_dict()["derived"]["p95_ms"] is None
        tsdb.record(now=0.0)
        for ms in (0.3, 0.7, 1.2, 2.0, 3.0, 4.5, 8.0, 20.0, 60.0, 300.0):
            metrics.observe_request(ms / 1e3)
        tsdb.record(now=10.0)
        windowed = tsdb.quantile_over_time(
            0.95, "repro_serve_request_latency_seconds", 60.0, now=10.0
        )
        assert windowed == pytest.approx(0.375)  # halfway into (0.25, 0.5]
        assert metrics.to_dict()["derived"]["p95_ms"] == windowed * 1e3
