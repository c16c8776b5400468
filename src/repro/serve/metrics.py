"""Serving-side counters and histograms.

:class:`ServeMetrics` is the serving counterpart of
:class:`repro.stream.metrics.StreamMetrics`: where the stream metrics
describe an ingestion node, these describe a query-serving node — request
and query counts, executed micro-batches, cache hits/misses and shed
(load-rejected) requests.  Both classes export the same ``to_dict()``
JSON shape (``counters`` / ``derived`` sections) so one dashboard can
scrape either node type.

Both classes are thin facades over a
:class:`repro.obs.MetricsRegistry`: every counter is a registry counter
family (``repro_serve_<name>_total``), and request latency, queue wait,
batch assembly and rows per batch are registry histograms.  The request
latency histogram is the one latency record: the derived p50/p95/p99
apply :func:`repro.obs.registry.histogram_quantile` to its cumulative
buckets — the same interpolation ``quantile(q,
repro_serve_request_latency_seconds[60s])`` runs over a window on
``GET /query`` — and :meth:`ServeMetrics.prometheus_text` renders the
whole node state for the serve endpoint's ``GET /metrics``.  Each
instance owns a private registry by default so independent services stay
independent; pass a shared registry explicitly to merge several
components onto one exposition surface.

All mutators are thread-safe: the serving layer updates metrics from
worker threads, HTTP handler threads, and client threads concurrently.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.obs.registry import MetricsRegistry, histogram_quantile
from repro.obs.trace import current_trace_id

#: Bucket bounds of the exposition latency histograms (seconds).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Bucket bounds of the rows-per-batch exposition histogram.
BATCH_ROW_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class ServeMetrics:
    """Counters, gauges and histograms for one server.

    Args:
        registry: back the metrics onto this
            :class:`~repro.obs.MetricsRegistry` (a fresh private one by
            default).  Sharing a registry between components merges them
            onto one Prometheus exposition surface.
    """

    #: Counter names, in reporting order.
    COUNTERS = (
        "requests",
        "vectors_classified",
        "batches_executed",
        "cache_hits",
        "cache_misses",
        "shed_requests",
        "errors",
        "reloads",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(
                f"repro_serve_{name}_total",
                f"Serving counter: {name.replace('_', ' ')}",
            )
            for name in self.COUNTERS
        }
        self._lock = threading.Lock()
        self._latency_hist = self.registry.histogram(
            "repro_serve_request_latency_seconds",
            "End-to-end request latency",
            buckets=LATENCY_BUCKETS,
        )
        self._queue_wait_hist = self.registry.histogram(
            "repro_serve_queue_wait_seconds",
            "Time requests spent queued before batch execution",
            buckets=LATENCY_BUCKETS,
        )
        self._assembly_hist = self.registry.histogram(
            "repro_serve_batch_assembly_seconds",
            "Gather window spent assembling each micro-batch",
            buckets=LATENCY_BUCKETS,
        )
        self._batch_rows_hist = self.registry.histogram(
            "repro_serve_batch_rows",
            "Stacked rows per executed micro-batch",
            buckets=BATCH_ROW_BUCKETS,
        )
        self._first_request: Optional[float] = None
        self._last_request: Optional[float] = None
        # Scrape-time gauges: evaluated at exposition, never stored.
        self.registry.gauge(
            "repro_serve_qps", "Completed requests per second"
        ).set_function(self.qps)
        self.registry.gauge(
            "repro_serve_cache_hit_rate",
            "Fraction of vector lookups answered from cache (0 before any)",
        ).set_function(lambda: self.cache_hit_rate() or 0.0)

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment one counter."""
        counter = self._counters.get(name)
        if counter is None:
            raise KeyError(f"unknown counter {name!r}")
        counter.inc(int(amount))

    def count(self, name: str) -> int:
        """Current value of one counter."""
        counter = self._counters.get(name)
        if counter is None:
            raise KeyError(f"unknown counter {name!r}")
        return int(counter.value)

    def observe_request(self, latency_seconds: float,
                        n_vectors: int = 1) -> None:
        """Record one completed request and its end-to-end latency."""
        now = time.perf_counter()
        self._counters["requests"].inc()
        self._counters["vectors_classified"].inc(int(n_vectors))
        with self._lock:
            if self._first_request is None:
                self._first_request = now
            self._last_request = now
        # With tracing on, the active trace id rides along as the
        # histogram exemplar, so a latency-SLO violation names the
        # exact trace to replay.  One thread-local read per request.
        self._latency_hist.observe(
            latency_seconds, exemplar=current_trace_id()
        )

    def observe_batch(self, n_rows: int) -> None:
        """Record one executed micro-batch of ``n_rows`` stacked vectors."""
        rows = int(n_rows)
        self._counters["batches_executed"].inc()
        self._batch_rows_hist.observe(rows)

    def observe_queue_wait(self, seconds: float) -> None:
        """Record one request's queue wait (submit -> batch execution)."""
        self._queue_wait_hist.observe(seconds)

    def observe_assembly(self, seconds: float) -> None:
        """Record one micro-batch's gather (assembly) window."""
        self._assembly_hist.observe(seconds)

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------

    def qps(self) -> float:
        """Completed requests per second over the observed request span."""
        requests = self.count("requests")
        with self._lock:
            first, last = self._first_request, self._last_request
        if requests < 2 or first is None or last is None or last <= first:
            return 0.0
        return requests / (last - first)

    def cache_hit_rate(self) -> Optional[float]:
        """Fraction of vector lookups answered from cache (None if no lookups)."""
        hits = self.count("cache_hits")
        misses = self.count("cache_misses")
        total = hits + misses
        return hits / total if total else None

    def mean_batch_size(self) -> float:
        """Average rows per executed micro-batch (0.0 before any batch)."""
        _, total, batches = self._batch_rows_hist.snapshot()
        return total / batches if batches else 0.0

    def latency_quantiles_ms(self) -> Dict[str, Optional[float]]:
        """p50/p95/p99 request latency in ms (None before any request).

        Interpolated from one snapshot of the request-latency histogram's
        cumulative buckets, so the trio is mutually consistent.
        """
        buckets = self._latency_hist.cumulative_buckets()
        quantiles: Dict[str, Optional[float]] = {}
        for q in (50, 95, 99):
            seconds = histogram_quantile(q / 100, buckets)
            quantiles[f"p{q}_ms"] = None if seconds is None else seconds * 1e3
        return quantiles

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Human-readable metrics block."""
        hit_rate = self.cache_hit_rate()
        q = self.latency_quantiles_ms()
        lines = [
            f"requests served:   {self.count('requests')} "
            f"({self.qps():,.0f} qps)",
            f"vectors classified: {self.count('vectors_classified')}",
            f"micro-batches:     {self.count('batches_executed')} "
            f"(mean size {self.mean_batch_size():.1f})",
            "latency:           "
            + (f"p50 {q['p50_ms']:.2f} ms, p95 {q['p95_ms']:.2f} ms, "
               f"p99 {q['p99_ms']:.2f} ms" if q["p50_ms"] is not None
               else "n/a"),
            f"cache hit rate:    "
            + (f"{hit_rate:.1%}" if hit_rate is not None else "n/a"),
            f"shed requests:     {self.count('shed_requests')}",
            f"errors:            {self.count('errors')}",
            f"profile reloads:   {self.count('reloads')}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (same shape as StreamMetrics)."""
        counters = {name: self.count(name) for name in self.COUNTERS}
        hit_rate = self.cache_hit_rate()
        derived: Dict[str, object] = {
            "qps": self.qps(),
            "mean_batch_size": self.mean_batch_size(),
            "cache_hit_rate": hit_rate,
        }
        derived.update(self.latency_quantiles_ms())
        return {
            "counters": counters,
            "derived": derived,
            # Monotonic stamp so TSDB ingestion and bench_compare diffs
            # can reject a stale (cached / re-served) snapshot: any
            # fresh read has a strictly larger value within a process.
            "snapshot_ts": time.monotonic(),
        }

    def prometheus_text(self) -> str:
        """This node's registry in the Prometheus text exposition format."""
        return self.registry.prometheus_text()

