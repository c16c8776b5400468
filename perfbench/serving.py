"""The two serving workloads: ``serve_http`` and ``serve_inproc``.

Both serve an artifact that the offline pass (``offline.py``) builds in a
child process at ``SERVE_SCALE``, once per source revision in a checkout
(``serving_artifact``); every run checks the artifact against the pinned
digests.  The served model is the node's deployment and stays the same
from run to run (``ARTIFACT_SEED``); the
workload seed drives what arrives at it: the query rows, the request mix
and the arrival schedule.  Query rows are reference antennas with
log-normal noise on every service volume, so every row is new to the
model; the program receives only these rows.

Cache behaviour is set by construction, not by chance: the "cold" pools
are larger than the default 4,096-entry result cache and are walked
cyclically, so under LRU every cold lookup misses (a row's key is evicted
long before the walk comes back to it), while the 64-row hot sets are
touched often enough to stay resident.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from array import array
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    ROOT,
    GateFailure,
    MetricDelta,
    ThreadGroup,
    log,
    mapping_digest,
    median,
    parse_prometheus,
    peak_rss_mb,
    per_call_us,
    percentile,
    process_peak_rss_mb,
    median_figures,
    source_digest,
    time_call,
    window_figures,
)
from offline import (
    DATASET_SEED,
    GATE_EXIT,
    artifact_digests,
    check_pinned,
    dataset_digest,
    generate,
    pinned_digests,
    scale_key,
)
from repro.serve import HttpServeClient, ProfileService, ShedRequest
from repro.serve.cache import ResultCache, quantize_key
from repro.stream.frozen import FrozenProfile

#: Dataset scale of the served artifact (``scaled_specs``; ~480 antennas).
#: Request cost does not depend on it (trees are depth-capped); load time
#: and the build's fit do, and at paper scale four cold starts per run
#: would not fit the run budget.
SERVE_SCALE = 0.1
#: Dataset seed of the served artifact (the paper-reproduction seed), so
#: that the artifact's pinned digests apply.
ARTIFACT_SEED = DATASET_SEED
#: Built serving artifacts, one per source digest and scale (git-ignored).
ARTIFACT_CACHE = ROOT / ".perfbench_cache"

#: Server children (serve_http) or services (serve_inproc) per run, each
#: set up cold and measured for an equal share of the window; ``setup_s``
#: is the median of their set-up times.
SETUP_REPEATS = 3

HOT_ROWS = 64
#: Above the default 4,096-entry cache, so a cyclic walk always misses.
COLD_ROWS = 4608
COLD_VOLUME_ROWS = 512
BATCH_ROWS = 32
#: serve_http request mix; the rest are single-row RSCA vectors.
VOLUME_SHARE = 0.10
BATCH_SHARE = 0.05
#: Share of single-row requests (vectors and volumes) drawn from hot sets.
HOT_SHARE = 0.5
HTTP_CLIENTS = 2
HTTP_WARMUP_REQUESTS = 256
CONNECT_PROBE_INTERVAL_S = 0.05

#: serve_inproc open-loop offered rate (Poisson arrivals): light load, at
#: which a request mostly rides the 2 ms batch window alone.
OPEN_RATE = 300.0
#: Share of a serve_inproc run spent in the open loop, whose latencies are
#: reported but not bounded (they swing most with the host's load); the
#: saturating phase, which gives the end-to-end figures, takes the rest.
OPEN_LOOP_SHARE = 1 / 4
#: serve_inproc saturating window: half the default admission watermark.
INFLIGHT_WINDOW = 128
INPROC_WARMUP_REQUESTS = 512

#: Throughput and p50/p90 are medians over sub-windows of about this
#: length of every measured phase (``common.window_figures``).
SUB_WINDOW_S = 2.0
TIMEOUT_S = 10.0
SERVER_START_LIMIT_S = 120.0
PLAN_SIZE = 50_000

VECTOR, VOLUME, BATCH = 0, 1, 2


# ----------------------------------------------------------------------
# Inputs and the oracle
# ----------------------------------------------------------------------


class QueryPool:
    """Seeded query rows plus their reference labels.

    Expected labels come from ``FrozenProfile.vote`` (the object forest
    plus nearest centroid) on the very rows sent; volume rows go through
    ``FrozenProfile.rsca_of_volumes`` first.  Both are computed lazily,
    once per pool, after the measured window.
    """

    def __init__(self, frozen: FrozenProfile, totals: np.ndarray, seed: int) -> None:
        self._frozen = frozen
        rng = np.random.default_rng([seed, 17])

        def noisy(n: int) -> np.ndarray:
            rows = totals[rng.integers(0, totals.shape[0], size=n)]
            return rows * rng.lognormal(0.0, 0.1, size=rows.shape)

        self.volumes = {"hot": noisy(HOT_ROWS), "cold": noisy(COLD_VOLUME_ROWS)}
        self.vectors = {
            "hot": frozen.rsca_of_volumes(noisy(HOT_ROWS)),
            "cold": frozen.rsca_of_volumes(noisy(COLD_ROWS)),
        }
        self._expected: Dict[Tuple[str, str], np.ndarray] = {}

    def rows(self, kind: str, pool: str, index: int, n: int = 1) -> np.ndarray:
        source = (self.vectors if kind == "vectors" else self.volumes)[pool]
        picks = (index + np.arange(n)) % source.shape[0]
        return source[picks]

    def expected(self, kind: str, pool: str, index: int, n: int = 1) -> np.ndarray:
        key = (kind, pool)
        if key not in self._expected:
            if kind == "vectors":
                features = self.vectors[pool]
            else:
                features = self._frozen.rsca_of_volumes(self.volumes[pool])
            self._expected[key] = self._frozen.vote(features)
        labels = self._expected[key]
        return labels[(index + np.arange(n)) % labels.size]


def check_labels(answers, pool: QueryPool) -> int:
    """Every answered label must equal the oracle's; returns rows checked."""
    rows = 0
    for (kind, name, index, n), labels in answers:
        want = pool.expected(kind, name, index, n)
        got = np.asarray(labels, dtype=int)
        if got.shape != want.shape or not np.array_equal(got, want):
            raise GateFailure(
                f"{kind}/{name} rows {index}..{index + n - 1}: served "
                f"{got.tolist()}, reference vote {want.tolist()}"
            )
        rows += n
    return rows


def one_label(row: int, labels: np.ndarray) -> int:
    """The single label answered for cold vector ``row``."""
    if labels.shape != (1,):
        raise GateFailure(f"vectors/cold row {row}: {labels.size} labels for one vector")
    return int(labels[0])


def check_cold_vectors(rows, labels, pool: QueryPool) -> int:
    """``check_labels`` for single-row answers from the cold vector pool."""
    rows = np.asarray(rows, dtype=np.int64)
    got = np.asarray(labels, dtype=int)
    size = pool.vectors["cold"].shape[0]
    want = pool.expected("vectors", "cold", 0, size)[rows % size]
    bad = np.flatnonzero(got != want)
    if bad.size:
        i = int(bad[0])
        raise GateFailure(f"vectors/cold row {rows[i]}: served {got[i]}, "
                          f"reference vote {want[i]}")
    return int(rows.size)


def load_oracle(artifact: Path) -> Tuple[float, FrozenProfile]:
    """Load the artifact; its refit forest must compile to the saved arrays."""
    seconds, frozen = time_call(FrozenProfile.load, artifact)
    refit = mapping_digest(frozen.surrogate.compile().to_arrays())
    if frozen.compiled is None or refit != mapping_digest(frozen.compiled.to_arrays()):
        raise GateFailure("refit-on-load forest differs from the saved compiled forest")
    return seconds, frozen


def build_artifact(artifact: Path, scale: float) -> Dict[str, object]:
    """Run the offline pass in a child process; returns its JSON report."""
    cmd = [
        sys.executable, str(Path(__file__).with_name("offline.py")),
        "--scale", str(scale), "--artifact", str(artifact), "--no-explain",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if done.returncode == GATE_EXIT:
        raise GateFailure(done.stderr.strip().splitlines()[-1])
    if done.returncode != 0:
        raise RuntimeError(f"artifact build failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def serving_artifact(scale: float) -> Tuple[Path, Dict[str, str]]:
    """The artifact to serve, and the gates of its build.

    The code under test builds it (``build_artifact``) on the first run
    of a source revision in a checkout; later runs of the same source
    reuse it, so a run spends its time serving.  ``check_served``
    checks it against the pinned digests on every run.
    """
    artifact = ARTIFACT_CACHE / f"serve-{scale_key(scale)}-{source_digest()}.npz"
    if artifact.exists():
        return artifact, {"artifact_build": "reused"}
    ARTIFACT_CACHE.mkdir(exist_ok=True)
    partial = artifact.with_suffix(f".{os.getpid()}.npz")
    try:
        build = build_artifact(partial, scale)
        os.replace(partial, artifact)
    finally:
        partial.unlink(missing_ok=True)
    return artifact, dict(build["gates"], artifact_build="built")


def check_served(artifact: Path, dataset, scale: float) -> Dict[str, str]:
    """The served artifact and its dataset must match the pinned digests."""
    digests = artifact_digests(artifact)
    digests["dataset"] = dataset_digest(dataset)
    pinned = pinned_digests(scale)
    check_pinned({name: digests[name] for name in pinned}, pinned)
    return digests


def layer_probes(frozen: FrozenProfile, pool: QueryPool) -> Dict[str, float]:
    """Direct calls into the cache and the compiled kernel, after the load."""
    rows = pool.vectors["cold"]
    keys = [(1, quantize_key(row)) for row in rows]
    cache = ResultCache()
    for i in range(cache.maxsize):
        cache.put((0, i), 0)
    kernel = frozen.kernel()
    kernel.vote(rows[:64])
    batches = [rows[i:i + 64] for i in range(0, rows.shape[0] - 63, 64)]
    b64 = per_call_us(lambda i: kernel.vote(batches[i % len(batches)]), 100)
    return {
        "serve.cache.key_us": per_call_us(lambda i: quantize_key(rows[i]), 2000),
        "serve.cache.put_us": per_call_us(lambda i: cache.put(keys[i], 1), 2000),
        "ml.compiled.vote_us_per_row.b1": per_call_us(
            lambda i: kernel.vote(rows[i:i + 1]), 1000),
        "ml.compiled.vote_us_per_row.b64": b64 / 64.0,
    }


def p99_ms(latencies_s: List[float]) -> float:
    """Whole-phase p99 in ms (reported, not bounded)."""
    return percentile(np.asarray(latencies_s) * 1e3, 99)


def sub_windows(seconds: float) -> int:
    """How many sub-windows of about ``SUB_WINDOW_S`` fit in ``seconds``."""
    return max(1, round(seconds / SUB_WINDOW_S))


# ----------------------------------------------------------------------
# serve_http
# ----------------------------------------------------------------------


class ServerChild:
    """``python -m repro serve --frozen ... --port 0`` as a managed child.

    The child is always stopped on exit from the ``with`` block: SIGINT
    (the CLI's clean shutdown), then SIGKILL if it has not ended.
    """

    def __init__(self, artifact: Path, workdir: Path, index: int) -> None:
        self._artifact = artifact
        self._stderr_path = workdir / f"server-{index}.stderr"
        self.proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None
        self.url = ""
        self.setup_s = 0.0

    def __enter__(self) -> "ServerChild":
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, "-m", "repro", "serve",
               "--frozen", str(self._artifact), "--port", "0"]
        start = time.perf_counter()
        with open(self._stderr_path, "w", encoding="utf-8") as stderr:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                         stdout=subprocess.PIPE, stderr=stderr)
        try:
            self.url = self._read_url(deadline=start + SERVER_START_LIMIT_S)
            client = HttpServeClient(self.url, timeout=TIMEOUT_S)
            while True:
                try:
                    client.healthz()
                    break
                except (OSError, RuntimeError):
                    self._check_alive(start + SERVER_START_LIMIT_S)
                    time.sleep(0.002)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise
        return self

    def _check_alive(self, deadline: float) -> None:
        assert self.proc is not None
        if self.proc.poll() is not None or time.perf_counter() > deadline:
            tail = self._stderr_path.read_text(encoding="utf-8")[-2000:]
            raise RuntimeError(f"server child did not come up:\n{tail}")

    def _read_url(self, deadline: float) -> str:
        lines: "queue.Queue[str]" = queue.Queue()
        assert self.proc is not None and self.proc.stdout is not None
        stdout = self.proc.stdout
        self._reader = threading.Thread(
            target=lambda: [lines.put(line) for line in iter(stdout.readline, "")],
            daemon=True)
        self._reader.start()
        while True:
            try:
                line = lines.get(timeout=0.05)
            except queue.Empty:
                self._check_alive(deadline)
                continue
            match = re.search(r" on (http://\S+)", line)
            if match:
                return match.group(1)

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        if self._reader is not None:
            self._reader.join(timeout=15)
        self.proc.stdout.close()
        self.proc = None

    def __exit__(self, *exc_info) -> None:
        self.stop()


class RequestPlan:
    """Request ``i`` of a serve_http run, fixed by the seed."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 29])
        draw = rng.random(PLAN_SIZE)
        self.kind = np.where(draw < BATCH_SHARE, BATCH,
                             np.where(draw < BATCH_SHARE + VOLUME_SHARE, VOLUME, VECTOR))
        self.hot = (rng.random(PLAN_SIZE) < HOT_SHARE) & (self.kind != BATCH)
        self.hot_index = rng.integers(0, HOT_ROWS, size=PLAN_SIZE)
        # Cold rows are consumed in plan order: request i starts where the
        # previous cold rows of its kind left off.
        cold_vectors = np.where(self.kind == BATCH, BATCH_ROWS,
                                (self.kind == VECTOR) & ~self.hot)
        self.cold_vector_start = np.cumsum(cold_vectors) - cold_vectors
        cold_volumes = ((self.kind == VOLUME) & ~self.hot).astype(int)
        self.cold_volume_start = np.cumsum(cold_volumes) - cold_volumes

    def request(self, i: int) -> Tuple[str, str, int, int]:
        """``(kind, pool, first row, rows)`` of request ``i``."""
        i %= PLAN_SIZE
        kind = self.kind[i]
        if kind == BATCH:
            return "vectors", "cold", int(self.cold_vector_start[i]), BATCH_ROWS
        name = "vectors" if kind == VECTOR else "volumes"
        if self.hot[i]:
            return name, "hot", int(self.hot_index[i]), 1
        start = self.cold_vector_start if kind == VECTOR else self.cold_volume_start
        return name, "cold", int(start[i]), 1


def _classify_http(client: HttpServeClient, pool: QueryPool, request) -> List[int]:
    kind, name, index, n = request
    rows = pool.rows(kind, name, index, n)
    if kind == "vectors":
        return client.classify(rows)["labels"]
    return client.classify_volumes(rows)["labels"]


def _failure_kind(exc: BaseException) -> str:
    if isinstance(exc, ShedRequest):
        return "shed_429"
    if isinstance(exc, RuntimeError) and str(exc).startswith("HTTP 5"):
        return "http_5xx"
    if isinstance(exc, TimeoutError) or "timed out" in str(exc):
        return "timeout"
    return "error"


def _closed_loop(url: str, pool: QueryPool, plan: RequestPlan,
                 counter, seconds: float, probe: bool):
    """HTTP_CLIENTS closed-loop clients for ``seconds``; main thread probes."""
    results: List[list] = [[] for _ in range(HTTP_CLIENTS)]
    start = time.perf_counter()
    stop_at = start + seconds

    def client_main(slot: int) -> None:
        client = HttpServeClient(url, timeout=TIMEOUT_S)
        out = results[slot]
        while time.perf_counter() < stop_at:
            request = plan.request(next(counter))
            t0 = time.perf_counter()
            try:
                labels, failure = _classify_http(client, pool, request), None
            except (OSError, RuntimeError) as exc:
                labels, failure = None, _failure_kind(exc)
            t1 = time.perf_counter()
            out.append((request, t1 - t0, labels, failure, t1))

    connects: List[float] = []
    with ThreadGroup(*(lambda slot=slot: client_main(slot)
                       for slot in range(HTTP_CLIENTS))):
        if probe:
            host, port = url.rsplit("/", 1)[-1].split(":")
            while time.perf_counter() < stop_at:
                t0 = time.perf_counter()
                with socket.create_connection((host, int(port)), timeout=TIMEOUT_S):
                    connects.append(time.perf_counter() - t0)
                time.sleep(CONNECT_PROBE_INTERVAL_S)
    elapsed = time.perf_counter() - start
    records = sorted((r for out in results for r in out), key=lambda r: r[4])
    return records, start, elapsed, connects


def _scrape(url: str) -> Tuple[Dict, Dict]:
    client = HttpServeClient(url, timeout=TIMEOUT_S)
    return parse_prometheus(client.metrics_text()), client.metrics()


def serve_http(seed: int, seconds: float, trace: bool, workdir: Path,
               scale: float = SERVE_SCALE) -> Dict[str, object]:
    """Closed-loop HTTP load on ``SETUP_REPEATS`` successive server children.

    Each cold-started server serves an equal share of the measured
    window, cut into sub-windows of about ``SUB_WINDOW_S``; the figures
    are medians over all of them, so they span three servers and three
    stretches of time, not one.  The traced run reads the node's
    /metrics and probes connects on the last server only.
    """
    artifact, build_gates = serving_artifact(scale)
    load_s, frozen = load_oracle(artifact)
    dataset = generate(ARTIFACT_SEED, scale)
    digests = check_served(artifact, dataset, scale)
    pool = QueryPool(frozen, dataset.totals, seed)
    plan = RequestPlan(seed)
    counter = itertools.count()

    setups: List[float] = []
    rss: List[float] = []
    records: List[tuple] = []
    warm: List[tuple] = []
    figures = []
    for index in range(SETUP_REPEATS):
        probe = trace and index == SETUP_REPEATS - 1
        with ServerChild(artifact, workdir, index) as server:
            setups.append(server.setup_s)
            log(f"serve_http: server {index + 1} up at {server.url}; "
                f"measuring {seconds / SETUP_REPEATS:.1f} s")
            warm_client = HttpServeClient(server.url, timeout=TIMEOUT_S)
            for _ in range(HTTP_WARMUP_REQUESTS):
                request = plan.request(next(counter))
                warm.append((request, _classify_http(warm_client, pool, request)))
            scrape_start = time.perf_counter()
            before = _scrape(server.url) if probe else None
            scrape_s = time.perf_counter() - scrape_start
            served, start, elapsed, connects = _closed_loop(
                server.url, pool, plan, counter, seconds / SETUP_REPEATS, probe)
            scrape_start = time.perf_counter()
            after = _scrape(server.url) if probe else None
            scrape_s += time.perf_counter() - scrape_start
            rss.append(server.peak_rss_mb())
        # A failed request misses any latency limit: it enters at the timeout.
        figures.append(window_figures(
            [r[4] for r in served], [r[1] if r[3] is None else TIMEOUT_S for r in served],
            [r[3] is None for r in served], start, elapsed,
            sub_windows(elapsed), TIMEOUT_S))
        records += served

    answered = [(r[0], r[2]) for r in records if r[3] is None]
    failures: Dict[str, int] = {}
    for record in records:
        if record[3] is not None:
            failures[record[3]] = failures.get(record[3], 0) + 1
    checked = check_labels(answered + warm, pool)
    figure = median_figures(*figures)
    e2e = {
        "setup_s": median(setups),
        "throughput_qps": figure["throughput_qps"],
        "latency_p50_ms": figure["latency_p50_ms"],
        "answered_frac": len(answered) / len(records),
        "peak_rss_mb": median(rss),
    }
    info = {
        "latency_p90_ms": figure["latency_p90_ms"],
        "latency_p99_ms": p99_ms([r[1] if r[3] is None else TIMEOUT_S for r in records]),
        "window_figures": figures, "peak_rss_samples_mb": rss,
        "requests": len(records), "rows_checked": checked, "failures": failures,
        "setup_samples_s": setups, "digests": digests,
        "gates": dict(build_gates, pinned_digests="ok", serve_labels="ok",
                      load_refit="ok"),
    }
    layers: Dict[str, float] = {}
    if trace:
        layers = layer_probes(frozen, pool)
        layers.update(_http_layers(before, after, served, connects,
                                   scrape_s, elapsed))
        layers["stream.frozen.load_s"] = load_s
    return {"e2e": e2e, "layers": layers, "info": info,
            "attempted": len(records), "failed": len(records) - len(answered)}


def _http_layers(before, after, records, connects, scrape_s, elapsed):
    """Node-side layers from /metrics deltas over the measured window."""
    delta = MetricDelta(before[0], after[0])
    ok = [r[1] for r in records if r[3] is None]
    rtt_ms = float(np.mean(ok)) * 1e3
    request_ms = delta.hist_mean("repro_serve_request_latency_seconds") * 1e3
    requests = delta.hist_count("repro_serve_request_latency_seconds")
    hits = delta.value("repro_serve_cache_hits_total")
    misses = delta.value("repro_serve_cache_misses_total")
    transform_ms = delta.stage_mean("serve.rsca_transform") * 1e3
    transform_share = delta.stage_count("serve.rsca_transform") / requests
    connect_ms = float(np.mean(connects)) * 1e3 if connects else 0.0
    blocking = connect_ms + request_ms + transform_ms * transform_share
    return {
        "serve.client.connect_ms": connect_ms,
        "serve.http.overhead_ms": rtt_ms - request_ms,
        "serve.service.request_ms": request_ms,
        "serve.scheduler.queue_wait_ms":
            delta.hist_mean("repro_serve_queue_wait_seconds") * 1e3,
        "serve.scheduler.assembly_ms":
            delta.hist_mean("repro_serve_batch_assembly_seconds") * 1e3,
        "serve.scheduler.batch_rows_mean": delta.hist_mean("repro_serve_batch_rows"),
        "serve.cache.hit_ratio": hits / (hits + misses),
        "serve.cache.evictions": float(
            after[1]["cache"]["evictions"] - before[1]["cache"]["evictions"]),
        "ml.compiled.kernel_vote_ms": delta.stage_mean("serve.kernel_vote") * 1e3,
        "stream.frozen.rsca_transform_ms": transform_ms,
        "unattributed_frac": 1.0 - blocking / rtt_ms,
        "trace_overhead_frac": (sum(connects) + scrape_s) / elapsed,
    }


# ----------------------------------------------------------------------
# serve_inproc
# ----------------------------------------------------------------------


def _open_loop(service: ProfileService, pool: QueryPool, first: int,
               seconds: float, rng: np.random.Generator):
    """Poisson arrivals at OPEN_RATE; one generator feeds one collector."""
    gaps = rng.exponential(1.0 / OPEN_RATE, size=int(OPEN_RATE * seconds * 1.5) + 64)
    due = np.cumsum(gaps)
    due = due[due < seconds]
    handoff: "queue.SimpleQueue" = queue.SimpleQueue()
    done: List[tuple] = []
    origin = time.perf_counter() + 0.005

    def generator() -> None:
        try:
            for k, offset in enumerate(due):
                target = origin + float(offset)
                now = time.perf_counter()
                if target > now:
                    time.sleep(target - now)
                index = first + k
                rows = pool.rows("vectors", "cold", index)
                sent = time.perf_counter()
                try:
                    pending, error = service.submit(rows), None
                except ShedRequest:
                    pending, error = None, "shed"
                handoff.put((index, target, sent - target,
                             time.perf_counter() - sent, pending, error))
        finally:
            handoff.put(None)

    def collector() -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            index, target, late, submit, pending, error = item
            wait_start = time.perf_counter()
            labels = None
            if pending is not None:
                try:
                    labels = pending.result(timeout=TIMEOUT_S).labels
                except TimeoutError:
                    error = "timeout"
            finished = time.perf_counter()
            done.append((index, finished - target, late, submit,
                         finished - wait_start, labels, error, finished))

    with ThreadGroup(generator, collector):
        pass
    return done, len(due), origin


def _saturate(service: ProfileService, pool: QueryPool, first: int, seconds: float):
    """Keep INFLIGHT_WINDOW requests in flight; time each submit-to-answer.

    Records go into flat typed arrays, so that the benchmark's own
    bookkeeping adds little to the process's ``peak_rss_mb`` however
    many requests complete.
    """
    inflight: deque = deque()
    # Answered rows and their labels.
    rows, labels = array("q"), array("q")
    # Finish time, latency and answered flag of every operation.
    finished, latency, answered = array("d"), array("d"), array("b")
    failures: Dict[str, int] = {}
    index = first
    start = time.perf_counter()
    stop_at = start + seconds

    def timed(at: float, seconds_taken: float, ok: bool) -> None:
        finished.append(at)
        latency.append(seconds_taken)
        answered.append(ok)

    def collect() -> None:
        row, sent, pending = inflight.popleft()
        try:
            label = one_label(row, pending.result(timeout=TIMEOUT_S).labels)
            now = time.perf_counter()
            rows.append(row)
            labels.append(label)
            timed(now, now - sent, True)
        except TimeoutError:
            failures["timeout"] = failures.get("timeout", 0) + 1
            timed(time.perf_counter(), TIMEOUT_S, False)

    while time.perf_counter() < stop_at:
        while len(inflight) < INFLIGHT_WINDOW:
            sent = time.perf_counter()
            try:
                inflight.append((index, sent, service.submit(
                    pool.rows("vectors", "cold", index))))
            except ShedRequest:
                failures["shed"] = failures.get("shed", 0) + 1
                timed(sent, TIMEOUT_S, False)
            index += 1
        collect()
    elapsed = time.perf_counter() - start
    window = len(finished)
    while inflight:
        collect()
    in_window = (finished[:window], latency[:window], answered[:window])
    return (rows, labels), in_window, start, elapsed, failures, index


def serve_inproc(seed: int, seconds: float, trace: bool, workdir: Path,
                 scale: float = SERVE_SCALE) -> Dict[str, object]:
    """Open loop, then saturation, on each of ``SETUP_REPEATS`` services.

    Each freshly loaded service runs an equal share of both phases, each
    phase cut into sub-windows of about ``SUB_WINDOW_S``; the figures are
    medians over all of them.  Query rows continue the cold walk from one
    service to the next.  The traced run scrapes the registry around the
    last service's phases only.
    """
    artifact, build_gates = serving_artifact(scale)
    rng = np.random.default_rng([seed, 31])
    open_s = seconds * OPEN_LOOP_SHARE / SETUP_REPEATS
    saturate_s = seconds * (1.0 - OPEN_LOOP_SHARE) / SETUP_REPEATS
    setups: List[float] = []
    loads: List[float] = []
    opened: List[tuple] = []
    # Rows and labels of every single-row answer (warm-up and saturation).
    rows, labels = array("q"), array("q")
    saturated_latency = array("d")
    saturated = 0
    failures: Dict[str, int] = {}
    open_figures, saturating_figures = [], []
    pool: Optional[QueryPool] = None
    row = 0
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        load_s, frozen = load_oracle(artifact)
        service = ProfileService(frozen)
        setups.append(time.perf_counter() - start)
        loads.append(load_s)
        try:
            if pool is None:
                dataset = generate(ARTIFACT_SEED, scale)
                digests = check_served(artifact, dataset, scale)
                pool = QueryPool(frozen, dataset.totals, seed)
            for first in range(row, row + INPROC_WARMUP_REQUESTS, 64):
                pendings = [(i, service.submit(pool.rows("vectors", "cold", i)))
                            for i in range(first, first + 64)]
                for i, pending in pendings:
                    rows.append(i)
                    labels.append(one_label(i, pending.result(timeout=TIMEOUT_S).labels))
            row += INPROC_WARMUP_REQUESTS
            log(f"serve_inproc: service {index + 1}; measuring {open_s + saturate_s:.1f} s")
            probe = trace and index == SETUP_REPEATS - 1
            scrape_s, snaps = 0.0, []

            def scrape() -> None:
                nonlocal scrape_s
                if probe:
                    t0 = time.perf_counter()
                    snaps.append((parse_prometheus(service.metrics.registry.prometheus_text()),
                                  service.cache.stats()))
                    scrape_s += time.perf_counter() - t0

            scrape()
            window_start = time.perf_counter()
            phase, offered, open_start = _open_loop(service, pool, row, open_s, rng)
            row += offered
            scrape()
            answers, timed, sat_start, sat_elapsed, sat_failures, row = _saturate(
                service, pool, row, saturate_s)
            scrape()
            window_s = time.perf_counter() - window_start
        finally:
            service.close()
        open_figures.append(window_figures(
            [r[7] for r in phase], [r[1] if r[6] is None else TIMEOUT_S for r in phase],
            [r[6] is None for r in phase], open_start, open_s,
            sub_windows(open_s), TIMEOUT_S))
        saturating_figures.append(window_figures(
            *timed, sat_start, sat_elapsed, sub_windows(sat_elapsed), TIMEOUT_S))
        opened += phase
        saturated += len(answers[0])
        rows.extend(answers[0])
        labels.extend(answers[1])
        saturated_latency.extend(timed[1])
        for kind, count in sat_failures.items():
            failures[kind] = failures.get(kind, 0) + count
    assert pool is not None

    for r in opened:
        if r[6] is None:
            rows.append(r[0])
            labels.append(one_label(r[0], r[5]))
    checked = check_cold_vectors(rows, labels, pool)
    attempted = len(opened) + saturated + sum(failures.values())
    for record in opened:
        if record[6] is not None:
            failures[record[6]] = failures.get(record[6], 0) + 1
    failed = sum(failures.values())
    open_loop = median_figures(*open_figures)
    saturating = median_figures(*saturating_figures)
    e2e = {
        "setup_s": median(setups),
        "throughput_qps": saturating["throughput_qps"],
        "latency_p50_ms": saturating["latency_p50_ms"],
        "answered_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "open_loop": dict(open_loop, latency_p99_ms=p99_ms(
            [r[1] if r[6] is None else TIMEOUT_S for r in opened])),
        "saturating": dict(saturating, latency_p99_ms=p99_ms(
            saturated_latency)),
        "window_figures": {"open_loop": open_figures,
                           "saturating": saturating_figures},
        "requests": attempted, "rows_checked": checked, "failures": failures,
        "setup_samples_s": setups, "digests": digests,
        "gates": dict(build_gates, pinned_digests="ok", serve_labels="ok",
                      load_refit="ok"),
    }
    layers: Dict[str, float] = {}
    if trace:
        layers = layer_probes(frozen, pool)
        layers["stream.frozen.load_s"] = median(loads)
        layers.update(_inproc_layers(snaps, phase, scrape_s, window_s))
    return {"e2e": e2e, "layers": layers, "info": info,
            "attempted": attempted, "failed": failed}


def _inproc_layers(snaps, opened, scrape_s, window_s):
    """Latency-side layers over the open loop; batch size over saturation."""
    (open_before, cache0), (open_after, _), (sat_after, cache2) = snaps
    delta = MetricDelta(open_before, open_after)
    saturated = MetricDelta(open_after, sat_after)
    ok = [r for r in opened if r[6] is None]
    latency_ms = float(np.mean([r[1] for r in ok])) * 1e3
    late_ms = [r[2] * 1e3 for r in opened]
    submit_us = [r[3] * 1e6 for r in opened]
    queue_ms = delta.hist_mean("repro_serve_queue_wait_seconds") * 1e3
    vote_ms = delta.stage_mean("serve.kernel_vote") * 1e3
    blocking = float(np.mean(late_ms)) + float(np.mean(submit_us)) / 1e3 + queue_ms + vote_ms
    lookups = (cache2["hits"] + cache2["misses"]) - (cache0["hits"] + cache0["misses"])
    return {
        "serve.service.request_ms":
            delta.hist_mean("repro_serve_request_latency_seconds") * 1e3,
        "serve.service.submit_us.p50": percentile(submit_us, 50),
        "serve.service.submit_us.p99": percentile(submit_us, 99),
        "serve.service.result_wait_ms": float(np.mean([r[4] for r in ok])) * 1e3,
        "serve.scheduler.queue_wait_ms": queue_ms,
        "serve.scheduler.assembly_ms":
            delta.hist_mean("repro_serve_batch_assembly_seconds") * 1e3,
        "serve.scheduler.batch_rows_mean":
            saturated.hist_mean("repro_serve_batch_rows"),
        "serve.cache.hit_ratio": (cache2["hits"] - cache0["hits"]) / lookups,
        "serve.cache.evictions": float(cache2["evictions"] - cache0["evictions"]),
        "ml.compiled.kernel_vote_ms": vote_ms,
        "loadgen.late_ms_p99": percentile(late_ms, 99),
        "unattributed_frac": 1.0 - blocking / latency_ms,
        "trace_overhead_frac": scrape_s / window_s,
    }


def make_workdir(name: str) -> Path:
    workdir = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run still has its directory there
