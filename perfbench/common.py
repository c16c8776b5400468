"""Helpers shared by the benchmark workloads: provenance, digests, statistics.

Nothing here touches the program under test beyond reading metric text it
already exposes; the workloads import ``repro`` themselves.
"""

from __future__ import annotations

import hashlib
import os
import platform
import re
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


class GateFailure(AssertionError):
    """An output of the program under test differs from its reference."""


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev() -> str:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            return (git_dir / head[5:]).read_text(encoding="utf-8").strip()
        return head
    except OSError:
        return "unknown"


def source_digest() -> str:
    """sha256 over the program's source files, a revision id without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> Dict[str, object]:
    """Machine and revision the figures were measured on."""
    return {
        "cores": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": _git_rev(),
        "src_digest": source_digest(),
    }


def array_digest(*arrays: np.ndarray) -> str:
    """sha256 of arrays' dtype, shape and bytes (stable across processes)."""
    digest = hashlib.sha256()
    for array in arrays:
        a = np.ascontiguousarray(array)
        digest.update(str(a.dtype).encode("utf-8"))
        digest.update(str(a.shape).encode("utf-8"))
        digest.update(a.tobytes())
    return digest.hexdigest()[:16]


def mapping_digest(arrays: Mapping[str, np.ndarray]) -> str:
    """Digest of a name -> array mapping, in name order."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode("utf-8"))
        digest.update(array_digest(np.asarray(arrays[name])).encode("utf-8"))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process in MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of a sample."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def window_figures(finished: Sequence[float], latencies_s: Sequence[float],
                   answered: Sequence[bool], start: float, elapsed: float,
                   windows: int, stalled_s: float) -> Dict[str, List[float]]:
    """Throughput and p50/p90 latency of each of ``windows`` equal sub-windows.

    Each operation falls in the sub-window in which it finished.  The
    workloads report the median over sub-windows (``median_figures``), so
    a few seconds of interference from outside the benchmark move one or
    two windows' figures, not the run's.  A window in which nothing
    finished reads 0/s and ``stalled_s`` for its latencies.
    """
    finished = np.asarray(finished, dtype=float)
    latency_ms = np.asarray(latencies_s, dtype=float) * 1e3
    answered = np.asarray(answered, dtype=bool)
    width = elapsed / windows
    index = np.clip(((finished - start) / width).astype(int), 0, windows - 1)
    figures: Dict[str, List[float]] = {
        "throughput_qps": [], "latency_p50_ms": [], "latency_p90_ms": []}
    for window in range(windows):
        members = index == window
        figures["throughput_qps"].append(answered[members].sum() / width)
        sample = latency_ms[members] if members.any() else [stalled_s * 1e3]
        figures["latency_p50_ms"].append(percentile(sample, 50))
        figures["latency_p90_ms"].append(percentile(sample, 90))
    return figures


def median_figures(*figure_sets: Dict[str, List[float]]) -> Dict[str, float]:
    """Median of each figure over every sub-window of every set."""
    return {name: median(v for figures in figure_sets for v in figures[name])
            for name in figure_sets[0]}


def time_call(fn, *args, **kwargs) -> Tuple[float, object]:
    """Wall seconds of one call, and its result."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def per_call_us(fn, calls: int) -> float:
    """Mean microseconds per call of ``fn(i)`` over ``calls`` calls."""
    start = time.perf_counter()
    for i in range(calls):
        fn(i)
    return (time.perf_counter() - start) / calls * 1e6


# ----------------------------------------------------------------------
# Prometheus text (the node's GET /metrics, or an in-process registry)
# ----------------------------------------------------------------------

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)")


def parse_prometheus(text: str) -> Dict[Tuple[str, str], float]:
    """``(name, labels) -> value`` for every sample line of an exposition."""
    samples: Dict[Tuple[str, str], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match:
            samples[(match.group(1), match.group(2) or "")] = float(
                match.group(3)
            )
    return samples


class MetricDelta:
    """Difference between two scrapes of one exposition."""

    def __init__(self, before: Mapping, after: Mapping) -> None:
        self._before = before
        self._after = after

    def value(self, name: str, labels: str = "") -> float:
        key = (name, labels)
        return self._after.get(key, 0.0) - self._before.get(key, 0.0)

    def hist_mean(self, name: str, labels: str = "") -> float:
        """Mean observation of a histogram over the interval (0 if none)."""
        count = self.value(f"{name}_count", labels)
        return self.value(f"{name}_sum", labels) / count if count else 0.0

    def hist_count(self, name: str, labels: str = "") -> float:
        return self.value(f"{name}_count", labels)

    def stage_mean(self, stage: str) -> float:
        """Mean seconds of one ``repro_stage_seconds`` stage."""
        return self.hist_mean("repro_stage_seconds", f'{{stage="{stage}"}}')

    def stage_total(self, stage: str) -> float:
        return self.value("repro_stage_seconds_sum", f'{{stage="{stage}"}}')

    def stage_count(self, stage: str) -> float:
        return self.hist_count("repro_stage_seconds", f'{{stage="{stage}"}}')


class ThreadGroup:
    """Threads that are always joined, re-raising the first error they hit.

    Use as a context manager: the body may do work of its own (probes)
    while the threads run; leaving the block joins every thread.
    """

    def __init__(self, *targets) -> None:
        self._errors: List[BaseException] = []
        self._threads = [threading.Thread(target=self._guard, args=(t,))
                         for t in targets]

    def _guard(self, target) -> None:
        try:
            target()
        except BaseException as exc:  # handed to the joining thread
            self._errors.append(exc)

    def __enter__(self) -> "ThreadGroup":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for thread in self._threads:
            thread.join()
        if exc_type is None and self._errors:
            raise self._errors[0]


def log(message: str) -> None:
    """Progress line on stderr (stdout carries the report)."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def flag_unattributed(layers: Dict[str, float], limit: float = 0.10) -> List[str]:
    """Warnings for a per-layer breakdown that leaves too much unexplained."""
    share = layers.get("unattributed_frac", 0.0)
    if share > limit:
        return [
            f"unattributed_frac {share:.1%} exceeds {limit:.0%}: the "
            f"measured layers do not account for the end-to-end time"
        ]
    return []
