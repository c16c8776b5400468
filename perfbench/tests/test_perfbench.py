"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q

The smoke runs use a small ``scaled_specs`` dataset and one measured
second, so they check the plumbing (every metric named in
``BENCHMARK.json`` appears with its unit), not the figures.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from common import GateFailure, array_digest  # noqa: E402
from offline import (  # noqa: E402
    DATASET_SEED,
    check_artifact,
    check_pinned,
    check_shap,
    dataset_digest,
    explain_sample,
    generate,
    pinned_digests,
    shap_pin_path,
)
from repro.core.pipeline import ICNProfiler  # noqa: E402
from run import WORKLOADS  # noqa: E402
from serving import (  # noqa: E402
    QueryPool,
    check_cold_vectors,
    check_labels,
    check_served,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_SCALE = 0.05


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--scale", str(SMOKE_SCALE))
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in spec]
    for metric in spec:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        if not trace:
            assert reported["value"] > 0, metric["name"]
    report = json.loads(done.stdout.strip().splitlines()[-2][len("report "):])
    assert report["seed"] == 5
    assert {"cores", "cpu", "python", "numpy", "git_rev"} <= set(report["fingerprint"])
    assert {"dataset", "labels", "compiled_forest", "artifact"} <= set(report["digests"])


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "serve_http", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _fit(dataset, **kwargs):
    profile = ICNProfiler(**kwargs).fit(dataset, align_to=dataset.archetypes())
    return profile, profile.freeze(service_totals=dataset.totals.sum(axis=0))


@pytest.fixture(scope="module")
def small_profile():
    dataset = generate(DATASET_SEED, SMOKE_SCALE)
    return (dataset, *_fit(dataset))


def _observed(dataset, profile, frozen, artifact: Path):
    frozen.save(artifact)
    digests = check_artifact(artifact, profile.labels,
                             frozen.compiled_forest().to_arrays())
    digests["dataset"] = dataset_digest(dataset)
    return digests


def test_tampered_served_label_fails_the_gate(small_profile):
    dataset, _, frozen = small_profile
    pool = QueryPool(frozen, dataset.totals, seed=3)
    answers = [
        (("vectors", "cold", 10, 32), pool.expected("vectors", "cold", 10, 32)),
        (("volumes", "hot", 3, 1), pool.expected("volumes", "hot", 3, 1)),
    ]
    assert check_labels(answers, pool) == 33
    tampered = answers[0][1].copy()
    tampered[7] = next(c for c in frozen.clusters if c != tampered[7])
    with pytest.raises(GateFailure):
        check_labels([(answers[0][0], tampered)], pool)
    rows = np.arange(10, 42)
    assert check_cold_vectors(rows, answers[0][1], pool) == 32
    with pytest.raises(GateFailure, match="row 17"):
        check_cold_vectors(rows, tampered, pool)


def test_tampered_label_fails_the_pinned_digest(small_profile, tmp_path):
    dataset, profile, frozen = small_profile
    observed = _observed(dataset, profile, frozen, tmp_path / "profile.npz")
    check_pinned(observed, pinned_digests(SMOKE_SCALE))
    tampered = profile.labels.copy()
    tampered[0] = next(c for c in frozen.clusters if c != tampered[0])
    with pytest.raises(GateFailure):
        check_artifact(tmp_path / "profile.npz", tampered,
                       frozen.compiled_forest().to_arrays())
    with pytest.raises(GateFailure, match="labels digest"):
        check_pinned(dict(observed, labels=array_digest(tampered)),
                     pinned_digests(SMOKE_SCALE))


def test_differently_fitted_forest_fails_the_pinned_digest(small_profile, tmp_path):
    dataset = small_profile[0]
    observed = _observed(dataset, *_fit(dataset, random_state=1),
                         tmp_path / "profile.npz")
    with pytest.raises(GateFailure, match="compiled_forest digest"):
        check_pinned(observed, pinned_digests(SMOKE_SCALE))


def test_shap_values_off_the_pinned_ones_fail_the_gate(small_profile, tmp_path):
    _, profile, _ = small_profile
    explanations = profile.explain(samples_per_cluster=1)
    sample = explain_sample(profile.labels, 1)
    ms_per_row, phi = check_shap(profile, explanations, sample,
                                 shap_pin_path(SMOKE_SCALE))
    assert ms_per_row > 0
    shifted = phi.copy()
    shifted[0, 0, 0] += 1e-9
    reference = tmp_path / "shap.npz"
    np.savez(reference, rows=sample, phi=shifted)
    with pytest.raises(GateFailure, match="pinned"):
        check_shap(profile, explanations, sample, reference)


def test_tampered_explanation_fails_the_gate(small_profile):
    _, profile, _ = small_profile
    explanations = profile.explain(samples_per_cluster=1)
    sample = explain_sample(profile.labels, 1)
    cluster = next(iter(explanations))
    first = explanations[cluster].importances[0]
    bad = dict(explanations)
    bad[cluster] = dataclasses.replace(
        explanations[cluster],
        importances=[dataclasses.replace(first, mean_abs_shap=first.mean_abs_shap * 1.01)]
        + explanations[cluster].importances[1:],
    )
    with pytest.raises(GateFailure):
        check_shap(profile, bad, sample, shap_pin_path(SMOKE_SCALE))


def test_tampered_served_artifact_fails_the_pinned_digest(small_profile, tmp_path):
    dataset, _, frozen = small_profile
    artifact = tmp_path / "profile.npz"
    frozen.save(artifact)
    check_served(artifact, dataset, SMOKE_SCALE)
    with np.load(artifact, allow_pickle=False) as archive:
        saved = {name: archive[name] for name in archive.files}
    saved["labels"] = saved["labels"].copy()
    saved["labels"][0] = next(c for c in frozen.clusters if c != saved["labels"][0])
    np.savez(artifact, **saved)
    with pytest.raises(GateFailure, match="labels digest"):
        check_served(artifact, dataset, SMOKE_SCALE)
