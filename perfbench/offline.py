"""The offline paper pipeline pass and its correctness gate.

One pass is what the paper's Sections 4-5 run: ``ICNProfiler().fit`` with
label alignment to the generator's archetypes (RSCA, Ward, the 100-tree
surrogate forest, alignment), ``freeze`` + ``save`` of the serving
artifact, then ``explain`` (TreeSHAP, Fig. 5) on a fixed per-cluster
sample.  ``pipeline_paper`` runs it in-process at paper scale; the serving
workloads run it here as a child process at a reduced scale to build the
artifact they serve, so the benchmark process's peak memory is the
serving path's alone.

Every pass runs on the paper-reproduction dataset (``DATASET_SEED``), so
its outputs can be checked against values committed under
``perfbench/pinned/``: the dataset, label and compiled-forest digests of
each scale, and the TreeSHAP values of the explained rows.

Run as a script it builds one artifact and prints one JSON line::

    python3 perfbench/offline.py --scale 0.1 --artifact .perfbench_tmp/profile.npz

``--write-pins`` records the pass's digests (and, with explain, its SHAP
values) as the pinned ones for that scale instead of checking them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from common import (  # noqa: E402
    GateFailure,
    MetricDelta,
    array_digest,
    log,
    mapping_digest,
    median,
    parse_prometheus,
    peak_rss_mb,
    percentile,
    time_call,
)
from repro.core.pipeline import ICNProfiler  # noqa: E402
from repro.datagen.dataset import TrafficDataset, generate_dataset  # noqa: E402
from repro.datagen.scenarios import scaled_specs  # noqa: E402
from repro.explain.treeshap import TreeExplainer  # noqa: E402
from repro.obs import get_registry  # noqa: E402

#: Dataset seed of every pass: the paper-reproduction seed.  Fixed, so
#: that one set of pinned digests applies to every run of a scale.
DATASET_SEED = 0
#: Committed expected outputs (see the module docstring).
PINNED = Path(__file__).resolve().with_name("pinned")
#: Tolerances fixed before any run.  TreeSHAP against the pinned values:
#: the oracle bar the test suite uses.  Local accuracy (base + sum(phi) ==
#: forest probability): a 100-tree float sum.
SHAP_ATOL = 1e-10
LOCAL_ACCURACY_ATOL = 1e-9
#: Exit code of the child process when a gate fails.
GATE_EXIT = 3
#: Dataset generations per run; ``pipeline_paper``'s ``setup_s`` is their
#: median.  Each takes ~0.5 s at paper scale and varies by ~25% from run to
#: run, so the median needs more than three.
GENERATE_REPEATS = 7
#: Fig. 5 rows explained per cluster (9 clusters -> 9 rows).  TreeSHAP runs
#: twice per pass, once timed in ``explain`` and once in the gate.
SAMPLES_PER_CLUSTER = 1


def generate(seed: int, scale: float) -> TrafficDataset:
    """The workload's dataset: paper scale at 1.0, ``scaled_specs`` below."""
    if scale == 1.0:
        return generate_dataset(master_seed=seed)
    return generate_dataset(master_seed=seed, specs=scaled_specs(scale))


def dataset_digest(dataset: TrafficDataset) -> str:
    return array_digest(dataset.totals, dataset.archetypes())


def setup_dataset(seed: int, scale: float) -> Tuple[TrafficDataset, List[float]]:
    """Generate the dataset ``GENERATE_REPEATS`` times; all copies must agree."""
    times, digests, dataset = [], set(), None
    for _ in range(GENERATE_REPEATS):
        seconds, dataset = time_call(generate, seed, scale)
        times.append(seconds)
        digests.add(dataset_digest(dataset))
    if len(digests) != 1:
        raise GateFailure(f"generate_dataset(seed={seed}) is not deterministic")
    return dataset, times


def explain_sample(labels: np.ndarray, samples_per_cluster: int,
                   random_state: int = 0) -> np.ndarray:
    """Rows ``ICNProfile.explain`` samples (same draw as ``explain_clusters``)."""
    rng = np.random.default_rng(random_state)
    parts = []
    for cluster in np.unique(labels):
        members = np.flatnonzero(labels == cluster)
        if members.size > samples_per_cluster:
            members = rng.choice(members, size=samples_per_cluster, replace=False)
        parts.append(members)
    return np.concatenate(parts)


def scale_key(scale: float) -> str:
    return repr(float(scale))


def pinned_digests(scale: float) -> Dict[str, str]:
    """The committed dataset, label and compiled-forest digests of a scale."""
    table = json.loads((PINNED / "digests.json").read_text(encoding="utf-8"))
    if scale_key(scale) not in table:
        raise RuntimeError(
            f"no pinned digests for scale {scale}; pinned scales: "
            f"{', '.join(sorted(table))}"
        )
    return table[scale_key(scale)]


def shap_pin_path(scale: float) -> Path:
    return PINNED / f"shap-{scale_key(scale)}.npz"


def check_pinned(observed: Dict[str, str], pinned: Dict[str, str]) -> None:
    """Each pinned digest must equal the one this run observed."""
    for name, want in pinned.items():
        if observed[name] != want:
            raise GateFailure(
                f"{name} digest {observed[name]} differs from the pinned {want}"
            )


def check_partition(features: np.ndarray, labels: np.ndarray) -> str:
    """Ward partition against scipy's linkage, up to relabelling."""
    try:
        from scipy.cluster.hierarchy import fcluster, linkage
    except ImportError as exc:
        raise RuntimeError("the Ward gate needs scipy") from exc
    k = int(np.unique(labels).size)
    reference = fcluster(linkage(features, method="ward"), k, criterion="maxclust")
    pairs = np.unique(np.stack([labels, reference]), axis=1).shape[1]
    if pairs != k or np.unique(reference).size != k:
        raise GateFailure(
            f"Ward partition differs from scipy's: {pairs} label pairs for "
            f"{k} clusters"
        )
    return "ok"


def artifact_digests(path: Path) -> Dict[str, str]:
    """Digests of a saved artifact: its labels, compiled forest and whole."""
    with np.load(path, allow_pickle=False) as archive:
        saved = {name: archive[name] for name in archive.files}
    return {
        "labels": array_digest(saved["labels"]),
        "compiled_forest": mapping_digest(
            {k: v for k, v in saved.items() if k.startswith("compiled_")}),
        "artifact": mapping_digest(saved),
    }


def check_artifact(path: Path, labels: np.ndarray, compiled_arrays) -> Dict[str, str]:
    """The saved artifact's labels and compiled forest are exactly the fit's."""
    digests = artifact_digests(path)
    if digests["labels"] != array_digest(labels):
        raise GateFailure("saved artifact labels differ from the fitted labels")
    if digests["compiled_forest"] != mapping_digest(compiled_arrays):
        raise GateFailure("saved compiled forest differs from the fitted forest")
    return digests


def check_shap(profile, explanations, sample: np.ndarray,
               reference: Optional[Path]) -> Tuple[float, np.ndarray]:
    """Gate explain() against TreeSHAP values; returns ms per row and phi.

    Local accuracy must hold on every sampled row, the values must match
    the pinned ones in ``reference`` within ``SHAP_ATOL`` (skipped when
    ``reference`` is None, as when writing the pins), and every Fig. 5
    mean |SHAP| that ``explain`` reported must equal the one the values
    give.
    """
    x = profile.features[sample]
    explainer = TreeExplainer(profile.surrogate)
    seconds, phi = time_call(explainer.shap_values, x)
    predicted = explainer.expected_value + phi.sum(axis=1)
    proba = profile.surrogate.predict_proba(x)
    worst = float(np.max(np.abs(predicted - proba)))
    if worst > LOCAL_ACCURACY_ATOL:
        raise GateFailure(f"SHAP local accuracy off by {worst:.3g}")
    if reference is not None:
        with np.load(reference, allow_pickle=False) as pinned:
            rows, values = pinned["rows"], pinned["phi"]
        if not np.array_equal(rows, sample) or values.shape != phi.shape:
            raise GateFailure(
                f"explained rows {sample.tolist()} differ from the pinned "
                f"{rows.tolist()}"
            )
        error = float(np.max(np.abs(values - phi)))
        if error > SHAP_ATOL:
            raise GateFailure(f"SHAP values off the pinned ones by {error:.3g}")
    names = profile.service_names
    for cluster, explanation in explanations.items():
        col = int(np.flatnonzero(explainer.classes_ == cluster)[0])
        expected = np.abs(phi[:, :, col]).mean(axis=0)
        for importance in explanation.importances:
            want = expected[names.index(importance.service)]
            if not np.isclose(importance.mean_abs_shap, want, rtol=1e-9, atol=1e-12):
                raise GateFailure(
                    f"cluster {cluster} {importance.service}: explain() mean "
                    f"|SHAP| {importance.mean_abs_shap!r} != {want!r}"
                )
    return seconds / x.shape[0] * 1e3, phi


def write_pins(scale: float, digests: Dict[str, str]) -> None:
    """Record a pass's digests as the pinned ones for ``scale``."""
    path = PINNED / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    table[scale_key(scale)] = digests
    PINNED.mkdir(exist_ok=True)
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def offline_pass(dataset: TrafficDataset, artifact: Path, scale: float,
                 explain: bool = True, pin: bool = False) -> Dict[str, object]:
    """fit -> freeze + save -> explain, timed, then gated.

    Artifact builds for the serving workloads pass ``explain=False``:
    nothing they measure depends on it, and it would lengthen every run.
    ``pin=True`` writes the pass's digests and SHAP values to
    ``perfbench/pinned/`` instead of checking them against it.

    Stage seconds come from the ``repro_stage_seconds`` histograms the
    pipeline already records, scraped from the process registry before
    and after the pass (outside the timed window).
    """
    registry = get_registry()
    scrape_start = time.perf_counter()
    before = parse_prometheus(registry.prometheus_text())
    scrape_s = time.perf_counter() - scrape_start

    start = time.perf_counter()
    fit_s, profile = time_call(
        ICNProfiler().fit, dataset, align_to=dataset.archetypes()
    )
    freeze_start = time.perf_counter()
    frozen = profile.freeze(service_totals=dataset.totals.sum(axis=0))
    frozen.save(artifact)
    freeze_s = time.perf_counter() - freeze_start
    if explain:
        explain_s, explanations = time_call(
            profile.explain, samples_per_cluster=SAMPLES_PER_CLUSTER
        )
    pass_s = time.perf_counter() - start
    rss_mb = peak_rss_mb()

    scrape_start = time.perf_counter()
    delta = MetricDelta(before, parse_prometheus(registry.prometheus_text()))
    scrape_s += time.perf_counter() - scrape_start

    gates = {"partition": check_partition(profile.features, profile.labels)}
    digests = check_artifact(artifact, profile.labels,
                             frozen.compiled_forest().to_arrays())
    digests["dataset"] = dataset_digest(dataset)
    observed = {name: digests[name] for name in ("dataset", "labels", "compiled_forest")}
    if pin:
        write_pins(scale, observed)
    else:
        check_pinned(observed, pinned_digests(scale))
    gates["artifact"] = "ok"
    gates["pinned_digests"] = "written" if pin else "ok"

    stages = {
        "core.rca.rsca_s": delta.stage_total("pipeline.rca"),
        "core.cluster.ward_s": delta.stage_total("pipeline.cluster"),
        "ml.forest.fit_s": delta.stage_total("pipeline.surrogate"),
        "core.pipeline.align_s": delta.stage_total("pipeline.align"),
    }
    blocking = sum(stages.values()) + freeze_s + delta.stage_total("pipeline.shap")
    layers = dict(stages)
    layers.update({
        "core.pipeline.fit_s": fit_s,
        "stream.frozen.freeze_s": freeze_s,
        "unattributed_frac": 1.0 - blocking / pass_s,
        "trace_overhead_frac": scrape_s / pass_s,
    })
    if explain:
        sample = explain_sample(profile.labels, SAMPLES_PER_CLUSTER)
        ms_per_row, phi = check_shap(profile, explanations, sample,
                                     None if pin else shap_pin_path(scale))
        if pin:
            np.savez_compressed(shap_pin_path(scale), rows=sample, phi=phi)
        layers["explain.treeshap.ms_per_row"] = ms_per_row
        layers["core.pipeline.explain_s"] = explain_s
        gates["shap"] = "written" if pin else "ok"
    return {
        "pass_s": pass_s,
        "peak_rss_mb": rss_mb,
        "layers": layers,
        "digests": digests,
        "gates": gates,
    }


def pipeline_paper(seed: int, seconds: float, trace: bool, workdir: Path,
                   scale: float = 1.0) -> Dict[str, object]:
    """Whole offline passes over the paper dataset until ``seconds`` pass.

    The inputs are fixed (the ``DATASET_SEED`` dataset and ``explain``'s
    own sample), so that the pinned outputs apply; ``seed`` is recorded
    only.  A pass that raises counts as attempted and not answered; a
    wrong answer ends the run.
    """
    log(f"pipeline_paper: generating the dataset (scale {scale})")
    dataset, gen_times = setup_dataset(DATASET_SEED, scale)
    passes: List[Dict[str, object]] = []
    errors: List[str] = []
    start = time.perf_counter()
    while not (passes or errors) or time.perf_counter() - start < seconds:
        log(f"pipeline_paper: pass {len(passes) + len(errors) + 1}")
        try:
            passes.append(offline_pass(dataset, workdir / "profile.npz", scale))
        except GateFailure:
            raise
        except Exception as exc:  # counted, then reported below
            errors.append(f"{type(exc).__name__}: {exc}")
    if not passes:
        raise RuntimeError(f"every pipeline pass failed: {errors[-1]}")
    attempted = len(passes) + len(errors)
    pass_ms = [p["pass_s"] * 1e3 for p in passes]
    e2e = {
        "setup_s": median(gen_times),
        "throughput_qps": dataset.n_antennas / median(p["pass_s"] for p in passes),
        "latency_p50_ms": percentile(pass_ms, 50),
        "answered_frac": len(passes) / attempted,
        "peak_rss_mb": passes[0]["peak_rss_mb"],
    }
    last = passes[-1]
    info = {
        "passes": len(passes), "antennas": dataset.n_antennas,
        "dataset_seed": DATASET_SEED, "errors": errors,
        "setup_samples_s": gen_times,
        "digests": last["digests"],
        "gates": last["gates"],
    }
    layers: Dict[str, float] = {}
    if trace:
        layers = dict(last["layers"])
        layers["datagen.generate_s"] = median(gen_times)
    return {"e2e": e2e, "layers": layers, "info": info,
            "attempted": attempted, "failed": len(errors)}


def build_main(argv: Optional[List[str]] = None) -> int:
    """Child-process entry: set up, run one pass, print it as JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--artifact", type=Path, required=True)
    parser.add_argument("--no-explain", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    args.artifact.parent.mkdir(parents=True, exist_ok=True)
    try:
        dataset, gen_times = setup_dataset(DATASET_SEED, args.scale)
        result = offline_pass(dataset, args.artifact, args.scale,
                              explain=not args.no_explain, pin=args.write_pins)
    except GateFailure as exc:
        print(f"gate failed: {exc}", file=sys.stderr)
        return GATE_EXIT
    result["layers"]["datagen.generate_s"] = median(gen_times)
    result["antennas"] = dataset.n_antennas
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(build_main())
