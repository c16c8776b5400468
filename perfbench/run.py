"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve_http --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload and prints the per-layer table
instead.  Either way the program's answers are checked against reference
implementations, and a wrong answer ends the run with exit code 1.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for the workloads
and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_http", "serve_inproc", "pipeline_paper")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale override for smoke tests; must be a scale "
             "pinned in perfbench/pinned/digests.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _metrics(spec: List[Dict[str, str]], values: Dict[str, float],
             fill_idle: bool) -> Dict[str, Dict[str, object]]:
    """Every metric the spec names, in its unit.

    Per-layer metrics of a layer the workload leaves idle read 0; an
    end-to-end metric the workload failed to produce is an error.
    """
    out = {}
    for metric in spec:
        name = metric["name"]
        if name not in values and not fill_idle:
            raise KeyError(f"workload produced no {name}")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": metric["unit"]}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    from common import GateFailure, fingerprint, flag_unattributed
    from offline import pipeline_paper
    from serving import make_workdir, remove_workdir, serve_http, serve_inproc

    run = {"serve_http": serve_http, "serve_inproc": serve_inproc,
           "pipeline_paper": pipeline_paper}[args.workload]
    kwargs = {} if args.scale is None else {"scale": args.scale}
    workdir = make_workdir(args.workload)
    try:
        result = run(args.seed, args.seconds, bool(args.trace), workdir, **kwargs)
    except GateFailure as exc:
        print(f"WRONG ANSWER in {args.workload} (seed {args.seed}): {exc}")
        return 1
    finally:
        remove_workdir(workdir)

    trace = bool(args.trace)
    metrics = _metrics(spec["per_layer" if trace else "end_to_end"],
                       result["layers" if trace else "e2e"], fill_idle=trace)
    warnings = flag_unattributed(result["layers"]) if trace else []
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        **result["info"],
        "warnings": warnings,
    }
    print(f"{args.workload}  seed {args.seed}  "
          f"{'per-layer' if trace else 'end-to-end'}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    for warning in warnings:
        print(f"  FLAG: {warning}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
