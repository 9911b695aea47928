#!/usr/bin/env python3
"""Compare two sets of run files: ``compare.py A... -- B...``.

A is the parent, B the change.  Each file is a run file written by
``run.py`` (one workload) or the combined file of a run over all
workloads.  For every workload and end-to-end metric the sets' medians are
compared against the bound BENCHMARK.json fixes for that metric:

* ``regressed``   B's median is worse than A's by more than the bound;
* ``improved``    it is better by more than the bound;
* ``unchanged``   neither;
* ``unresolved``  the run-to-run spread of either set (interquartile
  range over median) is wider than the bound and the two sets are not
  strictly separated, so the runs cannot tell.

Per-layer metrics are listed as ``info`` with their change; they carry no
bound.  Exit code 1 on any ``regressed`` row or when B fails a larger
share of its operations than A.  A row marked ``improved`` is not yet a
claimed gain: that needs the paired runs of the choosing-metrics guide.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))

Values = Dict[Tuple[str, str], List[float]]


def load_runs(paths: List[str]) -> List[dict]:
    runs: List[dict] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        runs.extend(data["runs"] if "runs" in data else [data])
    return runs


def collect(runs: List[dict]) -> Tuple[Values, Values, Dict[str, float]]:
    """(end-to-end values, per-layer values, worst failed share) keyed by
    (workload, metric).  End-to-end numbers count only from untraced
    runs, per-layer numbers only where the workload measured them."""
    end_to_end: Values = {}
    per_layer: Values = {}
    failed: Dict[str, float] = {}
    for run in runs:
        workload = run["workload"]
        result = run["result"]
        share = result["failed"] / max(1, result["attempted"])
        failed[workload] = max(failed.get(workload, 0.0), share)
        if not run["trace"]:
            for name, metric in run["end_to_end"].items():
                end_to_end.setdefault((workload, name), []).append(
                    metric["value"])
        for name in run.get("measured_here", []):
            metric = run.get("per_layer", {}).get(name)
            if metric is not None:
                per_layer.setdefault((workload, name), []).append(
                    metric["value"])
    return end_to_end, per_layer, failed


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float
            ) -> Tuple[str, float]:
    """(row label, how much worse B's median is, as a share of A's)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    if not med_a:
        return ("unchanged" if med_a == med_b else "unresolved"), 0.0
    worse = (med_b - med_a) / abs(med_a)
    if better == "higher":
        worse = -worse
    lower_is_better = better == "lower"
    b_all_better = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
    b_all_worse = (min(b) > max(a)) if lower_is_better else (max(b) < min(a))
    if max(spread(a), spread(b)) > bound \
            and not (b_all_better or b_all_worse):
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__)
        return 2
    split = argv.index("--")
    paths_a, paths_b = argv[:split], argv[split + 1:]
    if not paths_a or not paths_b:
        print(__doc__)
        return 2
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    e2e_a, layer_a, failed_a = collect(load_runs(paths_a))
    e2e_b, layer_b, failed_b = collect(load_runs(paths_b))
    workloads = [w["name"] for w in spec["workloads"]]
    bad = 0
    print(f"{'workload':15s} {'metric':44s} {'A median':>13s} "
          f"{'B median':>13s} {'B worse by':>10s}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in e2e_a or key not in e2e_b:
                continue
            label, worse = verdict(e2e_a[key], e2e_b[key], metric["better"],
                                   metric["bound"])
            bad += label == "regressed"
            print(f"{workload:15s} {metric['name']:44s} "
                  f"{statistics.median(e2e_a[key]):13.4f} "
                  f"{statistics.median(e2e_b[key]):13.4f} "
                  f"{worse:+10.1%}  {label} "
                  f"(bound {metric['bound']:.0%}, n={len(e2e_a[key])}"
                  f"/{len(e2e_b[key])})")
        share_a = failed_a.get(workload, 0.0)
        share_b = failed_b.get(workload, 0.0)
        if workload in failed_a and workload in failed_b:
            label = "regressed" if share_b > share_a else "unchanged"
            bad += label == "regressed"
            print(f"{workload:15s} {'failed_share':44s} {share_a:13.4f} "
                  f"{share_b:13.4f} {'':>10s}  {label}")
    for workload in workloads:
        for metric in spec["per_layer"]:
            key = (workload, metric["name"])
            if key not in layer_a or key not in layer_b:
                continue
            med_a = statistics.median(layer_a[key])
            med_b = statistics.median(layer_b[key])
            change = (med_b - med_a) / abs(med_a) if med_a else 0.0
            print(f"{workload:15s} {metric['name']:44s} {med_a:13.4f} "
                  f"{med_b:13.4f} {change:+10.1%}  info")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
