#!/usr/bin/env python3
"""The benchmark of record.

One workload, one process (the form the driver calls)::

    python3 benchmarks/e2e/run.py --workload fig9_complete --seed 7 \
        --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` it runs all four workloads, each
untraced then traced, each in its own process, and exits non-zero when
any answer was wrong.  ``--smoke`` is that at a tenth of the size plus
the self-checks of the metric contract.

Inputs come from ``--seed`` alone.  Run files and span files go to
``.tmp/bench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

import constants as C
import harness as H

# Counts that must repeat exactly for one seed (checked by --smoke).
EXACT_COUNTS = (
    "algorithms.join_based.items_per_result",
    "planner.merge_level_share",
    "algorithms.topk_keyword.tuples_scanned",
    "algorithms.topk_join.classic_over_group_tuples",
    "index.storage.columnar_bytes",
    "index.storage.dewey_bytes",
    "index.storage.document_bytes",
    "disk_bytes_per_node",
    "obs.account.bytes_decoded_per_query",
    "obs.account.bytes_mapped_per_query",
)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec() -> dict:
    with open(os.path.join(H.REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def workload_class(name: str):
    if name in ("fig9_complete", "fig10_topk"):
        import wl_inproc

        return {"fig9_complete": wl_inproc.Fig9Complete,
                "fig10_topk": wl_inproc.Fig10TopK}[name]
    if name == "disk_roundtrip":
        import wl_disk

        return wl_disk.DiskRoundtrip
    if name == "serve_open":
        import wl_serve

        return wl_serve.ServeOpen
    raise SystemExit(f"unknown workload {name!r}; one of {C.WORKLOADS}")


def span_metrics(layers, spec: dict, untraced, traced, log) -> None:
    """The generic per-layer numbers every traced run reports: tracing
    overhead, unaccounted share, and self time per operation for each
    layer named ``<layer>.self_ms`` in BENCHMARK.json."""
    base = untraced.main.summary()["p50"]
    layers.set("trace.overhead_share",
               (traced.main.summary()["p50"] - base) / base)
    by_layer = log.self_times()
    op_total = sum(r[3] - r[2] for r in log.rows
                   if r is not None and r[0] == "bench")
    accounted = sum(v for layer, v in by_layer.items() if layer != "bench")
    layers.set("trace.unaccounted_share",
               1.0 - accounted / op_total if op_total else None)
    n_ops = max(1, log.op)
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.endswith(".self_ms"):
            layer = name[:-len(".self_ms")]
            layers.values[name] = by_layer.get(layer, 0.0) * 1000.0 / n_ops


def run_one(args) -> int:
    H.bootstrap()
    # A terminated run must still stop the daemon it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    from spans import SpanLog
    from workload import Layers

    trace = bool(args.trace)
    env = H.env_begin()
    papers = C.SMOKE_PAPERS if args.smoke else C.N_PAPERS
    corpus = H.Corpus(args.seed, papers)
    layers = Layers()
    layers.values.update(corpus.steps)
    work_dir = os.path.join(H.OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    workload = workload_class(args.workload)(corpus, args.seed, args.smoke,
                                             work_dir)
    traced = None
    log = None
    try:
        setup_s = corpus.build_s + workload.setup(layers)
        H.settle()
        if trace:
            untraced = workload.measure(args.seconds / 2.0)
            log = SpanLog()
            with log.recording():
                traced = workload.measure(args.seconds / 2.0, log)
            span_metrics(layers, spec, untraced, traced, log)
            workload.probes(layers, untraced, traced, log)
        else:
            untraced = workload.measure(args.seconds)
        failed = untraced.failed + workload.check(untraced)
        attempted = untraced.attempted
        if traced is not None:
            failed += traced.failed + workload.check(traced)
            attempted += traced.attempted
        rss = workload.peak_rss_mib()
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    # Times of the measured phase are stated at the reference host speed:
    # the speed kernel ran between its operations (README.md, "Host drift").
    summary = untraced.main.summary()
    factor = untraced.speed.factor()
    end_to_end = {
        "setup_s": setup_s,
        "query_p50_ms": summary["p50"] * factor,
        "cell_geomean_ms": summary["cell_geomean"] * factor,
        "throughput_qps": untraced.throughput_qps() / factor,
        "peak_rss_mib": rss,
    }
    layers.set("host.speed_factor", factor)
    # The tails are reported as measured, and only where enough samples
    # lie beyond them.
    enough = args.smoke or summary["n"] >= 200
    layers.set("query_p95_ms", summary["p95"] if enough else None)
    enough = args.smoke or summary["n"] >= 1000
    layers.set("query_p99_ms", summary["p99"] if enough else None)
    layers.set("failed_share", failed / max(1, attempted))

    span_file = None
    if log is not None:
        span_file = os.path.join(H.OUT_DIR, f"trace-{args.workload}.jsonl")
        log.dump(span_file)

    def pick(section: str, values: Dict[str, float]) -> Dict[str, dict]:
        out = {}
        for metric in spec[section]:
            value = values.get(metric["name"], 0.0)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                value = 0.0
            out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        return out

    emitted = pick("per_layer", layers.values) if trace \
        else pick("end_to_end", end_to_end)
    result = {"correct": failed == 0, "attempted": int(attempted),
              "failed": int(failed), "metrics": emitted}
    run_file = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": int(trace), "smoke": args.smoke,
        "env": H.env_end(env), "result": result,
        "end_to_end": pick("end_to_end", end_to_end),
        "as_measured": {"query_p50_ms": summary["p50"],
                        "cell_geomean_ms": summary["cell_geomean"],
                        "throughput_qps": untraced.throughput_qps()},
        "host_speed": {"factor": factor,
                       "kernel_ms": untraced.speed.kernel_ms(),
                       "reference_ms": C.REF_KERNEL_MS,
                       "samples": len(untraced.speed.samples_ms)},
        "samples": {"main": summary["n"],
                    **{k: s.count for k, s in untraced.extra.items()}},
        "probe_errors": layers.errors,
        "hooks_skipped": log.skipped if log is not None else [],
        "span_file": span_file,
    }
    if trace:
        run_file["per_layer"] = emitted
        run_file["measured_here"] = sorted(layers.values)
    out = args.out or os.path.join(
        H.OUT_DIR, f"run-{args.workload}-s{args.seed}-t{int(trace)}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(run_file, handle, indent=1, sort_keys=True)
        handle.write("\n")

    bypassed = 0
    for name, metric in emitted.items():
        note = ""
        if name in layers.errors:
            note = f"   (null: {layers.errors[name]})"
        elif trace and name not in layers.values:
            bypassed += 1       # a layer this workload never enters: 0
            continue
        print(f"{args.workload:15s} {name:48s} "
              f"{metric['value']:14.4f} {metric['unit']}{note}")
    if bypassed:
        print(f"# {bypassed} per-layer metrics of layers this workload "
              "does not enter read 0")
    if run_file["env"]["noisy"]:
        print("# noisy: loadavg above nproc or calibration drift > 10 %")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# all workloads / smoke
# ---------------------------------------------------------------------------

def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool, out: str) -> dict:
    """One workload in its own process; returns its run file and prints
    its metric lines."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    if smoke:
        cmd.append("--smoke")
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=H.REPO_ROOT, capture_output=True,
                          text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited "
                         f"{done.returncode}")
    print("\n".join(lines[:-1]))
    print(f"# {workload} --trace {trace}: "
          f"{time.perf_counter() - started:.1f} s")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def _children(jobs: List[tuple], at_once: int) -> List[dict]:
    """Run the jobs, `at_once` at a time.  Measuring runs go one at a
    time; the smoke run, which checks plumbing and not speed, goes two at
    a time to stay short."""
    if at_once <= 1:
        return [_child(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=at_once) as pool:
        return list(pool.map(lambda job: _child(*job), jobs))


def run_all(args) -> int:
    H.bootstrap()
    spec = load_spec()
    seconds = args.seconds if not args.smoke else max(0.5, args.seconds / 10)
    at_once = 2 if args.smoke else 1
    os.makedirs(H.OUT_DIR, exist_ok=True)
    started = time.perf_counter()
    jobs = [(workload, args.seed, seconds, trace, args.smoke, os.path.join(
                H.OUT_DIR, f"run-{workload}-s{args.seed}-t{trace}.json"))
            for workload in C.WORKLOADS for trace in (0, 1)]
    if args.smoke:
        jobs.reverse()          # the longest child (serve, traced) first
    runs = _children(jobs, at_once)
    problems: List[str] = []
    if args.smoke:
        problems = smoke_checks(spec, runs, args.seed, seconds)
    combined = args.out or os.path.join(
        H.OUT_DIR, f"bench-s{args.seed}{'-smoke' if args.smoke else ''}.json")
    with open(combined, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": seconds,
                   "smoke": args.smoke, "runs": runs}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"# {len(runs)} runs in {time.perf_counter() - started:.1f} s, "
          f"{failed} failed operations, run file {combined}")
    for problem in problems:
        print(f"# SMOKE: {problem}")
    return 1 if failed or problems else 0


def smoke_checks(spec: dict, runs: List[dict], seed: int,
                 seconds: float) -> List[str]:
    """Every metric of BENCHMARK.json is measured by some workload with
    its unit, names are well formed, nothing is NaN or negative, and the
    exact counts repeat for the same seed."""
    problems: List[str] = []
    measured: Dict[str, dict] = {}
    for run in runs:
        for name, metric in run["end_to_end"].items():
            measured.setdefault(name, metric)
        for name in run.get("measured_here", []):
            if name in run["per_layer"]:
                measured.setdefault(name, run["per_layer"][name])
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            name = metric["name"]
            if not NAME_RE.match(name):
                problems.append(f"bad metric name {name!r}")
            got = measured.get(name)
            if got is None:
                problems.append(f"{name} measured by no workload")
            elif got["unit"] != metric["unit"]:
                problems.append(f"{name} unit {got['unit']!r}")
    for run in runs:
        emitted = dict(run["end_to_end"], **run.get("per_layer", {}))
        for name, metric in emitted.items():
            value = metric["value"]
            # overhead and api-minus-engine differences may be below zero
            signed = name.endswith("overhead_share") \
                or name.endswith("overhead_ms")
            if not math.isfinite(value) or (value < 0 and not signed):
                problems.append(f"{run['workload']}: {name} = {value}")
    counted = [run for run in runs if run["trace"] and any(
        name in run.get("measured_here", []) for name in EXACT_COUNTS)]
    again = _children([
        (run["workload"], seed, seconds, 1, True,
         os.path.join(H.OUT_DIR, f"run-{run['workload']}-repeat.json"))
        for run in counted], 2)
    for first, second in zip(counted, again):
        for name in EXACT_COUNTS:
            if name not in first["measured_here"]:
                continue
            before = first["per_layer"][name]["value"]
            after = second["per_layer"][name]["value"]
            if before != after:
                problems.append(f"{name} not exact: {before} then {after}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=C.WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=C.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=C.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
