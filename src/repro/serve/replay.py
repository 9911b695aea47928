"""Workload replay: re-drive a captured workload and diff the outcome.

``repro replay WORKLOAD DB`` loads a `repro.serve.capture` JSONL
workload and evaluates every recorded query against `DB` (sharded or
not), in-process, producing a **diff report**:

* **digests** -- per-query result digests vs. the capture (or a prior
  replay via ``--against``): a mismatch means the answers changed;
* **latency** -- replayed p50/p95/p99 next to the captured ones;
* **resources** -- summed `ResourceAccount` totals replayed vs.
  captured, plus the per-counter delta: did the same workload touch
  more data than it used to?

Two driving modes: **closed-loop** (default; back-to-back, what the
latency percentiles should be measured at) and **open-loop**
(``--mode open``; honor the recorded arrival offsets, scaled by
``--speed``) for load-shaped re-runs.

The report schema string stays ``repro.bench.replay/v1`` (its name
from when this module lived under ``repro.bench``) and keeps the
``ops.replay_query`` entry, so reports written by earlier commits still
diff through ``--against``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .capture import read_workload, result_digest

REPLAY_SCHEMA = "repro.bench.replay/v1"

#: The scalar account totals diffed between capture and replay.
ACCOUNT_TOTALS = ("bytes_mapped", "bytes_copied", "bytes_decompressed",
                  "postings_bytes_read", "columns_decompressed",
                  "cache_bytes_saved", "cache_bytes_paid")


def _percentiles(samples: Sequence[float]) -> Dict[str, float]:
    if not samples:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
                "mean_ms": 0.0, "n": 0}
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
        "mean_ms": float(arr.mean()),
        "n": int(len(arr)),
    }


def _sum_accounts(accounts: Sequence[Optional[Dict[str, Any]]]
                  ) -> Dict[str, int]:
    totals = {name: 0 for name in ACCOUNT_TOTALS}
    for account in accounts:
        if not account:
            continue
        for name in ACCOUNT_TOTALS:
            value = account.get(name)
            if isinstance(value, (int, float)):
                totals[name] += int(value)
    return totals


def _evaluate(db, entry: Dict[str, Any]):
    """Run one captured query; returns ``(payload_results, resources)``.

    Uses the same evaluation the daemon's inline (``workers=0``) mode
    uses -- `search_topk` / `search` on the database facade -- so a
    capture taken inline round-trips digest-exactly against the same
    database.
    """
    terms = entry.get("terms") or []
    semantics = entry.get("semantics", "elca")
    if entry.get("endpoint") == "topk":
        top = db.search_topk(terms, int(entry.get("k") or 10), semantics)
        return top.results.payload(), top.stats.resources
    results, stats = db.search(terms, semantics, with_stats=True)
    return results.payload(), stats.resources


def run_replay(workload_path: str, db_path: str, mode: str = "closed",
               speed: float = 1.0, limit: Optional[int] = None,
               against: Optional[Dict[str, Any]] = None,
               db=None) -> Dict[str, Any]:
    """Replay `workload_path` against `db_path` and build the report.

    ``against`` (a prior replay report dict) switches the latency and
    resource baselines from the capture to that report -- comparing two
    replays of the same workload on different databases or configs.
    ``db`` injects an already-open database (tests, doctor); otherwise
    `db_path` opens as ``repro serve`` opens it, so the resource diff
    compares like with like.
    """
    header, entries = read_workload(workload_path)
    if limit is not None:
        entries = entries[:limit]
    if db is None:
        from ..diskdb import load_database

        db = load_database(db_path, verify="lazy")
    latencies: List[float] = []
    replay_accounts: List[Optional[Dict[str, Any]]] = []
    mismatches: List[Dict[str, Any]] = []
    skipped_partial = 0
    matched = 0
    started = time.perf_counter()
    for index, entry in enumerate(entries):
        if mode == "open":
            due = started + (entry.get("offset_ms", 0.0) / 1000.0) / max(
                speed, 1e-9)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        t0 = time.perf_counter()
        payload, resources = _evaluate(db, entry)
        latencies.append((time.perf_counter() - t0) * 1000.0)
        # Diff like with like: an entry the capture never accounted
        # (served from the daemon's result cache) re-executes here, and
        # its cache-attribution counters (`cache_bytes_saved`) would
        # register as a spurious delta against a capture that recorded
        # nothing for it.  Its digest is still compared.
        replay_accounts.append(
            resources if entry.get("account") is not None else None)
        if entry.get("partial"):
            # A deadline/degradation partial is not reproducible by
            # construction; its digest is informational only.
            skipped_partial += 1
            continue
        digest = result_digest(payload)
        if digest == entry.get("digest"):
            matched += 1
        else:
            mismatches.append({
                "index": index,
                "terms": entry.get("terms"),
                "endpoint": entry.get("endpoint"),
                "k": entry.get("k"),
                "captured": entry.get("digest"),
                "replayed": digest,
                "captured_count": entry.get("result_count"),
                "replayed_count": len(payload),
            })
    captured_accounts = [e.get("account") for e in entries]
    captured_totals = _sum_accounts(captured_accounts)
    replayed_totals = _sum_accounts(replay_accounts)
    if against is not None:
        baseline_totals = dict(against.get("resources", {})
                               .get("replayed", captured_totals))
        baseline_latency = dict(against.get("ops", {})
                                .get("replay_query", {}))
        baseline_label = "prior replay"
    else:
        baseline_totals = captured_totals
        baseline_latency = _percentiles(
            [e.get("elapsed_ms", 0.0) for e in entries])
        baseline_label = "capture"
    delta = {name: replayed_totals[name] - baseline_totals.get(name, 0)
             for name in ACCOUNT_TOTALS
             if replayed_totals[name] != baseline_totals.get(name, 0)}
    accounted = sum(1 for a in captured_accounts if a)
    return {
        "schema": REPLAY_SCHEMA,
        "workload": workload_path,
        "workload_meta": header.get("meta"),
        "db": db_path,
        "queries": len(entries),
        "config": {"scale": "replay", "mode": mode, "speed": speed},
        "ops": {"replay_query": _percentiles(latencies)},
        "baseline": {"source": baseline_label,
                     "latency": baseline_latency},
        "digests": {
            "compared": matched + len(mismatches),
            "matched": matched,
            "mismatched": len(mismatches),
            "skipped_partial": skipped_partial,
            "mismatches": mismatches[:20],
        },
        "resources": {
            "captured_queries_with_account": accounted,
            "captured": captured_totals,
            "replayed": replayed_totals,
            "baseline": baseline_totals,
            "delta": delta,
        },
    }


def format_replay_report(report: Dict[str, Any]) -> str:
    ops = report["ops"]["replay_query"]
    digests = report["digests"]
    resources = report["resources"]
    baseline = report.get("baseline", {})
    lines = [
        f"replayed {report['queries']} queries from {report['workload']} "
        f"against {report['db']} "
        f"({report['config']['mode']}-loop, x{report['config']['speed']})",
        f"  latency: p50 {ops['p50_ms']:.3f}ms  p95 {ops['p95_ms']:.3f}ms  "
        f"p99 {ops['p99_ms']:.3f}ms",
    ]
    base_latency = baseline.get("latency") or {}
    if base_latency.get("n"):
        lines.append(
            f"  {baseline.get('source', 'capture')}: "
            f"p50 {base_latency.get('p50_ms', 0.0):.3f}ms  "
            f"p95 {base_latency.get('p95_ms', 0.0):.3f}ms")
    lines.append(
        f"  digests: {digests['matched']} matched, "
        f"{digests['mismatched']} mismatched, "
        f"{digests['skipped_partial']} partial (skipped)")
    for miss in digests["mismatches"][:5]:
        lines.append(f"    !! #{miss['index']} {miss['terms']} "
                     f"({miss['captured_count']} -> "
                     f"{miss['replayed_count']} results)")
    if resources["delta"]:
        lines.append("  resource deltas vs "
                     f"{baseline.get('source', 'capture')}:")
        for name, value in sorted(resources["delta"].items()):
            lines.append(f"    {name}: {value:+d}")
    else:
        lines.append("  resources: no deltas vs "
                     f"{baseline.get('source', 'capture')}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro replay",
        description="re-drive a captured workload and diff the outcome")
    parser.add_argument("workload", help="repro.workload/v1 JSONL "
                        "(from `repro serve --capture`)")
    parser.add_argument("db", help="database directory to replay against")
    parser.add_argument("--mode", choices=("closed", "open"),
                        default="closed",
                        help="closed-loop back-to-back (default) or "
                             "open-loop at the recorded arrival offsets")
    parser.add_argument("--speed", type=float, default=1.0,
                        help="open-loop arrival-rate multiplier")
    parser.add_argument("--limit", type=int, default=None,
                        help="replay only the first N queries")
    parser.add_argument("--against", metavar="REPORT_JSON",
                        help="diff against a prior replay report instead "
                             "of the capture")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report JSON here")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    parser.add_argument("--fail-on-mismatch", action="store_true",
                        help="exit 1 when any digest mismatched or any "
                             "resource total grew vs the baseline")
    args = parser.parse_args(argv)

    against = None
    if args.against:
        with open(args.against, "r", encoding="utf-8") as handle:
            against = json.load(handle)
    report = run_replay(args.workload, args.db, mode=args.mode,
                        speed=args.speed, limit=args.limit,
                        against=against)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_replay_report(report))
    if args.fail_on_mismatch:
        grew = any(value > 0
                   for value in report["resources"]["delta"].values())
        if report["digests"]["mismatched"] or grew:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
