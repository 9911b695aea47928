"""`repro doctor` -- index analytics for a saved database directory.

Reads the on-disk containers directly (no query engine, no index
objects): per-term postings sizes from the container framing, per-level
and per-codec compressed-vs-raw ratios from the per-term payloads,
shard skew from the ``shard-NN/`` layout, and -- given a captured
workload (``--workload``, `repro.serve.capture` JSONL) -- a
cache-efficiency estimate that says how much of the workload's postings
traffic a warm postings cache could absorb.

The report answers the operational questions the serving PRs keep
running into:

* which terms dominate the index (heavy hitters -- the queries that
  will always be slow);
* whether compression is pulling its weight per level and per codec;
* whether the shard partitioning is balanced (a skewed shard bounds
  the scatter's p99);
* whether a postings cache is worth its memory for a real workload.

``--check`` turns thresholds (max shard byte-skew, max single-term
index share) into exit codes, so CI can gate on index health the same
way it gates on perf.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

DOCTOR_SCHEMA = "repro.doctor/v1"


def _percentiles(values: Sequence[float]) -> Dict[str, float]:
    if not len(values):
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0,
                "max": 0.0}
    arr = np.asarray(values, dtype=np.float64)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p99": float(np.percentile(arr, 99)),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }


def _scan_columnar(path: str):
    """``(data, refs)`` for one mapped columnar container."""
    from ..index.storage import scan_container
    from ..reliability.io import map_bytes

    data = map_bytes(path).view
    return data, scan_container(data, file=path)[1]


def _codec_level_stats(containers) -> Dict[str, Any]:
    """Per-level / per-codec compressed-vs-raw totals over the
    ``(data, refs)`` containers of a database (one a shard).

    Raw size uses the 4-byte value model
    (`repro.index.compression.uncompressed_size`), the same yardstick
    the build-time `measure_sizes` report uses, so the two agree.
    The per-level entries also carry a ``codecs`` histogram -- the
    selector's choices (how many columns at that level landed on each
    codec), the quickest answer to "is FOR pulling its weight?".
    """
    from ..index.compression import decompress_column
    from ..index.storage import parse_payload

    by_level: Dict[int, Dict[str, Any]] = {}
    by_codec: Dict[str, Dict[str, int]] = {}
    for data, ref in ((data, ref) for data, refs in containers
                      for ref in refs):
        payload = data[ref.offset: ref.offset + ref.length]
        _lengths, _scores, level_payloads = parse_payload(
            ref.term, payload)
        for idx, (scheme, column) in enumerate(level_payloads):
            level = idx + 1
            compressed = int(len(column))
            values = decompress_column(scheme, column)
            raw = int(len(values)) * 4
            lv = by_level.setdefault(level, {"compressed": 0, "raw": 0,
                                             "postings": 0, "codecs": {}})
            lv["compressed"] += compressed
            lv["raw"] += raw
            lv["postings"] += int(len(values))
            lv["codecs"][scheme] = lv["codecs"].get(scheme, 0) + 1
            cd = by_codec.setdefault(scheme, {"compressed": 0, "raw": 0,
                                              "columns": 0})
            cd["compressed"] += compressed
            cd["raw"] += raw
            cd["columns"] += 1

    def ratio(entry):
        entry = dict(entry)
        entry["ratio"] = (entry["compressed"] / entry["raw"]
                          if entry["raw"] else 0.0)
        return entry

    return {
        "by_level": {str(level): ratio(entry)
                     for level, entry in sorted(by_level.items())},
        "by_codec": {codec: ratio(entry)
                     for codec, entry in sorted(by_codec.items())},
    }


def _term_stats(refs, heavy: int) -> Dict[str, Any]:
    # A sharded index splits one term's postings across shards; merge
    # by term before ranking, so heavy hitters reflect the whole-index
    # size of a term (the cost of a query using it), not one fragment.
    per_term: Dict[str, int] = {}
    for ref in refs:
        per_term[ref.term] = per_term.get(ref.term, 0) + int(ref.length)
    sizes = list(per_term.values())
    total = int(sum(sizes))
    ranked = sorted(per_term.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "terms": len(per_term),
        "total_bytes": total,
        "size_bytes": _percentiles(sizes),
        "heavy_hitters": [{
            "term": term,
            "bytes": nbytes,
            "share": (nbytes / total if total else 0.0),
        } for term, nbytes in ranked[:heavy]],
    }


def _shard_dirs(path: str, meta: Dict[str, Any]) -> List[Tuple[str, str]]:
    """``(label, dir)`` pairs holding a columnar container each."""
    shards = meta.get("shards")
    if shards:
        return [(dirname, os.path.join(path, dirname))
                for dirname in shards.get("dirs", [])]
    return [("", path)]


def doctor_report(path: str, workload: Optional[str] = None,
                  heavy: int = 10, codecs: bool = True) -> Dict[str, Any]:
    """Build the full analytics report for a database directory."""
    meta_path = os.path.join(path, "meta.json")
    with open(meta_path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    from ..diskdb import require_current_format

    require_current_format(path, meta.get("format_version"))
    report: Dict[str, Any] = {
        "schema": DOCTOR_SCHEMA,
        "db": path,
        "format_version": meta.get("format_version"),
        "sharded": bool(meta.get("shards")),
    }
    shard_entries: List[Dict[str, Any]] = []
    all_refs = []
    containers = []
    term_sizes: Dict[str, int] = {}
    for label, shard_dir in _shard_dirs(path, meta):
        columnar = os.path.join(shard_dir, "columnar.bin")
        data, refs = _scan_columnar(columnar)
        entry: Dict[str, Any] = {"dir": label or ".",
                                 "terms": len(refs),
                                 "postings_bytes": int(
                                     sum(r.length for r in refs)),
                                 "columnar_bytes":
                                     os.path.getsize(columnar)}
        shard_entries.append(entry)
        all_refs.extend(refs)
        for ref in refs:
            term_sizes[ref.term] = term_sizes.get(ref.term, 0) + ref.length
        containers.append((data, refs))
    if codecs:
        report["compression"] = _codec_level_stats(containers)
    report["postings"] = _term_stats(all_refs, heavy)
    table = os.path.join(path, "dewey.bin")
    if os.path.exists(table):
        report["node_table_bytes"] = os.path.getsize(table)
    if report["sharded"] and len(shard_entries) > 1:
        term_counts = [e["terms"] for e in shard_entries]
        # A shard's directory holds its columnar container and nothing
        # else (document and node table are shared), so that file is
        # the shard's byte weight.
        byte_counts = [e["columnar_bytes"] for e in shard_entries]
        report["shards"] = {
            "count": len(shard_entries),
            "per_shard": shard_entries,
            "term_skew": (max(term_counts) / (sum(term_counts)
                          / len(term_counts)) if sum(term_counts) else 0.0),
            "byte_skew": (max(byte_counts) / (sum(byte_counts)
                          / len(byte_counts)) if sum(byte_counts) else 0.0),
        }
    elif report["sharded"]:
        report["shards"] = {"count": len(shard_entries),
                            "per_shard": shard_entries,
                            "term_skew": 1.0, "byte_skew": 1.0}
    if workload:
        report["cache"] = _cache_estimate(workload, term_sizes)
    return report


def _cache_estimate(workload_path: str,
                    term_sizes: Dict[str, int]) -> Dict[str, Any]:
    """Infinite-cache upper bound on what a postings cache saves.

    Every term fetch after the first is a potential hit; the bytes
    saved are that term's compressed postings size per avoided fetch.
    An upper bound, not a simulation -- it says whether a cache *can*
    help this workload, and how much memory the working set needs.
    """
    from ..serve.capture import read_workload

    _header, entries = read_workload(workload_path)
    fetches = 0
    freq: Dict[str, int] = {}
    for entry in entries:
        for term in entry.get("terms") or []:
            fetches += 1
            freq[term] = freq.get(term, 0) + 1
    unique = len(freq)
    saved = sum((count - 1) * term_sizes.get(term, 0)
                for term, count in freq.items())
    paid = sum(term_sizes.get(term, 0) for term in freq)
    hot = sorted(freq.items(),
                 key=lambda kv: (-(kv[1] - 1) * term_sizes.get(kv[0], 0),
                                 kv[0]))[:10]
    return {
        "workload": workload_path,
        "queries": len(entries),
        "term_fetches": fetches,
        "unique_terms": unique,
        "max_hit_ratio": ((fetches - unique) / fetches if fetches else 0.0),
        "working_set_bytes": paid,
        "max_bytes_saved": saved,
        "hot_terms": [{
            "term": term, "fetches": count,
            "bytes_saved": (count - 1) * term_sizes.get(term, 0),
        } for term, count in hot],
    }


def run_checks(report: Dict[str, Any],
               max_byte_skew: Optional[float] = None,
               max_term_skew: Optional[float] = None,
               max_term_share: Optional[float] = None) -> List[str]:
    """Threshold violations as human-readable failure strings."""
    failures: List[str] = []
    shards = report.get("shards")
    if max_byte_skew is not None and shards is not None:
        if shards["byte_skew"] > max_byte_skew:
            failures.append(
                f"shard byte skew {shards['byte_skew']:.2f} exceeds "
                f"--max-shard-byte-skew {max_byte_skew:.2f}")
    if max_term_skew is not None and shards is not None:
        if shards["term_skew"] > max_term_skew:
            failures.append(
                f"shard term skew {shards['term_skew']:.2f} exceeds "
                f"--max-shard-term-skew {max_term_skew:.2f}")
    if max_term_share is not None:
        for hitter in report["postings"]["heavy_hitters"]:
            if hitter["share"] > max_term_share:
                failures.append(
                    f"term {hitter['term']!r} holds "
                    f"{hitter['share']:.1%} of postings bytes, over "
                    f"--max-term-share {max_term_share:.1%}")
    return failures


def format_doctor_report(report: Dict[str, Any]) -> str:
    lines = [f"repro doctor: {report['db']} "
             f"(format v{report['format_version']}, "
             f"{'sharded' if report['sharded'] else 'single'})"]
    postings = report["postings"]
    size = postings["size_bytes"]
    lines.append(
        f"  postings: {postings['terms']} terms, "
        f"{postings['total_bytes']} bytes "
        f"(p50 {size['p50']:.0f}, p99 {size['p99']:.0f}, "
        f"max {size['max']:.0f})")
    for hitter in postings["heavy_hitters"][:5]:
        lines.append(f"    heavy: {hitter['term']!r} {hitter['bytes']}B "
                     f"({hitter['share']:.1%})")
    compression = report.get("compression")
    if compression:
        for level, entry in compression["by_level"].items():
            line = (f"  level {level}: {entry['postings']} postings, "
                    f"{entry['compressed']}/{entry['raw']}B "
                    f"(ratio {entry['ratio']:.2f})")
            hist = entry.get("codecs")
            if hist:
                mix = ", ".join(f"{codec} x{count}" for codec, count
                                in sorted(hist.items()))
                line += f" [{mix}]"
            lines.append(line)
        for codec, entry in compression["by_codec"].items():
            lines.append(
                f"  codec {codec}: {entry['columns']} columns, "
                f"{entry['compressed']}/{entry['raw']}B "
                f"(ratio {entry['ratio']:.2f})")
    shards = report.get("shards")
    if shards:
        lines.append(f"  shards: {shards['count']} "
                     f"(term skew {shards['term_skew']:.2f}, "
                     f"byte skew {shards['byte_skew']:.2f})")
        for entry in shards["per_shard"]:
            lines.append(f"    {entry['dir']}: {entry['terms']} terms, "
                         f"{entry['postings_bytes']}B postings")
    cache = report.get("cache")
    if cache:
        lines.append(
            f"  cache (from {cache['workload']}): "
            f"{cache['queries']} queries, {cache['term_fetches']} term "
            f"fetches, max hit ratio {cache['max_hit_ratio']:.1%}, "
            f"working set {cache['working_set_bytes']}B, "
            f"up to {cache['max_bytes_saved']}B saved")
        for hot in cache["hot_terms"][:5]:
            lines.append(f"    hot: {hot['term']!r} x{hot['fetches']} "
                         f"({hot['bytes_saved']}B saved)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro doctor",
        description="index analytics for a saved database directory")
    parser.add_argument("db", help="database directory")
    parser.add_argument("--workload", metavar="JSONL",
                        help="captured workload for the cache-efficiency "
                             "estimate")
    parser.add_argument("--heavy", type=int, default=10,
                        help="heavy hitters to list (default 10)")
    parser.add_argument("--no-codecs", action="store_true",
                        help="skip the per-level/per-codec scan (fast "
                             "mode; it decompresses every column)")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report JSON here")
    parser.add_argument("--check", action="store_true",
                        help="apply thresholds; exit 1 on violation")
    parser.add_argument("--max-shard-byte-skew", type=float, default=1.5,
                        help="max shard bytes max/mean ratio "
                             "(default 1.5, with --check)")
    parser.add_argument("--max-shard-term-skew", type=float, default=None)
    parser.add_argument("--max-term-share", type=float, default=None,
                        help="max single-term share of postings bytes")
    args = parser.parse_args(argv)

    report = doctor_report(args.db, workload=args.workload,
                           heavy=args.heavy, codecs=not args.no_codecs)
    failures: List[str] = []
    if args.check:
        failures = run_checks(
            report, max_byte_skew=args.max_shard_byte_skew,
            max_term_skew=args.max_shard_term_skew,
            max_term_share=args.max_term_share)
        report["checks"] = {"failures": failures, "ok": not failures}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_doctor_report(report))
        for failure in failures:
            print(f"  CHECK FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
