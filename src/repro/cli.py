"""Command-line interface.

::

    python -m repro index bib.xml mydb/           # build + save a database
    python -m repro generate dblp mydb/ --papers 5000
    python -m repro search mydb/ "xml data" --semantics slca
    python -m repro topk mydb/ "xml keyword search" -k 10
    python -m repro serve-batch mydb/ queries.txt -k 10
    python -m repro index bib.xml mydb/ --shards 4   # sharded store
    python -m repro serve mydb/ --workers 2          # HTTP daemon
    python -m repro serve mydb/ --capture workload.jsonl
    python -m repro replay workload.jsonl mydb/ --fail-on-mismatch
    python -m repro doctor mydb/ --check
    python -m repro chaos mydb/ --spec kill=0.05,latency=0.2
    python -m repro info mydb/
    python -m repro trace mydb/ "xml data" --out trace.jsonl
    python -m repro trace --from-log access.jsonl --trace-id abc123
    python -m repro slo http://127.0.0.1:8388     # or: slo access.jsonl
    python -m repro audit mydb/ "xml data" --shadow sampled
    python -m repro metrics mydb/ --query "xml data" --prometheus

`search`/`topk`/`info` accept either a saved database directory or a
raw XML file (indexed on the fly).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from .api import ALGORITHMS, TOPK_ALGORITHMS, XMLDatabase
from .algorithms.base import SearchResult
from .reliability.errors import DatabaseFormatError, DeadlineExceeded

# Distinct exit codes so scripts can branch without parsing stderr:
# 1 = generic error, 2 = argparse usage (argparse's own convention),
# 3 = database directory / input file missing, 4 = database corrupt or
# format-incompatible, 5 = query deadline exceeded.
EXIT_MISSING = 3
EXIT_CORRUPT = 4
EXIT_DEADLINE = 5


def _load(path: str, verify: str = "eager") -> XMLDatabase:
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no such database directory or XML file: {path}")
    if os.path.isdir(path):
        from .diskdb import load_database

        return load_database(path, verify=verify)
    from .xmltree.parser import parse_xml_file

    return XMLDatabase.from_tree(parse_xml_file(path))


def _budget_kwargs(args: argparse.Namespace) -> dict:
    """Deadline kwargs for db.search/search_topk from --timeout-ms/--partial."""
    if getattr(args, "timeout_ms", None) is None:
        return {}
    return {"timeout_ms": args.timeout_ms,
            "on_deadline": "partial" if args.partial else "raise"}


def _print_results(results: List[SearchResult], limit: Optional[int],
                   elapsed_ms: float) -> None:
    shown = results if limit is None else results[:limit]
    for rank, r in enumerate(shown, start=1):
        path = ".".join(map(str, r.node.dewey))
        snippet = r.node.subtree_text()[:60]
        print(f"{rank:>3}. <{r.node.tag}> {path}  score={r.score:.4f}  "
              f"{snippet}")
    extra = len(results) - len(shown)
    if extra > 0:
        print(f"     ... and {extra} more")
    print(f"({len(results)} results in {elapsed_ms:.1f} ms)")


def cmd_search(args: argparse.Namespace) -> int:
    db = _load(args.database)
    start = time.perf_counter()
    results, stats = db.search(args.query, semantics=args.semantics,
                               algorithm=args.algorithm, with_stats=True,
                               **_budget_kwargs(args))
    elapsed = (time.perf_counter() - start) * 1000
    _print_results(results, args.limit, elapsed)
    if stats is not None and stats.partial:
        print(f"(partial: {args.timeout_ms:g} ms budget expired with "
              f"{stats.levels_skipped} levels unprocessed)")
    return 0


def cmd_topk(args: argparse.Namespace) -> int:
    db = _load(args.database)
    start = time.perf_counter()
    result = db.search_topk(args.query, args.k, semantics=args.semantics,
                            algorithm=args.algorithm,
                            **_budget_kwargs(args))
    elapsed = (time.perf_counter() - start) * 1000
    _print_results(list(result), None, elapsed)
    if result.partial:
        gap = ("unknown" if result.bound is None
               else f"{result.bound:.4f}")
        print(f"(partial: budget expired; unreturned results score "
              f"<= {gap})")
    elif result.terminated_early:
        print("(terminated early)")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    from .xmltree.parser import parse_xml_file

    db = XMLDatabase.from_tree(parse_xml_file(args.xml_file))
    n_terms = len(db.columnar_index.vocabulary)
    db.save(args.output, shards=args.shards)
    shards = f" ({args.shards} shards)" if args.shards else ""
    print(f"indexed {len(db)} nodes ({n_terms} terms) -> "
          f"{args.output}{shards}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.corpus == "dblp":
        db = XMLDatabase.generate_dblp(seed=args.seed,
                                       n_papers=args.papers)
    else:
        db = XMLDatabase.generate_xmark(seed=args.seed, scale=args.scale)
    db.save(args.output, shards=args.shards)
    shards = f" ({args.shards} shards)" if args.shards else ""
    print(f"generated {args.corpus}: {len(db)} nodes -> "
          f"{args.output}{shards}")
    return 0


def cmd_serve_batch(args: argparse.Namespace) -> int:
    """Evaluate a query workload as one `search_batch` call.

    Queries run one after another in this process (`repro serve
    --workers N` is the parallel path).  A saved directory is mapped
    and checked block by block as queries touch it; ``--eager``
    verifies every file's digest before the first query.
    """
    if args.queries == "-":
        lines = sys.stdin.readlines()
    else:
        if not os.path.exists(args.queries):
            raise FileNotFoundError(f"no such query file: {args.queries}")
        with open(args.queries, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    queries = [line.strip() for line in lines
               if line.strip() and not line.lstrip().startswith("#")]
    if not queries:
        print("error: no queries in the workload", file=sys.stderr)
        return 1
    db = _load(args.database, "eager" if args.eager else "lazy")
    batch = db.search_batch(queries, k=args.k, semantics=args.semantics,
                            algorithm=args.algorithm,
                            use_cache=not args.no_cache,
                            **_budget_kwargs(args))
    if not args.quiet:
        for index, (query, entry) in enumerate(zip(queries, batch)):
            if index in batch.errors:
                print(f"{index:>4}. ERROR {batch.errors[index]}  {query}")
            else:
                print(f"{index:>4}. {len(entry):>5} results  "
                      f"{batch.latencies_ms[index]:>8.2f} ms  {query}")
    qps = len(queries) / (batch.elapsed_ms / 1000.0) \
        if batch.elapsed_ms > 0 else float("inf")
    print(f"batch: {len(queries)} queries in {batch.elapsed_ms:.1f} ms "
          f"({qps:.1f} qps), {len(batch.errors)} errors")
    s = batch.summary
    print(f"work: levels={s.levels_processed} joins={s.joins} "
          f"tuples={s.tuples_scanned} cache_hits={s.cache_hits} "
          f"cache_misses={s.cache_misses}")
    # Exit-code consistency across verbs: `search`/`topk` map an
    # exceeded budget to EXIT_DEADLINE via the raised exception; batch
    # isolation catches those per query, so surface them here.
    if any(isinstance(exc, DeadlineExceeded)
           for exc in batch.errors.values()):
        return EXIT_DEADLINE
    return 1 if (batch.errors and args.fail_on_error) else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived scatter-gather query daemon.

    A directory saved with ``--shards`` loads straight into a
    `ShardedDatabase`; an unsharded database (or raw XML file) is
    re-partitioned in memory when ``--shards`` is given, else served
    as a single shard.
    """
    from .serve import ShardedDatabase, serve

    db = _load(args.database, "eager" if args.eager else "lazy")
    if isinstance(db, ShardedDatabase):
        if args.shards and args.shards != db.n_shards:
            print(f"error: database is saved with {db.n_shards} shards; "
                  f"re-shard with `repro index --shards {args.shards}`",
                  file=sys.stderr)
            return 1
    else:
        db = ShardedDatabase.from_database(db, args.shards or 1)
    from .obs import SLOConfig
    from .serve import BreakerConfig, ChaosInjector

    chaos = None
    if args.chaos:
        if args.workers < 1:
            print("error: --chaos needs --workers >= 1 (faults are "
                  "injected into shard worker processes)",
                  file=sys.stderr)
            return 1
        chaos = ChaosInjector.from_spec(args.chaos)
    serve(db, host=args.host, port=args.port, workers=args.workers,
          max_concurrency=args.max_concurrency,
          queue_limit=args.queue_limit,
          default_timeout_ms=args.timeout_ms,
          default_partial=args.partial,
          result_cache_size=args.result_cache_size,
          tracing=not args.no_tracing,
          access_log_path=args.access_log,
          trace_log_path=args.trace_log,
          slow_ms=args.slow_ms,
          tail_slow_ms=args.tail_slow_ms,
          tail_sample_rate=args.tail_sample_rate,
          slo_config=SLOConfig(
              availability_target=args.slo_availability,
              latency_target_ms=args.slo_latency_ms),
          retry_attempts=args.retry_attempts,
          hedge_ms=args.hedge_ms,
          breaker=BreakerConfig(
              consecutive_failures=args.breaker_failures,
              open_ms=args.breaker_open_ms),
          drain_grace_ms=args.drain_grace_ms,
          supervision=not args.no_supervision,
          chaos=chaos,
          capture_path=args.capture)
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    """Index analytics for a saved database directory."""
    from .obs.doctor import main as doctor_main

    if not os.path.isdir(args.database):
        raise FileNotFoundError(
            f"no such database directory: {args.database} "
            "(repro doctor reads saved directories, not raw XML)")
    argv = [args.database, "--heavy", str(args.heavy)]
    if args.workload:
        argv += ["--workload", args.workload]
    if args.no_codecs:
        argv.append("--no-codecs")
    if args.json:
        argv.append("--json")
    if args.out:
        argv += ["--out", args.out]
    if args.check:
        argv += ["--check",
                 "--max-shard-byte-skew", str(args.max_shard_byte_skew)]
        if args.max_shard_term_skew is not None:
            argv += ["--max-shard-term-skew",
                     str(args.max_shard_term_skew)]
        if args.max_term_share is not None:
            argv += ["--max-term-share", str(args.max_term_share)]
    return doctor_main(argv)


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-drive a captured workload and diff the outcome."""
    from .serve.replay import main as replay_main

    for path in (args.workload, args.database):
        if not os.path.exists(path):
            raise FileNotFoundError(f"no such file or directory: {path}")
    argv = [args.workload, args.database, "--mode", args.mode,
            "--speed", str(args.speed)]
    if args.limit is not None:
        argv += ["--limit", str(args.limit)]
    if args.against:
        argv += ["--against", args.against]
    if args.out:
        argv += ["--out", args.out]
    if args.json:
        argv.append("--json")
    if args.fail_on_mismatch:
        argv.append("--fail-on-mismatch")
    return replay_main(argv)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos drive: boot a fault-injected daemon, hammer it,
    wait for it to heal, and grade the run against the self-healing
    invariants (availability, bounded degraded responses, deadline
    ceiling, every killed pool rebuilt).  Exit 1 on any violation.
    """
    import json

    from .serve import (ChaosInjector, ShardedDatabase,
                        format_chaos_report, run_chaos_drive,
                        sample_queries)

    if args.workers < 1:
        print("error: chaos needs --workers >= 1 (faults are injected "
              "into shard worker processes)", file=sys.stderr)
        return 1
    db = _load(args.database, "lazy")
    if not isinstance(db, ShardedDatabase):
        db = ShardedDatabase.from_database(db, args.shards or 2)
    spec = args.spec
    if args.seed is not None:
        parts = [p for p in spec.split(",")
                 if p.strip() and not p.strip().startswith("seed=")]
        spec = ",".join(parts + [f"seed={args.seed}"])
    chaos = ChaosInjector.from_spec(spec)
    queries = sample_queries(db, seed=chaos.seed)
    report = run_chaos_drive(
        db, chaos, queries, workers=args.workers, k=args.k,
        requests=args.requests, clients=args.clients,
        timeout_ms=args.timeout_ms,
        availability_target=args.availability_target)
    print(format_chaos_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    return 0 if report["ok"] else 1


def _print_format_info(path: str) -> None:
    """Format version + per-codec column mix of a database directory,
    read straight from the on-disk containers (`repro.obs.doctor`)."""
    from .obs.doctor import doctor_report

    report = doctor_report(path)
    print(f"format:      v{report['format_version']}")
    mix = {codec: entry["columns"] for codec, entry
           in report["compression"]["by_codec"].items()}
    if mix:
        total = sum(mix.values())
        parts = ", ".join(
            f"{codec} {count} ({count / total:.0%})"
            for codec, count in sorted(mix.items(),
                                       key=lambda kv: (-kv[1], kv[0])))
        print(f"codecs:      {parts}")


def cmd_info(args: argparse.Namespace) -> int:
    db = _load(args.database)
    from .serve import ShardedDatabase

    if os.path.isdir(args.database):
        _print_format_info(args.database)
    if isinstance(db, ShardedDatabase):
        print(f"nodes:       {len(db)}")
        print(f"shards:      {db.n_shards} (strategy: "
              f"{(db.manifest or {}).get('strategy', 'root-child-mod')})")
        dirs = (db.manifest or {}).get("dirs") or []
        for sid, shard in enumerate(db.shards):
            idx = shard.columnar_index
            vocab = len(idx.vocabulary)
            postings = sum(len(idx.term_postings(t))
                           for t in idx.vocabulary)
            line = (f"  shard {sid:>2}:  {vocab} terms, "
                    f"{postings} postings")
            if sid < len(dirs) and os.path.isdir(args.database):
                columnar = os.path.join(args.database, dirs[sid],
                                        "columnar.bin")
                if os.path.exists(columnar):
                    line += (f", {os.path.getsize(columnar) / 1024:.1f} "
                             "KiB on disk")
            print(line)
        return 0
    index = db.columnar_index
    vocabulary = index.vocabulary
    print(f"nodes:       {len(db)}")
    print(f"depth:       {db.depth}")
    print(f"text nodes:  {index.n_docs}")
    print(f"vocabulary:  {len(vocabulary)} terms")
    postings = sum(index.document_frequency(t) for t in vocabulary)
    print(f"postings:    {postings}")
    from .index import storage

    # Table I sizes every structure, so this does derive the Dewey lists.
    report = storage.measure_sizes(index, db.inverted_index)
    for name, size in report.as_rows():
        print(f"{name + ':':<20}{size / 1024:>10.1f} KiB")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    db = _load(args.database)
    plan = db.explain(args.query, semantics=args.semantics,
                      trace=args.trace, analyze=args.analyze,
                      shadow=args.shadow)
    print(plan.format())
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """EXPLAIN ANALYZE: audit the section III-C plan of one query."""
    import json

    from .api import Query
    from .obs.audit import audit_query
    from .planner.cardinality import CardinalityEstimator
    from .planner.plans import JoinPlanner

    db = _load(args.database)
    terms = Query(args.query, db.tokenizer).terms
    planner = (JoinPlanner(args.policy) if args.policy != "dynamic"
               else None)
    estimator = (CardinalityEstimator(sample_size=args.sample_size)
                 if args.sample_size is not None else None)
    audit = audit_query(db.columnar_index, terms,
                        semantics=args.semantics, planner=planner,
                        estimator=estimator, shadow=args.shadow)
    if args.json:
        print(audit.to_json(indent=2))
    else:
        print(audit.format())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(audit.to_json(indent=2) + "\n")
        print(f"audit written to {args.out}")
    if args.fail_on_misprediction and audit.mispredicted_levels:
        return 1
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Dump the live metrics registry (Prometheus exposition by
    default).  With ``--query`` the given queries run first, so the
    dump reflects actual serving work rather than an empty registry."""
    import json

    from .obs import get_registry

    if args.database is not None:
        db = _load(args.database)
        registry = db.metrics
        for query in args.query or []:
            if args.k is not None:
                db.search_topk(query, args.k, semantics=args.semantics)
            else:
                db.search(query, semantics=args.semantics)
    else:
        registry = get_registry()
    if args.json:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(registry.render_prometheus(), end="")
    return 0


def _trace_from_log(path: str, trace_id: Optional[str]) -> int:
    """Render daemon trace/access JSONL: stitched traces as span trees,
    access-log entries as one-line summaries."""
    from .obs import format_access_record, read_jsonl, render_stitched

    if not os.path.exists(path):
        print(f"error: no such log file: {path}", file=sys.stderr)
        return EXIT_MISSING
    matched = 0
    for entry in read_jsonl(path):
        if trace_id is not None and entry.get("trace_id") != trace_id:
            continue
        if "root" in entry:  # stitched trace line (--trace-log)
            if matched:
                print()
            print(render_stitched(entry))
            matched += 1
        elif "status" in entry:  # access-log record (--access-log)
            print(format_access_record(entry))
            matched += 1
    if not matched:
        what = (f"trace {trace_id}" if trace_id is not None
                else "traces or access-log records")
        print(f"no {what} found in {path}", file=sys.stderr)
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (Tracer, phase_totals, render_phases, render_trace,
                      trace_to_jsonl)

    if args.from_log is not None:
        return _trace_from_log(args.from_log, args.trace_id)
    if args.trace_id is not None:
        print("error: --trace-id needs --from-log FILE (a daemon "
              "access/trace JSONL)", file=sys.stderr)
        return 2
    if args.database is None or args.query is None:
        print("error: database and query are required unless reading a "
              "log with --from-log", file=sys.stderr)
        return 2
    db = _load(args.database)
    tracer = Tracer()
    db.tracer = tracer
    if args.slow_ms is not None:
        from .obs import SlowQueryLog

        db.slow_log = SlowQueryLog(threshold_ms=args.slow_ms)
    start = time.perf_counter()
    if args.k is not None:
        results = list(db.search_topk(args.query, args.k,
                                      semantics=args.semantics))
    else:
        results = db.search(args.query, semantics=args.semantics,
                            use_cache=False)
    elapsed = (time.perf_counter() - start) * 1000
    root = tracer.last_root()
    print(render_trace(root))
    print(render_phases(phase_totals(root)))
    print(f"({len(results)} results in {elapsed:.1f} ms)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(trace_to_jsonl(tracer.roots()))
        print(f"trace written to {args.out}")
    if args.metrics_out:
        import json

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(db.metrics_snapshot(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"metrics snapshot written to {args.metrics_out}")
    if args.prometheus:
        print(db.metrics.render_prometheus(), end="")
    if db.slow_log is not None and len(db.slow_log):
        record = db.slow_log.records()[-1]
        print(f"slow query (>= {db.slow_log.threshold_ms:.0f} ms): "
              f"{' '.join(record.terms)} took {record.elapsed_ms:.1f} ms")
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    """SLO report from a live daemon (URL) or an access log (JSONL)."""
    import json

    from .obs import (SLOConfig, format_slo_report, read_jsonl,
                      report_from_records)

    target = args.target
    if target.startswith(("http://", "https://")):
        import urllib.request

        url = target.rstrip("/")
        if not url.endswith("/slo"):
            url += "/slo"
        try:
            with urllib.request.urlopen(url, timeout=10) as resp:
                report = json.load(resp)
        except OSError as exc:
            print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
            return 1
    else:
        if not os.path.exists(target):
            print(f"error: no such access log: {target}", file=sys.stderr)
            return EXIT_MISSING
        config = SLOConfig(
            availability_target=args.availability_target,
            latency_target_ms=args.latency_target_ms,
            latency_target_ratio=args.latency_target_ratio)
        report = report_from_records(read_jsonl(target), config)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_slo_report(report))
    if args.fail_on_alert and report.get("alerts"):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-K keyword search in XML databases (ICDE 2010 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="complete result set")
    p.add_argument("database", help="database directory or XML file")
    p.add_argument("query", help="keyword query, e.g. 'xml data'")
    p.add_argument("--semantics", choices=("elca", "slca"),
                   default="elca")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="join")
    p.add_argument("--limit", type=int, default=20,
                   help="results to print (all are counted)")
    p.add_argument("--timeout-ms", type=float, default=None,
                   help="query budget in milliseconds")
    p.add_argument("--partial", action="store_true",
                   help="return partial results on an expired budget "
                        "instead of failing (exit 5)")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("topk", help="top-K results, best first")
    p.add_argument("database", help="database directory or XML file")
    p.add_argument("query")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--semantics", choices=("elca", "slca"),
                   default="elca")
    p.add_argument("--algorithm", choices=TOPK_ALGORITHMS,
                   default="topk-join")
    p.add_argument("--timeout-ms", type=float, default=None,
                   help="query budget in milliseconds")
    p.add_argument("--partial", action="store_true",
                   help="return the proven prefix on an expired budget "
                        "instead of failing (exit 5)")
    p.set_defaults(fn=cmd_topk)

    p = sub.add_parser("index", help="index an XML file into a database")
    p.add_argument("xml_file")
    p.add_argument("output", help="database directory to create")
    p.add_argument("--shards", type=int, default=None,
                   help="partition the index into N subtree-affine "
                        "shards (see docs/SERVING.md)")
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("generate",
                       help="generate a synthetic corpus database")
    p.add_argument("corpus", choices=("dblp", "xmark"))
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--papers", type=int, default=2000,
                   help="DBLP paper count")
    p.add_argument("--scale", type=float, default=0.01,
                   help="XMark scale factor")
    p.add_argument("--shards", type=int, default=None,
                   help="partition the index into N subtree-affine "
                        "shards (see docs/SERVING.md)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("serve-batch",
                       help="evaluate a query workload as one "
                            "sequential batch")
    p.add_argument("database", help="database directory or XML file")
    p.add_argument("queries",
                   help="file with one query per line ('-' = stdin; "
                        "blank lines and #-comments skipped)")
    p.add_argument("-k", type=int, default=None,
                   help="run top-K evaluations instead of complete")
    p.add_argument("--semantics", choices=("elca", "slca"),
                   default="elca")
    p.add_argument("--algorithm", default=None,
                   help="override the per-mode default algorithm")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the result cache")
    p.add_argument("--eager", action="store_true",
                   help="verify every file's digest at load instead of "
                        "block by block as queries touch them")
    p.add_argument("--timeout-ms", type=float, default=None,
                   help="shared budget for the whole batch")
    p.add_argument("--partial", action="store_true",
                   help="partial results on an expired budget")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-query lines")
    p.add_argument("--fail-on-error", action="store_true",
                   help="exit 1 if any query in the batch failed")
    p.set_defaults(fn=cmd_serve_batch)

    p = sub.add_parser("serve",
                       help="long-lived sharded scatter-gather query "
                            "daemon (HTTP; see docs/SERVING.md)")
    p.add_argument("database", help="database directory or XML file")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8388,
                   help="listen port (0 = ephemeral, printed at start)")
    p.add_argument("--shards", type=int, default=None,
                   help="re-partition an unsharded database in memory; "
                        "sharded directories use their manifest")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes per shard (0 = evaluate "
                        "in-process on a thread)")
    p.add_argument("--max-concurrency", type=int, default=8,
                   help="queries evaluated at once; above this they "
                        "queue")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="queued queries before 429 queue_full shedding")
    p.add_argument("--timeout-ms", type=float, default=None,
                   help="default per-query budget when the request "
                        "carries none")
    p.add_argument("--partial", action="store_true",
                   help="default deadline policy: partial results "
                        "instead of 504")
    p.add_argument("--result-cache-size", type=int, default=1024,
                   help="daemon response cache entries (0 disables)")
    p.add_argument("--eager", action="store_true",
                   help="verify every file's digest at load instead of "
                        "block by block as queries touch them")
    p.add_argument("--no-tracing", action="store_true",
                   help="disable distributed trace collection (access "
                        "log and SLO tracking stay on)")
    p.add_argument("--access-log", default=None, metavar="PATH",
                   help="append one JSONL record per request here")
    p.add_argument("--trace-log", default=None, metavar="PATH",
                   help="append retained stitched traces as JSONL here")
    p.add_argument("--slow-ms", type=float, default=None,
                   help="record served requests over this wall time in "
                        "the daemon slow-query log")
    p.add_argument("--tail-slow-ms", type=float, default=250.0,
                   help="tail sampling: always retain traces at or "
                        "above this latency")
    p.add_argument("--tail-sample-rate", type=float, default=1.0,
                   help="retention probability for fast, healthy "
                        "traces (outliers are always kept)")
    p.add_argument("--slo-availability", type=float, default=0.999,
                   help="availability objective for /slo burn rates")
    p.add_argument("--slo-latency-ms", type=float, default=250.0,
                   help="latency objective for /slo burn rates")
    p.add_argument("--retry-attempts", type=int, default=2,
                   help="per-shard attempts for transient failures "
                        "(crashed worker, corrupt reply); 1 disables")
    p.add_argument("--hedge-ms", type=float, default=None,
                   help="fire a duplicate shard request after this "
                        "many ms without a reply (tail hedging; off "
                        "by default)")
    p.add_argument("--breaker-failures", type=int, default=3,
                   help="consecutive shard failures that open its "
                        "circuit breaker")
    p.add_argument("--breaker-open-ms", type=float, default=250.0,
                   help="base quarantine before a breaker half-opens "
                        "(doubles per re-trip, seeded jitter)")
    p.add_argument("--drain-grace-ms", type=float, default=5000.0,
                   help="SIGTERM drain: wait this long for in-flight "
                        "requests before stopping the pools")
    p.add_argument("--no-supervision", action="store_true",
                   help="disable breakers/retries/degraded partials; "
                        "any shard failure fails the request (A/B "
                        "overhead measurement)")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   help="fault-injection schedule, e.g. "
                        "'kill=0.02,latency=0.1,latency-ms=50,"
                        "error=0.05,byte=0.01,seed=3' (requires "
                        "--workers >= 1; see docs/RELIABILITY.md)")
    p.add_argument("--capture", default=None, metavar="PATH",
                   help="record every answered query (terms, k, arrival "
                        "offset, result digest, resource account) as a "
                        "replayable JSONL workload")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("doctor",
                       help="index analytics: per-term size "
                            "distribution, compression ratios, shard "
                            "skew, cache-efficiency estimates")
    p.add_argument("database", help="saved database directory")
    p.add_argument("--workload", default=None, metavar="JSONL",
                   help="captured workload (`serve --capture`) for the "
                        "cache-efficiency estimate")
    p.add_argument("--heavy", type=int, default=10,
                   help="heavy-hitter terms to list")
    p.add_argument("--no-codecs", action="store_true",
                   help="skip the per-level/per-codec compression scan")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the report JSON here")
    p.add_argument("--check", action="store_true",
                   help="apply thresholds; exit 1 on violation (CI gate)")
    p.add_argument("--max-shard-byte-skew", type=float, default=1.5,
                   help="max shard postings-bytes max/mean ratio "
                        "(default 1.5)")
    p.add_argument("--max-shard-term-skew", type=float, default=None)
    p.add_argument("--max-term-share", type=float, default=None,
                   help="max single-term share of total postings bytes")
    p.set_defaults(fn=cmd_doctor)

    p = sub.add_parser("replay",
                       help="re-drive a captured workload against a "
                            "database and diff digests, latency and "
                            "resource accounts")
    p.add_argument("workload", help="repro.workload/v1 JSONL from "
                                    "`repro serve --capture`")
    p.add_argument("database", help="database directory to replay "
                                    "against")
    p.add_argument("--mode", choices=("closed", "open"), default="closed",
                   help="closed-loop back-to-back (default) or "
                        "open-loop at the recorded arrival offsets")
    p.add_argument("--speed", type=float, default=1.0,
                   help="open-loop arrival-rate multiplier")
    p.add_argument("--limit", type=int, default=None,
                   help="replay only the first N queries")
    p.add_argument("--against", default=None, metavar="REPORT_JSON",
                   help="diff against a prior replay report instead of "
                        "the capture")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the replay report JSON here")
    p.add_argument("--json", action="store_true")
    p.add_argument("--fail-on-mismatch", action="store_true",
                   help="exit 1 on any digest mismatch or grown "
                        "resource total")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("chaos",
                       help="seeded chaos drive against an in-process "
                            "daemon: kill workers, inject faults, "
                            "assert availability and healing SLOs")
    p.add_argument("database", help="database directory or XML file")
    p.add_argument("--spec", default="kill=0.05,latency=0.15,"
                                     "latency-ms=40,error=0.05,byte=0.02",
                   help="fault mix, same syntax as `serve --chaos`")
    p.add_argument("--seed", type=int, default=None,
                   help="chaos schedule seed (overrides seed= in --spec)")
    p.add_argument("--shards", type=int, default=None,
                   help="re-partition an unsharded database in memory")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes per shard (must be >= 1)")
    p.add_argument("--requests", type=int, default=200,
                   help="requests to drive through the fault schedule")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent keep-alive client connections")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--timeout-ms", type=float, default=1500.0,
                   help="per-request deadline during the drive")
    p.add_argument("--availability-target", type=float, default=0.99,
                   help="minimum accepted-request availability "
                        "(429 sheds excluded)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the full chaos report here as JSON")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("info", help="database statistics and index sizes")
    p.add_argument("database")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("explain",
                       help="per-level plan of the join-based evaluation")
    p.add_argument("database")
    p.add_argument("query")
    p.add_argument("--semantics", choices=("elca", "slca"),
                   default="elca")
    p.add_argument("--trace", action="store_true",
                   help="attach the span tree of the evaluation")
    p.add_argument("--analyze", action="store_true",
                   help="EXPLAIN ANALYZE: audit predicted vs. actual "
                        "cardinality and plan regret per level")
    p.add_argument("--shadow", choices=("off", "sampled", "all"),
                   default="off",
                   help="with --analyze, also run the not-chosen join "
                        "algorithm for measured regret")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("audit",
                       help="EXPLAIN ANALYZE the section III-C plan of "
                            "one query (q-error, regret, verdict)")
    p.add_argument("database")
    p.add_argument("query")
    p.add_argument("--semantics", choices=("elca", "slca"),
                   default="elca")
    p.add_argument("--shadow", choices=("off", "sampled", "all"),
                   default="off",
                   help="really run the not-chosen join algorithm: "
                        "never / on sampled levels / everywhere")
    p.add_argument("--policy", choices=("dynamic", "merge", "index"),
                   default="dynamic",
                   help="join policy to audit (forced plans show what "
                        "the optimizer saves)")
    p.add_argument("--sample-size", type=int, default=None,
                   help="cardinality probe sample size (0 disables the "
                        "sampled refinement, auditing the pure "
                        "containment formula)")
    p.add_argument("--json", action="store_true",
                   help="print the audit as JSON instead of text")
    p.add_argument("--out", default=None,
                   help="also write the audit as JSON to this file")
    p.add_argument("--fail-on-misprediction", action="store_true",
                   help="exit 1 if any level is flagged")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("metrics",
                       help="dump the metrics registry (Prometheus "
                            "exposition; --json for the raw snapshot)")
    p.add_argument("database", nargs="?", default=None,
                   help="optional database; with --query, queries run "
                        "first so the dump reflects real serving work")
    p.add_argument("--query", action="append", default=None,
                   help="query to run before dumping (repeatable)")
    p.add_argument("-k", type=int, default=None,
                   help="run --query as top-K instead of complete")
    p.add_argument("--semantics", choices=("elca", "slca"),
                   default="elca")
    p.add_argument("--json", action="store_true",
                   help="raw MetricsRegistry.snapshot() JSON instead of "
                        "Prometheus exposition")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("trace",
                       help="run one traced query (span tree), or "
                            "render daemon trace/access JSONL with "
                            "--from-log")
    p.add_argument("database", nargs="?", default=None)
    p.add_argument("query", nargs="?", default=None)
    p.add_argument("-k", type=int, default=None,
                   help="trace a top-K search instead of a complete one")
    p.add_argument("--semantics", choices=("elca", "slca"),
                   default="elca")
    p.add_argument("--out", default=None,
                   help="write the span tree as JSONL to this file")
    p.add_argument("--metrics-out", default=None,
                   help="write the metrics snapshot as JSON to this file")
    p.add_argument("--prometheus", action="store_true",
                   help="print the Prometheus text exposition")
    p.add_argument("--slow-ms", type=float, default=None,
                   help="slow-query threshold; report if exceeded")
    p.add_argument("--from-log", default=None, metavar="FILE",
                   help="read a daemon --trace-log / --access-log JSONL "
                        "instead of running a query; stitched traces "
                        "render as per-shard span trees")
    p.add_argument("--trace-id", default=None,
                   help="with --from-log: only entries for this trace")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("slo",
                       help="SLO burn-rate report from a daemon URL "
                            "(GET /slo) or an access-log JSONL file")
    p.add_argument("target",
                   help="http(s)://host:port of a live daemon, or the "
                        "path of an access-log JSONL")
    p.add_argument("--availability-target", type=float, default=0.999,
                   help="offline reports: availability objective")
    p.add_argument("--latency-target-ms", type=float, default=250.0,
                   help="offline reports: latency objective (ms)")
    p.add_argument("--latency-target-ratio", type=float, default=0.99,
                   help="offline reports: fraction of 200s that must "
                        "beat the latency objective")
    p.add_argument("--json", action="store_true",
                   help="print the raw report JSON")
    p.add_argument("--fail-on-alert", action="store_true",
                   help="exit 1 if any objective burns faster than "
                        "budget (CI gating)")
    p.set_defaults(fn=cmd_slo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except DatabaseFormatError as exc:
        # Covers DatabaseCorruptError (its subclass): checksum
        # mismatches, truncated files, interrupted saves.
        print(f"error: database unusable: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except DeadlineExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEADLINE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Reader went away mid-stream (e.g. `repro trace ... | head`).
        # Redirect stdout so the interpreter's exit flush doesn't raise
        # a second time, and exit the way Unix filters do.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
