"""Command-line interface.

::

    python -m repro index bib.xml mydb/           # build + save a database
    python -m repro generate dblp mydb/ --papers 5000
    python -m repro search mydb/ "xml data" --semantics slca
    python -m repro topk mydb/ "xml keyword search" -k 10
    python -m repro serve-batch mydb/ queries.txt -k 10
    python -m repro index bib.xml mydb/ --shards 4   # sharded store
    python -m repro serve mydb/ --workers 2          # HTTP daemon
    python -m repro info mydb/
    python -m repro trace mydb/ "xml data" --out trace.jsonl
    python -m repro trace --from-log access.jsonl --trace-id abc123

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


def _load(path: str, verify: str = "eager", **db_kwargs) -> XMLDatabase:
    """The database at `path`; ``db_kwargs`` (``tracer``) go to every
    `XMLDatabase` it is made of."""
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no such database directory or XML file: {path}")
    if os.path.isdir(path):
        from .diskdb import load_database

        return load_database(path, verify=verify, **db_kwargs)
    from .xmltree.parser import parse_xml_file

    return XMLDatabase.from_tree(parse_xml_file(path), **db_kwargs)


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
    and checked block by block as queries touch it.
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
    db = _load(args.database, "lazy")
    batch = db.search_batch(queries, k=args.k, semantics=args.semantics,
                            algorithm=args.algorithm,
                            **_budget_kwargs(args))
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
          f"tuples={s.tuples_scanned}")
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

    db = _load(args.database, "lazy")
    if isinstance(db, ShardedDatabase):
        if args.shards and args.shards != db.n_shards:
            print(f"error: database is saved with {db.n_shards} shards; "
                  f"re-shard with `repro index --shards {args.shards}`",
                  file=sys.stderr)
            return 1
    else:
        db = ShardedDatabase.from_database(db, args.shards or 1)
    from .serve import BreakerConfig

    serve(db, host=args.host, port=args.port, workers=args.workers,
          max_concurrency=args.max_concurrency,
          queue_limit=args.queue_limit,
          default_timeout_ms=args.timeout_ms,
          default_partial=args.partial,
          result_cache_size=args.result_cache_size,
          access_log_path=args.access_log,
          retry_attempts=args.retry_attempts,
          breaker=BreakerConfig(
              consecutive_failures=args.breaker_failures,
              open_ms=args.breaker_open_ms),
          drain_grace_ms=args.drain_grace_ms)
    return 0


def _print_format_info(path: str) -> None:
    """Format version + per-codec column mix of a database directory,
    counted from the containers' payload headers (nothing decoded)."""
    from .diskdb import read_file, read_meta
    from .index import storage

    meta = read_meta(path)
    print(f"format:      v{meta['format_version']}")
    dirs = meta["shards"]["dirs"] if meta.get("shards") else [""]
    mix = {}
    for shard_dir in dirs:
        name = os.path.join(shard_dir, "columnar.bin")
        data = read_file(path, name, "read-columnar", mapped=True).view
        for codec in storage.scan_schemes(data, file=name):
            mix[codec] = mix.get(codec, 0) + 1
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


def _sections(db) -> List[tuple]:
    """(heading, database) per shard of a sharded database, as `info`
    prints them, or the one database with no heading: `explain` and
    `trace` show what ran, and a sharded query runs on each shard."""
    from .serve import ShardedDatabase

    if isinstance(db, ShardedDatabase):
        return [(f"shard {sid}:", shard)
                for sid, shard in enumerate(db.shards)]
    return [(None, db)]


def cmd_explain(args: argparse.Namespace) -> int:
    for heading, db in _sections(_load(args.database)):
        if heading:
            print(heading)
        print(db.explain(args.query, semantics=args.semantics,
                         trace=args.trace).format())
    return 0


def _trace_from_log(path: str, trace_id: Optional[str]) -> int:
    """Render a daemon access log: one line per request, or one
    request's line and its stitched span tree with ``trace_id``."""
    from .obs import format_access_record, read_jsonl, render_trace

    if not os.path.exists(path):
        print(f"error: no such log file: {path}", file=sys.stderr)
        return EXIT_MISSING
    records = [record for record in read_jsonl(path)
               if trace_id is None or record.get("trace_id") == trace_id]
    for record in records:
        print(format_access_record(record))
        if trace_id is not None and isinstance(record.get("root"), dict):
            print(render_trace(record["root"]))
    if not records:
        what = (f"request {trace_id}" if trace_id is not None
                else "access-log records")
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
              "access log)", file=sys.stderr)
        return 2
    if args.database is None or args.query is None:
        print("error: database and query are required unless reading a "
              "log with --from-log", file=sys.stderr)
        return 2
    tracer = Tracer()
    slowest = 0.0
    for heading, db in _sections(_load(args.database, tracer=tracer)):
        if heading:
            print(heading)
        start = time.perf_counter()
        if args.k is not None:
            results = list(db.search_topk(args.query, args.k,
                                          semantics=args.semantics))
        else:
            results = db.search(args.query, semantics=args.semantics)
        elapsed = (time.perf_counter() - start) * 1000
        slowest = max(slowest, elapsed)
        root = tracer.last_root()
        print(render_trace(root))
        print(render_phases(phase_totals(root)))
        print(f"({len(results)} results in {elapsed:.1f} ms)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(trace_to_jsonl(tracer.roots()))
        print(f"trace written to {args.out}")
    if args.slow_ms is not None and slowest >= args.slow_ms:
        print(f"slow query (>= {args.slow_ms:.0f} ms): "
              f"{args.query} took {slowest:.1f} ms")
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
    p.add_argument("--algorithm", choices=TOPK_ALGORITHMS, default="hybrid",
                   help="hybrid: levels finished in bulk (default); "
                        "topk-join: the paper's rank join per level")
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
    p.add_argument("--timeout-ms", type=float, default=None,
                   help="shared budget for the whole batch")
    p.add_argument("--partial", action="store_true",
                   help="partial results on an expired budget")
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
                   help="worker processes per shard (0 = one "
                        "in-process thread for every shard)")
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
    p.add_argument("--access-log", default=None, metavar="PATH",
                   help="append one JSONL record per request here, its "
                        "stitched span tree included")
    p.add_argument("--retry-attempts", type=int, default=2,
                   help="per-shard attempts for transient failures "
                        "(crashed worker, corrupt reply); 1 disables")
    p.add_argument("--breaker-failures", type=int, default=3,
                   help="consecutive shard failures that open its "
                        "circuit breaker")
    p.add_argument("--breaker-open-ms", type=float, default=250.0,
                   help="base quarantine before a breaker half-opens "
                        "(doubles per re-trip, seeded jitter)")
    p.add_argument("--drain-grace-ms", type=float, default=5000.0,
                   help="SIGTERM drain: wait this long for in-flight "
                        "requests before stopping the pools")
    p.set_defaults(fn=cmd_serve)

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
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("trace",
                       help="run one traced query (span tree), or "
                            "render a daemon access log with --from-log")
    p.add_argument("database", nargs="?", default=None)
    p.add_argument("query", nargs="?", default=None)
    p.add_argument("-k", type=int, default=None,
                   help="trace a top-K search instead of a complete one")
    p.add_argument("--semantics", choices=("elca", "slca"),
                   default="elca")
    p.add_argument("--out", default=None,
                   help="write the span tree as JSONL to this file")
    p.add_argument("--slow-ms", type=float, default=None,
                   help="slow-query threshold; report if exceeded")
    p.add_argument("--from-log", default=None, metavar="FILE",
                   help="render a daemon --access-log JSONL instead of "
                        "running a query, one line per request")
    p.add_argument("--trace-id", default=None,
                   help="with --from-log: only this request, with its "
                        "stitched span tree")
    p.set_defaults(fn=cmd_trace)

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
