"""Parent-versus-change identity report: the same answers and the same
work, case for case.

One case list, run once against the working tree's ``src/`` and once
against ``--base REV``'s, each in its own subprocess:

* every Fig. 9 and Fig. 10 query of the benchmark corpus
  (``benchmarks/e2e``, ``--papers`` papers, ``--seed``) x ELCA / SLCA x
  {`search`, `search_topk` at k = 1 / 10 / 25, `join` and `topk-join`
  top-10, the first 25 of `search_stream`} x {in memory, opened from a
  directory, opened as 2 shards} -- a sharded database refuses `join`
  top-K, so it has one case fewer;
* complete evaluation in memory under each of the three erasers.

Per case it prints one SHA-1 over ``(dewey, level, repr(score),
repr(witness))`` of every answer, in order, and the `ExecutionStats`
work counters (with the per-level join plan).  It exits 1 when an
answer differs, or a counter does and ``--counters-may-change`` was not
given -- the flag is for a change that means to do different work.

    python benchmarks/identity.py --base HEAD~1 [--papers 20000]

``REV`` is exported with ``git archive`` (local git, nothing fetched)
into a directory under ``.tmp/`` that is removed afterwards.
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(HERE, "e2e"))
import constants as C  # noqa: E402

COUNTERS = ("levels_processed", "joins", "merge_joins", "index_joins",
            "tuples_scanned", "lookups", "candidates_checked",
            "results_emitted", "erasures", "threshold_checks")
ERASERS = ("bitmap", "interval", "roaring")
SEMANTICS = ("elca", "slca")


def digest(results) -> str:
    sha = hashlib.sha1()
    for r in results:
        sha.update(repr((tuple(int(x) for x in r.node.dewey), int(r.level),
                         repr(float(r.score)),
                         repr(tuple(float(w) for w in r.witness_scores)))
                        ).encode())
    return sha.hexdigest()


def counters(stats):
    if stats is None:
        return None
    out = {name: int(getattr(stats, name)) for name in COUNTERS}
    out["plan"] = [list(step) for step in stats.per_level_plan]
    return out


def entries(db, sharded):
    """(name, fn(terms, semantics) -> (results, stats or None))."""
    yield "search", lambda t, s: db.search(t, s, use_cache=False,
                                           with_stats=True)

    def topk(k, algorithm="hybrid"):
        def run(t, s):
            top = db.search_topk(t, k, semantics=s, algorithm=algorithm)
            return top.results, top.stats
        return run

    for k in (1, 10, 25):
        yield f"topk{k}", topk(k)
    for algorithm in (("topk-join",) if sharded else ("join", "topk-join")):
        yield f"{algorithm}10", topk(10, algorithm)
    yield "stream25", lambda t, s: (list(islice(db.search_stream(t, s),
                                                25)), None)


def run_cases(papers: int, seed: int, work: str):
    """Every case against the ``repro`` on ``sys.path``:
    ``[(case, sha1, counters), ...]``."""
    from harness import Corpus

    from repro.algorithms.join_based import JoinBasedSearch
    from repro.diskdb import load_database, save_database

    corpus = Corpus(seed, papers)
    db = corpus.db
    queries = list(dict.fromkeys(
        terms for _label, terms in
        corpus.fig9_queries() + corpus.fig10_queries()))
    flat, sharded = os.path.join(work, "flat"), os.path.join(work, "sharded")
    save_database(db, flat, fsync=False)
    save_database(db, sharded, shards=2, fsync=False)
    stores = (("memory", db, False), ("opened", load_database(flat), False),
              ("2shards", load_database(sharded), True))
    plan = [(f"{store} {name}", fn)
            for store, handle, is_sharded in stores
            for name, fn in entries(handle, is_sharded)]
    for mode in ERASERS:
        engine = JoinBasedSearch(db.columnar_index, eraser_mode=mode)
        plan.append((f"eraser-{mode} evaluate",
                     lambda t, s, engine=engine: engine.evaluate(t, s)))
    cases = []
    for case, fn in plan:
        for terms in queries:
            for semantics in SEMANTICS:
                name = f"{case} {semantics} {'+'.join(terms)}"
                try:
                    results, stats = fn(list(terms), semantics)
                    cases.append((name, digest(results), counters(stats)))
                except Exception as exc:   # a difference, not a crash
                    cases.append((name, f"{type(exc).__name__}: {exc}",
                                  None))
    return cases


def emit(args) -> None:
    import repro

    with tempfile.TemporaryDirectory(dir=args.work) as work:
        cases = run_cases(args.papers, args.seed, work)
    with open(args.emit, "w") as handle:
        json.dump({"repro": os.path.abspath(repro.__file__),
                   "cases": cases}, handle)


def run_tree(src: str, args, out: str):
    """The case list against ``src/``, in a subprocess of its own."""
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--emit", out, "--work", args.work,
                    "--papers", str(args.papers), "--seed", str(args.seed)],
                   env=env, check=True)
    with open(out) as handle:
        report = json.load(handle)
    if not report["repro"].startswith(src + os.sep):
        raise SystemExit(f"ran {report['repro']}, not the tree at {src}")
    return {name: (sha, stats) for name, sha, stats in report["cases"]}


def export(rev: str, dest: str) -> str:
    """``rev``'s ``src/`` under ``dest``; returns the commit id."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          f"{rev}^{{commit}}"], check=True,
                         capture_output=True, text=True).stdout.strip()
    blob = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                           sha, "src"], check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def line(flag: str, name: str, case) -> str:
    sha, stats = case if case is not None else ("missing", None)
    return f"{flag:7} {name} {sha} {json.dumps(stats, separators=(',', ':'))}"


def compare(base, change, counters_may_change: bool) -> int:
    answers = counts = 0
    names = list(change) + [name for name in base if name not in change]
    for name in names:
        old, new = base.get(name), change.get(name)
        if old is None or new is None or old[0] != new[0]:
            flag, answers = "ANSWER", answers + 1
        elif old[1] != new[1]:
            flag, counts = "COUNTER", counts + 1
        else:
            flag = "same"
        print(line(flag, name, new))
        if flag != "same":
            print(line("base", name, old))
    print(f"identity: {len(names)} cases; answers identical "
          f"{len(names) - answers}/{len(names)}, work counters identical "
          f"{len(names) - answers - counts}/{len(names)}")
    return int(answers > 0 or (counts > 0 and not counters_may_change))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="the commit to compare the working tree with")
    parser.add_argument("--papers", type=int, default=C.N_PAPERS)
    parser.add_argument("--seed", type=int, default=C.DEFAULT_SEED)
    parser.add_argument("--counters-may-change", action="store_true",
                        help="a counter difference alone exits 0")
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        return emit(args)
    os.makedirs(os.path.join(ROOT, ".tmp"), exist_ok=True)
    args.work = tempfile.mkdtemp(prefix="identity-",
                                 dir=os.path.join(ROOT, ".tmp"))
    try:
        base_src = os.path.join(args.work, "base", "src")
        sha = export(args.base, os.path.join(args.work, "base"))
        print(f"base {args.base} = {sha}; change = working tree",
              flush=True)
        base = run_tree(base_src, args, os.path.join(args.work, "base.json"))
        change = run_tree(os.path.join(ROOT, "src"), args,
                          os.path.join(args.work, "change.json"))
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    sys.exit(compare(base, change, args.counters_may_change))


if __name__ == "__main__":
    main()
