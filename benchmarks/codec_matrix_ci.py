"""CI gate for the format-v4 codec generation (the `query-guards` job).

Builds one corpus, saves it as a v3 and a v4 container, and asserts
the two claims the adaptive codec selector makes:

* **Equivalence** — every query answers identically (dewey, level,
  score, witness scores) across {v3, v4} x {eager, lazy} loads, and a
  lazy v4 load with the scalar decoders (``vectorized=False``) agrees
  too, so the numpy kernels never diverge from the reference path;
* **Size** — the v4 ``columnar.bin`` is never larger than the v3 one
  for the same corpus (choosing per column by measured encoded size
  can only do better).

It also prints the v4 chosen-codec mix so the CI log shows what the
selector actually did.  Exits non-zero on any violation::

    PYTHONPATH=src python benchmarks/codec_matrix_ci.py
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import XMLDatabase                       # noqa: E402
from repro.diskdb import load_database, save_database  # noqa: E402
from repro.index import storage                     # noqa: E402
from repro.index.compression import SCHEME_NAMES    # noqa: E402

QUERIES = ["paper analysis", "xml database", "query processing",
           "data systems", "conference paper", "algorithm evaluation",
           "database query xml"]


def transcript(db):
    out = []
    for query in QUERIES:
        results = db.search(query, use_cache=False)
        out.append([(r.node.dewey, r.level, r.score,
                     tuple(r.witness_scores)) for r in results])
        top = db.search_topk(query, k=5)
        out.append([(r.node.dewey, r.level, r.score,
                     tuple(r.witness_scores)) for r in top])
    return out


def codec_mix(path):
    blob = open(os.path.join(path, "columnar.bin"), "rb").read()
    _algo, refs = storage.scan_v4_container(blob)
    mix = {}
    for ref in refs:
        _l, _s, level_payloads = storage.parse_v4_payload(
            ref.term, blob[ref.offset: ref.offset + ref.length])
        for scheme, _payload in level_payloads:
            assert scheme in SCHEME_NAMES.values(), scheme
            mix[scheme] = mix.get(scheme, 0) + 1
    return dict(sorted(mix.items()))


def main() -> int:
    print("building corpus ...", flush=True)
    db = XMLDatabase.generate_dblp(seed=11, n_papers=600)
    reference = transcript(db)
    failures = []

    with tempfile.TemporaryDirectory() as root:
        paths = {}
        for version in (3, 4):
            paths[version] = os.path.join(root, f"db-v{version}")
            save_database(db, paths[version], format_version=version)

        v3_size = os.path.getsize(os.path.join(paths[3], "columnar.bin"))
        v4_size = os.path.getsize(os.path.join(paths[4], "columnar.bin"))
        print(f"columnar.bin: v3 {v3_size} bytes, v4 {v4_size} bytes "
              f"({v4_size - v3_size:+d})")
        if v4_size > v3_size:
            failures.append(
                f"v4 container larger than v3: {v4_size} > {v3_size}")

        print(f"v4 codec mix: {codec_mix(paths[4])}")

        for version in (3, 4):
            for lazy in (False, True):
                loaded = load_database(paths[version], lazy=lazy,
                                       verify="lazy" if lazy else "eager")
                if transcript(loaded) != reference:
                    failures.append(
                        f"v{version} lazy={lazy} diverged from in-memory")
                else:
                    print(f"v{version} lazy={lazy}: identical answers")

        scalar = load_database(paths[4], lazy=True, verify="lazy",
                               vectorized=False)
        if transcript(scalar) != reference:
            failures.append("v4 scalar decoders diverged")
        else:
            print("v4 scalar decoders: identical answers")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("codec matrix:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
