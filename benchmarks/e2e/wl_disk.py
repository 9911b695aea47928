"""disk_roundtrip: the write path beside the cold read path.

Set-up saves the database (format v4, fsync).  The measured loop opens it
lazily, runs one cold pass of the Fig. 9 ELCA queries on the fresh handle
and one warm pass on the same handle, and starts over.  The query metrics
are the cold pass; throughput counts the opens, so an open-time loss shows
there.

Why: storage, the codecs (both directions), the lazy index, the checksums
and the decoded-column cache carry it; a decode-side win that costs encode
time, file size or open time shows here.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import constants as C
import harness as H
from workload import Layers, Measure, Workload, run_op

MIB = 1024.0 * 1024.0


class DiskRoundtrip(Workload):
    name = "disk_roundtrip"

    def __init__(self, *args):
        super().__init__(*args)
        self.queries = self.corpus.fig9_queries()
        self.path = os.path.join(self.work_dir, "db")
        self.save_times: List[float] = []
        self.handle = None

    # -- the public calls, with default arguments ---------------------------

    def _save(self) -> float:
        from repro.diskdb import save_database

        kwargs = {}
        if H.supports_kwarg(save_database, "format_version"):
            kwargs["format_version"] = C.DISK_FORMAT_VERSION
        start = time.perf_counter()
        save_database(self.db, self.path, fsync=True, **kwargs)
        elapsed = time.perf_counter() - start
        self.save_times.append(elapsed)
        return elapsed

    def _open(self, **kwargs):
        from repro.diskdb import load_database

        return load_database(self.path, lazy=True, verify="lazy", **kwargs)

    def warm_up(self) -> None:
        self._save()

    def _query_pass(self, handle, measure: Measure, kind: str, log) -> None:
        samples = measure.main if kind == "cold" else measure.samples(kind)
        for i, (label, terms) in enumerate(self.queries):
            results, ms = run_op(
                measure, log,
                lambda: handle.search(list(terms), "elca", use_cache=False),
                kind)
            samples.add(label, ms)
            measure.keep((i, kind), results, len(results))

    def measure(self, seconds: float, log=None) -> Measure:
        measure = Measure()
        opens = measure.samples("open")
        deadline = time.perf_counter() + seconds
        least = 1 if self.smoke else C.DISK_MIN_OPENS
        while opens.count < least or time.perf_counter() < deadline:
            self.handle = None
            H.settle()
            self.handle, ms = run_op(measure, log, self._open, "open")
            opens.add("open", ms)
            self._query_pass(self.handle, measure, "cold", log)
            self._query_pass(self.handle, measure, "warm", log)
        queries = measure.main.count + measure.extra["warm"].count
        measure.busy_s = (measure.main.total_ms + opens.total_ms
                          + measure.extra["warm"].total_ms) / 1000.0
        measure.throughput_ops = queries
        return measure

    def check(self, measure: Measure) -> int:
        """Answers from the opened database equal the in-memory one's."""
        failed = measure.unstable
        truth: Dict[int, frozenset] = {}
        for key in sorted(measure.answers):
            i, _kind = key
            if i not in truth:
                truth[i] = H.scored_set(self.db.search(
                    list(self.queries[i][1]), "elca", use_cache=False))
            if H.scored_set(measure.answers[key]) != truth[i]:
                failed += measure.ops[key]
        return failed

    def close(self) -> None:
        self.handle = None
        H.settle()

    # -- per-layer probes --------------------------------------------------

    def _file_bytes(self) -> Dict[str, int]:
        sizes: Dict[str, int] = {}
        for root, _dirs, files in os.walk(self.path):
            for name in files:
                sizes[name] = sizes.get(name, 0) + os.path.getsize(
                    os.path.join(root, name))
        return sizes

    def probes(self, layers: Layers, untraced: Measure, traced: Measure,
               log) -> None:
        queries = self.queries
        layers.set("open_s", H.median(untraced.extra["open"].all()) / 1000.0)
        layers.set("disk.warm_query_p50_ms",
                   untraced.extra["warm"].summary()["p50"])

        # Where an open goes: spans under the traced half's opens.
        opens = max(1, traced.extra["open"].count)
        layers.set("diskdb.open.parse_xml_s",
                   sum(log.durations("xmltree", "parse_xml")) / opens)
        layers.set("diskdb.open.dewey_s",
                   (sum(log.durations("index.storage",
                                      "deserialize_inverted_index"))
                    + sum(log.durations("index.inverted", "from_lists")))
                   / opens)
        layers.set("diskdb.open.columnar_scan_s",
                   sum(log.durations("index.storage", "scan_v")) / opens)
        fetch = log.inclusive_by_op("index.lazydisk")
        for kind in ("cold", "warm"):
            seconds, n = fetch.get(kind, (0.0, 0))
            layers.set(f"index.lazydisk.{kind}_fetch_ms",
                       seconds * 1000.0 / n if n else None)

        # Two more saves under spans: the serializers' share of save_s.
        mark = len(log.rows)
        with log.recording():
            for _ in range(1 if self.smoke else 2):
                log.operation(self._save, "save")
        saves = max(1, len(self.save_times) - 1)
        recent = [r for r in log.rows[mark:] if r is not None]
        layers.set("save_s", H.median(self.save_times))
        layers.set("index.storage.serialize_columnar_s",
                   sum(r[3] - r[2] for r in recent
                       if r[1].startswith("serialize_columnar")) / saves
                   if recent else None)
        layers.set("index.storage.serialize_dewey_s",
                   sum(r[3] - r[2] for r in recent
                       if r[1].startswith("serialize_inverted")) / saves
                   if recent else None)

        sizes = self._file_bytes()
        layers.set("index.storage.columnar_bytes", sizes.get("columnar.bin"))
        layers.set("index.storage.dewey_bytes", sizes.get("dewey.bin"))
        layers.set("index.storage.document_bytes", sizes.get("document.xml"))
        layers.set("disk_bytes_per_node",
                   sum(sizes.values()) / max(1, len(self.db)))

        def account_probe():
            handle = self._open()
            totals = {"decoded": 0, "mapped": 0, "hits": 0, "misses": 0}
            for kind in ("cold", "warm"):
                for _label, terms in queries:
                    _res, stats = handle.search(
                        list(terms), "elca", use_cache=False,
                        with_stats=True)
                    if kind == "cold":
                        totals["decoded"] += stats.bytes_decompressed
                        totals["mapped"] += stats.bytes_mapped
                    else:
                        cache = (stats.resources or {}).get(
                            "decode_cache", {})
                        totals["hits"] += cache.get("hits", 0)
                        totals["misses"] += cache.get("misses", 0)
            lookups = totals["hits"] + totals["misses"]
            return {
                "obs.account.bytes_decoded_per_query":
                    totals["decoded"] / len(queries),
                "obs.account.bytes_mapped_per_query":
                    totals["mapped"] / len(queries),
                "cache.decoded.hit_share":
                    totals["hits"] / lookups if lookups else 0.0,
            }

        layers.probe(["obs.account.bytes_decoded_per_query",
                      "obs.account.bytes_mapped_per_query",
                      "cache.decoded.hit_share"], account_probe)

        def spill_probe():
            handle = self._open(decoded_cache_bytes=C.SPILL_CACHE_BYTES)
            hits = misses = 0
            times: List[float] = []
            for rep in range(2):
                for _label, terms in queries:
                    (_res, stats), ms = H.timed_ms(
                        lambda: handle.search(list(terms), "elca",
                                              use_cache=False,
                                              with_stats=True))
                    if rep == 1:
                        times.append(ms)
                        cache = (stats.resources or {}).get(
                            "decode_cache", {})
                        hits += cache.get("hits", 0)
                        misses += cache.get("misses", 0)
            evictions = handle.columnar_index._decoded_cache \
                .as_dict()["evictions"]
            return {"cache.decoded.spill_hit_share":
                    hits / max(1, hits + misses),
                    "cache.decoded.spill_evictions": evictions,
                    "disk.spill_query_p50_ms": H.percentile(times, 50)}

        layers.probe(["cache.decoded.spill_hit_share",
                      "cache.decoded.spill_evictions",
                      "disk.spill_query_p50_ms"], spill_probe)

        def eager_probe():
            from repro.diskdb import load_database

            _, ms = H.timed_ms(lambda: load_database(self.path))
            return {"diskdb.open_eager_s": ms / 1000.0}

        layers.probe(["diskdb.open_eager_s"], eager_probe)
        self._codec_probes(layers)

    def _codec_probes(self, layers: Layers) -> None:
        """Encode and decode rates over this corpus's own sorted columns,
        in MiB of int64 values per second."""
        index = self.db.columnar_index
        terms = sorted({t for _l, ts in self.queries for t in ts})[:40]
        columns = []
        for term in terms:
            postings = index.term_postings(term)
            for level in range(1, postings.max_len + 1):
                values = postings.column(level).values
                if len(values) >= 64:
                    columns.append(values)
        raw_mib = sum(v.nbytes for v in columns) / MIB
        codecs = (("rle", "encode_rle", "decode_rle"),
                  ("delta", "encode_delta_blocks", "decode_delta_blocks"),
                  ("varint", "encode_varint_column", "decode_varint_column"),
                  ("for", "encode_for", "decode_for"))
        for codec, enc_name, dec_name in codecs:
            enc_metric = f"index.compression.encode_mib_s.{codec}"
            dec_metric = f"index.compression.decode_mib_s.{codec}"

            def codec_probe(enc_name=enc_name, dec_name=dec_name,
                            enc_metric=enc_metric, dec_metric=dec_metric):
                from repro.index import compression

                encode = getattr(compression, enc_name)
                decode = getattr(compression, dec_name)
                payloads, enc_ms = H.timed_ms(
                    lambda: [encode(v) for v in columns])
                _, dec_ms = H.timed_ms(
                    lambda: [decode(p) for p in payloads])
                return {enc_metric: raw_mib / (enc_ms / 1000.0),
                        dec_metric: raw_mib / (dec_ms / 1000.0)}

            layers.probe([enc_metric, dec_metric], codec_probe)

        def choose_probe():
            from repro.index.compression import choose_codec

            _, ms = H.timed_ms(lambda: [choose_codec(v) for v in columns])
            return {"index.compression.choose_codec_ms_per_col":
                    ms / max(1, len(columns))}

        layers.probe(["index.compression.choose_codec_ms_per_col"],
                     choose_probe)

        def checksum_probe():
            from repro.reliability.checksum import checksum

            with open(os.path.join(self.path, "columnar.bin"), "rb") as f:
                blob = f.read(4 * 1024 * 1024)
            _, ms = H.timed_ms(lambda: [checksum(blob) for _ in range(5)])
            return {"reliability.checksum.mib_s":
                    5 * len(blob) / MIB / (ms / 1000.0)}

        layers.probe(["reliability.checksum.mib_s"], checksum_probe)
