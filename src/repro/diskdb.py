"""Directory-based persistence for `XMLDatabase`.

An indexed database saves to a directory::

    mydb/
      document.xml    the XML document (canonical serialization)
      meta.json       format version, JDewey gap, ranking/tokenizer
                      config, checksum manifest
      columnar.bin    the JDewey columnar index (exact scores)
      dewey.bin       the node table (`repro.xmltree.nodetable`): per
                      node its parent, level, JDewey number, sibling
                      ordinal, tag and text reference

Opening maps ``columnar.bin`` and the node table and installs them
directly: no XML is parsed, no JDewey numbering re-derived and nothing
tokenized, and queries return byte-identical results to the original.
The Dewey posting lists of the baselines are not stored; they derive
per term from the columnar postings and the table
(`repro.index.inverted`).  ``document.xml`` is read when something
needs the real tree (`db.tree`: the oracle, `to_xml`, `refresh`) or a
node's text.

There is one on-disk format (``meta.json`` ``format_version`` 5).
``columnar.bin`` is the container of `repro.index.storage` (magic
``JDX5``; all integers little-endian, every frame and region 8-aligned,
pad bytes zero)::

    file      magic (4) | checksum algorithm id (1) | pad (3) | n_terms u64
    per term  u32 term_len | u64 payload_len | u32 crc
              | term bytes | pad | payload | pad
    payload   u64 n_seqs | u32 max_len | u32 score_mode
              | u32 lengths_off | u32 lengths_len | u64 scores_off
              u64 level_offs[max_len] | u64 level_lens[max_len]
              u8 schemes[max_len] | pad         codec id per level
              lengths   varint column of (length, run) pairs | pad
              scores    float64[n_seqs] | pad
              columns   one compressed column per level, each padded

Because every region is offset-indexed and aligned, `load_database`
memory-maps the file (`reliability.io.map_bytes`) and the reader
(`repro.index.lazydisk.LazyColumnarIndex`) materializes scores and
compressed columns as ``np.frombuffer`` views -- no whole-payload
``bytes`` copy, and the daemon's forked shard workers share the mapping
copy-on-write.  Integrity and atomicity (`repro.reliability`):

* every term's payload carries a CRC, so the reader verifies exactly
  the bytes it touches, and ``meta.json`` records a whole-file digest
  per file;
* `save_database` stages everything in a sibling temp directory,
  fsyncs, then `os.replace`-s file by file with ``meta.json`` strictly
  last.  A crash before the manifest lands leaves either the old
  database intact or a directory whose stale manifest disagrees with
  the new data files -- both detected at load, never absorbed;
* `load_database` verifies digests (`verify="eager"`/``"lazy"``/
  ``"off"``) raising `DatabaseCorruptError` naming the offending file
  (and keyword, for per-block failures), and can route all reads
  through a `FaultInjector` plus bounded `RetryPolicy` so transient
  I/O errors heal and permanent ones surface typed.

A directory written in an earlier format (``format_version`` 1-4) is
refused with a `DatabaseFormatError` that names its version; every
directory carries its document, so ``repro index <dir>/document.xml
<new-dir>`` rebuilds it in this one.

Only the default `TfIdfScorer`/`SumCombiner` ranking configuration (any
damping base) round-trips from metadata; databases built with custom
scorers must be reopened with the matching `RankingModel` passed to
`load_database`.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from typing import Optional

from .api import XMLDatabase
from .index import storage
from .cache import DecodedColumnCache
from .index.columnar import ColumnarIndex
from .index.lazydisk import LazyColumnarIndex
from .index.tokenizer import Tokenizer
from .obs.metrics import get_registry
from .reliability.checksum import (ALGORITHMS, DEFAULT_ALGORITHM,
                                   hex_digest)
from .reliability.checksum import verify as digest_matches
from .reliability.errors import (DatabaseCorruptError, DatabaseFormatError,
                                 RetryExhaustedError)
from .reliability.faults import FaultInjector
from .reliability.io import fsync_dir, map_bytes, read_bytes, write_bytes
from .reliability.retry import DEFAULT_POLICY, RetryPolicy
from .scoring.ranking import DampingFunction, RankingModel
from .xmltree.nodetable import NodeTable
from .xmltree.parser import parse_xml

FORMAT_VERSION = 5
_SUPPORTED_VERSIONS = (FORMAT_VERSION,)

_DOCUMENT = "document.xml"
_META = "meta.json"
_COLUMNAR = "columnar.bin"
_DEWEY = "dewey.bin"

_VERIFY_MODES = ("eager", "lazy", "off")


def require_current_format(path: str, version) -> None:
    """Refuse a directory written in an earlier format, naming its
    version and the way back (every directory carries its document)."""
    if version not in _SUPPORTED_VERSIONS:
        raise DatabaseFormatError(
            f"{path!r} is in format version {version!r}; this release "
            f"reads and writes version {FORMAT_VERSION} only.  Rebuild "
            f"it from its document: repro index "
            f"{os.path.join(path, _DOCUMENT)} <new-dir>")


def _view(source):
    """The buffer of what `map_bytes` returned: a `MappedFile`'s view (which
    keeps the mapping alive), or the bytes an injector degraded it to."""
    return getattr(source, "view", source)


def _fault_hook(stage: str) -> None:
    """Kill-point seam for the atomic-save tests.

    `save_database` calls this after each commit stage
    (``"tmp-written"``, ``"data-replaced"``, ``"meta-replaced"``); the
    crash-consistency tests monkeypatch it to abort mid-save and then
    assert the directory either still loads as the old database or
    fails loudly with a typed error.  A no-op in production.
    """


def _commit_atomically(path: str, data_files, meta_blob: bytes,
                       fsync: bool) -> None:
    """Stage `data_files` (relative-path, blob) plus ``meta.json`` in a
    sibling temp directory and move them into place, manifest strictly
    last.  Relative paths may contain one level of subdirectory (the
    shard layout), created under both the stage and the target."""
    parent = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(parent, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=os.path.basename(path) + ".tmp-",
                               dir=parent)
    try:
        for name, blob in data_files:
            staged = os.path.join(tmp_dir, name)
            os.makedirs(os.path.dirname(staged), exist_ok=True)
            write_bytes(staged, blob, fsync=fsync)
        write_bytes(os.path.join(tmp_dir, _META), meta_blob, fsync=fsync)
        _fault_hook("tmp-written")
        os.makedirs(path, exist_ok=True)
        for name, _blob in data_files:
            target = os.path.join(path, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            os.replace(os.path.join(tmp_dir, name), target)
        if fsync:
            fsync_dir(path)
        _fault_hook("data-replaced")
        # Manifest strictly last: its digests vouch for the data files,
        # so any interleaving of crash and rename is detectable.
        os.replace(os.path.join(tmp_dir, _META), os.path.join(path, _META))
        if fsync:
            fsync_dir(path)
        _fault_hook("meta-replaced")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def save_database(db: XMLDatabase, path: str,
                  algorithm: Optional[str] = None,
                  fsync: bool = True,
                  shards: Optional[int] = None) -> None:
    """Write `db` (document, columnar index, node table) to directory
    `path`, atomically.

    Builds the columnar index if not yet built.  All files are staged
    in a sibling temp directory (same filesystem, so `os.replace` is
    atomic), fsynced, then moved into place with ``meta.json`` last --
    the manifest's arrival commits the save.  ``algorithm`` picks the
    checksum (default `repro.reliability.DEFAULT_ALGORITHM`);
    ``fsync=False`` trades durability for speed (tests, throwaway dirs).

    Bytes written are published as ``repro_disk_bytes_written_total``
    in the process metrics registry.

    ``shards=N`` writes the *sharded* layout instead
    (`docs/SERVING.md`): one columnar container per shard under
    ``shard-XX/`` subdirectories, partitioned by root-child subtree
    (`repro.serve.sharding`), beside one document, one node table and a
    shard manifest in ``meta.json``.  Opening a sharded directory
    returns a `repro.serve.ShardedDatabase`.
    """
    metrics = get_registry()
    algorithm = algorithm if algorithm is not None else DEFAULT_ALGORITHM
    if shards is not None and shards < 1:
        raise ValueError("shards must be >= 1")
    columnar = db.columnar_index
    # The table's text references are byte spans of this serialization.
    document, text_off, text_len = db.tree.to_xml_bytes_with_text_spans()
    table_blob = columnar.nodes.to_bytes(text_off, text_len, len(document),
                                         algorithm)
    data_files = [(_DOCUMENT, document), (_DEWEY, table_blob)]
    meta = {
        "format_version": FORMAT_VERSION,
        "jdewey_gap": db.jdewey_gap,
        "n_docs": columnar.n_docs,
        "damping_base": db.ranking.damping.base,
        "tokenizer": {
            "stopwords": sorted(db.tokenizer.stopwords),
            "min_length": db.tokenizer.min_length,
        },
        "n_nodes": len(db.tree),
    }
    if shards is None:
        data_files.append((_COLUMNAR, storage.serialize_columnar_index(
            columnar, algorithm=algorithm)))
    else:
        from .serve.sharding import partition_columnar

        parts = partition_columnar(
            {t: columnar.term_postings(t) for t in columnar.vocabulary},
            db.tree, shards)
        shard_dirs = [f"shard-{sid:02d}" for sid in range(shards)]
        for shard_dir, part in zip(shard_dirs, parts):
            data_files.append((
                os.path.join(shard_dir, _COLUMNAR),
                storage.serialize_columnar_index(
                    ColumnarIndex.from_postings(columnar.nodes, part),
                    algorithm=algorithm)))
        meta["shards"] = {"count": shards, "strategy": "root-child-mod",
                          "dirs": shard_dirs}
    meta["checksum"] = {
        "algorithm": algorithm,
        "files": {name: hex_digest(blob, algorithm)
                  for name, blob in data_files},
    }
    meta_blob = json.dumps(meta, indent=2, sort_keys=True).encode("utf-8")
    _commit_atomically(path, data_files, meta_blob, fsync)
    metrics.counter("repro_disk_bytes_written_total").inc(
        sum(len(blob) for _name, blob in data_files) + len(meta_blob))
    metrics.counter("repro_db_saves_total").inc()


def load_database(path: str,
                  ranking: Optional[RankingModel] = None,
                  cache=None,
                  result_cache_size: int = 1024,
                  verify: str = "eager",
                  lazy: bool = False,
                  injector: Optional[FaultInjector] = None,
                  retry: Optional[RetryPolicy] = None,
                  decoded_cache_bytes: int = 32 * 1024 * 1024,
                  **db_kwargs):
    """Open a directory written by `save_database`.

    Returns an `XMLDatabase`, or a `repro.serve.ShardedDatabase` when
    the manifest carries a shard layout (``save_database(shards=N)``);
    both answer the same search surface.  For a sharded directory the
    ``cache`` argument is ignored (each shard keeps its own caches).

    There is one open path.  Nothing proportional to the document runs
    in Python here: the node table and the columnar container are
    memory-mapped, the index is a `LazyColumnarIndex` over the mapping
    (a term's block is parsed on its first touch, a column decoded on
    its first read), and ``document.xml`` is parsed only when `db.tree`
    is first used.

    ``cache`` / ``result_cache_size`` and any
    extra keyword arguments (``tracer``, ``metrics``, ``slow_log``, ...)
    are forwarded to the `XMLDatabase` constructor.  Bytes read are
    published as ``repro_disk_bytes_read_total``.

    Reliability knobs (`repro.reliability`):

    * ``verify`` -- ``"eager"`` (default) checks every whole-file
      digest at load and spot-checks the postings against the node
      table, and still checks a term's block CRC on its first touch;
      ``"lazy"`` keeps only the checks that cover what a query touches,
      when it touches it: the columnar index's per-block CRCs, the node
      table's section CRCs and the document's digest on first use;
      ``"off"`` skips verification.
    * ``lazy`` -- accepted and ignored: it used to choose between two
      loaders, and callers still pass it.
    * ``injector`` / ``retry`` -- route every file read through a
      `FaultInjector` and a bounded `RetryPolicy` (defaults to
      `DEFAULT_POLICY` when an injector is installed), so transient
      faults heal; exhausted retries surface as `DatabaseCorruptError`.
      An installed injector downgrades every mmap to a plain
      (fault-observable) read.
    * ``decoded_cache_bytes`` -- byte budget of the shared
      decoded-column LRU (default 32 MiB; ``0`` disables it, reverting
      to unbounded per-postings caching).  One cache serves all shards
      of a sharded database; hot terms skip column decompression on
      repeat queries and bill the saving to the query's
      `ResourceAccount`.

    The returned database holds its mappings for its lifetime; column
    decompression and node lookups run on zero-copy views of them.

    Raises `DatabaseFormatError` on missing files, a directory written
    in an earlier format (the message names its version and the way
    to rebuild it), or a document that no longer matches the stored
    indexes, and
    `DatabaseCorruptError` (a subclass) when bytes fail their checksum
    or do not parse.
    """
    if verify not in _VERIFY_MODES:
        raise ValueError(f"unknown verify mode {verify!r}; "
                         f"one of {_VERIFY_MODES}")
    metrics = get_registry()
    bytes_read = metrics.counter("repro_disk_bytes_read_total")
    decoded_cache = None
    if decoded_cache_bytes > 0:
        decoded_cache = DecodedColumnCache(decoded_cache_bytes,
                                           metrics=metrics)
    if retry is None and injector is not None:
        retry = DEFAULT_POLICY

    def read_file(name: str, op: str, mapped: bool = False):
        """One file's bytes -- or, with `mapped`, its `MappedFile`
        (which an installed injector degrades to the copying read, so
        the fault matrix stays observable)."""
        opener = map_bytes if mapped else read_bytes
        try:
            source = opener(os.path.join(path, name), injector=injector,
                            retry=retry, metrics=metrics, op=op)
        except RetryExhaustedError as exc:
            raise DatabaseCorruptError(
                f"could not read {name}: {exc}", file=name) from exc
        bytes_read.inc(len(source))
        return source

    meta_path = os.path.join(path, _META)
    if not os.path.exists(meta_path):
        raise DatabaseFormatError(f"{path!r} has no {_META} "
                                  "(incomplete or not a database)")
    try:
        meta = json.loads(read_file(_META, "read-meta").decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatabaseFormatError(
            f"{_META} does not parse ({exc}); interrupted save?") from exc
    require_current_format(path, meta.get("format_version"))
    # Pull every field up-front so a mangled manifest surfaces as one
    # typed error instead of a raw KeyError/TypeError deep in the load.
    try:
        manifest = meta.get("checksum", {})
        algorithm = manifest.get("algorithm")
        digests = manifest.get("files", {})
        n_nodes = int(meta["n_nodes"])
        n_docs = int(meta["n_docs"])
        jdewey_gap = int(meta["jdewey_gap"])
        damping_base = float(meta["damping_base"])
        tokenizer_cfg = meta["tokenizer"]
        stopwords = list(tokenizer_cfg["stopwords"])
        min_length = int(tokenizer_cfg["min_length"])
        shards_meta = meta.get("shards")
        shard_dirs = None
        if shards_meta is not None:
            shard_dirs = [str(d) for d in shards_meta["dirs"]]
            if not shard_dirs or int(shards_meta["count"]) != len(shard_dirs):
                raise ValueError(
                    f"shard count {shards_meta['count']!r} with "
                    f"{len(shard_dirs)} directories")
    except (KeyError, TypeError, ValueError) as exc:
        raise DatabaseFormatError(
            f"{_META} is missing or has an invalid field: {exc!r}") from exc
    if verify != "off" and algorithm not in ALGORITHMS:
        raise DatabaseFormatError(
            f"manifest names unknown checksum algorithm {algorithm!r}")

    def verify_file(name: str, blob) -> None:
        if verify == "off":
            return
        expected = digests.get(name)
        if expected is None or not digest_matches(blob, expected, algorithm):
            metrics.counter("repro_checksum_failures_total",
                            {"file": name}).inc()
            raise DatabaseCorruptError(
                f"whole-file digest mismatch for {name} "
                f"({algorithm}); the file was corrupted or belongs to "
                "an interrupted save", file=name)

    opened = {}     # "document" / "tree", each produced once

    def open_document():
        """``document.xml`` mapped and digest-checked, on first use."""
        if "document" not in opened:
            blob = _view(read_file(_DOCUMENT, "read-document", mapped=True))
            verify_file(_DOCUMENT, blob)
            opened["document"] = blob
        return opened["document"]

    def open_tree():
        """The parsed document, on first use."""
        if "tree" not in opened:
            document = open_document()
            try:
                tree = parse_xml(bytes(document).decode("utf-8"))
            except (UnicodeDecodeError, ValueError, IndexError,
                    KeyError) as exc:
                raise DatabaseCorruptError(
                    f"{_DOCUMENT} does not parse: {exc}",
                    file=_DOCUMENT) from exc
            if len(tree) != n_nodes:
                raise DatabaseFormatError(
                    f"document has {len(tree)} nodes, metadata says "
                    f"{n_nodes}")
            opened["tree"] = tree
        return opened["tree"]

    if not os.path.exists(os.path.join(path, _DEWEY)):
        raise DatabaseFormatError(f"{path!r} has no {_DEWEY}")
    table_blob = _view(read_file(_DEWEY, "read-dewey", mapped=True))
    if verify != "lazy":
        verify_file(_DEWEY, table_blob)
    # Lazy: the table's sections vouch for themselves on first touch.
    # Otherwise the digest above covered every byte (or nothing was to
    # be checked).
    nodes = NodeTable.from_buffer(
        table_blob, file=_DEWEY, check_crc=verify == "lazy",
        metrics=metrics, open_tree=open_tree, open_document=open_document)
    if len(nodes) != n_nodes:
        raise DatabaseFormatError(
            f"node table has {len(nodes)} nodes, metadata says {n_nodes}")
    if verify == "eager":
        open_document()

    try:
        tokenizer = Tokenizer(stopwords=stopwords, min_length=min_length)
        if ranking is None:
            ranking = RankingModel(damping=DampingFunction(damping_base))
    except (TypeError, ValueError) as exc:
        raise DatabaseFormatError(
            f"{_META} carries an invalid configuration: {exc}") from exc

    def make_db(db_cache, columnar_rel: str) -> XMLDatabase:
        """An `XMLDatabase` over one columnar container -- the flat
        layout's file or one shard's -- sharing the table and the
        deferred document."""
        try:
            db = XMLDatabase(None, tokenizer=tokenizer,
                             ranking=ranking, jdewey_gap=jdewey_gap,
                             cache=db_cache,
                             result_cache_size=result_cache_size,
                             **db_kwargs)
        except (TypeError, ValueError) as exc:
            raise DatabaseFormatError(
                f"{_META} carries an invalid configuration: {exc}") from exc
        db._open_tree = open_tree
        # Zero-copy: the container is mapped.
        source = read_file(columnar_rel, "read-columnar", mapped=True)
        if verify == "eager":
            verify_file(columnar_rel, _view(source))
        # Otherwise no whole-file pass, on purpose: per-block CRCs cover
        # exactly the bytes a query touches, when it touches them.
        db._columnar = LazyColumnarIndex(
            source, nodes, tokenizer, ranking, verify=verify,
            source=columnar_rel, metrics=metrics,
            decoded_cache=decoded_cache)
        db._columnar.n_docs = n_docs
        if verify == "eager":
            _verify_consistency(db)
        return db

    metrics.counter("repro_db_loads_total").inc()
    if shard_dirs is None:
        return make_db(cache, _COLUMNAR)
    from .serve.merge import ShardedDatabase

    # Each shard gets its own caches (`cache` is ignored): result keys
    # carry no shard id, so one shared cache would hand shard A's
    # answers to shard B.
    return ShardedDatabase(
        None, [make_db(None, os.path.join(shard_dir, _COLUMNAR))
               for shard_dir in shard_dirs],
        manifest=shards_meta)


def _verify_consistency(db: XMLDatabase) -> None:
    """Spot-check that the stored postings match the node table.

    A mismatch means one of the files was replaced after the other was
    written.
    """
    columnar = db._columnar
    for term in columnar.vocabulary[:5]:
        for seq in columnar.term_postings(term).seqs[:3]:
            level, number = len(seq), seq[-1]
            try:
                node = columnar.node_at(level, number)
            except KeyError:
                raise DatabaseFormatError(
                    f"stored posting for {term!r} points at a node "
                    f"(level={level}, number={number}) absent from the "
                    "document; files are out of sync")
            if node.jdewey != seq:
                raise DatabaseFormatError(
                    f"stored posting for {term!r} disagrees with the "
                    "document's numbering; files are out of sync")
