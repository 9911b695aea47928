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
* `save_database` streams every file into a sibling temp directory --
  the document in chunks, the node table section by section, the
  container frame by frame, one shard's at a time -- computing each
  digest as the bytes are written, so no file is ever whole in memory
  and no column is cached to write one;
* it then fsyncs, `os.replace`-s file by file, fsyncs every directory
  that received a rename (each ``shard-NN/`` too) and moves
  ``meta.json`` strictly last.  A crash before the manifest lands
  leaves either the old database intact or a directory whose stale
  manifest disagrees with the new data files -- both detected at load,
  never absorbed.  Once the manifest has landed, the containers of a
  previous layout that it does not list are removed;
* `load_database` verifies digests (`verify="eager"`/``"lazy"``/
  ``"off"``) raising `DatabaseCorruptError` naming the offending file
  (and keyword, for per-block failures); every file is read under
  `reliability.retry.DEFAULT_POLICY`, so a transient I/O error heals
  and a persistent one surfaces as `DatabaseCorruptError` too.

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

import contextlib
import json
import os
import re
import shutil
import tempfile
from typing import Optional

from .api import XMLDatabase
from .index import storage
from .cache import DecodedColumnCache
from .index.lazydisk import LazyColumnarIndex
from .index.tokenizer import Tokenizer
from .reliability.checksum import ALGORITHMS, DEFAULT_ALGORITHM
from .reliability.checksum import verify as digest_matches
from .reliability.errors import (DatabaseCorruptError, DatabaseFormatError,
                                 RetryExhaustedError)
from .reliability.io import (fsync_dir, map_bytes, read_bytes, write_bytes,
                             write_chunks)
from .reliability.retry import DEFAULT_POLICY
from .scoring.ranking import DampingFunction, RankingModel
from .xmltree.nodetable import NodeTable
from .xmltree.parser import parse_xml

FORMAT_VERSION = 5
_SUPPORTED_VERSIONS = (FORMAT_VERSION,)

_DOCUMENT = "document.xml"
_META = "meta.json"
_COLUMNAR = "columnar.bin"
_DEWEY = "dewey.bin"
#: The shard layout's directories (``shard-00``, ``shard-01``, ...).
_SHARD_DIR = re.compile(r"shard-\d{2,}")

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


def read_file(path: str, name: str, op: str, mapped: bool = False):
    """File `name` of database directory `path`: its bytes or, with
    `mapped`, its `MappedFile` -- how every file of a database is read.
    Read under `DEFAULT_POLICY`: a transient error heals, and running
    out of attempts is `DatabaseCorruptError` naming the file."""
    full = os.path.join(path, name)
    try:
        return DEFAULT_POLICY.call(
            lambda: map_bytes(full) if mapped else read_bytes(full, op=op),
            op=op)
    except RetryExhaustedError as exc:
        raise DatabaseCorruptError(
            f"could not read {name}: {exc}", file=name) from exc


def read_meta(path: str) -> dict:
    """``meta.json`` of a database directory, parsed and checked for
    the shape its readers index into.

    Counts and the tokenizer config come back converted (``n_nodes``
    an ``int``, ``stopwords`` a ``list``, ...); ``checksum`` is always
    a dict of an algorithm name (or None) and a ``files`` dict of hex
    digests, and ``shards`` is None or a dict whose ``dirs`` list
    matches its ``count``.  Raises `DatabaseFormatError` when the file
    is missing, does not parse, names another format version or has a
    field of the wrong shape, and `DatabaseCorruptError` when reading
    it fails on every attempt.
    """
    if not os.path.exists(os.path.join(path, _META)):
        raise DatabaseFormatError(f"{path!r} has no {_META} "
                                  "(incomplete or not a database)")
    raw = read_file(path, _META, "read-meta")
    try:
        meta = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatabaseFormatError(
            f"{_META} does not parse ({exc}); interrupted save?") from exc
    if not isinstance(meta, dict):
        raise DatabaseFormatError(
            f"{_META} holds a JSON {type(meta).__name__}, not an object")
    require_current_format(path, meta.get("format_version"))

    def expect(value, kind, name):
        if not isinstance(value, kind):
            raise TypeError(f"{name} is a {type(value).__name__}")
        return value

    # Check every field up-front so a mangled manifest surfaces as one
    # typed error instead of a raw KeyError/TypeError deep in a reader.
    try:
        manifest = expect(meta.get("checksum", {}), dict, "checksum")
        algorithm = manifest.get("algorithm")
        digests = expect(manifest.get("files", {}), dict, "checksum.files")
        for name, digest in digests.items():
            expect(digest, str, f"checksum.files[{name!r}]")
        meta["checksum"] = {
            "algorithm": (None if algorithm is None
                          else expect(algorithm, str, "checksum.algorithm")),
            "files": digests}
        for key, cast in (("n_nodes", int), ("n_docs", int),
                          ("jdewey_gap", int), ("damping_base", float)):
            meta[key] = cast(meta[key])
        tokenizer = expect(meta["tokenizer"], dict, "tokenizer")
        expect(tokenizer["stopwords"], list, "tokenizer.stopwords")
        tokenizer["min_length"] = int(tokenizer["min_length"])
        shards = meta.get("shards")
        if shards is not None:
            expect(shards, dict, "shards")
            dirs = [str(d) for d in expect(shards["dirs"], list,
                                           "shards.dirs")]
            if not dirs or int(shards["count"]) != len(dirs):
                raise ValueError(f"shard count {shards['count']!r} with "
                                 f"{len(dirs)} directories")
            shards["dirs"] = dirs
    except (KeyError, TypeError, ValueError) as exc:
        raise DatabaseFormatError(
            f"{_META} is missing or has an invalid field: {exc!r}") from exc
    return meta


def _fault_hook(stage: str) -> None:
    """Kill-point seam for the atomic-save tests.

    `save_database` calls this after each commit stage
    (``"tmp-written"``, ``"data-replaced"``, ``"meta-replaced"``); the
    crash-consistency tests monkeypatch it to abort mid-save and then
    assert the directory either still loads as the old database or
    fails loudly with a typed error.  A no-op in production.
    """


def _commit_atomically(path: str, data_files, meta: dict, algorithm: str,
                       fsync: bool) -> None:
    """Stream each ``(relative-path, chunks)`` of `data_files` into a
    sibling temp directory, digesting the bytes as they are written,
    record the digests in `meta`'s manifest and stage it as
    ``meta.json``, then move everything into place, manifest strictly
    last.  Relative paths may contain one level of subdirectory (the
    shard layout), created under both the stage and the target.

    Every directory that received a rename is fsynced before the
    manifest moves, so a durable manifest never vouches for a container
    whose rename a power loss could still undo.  Once the manifest has
    landed, the containers of another layout it does not list go."""
    parent = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(parent, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=os.path.basename(path) + ".tmp-",
                               dir=parent)
    try:
        digests = {}
        for name, chunks in data_files:
            staged = os.path.join(tmp_dir, name)
            os.makedirs(os.path.dirname(staged), exist_ok=True)
            digests[name] = write_chunks(staged, chunks, algorithm,
                                         fsync=fsync)
        meta["checksum"] = {"algorithm": algorithm, "files": digests}
        write_bytes(os.path.join(tmp_dir, _META),
                    json.dumps(meta, indent=2, sort_keys=True).encode(
                        "utf-8"), fsync=fsync)
        _fault_hook("tmp-written")
        os.makedirs(path, exist_ok=True)
        renamed_into = set()
        for name in digests:
            target = os.path.join(path, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            os.replace(os.path.join(tmp_dir, name), target)
            renamed_into.add(os.path.dirname(target))
        if fsync:
            # Shard directories first: their own entries live in `path`.
            for directory in sorted(renamed_into, key=len, reverse=True):
                fsync_dir(directory)
        _fault_hook("data-replaced")
        # Manifest strictly last: its digests vouch for the data files,
        # so any interleaving of crash and rename is detectable.
        os.replace(os.path.join(tmp_dir, _META), os.path.join(path, _META))
        if fsync:
            fsync_dir(path)
        _fault_hook("meta-replaced")
        _remove_other_layout(path, digests)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _remove_other_layout(path: str, listed) -> None:
    """Delete the containers the manifest just stopped listing: a flat
    ``columnar.bin`` and each ``shard-NN/columnar.bin`` (with its
    directory, once empty).  No other name is touched."""
    stale = [] if _COLUMNAR in listed else [_COLUMNAR]
    for entry in os.listdir(path):
        name = os.path.join(entry, _COLUMNAR)
        if _SHARD_DIR.fullmatch(entry) and name not in listed:
            stale.append(name)
    for name in stale:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(path, name))
        directory = os.path.dirname(name)
        if directory:
            with contextlib.suppress(OSError):     # not empty: keep it
                os.rmdir(os.path.join(path, directory))


def save_database(db: XMLDatabase, path: str,
                  algorithm: Optional[str] = None,
                  fsync: bool = True,
                  shards: Optional[int] = None) -> None:
    """Write `db` (document, columnar index, node table) to directory
    `path`, atomically.

    Builds the columnar index if not yet built.  Every file is streamed
    into a sibling temp directory (same filesystem, so `os.replace` is
    atomic) and digested as it is written -- no file is ever whole in
    memory, and no column is built or cached to write one -- then
    fsynced and moved into place with ``meta.json`` last: the
    manifest's arrival commits the save.  ``algorithm`` picks the
    checksum (default `repro.reliability.DEFAULT_ALGORITHM`);
    ``fsync=False`` trades durability for speed (tests, throwaway dirs).

    ``shards=N`` writes the *sharded* layout instead
    (`docs/SERVING.md`): one columnar container per shard under
    ``shard-XX/`` subdirectories, partitioned by root-child subtree
    (`repro.serve.sharding`) and written one shard at a time, beside one
    document, one node table and a shard manifest in ``meta.json``.
    Opening a sharded directory returns a `repro.serve.ShardedDatabase`,
    which is not saved again: ``repro index <dir>/document.xml <new-dir>
    --shards N`` rebuilds it.  Saving over a directory of the other
    layout (or another shard count) removes the containers the new
    manifest does not list.
    """
    if not isinstance(db, XMLDatabase):
        raise TypeError(
            f"save_database writes an XMLDatabase, not a "
            f"{type(db).__name__}; an opened sharded database is rebuilt "
            "from its document instead: repro index <dir>/document.xml "
            "<new-dir> --shards N")
    algorithm = algorithm if algorithm is not None else DEFAULT_ALGORITHM
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown checksum algorithm {algorithm!r}; "
                         f"one of {sorted(ALGORITHMS)}")
    if shards is not None and shards < 1:
        raise ValueError("shards must be >= 1")
    columnar = db.columnar_index
    table = columnar.nodes
    document = table.document
    # The table's text references are byte spans of the document.
    data_files = [(_DOCUMENT, (document,)),
                  (_DEWEY, table.chunks(table.text_off, table.text_len,
                                        len(document), algorithm))]
    meta = {
        "format_version": FORMAT_VERSION,
        "jdewey_gap": db.jdewey_gap,
        "n_docs": columnar.n_docs,
        "damping_base": db.ranking.damping.base,
        "tokenizer": {
            "stopwords": sorted(db.tokenizer.stopwords),
            "min_length": db.tokenizer.min_length,
        },
        "n_nodes": len(table),
    }
    if shards is None:
        data_files.append((_COLUMNAR, storage.container_chunks(
            columnar, algorithm=algorithm)))
    else:
        from .serve.sharding import shard_owners

        # Each shard's container is the whole index's batches, keeping
        # the occurrences the shard owns: no postings are made per shard.
        owners = shard_owners({t: columnar.term_postings(t)
                               for t in columnar.vocabulary}, table, shards)
        shard_dirs = [f"shard-{sid:02d}" for sid in range(shards)]
        for sid, shard_dir in enumerate(shard_dirs):
            data_files.append((os.path.join(shard_dir, _COLUMNAR),
                               storage.container_chunks(
                                   columnar, algorithm, owners, sid)))
        meta["shards"] = {"count": shards, "strategy": "root-child-mod",
                          "dirs": shard_dirs}
    _commit_atomically(path, data_files, meta, algorithm, fsync)


def load_database(path: str,
                  ranking: Optional[RankingModel] = None,
                  verify: str = "eager",
                  lazy: bool = False,
                  decoded_cache_bytes: int = 32 * 1024 * 1024,
                  **db_kwargs):
    """Open a directory written by `save_database`.

    Returns an `XMLDatabase`, or a `repro.serve.ShardedDatabase` when
    the manifest carries a shard layout (``save_database(shards=N)``);
    both answer the same search surface.

    There is one open path.  Nothing proportional to the document runs
    in Python here: the node table and the columnar container are
    memory-mapped, the index is a `LazyColumnarIndex` over the mapping
    (a term's block is parsed on its first touch, a column decoded on
    its first read), and ``document.xml`` is parsed only when `db.tree`
    is first used.

    Extra keyword arguments (``tracer``) are forwarded to the
    `XMLDatabase` constructor, of every shard when sharded.

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
    * ``decoded_cache_bytes`` -- byte budget of the shared
      decoded-column LRU (default 32 MiB; ``0`` disables it, reverting
      to unbounded per-postings caching).  One cache serves all shards
      of a sharded database; hot terms skip column decompression on
      repeat queries and bill the saving to the query's
      `ResourceAccount`.

    The returned database holds its mappings for its lifetime; column
    decompression and node lookups run on zero-copy views of them.

    Raises `DatabaseFormatError` on missing files, a ``meta.json``
    that `read_meta` refuses, a directory written in an earlier format
    (the message names its version and the way to rebuild it), or a
    document that no longer matches the stored
    indexes, and
    `DatabaseCorruptError` (a subclass) when bytes fail their checksum
    or do not parse, or a file cannot be read in `DEFAULT_POLICY`'s
    attempts.
    """
    if verify not in _VERIFY_MODES:
        raise ValueError(f"unknown verify mode {verify!r}; "
                         f"one of {_VERIFY_MODES}")
    decoded_cache = None
    if decoded_cache_bytes > 0:
        decoded_cache = DecodedColumnCache(decoded_cache_bytes)

    meta = read_meta(path)
    algorithm = meta["checksum"]["algorithm"]
    digests = meta["checksum"]["files"]
    n_nodes, n_docs = meta["n_nodes"], meta["n_docs"]
    shards_meta = meta.get("shards")
    if verify != "off" and algorithm not in ALGORITHMS:
        raise DatabaseFormatError(
            f"manifest names unknown checksum algorithm {algorithm!r}")

    def verify_file(name: str, blob) -> None:
        if verify == "off":
            return
        expected = digests.get(name)
        if expected is None or not digest_matches(blob, expected, algorithm):
            raise DatabaseCorruptError(
                f"whole-file digest mismatch for {name} "
                f"({algorithm}); the file was corrupted or belongs to "
                "an interrupted save", file=name)

    opened = {}     # "document" / "tree", each produced once

    def open_document():
        """``document.xml`` mapped and digest-checked, on first use."""
        if "document" not in opened:
            blob = read_file(path, _DOCUMENT, "read-document",
                             mapped=True).view
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
            tree.number(nodes.load().number)
            opened["tree"] = tree
        return opened["tree"]

    if not os.path.exists(os.path.join(path, _DEWEY)):
        raise DatabaseFormatError(f"{path!r} has no {_DEWEY}")
    table_blob = read_file(path, _DEWEY, "read-dewey", mapped=True).view
    if verify != "lazy":
        verify_file(_DEWEY, table_blob)
    # Lazy: the table's sections vouch for themselves on first touch.
    # Otherwise the digest above covered every byte (or nothing was to
    # be checked).
    nodes = NodeTable.from_buffer(
        table_blob, file=_DEWEY, check_crc=verify == "lazy",
        open_tree=open_tree, open_document=open_document)
    if len(nodes) != n_nodes:
        raise DatabaseFormatError(
            f"node table has {len(nodes)} nodes, metadata says {n_nodes}")
    if verify == "eager":
        open_document()

    try:
        tokenizer = Tokenizer(stopwords=meta["tokenizer"]["stopwords"],
                              min_length=meta["tokenizer"]["min_length"])
        if ranking is None:
            ranking = RankingModel(
                damping=DampingFunction(meta["damping_base"]))
    except (TypeError, ValueError) as exc:
        raise DatabaseFormatError(
            f"{_META} carries an invalid configuration: {exc}") from exc

    def make_db(columnar_rel: str) -> XMLDatabase:
        """An `XMLDatabase` over one columnar container -- the flat
        layout's file or one shard's -- sharing the table and the
        deferred document."""
        try:
            db = XMLDatabase(None, tokenizer=tokenizer,
                             ranking=ranking,
                             jdewey_gap=meta["jdewey_gap"],
                             **db_kwargs)
        except (TypeError, ValueError) as exc:
            raise DatabaseFormatError(
                f"{_META} carries an invalid configuration: {exc}") from exc
        db._open_tree = open_tree
        # Zero-copy: the container is mapped.
        source = read_file(path, columnar_rel, "read-columnar", mapped=True)
        if verify == "eager":
            verify_file(columnar_rel, source.view)
        # Otherwise no whole-file pass, on purpose: per-block CRCs cover
        # exactly the bytes a query touches, when it touches them.
        db._columnar = LazyColumnarIndex(
            source, nodes, tokenizer, ranking, verify=verify,
            source=columnar_rel, decoded_cache=decoded_cache)
        db._columnar.n_docs = n_docs
        if verify == "eager":
            _verify_consistency(db)
        return db

    if shards_meta is None:
        return make_db(_COLUMNAR)
    from .serve.merge import ShardedDatabase

    return ShardedDatabase(
        [make_db(os.path.join(shard_dir, _COLUMNAR))
               for shard_dir in shards_meta["dirs"]],
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
