"""The bulk container writer against the per-column reference writer
(`tests/reference_codecs.py`).

`repro.index.storage` encodes a batch of consecutive terms at a time:
one node-table sweep reads every level, `encode_columns` applies the
decision list to every column at once and varint-encodes every chosen
stream in one pass.  Whatever the columns, the bytes must be the ones
`choose_codec`'s decision list, run column by column with scalar
encoders and sizes summed a value at a time, gives: per column, per
term payload and per container, flat and per shard.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import XMLDatabase
from repro.diskdb import save_database
from repro.index import compression as cmp
from repro.index import storage
from repro.index.columnar import ColumnarIndex, ColumnarPostings
from repro.serve.sharding import row_shards, shard_of_dewey, subtree_shard_map
from tests import reference_codecs as ref

#: What a save at 2 000 papers (seed 3, no fsync) may peak at under
#: `tracemalloc`, flat and with 2 shards, when the writer encodes
#: batches of up to 4 096 occurrences: measured at 1.63 and 2.71 MiB
#: (the parent's per-term writer: 0.25 and 1.63 MiB).  The costliest
#: batch is one of many small terms: its per-column arrays.
SAVE_PEAK_MIB = {None: 2.0, 2: 3.5}


def _half_runs(draw, top):
    """Exactly half the values start a run, the last value below
    `top`."""
    distinct = draw(st.lists(st.integers(0, top - 1), min_size=1,
                             max_size=40, unique=True))
    return sorted(distinct * 2)


@st.composite
def columns(draw, wide=False):
    """One column: the decision list's edge cases, each drawn often."""
    hi = 2 ** 64 - 1 if wide else 2 ** 63 - 1
    kind = draw(st.sampled_from(
        ["single", "equal", "half_small", "half_big", "sized", "dense",
         "nine", "ten", "random", "unsorted"]))
    if kind == "single":
        return [draw(st.integers(0, hi))]
    if kind == "equal":
        return [draw(st.integers(0, hi))] * draw(st.integers(2, 300))
    if kind == "half_small":                # last value < 0x80: a tie
        return _half_runs(draw, 0x80)
    if kind == "half_big":                  # last value >= 0x80
        values = _half_runs(draw, 0x80)
        return values[:-2] + [0x80 + draw(st.integers(0, 10 ** 6))] * 2
    if kind == "sized":                     # FOR's floor, a block's edge
        n = draw(st.sampled_from([31, 32, 33, 127, 128, 129]))
        top = draw(st.sampled_from([3, 200, 2 ** 20]))
        return sorted(draw(st.lists(st.integers(0, top), min_size=n,
                                    max_size=n)))
    if kind == "dense":                     # FOR wins
        start = draw(st.integers(0, 2 ** 40))
        return list(range(start, start + draw(st.integers(32, 400))))
    if kind == "nine":                      # 9-byte varints
        return sorted(draw(st.lists(st.integers(2 ** 56, 2 ** 63 - 1),
                                    min_size=1, max_size=40)))
    if kind == "ten" and wide:              # 10-byte varints
        return sorted(draw(st.lists(st.integers(2 ** 63, hi),
                                    min_size=1, max_size=40)))
    values = draw(st.lists(st.integers(0, draw(st.sampled_from(
        [1, 127, 128, 5000, hi]))), min_size=1, max_size=300))
    return values if kind == "unsorted" else sorted(values)


class TestEncodeColumns:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(columns(wide=True), min_size=1, max_size=8),
           st.booleans())
    def test_batch_equals_reference_per_column(self, batch, unsigned):
        """A batch of columns end to end: each column's codec and
        payload are the reference's for it alone."""
        if not unsigned and max(max(c) for c in batch) >= 2 ** 63:
            unsigned = True
        dtype = np.uint64 if unsigned else np.int64
        values = np.concatenate([np.array(c, dtype=dtype) for c in batch])
        bounds = np.cumsum([0] + [len(c) for c in batch])
        ids, payloads = cmp.encode_columns(values, bounds)
        for column, scheme_id, payload in zip(batch, ids, payloads):
            scheme, want = ref.choose_codec(np.array(column, dtype=dtype))
            assert (cmp.SCHEME_NAMES[int(scheme_id)], payload) \
                == (scheme, want), column

    @settings(max_examples=100, deadline=None)
    @given(columns(wide=True), st.sampled_from(
        [cmp.CODECS, cmp.PAPER_CODECS, ("for",), ("varint",), ("rle",),
         ("delta",), ("varint", "for")]))
    def test_choose_codec_equals_reference(self, column, codecs):
        """The public one-column call, sorted or not, restricted or
        not: the same pick and bytes, or the same refusal."""
        def pick(choose):
            try:
                return choose(column, codecs)
            except ValueError:
                return "refused"

        assert pick(cmp.choose_codec) == pick(ref.choose_codec)

    @pytest.mark.parametrize("n,scheme", [(30, "delta"), (31, "delta"),
                                          (32, "for"), (33, "delta")])
    def test_for_floor_edge(self, n, scheme):
        """Consecutive 6-byte values: FOR would be smallest at 30 and 31
        values too, but below its 32-value floor it is not sized."""
        values = np.arange(2 ** 40, 2 ** 40 + n, dtype=np.int64)
        assert cmp.choose_codec(values) == ref.choose_codec(values)
        assert cmp.choose_codec(values)[0] == scheme

    @pytest.mark.parametrize("values", [[9, 3, 7], [5, 5, 4],
                                        list(range(100, 0, -1)),
                                        [2 ** 63, 1, 2 ** 64 - 1]])
    def test_choose_codec_on_unsorted_input(self, values):
        assert cmp.choose_codec(values) == ref.choose_codec(values)
        with pytest.raises(ValueError):
            cmp.choose_codec(values, cmp.PAPER_CODECS)

    @settings(max_examples=60, deadline=None)
    @given(columns(wide=True).filter(
        lambda c: all(b >= a for a, b in zip(c, c[1:]))))
    def test_every_encoder_equals_reference(self, column):
        assert cmp.encode_rle(column) == ref.encode_rle(column)
        assert cmp.encode_delta_blocks(column) \
            == ref.encode_delta_blocks(column)
        assert cmp.encode_delta_blocks(column, block_size=3) \
            == ref.encode_delta_blocks(column, block_size=3)
        assert cmp.encode_varint_column(column) \
            == ref.encode_varint_column(column)
        assert cmp.encode_varints(column) == ref.encode_varints(column)


@st.composite
def terms(draw):
    """One term's postings: sequences of differing lengths, their first
    components from a drawn column, or a single row."""
    firsts = draw(columns())
    seqs = []
    for first in firsts[:60]:
        tail = draw(st.lists(st.integers(0, draw(st.sampled_from(
            [3, 300, 2 ** 40]))), max_size=4))
        seqs.append((first, *tail))
    if draw(st.booleans()):
        seqs = seqs[:1]                     # a one-row term
    scores = draw(st.lists(st.floats(0, 10, allow_nan=False),
                           min_size=len(seqs), max_size=len(seqs)))
    return ColumnarPostings(draw(st.text("abcxyz", min_size=1)), seqs,
                            scores)


class TestPayloads:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(terms(), min_size=1, max_size=6))
    def test_batch_equals_reference_per_term(self, batch):
        assert storage.serialize_columnar_payloads(batch) \
            == [ref.serialize_payload(p) for p in batch]

    @pytest.mark.parametrize("batch_occurrences", [1, 3, 50, 4096])
    def test_container_equals_reference_whatever_the_batch(
            self, monkeypatch, small_db, batch_occurrences):
        """Batches of one term, of a few and of all: the same bytes."""
        monkeypatch.setattr(storage, "_BATCH_OCCURRENCES",
                            batch_occurrences)
        index = small_db.columnar_index
        assert storage.serialize_columnar_index(index) \
            == ref.serialize_container(index)

    def test_a_batch_is_bounded(self, monkeypatch, small_db):
        """A batch holds at most `_BATCH_OCCURRENCES` occurrences, or
        one term that has more."""
        monkeypatch.setattr(storage, "_BATCH_OCCURRENCES", 4)
        sizes = []
        real = storage.serialize_columnar_payloads

        def recording(batch, keep=None):
            sizes.append([len(p) for p in batch])
            return real(batch, keep)

        monkeypatch.setattr(storage, "serialize_columnar_payloads",
                            recording)
        storage.serialize_columnar_index(small_db.columnar_index)
        assert sum(map(sum, sizes)) == sum(
            len(small_db.columnar_index.term_postings(t))
            for t in small_db.columnar_index.vocabulary)
        assert all(sum(s) <= 4 or len(s) == 1 for s in sizes)
        assert any(len(s) > 1 for s in sizes)


def _reference_shards(index, n_shards):
    """Each shard's container, the occurrences split by their level-2
    numbers and written by the reference writer."""
    shard_of = subtree_shard_map(index.nodes, n_shards)
    parts = [{} for _ in range(n_shards)]
    for term in index.vocabulary:
        postings = index.term_postings(term)
        owner = np.array([shard_of[s[1]] if len(s) > 1 else 0
                          for s in postings.seqs])
        for sid in range(n_shards):
            ordinals = np.flatnonzero(owner == sid)
            if len(ordinals):
                parts[sid][term] = postings.select(ordinals)
    return [ref.serialize_container(ColumnarIndex.from_postings(
        index.nodes, part)) for part in parts]


@pytest.mark.parametrize("make", [
    lambda: XMLDatabase.generate_dblp(seed=5, n_papers=300),
    lambda: XMLDatabase.generate_xmark(seed=5, scale=0.005)],
    ids=["dblp", "xmark"])
def test_smoke_containers_equal_reference(tmp_path, make):
    """The saved containers, flat and with 2 shards, are the reference
    writer's bytes."""
    db = make()
    index = db.columnar_index
    save_database(db, str(tmp_path / "flat"), fsync=False)
    save_database(db, str(tmp_path / "sharded"), fsync=False, shards=2)
    with open(tmp_path / "flat" / "columnar.bin", "rb") as fh:
        assert fh.read() == ref.serialize_container(index)
    for sid, want in enumerate(_reference_shards(index, 2)):
        name = tmp_path / "sharded" / f"shard-{sid:02d}" / "columnar.bin"
        with open(name, "rb") as fh:
            assert fh.read() == want, sid


def test_row_shards_follow_the_dewey_rule(small_db):
    table = small_db.columnar_index.nodes
    for n_shards in (1, 2, 3):
        owners = row_shards(table, n_shards)
        assert owners.tolist() == [
            shard_of_dewey(d, n_shards)
            for d in table.deweys(np.arange(len(table)))]


@pytest.mark.parametrize("shards", [None, 2])
def test_save_peak_memory_at_2000_papers(tmp_path, shards):
    """The batch writer holds a bounded batch, never the container."""
    db = XMLDatabase.generate_dblp(seed=3, n_papers=2000)
    save_database(db, str(tmp_path / "warm"), fsync=False, shards=shards)
    tracemalloc.start()
    try:
        save_database(db, str(tmp_path / "db"), fsync=False, shards=shards)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SAVE_PEAK_MIB[shards] * 2 ** 20, peak / 2 ** 20
    assert os.path.exists(tmp_path / "db" / "meta.json")
