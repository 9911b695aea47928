"""The query path reads a column's runs and nothing per row.

A `Column` holds section III-D's runs -- ``distinct``, ``run_starts``
and each run's first sequence ordinal -- and derives ``values`` and
``seq_idx`` (one entry a row) only when asked.  Here both derivations
raise, and every engine answers, on every storage, exactly as it does
unpatched: complete ELCA/SLCA, the default top-K, the rank join
(``topk-join``) and the stream, in memory, opened flat and opened as
two shards.
"""

from itertools import islice

import pytest

from repro.diskdb import load_database, save_database
from repro.index.columnar import Column
from tests.test_sharded import QUERIES, SEMANTICS, canon

K = 10


def _answers(db, engine, query, semantics):
    if engine == "complete":
        return canon(db.search(query, semantics=semantics))
    if engine == "stream":
        return canon(islice(db.search_stream(query, semantics=semantics), K))
    algorithm = {"topk": "hybrid", "topk-join": "topk-join"}[engine]
    top = db.search_topk(query, K, semantics=semantics, algorithm=algorithm)
    bound = None if top.bound is None else round(top.bound, 9)
    return canon(top.results), top.partial, bound


ENGINES = ("complete", "topk", "topk-join", "stream")


@pytest.fixture(scope="module")
def storages(dblp_db, tmp_path_factory):
    """Three storages of one corpus; the two on disk are opened (and
    checked, which reads every column's values) before anything is
    patched."""
    root = tmp_path_factory.mktemp("runs-only")
    opened = {}
    for name, shards in (("lazy-flat", None), ("2-shard", 2)):
        path = str(root / name)
        save_database(dblp_db, path, shards=shards, fsync=False)
        opened[name] = load_database(path)
    return {"memory": dblp_db, **opened}


@pytest.fixture(scope="module")
def expected(dblp_db):
    return {(engine, query, semantics):
            _answers(dblp_db, engine, query, semantics)
            for engine in ENGINES for query in QUERIES
            for semantics in SEMANTICS}


@pytest.fixture
def rows_forbidden(monkeypatch):
    def forbidden(column):
        raise AssertionError(
            f"a per-row array of a level-{column.level} column was read")

    monkeypatch.setattr(Column, "values", property(forbidden))
    monkeypatch.setattr(Column, "seq_idx", property(forbidden))


def test_no_per_row_array_is_held(dblp_db, rows_forbidden):
    assert set(Column.__slots__) == {"level", "distinct", "run_starts",
                                     "run_ordinals"}
    with pytest.raises(AssertionError):
        dblp_db.columnar_index.term_postings("alpha").column(1).values


@pytest.mark.parametrize("storage", ("memory", "lazy-flat", "2-shard"))
@pytest.mark.parametrize("engine", ENGINES)
def test_engines_answer_from_runs_alone(storages, expected, rows_forbidden,
                                        storage, engine):
    for query in QUERIES:
        for semantics in SEMANTICS:
            assert _answers(storages[storage], engine, query, semantics) \
                == expected[engine, query, semantics], (query, semantics)
