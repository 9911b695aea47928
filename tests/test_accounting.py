"""Tests for per-query resource accounting (`repro.obs.account`).

Covers the account object itself, the context-var scoping (nested
accounts shadow, they never double-charge), the fold into
`ExecutionStats`, the disk-path integration (a lazy v3 database
produces nonzero byte counters; the eager in-memory index produces
zeros but still attaches a breakdown) and cache attribution.  The
drift test pins `ExecutionStats._COUNTER_FIELDS` to the dataclass so a
new counter cannot silently miss merge/as_dict.
"""

import dataclasses

import pytest

from repro.algorithms.base import ExecutionStats
from repro.api import XMLDatabase
from repro.diskdb import load_database, save_database
from repro.obs.account import (ResourceAccount, accounting, active_account,
                               fold_into_stats, merge_resources)


class TestResourceAccount:
    def test_record_column_mapped(self):
        account = ResourceAccount()
        account.record_column(2, "delta", 100, 400, 50, True)
        assert account.bytes_mapped == 100
        assert account.bytes_copied == 0
        assert account.bytes_decompressed == 400
        assert account.postings_bytes_read == 100
        assert account.columns_decompressed == 1
        assert account.by_codec == {"delta": 400}
        assert account.level_postings == {2: 50}
        assert account.level_bytes == {2: 100}

    def test_record_column_copied(self):
        account = ResourceAccount()
        account.record_column(1, "rle", 80, 320, 40, False)
        assert account.bytes_mapped == 0
        assert account.bytes_copied == 80

    def test_record_cache(self):
        """The one cache a query is billed for is the decoded-column
        cache: a hit saves the decoded bytes, a miss pays them."""
        account = ResourceAccount()
        account.record_decode_cache(True, 1000)
        account.record_decode_cache(False, 500)
        assert account.cache_bytes_saved == 1000
        assert account.cache_bytes_paid == 500
        assert account.as_dict()["decode_cache"] == {"hits": 1, "misses": 1}

    def test_as_dict_string_level_keys(self):
        account = ResourceAccount()
        account.record_column(3, "delta", 10, 40, 5, True)
        data = account.as_dict()
        assert data["by_level_postings"] == {"3": 5}
        assert data["by_level_bytes"] == {"3": 10}
        assert data["by_codec"] == {"delta": 40}


class TestAccountingContext:
    def test_no_active_account_by_default(self):
        assert active_account() is None

    def test_context_sets_and_restores(self):
        with accounting() as account:
            assert active_account() is account
        assert active_account() is None

    def test_nested_account_shadows_outer(self):
        """The inner scope replaces the outer: shard-level accounting
        must not double-charge the root-protocol account."""
        with accounting() as outer:
            with accounting() as inner:
                active_account().record_copy(100)
            assert active_account() is outer
            active_account().record_copy(7)
        assert inner.bytes_copied == 100
        assert outer.bytes_copied == 7


class TestFoldAndMerge:
    def test_fold_into_stats(self):
        stats = ExecutionStats()
        account = ResourceAccount()
        account.record_column(1, "delta", 100, 400, 50, True)
        account.record_decode_cache(True, 30)
        fold_into_stats(stats, account)
        assert stats.bytes_mapped == 100
        assert stats.bytes_decompressed == 400
        assert stats.columns_decompressed == 1
        assert stats.cache_bytes_saved == 30
        assert stats.resources["by_codec"] == {"delta": 400}

    def test_merge_resources_sums_recursively(self):
        a = {"bytes_mapped": 1, "by_codec": {"delta": 10}}
        b = {"bytes_mapped": 2, "by_codec": {"delta": 5, "rle": 3}}
        merged = merge_resources(a, b)
        assert merged["bytes_mapped"] == 3
        assert merged["by_codec"] == {"delta": 15, "rle": 3}

    def test_merge_resources_none_identity(self):
        assert merge_resources(None, None) is None
        assert merge_resources(None, {"x": 1}) == {"x": 1}
        assert merge_resources({"x": 1}, None) == {"x": 1}

    def test_stats_merge_carries_resources(self):
        left = ExecutionStats()
        right = ExecutionStats()
        left.resources = {"bytes_mapped": 5}
        right.resources = {"bytes_mapped": 7}
        left += right
        assert left.resources["bytes_mapped"] == 12
        assert left.bytes_mapped == 0  # scalars merge separately


class TestCounterFieldDrift:
    """Satellite: a numeric counter added to ExecutionStats must also
    land in _COUNTER_FIELDS, or merge()/as_dict() silently drop it."""

    def test_counter_fields_match_dataclass(self):
        # `from __future__ import annotations` makes the annotation the
        # *string* "int"; structural fields (resources, per_level_plan)
        # and the bool flag are not counters.
        numeric = {
            f.name for f in dataclasses.fields(ExecutionStats)
            if f.type in ("int", int)
        }
        counters = set(ExecutionStats._COUNTER_FIELDS)
        missing = numeric - counters
        assert not missing, (
            f"ExecutionStats numeric fields missing from "
            f"_COUNTER_FIELDS (merge/as_dict will drop them): "
            f"{sorted(missing)}")
        phantom = counters - numeric
        assert not phantom, (
            f"_COUNTER_FIELDS names non-numeric or removed fields: "
            f"{sorted(phantom)}")

    def test_new_counters_present(self):
        for name in ("bytes_mapped", "bytes_copied", "bytes_decompressed",
                     "postings_bytes_read", "columns_decompressed",
                     "cache_bytes_saved", "cache_bytes_paid"):
            assert name in ExecutionStats._COUNTER_FIELDS


class TestDiskIntegration:
    @pytest.fixture
    def lazy_db(self, tmp_path, small_db):
        path = str(tmp_path / "db")
        save_database(small_db, path)
        return load_database(path, lazy=True)

    def test_lazy_v3_counts_bytes(self, lazy_db):
        top = lazy_db.search_topk("xml data", 5)
        stats = top.stats
        assert stats.bytes_decompressed > 0
        assert stats.columns_decompressed > 0
        assert stats.postings_bytes_read > 0
        assert stats.bytes_mapped > 0  # columns are mmap views
        assert stats.resources is not None
        assert stats.resources["by_codec"]
        assert stats.resources["by_level_postings"]

    def test_eager_db_attaches_zero_account(self, small_db):
        """The in-memory index never hits the lazy column taps: all
        byte counters are zero, but the breakdown still attaches."""
        _results, stats = small_db.search("xml data", with_stats=True)
        assert stats.resources is not None
        assert stats.bytes_decompressed == 0
