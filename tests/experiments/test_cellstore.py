"""Unit tests for the WAL-mode SQLite cell store."""

import json
import sqlite3
import threading
import warnings

import numpy as np
import pytest

from repro.core.retry import RetryPolicy
from repro.exceptions import InvalidParameterError
from repro.experiments.cellstore import (
    CELLSTORE_SCHEMA_VERSION,
    LOOKUP_CHUNK,
    SQLiteCellStore,
    _MIGRATIONS,
    _statements,
)
from repro.experiments.grid import GridCell, cell_runner, run_grid


@cell_runner("_test_store_echo")
def _store_echo_cell(params, rng):
    return [{"value": params.get("value", 0)}]


def cell(value: int, seed: int = 42) -> GridCell:
    return GridCell(
        figure="f", runner="_test_store_echo", params={"value": value}, master_seed=seed
    )


@pytest.fixture
def store(tmp_path):
    store = SQLiteCellStore.for_directory(tmp_path / "cache")
    yield store
    store.close()


class TestCellsTable:
    def test_roundtrip(self, store):
        assert store.lookup([cell(1)])[0] is None
        assert store.put(cell(1), [{"value": 1, "draw": 4}], elapsed=0.1) is not None
        assert store.lookup([cell(1)])[0] == [{"value": 1, "draw": 4}]
        assert len(store) == 1

    def test_wal_mode_and_schema_version(self, store):
        assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert store.schema_version() == CELLSTORE_SCHEMA_VERSION

    def test_key_mismatch_is_a_miss(self, store):
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        store._conn.execute("UPDATE cells SET key = 'tampered'")
        store._conn.commit()
        assert store.lookup([cell(1)])[0] is None

    def test_master_seed_mismatch_is_a_miss(self, store):
        store.put(cell(1, seed=42), [{"value": 1}], elapsed=0.0)
        store._conn.execute("UPDATE cells SET master_seed = 7")
        store._conn.commit()
        assert store.lookup([cell(1)])[0] is None

    def test_corrupt_rows_payload_is_a_miss(self, store):
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        store._conn.execute("UPDATE cells SET rows = '{not json'")
        store._conn.commit()
        assert store.lookup([cell(1)])[0] is None

    def test_overwrite_keeps_one_entry(self, store):
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        store.put(cell(1), [{"value": 2}], elapsed=0.0)
        assert len(store) == 1
        assert store.lookup([cell(1)])[0] == [{"value": 2}]

    def test_stats_shape(self, store):
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["journal_entries"] == 0
        assert stats["runs"] == 0
        assert stats["schema_version"] == CELLSTORE_SCHEMA_VERSION

    def test_run_grid_serves_second_run_from_cache(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path / "cache")
        cells = [cell(v) for v in range(3)]
        cold = run_grid(cells, cache=store)
        assert cold.computed == 3 and cold.from_cache == 0
        warm = run_grid(cells, cache=store)
        assert warm.computed == 0 and warm.from_cache == 3
        assert warm.rows == cold.rows
        store.close()

    def test_unusable_path_raises_invalid_parameter(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(InvalidParameterError):
            SQLiteCellStore.for_directory(blocker / "cache")

    def test_invalid_bounds_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            SQLiteCellStore.for_directory(tmp_path, max_entries=0)
        with pytest.raises(InvalidParameterError):
            SQLiteCellStore.for_directory(tmp_path, max_bytes=0)

    def test_file_that_is_not_a_database_raises_invalid_parameter(self, tmp_path):
        path = tmp_path / "cells.sqlite"
        path.write_bytes(b"not a database" * 100)
        with pytest.raises(InvalidParameterError, match="not usable"):
            SQLiteCellStore(path)

    def test_numpy_rows_are_stored_as_plain_json(self, store):
        rows = [{"value": np.int64(3), "acc": np.float64(0.5), "xs": np.arange(2)}]
        store.put(cell(1), rows, elapsed=0.0)
        served = store.lookup([cell(1)])[0]
        assert served == [{"value": 3, "acc": 0.5, "xs": [0, 1]}]
        assert type(served[0]["value"]) is int
        assert type(served[0]["acc"]) is float

    def test_second_connection_sees_committed_puts(self, tmp_path):
        first = SQLiteCellStore.for_directory(tmp_path)
        second = SQLiteCellStore.for_directory(tmp_path)
        try:
            first.put(cell(1), [{"value": 1}], elapsed=0.0)
            assert second.lookup([cell(1)])[0] == [{"value": 1}]
            second.put(cell(2), [{"value": 2}], elapsed=0.0)
            assert first.lookup([cell(2)])[0] == [{"value": 2}]
            assert first.stats()["entries"] == second.stats()["entries"] == 2
        finally:
            first.close()
            second.close()


class TestLookup:
    """One batched lookup serves a whole plan (step 1 of run_grid)."""

    def test_plan_larger_than_one_chunk_is_served_in_full(self, store):
        cells = [cell(v) for v in range(2 * LOOKUP_CHUNK + 1)]
        run_grid(cells, cache=store)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a degraded lookup would warn
            hits = store.lookup(cells + [cell(-1)])
        assert hits == [[{"value": v}] for v in range(len(cells))] + [None]
        warm = run_grid(cells, cache=store)
        assert warm.from_cache == len(cells) and warm.computed == 0

    def test_mismatched_and_corrupt_entries_miss_while_others_hit(self, store):
        cells = [cell(v) for v in range(5)]
        for c in cells:
            store.put(c, [{"value": c.params["value"]}], elapsed=0.0)
        tamper = {
            1: "UPDATE cells SET key = 'tampered' WHERE config_hash = ?",
            2: "UPDATE cells SET rows = '{not json' WHERE config_hash = ?",
            3: "UPDATE cells SET master_seed = 7 WHERE config_hash = ?",
        }
        for index, statement in tamper.items():
            store._conn.execute(statement, (cells[index].config_hash,))
        store._conn.commit()
        assert store.lookup(cells) == [[{"value": 0}], None, None, None, [{"value": 4}]]
        # duplicate cells in one plan are each served
        assert store.lookup([cells[0], cells[0]]) == [[{"value": 0}]] * 2

    def test_one_run_grid_refreshes_every_hit_before_eviction(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=4)
        hot, stale = [cell(0), cell(1)], [cell(2), cell(3)]
        run_grid(hot + stale, cache=store)
        store._conn.execute("UPDATE cells SET last_used_at = last_used_at - 1000")
        store._conn.commit()
        warm = run_grid(hot, cache=store)  # hits refresh last_used_at
        assert warm.from_cache == 2
        run_grid([cell(4), cell(5)], cache=store)  # forces two evictions
        assert store.lookup(hot + stale) == [[{"value": 0}], [{"value": 1}], None, None]
        store.close()

    @pytest.mark.parametrize("size", [1, LOOKUP_CHUNK, LOOKUP_CHUNK + 1])
    def test_one_select_per_chunk_serves_every_cell(self, store, size):
        cells = [cell(v) for v in range(size)]
        for c in cells:
            store.put(c, [{"value": c.params["value"]}], elapsed=0.0)
        statements = []
        store._conn.set_trace_callback(statements.append)
        hits = store.lookup(cells)
        store._conn.set_trace_callback(None)
        assert hits == [[{"value": v}] for v in range(size)]
        selects = [s for s in statements if s.startswith("SELECT")]
        assert len(selects) == -(-size // LOOKUP_CHUNK)
        # every hit is refreshed inside a single write transaction
        assert statements.count("BEGIN ") == 1
        assert sum(s.startswith("UPDATE") for s in statements) == size

    def test_empty_plan_runs_no_statement(self, store):
        statements = []
        store._conn.set_trace_callback(statements.append)
        assert store.lookup([]) == []
        assert run_grid([], cache=store).n_cells == 0
        assert statements == []

    def test_only_served_entries_are_refreshed(self, store):
        cells = [cell(v) for v in range(3)]
        for c in cells:
            store.put(c, [{"value": c.params["value"]}], elapsed=0.0)
        store._conn.execute("UPDATE cells SET last_used_at = 0")
        store._conn.execute(
            "UPDATE cells SET key = 'tampered' WHERE config_hash = ?",
            (cells[1].config_hash,),
        )
        store._conn.commit()
        store.lookup(cells[:2])  # cells[1] misses, cells[2] is not asked for
        last_used = dict(
            store._conn.execute("SELECT config_hash, last_used_at FROM cells")
        )
        assert last_used[cells[0].config_hash] > 0
        assert last_used[cells[1].config_hash] == 0
        assert last_used[cells[2].config_hash] == 0

    def test_locked_database_still_serves_hits_without_warning(self, tmp_path):
        # the LRU refresh is best-effort: a co-writer holding the write lock
        # must not turn a readable hit into a miss (WAL readers never block)
        path = tmp_path / "cells.sqlite"
        store = SQLiteCellStore(path, busy_timeout_ms=5)
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        blocker = sqlite3.connect(path)
        try:
            blocker.execute("BEGIN IMMEDIATE")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert store.lookup([cell(1), cell(2)]) == [[{"value": 1}], None]
        finally:
            blocker.rollback()
            blocker.close()
            store.close()

    def test_failing_connection_degrades_to_all_miss_with_one_warning(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path)
        cells = [cell(v) for v in range(4)]
        run_grid(cells, cache=store)
        store.close()  # every later query raises sqlite3.ProgrammingError
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_grid(cells, cache=store)
        reads = [w for w in caught if "cell store read failed" in str(w.message)]
        assert len(reads) == 1
        assert result.computed == 4 and result.from_cache == 0
        assert [row["value"] for row in result.rows] == [0, 1, 2, 3]


class TestEviction:
    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=2)
        store.put(cell(0), [{"value": 0}], elapsed=0.0)  # oldest write...
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        assert store.lookup([cell(0)])[0] is not None  # ...but refreshed: hot
        store.put(cell(2), [{"value": 2}], elapsed=0.0)
        assert store.lookup([cell(0)])[0] is not None
        assert store.lookup([cell(1)])[0] is None  # the stale entry went
        assert store.stats()["evicted"] == 1
        store.close()

    def test_newest_entry_never_evicted(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=1)
        for value in range(3):
            store.put(cell(value), [{"value": value}], elapsed=0.0)
        assert len(store) == 1
        assert store.lookup([cell(2)])[0] is not None
        store.close()

    def test_max_bytes_bound(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path)
        store.put(cell(0), [{"value": 0}], elapsed=0.0)
        entry_size = store.stats()["total_bytes"]
        store.close()
        bounded = SQLiteCellStore.for_directory(tmp_path, max_bytes=3 * entry_size)
        for value in range(1, 7):
            bounded.put(cell(value), [{"value": value}], elapsed=0.0)
        stats = bounded.stats()
        assert stats["total_bytes"] <= bounded.max_bytes
        assert stats["entries"] < 7
        bounded.close()

    def test_unbounded_store_keeps_everything(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path)
        for value in range(5):
            store.put(cell(value), [{"value": value}], elapsed=0.0)
        assert len(store) == 5
        assert store.stats()["evicted"] == 0
        store.close()

    def test_ties_in_last_use_evict_in_write_order(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=3)
        cells = [cell(v) for v in range(5)]
        for c in cells[:3]:
            store.put(c, [{"value": c.params["value"]}], elapsed=0.0)
        store._conn.execute("UPDATE cells SET last_used_at = 0")  # all tied
        store._conn.commit()
        for c in cells[3:]:
            store.put(c, [{"value": c.params["value"]}], elapsed=0.0)
        assert store.lookup(cells) == [None, None, [{"value": 2}], [{"value": 3}], [{"value": 4}]]
        assert store.stats()["evicted"] == 2
        store.close()

    def test_entry_larger_than_max_bytes_is_kept_alone(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path, max_bytes=1)
        store.put(cell(0), [{"value": 0}], elapsed=0.0)
        assert len(store) == 1  # the entry just written is never evicted
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        assert store.lookup([cell(0), cell(1)]) == [None, [{"value": 1}]]
        assert store.stats()["evicted"] == 1
        store.close()

    def test_overwrites_do_not_inflate_the_byte_total(self, tmp_path):
        probe = SQLiteCellStore.for_directory(tmp_path / "probe")
        probe.put(cell(1), [{"value": 1}], elapsed=0.0)
        entry_size = probe.stats()["total_bytes"]
        probe.close()
        store = SQLiteCellStore.for_directory(tmp_path, max_bytes=2 * entry_size)
        store.put(cell(0), [{"value": 0}], elapsed=0.0)
        for _ in range(20):
            store.put(cell(1), [{"value": 1}], elapsed=0.0)
        stats = store.stats()
        assert stats["entries"] == 2 and stats["evicted"] == 0
        assert stats["total_bytes"] == 2 * entry_size
        store.close()

    def test_out_of_band_deletions_do_not_evict_spuriously(self, tmp_path):
        # the bound check counts the table itself, so rows deleted behind
        # the store's back free their room instead of leaving it overcounted
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=4)
        for value in range(3):
            store.put(cell(value), [{"value": value}], elapsed=0.0)
        other = sqlite3.connect(store.path)
        with other:
            other.execute(
                "DELETE FROM cells WHERE config_hash IN (?, ?)",
                (cell(0).config_hash, cell(1).config_hash),
            )
        other.close()
        for value in range(3, 5):
            store.put(cell(value), [{"value": value}], elapsed=0.0)
        assert len(store) == 3
        assert store.stats()["evicted"] == 0
        store.close()

    def test_stats_report_the_bounds(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=10, max_bytes=10**6)
        for value in range(2):
            store.put(cell(value), [{"value": value}], elapsed=0.0)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["max_entries"] == 10
        assert stats["max_bytes"] == 10**6
        assert stats["evicted"] == 0
        assert stats["directory"] == str(tmp_path)
        assert stats["path"] == str(tmp_path / "cells.sqlite")
        store.close()

    def test_run_grid_with_bounded_store(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=2)
        result = run_grid([cell(v) for v in range(4)], cache=store)
        assert len(result.rows) == 4
        assert len(store) <= 2
        store.close()

    def test_eviction_failure_degrades_to_warning(self, tmp_path, monkeypatch):
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=1)
        store.put(cell(0), [{"value": 0}], elapsed=0.0)
        write = store._retry_write

        def failing_eviction(action, fn):
            if action == "eviction":
                raise sqlite3.OperationalError("disk I/O error")
            return write(action, fn)

        monkeypatch.setattr(store, "_retry_write", failing_eviction)
        with pytest.warns(RuntimeWarning, match="cell store eviction failed"):
            assert store.put(cell(1), [{"value": 1}], elapsed=0.0) is not None
        # both entries are still present (eviction failed), but the run went on
        assert len(store) == 2
        store.close()


class TestMigrations:
    def test_fresh_database_lands_at_current_version(self, store):
        assert store.schema_version() == CELLSTORE_SCHEMA_VERSION == len(_MIGRATIONS)

    def test_old_database_upgrades_in_place(self, tmp_path):
        # hand-build a version-1 database (tables, no indexes), then reopen
        path = tmp_path / "cells.sqlite"
        conn = sqlite3.connect(path)
        for statement in _statements(_MIGRATIONS[0]):
            conn.execute(statement)
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        store = SQLiteCellStore(path)
        assert store.schema_version() == CELLSTORE_SCHEMA_VERSION
        indexes = {
            row[0]
            for row in store._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        }
        assert "idx_cells_last_used" in indexes
        store.close()

    def test_newer_database_is_refused(self, tmp_path):
        path = tmp_path / "cells.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {CELLSTORE_SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(InvalidParameterError, match="newer"):
            SQLiteCellStore(path)

    def test_reopening_is_idempotent(self, tmp_path):
        first = SQLiteCellStore.for_directory(tmp_path)
        first.put(cell(1), [{"value": 1}], elapsed=0.0)
        first.close()
        second = SQLiteCellStore.for_directory(tmp_path)
        assert second.lookup([cell(1)])[0] == [{"value": 1}]
        assert second.schema_version() == CELLSTORE_SCHEMA_VERSION
        second.close()


class TestShardJournal:
    def entry(self, value: int) -> dict:
        return {"config_hash": f"hash-{value}", "rows": [{"value": value}]}

    def test_append_and_query(self, store):
        for value in range(4):
            assert store.journal_append("plan-a", value % 2, self.entry(value))
        recovered = store.journal_entries("plan-a")
        assert set(recovered) == {f"hash-{v}" for v in range(4)}
        assert store.journal_entries("plan-b") == {}

    def test_append_is_idempotent_per_cell(self, store):
        store.journal_append("plan-a", 0, self.entry(1))
        store.journal_append("plan-a", 1, {"config_hash": "hash-1", "rows": [{"value": 9}]})
        recovered = store.journal_entries("plan-a")
        assert len(recovered) == 1
        assert recovered["hash-1"]["rows"] == [{"value": 9}]  # the upsert won

    def test_clear_one_shard_keeps_the_others(self, store):
        store.journal_append("plan-a", 0, self.entry(0))
        store.journal_append("plan-a", 1, self.entry(1))
        assert store.journal_clear("plan-a", shard_index=0) == 1
        assert set(store.journal_entries("plan-a")) == {"hash-1"}
        assert store.journal_clear("plan-a") == 1
        assert store.journal_entries("plan-a") == {}

    def test_undecodable_entry_rows_are_skipped(self, store):
        store.journal_append("plan-a", 0, self.entry(0))
        store._conn.execute("UPDATE shard_journal SET entry = '{torn'")
        store._conn.commit()
        assert store.journal_entries("plan-a") == {}


class TestRunsLedger:
    def test_record_and_read_back_newest_first(self, store):
        first = store.record_run("run_grid", figure="fig2", summary={"cells": 3})
        second = store.record_run("run_shard", figure="fig2", summary={"cells": 1})
        ledger = store.runs_ledger()
        assert [entry["run_id"] for entry in ledger] == [second, first]
        assert ledger[1]["kind"] == "run_grid"
        assert ledger[1]["summary"] == {"cells": 3}
        assert ledger[1]["finished_at"] >= ledger[1]["started_at"]

    def test_filter_and_limit(self, store):
        for index in range(5):
            store.record_run("run_shard", summary={"i": index})
        store.record_run("merge_shards", summary={})
        assert len(store.runs_ledger(limit=2)) == 2
        kinds = {entry["kind"] for entry in store.runs_ledger(kind="run_shard")}
        assert kinds == {"run_shard"}


class TestDegradation:
    def test_failures_degrade_to_one_warning_per_category(self, tmp_path):
        # each distinct (action, errno) failure category warns exactly once;
        # repeats of an already-warned category stay silent
        store = SQLiteCellStore.for_directory(tmp_path)
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        store.close()  # every later query raises sqlite3.ProgrammingError
        with pytest.warns(RuntimeWarning, match="cell store read failed"):
            assert store.lookup([cell(1)])[0] is None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # new categories each warn once...
            assert store.put(cell(2), [{"value": 2}], elapsed=0.0) is None
            assert store.journal_append("plan", 0, {"config_hash": "h"}) is False
            assert store.journal_entries("plan") == {}
            assert store.record_run("run_grid") is None
            assert store.runs_ledger() == []
            assert store.stats()["entries"] == 0
        actions = [str(w.message) for w in caught]
        assert len(actions) == 6  # write, journal append/read, ledger append/read, stats
        assert [a for a in actions if "write failed" in a]
        assert [a for a in actions if "journal append failed" in a]
        # ...then every repeat degrades silently
        with warnings.catch_warnings(record=True) as repeat:
            warnings.simplefilter("always")
            assert store.lookup([cell(1)])[0] is None
            assert store.put(cell(3), [{"value": 3}], elapsed=0.0) is None
            assert store.journal_entries("plan") == {}
            assert store.runs_ledger() == []
            assert len(store) == 0
            assert store.stats()["entries"] == 0
        assert repeat == []

    def test_run_grid_completes_with_failing_store(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path)
        store.close()
        cells = [cell(v) for v in range(3)]
        with pytest.warns(RuntimeWarning, match="cell store"):
            result = run_grid(cells, cache=store)
        assert result.computed == 3
        assert [row["value"] for row in result.rows] == [0, 1, 2]


class TestWriteContention:
    """Two writers on one database: bounded retry, then warned miss."""

    @staticmethod
    def _tiny_policy(max_retries: int = 2) -> RetryPolicy:
        return RetryPolicy(
            max_retries=max_retries, base_delay=0.001, max_delay=0.002, jitter=0.0
        )

    def test_locked_db_degrades_to_warned_miss_not_exception(self, tmp_path):
        path = tmp_path / "cells.sqlite"
        store = SQLiteCellStore(
            path, busy_timeout_ms=5, retry_policy=self._tiny_policy()
        )
        blocker = sqlite3.connect(path)
        try:
            blocker.execute("BEGIN IMMEDIATE")  # hold the write lock
            with pytest.warns(RuntimeWarning, match="cell store write failed"):
                assert store.put(cell(1), [{"value": 1}], elapsed=0.0) is None
        finally:
            blocker.rollback()
            blocker.close()
        # once the co-writer is gone the same store writes normally again
        assert store.put(cell(1), [{"value": 1}], elapsed=0.0) == path
        assert store.lookup([cell(1)])[0] == [{"value": 1}]
        store.close()

    def test_retry_outlasts_a_transient_lock(self, tmp_path):
        path = tmp_path / "cells.sqlite"
        store = SQLiteCellStore(
            path,
            busy_timeout_ms=50,
            retry_policy=RetryPolicy(
                max_retries=40, base_delay=0.05, max_delay=0.05, jitter=0.0
            ),
        )
        blocker = sqlite3.connect(path, check_same_thread=False)
        blocker.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.2, lambda: (blocker.rollback(), blocker.close()))
        release.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert store.put(cell(7), [{"value": 7}], elapsed=0.0) == path
            assert caught == []
        finally:
            release.join()
            store.close()

    def test_run_grid_completes_when_writes_fail(self, tmp_path):
        path = tmp_path / "cells.sqlite"
        store = SQLiteCellStore(path, busy_timeout_ms=5, retry_policy=self._tiny_policy())
        blocker = sqlite3.connect(path)
        try:
            blocker.execute("BEGIN IMMEDIATE")  # every put finds the DB locked
            with pytest.warns(RuntimeWarning, match="cell store write failed"):
                result = run_grid([cell(v) for v in range(3)], cache=store)
        finally:
            blocker.rollback()
            blocker.close()
        assert result.computed == 3
        assert [row["value"] for row in result.rows] == [0, 1, 2]
        assert len(store) == 0
        store.close()

    def test_two_writers_share_one_journal(self, tmp_path):
        path = tmp_path / "cells.sqlite"
        first = SQLiteCellStore(path)
        second = SQLiteCellStore(path)
        try:
            for index in range(4):
                writer = first if index % 2 == 0 else second
                assert writer.journal_append(
                    "plan", index % 2, {"config_hash": f"h{index}", "value": index}
                )
            assert set(first.journal_entries("plan")) == {"h0", "h1", "h2", "h3"}
            assert second.journal_entries("plan") == first.journal_entries("plan")
        finally:
            first.close()
            second.close()

    def test_non_lock_errors_are_not_retried(self, tmp_path):
        store = SQLiteCellStore(
            tmp_path / "cells.sqlite", retry_policy=self._tiny_policy(max_retries=50)
        )
        attempts = []

        def broken():
            attempts.append(1)
            raise sqlite3.OperationalError("no such table: nowhere")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            store._retry_write("write", broken)
        assert len(attempts) == 1  # retrying cannot fix a schema error
        store.close()
