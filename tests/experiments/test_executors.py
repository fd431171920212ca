"""Executor-parity test suite (ISSUE 4, tentpole + satellite 1).

For scaled-down Fig. 2 and Fig. 5 plans, the three executors — serial,
process pool and sharded (including shards executed as *separate*
invocations and merged in shuffled order) — must produce byte-identical
rows; and resuming a half-completed sharded run must recompute only the
missing cells.
"""

import json
import random

import pytest

from repro.exceptions import GridExecutionError, InvalidParameterError, ShardMergeError
from repro.experiments.grid import (
    CellStore,
    Executor,
    GridCell,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadedExecutor,
    cell_runner,
    resolve_executor,
    run_grid,
)
from repro.experiments.reident_smp import plan_reidentification_smp
from repro.experiments.sharding import (
    SHARD_DB_NAME,
    ShardedExecutor,
    journal_artifacts,
    merge_artifacts,
    plan_fingerprint,
    run_shard,
    shard_positions,
    workspace_store,
    write_plan,
)
from repro.experiments.utility_rsrfd import plan_utility_rsrfd


def _canonical(rows: list[dict]) -> bytes:
    """Byte-level encoding of the rows (order-sensitive, full precision)."""
    return json.dumps(rows, sort_keys=True).encode("utf-8")


@cell_runner("_test_exec_echo")
def _exec_echo_cell(params, rng):
    return [{"value": params.get("value", 0), "draw": int(rng.integers(0, 10**9))}]


@cell_runner("_test_exec_boom")
def _exec_boom_cell(params, rng):
    raise RuntimeError("cell exploded")


@cell_runner("_test_exec_flaky")
def _exec_flaky_cell(params, rng):
    import os

    if not os.path.exists(params["marker"]):
        raise RuntimeError("flaky cell failed")
    return [{"value": "recovered"}]


def _echo_cells(count: int) -> list[GridCell]:
    return [
        GridCell(figure="f", runner="_test_exec_echo", params={"value": v}, master_seed=3)
        for v in range(count)
    ]


@pytest.fixture(scope="module")
def fig2_cells():
    """A scaled-down Fig. 2 grid (SMP re-identification on Adult)."""
    return plan_reidentification_smp(
        dataset_name="adult",
        n=250,
        protocols=("GRR", "OUE"),
        epsilons=(1.0, 8.0),
        num_surveys=3,
        top_ks=(1, 10),
        seed=123,
        figure="fig2",
    )


@pytest.fixture(scope="module")
def fig5_cells():
    """A scaled-down Fig. 5 grid (RS+RFD vs RS+FD utility on ACS)."""
    return plan_utility_rsrfd(
        dataset_name="acs_employment",
        n=300,
        protocols=("GRR", "OUE-r"),
        epsilons=(0.7, 1.9),
        prior_kinds=("correct",),
        seed=123,
        figure="fig5",
    )


@pytest.fixture(scope="module")
def fig2_serial_rows(fig2_cells):
    return run_grid(fig2_cells, executor=SerialExecutor()).rows


@pytest.fixture(scope="module")
def fig5_serial_rows(fig5_cells):
    return run_grid(fig5_cells, executor=SerialExecutor()).rows


class TestExecutorParity:
    def test_fig2_pool_matches_serial(self, fig2_cells, fig2_serial_rows):
        pool = run_grid(fig2_cells, executor=ProcessPoolExecutor(workers=4))
        assert _canonical(pool.rows) == _canonical(fig2_serial_rows)
        assert pool.rows  # non-degenerate

    def test_fig5_pool_matches_serial(self, fig5_cells, fig5_serial_rows):
        pool = run_grid(fig5_cells, executor=ProcessPoolExecutor(workers=4))
        assert _canonical(pool.rows) == _canonical(fig5_serial_rows)

    def test_fig2_threaded_matches_serial(self, fig2_cells, fig2_serial_rows):
        threaded = run_grid(fig2_cells, executor=ThreadedExecutor(workers=4))
        assert _canonical(threaded.rows) == _canonical(fig2_serial_rows)
        assert threaded.rows  # non-degenerate

    def test_fig5_threaded_matches_serial(self, fig5_cells, fig5_serial_rows):
        threaded = run_grid(fig5_cells, executor=ThreadedExecutor(workers=4))
        assert _canonical(threaded.rows) == _canonical(fig5_serial_rows)

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_fig2_sharded_invocations_merge_shuffled(
        self, fig2_cells, fig2_serial_rows, shards, tmp_path
    ):
        # each shard in its own invocation (the shard_worker code path) ...
        for shard_index in range(shards):
            run_shard(fig2_cells, shards, shard_index, tmp_path)
        artifacts = journal_artifacts(tmp_path, plan_fingerprint(fig2_cells), shards)
        assert len(artifacts) == shards
        # ... merged in shuffled order
        random.Random(shards).shuffle(artifacts)
        merged = merge_artifacts(fig2_cells, artifacts)
        assert _canonical(merged.rows) == _canonical(fig2_serial_rows)

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_fig5_sharded_invocations_merge_shuffled(
        self, fig5_cells, fig5_serial_rows, shards, tmp_path
    ):
        for shard_index in range(shards):
            run_shard(fig5_cells, shards, shard_index, tmp_path)
        artifacts = journal_artifacts(tmp_path, plan_fingerprint(fig5_cells), shards)
        random.Random(shards).shuffle(artifacts)
        merged = merge_artifacts(fig5_cells, artifacts)
        assert _canonical(merged.rows) == _canonical(fig5_serial_rows)

    def test_fig2_inline_sharded_executor(self, fig2_cells, fig2_serial_rows):
        sharded = run_grid(fig2_cells, executor=ShardedExecutor(2, launch="inline"))
        assert _canonical(sharded.rows) == _canonical(fig2_serial_rows)
        assert sharded.computed == len(fig2_cells)

    def test_fig2_subprocess_sharded_executor(self, fig2_cells, fig2_serial_rows):
        """The real thing: one shard_worker subprocess per shard."""
        sharded = run_grid(fig2_cells, executor=ShardedExecutor(2, launch="subprocess"))
        assert _canonical(sharded.rows) == _canonical(fig2_serial_rows)


class TestResume:
    def test_rerun_resumes_every_completed_cell(self, fig2_cells, tmp_path):
        first = run_shard(fig2_cells, 2, 0, tmp_path)
        assert first.computed == first.cells and first.resumed == 0
        again = run_shard(fig2_cells, 2, 0, tmp_path)
        assert again.computed == 0
        assert again.resumed == first.cells

    def test_half_completed_run_recomputes_only_missing_cells(
        self, fig2_cells, fig2_serial_rows, tmp_path
    ):
        run_shard(fig2_cells, 2, 0, tmp_path)
        # simulate an interruption: drop one completed cell from the journal
        fingerprint = plan_fingerprint(fig2_cells)
        with workspace_store(tmp_path) as store:
            dropped = next(iter(store.journal_entries(fingerprint)))
            store._conn.execute(
                "DELETE FROM shard_journal WHERE config_hash = ?", (dropped,)
            )
            store._conn.commit()
        resumed = run_shard(fig2_cells, 2, 0, tmp_path)
        assert resumed.computed == 1  # only the dropped cell
        assert resumed.resumed == resumed.cells - 1
        # the finished run still merges byte-identically
        run_shard(fig2_cells, 2, 1, tmp_path)
        merged = merge_artifacts(fig2_cells, journal_artifacts(tmp_path, fingerprint, 2))
        assert _canonical(merged.rows) == _canonical(fig2_serial_rows)
        with workspace_store(tmp_path) as store:
            assert dropped in store.journal_entries(fingerprint)

    def test_bounded_cache_keeps_the_workspace(self, tmp_path):
        """A bounded cache may evict merged cells, so the per-plan workspace
        must survive as the resume state."""
        cells = _echo_cells(4)
        root = tmp_path / "shards"
        run_grid(
            cells,
            executor=ShardedExecutor(
                2,
                launch="inline",
                directory=root,
                cache_dir=tmp_path / "cache",
                cache_max_entries=1,
            ),
        )
        assert list(root.iterdir())  # workspace kept
        warm = run_grid(
            cells,
            executor=ShardedExecutor(2, launch="inline", directory=root),
        )
        assert warm.resumed == 4

    def test_resumed_sharded_executor_reports_resumed_cells(self, tmp_path):
        cells = _echo_cells(5)
        executor = ShardedExecutor(2, directory=tmp_path, launch="inline")
        cold = run_grid(cells, executor=executor)
        assert cold.computed == 5 and cold.resumed == 0
        warm = run_grid(cells, executor=ShardedExecutor(2, directory=tmp_path, launch="inline"))
        assert warm.resumed == 5 and warm.computed == 0
        assert _canonical(warm.rows) == _canonical(cold.rows)

    def test_shard_workers_share_the_cell_cache(self, tmp_path):
        """cache_dir hands every shard worker the shared cell store, so a
        later non-sharded run is served from cache."""
        cells = _echo_cells(5)
        cache_dir = tmp_path / "cache"
        run_grid(
            cells,
            executor=ShardedExecutor(2, launch="inline", cache_dir=cache_dir),
        )
        warm = run_grid(cells, cache=cache_dir)
        assert warm.from_cache == 5 and warm.computed == 0

    def test_warm_cache_hits_reported_as_from_cache_in_sharded_summary(self, tmp_path):
        """Worker-side cache hits must surface as from_cache, not computed."""
        cells = _echo_cells(4)
        cache_dir = tmp_path / "cache"
        run_grid(cells, cache=cache_dir)  # warm every cell
        warm = run_grid(
            cells,
            executor=ShardedExecutor(
                2, launch="inline", directory=tmp_path / "shards", cache_dir=cache_dir
            ),
        )
        assert warm.from_cache == 4
        assert warm.computed == 0

    def test_successful_cached_run_prunes_its_workspace(self, tmp_path):
        """With a shared cache holding the results, the per-plan workspace
        is redundant and gets pruned; without one it is kept for resume."""
        cells = _echo_cells(3)
        root, cache_dir = tmp_path / "shards", tmp_path / "cache"
        run_grid(
            cells,
            executor=ShardedExecutor(
                2, launch="inline", directory=root, cache_dir=cache_dir
            ),
        )
        assert list(root.iterdir()) == []  # workspace pruned
        warm = run_grid(cells, cache=cache_dir)
        assert warm.from_cache == 3  # the cache took over the resume role

    def test_parent_and_workers_sharing_one_cache_is_coherent(self, tmp_path):
        """The CLI wiring: run_grid and the shard workers use the same cache
        directory, both writing through to one database."""
        cells = _echo_cells(5)
        cache_dir = tmp_path / "cache"
        cold = run_grid(
            cells,
            cache=cache_dir,
            executor=ShardedExecutor(2, launch="inline", cache_dir=cache_dir),
        )
        assert cold.computed == 5
        warm = run_grid(cells, cache=cache_dir)
        assert warm.from_cache == 5 and warm.computed == 0
        assert _canonical(warm.rows) == _canonical(cold.rows)

    def test_interrupted_sharded_run_keeps_completed_work_in_the_cache(self, tmp_path):
        """Shard 1 fails, but shard 0's cells survive via the shared cache."""
        cells = _echo_cells(4) + [
            GridCell(figure="f", runner="_test_exec_boom", params={}, master_seed=3)
        ]
        cache_dir = tmp_path / "cache"
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_grid(
                cells,
                executor=ShardedExecutor(
                    2, launch="inline", directory=tmp_path / "shards", cache_dir=cache_dir
                ),
            )
        retry = run_grid(_echo_cells(4), cache=cache_dir)
        assert retry.from_cache > 0
        assert retry.from_cache + retry.computed == 4

    def test_persistent_directory_serves_many_plans(self, tmp_path):
        """One shard root can host different grids (benchmark sweeps): each
        plan gets its own fingerprint-named workspace instead of colliding."""
        first = run_grid(_echo_cells(4), executor=ShardedExecutor(2, directory=tmp_path, launch="inline"))
        second = run_grid(_echo_cells(6), executor=ShardedExecutor(2, directory=tmp_path, launch="inline"))
        assert first.computed == 4 and second.computed == 6
        # re-running the first plan resumes from its own workspace
        again = run_grid(_echo_cells(4), executor=ShardedExecutor(2, directory=tmp_path, launch="inline"))
        assert again.resumed == 4
        assert _canonical(again.rows) == _canonical(first.rows)

    def test_changed_pending_subset_does_not_collide(self, tmp_path):
        """Cache hits shrink the executor's pending set; the smaller plan
        must start a fresh workspace, not clash with the full-plan one."""
        cells = _echo_cells(6)
        executor = lambda: ShardedExecutor(2, directory=tmp_path / "shards", launch="inline")
        run_grid(cells, executor=executor())
        cache = tmp_path / "cache"
        run_grid(cells[:2], cache=cache)  # warm the cache for two cells
        warm = run_grid(cells, cache=cache, executor=executor())
        assert warm.from_cache == 2 and warm.computed == 4
        assert _canonical(warm.rows) == _canonical(run_grid(cells).rows)

    def test_plan_file_of_other_plan_rejected(self, tmp_path):
        write_plan(tmp_path, _echo_cells(4), shards=2)
        write_plan(tmp_path, _echo_cells(4), shards=2)  # idempotent
        with pytest.raises(InvalidParameterError, match="different plan"):
            write_plan(tmp_path, _echo_cells(5), shards=2)


class TestSqliteBackend:
    """run_shard / ShardedExecutor on the workspace journal: one WAL-mode
    database holds every shard's completed cells, and resume state is a
    journal query."""

    def test_shards_journal_into_one_database(self, tmp_path):
        cells = _echo_cells(5)
        for shard_index in range(2):
            result = run_shard(cells, 2, shard_index, tmp_path)
            assert result.path == tmp_path / SHARD_DB_NAME
        artifacts = journal_artifacts(tmp_path, plan_fingerprint(cells), 2)
        merged = merge_artifacts(cells, artifacts, expected_shards=2)
        assert _canonical(merged.rows) == _canonical(run_grid(cells).rows)

    def test_rerun_resumes_from_the_journal(self, tmp_path):
        cells = _echo_cells(5)
        first = run_shard(cells, 2, 0, tmp_path)
        assert first.computed == first.cells and first.resumed == 0
        again = run_shard(cells, 2, 0, tmp_path)
        assert again.computed == 0
        assert again.resumed == first.cells

    def test_killed_invocation_keeps_journaled_cells(self, tmp_path):
        marker = tmp_path / "marker"
        cells = _echo_cells(3) + [
            GridCell(
                figure="f",
                runner="_test_exec_flaky",
                params={"marker": str(marker)},
                master_seed=3,
            )
        ]
        with pytest.raises(RuntimeError, match="flaky cell failed"):
            run_shard(cells, 1, 0, tmp_path)
        with workspace_store(tmp_path) as store:
            journaled = store.journal_entries(plan_fingerprint(cells))
        assert len(journaled) == 3  # the echo cells committed per completion
        marker.touch()
        second = run_shard(cells, 1, 0, tmp_path)
        assert second.resumed == 3
        assert second.computed == 1

    def test_no_resume_clears_only_this_shards_rows(self, tmp_path):
        cells = _echo_cells(6)
        run_shard(cells, 2, 0, tmp_path)
        run_shard(cells, 2, 1, tmp_path)
        forced = run_shard(cells, 2, 0, tmp_path, resume=False)
        assert forced.computed == forced.cells and forced.resumed == 0
        # shard 1's journal rows survived the forced recompute of shard 0
        other = run_shard(cells, 2, 1, tmp_path)
        assert other.resumed == other.cells

    def test_two_plans_share_one_workspace_journal(self, tmp_path):
        """Journal rows are keyed by plan fingerprint: a second plan in the
        same directory neither resumes nor disturbs the first one's cells,
        even where the two plans share cells."""
        small, large = _echo_cells(4), _echo_cells(5)  # large extends small
        run_shard(small, 2, 0, tmp_path)
        other = run_shard(large, 2, 0, tmp_path)
        assert other.computed == other.cells and other.resumed == 0
        for cells in (small, large):
            run_shard(cells, 2, 1, tmp_path)
            artifacts = journal_artifacts(tmp_path, plan_fingerprint(cells), 2)
            assert sum(len(a["entries"]) for a in artifacts) == len(cells)
            merged = merge_artifacts(cells, artifacts, expected_shards=2)
            assert _canonical(merged.rows) == _canonical(run_grid(cells).rows)

    def test_undecodable_journal_row_is_recomputed(self, tmp_path):
        cells = _echo_cells(4)
        run_shard(cells, 1, 0, tmp_path)
        with workspace_store(tmp_path) as store:
            store._conn.execute(
                "UPDATE shard_journal SET entry = '{torn' WHERE config_hash = ?",
                (cells[2].config_hash,),
            )
            store._conn.commit()
        resumed = run_shard(cells, 1, 0, tmp_path)
        assert resumed.resumed == 3 and resumed.computed == 1
        merged = merge_artifacts(
            cells, journal_artifacts(tmp_path, plan_fingerprint(cells), 1)
        )
        assert _canonical(merged.rows) == _canonical(run_grid(cells).rows)

    def test_resumed_entries_keep_the_original_rows(self, tmp_path):
        cells = _echo_cells(4)
        run_shard(cells, 1, 0, tmp_path)
        fingerprint = plan_fingerprint(cells)
        with workspace_store(tmp_path) as store:
            original = store.journal_entries(fingerprint)
        resumed = run_shard(cells, 1, 0, tmp_path)
        assert resumed.resumed == 4 and resumed.computed == 0
        with workspace_store(tmp_path) as store:
            restored = store.journal_entries(fingerprint)
        assert set(restored) == set(original)
        for config_hash, entry in restored.items():
            assert entry["source"] == "resumed"
            assert entry["rows"] == original[config_hash]["rows"]
        merged = merge_artifacts(cells, journal_artifacts(tmp_path, fingerprint, 1))
        assert merged.summary()["resumed"] == 4

    def test_inline_sharded_executor_sqlite(self, tmp_path):
        cells = _echo_cells(5)
        result = run_grid(
            cells,
            executor=ShardedExecutor(
                2,
                launch="inline",
                directory=tmp_path / "shards",
                cache_dir=tmp_path / "cache",
            ),
        )
        assert _canonical(result.rows) == _canonical(run_grid(cells).rows)
        # the shared cell store serves a later non-sharded run
        warm = run_grid(cells, cache=CellStore.from_options(tmp_path / "cache"))
        assert warm.from_cache == 5 and warm.computed == 0


class TestCachedParity:
    """The cell store is an implementation detail: the fig2-quick rows are
    byte-identical for serial, pool-4 and 2-shard execution, cold and
    warm."""

    def test_fig2_serial_cold_and_warm(self, fig2_cells, fig2_serial_rows, tmp_path):
        cache = CellStore.from_options(tmp_path / "cache")
        cold = run_grid(fig2_cells, executor=SerialExecutor(), cache=cache)
        warm = run_grid(fig2_cells, executor=SerialExecutor(), cache=cache)
        assert warm.from_cache == len(fig2_cells)
        assert _canonical(cold.rows) == _canonical(fig2_serial_rows)
        assert _canonical(warm.rows) == _canonical(fig2_serial_rows)

    def test_fig2_pool4(self, fig2_cells, fig2_serial_rows, tmp_path):
        cache = CellStore.from_options(tmp_path / "cache")
        pool = run_grid(
            fig2_cells, executor=ProcessPoolExecutor(workers=4), cache=cache
        )
        assert _canonical(pool.rows) == _canonical(fig2_serial_rows)

    def test_fig2_two_shards(self, fig2_cells, fig2_serial_rows, tmp_path):
        sharded = run_grid(
            fig2_cells,
            executor=ShardedExecutor(2, launch="inline", directory=tmp_path / "shards"),
        )
        assert _canonical(sharded.rows) == _canonical(fig2_serial_rows)


def _no_pool(**kwargs):
    raise AssertionError("a pool was started although it cannot help")


@pytest.mark.parametrize("pool_executor", [ProcessPoolExecutor, ThreadedExecutor])
class TestPoolExecutor:
    """The process and thread executors share one pool-driving body."""

    @pytest.mark.parametrize(("workers", "n_tasks"), [(1, 3), (4, 1), (4, 0)])
    def test_no_pool_when_it_cannot_help(self, pool_executor, workers, n_tasks):
        executor = pool_executor(workers=workers)
        executor.pool_class = _no_pool
        recorded = {}
        tasks = list(enumerate(_echo_cells(n_tasks)))
        executor.execute(tasks, lambda index, rows, *_: recorded.update({index: rows}))
        serial = {}
        SerialExecutor().execute(tasks, lambda index, rows, *_: serial.update({index: rows}))
        assert recorded == serial and len(recorded) == n_tasks

    def test_pool_size_is_capped_by_the_task_count(self, pool_executor):
        executor = pool_executor(workers=8)
        sizes = []

        def sized_pool(max_workers):
            sizes.append(max_workers)
            return pool_executor.pool_class(max_workers=max_workers)

        executor.pool_class = sized_pool
        recorded = {}
        executor.execute(
            list(enumerate(_echo_cells(3))),
            lambda index, rows, elapsed, source: recorded.update({index: source}),
        )
        assert sizes == [3]
        assert recorded == {0: "computed", 1: "computed", 2: "computed"}

    def test_pool_records_every_survivor_before_raising(self, pool_executor):
        tasks = list(enumerate(_echo_cells(4))) + [
            (4, GridCell(figure="f", runner="_test_exec_boom", params={}, master_seed=3))
        ]
        recorded = []
        with pytest.raises(RuntimeError, match="cell exploded"):
            pool_executor(workers=2).execute(
                tasks, lambda index, *_: recorded.append(index)
            )
        assert sorted(recorded) == [0, 1, 2, 3]

    def test_summary_names_the_executor(self, pool_executor):
        result = run_grid(_echo_cells(3), executor=pool_executor(workers=2))
        assert result.summary()["executor"] == pool_executor.__name__
        assert result.summary()["workers"] == 2
        assert result.computed == 3


class TestExecutorSeam:
    def test_shard_positions_partition_the_plan(self):
        positions = [shard_positions(10, 3, index) for index in range(3)]
        assert sorted(p for chunk in positions for p in chunk) == list(range(10))

    def test_cached_cells_never_reach_the_executor(self, tmp_path):
        cells = _echo_cells(4)
        run_grid(cells, cache=tmp_path / "cache")

        class CountingExecutor(SerialExecutor):
            seen = 0

            def execute(self, tasks, record):
                CountingExecutor.seen += len(tasks)
                super().execute(tasks, record)

        warm = run_grid(cells, cache=tmp_path / "cache", executor=CountingExecutor())
        assert CountingExecutor.seen == 0
        assert warm.from_cache == 4

    def test_executor_dropping_cells_raises(self):
        class LossyExecutor(Executor):
            def execute(self, tasks, record):
                pass  # records nothing

        with pytest.raises(GridExecutionError, match="without results"):
            run_grid(_echo_cells(3), executor=LossyExecutor())

    def test_resolve_executor_choices(self):
        assert isinstance(resolve_executor(None, 1), SerialExecutor)
        pool = resolve_executor(None, 6)
        assert isinstance(pool, ProcessPoolExecutor) and pool.workers == 6
        explicit = SerialExecutor()
        assert resolve_executor(explicit, 8) is explicit

    def test_resolve_executor_rejects_non_executor(self):
        with pytest.raises(InvalidParameterError):
            run_grid([], executor="serial")

    def test_threaded_executor_keeps_draining_on_cell_failure(self, tmp_path):
        """Surviving cells are still recorded (cached) before the error."""
        cells = _echo_cells(4) + [
            GridCell(figure="f", runner="_test_exec_boom", params={}, master_seed=3)
        ]
        cache_dir = tmp_path / "cache"
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_grid(cells, executor=ThreadedExecutor(workers=3), cache=cache_dir)
        retry = run_grid(_echo_cells(4), cache=cache_dir)
        assert retry.from_cache == 4 and retry.computed == 0

    def test_threaded_executor_single_worker_falls_back_to_serial(self):
        result = run_grid(_echo_cells(3), executor=ThreadedExecutor(workers=1))
        assert _canonical(result.rows) == _canonical(
            run_grid(_echo_cells(3), executor=SerialExecutor()).rows
        )

    def test_invalid_executor_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            ProcessPoolExecutor(workers=0)
        with pytest.raises(InvalidParameterError):
            ThreadedExecutor(workers=0)
        with pytest.raises(InvalidParameterError):
            ShardedExecutor(0)
        with pytest.raises(InvalidParameterError):
            ShardedExecutor(2, launch="carrier-pigeon")
        with pytest.raises(InvalidParameterError):
            ShardedExecutor(2, workers=0)

    def test_summary_reports_executor_name(self):
        result = run_grid(_echo_cells(2), executor=SerialExecutor())
        assert result.summary()["executor"] == "SerialExecutor"
        assert result.summary()["resumed"] == 0
