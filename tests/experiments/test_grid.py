"""Unit tests for the experiment-grid engine."""

import pickle

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments import grid
from repro.experiments.grid import (
    CellStore,
    GridCell,
    canonical_json,
    cell_runner,
    execute_plan,
    get_cell_runner,
    registered_cell_runners,
    run_grid,
)

COUNTER_DIR_KEY = "_counter_dir"


@cell_runner("_test_echo")
def _echo_cell(params, rng):
    """Toy runner: one row echoing the params plus a derived random draw."""
    if params.get(COUNTER_DIR_KEY):
        # count physical executions via the filesystem (works across forks)
        import os
        import tempfile

        with tempfile.NamedTemporaryFile(
            dir=params[COUNTER_DIR_KEY], prefix="exec-", delete=False
        ) as handle:
            handle.write(b"1")
    return [{"value": params.get("value", 0), "draw": int(rng.integers(0, 10**9))}]


@cell_runner("_test_boom")
def _boom_cell(params, rng):
    raise RuntimeError("cell exploded")


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_tuples_and_numpy_scalars_normalize(self):
        assert canonical_json({"xs": (1, 2)}) == canonical_json({"xs": [1, 2]})
        assert canonical_json(np.float64(1.5)) == canonical_json(1.5)
        assert canonical_json(np.int32(3)) == canonical_json(3)

    def test_non_serializable_rejected(self):
        with pytest.raises(InvalidParameterError):
            canonical_json({"fn": lambda: None})


class TestGridCell:
    def test_config_hash_is_stable_under_param_ordering(self):
        a = GridCell(figure="f", runner="_test_echo", params={"x": 1, "y": 2})
        b = GridCell(figure="f", runner="_test_echo", params={"y": 2, "x": 1})
        assert a.config_hash == b.config_hash

    def test_config_hash_ignores_figure_label(self):
        a = GridCell(figure="fig2", runner="_test_echo", params={"x": 1})
        b = GridCell(figure="fig9", runner="_test_echo", params={"x": 1})
        assert a.config_hash == b.config_hash

    def test_config_hash_depends_on_params_and_seed(self):
        base = GridCell(figure="f", runner="_test_echo", params={"x": 1})
        other_params = GridCell(figure="f", runner="_test_echo", params={"x": 2})
        other_seed = GridCell(figure="f", runner="_test_echo", params={"x": 1}, master_seed=7)
        assert base.config_hash != other_params.config_hash
        assert base.config_hash != other_seed.config_hash

    def test_cell_rng_is_deterministic(self):
        cell = GridCell(figure="f", runner="_test_echo", params={"x": 1})
        a = cell.make_rng().integers(0, 10**9, size=4)
        b = cell.make_rng().integers(0, 10**9, size=4)
        np.testing.assert_array_equal(a, b)


class TestCellHashesAreComputedOnce:
    N_CELLS = 6

    def cells(self):
        return [
            GridCell(figure="f", runner="_test_echo", params={"value": v, "tag": [v, "x"]})
            for v in range(self.N_CELLS)
        ]

    @pytest.mark.parametrize("with_grid_info", [False, True])
    def test_warm_execute_plan_encodes_no_params(self, tmp_path, monkeypatch, with_grid_info):
        cells = self.cells()
        cold = execute_plan(cells, cache=tmp_path)  # fills the store, hashes every cell
        encoded = []
        real = grid.canonical_json
        monkeypatch.setattr(
            grid, "canonical_json", lambda value: encoded.append(value) or real(value)
        )
        info = {} if with_grid_info else None
        warm = execute_plan(cells, cache=tmp_path, grid_info=info)
        assert warm == cold
        if info is not None:
            assert info["from_cache"] == self.N_CELLS
            assert [t["config_hash"] for t in info["cell_timings"]] == [
                c.config_hash for c in cells
            ]
        assert encoded == []  # without the cache: 2 per cell, 3 with grid_info

    def test_key_and_hash_are_those_of_a_fresh_cell(self):
        cell = self.cells()[2]
        fresh = GridCell(**{name: getattr(cell, name) for name in ("figure", "runner", "params", "master_seed")})
        assert (cell.key, cell.config_hash) == (fresh.key, fresh.config_hash)
        assert cell.config_hash is cell.config_hash and cell.key is cell.key

    def test_hashed_cell_pickles_and_round_trips_through_payload(self):
        cell = self.cells()[3]
        key, config_hash = cell.key, cell.config_hash
        for copy in (pickle.loads(pickle.dumps(cell)), GridCell.from_payload(cell.payload())):
            assert copy == cell
            assert (copy.key, copy.config_hash) == (key, config_hash)


class TestRegistry:
    def test_builtin_runners_registered(self):
        names = registered_cell_runners()
        for name in (
            "analytical_acc",
            "reident_smp",
            "reident_rsfd",
            "attribute_inference_rsfd",
            "attribute_inference_rsrfd",
            "utility_rsrfd",
        ):
            assert name in names

    def test_unknown_runner_rejected(self):
        with pytest.raises(InvalidParameterError):
            get_cell_runner("no-such-runner")

    def test_run_grid_rejects_unknown_runner_before_executing(self):
        with pytest.raises(InvalidParameterError):
            run_grid([GridCell(figure="f", runner="no-such-runner")])


class TestRunGrid:
    def test_rows_follow_cell_order(self):
        cells = [
            GridCell(figure="f", runner="_test_echo", params={"value": v})
            for v in (3, 1, 2)
        ]
        result = run_grid(cells)
        assert [row["value"] for row in result.rows] == [3, 1, 2]
        assert result.n_cells == 3
        assert result.computed == 3

    def test_workers_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            run_grid([], workers=0)

    def test_identical_cells_deduplicated_within_a_run(self, tmp_path):
        counter = tmp_path / "execs"
        counter.mkdir()
        params = {"value": 5, COUNTER_DIR_KEY: str(counter)}
        cells = [
            GridCell(figure="a", runner="_test_echo", params=params),
            GridCell(figure="b", runner="_test_echo", params=params),
        ]
        result = run_grid(cells)
        assert len(list(counter.iterdir())) == 1
        assert result.computed == 1
        assert result.deduplicated == 1
        assert result.rows[0] == result.rows[1]

    def test_failing_cell_propagates(self):
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_grid([GridCell(figure="f", runner="_test_boom")])

    def test_negative_master_seed_rejected_before_execution(self):
        cell = GridCell(figure="f", runner="_test_echo", params={}, master_seed=-5)
        with pytest.raises(InvalidParameterError, match="non-negative"):
            run_grid([cell])

    def test_completed_cells_are_cached_even_when_another_cell_fails(self, tmp_path):
        cache_dir = tmp_path / "cache"
        good = [
            GridCell(figure="f", runner="_test_echo", params={"value": v})
            for v in range(3)
        ]
        cells = good + [GridCell(figure="f", runner="_test_boom")]
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_grid(cells, workers=2, cache=cache_dir)
        # the surviving cells were persisted, so a retry only recomputes the rest
        retry = run_grid(good, workers=1, cache=cache_dir)
        assert retry.from_cache == 3
        assert retry.computed == 0

    def test_parallel_equals_sequential(self):
        cells = [
            GridCell(figure="f", runner="_test_echo", params={"value": v}, master_seed=9)
            for v in range(6)
        ]
        sequential = run_grid(cells, workers=1)
        parallel = run_grid(cells, workers=3)
        assert sequential.rows == parallel.rows


class TestCachedRunGrid:
    def test_run_grid_serves_second_run_from_cache(self, tmp_path):
        cells = [
            GridCell(figure="f", runner="_test_echo", params={"value": v})
            for v in range(3)
        ]
        cold = run_grid(cells, cache=tmp_path / "cache")
        assert cold.computed == 3 and cold.from_cache == 0
        warm = run_grid(cells, cache=tmp_path / "cache")
        assert warm.computed == 0 and warm.from_cache == 3
        assert warm.rows == cold.rows

    def test_invalid_cache_argument_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_grid([], cache=123)

    def test_from_options_builds_the_sqlite_store(self, tmp_path):
        from repro.experiments.cellstore import SQLiteCellStore

        assert CellStore.from_options(None) is None
        with CellStore.from_options(tmp_path / "s", max_entries=3) as store:
            assert isinstance(store, SQLiteCellStore)
            assert store.path == tmp_path / "s" / "cells.sqlite"
            assert store.max_entries == 3
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(InvalidParameterError, match="not usable"):
            CellStore.from_options(blocker / "cache")

    def test_one_lookup_per_run_and_one_put_per_computed_cell(self, tmp_path):
        from repro.experiments.cellstore import SQLiteCellStore

        class CountingStore(SQLiteCellStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.lookups: list[int] = []
                self.puts: list[str] = []

            def lookup(self, cells):
                self.lookups.append(len(cells))
                return super().lookup(cells)

            def put(self, cell, rows, elapsed):
                self.puts.append(cell.config_hash)
                return super().put(cell, rows, elapsed)

        cells = [
            GridCell(figure="f", runner="_test_echo", params={"value": v})
            for v in (0, 1, 2, 3, 1)
        ]
        with CountingStore.for_directory(tmp_path) as store:
            run_grid(cells[:1], cache=store)  # warm one cell
            store.lookups.clear()
            store.puts.clear()
            result = run_grid(cells, cache=store)
            assert store.lookups == [5]  # the whole plan, in one call
            assert result.from_cache == 1
            assert result.deduplicated == 1
            assert result.computed == 3
            assert sorted(store.puts) == sorted(c.config_hash for c in cells[1:4])

    def test_partially_warm_plan_computes_only_the_misses(self, tmp_path):
        cells = [
            GridCell(figure="f", runner="_test_echo", params={"value": v})
            for v in range(4)
        ]
        cold = run_grid(cells)
        run_grid([cells[1], cells[3]], cache=tmp_path)
        seen = []
        warm = run_grid(cells, cache=tmp_path, on_cell_complete=seen.append)
        assert [o.source for o in warm.outcomes] == ["computed", "cache", "computed", "cache"]
        assert warm.rows == cold.rows  # plan order, whatever the source
        # the completion hook observes computed cells only, never cache hits
        assert sorted(o.cell.params["value"] for o in seen) == [0, 2]
        assert {o.source for o in seen} == {"computed"}

    def test_duplicates_of_a_cached_cell_are_all_served(self, tmp_path):
        a = GridCell(figure="a", runner="_test_echo", params={"value": 1})
        b = GridCell(figure="b", runner="_test_echo", params={"value": 2})
        run_grid([a], cache=tmp_path)
        twin = GridCell(figure="twin", runner="_test_echo", params={"value": 1})
        result = run_grid([a, twin, b], cache=tmp_path)
        assert [o.source for o in result.outcomes] == ["cache", "cache", "computed"]
        assert result.rows[0] == result.rows[1]

    def test_summary_shape(self, tmp_path):
        cells = [GridCell(figure="f", runner="_test_echo", params={"value": 1})]
        result = run_grid(cells, cache=tmp_path)
        summary = result.summary()
        assert summary["cells"] == 1
        assert summary["computed"] == 1
        assert summary["cell_timings"][0]["runner"] == "_test_echo"
        assert summary["cell_timings"][0]["source"] == "computed"
