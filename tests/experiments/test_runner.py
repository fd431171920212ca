"""Tests for the experiment registry and CLI."""

import json

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.cellstore import SQLiteCellStore
from repro.experiments.grid import SerialExecutor
from repro.experiments.runner import (
    available_experiments,
    figure_spec,
    main,
    run_experiment,
)


def _stored(cache_dir) -> dict:
    """Occupancy of the cell store under ``cache_dir``."""
    with SQLiteCellStore.for_directory(cache_dir) as store:
        return store.stats()


class TestRegistry:
    def test_every_paper_figure_is_registered(self):
        expected = {f"fig{i}" for i in (1, 2, 3, 4, 5, 6)} | {
            f"fig{i}" for i in range(9, 18)
        }
        assert set(available_experiments()) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_experiment("fig99")

    def test_unknown_experiment_error_lists_valid_figures(self):
        """The error message must name every valid figure id."""
        with pytest.raises(InvalidParameterError) as excinfo:
            run_experiment("fig99")
        message = str(excinfo.value)
        assert "fig99" in message
        for figure in available_experiments():
            assert figure in message

    def test_fig1_runs_and_returns_rows(self):
        rows = run_experiment("fig1", quick=True)
        assert rows
        assert {"protocol", "epsilon", "expected_acc_pct"} <= set(rows[0])

    def test_fig1_parallel_matches_sequential(self):
        sequential = run_experiment("fig1", quick=True, workers=1)
        parallel = run_experiment("fig1", quick=True, workers=2)
        assert sequential == parallel

    def test_grid_info_reports_cells(self):
        info = {}
        run_experiment("fig1", quick=True, grid_info=info)
        assert info["cells"] == 10  # 2 metrics x 5 protocols
        assert info["computed"] == 10
        assert info["from_cache"] == 0
        assert info["executor"] == "SerialExecutor"

    def test_explicit_executor_matches_default(self):
        default = run_experiment("fig1", quick=True)
        explicit = run_experiment("fig1", quick=True, executor=SerialExecutor())
        assert default == explicit

    def test_figure_spec_plan_and_postprocess_compose(self):
        """run_experiment is exactly plan -> run_grid -> postprocess."""
        from repro.experiments.grid import run_grid

        spec = figure_spec("fig1", quick=True)
        cells = spec.plan(None)
        assert len(cells) == 10
        rows = spec.postprocess(run_grid(cells).rows)
        assert rows == run_experiment("fig1", quick=True)

    def test_figure_spec_rejects_unknown_figure(self):
        with pytest.raises(InvalidParameterError):
            figure_spec("fig99")


class TestCli:
    def test_main_prints_table(self, capsys):
        assert main(["fig1", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "protocol" in output
        assert "GRR" in output

    def test_main_rejects_unknown_figure_with_nonzero_exit(self, capsys):
        """An unknown figure exits non-zero and lists the valid ids on stderr."""
        assert main(["fig99", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err
        for figure in ("fig1", "fig2", "fig17"):
            assert figure in err

    def test_main_uses_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["fig1", "--cache-dir", str(cache_dir)]) == 0
        cold = capsys.readouterr().out
        with SQLiteCellStore.for_directory(cache_dir) as store:
            assert len(store) == 10
        # warm rerun is served entirely from the cache and prints the same table
        assert main(["fig1", "--cache-dir", str(cache_dir)]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_main_writes_artifact(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["fig1", "--no-cache", "--out", str(out_dir), "--workers", "2"]) == 0
        capsys.readouterr()
        figure_dir = out_dir / "fig1"
        rows = json.loads((figure_dir / "rows.json").read_text())
        meta = json.loads((figure_dir / "meta.json").read_text())
        assert rows and rows[0]["protocol"]
        assert meta["figure"] == "fig1"
        assert meta["grid"]["cells"] == 10
        assert meta["grid"]["workers"] == 2
        assert (figure_dir / "table.txt").read_text().startswith("figure")

    def test_main_rejects_quick_and_full_together(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig1", "--quick", "--full"])

    def test_main_rejects_cache_dir_that_is_a_file(self, tmp_path, capsys):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("")
        assert main(["fig1", "--cache-dir", str(not_a_dir)]) == 2
        assert "not usable" in capsys.readouterr().err


class TestCliCacheBounds:
    def test_cache_max_entries_caps_the_cache_dir_during_a_sweep(
        self, tmp_path, capsys
    ):
        """fig1 computes 10 cells; the bounded cache keeps at most 4 entries."""
        cache_dir = tmp_path / "cache"
        assert main(["fig1", "--cache-dir", str(cache_dir), "--cache-max-entries", "4"]) == 0
        capsys.readouterr()
        assert _stored(cache_dir)["entries"] <= 4

    def test_cache_max_bytes_caps_the_cache_dir_during_a_sweep(self, tmp_path, capsys):
        unbounded = tmp_path / "unbounded"
        assert main(["fig1", "--cache-dir", str(unbounded)]) == 0
        capsys.readouterr()
        budget = _stored(unbounded)["total_bytes"] // 3
        bounded = tmp_path / "bounded"
        assert main(["fig1", "--cache-dir", str(bounded), "--cache-max-bytes", str(budget)]) == 0
        capsys.readouterr()
        assert 0 < _stored(bounded)["total_bytes"] <= budget

    def test_cache_bounds_hold_under_sharded_execution(self, tmp_path, capsys):
        """Shard workers receive the bounds too, so --shards N cannot
        overflow a bounded cache."""
        cache_dir = tmp_path / "cache"
        code = main(
            ["fig1", "--cache-dir", str(cache_dir), "--cache-max-entries", "4",
             "--shards", "2", "--shard-dir", str(tmp_path / "shards")]
        )
        assert code == 0
        capsys.readouterr()
        assert _stored(cache_dir)["entries"] <= 4

    def test_invalid_bound_exits_2(self, tmp_path, capsys):
        # rejected by argparse before any run state is touched
        cache_dir = tmp_path / "cache"
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--cache-dir", str(cache_dir), "--cache-max-entries", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--cache-max-entries" in err
        assert "positive integer" in err


class TestCliArgumentValidation:
    """Bad numeric flags fail at parse time: exit 2, naming flag and value."""

    @pytest.mark.parametrize(
        ("flag", "value", "expected"),
        [
            ("--workers", "0", "positive integer"),
            ("--workers", "-2", "positive integer"),
            ("--shards", "0", "positive integer"),
            ("--shard-index", "-1", "non-negative integer"),
            ("--lease-timeout", "0", "positive number"),
            ("--cache-max-entries", "banana", "positive integer"),
            ("--show-runs", "-1", "positive integer"),
            ("--show-runs", "0", "positive integer"),
            ("--gc-max-age", "nan", "finite number"),
            ("--gc-max-age", "-1", "finite number"),
            ("--gc-max-age", "inf", "finite number"),
            ("--gc-max-age", "soon", "finite number"),
            ("--show-runs", "all", "positive integer"),
        ],
    )
    def test_invalid_values_exit_2_naming_the_flag(
        self, capsys, flag, value, expected
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert expected in err
        assert value in err

    def test_max_retries_rejects_negatives_but_allows_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--max-retries", "-1"])
        assert excinfo.value.code == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_bad_listen_address_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--remote-listen", "nonsense"])
        assert excinfo.value.code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_remote_conflicts_with_sharding(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--remote-workers", "2", "--shards", "2"])
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_remote_conflicts_with_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--remote-workers", "2", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--remote-workers" in capsys.readouterr().err

    def test_remote_tuning_flags_require_remote_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--lease-timeout", "5"])
        assert excinfo.value.code == 2
        assert "--remote-listen or --remote-workers" in capsys.readouterr().err


class TestCliKernelsAndExecutor:
    """--kernel-backend / --executor: parse-time validation and parity."""

    def test_unknown_kernel_backend_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--kernel-backend", "cuda"])
        assert excinfo.value.code == 2
        assert "--kernel-backend" in capsys.readouterr().err

    def test_numba_backend_without_numba_is_a_clear_error(self, capsys):
        from repro.kernels import numba_available

        if numba_available():
            pytest.skip("numba installed: the explicit request succeeds")
        assert main(["fig1", "--no-cache", "--kernel-backend", "numba"]) == 2
        assert "numba is not importable" in capsys.readouterr().err

    def test_bogus_backend_env_var_exits_2(self, capsys, monkeypatch):
        from repro.kernels import KERNEL_BACKEND_ENV

        monkeypatch.setenv(KERNEL_BACKEND_ENV, "bogus")
        assert main(["fig1", "--no-cache"]) == 2
        assert "unknown kernel backend" in capsys.readouterr().err

    def test_serial_executor_conflicts_with_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--executor", "serial", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--executor serial" in capsys.readouterr().err

    def test_executor_conflicts_with_sharding(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--executor", "thread", "--shards", "2"])
        assert excinfo.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_executor_conflicts_with_remote_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--executor", "thread", "--remote-workers", "2"])
        assert excinfo.value.code == 2
        assert "remote execution" in capsys.readouterr().err

    def test_threaded_cli_artifact_matches_serial(self, tmp_path, capsys):
        serial_out = tmp_path / "serial"
        assert main(
            ["fig1", "--no-cache", "--executor", "serial", "--out", str(serial_out)]
        ) == 0
        threaded_out = tmp_path / "threaded"
        assert main(
            ["fig1", "--no-cache", "--executor", "thread", "--workers", "3",
             "--kernel-backend", "auto", "--out", str(threaded_out)]
        ) == 0
        capsys.readouterr()
        assert (threaded_out / "fig1" / "rows.json").read_bytes() == (
            serial_out / "fig1" / "rows.json"
        ).read_bytes()
        meta = json.loads((threaded_out / "fig1" / "meta.json").read_text())
        assert meta["kernel_backend"] in ("numpy", "numba")
        assert meta["grid"]["executor"] == "ThreadedExecutor"


class TestCliRemote:
    def test_remote_workers_artifact_matches_serial(self, tmp_path, capsys):
        serial_out = tmp_path / "serial"
        assert main(["fig1", "--no-cache", "--out", str(serial_out)]) == 0
        capsys.readouterr()
        remote_out = tmp_path / "remote"
        event_log = tmp_path / "events.jsonl"
        code = main(
            ["fig1", "--no-cache", "--remote-workers", "2",
             "--out", str(remote_out), "--remote-log", str(event_log)]
        )
        capsys.readouterr()
        assert code == 0
        assert (remote_out / "fig1" / "rows.json").read_bytes() == (
            serial_out / "fig1" / "rows.json"
        ).read_bytes()
        lines = [json.loads(line) for line in event_log.read_text().splitlines()]
        assert lines[-1]["event"] == "summary"
        assert {"worker_spawned", "lease_granted", "cell_completed"} <= {
            line["event"] for line in lines
        }


class TestCliCellStore:
    """The cell store's run ledger and the figure-less --show-runs command."""

    def test_sqlite_backend_records_run_ledger(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["fig1", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["--cache-dir", str(cache_dir), "--show-runs"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 1
        entry = lines[0]
        assert entry["kind"] == "run_grid"
        assert entry["figure"] == "fig1"
        assert entry["summary"]["cells"] == 10

    def test_sqlite_sharded_invocations_merge_identically(self, tmp_path, capsys):
        reference = tmp_path / "reference"
        assert main(["fig1", "--no-cache", "--out", str(reference)]) == 0
        capsys.readouterr()
        shard_dir = tmp_path / "shards"
        cache_dir = tmp_path / "cache"
        common = ["fig1", "--cache-dir", str(cache_dir), "--shards", "2",
                  "--shard-dir", str(shard_dir)]
        for index in ("0", "1"):
            assert main(common + ["--shard-index", index]) == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["artifact"].endswith("shards.sqlite")
        merged = tmp_path / "merged"
        assert main(common + ["--merge-shards", "--out", str(merged)]) == 0
        capsys.readouterr()
        assert (merged / "fig1" / "rows.json").read_bytes() == (
            reference / "fig1" / "rows.json"
        ).read_bytes()
        # the ledger saw both shard runs and the merge
        assert main(["--cache-dir", str(cache_dir), "--show-runs"]) == 0
        kinds = [json.loads(line)["kind"]
                 for line in capsys.readouterr().out.splitlines()]
        assert kinds.count("run_shard") == 2
        assert kinds.count("merge_shards") == 1

    def test_show_runs_limit(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        for _ in range(3):
            assert main(["fig1", "--cache-dir", str(cache_dir)]) == 0
            capsys.readouterr()
        assert main(["--cache-dir", str(cache_dir), "--show-runs", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_show_runs_one_prints_only_the_newest_entry(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        for figure in ("fig1", "fig1", "fig5"):
            argv = [figure, "--cache-dir", str(cache_dir)]
            assert main(argv + (["--quick"] if figure == "fig5" else [])) == 0
            capsys.readouterr()
        assert main(["--cache-dir", str(cache_dir), "--show-runs", "1"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [entry["figure"] for entry in lines] == ["fig5"]

    def test_figure_required_without_maintenance_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["--no-cache"])

    def test_maintenance_flags_reject_figure(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig1", "--show-runs"])

    def test_maintenance_flags_reject_no_cache(self, capsys):
        with pytest.raises(SystemExit):
            main(["--no-cache", "--show-runs"])

    def test_maintenance_flags_reject_sharding_flags(self, capsys):
        for extra in (["--merge-shards"], ["--shard-index", "0"],
                      ["--shard-dir", "workdir"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["--show-runs", *extra])
            assert excinfo.value.code == 2
            assert "sharding" in capsys.readouterr().err

    def test_maintenance_flags_reject_out(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--show-runs", "--out", str(tmp_path / "figs")])
        assert excinfo.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_no_cache_rejects_cache_bounds(self, capsys):
        for bound in (["--cache-max-entries", "4"],
                      ["--cache-max-bytes", "1024"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["fig1", "--no-cache", *bound])
            assert excinfo.value.code == 2
            assert "--no-cache" in capsys.readouterr().err

    def test_maintenance_on_unusable_cache_dir_exits_2(self, tmp_path, capsys):
        occupied = tmp_path / "occupied"
        occupied.write_text("")
        assert main(["--cache-dir", str(occupied), "--show-runs"]) == 2
        assert "error" in capsys.readouterr().err


class TestCliSharding:
    def _rows(self, out_dir, figure="fig1"):
        return (out_dir / figure / "rows.json").read_bytes()

    def test_shard_invocations_merge_into_identical_artifact(self, tmp_path, capsys):
        reference = tmp_path / "reference"
        assert main(["fig1", "--no-cache", "--out", str(reference)]) == 0
        capsys.readouterr()
        shard_dir = tmp_path / "shards"
        for index in ("0", "1"):
            code = main(
                ["fig1", "--no-cache", "--shards", "2", "--shard-index", index,
                 "--shard-dir", str(shard_dir)]
            )
            assert code == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["shards"] == 2
            assert summary["computed"] == summary["cells"]
        merged = tmp_path / "merged"
        code = main(
            ["fig1", "--no-cache", "--shards", "2", "--merge-shards",
             "--shard-dir", str(shard_dir), "--out", str(merged)]
        )
        assert code == 0
        capsys.readouterr()
        assert self._rows(merged) == self._rows(reference)
        meta = json.loads((merged / "fig1" / "meta.json").read_text())
        assert meta["grid"]["cells"] == 10
        assert meta["grid"]["missing"] == 0

    def test_shard_reinvocation_resumes(self, tmp_path, capsys):
        shard_dir = tmp_path / "shards"
        args = ["fig1", "--no-cache", "--shards", "2", "--shard-index", "0",
                "--shard-dir", str(shard_dir)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["computed"] == 0
        assert summary["resumed"] == summary["cells"]

    def test_single_invocation_sharded_executor(self, tmp_path, capsys):
        reference = tmp_path / "reference"
        assert main(["fig1", "--no-cache", "--out", str(reference)]) == 0
        capsys.readouterr()
        sharded = tmp_path / "sharded"
        assert main(["fig1", "--no-cache", "--shards", "2", "--shard-dir",
                     str(tmp_path / "parts"), "--out", str(sharded)]) == 0
        capsys.readouterr()
        assert self._rows(sharded) == self._rows(reference)

    def test_merge_with_missing_shard_exits_2_naming_cells(self, tmp_path, capsys):
        shard_dir = tmp_path / "shards"
        assert main(["fig1", "--no-cache", "--shards", "2", "--shard-index", "0",
                     "--shard-dir", str(shard_dir)]) == 0
        capsys.readouterr()
        assert main(["fig1", "--no-cache", "--shards", "2", "--merge-shards",
                     "--shard-dir", str(shard_dir)]) == 2
        err = capsys.readouterr().err
        assert "absent" in err
        assert "analytical_acc" in err

    def test_shard_index_requires_shards(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig1", "--shard-index", "0"])

    def test_shard_index_conflicts_with_merge(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig1", "--shards", "2", "--shard-index", "0", "--merge-shards"])

    def test_shard_index_rejects_out(self, capsys):
        """--out would be silently ignored on a single-shard invocation."""
        with pytest.raises(SystemExit):
            main(["fig1", "--shards", "2", "--shard-index", "0", "--out", "x"])

    def test_out_of_range_shard_index_exits_2(self, tmp_path, capsys):
        assert main(["fig1", "--no-cache", "--shards", "2", "--shard-index", "5",
                     "--shard-dir", str(tmp_path)]) == 2
        assert "shard_index" in capsys.readouterr().err


class TestCliService:
    """The figure-less --serve / --snapshot collection-service paths."""

    @pytest.mark.parametrize(
        "argv",
        (
            ["--serve", "127.0.0.1:0"],  # no --attribute
            ["--serve", "127.0.0.1:0", "--snapshot", "http://h:1"],
            ["fig1", "--serve", "127.0.0.1:0", "--attribute", "a:GRR:4:1.0"],
            ["--serve", "127.0.0.1:0", "--attribute", "a:GRR:4:1.0",
             "--shards", "2"],
            ["--serve", "127.0.0.1:0", "--attribute", "a:GRR:4:1.0",
             "--remote-workers", "1"],
            ["--serve", "127.0.0.1:0", "--attribute", "a:GRR:4:1.0",
             "--show-runs"],
            ["--serve", "127.0.0.1:0", "--attribute", "a:GRR:4:1.0",
             "--out", "x"],
            ["--window", "tumbling:5"],  # server knobs without --serve
            ["--attribute", "a:GRR:4:1.0"],
            ["--queue-size", "4"],
            ["--snapshot", "http://h:1", "--window", "tumbling:5"],
            ["--snapshot", "http://h:1", "--queue-size", "4"],
        ),
    )
    def test_service_flag_conflicts_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_serve_starts_registers_and_stops(self, capsys):
        from repro.experiments.runner import _service_main, build_parser
        from repro.service.client import CollectionClient

        args = build_parser().parse_args(
            ["--serve", "127.0.0.1:0",
             "--attribute", "age:GRR:8:1.0",
             "--attribute", "city:OUE:4:2.0",
             "--window", "sliding:60x4", "--queue-size", "8"]
        )
        probed = {}

        def probe():
            # runs while the service is live; the URL was printed already
            url = capsys.readouterr().out.strip().split()[-1]
            client = CollectionClient(url)
            probed.update(client.stats()["attributes"])

        assert _service_main(args, stop=probe) == 0
        assert sorted(probed) == ["age", "city"]
        assert probed["age"]["window"] == "sliding:60x4"

    def test_serve_rejects_bad_attribute_spec(self, capsys):
        from repro.experiments.runner import _service_main, build_parser

        args = build_parser().parse_args(
            ["--serve", "127.0.0.1:0", "--attribute", "nope"]
        )
        assert _service_main(args, stop=lambda: None) == 2
        assert "NAME:PROTOCOL:K:EPSILON" in capsys.readouterr().err

    def test_serve_on_a_taken_port_exits_2(self, capsys):
        import socket

        from repro.experiments.runner import _service_main, build_parser

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            args = build_parser().parse_args(
                ["--serve", f"127.0.0.1:{port}", "--attribute", "a:GRR:4:1.0"]
            )
            assert _service_main(args, stop=lambda: None) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "in use" in err
        assert len(err.splitlines()) == 1

    def test_snapshot_prints_estimates_as_json_lines(self, capsys):
        from repro.experiments.runner import _service_main, build_parser
        from repro.service.client import CollectionClient
        from repro.service.server import CollectionService

        service = CollectionService()
        service.start()
        try:
            client = CollectionClient(service.url)
            client.register_attribute("age", "GRR", k=4, epsilon=1.0)
            client.register_attribute("city", "GRR", k=4, epsilon=1.0)
            client.send_batch("age", "b0", [0, 1, 2, 3])
            client.flush()
            args = build_parser().parse_args(["--snapshot", service.url])
            assert _service_main(args) == 0
            lines = [json.loads(line) for line in
                     capsys.readouterr().out.strip().splitlines()]
            assert [line["attribute"] for line in lines] == ["age", "city"]
            assert lines[0]["n"] == 4 and len(lines[0]["estimates"]) == 4
            assert lines[1]["estimates"] is None  # no data yet
            # restricting to one attribute name
            args = build_parser().parse_args(
                ["--snapshot", service.url, "--attribute", "city"]
            )
            assert _service_main(args) == 0
            lines = [json.loads(line) for line in
                     capsys.readouterr().out.strip().splitlines()]
            assert [line["attribute"] for line in lines] == ["city"]
        finally:
            service.stop()

    def test_snapshot_against_dead_service_exits_2(self, capsys):
        from repro.core.retry import RetryPolicy
        from repro.experiments.runner import _service_main, build_parser
        from repro.service.server import CollectionService

        # bind then release a port so nothing is listening there
        service = CollectionService()
        service.start()
        url = service.url
        service.stop()
        args = build_parser().parse_args(["--snapshot", url])
        import repro.experiments.runner as runner_module
        import repro.service.client as client_module

        original = client_module.CollectionClient

        def fast_client(base_url):
            return original(
                base_url,
                retry_policy=RetryPolicy(
                    max_retries=1, base_delay=1e-3, max_delay=1e-3, jitter=0.0
                ),
            )

        # _service_main imports CollectionClient from repro.service.client
        import unittest.mock as mock

        with mock.patch.object(client_module, "CollectionClient", fast_client):
            assert _service_main(args) == 2
        assert "error" in capsys.readouterr().err
