"""Shard-workspace garbage collection (ISSUE 5, satellite 3).

Interrupted cached ``--shards N`` runs can orphan per-pending-set workspaces
under a persistent shard root.  The age-based sweep must remove only
workspaces whose *newest* content is older than the threshold — a concurrent
run that owns a workspace keeps its journal fresh, so even a stale
``plan.json`` must not doom it (the concurrent-owner near-miss).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.runner import main
from repro.experiments.sharding import gc_shard_workspaces

#: One hour, in seconds — the sweep threshold used throughout.
HOUR = 3600.0


def _make_workspace(root: Path, name: str, age_seconds: float, files=("plan.json",)):
    """Create a workspace directory whose entire content is ``age_seconds`` old."""
    workspace = root / name
    workspace.mkdir(parents=True)
    stamp = time.time() - age_seconds
    for filename in files:
        path = workspace / filename
        path.write_text("{}")
        os.utime(path, (stamp, stamp))
    os.utime(workspace, (stamp, stamp))
    return workspace


class TestGcShardWorkspaces:
    def test_removes_only_workspaces_older_than_max_age(self, tmp_path):
        old = _make_workspace(tmp_path, "aaaa0000", age_seconds=10 * HOUR)
        fresh = _make_workspace(tmp_path, "bbbb1111", age_seconds=0.0)
        summary = gc_shard_workspaces(tmp_path, max_age_seconds=HOUR)
        assert summary["removed"] == ["aaaa0000"]
        assert summary["kept"] == ["bbbb1111"]
        assert not old.exists()
        assert fresh.exists()

    def test_concurrent_owner_near_miss_is_protected(self, tmp_path):
        """An old plan file with a freshly touched journal marks a workspace a
        concurrent invocation still owns: the sweep must not remove it."""
        workspace = _make_workspace(
            tmp_path,
            "cccc2222",
            age_seconds=10 * HOUR,
            files=("plan.json", "shards.sqlite"),
        )
        journal = workspace / "shards.sqlite-wal"
        journal.write_bytes(b"\0" * 32)  # fresh mtime: an append in flight
        summary = gc_shard_workspaces(tmp_path, max_age_seconds=HOUR)
        assert summary["removed"] == []
        assert summary["kept"] == ["cccc2222"]
        assert workspace.exists()
        assert (workspace / "plan.json").exists()

    def test_stray_files_in_the_root_are_left_alone(self, tmp_path):
        stray = tmp_path / "notes.txt"
        stray.write_text("keep me")
        old_stamp = time.time() - 10 * HOUR
        os.utime(stray, (old_stamp, old_stamp))
        summary = gc_shard_workspaces(tmp_path, max_age_seconds=HOUR)
        assert summary["removed"] == [] and summary["kept"] == []
        assert stray.exists()

    def test_missing_root_yields_empty_summary(self, tmp_path):
        summary = gc_shard_workspaces(tmp_path / "nowhere", max_age_seconds=HOUR)
        assert summary["removed"] == [] and summary["kept"] == []

    def test_negative_max_age_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            gc_shard_workspaces(tmp_path, max_age_seconds=-1.0)

    @pytest.mark.parametrize("age", [float("nan"), float("inf")])
    def test_non_finite_max_age_rejected(self, tmp_path, age):
        with pytest.raises(InvalidParameterError, match="finite"):
            gc_shard_workspaces(tmp_path, max_age_seconds=age)


class TestCliGcShards:
    def test_gc_sweeps_the_shard_root_and_prints_a_summary(self, tmp_path, capsys):
        root = tmp_path / "shards"
        _make_workspace(root, "aaaa0000", age_seconds=10 * HOUR)
        _make_workspace(root, "bbbb1111", age_seconds=0.0)
        code = main(
            ["fig1", "--gc-shards", "--shard-dir", str(root), "--gc-max-age", "3600"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["removed"] == ["aaaa0000"]
        assert summary["kept"] == ["bbbb1111"]
        assert not (root / "aaaa0000").exists()

    def test_gc_cli_concurrent_owner_near_miss(self, tmp_path, capsys):
        """CLI-level near-miss: stale plan, fresh journal — workspace kept."""
        root = tmp_path / "shards"
        workspace = _make_workspace(root, "cccc2222", age_seconds=10 * HOUR)
        (workspace / "shards.sqlite-wal").write_bytes(b"\0")  # concurrent owner
        code = main(
            ["fig1", "--gc-shards", "--shard-dir", str(root), "--gc-max-age", "3600"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kept"] == ["cccc2222"]
        assert workspace.exists()

    def test_gc_defaults_to_the_per_figure_shard_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig1", "--gc-shards"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["root"].endswith(os.path.join(".repro-shards", "fig1"))

    def test_gc_conflicts_with_shard_execution_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig1", "--gc-shards", "--shards", "2", "--shard-index", "0"])
        with pytest.raises(SystemExit):
            main(["fig1", "--gc-shards", "--shards", "2", "--merge-shards"])
        with pytest.raises(SystemExit):  # a bare --shards would be silently ignored
            main(["fig1", "--gc-shards", "--shards", "4"])

    def test_gc_rejects_negative_age_with_exit_2(self, tmp_path, capsys):
        # rejected by argparse before the sweep touches anything
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--gc-shards", "--shard-dir", str(tmp_path), "--gc-max-age", "-5"])
        assert excinfo.value.code == 2
        assert "--gc-max-age" in capsys.readouterr().err

    def test_gc_rejects_nan_age_with_exit_2(self, tmp_path, capsys):
        # NaN compares false against every age: the sweep would keep
        # everything and print a summary that is not valid JSON
        old = _make_workspace(tmp_path, "aaaa0000", age_seconds=10 * HOUR)
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--gc-shards", "--shard-dir", str(tmp_path), "--gc-max-age", "nan"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--gc-max-age" in err and "finite" in err
        assert old.exists()

    def test_gc_zero_age_sweeps_every_idle_workspace_as_strict_json(
        self, tmp_path, capsys
    ):
        # 0 is the smallest accepted age; the summary must parse as strict
        # JSON (no NaN/Infinity constants)
        _make_workspace(tmp_path, "aaaa0000", age_seconds=HOUR)
        _make_workspace(tmp_path, "bbbb1111", age_seconds=10 * HOUR)
        code = main(["fig1", "--gc-shards", "--shard-dir", str(tmp_path), "--gc-max-age", "0"])
        assert code == 0

        def reject_constant(name):
            raise ValueError(f"non-standard JSON constant {name}")

        summary = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert summary["max_age_seconds"] == 0.0
        assert summary["removed"] == ["aaaa0000", "bbbb1111"]
        assert summary["kept"] == []
