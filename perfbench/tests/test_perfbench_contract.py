"""Metric names, output checks and the service reference of the benchmark."""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import checks, workloads  # noqa: E402
from perfbench.layers import PER_LAYER, layer_metrics  # noqa: E402
from perfbench.run import END_TO_END, end_to_end  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names_and_units(entries: list[dict]) -> list[tuple[str, str]]:
    return [(entry["name"], entry["unit"]) for entry in entries]


def test_emitted_metric_names_equal_benchmark_json() -> None:
    assert list(END_TO_END) == _names_and_units(BENCHMARK["end_to_end"])
    assert list(PER_LAYER) == _names_and_units(BENCHMARK["per_layer"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)

    unit = {"wall_s": 2.0, "items": 4, "peak_rss_mb": 100.0,
            "op_ms": [1.0, 2.0, 3.0], "read_ms": [0.5]}
    assert set(end_to_end([unit, unit], [0.1, 0.2, 0.3])) == {name for name, _ in END_TO_END}

    figure = layer_metrics(Tracer(), {"wall_s": 1.0, "cell_seconds": 0.9, "cells_computed": 3})
    service = layer_metrics(Tracer(), {"wall_s": 1.0, "service": {"batches": 1}})
    per_layer = {name for name, _ in PER_LAYER} - {"trace_overhead_ratio"}
    assert per_layer <= set(figure) and per_layer <= set(service)


def test_row_digest_catches_a_one_row_change() -> None:
    rows = [
        {"protocol": "GRR", "epsilon": 1.0, "aif_acc_pct": 41.25},
        {"protocol": "OLH", "epsilon": 1.0, "aif_acc_pct": 38.5},
    ]
    digest = checks.row_digest(rows)
    reordered = [{key: row[key] for key in reversed(list(row))} for row in rows]
    assert checks.row_digest(reordered) == digest
    changed = [dict(rows[0]), {**rows[1], "aif_acc_pct": 38.5000001}]
    assert checks.row_digest(changed) != digest
    assert checks.row_digest(rows[:1]) != digest

    expected = {"digests": {"w": {"numpy": {"0": digest}}}}
    assert checks.expected_failures({"digest": digest}, "w", "numpy", 0, expected) == []
    assert checks.expected_failures(
        {"digest": checks.row_digest(changed)}, "w", "numpy", 0, expected
    ) == ["row digest differs from the recorded one"]


def test_live_rounds_of_a_sliding_window() -> None:
    # sliding:8x4 has panes of width 2; after round 19 panes 6..9 are live
    assert checks.live_rounds(20, 2.0, 4) == list(range(12, 20))
    assert checks.live_rounds(20, float("inf"), 1) == list(range(20))


def _ingest(load: dict, window: str) -> dict:
    """Feed every send of ``load`` through an in-process service."""
    from repro.service.server import CollectionService

    service = CollectionService(window=window)
    for attribute, protocol, k in workloads.ATTRIBUTES:
        service.registry.register(attribute, protocol, k, workloads.EPSILON)
    for round_index in range(workloads.ROUNDS):
        for attribute, _, _ in workloads.ATTRIBUTES:
            for sends in load[attribute][round_index]:
                for batch_id, reports, _ in sends:
                    service.ingest_local(attribute, batch_id, reports, now=float(round_index))
    return {
        attribute: service.registry.get(attribute).snapshot()
        for attribute, _, _ in workloads.ATTRIBUTES
    }


def test_service_reference_matches_a_cumulative_window_run(monkeypatch) -> None:
    monkeypatch.setattr(workloads, "ROUNDS", 5)
    monkeypatch.setattr(workloads, "BATCHES_PER_ROUND", 3)
    monkeypatch.setattr(workloads, "DUPLICATE_EVERY", 2)
    monkeypatch.setattr(workloads, "BATCH_SIZE", 50)
    load = workloads.generate_load(seed=3)
    for window in ("cumulative", "sliding:4x2"):
        served = _ingest(load, window)
        reference = workloads.service_reference(load, window)
        for attribute, _, _ in workloads.ATTRIBUTES:
            assert checks.same_estimate(served[attribute], reference[attribute]), window
    cumulative = workloads.service_reference(load, "cumulative")
    assert cumulative["age"][0] == 5 * 3 * 50
    # a one-report change in the window is caught
    n, estimates = cumulative["zip"]
    assert not checks.same_estimate(
        _ingest(load, "sliding:4x2")["zip"], (n, estimates)
    )
