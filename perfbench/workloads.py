"""One measured unit of a workload, run in a fresh process.

``python3 -m perfbench.workloads --workload NAME --seed N --trace 0|1
--workdir DIR [--setup-only]`` runs the workload once and prints one JSON
record on its last stdout line: set-up and wall time, peak RSS, operation
latencies, output-check failures and, when traced, the per-layer metrics.
``perfbench/run.py`` starts these processes and aggregates their records.

Figure workloads run a quick figure plan on the serial executor with the
numpy kernel backend and a fresh, empty cell store in the CLI's default
layout.  ``service_ingest`` drives a live collection service over HTTP
loopback from one closed-loop client.
"""

from __future__ import annotations

import argparse
import json
import resource
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Any

from . import checks
from .tracer import Tracer

#: Figure workloads: workload -> quick figure.
FIGURES = {"aif_rsrfd": "fig17", "reident_smp": "fig2", "utility_rsrfd": "fig16"}
SERVICE = "service_ingest"
WORKLOADS = (*FIGURES, SERVICE)

KERNEL_BACKEND = "numpy"

#: ``service_ingest`` traffic: ``(attribute, protocol, k)`` at one epsilon.
ATTRIBUTES = (("age", "GRR", 100), ("zip", "OLH", 100), ("flags", "SUE", 64))
EPSILON = 1.0
BATCH_SIZE = 2048
BATCHES_PER_ROUND = 10
DUPLICATE_EVERY = 10
ROUNDS = 20
WINDOW = "sliding:8x4"

#: Warm re-reads of a finished figure from its filled store.
WARM_READS = 15


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# figure workloads
# ---------------------------------------------------------------------- #
def run_figure(
    workload: str, seed: int, workdir: Path, trace: bool, setup_only: bool
) -> dict[str, Any]:
    start = time.perf_counter()
    from repro.experiments import CellStore, SerialExecutor, execute_plan, figure_spec
    from repro.kernels import set_backend

    set_backend(KERNEL_BACKEND)
    spec = figure_spec(FIGURES[workload], quick=True)
    cells = spec.plan(seed)
    store_dir = workdir / f"store-{workload}"
    shutil.rmtree(store_dir, ignore_errors=True)
    store = CellStore.from_options(store_dir)
    record: dict[str, Any] = {"setup_s": time.perf_counter() - start, "failures": []}
    if setup_only:
        return record

    tracer = Tracer()
    if trace:
        from .layers import instrument

        instrument(tracer)
    info: dict[str, Any] = {}
    with tracer:
        start = time.perf_counter()
        rows = execute_plan(
            cells, spec.postprocess, cache=store, executor=SerialExecutor(), grid_info=info
        )
        wall = time.perf_counter() - start

    timings = info["cell_timings"]
    computed = sum(1 for t in timings if t["source"] == "computed")
    record.update(
        wall_s=wall,
        items=computed,
        cells_computed=computed,
        cell_seconds=sum(t["elapsed_seconds"] for t in timings),
        op_ms=[1000.0 * t["elapsed_seconds"] for t in timings],
        attempted=len(cells),
        failed=len(cells) - computed,
        digest=checks.row_digest(rows),
    )
    if computed != len(cells):
        record["failures"].append(f"{len(cells) - computed} of {len(cells)} cells not computed")

    read_ms = []
    if not trace:
        for _ in range(WARM_READS):
            start = time.perf_counter()
            again = execute_plan(cells, spec.postprocess, cache=store, executor=SerialExecutor())
            read_ms.append(1000.0 * (time.perf_counter() - start))
            if again != rows:
                record["failures"].append("warm re-read returned different rows")
                break
    record["read_ms"] = read_ms
    record["peak_rss_mb"] = _peak_rss_mb()
    shutil.rmtree(store_dir, ignore_errors=True)
    if trace:
        _finish(record, tracer, workload, workdir)
    return record


# ---------------------------------------------------------------------- #
# service workload
# ---------------------------------------------------------------------- #
def generate_load(seed: int) -> dict[str, list[list[list[tuple[str, Any, bool]]]]]:
    """Per attribute, per round, per batch: the ``(batch_id, reports, duplicate)`` sends.

    A round holds ``BATCHES_PER_ROUND`` unique batches; every
    ``DUPLICATE_EVERY``-th batch is re-delivered right after itself, so its
    send list has two entries.
    """
    import numpy as np
    from repro.core.rng import derive_rng
    from repro.service.client import LoadGenerator

    load = {}
    for attribute, protocol, k in ATTRIBUTES:
        generator = LoadGenerator(
            protocol,
            k=k,
            epsilon=EPSILON,
            users=ROUNDS * BATCHES_PER_ROUND * BATCH_SIZE,
            batch_size=BATCH_SIZE,
            duplicate_every=DUPLICATE_EVERY,
            rng=derive_rng(seed, "perfbench", attribute),
        )
        batches: list[list[tuple[str, Any, bool]]] = []
        for batch_id, reports, duplicate in generator.batches():
            if not duplicate:
                batches.append([])
            batches[-1].append((batch_id, np.asarray(reports), duplicate))
        load[attribute] = [
            batches[start : start + BATCHES_PER_ROUND]
            for start in range(0, len(batches), BATCHES_PER_ROUND)
        ]
    return load


def _unique_reports(rounds: list[list[list[tuple[str, Any, bool]]]]) -> list[Any]:
    return [batch[0][1] for batches in rounds for batch in batches]


def service_reference(
    load: dict[str, list[list[list[tuple[str, Any, bool]]]]], window: str
) -> dict[str, tuple[int, list[float]]]:
    """Per attribute: one-shot ``aggregate`` over the de-duplicated reports
    of the rounds still inside ``window`` after the last round."""
    from repro.protocols.registry import make_protocol
    from repro.service.windows import parse_window

    spec = parse_window(window)
    reference = {}
    for attribute, protocol, k in ATTRIBUTES:
        rounds = load[attribute]
        live = checks.live_rounds(len(rounds), spec.pane_width, spec.panes)
        chunks = _unique_reports([rounds[index] for index in live])
        reference[attribute] = checks.reference_estimate(
            make_protocol(protocol, k=k, epsilon=EPSILON),
            chunks,
            sum(len(chunk) for chunk in chunks),
        )
    return reference


def run_service(seed: int, workdir: Path, trace: bool, setup_only: bool) -> dict[str, Any]:
    start = time.perf_counter()
    from repro.service.client import CollectionClient
    from repro.service.server import CollectionService

    service = CollectionService(window=WINDOW)
    service.start()
    try:
        client = CollectionClient(service.url)
        for attribute, protocol, k in ATTRIBUTES:
            client.register_attribute(attribute, protocol, k, EPSILON)
        record: dict[str, Any] = {"setup_s": time.perf_counter() - start, "failures": []}
        if setup_only:
            return record
        load = generate_load(seed)

        tracer = Tracer()
        if trace:
            from .layers import instrument

            instrument(tracer)
        send_ms: list[float] = []
        estimate_ms: list[float] = []
        estimates: dict[str, Any] = {}
        with tracer:
            first = time.perf_counter()
            for round_index in range(ROUNDS):
                for position in range(BATCHES_PER_ROUND):
                    for attribute, _, _ in ATTRIBUTES:
                        for batch_id, reports, _ in load[attribute][round_index][position]:
                            start = time.perf_counter()
                            client.send_batch(attribute, batch_id, reports, t=float(round_index))
                            send_ms.append(1000.0 * (time.perf_counter() - start))
                client.flush()
                for attribute, _, _ in ATTRIBUTES:
                    start = time.perf_counter()
                    estimates[attribute] = client.estimate(attribute)
                    estimate_ms.append(1000.0 * (time.perf_counter() - start))
            wall = time.perf_counter() - first
            stats = client.stats()
    finally:
        service.stop()

    record.update(_service_checks(load, estimates, stats, record["failures"]))
    record.update(
        wall_s=wall,
        items=record["service"]["reports"],
        op_ms=send_ms,
        read_ms=estimate_ms,
        attempted=len(send_ms) + len(estimate_ms),
        failed=int(stats["failed_batches"]),
        peak_rss_mb=_peak_rss_mb(),
    )
    if trace:
        _finish(record, tracer, SERVICE, workdir)
    return record


def _service_checks(
    load: dict[str, list[list[list[tuple[str, Any, bool]]]]],
    estimates: dict[str, Any],
    stats: dict[str, Any],
    failures: list[str],
) -> dict[str, Any]:
    """Compare the final estimates and ``/stats`` with what was sent."""
    reference = service_reference(load, WINDOW)
    totals = {"batches": 0, "duplicate_batches": 0, "reports": 0}
    for attribute, _, _ in ATTRIBUTES:
        unique = _unique_reports(load[attribute])
        sends = sum(len(batch) for batches in load[attribute] for batch in batches)
        expected = {
            "batches": len(unique),
            "duplicate_batches": sends - len(unique),
            "accepted_reports": sum(len(reports) for reports in unique),
            "late_dropped_reports": 0,
        }
        served = stats["attributes"][attribute]
        for key, value in expected.items():
            if served[key] != value:
                failures.append(f"{attribute}: /stats {key} {served[key]} != {value}")
        if not checks.same_estimate(estimates.get(attribute, {}), reference[attribute]):
            failures.append(f"{attribute}: final /estimate differs from one-shot aggregate")
        totals["batches"] += served["batches"]
        totals["duplicate_batches"] += served["duplicate_batches"]
        totals["reports"] += served["accepted_reports"]
    if stats["failed_batches"]:
        failures.append(f"{stats['failed_batches']} batches failed in the applier")
    return {"service": {**totals, "rejected": int(stats["rejected_batches"])}}


# ---------------------------------------------------------------------- #
# shared tail
# ---------------------------------------------------------------------- #
def _finish(record: dict[str, Any], tracer: Tracer, workload: str, workdir: Path) -> None:
    """Attach the per-layer metrics and exact counts of a traced unit."""
    from .layers import EXACT_COUNTS, layer_metrics

    layers = layer_metrics(tracer, record)
    record["layers"] = layers
    record["counts"] = {name: layers[name] for name in EXACT_COUNTS}
    tracer.dump(workdir / f"trace-{workload}.json")


def run_unit(
    workload: str, seed: int, workdir: Path, trace: bool, setup_only: bool = False
) -> dict[str, Any]:
    """Run one unit in this process and return its record."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == SERVICE:
        return run_service(seed, workdir, trace, setup_only)
    return run_figure(workload, seed, workdir, trace, setup_only)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # one core: threads hand off without cross-CPU wake-ups, and load on
        # the other cores does not enter the numbers
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    record = run_unit(args.workload, args.seed, args.workdir, bool(args.trace), args.setup_only)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
