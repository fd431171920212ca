"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured unit runs in a fresh process (``perfbench/workloads.py``)
pinned to one CPU, with one BLAS thread.
With ``--trace 0`` units repeat until ``--seconds`` is used up and the
end-to-end metrics are medians over them; set-up is measured at least
``MIN_SETUPS`` times.  With ``--trace 1`` one untraced and one traced unit
run, and the per-layer metrics come from the traced one.  Every unit's
output is checked: figure rows against the recorded digest for the seed and
kernel backend, the service's final estimates against a one-shot aggregate,
and traced work counts against the recorded counts.  A failed check prints
the result with ``"correct": false`` and exits 1.  The last stdout line is
the JSON result; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.workloads import KERNEL_BACKEND, SERVICE, WORKLOADS  # noqa: E402

#: The figure plan's master seed is ``--seed`` modulo this; expected.json
#: records digests and counts for each of them.
SEED_CYCLE = 5

#: Set-up is measured at least this many times per untraced run.
MIN_SETUPS = 3

#: Every unit must end within this many seconds of the run's start, which
#: keeps a whole run under three minutes.
BUDGET_S = 170.0

#: End-to-end metrics in report order: ``(name, unit)``.  Figure workloads:
#: plan wall time with postprocessing, imports + plan build + store open,
#: peak RSS, cells/s, per-cell compute time, one warm re-read of the whole
#: figure from its filled store.  ``service_ingest``: first send to last
#: estimate, imports + service start + attribute registration, peak RSS of the
#: client+service process, unique reports applied/s, POST /report round trip,
#: GET /estimate round trip.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("read_p50_ms", "ms"),
)

#: One BLAS thread: the serial executor's numbers then do not depend on
#: how many cores are idle, and float summation order on how many exist.
UNIT_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_KERNEL_BACKEND": KERNEL_BACKEND,
}

WORKDIR = ROOT / ".perfbench"


def run_unit(
    workload: str, seed: int, trace: bool, deadline: float, setup_only: bool = False
) -> dict[str, Any]:
    """One unit in a fresh process; its record plus ``duration`` (or ``error``)."""
    command = [
        sys.executable, "-m", "perfbench.workloads",
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
        "--workdir", str(WORKDIR),
    ] + (["--setup-only"] if setup_only else [])
    env = {**os.environ, **UNIT_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    start = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"error": "unit timed out", "duration": time.perf_counter() - start}
    duration = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": done.stderr.strip()[-2000:], "duration": duration}
    return {**json.loads(lines[-1]), "duration": duration}


def end_to_end(units: list[dict[str, Any]], setups: list[float]) -> dict[str, float]:
    """Medians over units; latency percentiles over all their operations."""
    ops = [ms for unit in units for ms in unit["op_ms"]]
    reads = [ms for unit in units for ms in unit["read_ms"]]
    return {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        "items_per_s": statistics.median(u["items"] / u["wall_s"] for u in units),
        "op_p50_ms": statistics.median(ops),
        "op_p90_ms": statistics.quantiles(ops, n=10)[8],
        "read_p50_ms": statistics.median(reads),
    }


def environment(workload: str, seed: int, master_seed: int) -> dict[str, Any]:
    """What produced the numbers: code version, machine and settings."""
    import numpy

    git = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
        capture_output=True, text=True,
    )
    lines = git.stdout.split()
    sha = lines[1] if git.returncode == 0 and Path(lines[0]) == ROOT else None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": KERNEL_BACKEND,
        "blas_threads": int(UNIT_ENV["OPENBLAS_NUM_THREADS"]),
        "unit_cpus": 1,
        "executor": "CollectionService" if workload == SERVICE else "SerialExecutor",
        "workload": workload,
        "seed": seed,
        "master_seed": master_seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    master_seed = args.seed % SEED_CYCLE
    workload = args.workload
    # compiles bytecode and warms the page cache before anything is timed
    run_unit(workload, master_seed, False, deadline, setup_only=True)

    if args.trace:
        units = [run_unit(workload, master_seed, trace, deadline) for trace in (False, True)]
    else:
        units = []
        start = time.perf_counter()
        while not units or (
            "error" not in units[-1]
            and time.perf_counter() - start + units[-1]["duration"] <= args.seconds
        ):
            units.append(run_unit(workload, master_seed, False, deadline))

    expected = checks.load_expected()
    failures: list[str] = []
    attempted = failed = 0
    for unit in units:
        problems = (
            [f"unit failed: {unit['error']}"] if "error" in unit
            else unit["failures"] + checks.expected_failures(
                unit, workload, KERNEL_BACKEND, master_seed, expected
            )
        )
        failures.extend(problems)
        attempted += unit.get("attempted", 0) + 1  # its operations and its output check
        failed += unit.get("failed", 0) + bool(problems)

    table = PER_LAYER if args.trace else END_TO_END
    metrics: dict[str, float] = {}
    units_ran = not any("error" in unit for unit in units)
    if units_ran and args.trace:
        base, traced = units
        metrics = {name: float(value) for name, value in traced["layers"].items()}
        metrics["trace_overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    elif units_ran:
        setups = [unit["setup_s"] for unit in units]
        while len(setups) < MIN_SETUPS:
            probe = run_unit(workload, master_seed, False, deadline, setup_only=True)
            if "error" in probe:
                failures.append(f"set-up failed: {probe['error']}")
                break
            setups.append(probe["setup_s"])
        else:
            metrics = end_to_end(units, setups)
    metrics = {name: metrics[name] for name, _ in table if name in metrics}

    for problem in failures:
        print(f"FAILED {problem}")
    for name, unit_name in table:
        if name in metrics:
            print(f"{name:40s} {metrics[name]:>16.6g} {unit_name}")
    print(f"{'failed_ratio':40s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations and checks, {len(units)} units)")
    if metrics and not args.trace:
        print(f"samples: {sum(len(u['op_ms']) for u in units)} operations, "
              f"{sum(len(u['read_ms']) for u in units)} reads, {len(setups)} set-ups")
    env = environment(workload, args.seed, master_seed)
    print(json.dumps({"env": env}))
    result = {
        "correct": not failures and len(metrics) == len(table),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit_name}
            for name, unit_name in table if name in metrics
        },
    }
    WORKDIR.mkdir(exist_ok=True)
    (WORKDIR / f"result-{workload}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "failures": failures}, indent=1)
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
