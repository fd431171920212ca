"""Benchmark — live collection service throughput and estimate parity.

Drives the :mod:`repro.service` collection pipeline with synthetic
million-user load shaped like a real deployment: a churning user population,
a non-stationary (drifting hot item) value distribution, duplicate batch
deliveries, and one deliberately forced backpressure (429) episode.  Two
paths are measured at ``k = 100``:

* **in-process ingest** — batches flow through the same dedup + windowed
  accumulator path as HTTP traffic (``CollectionService.ingest_local``),
  isolating the server-side fold from transport cost; this is the
  sustained-throughput acceptance gate (>= 1e5 reports/second);
* **HTTP loopback** — the full wire path (binary report bodies over a
  loopback socket, bounded queue, applier thread) with duplicates and a
  forced 429, as CI runs it.

Both paths end with the parity gate: the service's snapshot estimate must be
**byte-identical** to a one-shot ``aggregate`` over the de-duplicated report
stream (support counts are integer-valued float64s, so no accumulation order
can change a bit — duplicates or backpressure changing even one bit means a
dedup or window bug).

Run directly (this file is a script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_collection_service.py --quick

``--quick`` shrinks the workload for CI smoke runs; the default is 1e6 users
(pass ``--users 100000000`` for the 1e8 stress scale).  Exits non-zero if a
parity or throughput gate fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.retry import RetryPolicy
from repro.service.client import (
    CollectionClient,
    LoadGenerator,
    ServiceUnavailableError,
)
from repro.service.server import CollectionService

K = 100
EPSILON = 1.0
PROTOCOL = "GRR"
THROUGHPUT_FLOOR = 1e5  # reports/second, acceptance criterion

#: Load shape shared by both phases (and by the parity reference).
LOAD = {"churn": 0.1, "drift": 3, "duplicate_every": 5, "rng": 7}


def _generator(users: int, batch_size: int) -> LoadGenerator:
    return LoadGenerator(
        PROTOCOL, k=K, epsilon=EPSILON, users=users, batch_size=batch_size, **LOAD
    )


def _reference_estimate(users: int, batch_size: int):
    """One-shot aggregate over the de-duplicated stream (fresh generator)."""
    reference = _generator(users, batch_size)
    unique = (r for _, r, dup in reference.batches() if not dup)
    return reference.oracle.aggregate(unique, n=users)


def bench_in_process(users: int, batch_size: int) -> dict:
    """Dedup + windowed-fold throughput without transport cost."""
    service = CollectionService(window="cumulative")
    service.registry.register("bench", PROTOCOL, k=K, epsilon=EPSILON)
    generator = _generator(users, batch_size)
    ingest_seconds = 0.0
    batches = duplicates = 0
    wall_start = time.perf_counter()
    for batch_id, reports, is_duplicate in generator.batches():
        start = time.perf_counter()
        verdict = service.ingest_local("bench", batch_id, reports, now=0.0)
        ingest_seconds += time.perf_counter() - start
        batches += 1
        duplicates += int(verdict == "duplicate")
    wall = time.perf_counter() - wall_start

    snapshot = service.registry.get("bench").snapshot()
    one_shot = _reference_estimate(users, batch_size)
    assert snapshot["n"] == one_shot.n == users, (
        f"in-process dedup failed: served n={snapshot['n']}, expected {users}"
    )
    served = np.asarray(snapshot["estimates"], dtype=float)
    assert served.tobytes() == one_shot.estimates.tobytes(), (
        "in-process snapshot is not byte-identical to one-shot aggregate"
    )
    ingest_rate = users / ingest_seconds
    assert ingest_rate >= THROUGHPUT_FLOOR, (
        f"sustained ingest {ingest_rate:,.0f} reports/s below the "
        f"{THROUGHPUT_FLOOR:,.0f} floor at k={K}"
    )
    print(
        f"in-process  n={users:>12,}  batches={batches:>7,} "
        f"(dups={duplicates:,})  ingest {ingest_rate:>12,.0f} reports/s  "
        f"end-to-end {users / wall:>12,.0f} reports/s  parity OK"
    )
    return {
        "users": users,
        "batches": batches,
        "duplicate_batches": duplicates,
        "ingest_reports_per_second": ingest_rate,
        "end_to_end_reports_per_second": users / wall,
        "parity": "byte-identical",
    }


def bench_http(users: int, batch_size: int) -> dict:
    """Full wire path: binary loopback, bounded queue, duplicates, forced 429."""
    service = CollectionService(window="cumulative", queue_size=128)
    service.start()
    try:
        client = CollectionClient(
            service.url,
            retry_policy=RetryPolicy(
                max_retries=8, base_delay=0.01, max_delay=0.1, jitter=0.0
            ),
        )
        client.register_attribute("bench", PROTOCOL, k=K, epsilon=EPSILON)

        # forced backpressure episode: a paused service must 429 (and the
        # un-retried batch must not corrupt the stream)
        service.pause()
        impatient = CollectionClient(
            service.url,
            retry_policy=RetryPolicy(
                max_retries=0, base_delay=1e-3, max_delay=1e-3, jitter=0.0
            ),
        )
        try:
            impatient.send_batch("bench", "forced-429", [0] * 8)
        except ServiceUnavailableError:
            pass
        else:
            raise AssertionError("paused service did not reply 429")
        assert impatient.backpressure_hits == 1
        service.resume()

        generator = _generator(users, batch_size)
        start = time.perf_counter()
        sent = generator.drive(client, "bench")
        client.flush()
        elapsed = time.perf_counter() - start

        estimate = client.estimate("bench")
        one_shot = _reference_estimate(users, batch_size)
        assert estimate["n"] == one_shot.n == users
        served = np.asarray(estimate["estimates"], dtype=float)
        assert served.tobytes() == one_shot.estimates.tobytes(), (
            "HTTP snapshot is not byte-identical to one-shot aggregate"
        )
        stats = client.stats()
        attr = stats["attributes"]["bench"]
        assert attr["duplicate_batches"] == sent["duplicate_batches_sent"]
        assert stats["rejected_batches"] >= 1  # the forced 429
        print(
            f"HTTP        n={users:>12,}  batches={sent['batches_sent']:>7,} "
            f"(dups={sent['duplicate_batches_sent']:,})  "
            f"wire {users / elapsed:>12,.0f} reports/s  "
            f"forced-429s={stats['rejected_batches']:,}  parity OK"
        )
        return {
            "users": users,
            "batches": sent["batches_sent"],
            "duplicate_batches": sent["duplicate_batches_sent"],
            "wire_reports_per_second": users / elapsed,
            "forced_429s": stats["rejected_batches"],
            "parity": "byte-identical",
        }
    finally:
        service.stop()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workload (5e4 users)"
    )
    parser.add_argument(
        "--users",
        type=int,
        default=None,
        help="synthetic users for the in-process phase (default 1e6; "
        "1e8 is the stress scale)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=8192, help="reports per batch"
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE", help="write the JSON artifact to FILE"
    )
    args = parser.parse_args(argv)
    users = args.users if args.users is not None else (50_000 if args.quick else 1_000_000)
    http_users = min(users, 50_000 if args.quick else 200_000)

    print(
        f"collection service bench: k={K}, protocol={PROTOCOL}, "
        f"epsilon={EPSILON}, churn={LOAD['churn']}, drift={LOAD['drift']}, "
        f"duplicate_every={LOAD['duplicate_every']}"
    )
    try:
        artifact = {
            "config": {
                "k": K,
                "protocol": PROTOCOL,
                "epsilon": EPSILON,
                "batch_size": args.batch_size,
                "throughput_floor": THROUGHPUT_FLOOR,
                **LOAD,
            },
            "in_process": bench_in_process(users, args.batch_size),
            "http": bench_http(http_users, args.batch_size),
        }
    except AssertionError as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(artifact, indent=1), encoding="utf-8")
    print("all parity and throughput gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
