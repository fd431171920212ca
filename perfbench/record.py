"""Record the figure row digests and exact work counts in ``expected.json``.

Usage, from the repository root::

    python3 perfbench/record.py [WORKLOAD ...]

Runs one traced unit per workload and master seed (``0 .. SEED_CYCLE-1``) on
the benchmark's kernel backend and stores the digest of the postprocessed
figure rows and the counts that must repeat exactly.  Re-record only when a
change is meant to alter rows or counts, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import time

from run import KERNEL_BACKEND, SEED_CYCLE, WORKLOADS, checks, run_unit


def main(argv: list[str]) -> int:
    expected = checks.load_expected()
    for workload in argv or WORKLOADS:
        for seed in range(SEED_CYCLE):
            unit = run_unit(workload, seed, True, time.monotonic() + 600.0)
            if "error" in unit or unit["failures"]:
                print(f"{workload} seed {seed}: {unit.get('error') or unit['failures']}",
                      file=sys.stderr)
                return 1
            for kind, value in (("digests", unit.get("digest")), ("counts", unit["counts"])):
                if value is not None:
                    expected.setdefault(kind, {}).setdefault(workload, {}).setdefault(
                        KERNEL_BACKEND, {}
                    )[str(seed)] = value
            print(f"{workload} seed {seed}: recorded in {unit['duration']:.1f}s")
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
