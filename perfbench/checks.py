"""Output checks: figure row digests, the service reference estimate, counts."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

#: Recorded digests and exact counts, regenerated by ``perfbench/record.py``.
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def _canonical(value: Any) -> Any:
    """Rows as plain JSON values; floats rounded to 12 significant digits.

    Rounding keeps the digest stable against last-digit differences in
    floating-point summation order while any change to a reported value
    still changes it.
    """
    if isinstance(value, Mapping):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if hasattr(value, "item") and callable(value.item):  # numpy scalar
        value = value.item()
    if isinstance(value, float):
        if math.isfinite(value):
            return float(f"{value:.12g}")
        return repr(value)
    return value


def row_digest(rows: Sequence[Mapping[str, Any]]) -> str:
    """sha256 of the canonical sorted-key JSON of postprocessed figure rows."""
    text = json.dumps(_canonical(list(rows)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, Any]:
    return json.loads(path.read_text()) if path.is_file() else {}


def expected_entry(
    expected: Mapping[str, Any], kind: str, workload: str, backend: str, seed: int
) -> Any:
    """``expected[kind][workload][backend][seed]``, or ``None`` when unrecorded."""
    return expected.get(kind, {}).get(workload, {}).get(backend, {}).get(str(seed))


def count_mismatches(
    measured: Mapping[str, float], expected: Mapping[str, float]
) -> list[str]:
    """Names of counts that differ from the recorded ones."""
    return sorted(
        name for name, value in expected.items() if measured.get(name) != value
    )


def live_rounds(rounds: int, pane_width: float, panes: int) -> list[int]:
    """Rounds (event time = round index) inside a paned window after the last one.

    A report at time ``t`` is in pane ``floor(t / pane_width)``; the window
    keeps the ``panes`` newest panes up to the watermark ``rounds - 1``.
    A cumulative window has an infinite pane width and keeps every round.
    """
    if math.isinf(pane_width):
        return list(range(rounds))
    oldest = math.floor((rounds - 1) / pane_width) - panes + 1
    return [r for r in range(rounds) if math.floor(r / pane_width) >= oldest]


def reference_estimate(
    oracle: Any, chunks: Iterable[Any], n: int
) -> tuple[int, list[float]]:
    """One-shot ``aggregate`` over de-duplicated report chunks: ``(n, estimates)``."""
    estimate = oracle.aggregate(iter(chunks), n=n)
    return int(estimate.n), [float(x) for x in estimate.estimates]


def same_estimate(served: Mapping[str, Any], reference: tuple[int, list[float]]) -> bool:
    """Whether a served ``/estimate`` body equals the reference bit for bit."""
    n, estimates = reference
    values = served.get("estimates")
    if served.get("n") != n or values is None or len(values) != len(estimates):
        return False
    return all(
        float(a).hex() == float(b).hex() for a, b in zip(values, estimates)
    )


def expected_failures(
    record: Mapping[str, Any],
    workload: str,
    backend: str,
    seed: int,
    expected: Mapping[str, Any],
) -> list[str]:
    """Differences between a unit's digest and counts and the recorded ones."""
    failures = []
    if "digest" in record:
        digest = expected_entry(expected, "digests", workload, backend, seed)
        if digest is None:
            failures.append(f"no recorded row digest for seed {seed} on {backend}")
        elif digest != record["digest"]:
            failures.append("row digest differs from the recorded one")
    if "counts" in record:
        counts = expected_entry(expected, "counts", workload, backend, seed)
        if counts is None:
            failures.append(f"no recorded counts for seed {seed} on {backend}")
        else:
            failures.extend(
                f"count {name} is {record['counts'].get(name)}, recorded {counts[name]}"
                for name in count_mismatches(record["counts"], counts)
            )
    return failures
