"""Tracer arithmetic and patch/restore behaviour of the benchmark's tracer."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.tracer import Tracer  # noqa: E402


class FakeClock:
    """A clock that only moves when the traced code says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Program:
    """A synthetic call tree: ``outer`` → ``middle`` → ``leaf`` plus a
    re-entrant ``recurse`` that calls itself."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def leaf(self) -> None:
        self.clock.now += 1.0

    def middle(self) -> None:
        self.clock.now += 2.0
        self.leaf()
        self.leaf()

    def outer(self) -> str:
        self.clock.now += 3.0
        self.middle()
        self.leaf()
        return "done"

    def recurse(self, depth: int) -> None:
        self.clock.now += 1.0
        if depth:
            self.recurse(depth - 1)
            self.leaf()


def traced_program() -> tuple[Tracer, Program]:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    program = Program(clock)
    for name in ("leaf", "middle", "outer", "recurse"):
        tracer.patch(Program, name, f"program.{name}")
    return tracer, program


def test_self_time_subtracts_children_on_a_nested_tree() -> None:
    tracer, program = traced_program()
    with tracer:
        assert program.outer() == "done"
    # outer: 3 own + middle (2 own + 2 leaves) + 1 leaf = 8
    assert tracer.inclusive("program.outer") == 8.0
    assert tracer.self_time("program.outer") == 3.0
    assert tracer.inclusive("program.middle") == 4.0
    assert tracer.self_time("program.middle") == 2.0
    assert tracer.inclusive("program.leaf") == 3.0
    assert tracer.self_time("program.leaf") == 3.0
    assert tracer.calls("program.leaf") == 3
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["program.middle"].parent == by_name["program.outer"].id
    assert by_name["program.outer"].parent is None


def test_reentrant_calls_are_not_counted_twice() -> None:
    tracer, program = traced_program()
    with tracer:
        program.recurse(2)
    # recurse(2) → recurse(1) → recurse(0); each level adds 1 and recurse(1),
    # recurse(2) each call one leaf: 3 + 2 = 5 in total
    assert tracer.inclusive("program.recurse") == 5.0
    assert tracer.self_time("program.recurse") == 3.0
    assert tracer.self_time("program.leaf") == 2.0
    assert tracer.calls("program.recurse") == 3
    total_self = sum(
        tracer.self_time(name) for name in ("program.recurse", "program.leaf")
    )
    assert total_self == tracer.inclusive("program.recurse")


def test_counters_and_spans_of_raising_calls_are_kept() -> None:
    tracer = Tracer()

    def boom(size: int) -> None:
        raise ValueError(size)

    traced = tracer.wrap(boom, "boom", counter=lambda args, kwargs: {"items": args[0]})
    with pytest.raises(ValueError):
        traced(7)
    assert tracer.calls("boom") == 1
    assert tracer.total("boom", "items") == 7


def test_originals_are_restored_after_a_traced_run_that_raises() -> None:
    import repro.experiments  # noqa: F401  (imports every layer)
    import repro.kernels
    import repro.service  # noqa: F401
    from repro.attacks import reidentification
    from repro.datasets import loaders
    from repro.experiments import attribute_inference_rsrfd
    from repro.ml import tree
    from repro.ml.gradient_boosting import GradientBoostingClassifier
    from repro.protocols.base import FrequencyOracle

    from perfbench.layers import instrument

    get_backend = repro.kernels.get_backend
    backend = get_backend()
    load_dataset = loaders.load_dataset
    fit = vars(GradientBoostingClassifier)["fit"]
    support_counts = vars(FrequencyOracle)["support_counts"]

    tracer = Tracer()
    with pytest.raises(RuntimeError, match="mid-run"):
        with tracer:
            instrument(tracer)
            assert attribute_inference_rsrfd.load_dataset is not load_dataset
            assert tree.get_backend is not get_backend
            assert tree.get_backend().histogram_product is not backend.histogram_product
            raise RuntimeError("mid-run")

    assert loaders.load_dataset is load_dataset
    assert attribute_inference_rsrfd.load_dataset is load_dataset
    assert tree.get_backend is get_backend
    assert reidentification.get_backend is get_backend
    assert repro.kernels.get_backend is get_backend
    assert get_backend() is backend
    assert vars(GradientBoostingClassifier)["fit"] is fit
    assert vars(FrequencyOracle)["support_counts"] is support_counts
