"""The program callables the traced run times, and the per-layer metrics.

Layers are the ``repro`` packages.  Spans are taken around calls into their
public functions and methods from here; nothing under ``src/`` is edited.
Kernels are timed by serving, to every module that dispatches through
``repro.kernels.get_backend``, a ``dataclasses.replace``d copy of the active
:class:`~repro.kernels.KernelBackend` whose callables are timed wrappers.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Mapping

from .tracer import Counter, Tracer

#: Module-level functions: ``(span, module, function)``.  Every module that
#: imported the function by name is rebound too.
FUNCTIONS = (
    ("datasets.load_dataset", "repro.datasets.loaders", "load_dataset"),
    ("privacy.make_priors", "repro.privacy.priors", "make_priors"),
    ("multidim.analytical_variance", "repro.multidim.variance", "averaged_analytical_variance"),
    ("attacks.build_profiles", "repro.attacks.profile", "build_profiles_smp"),
    ("ml.grow_forest", "repro.ml.tree", "grow_forest"),
)

#: Methods: ``(span, module, class, method)``.  Wrapped on the class and on
#: every subclass that defines its own version.
METHODS = (
    ("ml.gbdt_fit", "repro.ml.gradient_boosting", "GradientBoostingClassifier", "fit"),
    ("ml.gbdt_predict", "repro.ml.gradient_boosting", "GradientBoostingClassifier", "predict"),
    ("ml.gbdt_predict", "repro.ml.gradient_boosting", "GradientBoostingClassifier", "predict_proba"),
    ("attacks.evaluate_profiling", "repro.attacks.reidentification", "ReidentificationAttack", "evaluate_profiling"),
    ("protocols.randomize_many", "repro.protocols.base", "FrequencyOracle", "randomize_many"),
    ("protocols.support_counts", "repro.protocols.base", "FrequencyOracle", "support_counts"),
    ("protocols.attack_many", "repro.protocols.base", "FrequencyOracle", "attack_many"),
    ("multidim.collect", "repro.multidim.base", "MultidimSolution", "collect"),
    ("multidim.estimate", "repro.multidim.base", "MultidimSolution", "estimate"),
    ("experiments.cache_put", "repro.experiments.grid", "CellStore", "put"),
    ("service.client_send", "repro.service.client", "CollectionClient", "send_batch"),
    ("service.flush_wait", "repro.service.client", "CollectionClient", "flush"),
    ("service.decode", "repro.service.server", "AttributeCollector", "decode"),
    ("service.apply", "repro.service.server", "AttributeCollector", "apply"),
    ("service.snapshot", "repro.service.server", "AttributeCollector", "snapshot"),
)


def _product_flop(args: tuple, kwargs: dict) -> dict[str, float]:
    """``weights_t (slots, n) @ features (n, F)``: one multiply-add per term."""
    weights_t, features = args[0], args[1]
    slots, n = weights_t.shape
    return {"flop": 2 * slots * n * features.shape[1]}


def _hash_evaluations(args: tuple, kwargs: dict) -> dict[str, float]:
    """OLH support hashes every report against every domain value: n·k."""
    reports, k = args[0], args[1]
    return {"hashes": int(reports.shape[0]) * int(k)}


#: Kernel-backend fields: ``field -> (span, counter)``.
KERNELS: Mapping[str, tuple[str, Counter | None]] = {
    "distance_block": ("kernels.distance_block", None),
    "distance_update": ("kernels.distance_update", None),
    "histogram_product": ("kernels.histogram_product", _product_flop),
    "olh_support": ("kernels.olh_support", _hash_evaluations),
    "olh_attack_counts": ("kernels.olh_attack", None),
    "olh_attack_select": ("kernels.olh_attack", None),
}

#: Per-layer metrics in report order: ``(name, unit)``.
PER_LAYER = (
    ("ml.gbdt_fit_s", "s"),
    ("ml.gbdt_fits", "count"),
    ("ml.grow_forest_self_s", "s"),
    ("ml.gbdt_predict_s", "s"),
    ("kernels.histogram_product_s", "s"),
    ("kernels.histogram_product_calls", "count"),
    ("kernels.histogram_product_gflop", "GFLOP"),
    ("kernels.distance_update_s", "s"),
    ("kernels.distance_update_calls", "count"),
    ("kernels.distance_block_s", "s"),
    ("attacks.evaluate_profiling_self_s", "s"),
    ("attacks.build_profiles_s", "s"),
    ("protocols.attack_many_s", "s"),
    ("kernels.olh_attack_s", "s"),
    ("privacy.make_priors_s", "s"),
    ("multidim.collect_s", "s"),
    ("multidim.estimate_s", "s"),
    ("multidim.analytical_variance_s", "s"),
    ("protocols.randomize_many_s", "s"),
    ("protocols.support_counts_s", "s"),
    ("datasets.load_dataset_s", "s"),
    ("experiments.engine_overhead_s", "s"),
    ("experiments.cache_put_s", "s"),
    ("experiments.cache_puts", "count"),
    ("experiments.cells_computed", "count"),
    ("service.client_send_s", "s"),
    ("service.decode_s", "s"),
    ("service.apply_s", "s"),
    ("service.applier_busy_ratio", "ratio"),
    ("kernels.olh_support_s", "s"),
    ("kernels.olh_support_hash_evals", "count"),
    ("service.flush_wait_s", "s"),
    ("service.snapshot_s", "s"),
    ("service.rejected_429", "count"),
    ("service.duplicate_batches", "count"),
    ("service.batches_applied", "count"),
    ("service.reports_applied", "count"),
    ("trace_overhead_ratio", "ratio"),
)

#: Per-layer counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = (
    "ml.gbdt_fits",
    "kernels.histogram_product_calls",
    "kernels.histogram_product_flop",
    "kernels.distance_update_calls",
    "kernels.olh_support_hash_evals",
    "experiments.cells_computed",
    "experiments.cache_puts",
    "service.batches_applied",
    "service.reports_applied",
    "service.duplicate_batches",
)


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def instrument(tracer: Tracer) -> None:
    """Wrap every callable above.  Call once the program is imported."""
    for span, module_name, function in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), function)
        tracer.rebind(original, tracer.wrap(original, span), "repro")
    for span, module_name, class_name, method in METHODS:
        base = getattr(importlib.import_module(module_name), class_name)
        for cls in _subclasses(base):
            defined = vars(cls).get(method)
            if defined is not None and not getattr(defined, "__isabstractmethod__", False):
                tracer.patch(cls, method, span)
    kernels = importlib.import_module("repro.kernels")
    backend = kernels.get_backend()
    timed = dataclasses.replace(
        backend,
        **{
            field: tracer.wrap(getattr(backend, field), span, counter)
            for field, (span, counter) in KERNELS.items()
        },
    )
    tracer.rebind(kernels.get_backend, lambda: timed, "repro")


def layer_metrics(tracer: Tracer, unit: Mapping[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced unit (``unit`` is its result record)."""
    inclusive = tracer.inclusive
    metrics: dict[str, float] = {
        "ml.gbdt_fit_s": inclusive("ml.gbdt_fit"),
        "ml.gbdt_fits": tracer.calls("ml.gbdt_fit"),
        "ml.grow_forest_self_s": tracer.self_time("ml.grow_forest"),
        "ml.gbdt_predict_s": inclusive("ml.gbdt_predict"),
        "kernels.histogram_product_s": inclusive("kernels.histogram_product"),
        "kernels.histogram_product_calls": tracer.calls("kernels.histogram_product"),
        "kernels.histogram_product_flop": tracer.total("kernels.histogram_product", "flop"),
        "kernels.distance_update_s": inclusive("kernels.distance_update"),
        "kernels.distance_update_calls": tracer.calls("kernels.distance_update"),
        "kernels.distance_block_s": inclusive("kernels.distance_block"),
        "attacks.evaluate_profiling_self_s": tracer.self_time("attacks.evaluate_profiling"),
        "attacks.build_profiles_s": inclusive("attacks.build_profiles"),
        "protocols.attack_many_s": inclusive("protocols.attack_many"),
        "kernels.olh_attack_s": inclusive("kernels.olh_attack"),
        "privacy.make_priors_s": inclusive("privacy.make_priors"),
        "multidim.collect_s": inclusive("multidim.collect"),
        "multidim.estimate_s": inclusive("multidim.estimate"),
        "multidim.analytical_variance_s": inclusive("multidim.analytical_variance"),
        "protocols.randomize_many_s": inclusive("protocols.randomize_many"),
        "protocols.support_counts_s": inclusive("protocols.support_counts"),
        "datasets.load_dataset_s": inclusive("datasets.load_dataset"),
        "experiments.cache_put_s": inclusive("experiments.cache_put"),
        "experiments.cache_puts": tracer.calls("experiments.cache_put"),
        "service.client_send_s": inclusive("service.client_send"),
        "service.decode_s": inclusive("service.decode"),
        "service.apply_s": inclusive("service.apply"),
        "kernels.olh_support_s": inclusive("kernels.olh_support"),
        "kernels.olh_support_hash_evals": tracer.total("kernels.olh_support", "hashes"),
        "service.flush_wait_s": inclusive("service.flush_wait"),
        "service.snapshot_s": inclusive("service.snapshot"),
    }
    metrics["kernels.histogram_product_gflop"] = metrics["kernels.histogram_product_flop"] / 1e9
    wall = float(unit["wall_s"])
    cell_seconds = unit.get("cell_seconds")
    metrics["experiments.engine_overhead_s"] = (
        wall - float(cell_seconds) if cell_seconds is not None else 0.0
    )
    metrics["experiments.cells_computed"] = int(unit.get("cells_computed", 0))
    metrics["service.applier_busy_ratio"] = (
        metrics["service.apply_s"] / wall if unit.get("service") else 0.0
    )
    stats = unit.get("service") or {}
    metrics["service.rejected_429"] = int(stats.get("rejected", 0))
    metrics["service.duplicate_batches"] = int(stats.get("duplicate_batches", 0))
    metrics["service.batches_applied"] = int(stats.get("batches", 0))
    metrics["service.reports_applied"] = int(stats.get("reports", 0))
    return metrics
