"""Benchmark — level-wise histogram GBDT vs the recursive reference builder.

The attribute-inference figures (3, 6, 14, 15, 17) train the from-scratch
gradient-boosted classifier once per grid cell, so GBDT training time is the
wall-clock bottleneck of the attacker side of the paper.  This benchmark

* times the level-wise stacked-forest implementation
  (:class:`repro.ml.tree.BinaryFeatureRegressionTree` via
  :func:`repro.ml.tree.grow_forest`) against the original recursive builder
  (:class:`repro.ml.tree_reference.RecursiveBinaryFeatureRegressionTree`)
  at fig-3 scale (n ≈ 30k, F ≈ 200, 4 classes) inside the *same* boosting
  loop, so only the tree substrate differs;
* checks fixed-seed parity: both ensembles must agree on (essentially) every
  prediction — the implementations choose identical splits whenever gains
  are untied, so disagreement beyond gain ties fails the run;
* sweeps train/predict time of the new implementation across n, F and the
  number of classes;
* writes everything to a JSON artifact so CI can track the trajectory.

Run directly (this file is a script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_ml_training.py --quick

``--quick`` shrinks the workload for CI smoke runs and skips the speedup
gate (machine-dependent); the default full run enforces the acceptance
threshold of a >= 10x training speedup.  Exits non-zero on any failed gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.kernels import (
    KERNEL_BACKEND_CHOICES,
    active_backend_name,
    get_backend,
    numba_available,
    set_backend,
)
from repro.ml.gradient_boosting import GradientBoostingClassifier
from repro.ml.tree_reference import RecursiveBinaryFeatureRegressionTree

#: Minimum fraction of identical predictions between the two implementations
#: (fixed seed) at the full fig-3 scale, where agreement is 1.0 in practice.
AGREEMENT_GATE = 0.999

#: Maximum training-accuracy difference tolerated in --quick mode.  At small
#: scales boosting round 0 has piecewise-constant gradients, so two features
#: with identical contingency counts have *mathematically equal* gains; the
#: two implementations round those ties differently (each by its own ulp
#: noise), one early flip changes later rounds' gradients, and per-row
#: agreement decays even though both ensembles are equally good.  The
#: statistical-equivalence gate is the meaningful check there.
QUICK_ACCURACY_GATE = 0.02


def warm_kernels() -> None:
    """Trigger JIT compilation of the histogram kernel before any timing.

    A no-op for the NumPy backend; for numba this compiles the float64
    ``histogram_product`` specialization outside the timed region so the
    one-time compile cost does not pollute the backend comparison.
    """
    weights_t = np.zeros((2, 4), dtype=np.float64)
    features = np.zeros((4, 3), dtype=np.float64)
    get_backend().histogram_product(weights_t, features)


def make_problem(n: int, n_features: int, n_classes: int, seed: int = 0):
    """Random binary features with a planted class signal (fig-3-like)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    features = rng.integers(0, 2, size=(n, n_features)).astype(np.float32)
    for c in range(n_classes):
        mask = labels == c
        features[mask, 3 * c] = (rng.random(int(mask.sum())) < 0.8).astype(np.float32)
        features[~mask, 3 * c] = (rng.random(int((~mask).sum())) < 0.2).astype(
            np.float32
        )
    return features, labels


def timed(fn):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def make_classifier(n_estimators: int, tree_class=None) -> GradientBoostingClassifier:
    """The benchmark model: the attack's GBDT configuration, fixed seed."""
    return GradientBoostingClassifier(
        n_estimators=n_estimators,
        max_depth=4,
        min_samples_leaf=20,
        rng=0,
        tree_class=tree_class,
    )


def run_comparison(n: int, n_features: int, n_classes: int, n_estimators: int) -> dict:
    """Old-vs-new fit/predict timing plus fixed-seed prediction parity."""
    features, labels = make_problem(n, n_features, n_classes)
    new_model, new_fit_s = timed(lambda: make_classifier(n_estimators).fit(features, labels))
    old_model, old_fit_s = timed(
        lambda: make_classifier(
            n_estimators, tree_class=RecursiveBinaryFeatureRegressionTree
        ).fit(features, labels)
    )
    new_pred, new_predict_s = timed(lambda: new_model.predict(features))
    old_pred, old_predict_s = timed(lambda: old_model.predict(features))
    agreement = float(np.mean(new_pred == old_pred))
    new_accuracy = float(np.mean(new_pred == labels))
    old_accuracy = float(np.mean(old_pred == labels))
    max_proba_diff = float(
        np.abs(new_model.predict_proba(features) - old_model.predict_proba(features)).max()
    )
    return {
        "n": n,
        "n_features": n_features,
        "n_classes": n_classes,
        "n_estimators": n_estimators,
        "new_fit_seconds": new_fit_s,
        "old_fit_seconds": old_fit_s,
        "fit_speedup": old_fit_s / new_fit_s,
        "new_predict_seconds": new_predict_s,
        "old_predict_seconds": old_predict_s,
        "prediction_agreement": agreement,
        "new_train_accuracy": new_accuracy,
        "old_train_accuracy": old_accuracy,
        "max_proba_diff": max_proba_diff,
    }


def run_sweep(configs) -> list[dict]:
    """Train/predict timings of the new implementation across scales."""
    rows = []
    for n, n_features, n_classes in configs:
        features, labels = make_problem(n, n_features, n_classes)
        model, fit_s = timed(lambda: make_classifier(15).fit(features, labels))
        _, predict_s = timed(lambda: model.predict(features))
        rows.append(
            {
                "n": n,
                "n_features": n_features,
                "n_classes": n_classes,
                "fit_seconds": fit_s,
                "predict_seconds": predict_s,
                "fit_rows_per_second": n / fit_s,
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small CI-smoke workload (seconds, not minutes)"
    )
    parser.add_argument("--n", type=int, default=None, help="number of rows")
    parser.add_argument("--features", type=int, default=None, help="number of binary features")
    parser.add_argument("--classes", type=int, default=None, help="number of classes")
    parser.add_argument("--estimators", type=int, default=None, help="boosting rounds")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="fail unless the full-scale fit speedup reaches this factor "
        "(ignored with --quick)",
    )
    parser.add_argument(
        "--kernel-backend",
        choices=KERNEL_BACKEND_CHOICES,
        default=None,
        help="repro.kernels backend for the timed fits "
        "(default: REPRO_KERNEL_BACKEND, else auto)",
    )
    parser.add_argument(
        "--min-kernel-speedup",
        type=float,
        default=3.0,
        help="with the numba backend active, fail unless the full-scale "
        "numba-over-numpy fit speedup reaches this factor (ignored with "
        "--quick)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("bench_ml_training.json"),
        help="path of the JSON artifact",
    )
    args = parser.parse_args(argv)
    try:
        set_backend(args.kernel_backend)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    warm_kernels()

    if args.quick:
        n, n_features, n_classes, n_estimators = 4000, 64, 3, 8
        sweep_configs = [(2000, 32, 2), (4000, 64, 3), (8000, 64, 4)]
    else:
        # fig-3 scale: ACSEmployment-sized collection, one-hot report block
        n, n_features, n_classes, n_estimators = 30_000, 200, 4, 25
        sweep_configs = [
            (10_000, 100, 2),
            (30_000, 100, 4),
            (30_000, 200, 4),
            (30_000, 400, 4),
            (100_000, 200, 4),
            (30_000, 200, 8),
        ]
    n = args.n if args.n is not None else n
    n_features = args.features if args.features is not None else n_features
    n_classes = args.classes if args.classes is not None else n_classes
    n_estimators = args.estimators if args.estimators is not None else n_estimators

    print(
        f"old-vs-new GBDT comparison  (n={n:,}, F={n_features}, "
        f"classes={n_classes}, estimators={n_estimators}, "
        f"kernel backend={active_backend_name()})"
    )
    comparison = run_comparison(n, n_features, n_classes, n_estimators)
    print(
        f"  new fit {comparison['new_fit_seconds']:7.2f} s   "
        f"old fit {comparison['old_fit_seconds']:7.2f} s   "
        f"speedup {comparison['fit_speedup']:.1f}x"
    )
    print(
        f"  new predict {comparison['new_predict_seconds']:.3f} s   "
        f"old predict {comparison['old_predict_seconds']:.3f} s"
    )
    print(
        f"  fixed-seed prediction agreement {comparison['prediction_agreement']:.6f}, "
        f"max |proba diff| {comparison['max_proba_diff']:.2e}"
    )
    print(
        f"  train accuracy new {comparison['new_train_accuracy']:.4f}  "
        f"old {comparison['old_train_accuracy']:.4f}"
    )

    print("\nnew-implementation scale sweep")
    sweep = run_sweep(sweep_configs)
    for row in sweep:
        print(
            f"  n={row['n']:>7,}  F={row['n_features']:>3}  "
            f"classes={row['n_classes']}  fit {row['fit_seconds']:6.2f} s  "
            f"predict {row['predict_seconds']:5.2f} s"
        )

    # numba-vs-numpy kernel comparison on the level-wise implementation only.
    # The histogram product is float64, so the two backends may sum partial
    # products in different orders; that can flip mathematically tied splits,
    # hence the parity gate is statistical (agreement / accuracy gap), not
    # byte equality.
    kernel = {"backend": active_backend_name()}
    if active_backend_name() == "numba":
        features, labels = make_problem(n, n_features, n_classes)
        numba_model, numba_fit_s = timed(
            lambda: make_classifier(n_estimators).fit(features, labels)
        )
        numba_pred = numba_model.predict(features)
        set_backend("numpy")
        warm_kernels()
        numpy_model, numpy_fit_s = timed(
            lambda: make_classifier(n_estimators).fit(features, labels)
        )
        numpy_pred = numpy_model.predict(features)
        set_backend("numba")
        kernel.update(
            {
                "numpy_fit_seconds": numpy_fit_s,
                "numba_fit_seconds": numba_fit_s,
                "kernel_speedup": numpy_fit_s / numba_fit_s,
                "prediction_agreement": float(np.mean(numba_pred == numpy_pred)),
                "accuracy_gap": abs(
                    float(np.mean(numba_pred == labels))
                    - float(np.mean(numpy_pred == labels))
                ),
            }
        )
        print(
            f"\nkernel backends: numba fit {numba_fit_s:7.2f} s   "
            f"numpy fit {numpy_fit_s:7.2f} s   "
            f"speedup {kernel['kernel_speedup']:.1f}x   "
            f"agreement {kernel['prediction_agreement']:.6f}"
        )
    elif numba_available():
        print("\n(numba available but not selected; no kernel comparison)")

    artifact = {
        "benchmark": "bench_ml_training",
        "quick": args.quick,
        "config": {
            "n": n,
            "n_features": n_features,
            "n_classes": n_classes,
            "n_estimators": n_estimators,
        },
        "comparison": comparison,
        "kernel": kernel,
        "sweep": sweep,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(f"\nartifact written to {args.out}")

    failed = False
    accuracy_gap = abs(
        comparison["new_train_accuracy"] - comparison["old_train_accuracy"]
    )
    if args.quick:
        if accuracy_gap > QUICK_ACCURACY_GATE:
            print(
                f"FAIL: train-accuracy gap {accuracy_gap:.4f} > {QUICK_ACCURACY_GATE}"
            )
            failed = True
    else:
        if comparison["prediction_agreement"] < AGREEMENT_GATE:
            print(
                f"FAIL: prediction agreement {comparison['prediction_agreement']:.6f} "
                f"< {AGREEMENT_GATE}"
            )
            failed = True
        if comparison["fit_speedup"] < args.min_speedup:
            print(
                f"FAIL: fit speedup {comparison['fit_speedup']:.1f}x "
                f"< required {args.min_speedup:.1f}x"
            )
            failed = True
    if "kernel_speedup" in kernel:
        if args.quick:
            if kernel["accuracy_gap"] > QUICK_ACCURACY_GATE:
                print(
                    f"FAIL: kernel-backend train-accuracy gap "
                    f"{kernel['accuracy_gap']:.4f} > {QUICK_ACCURACY_GATE}"
                )
                failed = True
        else:
            if kernel["prediction_agreement"] < AGREEMENT_GATE:
                print(
                    f"FAIL: kernel-backend prediction agreement "
                    f"{kernel['prediction_agreement']:.6f} < {AGREEMENT_GATE}"
                )
                failed = True
            if kernel["kernel_speedup"] < args.min_kernel_speedup:
                print(
                    f"FAIL: numba kernel speedup {kernel['kernel_speedup']:.1f}x "
                    f"< required {args.min_kernel_speedup:.1f}x"
                )
                failed = True
    if failed:
        return 1
    print("all parity/speedup gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
