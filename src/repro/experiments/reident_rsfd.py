"""Experiment E4 — re-identification risk of the RS+FD solution (Fig. 4).

The paper shows that when users adopt RS+FD[GRR] instead of SMP, the
re-identification attack collapses: the attacker must first predict the
sampled attribute (NK attribute-inference with ``s = 1n``) and then infer its
value, and the chained errors across surveys keep the RID-ACC close to the
random baseline.

Grid decomposition: one cell per (repetition, epsilon), with the survey plan
of a repetition derived from the master seed and the repetition index alone.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..attacks.attribute_inference import ClassifierFactory
from ..attacks.profile import build_profiles_rsfd, plan_surveys
from ..attacks.reidentification import ReidentificationAttack
from ..core.rng import derive_rng
from ..datasets.loaders import load_dataset
from ..metrics.accuracy import as_percentage
from .attribute_inference_rsfd import classifier_name, resolve_classifier_factory
from .config import PAPER_EPSILONS
from .grid import CellStore, Executor, GridCell, cell_runner, execute_plan
from .reporting import mean_rows


@cell_runner("reident_rsfd")
def _reident_rsfd_cell(params: Mapping, rng: np.random.Generator) -> list[dict]:
    """One (repetition, epsilon) cell of Fig. 4."""
    dataset = load_dataset(
        params["dataset"], n=params["n"], rng=int(params["dataset_seed"])
    )
    surveys_rng = derive_rng(
        int(params["seed"]), "reident_rsfd", "surveys", int(params["run"])
    )
    surveys = plan_surveys(dataset.d, int(params["num_surveys"]), rng=surveys_rng)
    reident = ReidentificationAttack(dataset, rng=rng)
    profiling = build_profiles_rsfd(
        dataset,
        surveys,
        epsilon=float(params["epsilon"]),
        variant=params["variant"],
        ue_kind=params["ue_kind"],
        metric=params["metric"],
        synthetic_factor=float(params["synthetic_factor"]),
        classifier_factory=resolve_classifier_factory(params["classifier"]),
        amortize_nk=bool(params.get("amortize_nk", True)),
        rng=rng,
    )
    rows: list[dict] = []
    for top_k in params["top_ks"]:
        results = reident.evaluate_profiling(
            profiling,
            top_k=int(top_k),
            model=params["knowledge"],
            min_surveys=int(params["min_surveys"]),
            redraw_attributes=bool(params.get("redraw_attributes", False)),
        )
        for surveys_done, result in results.items():
            rows.append(
                {
                    "dataset": params["dataset"],
                    "protocol": profiling.extra.get("variant", params["variant"]),
                    "epsilon": float(params["epsilon"]),
                    "metric": params["metric"],
                    "knowledge": params["knowledge"],
                    "surveys": surveys_done,
                    "top_k": int(top_k),
                    "rid_acc_pct": as_percentage(result.accuracy),
                    "baseline_pct": as_percentage(result.baseline),
                }
            )
    return rows


def postprocess_reidentification_rsfd(rows: list[dict]) -> list[dict]:
    """Average raw cell rows over repetitions (the figure's final rows)."""
    group_by = [
        "dataset",
        "protocol",
        "epsilon",
        "metric",
        "knowledge",
        "surveys",
        "top_k",
    ]
    return mean_rows(rows, group_by, ["rid_acc_pct", "baseline_pct"])


def plan_reidentification_rsfd(
    dataset_name: str = "adult",
    n: int | None = None,
    epsilons: Sequence[float] = PAPER_EPSILONS,
    num_surveys: int = 5,
    top_ks: Sequence[int] = (1, 10),
    variant: str = "grr",
    ue_kind: str = "OUE",
    synthetic_factor: float = 1.0,
    metric: str = "uniform",
    knowledge: str = "FK-RI",
    classifier_factory: ClassifierFactory | None = None,
    min_surveys: int = 2,
    runs: int = 1,
    seed: int = 42,
    figure: str = "reident_rsfd",
    amortize_nk: bool = True,
    redraw_attributes: bool = False,
) -> list[GridCell]:
    """Express the RS+FD re-identification grid as independent cells.

    ``amortize_nk`` trains the NK sampled-attribute classifier once per
    distinct survey attribute set instead of once per survey (see
    :func:`repro.attacks.profile.build_profiles_rsfd`); it is part of the
    cell parameters, so flipping it never reuses stale cache entries.
    """
    classifier = classifier_name(classifier_factory)
    cells = []
    for run_index in range(runs):
        for epsilon in epsilons:
            cells.append(
                GridCell(
                    figure=figure,
                    runner="reident_rsfd",
                    params={
                        "dataset": dataset_name,
                        "n": n,
                        "dataset_seed": seed,
                        "seed": seed,
                        "run": run_index,
                        "epsilon": float(epsilon),
                        "num_surveys": num_surveys,
                        "top_ks": [int(k) for k in top_ks],
                        "variant": variant,
                        "ue_kind": ue_kind,
                        "synthetic_factor": float(synthetic_factor),
                        "metric": metric,
                        "knowledge": knowledge,
                        "min_surveys": min_surveys,
                        "classifier": classifier,
                        "amortize_nk": bool(amortize_nk),
                        "redraw_attributes": bool(redraw_attributes),
                    },
                    master_seed=seed,
                )
            )
    return cells


def run_reidentification_rsfd(
    dataset_name: str = "adult",
    n: int | None = None,
    epsilons: Sequence[float] = PAPER_EPSILONS,
    num_surveys: int = 5,
    top_ks: Sequence[int] = (1, 10),
    variant: str = "grr",
    ue_kind: str = "OUE",
    synthetic_factor: float = 1.0,
    metric: str = "uniform",
    knowledge: str = "FK-RI",
    classifier_factory: ClassifierFactory | None = None,
    min_surveys: int = 2,
    runs: int = 1,
    seed: int = 42,
    figure: str = "reident_rsfd",
    amortize_nk: bool = True,
    redraw_attributes: bool = False,
    workers: int = 1,
    cache: "CellStore | str | None" = None,
    executor: "Executor | None" = None,
    grid_info: dict | None = None,
) -> list[dict]:
    """Measure RID-ACC when users adopt RS+FD (Fig. 4 setup).

    Defaults follow the paper: RS+FD[GRR], NK attribute inference with
    ``s = 1n`` synthetic profiles, FK-RI matching and the uniform privacy
    metric across users.
    """
    cells = plan_reidentification_rsfd(
        dataset_name=dataset_name,
        n=n,
        epsilons=epsilons,
        num_surveys=num_surveys,
        top_ks=top_ks,
        variant=variant,
        ue_kind=ue_kind,
        synthetic_factor=synthetic_factor,
        metric=metric,
        knowledge=knowledge,
        classifier_factory=classifier_factory,
        min_surveys=min_surveys,
        runs=runs,
        seed=seed,
        figure=figure,
        amortize_nk=amortize_nk,
        redraw_attributes=redraw_attributes,
    )
    return execute_plan(
        cells,
        postprocess_reidentification_rsfd,
        workers=workers,
        cache=cache,
        executor=executor,
        grid_info=grid_info,
    )
