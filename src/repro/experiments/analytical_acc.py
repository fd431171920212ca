"""Experiment E1 — analytical attacker accuracy (Fig. 1).

Reproduces the expected multi-collection profiling accuracy ``ACC^U`` (Eq. 4)
and ``ACC^NU`` (Eq. 5) of the five LDP protocols with the paper's parameters:
``d = 3`` attributes with domain sizes ``k = [74, 7, 16]`` (the first three
Adult attributes) over ``epsilon = 1..10``.

The figure is expressed as one grid cell per (metric, protocol) curve and
executed by the :mod:`repro.experiments.grid` engine.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..attacks.plausible_deniability import expected_profiling_accuracy
from ..metrics.accuracy import as_percentage
from .config import PAPER_EPSILONS
from .grid import CellStore, Executor, GridCell, cell_runner, execute_plan

#: Domain sizes used by Fig. 1 (first three Adult attributes).
FIG1_SIZES: tuple[int, ...] = (74, 7, 16)

#: Protocols plotted in Fig. 1.
FIG1_PROTOCOLS: tuple[str, ...] = ("GRR", "OLH", "SS", "SUE", "OUE")


@cell_runner("analytical_acc")
def _analytical_acc_cell(params: Mapping, rng: np.random.Generator) -> list[dict]:
    """One Fig. 1 curve: a (metric, protocol) pair over the ε grid."""
    metric, protocol = params["metric"], params["protocol"]
    rows = []
    for epsilon in params["epsilons"]:
        accuracy = expected_profiling_accuracy(protocol, epsilon, params["sizes"], metric)
        rows.append(
            {
                "figure": "fig1a" if metric == "uniform" else "fig1b",
                "metric": metric,
                "protocol": protocol,
                "epsilon": float(epsilon),
                "expected_acc_pct": as_percentage(accuracy),
            }
        )
    return rows


def plan_analytical_acc(
    epsilons: Sequence[float] = PAPER_EPSILONS,
    sizes: Sequence[int] = FIG1_SIZES,
    protocols: Sequence[str] = FIG1_PROTOCOLS,
    metrics: Sequence[str] = ("uniform", "non-uniform"),
    seed: int = 42,
    figure: str = "fig1",
) -> list[GridCell]:
    """Express the Fig. 1 computation as independent grid cells."""
    return [
        GridCell(
            figure=figure,
            runner="analytical_acc",
            params={
                "metric": metric,
                "protocol": protocol,
                "epsilons": [float(e) for e in epsilons],
                "sizes": [int(s) for s in sizes],
            },
            master_seed=seed,
        )
        for metric in metrics
        for protocol in protocols
    ]


def postprocess_analytical_acc(rows: list[dict]) -> list[dict]:
    """Fig. 1 rows are one-per-(metric, protocol, epsilon) already."""
    return rows


def run_analytical_acc(
    epsilons: Sequence[float] = PAPER_EPSILONS,
    sizes: Sequence[int] = FIG1_SIZES,
    protocols: Sequence[str] = FIG1_PROTOCOLS,
    metrics: Sequence[str] = ("uniform", "non-uniform"),
    seed: int = 42,
    figure: str = "fig1",
    workers: int = 1,
    cache: "CellStore | str | None" = None,
    executor: "Executor | None" = None,
    grid_info: dict | None = None,
) -> list[dict]:
    """Compute the Fig. 1 curves.

    Returns one row per (metric, protocol, epsilon) with the expected
    profiling accuracy in percent.
    """
    cells = plan_analytical_acc(
        epsilons=epsilons,
        sizes=sizes,
        protocols=protocols,
        metrics=metrics,
        seed=seed,
        figure=figure,
    )
    return execute_plan(
        cells,
        postprocess_analytical_acc,
        workers=workers,
        cache=cache,
        executor=executor,
        grid_info=grid_info,
    )
