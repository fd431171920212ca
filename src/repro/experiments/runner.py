"""Experiment runner: regenerate any figure of the paper from the command line.

``python -m repro.experiments fig2 --quick`` prints the rows behind Fig. 2.
Every figure of the evaluation (main body Figs. 1-6 and appendix Figs. 9-17)
has an entry; the ``--quick`` flag (the default; the inverse of ``--full``)
scales the workload down so a figure regenerates in seconds-to-minutes,
while the default parameters follow the paper's setup.

Every figure is described by a :class:`FigureSpec` — a *plan* function
expanding it into grid cells and a pure *postprocess* function aggregating
raw cell rows into the figure's final rows.  That split is what makes
execution pluggable: the same plan runs serially, across a process pool
(``--workers``), as one sharded invocation (``--shards N``), or split over
*separate* invocations on one host (``--shards N --shard-index i``
journaling each shard's cells, then ``--shards N --merge-shards``
reassembling the canonical figure artifact), or on the lease-based remote
executor (``--remote-workers N`` spawning local workers, ``--remote-listen``
accepting external ones, tuned by ``--lease-timeout`` / ``--max-retries``
with the coordinator's event journal in ``--remote-log``).  All paths
produce byte-identical rows.

Other engine knobs: ``--cache-dir`` / ``--no-cache`` control the on-disk
cell memo (one WAL-mode SQLite database that also carries a run ledger),
``--cache-max-entries`` / ``--cache-max-bytes`` bound its size, ``--seed``
overrides the master seed and ``--out`` persists rows, metadata and per-cell
timings as a figure artifact.  The figure-less maintenance command
``--show-runs [N]`` prints the run ledger.

Figure-less service commands: ``--serve HOST:PORT`` runs the live LDP
collection server of :mod:`repro.service` over the attributes given by
repeatable ``--attribute NAME:PROTOCOL:K:EPSILON`` flags, windowed by
``--window``; ``--snapshot URL`` prints the snapshot estimates of a running
service as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..exceptions import GridExecutionError, InvalidParameterError, ShardMergeError
from ..kernels import (
    KERNEL_BACKEND_CHOICES,
    KERNEL_BACKEND_ENV,
    active_backend_name,
    set_backend,
)
from .analytical_acc import plan_analytical_acc, postprocess_analytical_acc
from .attribute_inference_rsfd import (
    plan_attribute_inference_rsfd,
    postprocess_attribute_inference_rsfd,
)
from .attribute_inference_rsrfd import (
    plan_attribute_inference_rsrfd,
    postprocess_attribute_inference_rsrfd,
)
from .cellstore import SQLiteCellStore
from .config import PIE_BETAS, QUICK
from .grid import (
    CellStore,
    Executor,
    GridCell,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadedExecutor,
    execute_plan,
)
from .reident_rsfd import plan_reidentification_rsfd, postprocess_reidentification_rsfd
from .reident_smp import plan_reidentification_smp, postprocess_reidentification_smp
from .remote import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_RETRIES,
    RemoteExecutor,
    parse_listen,
)
from .reporting import format_table, save_artifact
from .sharding import (
    DEFAULT_GC_MAX_AGE_SECONDS,
    ShardedExecutor,
    gc_shard_workspaces,
    journal_artifacts,
    merge_artifacts,
    plan_fingerprint,
    plan_workspace,
    run_shard,
    validate_shards,
)
from .utility_rsrfd import plan_utility_rsrfd, postprocess_utility_rsrfd

#: Default on-disk cell-cache directory used by the CLI.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default root for per-figure shard directories used by the CLI.
DEFAULT_SHARD_ROOT = ".repro-shards"

#: Reduced grids used by the ``--quick`` mode.
_QUICK_EPSILONS = QUICK.epsilons
_QUICK_N = QUICK.n
_QUICK_N_CLASSIFIER = 1200
_QUICK_BETAS = (0.95, 0.8, 0.65, 0.5)


@dataclass(frozen=True)
class FigureSpec:
    """One figure's plan/postprocess pair behind the executor seam.

    Attributes
    ----------
    figure:
        Figure identifier (``"fig2"``, ...).
    plan:
        ``plan(seed)`` expands the figure into grid cells; ``seed=None``
        uses the experiment's default master seed (42).
    postprocess:
        Pure function turning the concatenated raw cell rows into the
        figure's final rows (e.g. averaging over repetitions).  Keeping it
        pure is what lets sharded invocations merge their journaled rows
        first and aggregate once.
    """

    figure: str
    plan: Callable[[int | None], list[GridCell]]
    postprocess: Callable[[list[dict]], list[dict]]


def _figure_specs(quick: bool) -> Mapping[str, FigureSpec]:
    """Build the figure-id → :class:`FigureSpec` mapping for one scale."""
    n = _QUICK_N if quick else None
    n_cls = _QUICK_N_CLASSIFIER if quick else None
    eps = _QUICK_EPSILONS if quick else None
    betas = _QUICK_BETAS if quick else PIE_BETAS
    kw_eps = {"epsilons": eps} if eps else {}

    def seeded(kwargs: dict, seed: int | None) -> dict:
        return kwargs if seed is None else {**kwargs, "seed": int(seed)}

    specs: dict[str, FigureSpec] = {}

    def add(figure: str, planner, postprocess, **kwargs) -> None:
        specs[figure] = FigureSpec(
            figure=figure,
            plan=lambda seed=None: planner(figure=figure, **seeded(kwargs, seed)),
            postprocess=postprocess,
        )

    add("fig1", plan_analytical_acc, postprocess_analytical_acc)
    add(
        "fig2",
        plan_reidentification_smp,
        postprocess_reidentification_smp,
        dataset_name="adult",
        n=n,
        knowledge="FK-RI",
        metric="uniform",
        **kw_eps,
    )
    add(
        "fig3",
        plan_attribute_inference_rsfd,
        postprocess_attribute_inference_rsfd,
        dataset_name="acs_employment",
        n=n_cls,
        **kw_eps,
    )
    add(
        "fig4",
        plan_reidentification_rsfd,
        postprocess_reidentification_rsfd,
        dataset_name="adult",
        n=n_cls,
        **kw_eps,
    )
    add(
        "fig5",
        plan_utility_rsrfd,
        postprocess_utility_rsrfd,
        dataset_name="acs_employment",
        n=n,
        prior_kinds=("correct", "dir"),
    )
    add(
        "fig6",
        plan_attribute_inference_rsrfd,
        postprocess_attribute_inference_rsrfd,
        dataset_name="acs_employment",
        n=n_cls,
        prior_kind="correct",
        **kw_eps,
    )
    add(
        "fig9",
        plan_reidentification_smp,
        postprocess_reidentification_smp,
        dataset_name="acs_employment",
        n=n,
        knowledge="FK-RI",
        metric="uniform",
        **kw_eps,
    )
    add(
        "fig10",
        plan_reidentification_smp,
        postprocess_reidentification_smp,
        dataset_name="adult",
        n=n,
        knowledge="PK-RI",
        metric="uniform",
        **kw_eps,
    )
    add(
        "fig11",
        plan_reidentification_smp,
        postprocess_reidentification_smp,
        dataset_name="adult",
        n=n,
        knowledge="FK-RI",
        metric="non-uniform",
        **kw_eps,
    )
    add(
        "fig12",
        plan_reidentification_smp,
        postprocess_reidentification_smp,
        dataset_name="adult",
        n=n,
        knowledge="FK-RI",
        metric="uniform",
        pie_betas=betas,
    )
    add(
        "fig13",
        plan_reidentification_smp,
        postprocess_reidentification_smp,
        dataset_name="adult",
        n=n,
        knowledge="FK-RI",
        metric="non-uniform",
        pie_betas=betas,
    )
    add(
        "fig14",
        plan_attribute_inference_rsfd,
        postprocess_attribute_inference_rsfd,
        dataset_name="adult",
        n=n_cls,
        **kw_eps,
    )
    add(
        "fig15",
        plan_attribute_inference_rsfd,
        postprocess_attribute_inference_rsfd,
        dataset_name="nursery",
        n=n_cls,
        **kw_eps,
    )
    add(
        "fig16",
        plan_utility_rsrfd,
        lambda rows: postprocess_utility_rsrfd(rows, include_analytical=True),
        dataset_name="adult",
        n=n,
        prior_kinds=("correct", "dir", "zipf", "exp"),
        include_analytical=True,
    )
    add(
        "fig17",
        plan_attribute_inference_rsrfd,
        postprocess_attribute_inference_rsrfd,
        dataset_name="acs_employment",
        n=n_cls,
        prior_kind="dir",
        models=("NK",),
        **kw_eps,
    )
    return specs


def figure_spec(figure: str, quick: bool = True) -> FigureSpec:
    """Resolve a figure identifier to its :class:`FigureSpec`.

    Unknown identifiers raise
    :class:`~repro.exceptions.InvalidParameterError` listing the valid ones.
    """
    specs = _figure_specs(quick)
    key = figure.strip().lower()
    if key not in specs:
        raise InvalidParameterError(
            f"unknown experiment {figure!r}; valid figures: {', '.join(sorted(specs))}"
        )
    return specs[key]


def available_experiments() -> tuple[str, ...]:
    """Identifiers accepted by :func:`run_experiment`."""
    return tuple(_figure_specs(quick=True))


def run_experiment(
    figure: str,
    quick: bool = True,
    workers: int = 1,
    cache: "CellStore | str | None" = None,
    seed: int | None = None,
    grid_info: dict | None = None,
    executor: "Executor | None" = None,
) -> list[dict]:
    """Run the experiment behind ``figure`` (e.g. ``"fig2"``) and return rows.

    Parameters
    ----------
    figure:
        Figure identifier; unknown identifiers raise
        :class:`~repro.exceptions.InvalidParameterError` listing the valid
        ones.
    quick:
        Reduced grids (default) versus the paper-scale parameters.
    workers, cache, seed:
        Grid-engine knobs: process-pool size, on-disk cell cache (directory
        or :class:`~repro.experiments.grid.CellStore`) and master seed.
    grid_info:
        Optional dictionary updated in place with the engine's execution
        summary (cell counts, cache hits, per-cell timings).
    executor:
        Optional :class:`~repro.experiments.grid.Executor` overriding the
        default serial/pool choice (e.g. a
        :class:`~repro.experiments.sharding.ShardedExecutor`).
    """
    spec = figure_spec(figure, quick)
    return execute_plan(
        spec.plan(seed),
        spec.postprocess,
        workers=workers,
        cache=cache,
        executor=executor,
        grid_info=grid_info,
    )


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer, rejected at parse time."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0, rejected at parse time."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type: a finite float >= 0, rejected at parse time."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}"
        ) from None
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive float, rejected at parse time."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _listen_address(text: str) -> str:
    """argparse type: a HOST:PORT listen address, rejected at parse time."""
    try:
        parse_listen(text)
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the figures of the VLDB 2023 LDP-risks paper.",
    )
    parser.add_argument(
        "figure",
        nargs="?",
        default=None,
        help=f"figure identifier, one of: {', '.join(sorted(available_experiments()))} "
        "(omittable only with the maintenance flag --show-runs)",
    )
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced quick preset (this is the default)",
    )
    scale.add_argument(
        "--full",
        action="store_true",
        help="use the paper-scale parameters instead of the quick preset",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="number of worker processes executing grid cells (default: 1)",
    )
    parser.add_argument(
        "--executor",
        choices=("serial", "process", "thread"),
        default=None,
        help="how grid cells run: 'serial' one at a time, 'process' the "
        "multiprocessing pool, 'thread' an in-process thread pool with "
        "--workers N threads (profitable with the numba kernel backend, "
        "whose compiled kernels release the GIL; rows are byte-identical "
        "either way); default: serial for --workers 1, process otherwise",
    )
    parser.add_argument(
        "--kernel-backend",
        choices=KERNEL_BACKEND_CHOICES,
        default=None,
        help="numeric kernels for the hot paths: 'numpy' (pure NumPy, "
        "always available), 'numba' (JIT-compiled; an error if numba is "
        "not installed) or 'auto' (numba when importable, silently NumPy "
        f"otherwise); default: the {KERNEL_BACKEND_ENV} environment "
        "variable, else auto",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"on-disk cell-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk cell cache",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=_positive_int,
        default=None,
        metavar="N",
        help="evict least-recently-used cache entries beyond N (default: unbounded)",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=_positive_int,
        default=None,
        metavar="B",
        help="evict least-recently-used cache entries beyond B total bytes "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="persist rows + metadata + timings under DIR/<figure>/",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="SEED",
        help="master seed for the grid (default: each experiment's default, 42)",
    )
    sharding = parser.add_argument_group(
        "sharded execution",
        "split a figure's cells into N deterministic shards; run any shard in "
        "its own invocation on this host, then merge the shard journal back "
        "into the canonical figure artifact (byte-identical to a "
        "single-invocation run)",
    )
    sharding.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help="number of shards; alone it runs all shards from this invocation "
        "via the sharded executor",
    )
    sharding.add_argument(
        "--shard-index",
        type=_nonnegative_int,
        default=None,
        metavar="I",
        help="execute only shard I (0-based), journaling each completed cell; "
        "re-invoking resumes, recomputing only the missing cells",
    )
    sharding.add_argument(
        "--merge-shards",
        action="store_true",
        help="merge the journaled cells of all N shards into the figure's rows",
    )
    sharding.add_argument(
        "--shard-dir",
        default=None,
        metavar="DIR",
        help="directory holding the per-plan shard journals "
        f"(default: {DEFAULT_SHARD_ROOT}/<figure>)",
    )
    sharding.add_argument(
        "--gc-shards",
        action="store_true",
        help="instead of running the figure, sweep orphaned per-plan "
        "workspaces under the shard directory (interrupted cached runs can "
        "leave them behind) and exit; workspaces whose newest file is "
        "younger than --gc-max-age are never touched",
    )
    sharding.add_argument(
        "--gc-max-age",
        type=_nonnegative_float,
        default=DEFAULT_GC_MAX_AGE_SECONDS,
        metavar="SECONDS",
        help="age threshold for --gc-shards "
        f"(default: {DEFAULT_GC_MAX_AGE_SECONDS:.0f}s = 7 days)",
    )
    remote = parser.add_argument_group(
        "remote execution",
        "lease cells to networked workers over HTTP: the coordinator "
        "re-leases any cell whose worker stops heartbeating, idle workers "
        "steal from stragglers, and rows stream back into the cell cache "
        "(byte-identical to a serial run under any failure schedule)",
    )
    remote.add_argument(
        "--remote-listen",
        type=_listen_address,
        default=None,
        metavar="HOST:PORT",
        help="run this figure through the remote executor, listening on "
        "HOST:PORT (port 0 = ephemeral); with --remote-workers 0 the "
        "coordinator only waits for external remote_worker processes",
    )
    remote.add_argument(
        "--remote-workers",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="spawn N local remote_worker subprocesses (implies remote "
        "mode; default listen address is 127.0.0.1:0)",
    )
    remote.add_argument(
        "--lease-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="re-lease a cell whose heartbeat lapses this long "
        f"(default: {DEFAULT_LEASE_TIMEOUT:.0f}s; requires remote mode)",
    )
    remote.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="re-grants per cell before the run is declared failed "
        f"(default: {DEFAULT_MAX_RETRIES}; requires remote mode)",
    )
    remote.add_argument(
        "--remote-log",
        default=None,
        metavar="FILE",
        help="write the coordinator's lease/heartbeat event journal to FILE "
        "as JSON lines (requires remote mode)",
    )
    service = parser.add_argument_group(
        "live collection service",
        "figure-less commands around the repro.service collection server: "
        "ingest LDP report batches for many attributes concurrently with "
        "O(k) state per attribute, windowed estimates and bounded-queue "
        "backpressure (HTTP 429 + Retry-After)",
    )
    service.add_argument(
        "--serve",
        type=_listen_address,
        default=None,
        metavar="HOST:PORT",
        help="run a collection service on HOST:PORT (port 0 = ephemeral) "
        "until interrupted; requires at least one --attribute",
    )
    service.add_argument(
        "--attribute",
        action="append",
        default=None,
        metavar="NAME:PROTOCOL:K:EPSILON",
        help="attribute to collect under --serve, e.g. age:GRR:16:1.0 "
        "(repeatable); with --snapshot, restrict the printed estimates to "
        "these attribute names",
    )
    service.add_argument(
        "--window",
        default=None,
        metavar="SPEC",
        help="window shape for --serve: cumulative (default), "
        "tumbling:SECONDS or sliding:SECONDSxPANES",
    )
    service.add_argument(
        "--queue-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="ingest-queue bound in batches for --serve; a full queue is "
        "backpressure (HTTP 429), never unbounded memory",
    )
    service.add_argument(
        "--snapshot",
        default=None,
        metavar="URL",
        help="print the snapshot estimate of every attribute of the running "
        "collection service at URL as JSON lines, then exit",
    )
    maintenance = parser.add_argument_group(
        "cell-store maintenance",
        "figure-less commands operating on the --cache-dir cell store",
    )
    maintenance.add_argument(
        "--show-runs",
        type=_positive_int,
        nargs="?",
        const=20,
        default=None,
        metavar="N",
        help="print the newest N entries (default 20) of the cell store's "
        "run ledger as JSON lines and exit",
    )
    return parser


def _shard_root(args: argparse.Namespace) -> str:
    return args.shard_dir or f"{DEFAULT_SHARD_ROOT}/{args.figure.strip().lower()}"


def _record_run(
    cache: SQLiteCellStore | None,
    kind: str,
    figure: str | None,
    summary: dict,
    started_at: float,
) -> None:
    """Append to the cell store's run ledger (no-op without a cache)."""
    if cache is not None:
        cache.record_run(
            kind,
            figure=figure,
            summary=summary,
            started_at=started_at,
            finished_at=time.time(),
        )


def _shard_main(args: argparse.Namespace, cache: SQLiteCellStore | None) -> int:
    """Handle the ``--shard-index`` / ``--merge-shards`` CLI paths."""
    figure = args.figure.strip().lower()
    spec = figure_spec(figure, quick=not args.full)
    shards = validate_shards(args.shards, args.shard_index)
    cells = spec.plan(args.seed)
    started_at = time.time()
    # per-plan workspace inside the shard root: the same layout
    # ShardedExecutor uses, so quick/full/seed variants never collide
    workspace = plan_workspace(_shard_root(args), cells)

    if args.shard_index is not None:
        result = run_shard(
            cells,
            shards,
            args.shard_index,
            workspace,
            workers=args.workers,
            cache=cache,
        )
        _record_run(cache, "run_shard", figure, result.summary(), started_at)
        print(json.dumps(result.summary()))
        return 0

    merged = merge_artifacts(
        cells,
        journal_artifacts(workspace, plan_fingerprint(cells), shards),
        expected_shards=shards,
    )
    rows = spec.postprocess(merged.rows)
    _record_run(cache, "merge_shards", figure, merged.summary(), started_at)
    print(format_table(rows))
    _write_figure_artifact(args, figure, rows, merged.summary())
    return 0


def _write_figure_artifact(
    args: argparse.Namespace, figure: str, rows: list[dict], grid_summary: dict
) -> None:
    """Persist a figure artifact when ``--out`` is given (shared CLI tail)."""
    if args.out is None:
        return
    metadata = {
        "quick": not args.full,
        "seed": args.seed,
        "cache_dir": None if args.no_cache else str(args.cache_dir),
        "kernel_backend": active_backend_name(),
        "grid": grid_summary,
    }
    directory = save_artifact(args.out, figure, rows, metadata)
    print(f"artifact written to {directory}", file=sys.stderr)


def _service_main(
    args: argparse.Namespace, stop: "Callable[[], None] | None" = None
) -> int:
    """Handle the figure-less ``--serve`` / ``--snapshot`` paths.

    ``stop`` is a test seam: under ``--serve`` it replaces the
    wait-until-interrupted loop (production passes ``None``).
    """
    from ..service.client import CollectionClient, ServiceUnavailableError
    from ..service.server import CollectionService, parse_attribute_spec

    if args.snapshot is not None:
        wanted = None
        if args.attribute:
            # accept bare names or full NAME:PROTOCOL:K:EPSILON specs
            wanted = {spec.split(":", 1)[0] for spec in args.attribute}
        try:
            with CollectionClient(args.snapshot) as client:
                names = sorted(client.stats()["attributes"])
                for name in names:
                    if wanted is not None and name not in wanted:
                        continue
                    print(json.dumps(client.estimate(name), sort_keys=True))
        except ServiceUnavailableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    try:
        service = CollectionService(
            listen=parse_listen(args.serve),
            window=args.window or "cumulative",
            queue_size=args.queue_size or 256,
        )
        for spec in args.attribute:
            service.registry.register(**parse_attribute_spec(spec))
        service.start()
    except (InvalidParameterError, OSError) as exc:  # OSError: cannot bind
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(f"collection service listening on {service.url}", flush=True)
        if stop is not None:
            stop()
        else:  # pragma: no cover - interactive serve loop
            import threading

            try:
                threading.Event().wait()
            except KeyboardInterrupt:
                print("shutting down", file=sys.stderr)
    finally:
        service.stop()
    return 0


def _show_runs_main(args: argparse.Namespace) -> int:
    """Handle the figure-less ``--show-runs`` path."""
    try:
        store = SQLiteCellStore.for_directory(
            args.cache_dir,
            max_entries=args.cache_max_entries,
            max_bytes=args.cache_max_bytes,
        )
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with store:
        for entry in store.runs_ledger(limit=args.show_runs):
            print(json.dumps(entry))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Command-line entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.gc_shards and (
        args.shards is not None or args.shard_index is not None or args.merge_shards
    ):
        parser.error(
            "--gc-shards cannot be combined with --shards/--shard-index/--merge-shards"
        )
    if args.no_cache and (
        args.cache_max_entries is not None or args.cache_max_bytes is not None
    ):
        parser.error(
            "--cache-max-entries/--cache-max-bytes bound the on-disk cell "
            "cache and cannot be combined with --no-cache"
        )
    if args.executor == "serial" and args.workers != 1:
        parser.error(
            "--executor serial runs cells one at a time; drop --workers or "
            "pick --executor process/thread"
        )
    # select the process-wide kernel backend up front so every path (figures,
    # service, maintenance) validates REPRO_KERNEL_BACKEND / --kernel-backend
    # the same way, and a numba request without numba fails fast
    try:
        set_backend(args.kernel_backend)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    remote_mode = args.remote_listen is not None or args.remote_workers is not None
    if remote_mode:
        if (
            args.shards is not None
            or args.shard_index is not None
            or args.merge_shards
            or args.gc_shards
        ):
            parser.error(
                "remote execution (--remote-listen/--remote-workers) cannot "
                "be combined with --shards/--shard-index/--merge-shards/--gc-shards"
            )
        if args.workers != 1:
            parser.error(
                "--workers selects the in-process pool and has no effect on "
                "remote execution; use --remote-workers N instead"
            )
        if args.executor is not None:
            parser.error(
                "--executor selects the in-process execution strategy and "
                "has no effect on remote execution"
            )
    elif (
        args.lease_timeout is not None
        or args.max_retries is not None
        or args.remote_log is not None
    ):
        parser.error(
            "--lease-timeout/--max-retries/--remote-log tune remote "
            "execution and require --remote-listen or --remote-workers"
        )
    service_mode = args.serve is not None or args.snapshot is not None
    if service_mode:
        if args.serve is not None and args.snapshot is not None:
            parser.error("--serve and --snapshot are mutually exclusive")
        if (
            args.figure is not None
            or args.shards is not None
            or args.shard_index is not None
            or args.merge_shards
            or args.gc_shards
            or remote_mode
            or args.show_runs is not None
            or args.out is not None
            or args.executor is not None
        ):
            parser.error(
                "--serve/--snapshot are figure-less service commands and "
                "cannot be combined with a figure, sharding, remote-execution, "
                "executor or maintenance flags"
            )
        if args.snapshot is not None and (
            args.window is not None or args.queue_size is not None
        ):
            parser.error(
                "--window/--queue-size configure the server and require --serve"
            )
        if args.serve is not None and not args.attribute:
            parser.error(
                "--serve requires at least one --attribute NAME:PROTOCOL:K:EPSILON"
            )
        return _service_main(args)
    if args.window is not None or args.attribute is not None or args.queue_size is not None:
        parser.error(
            "--window/--attribute/--queue-size configure the collection "
            "service and require --serve or --snapshot"
        )
    if args.show_runs is not None:
        if (
            args.figure is not None
            or args.shards is not None
            or args.shard_index is not None
            or args.merge_shards
            or args.gc_shards
            or args.shard_dir is not None
            or remote_mode
            or args.executor is not None
        ):
            parser.error(
                "--show-runs is a figure-less maintenance command and cannot "
                "be combined with a figure, sharding, remote-execution or "
                "executor flags"
            )
        if args.out is not None:
            parser.error(
                "--show-runs prints JSON to stdout and writes no figure "
                "artifact; --out requires a figure"
            )
        if args.no_cache:
            parser.error("--show-runs requires a cache directory")
        return _show_runs_main(args)
    if args.figure is None:
        parser.error("a figure identifier is required")
    if args.gc_shards:
        print(json.dumps(gc_shard_workspaces(_shard_root(args), args.gc_max_age)))
        return 0
    if (args.shard_index is not None or args.merge_shards) and args.shards is None:
        parser.error("--shard-index/--merge-shards require --shards N")
    if args.shard_index is not None and args.merge_shards:
        parser.error("--shard-index and --merge-shards are mutually exclusive")
    if args.shard_index is not None and args.out is not None:
        parser.error(
            "--out has no effect on a single-shard invocation; "
            "pass it to --merge-shards instead"
        )
    if args.executor is not None and args.shards is not None:
        parser.error(
            "--executor selects the in-process execution strategy; sharded "
            "runs distribute cells through their own shard workers (--workers)"
        )
    grid_info: dict = {}
    cache = None
    started_at = time.time()
    try:
        cache = CellStore.from_options(
            None if args.no_cache else args.cache_dir,
            max_entries=args.cache_max_entries,
            max_bytes=args.cache_max_bytes,
        )
        if args.shard_index is not None or args.merge_shards:
            return _shard_main(args, cache)
        executor = None
        if remote_mode:
            executor = RemoteExecutor(
                workers=(
                    args.remote_workers if args.remote_workers is not None else 0
                ),
                listen=args.remote_listen or "127.0.0.1:0",
                lease_timeout=(
                    args.lease_timeout
                    if args.lease_timeout is not None
                    else DEFAULT_LEASE_TIMEOUT
                ),
                max_retries=(
                    args.max_retries
                    if args.max_retries is not None
                    else DEFAULT_MAX_RETRIES
                ),
                event_log=args.remote_log,
            )
        elif args.shards is not None:
            # persistent per-figure shard root (the documented default), so
            # an interrupted sharded run resumes instead of starting over;
            # the shared cell cache is handed to the shard workers too
            executor = ShardedExecutor(
                args.shards,
                directory=_shard_root(args),
                workers=args.workers,
                cache_dir=None if args.no_cache else args.cache_dir,
                cache_max_entries=None if args.no_cache else args.cache_max_entries,
                cache_max_bytes=None if args.no_cache else args.cache_max_bytes,
            )
        elif args.executor is not None:
            if args.executor == "thread":
                executor = ThreadedExecutor(args.workers)
            elif args.executor == "process":
                executor = ProcessPoolExecutor(args.workers)
            else:
                executor = SerialExecutor()
        rows = run_experiment(
            args.figure,
            quick=not args.full,
            workers=args.workers,
            cache=cache,
            seed=args.seed,
            grid_info=grid_info,
            executor=executor,
        )
        _record_run(cache, "run_grid", args.figure.strip().lower(), grid_info, started_at)
    except (InvalidParameterError, GridExecutionError, ShardMergeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if cache is not None:
            cache.close()
    print(format_table(rows))
    _write_figure_artifact(args, args.figure.strip().lower(), rows, grid_info)
    return 0
