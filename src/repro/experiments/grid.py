"""Declarative parallel experiment-grid engine.

The paper's evaluation is a large grid of (dataset × solution × frequency
oracle × ε × seed) combinations.  Instead of hand-rolled nested loops, every
figure is expressed as a list of independent :class:`GridCell`\\ s and handed
to :func:`run_grid`, which

* fans the cells out across a pluggable :class:`Executor`
  (:class:`SerialExecutor`, :class:`ProcessPoolExecutor`, or the
  subprocess-launchable :class:`repro.experiments.sharding.ShardedExecutor`;
  ``workers > 1`` selects the process pool),
* derives every cell's random stream deterministically from a single master
  seed and the cell's configuration (see
  :func:`repro.core.rng.derive_rng`), so results are bit-identical for any
  worker count and scheduling order,
* memoizes completed cells in an on-disk SQLite cell store keyed by a
  content hash of the cell configuration (:class:`CellStore`), so
  re-running a figure — or another figure sharing cells — skips completed
  work, and
* deduplicates identical cells within a single run even without a cache.

Cell *runners* are plain top-level functions registered by name with the
:func:`cell_runner` decorator; they receive the cell's parameter mapping and
a derived :class:`numpy.random.Generator` and return a list of flat row
dictionaries.  Registration by name keeps cells picklable (worker processes
resolve the runner from the registry) and cache keys stable.
"""

from __future__ import annotations

import abc
import concurrent.futures
import functools
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from ..core.rng import derive_rng
from ..exceptions import GridExecutionError, InvalidParameterError

if TYPE_CHECKING:
    from .cellstore import SQLiteCellStore

#: Bumped whenever cell semantics change in a way that invalidates old
#: cached rows; part of every cache key.  2: the level-wise GBDT rewrite
#: changed the default attack classifier's predictions, so rows cached by
#: schema 1 must not be mixed into regenerated figures.
GRID_SCHEMA_VERSION = 2

#: A cell runner maps ``(params, rng) -> rows``.
CellRunner = Callable[[Mapping[str, Any], np.random.Generator], "list[dict[str, Any]]"]

_CELL_RUNNERS: dict[str, CellRunner] = {}


def cell_runner(name: str) -> Callable[[CellRunner], CellRunner]:
    """Register a top-level function as the grid runner called ``name``."""

    def register(fn: CellRunner) -> CellRunner:
        _CELL_RUNNERS[name] = fn
        return fn

    return register


def get_cell_runner(name: str) -> CellRunner:
    """Resolve a registered cell runner by name.

    Importing :mod:`repro.experiments` registers the runners of all seven
    experiment modules; worker processes started with the ``spawn`` method
    go through this import on their first cell.
    """
    if name not in _CELL_RUNNERS:
        import repro.experiments  # noqa: F401  (registers the built-in runners)
    if name not in _CELL_RUNNERS:
        raise InvalidParameterError(
            f"unknown cell runner {name!r}; registered runners: {sorted(_CELL_RUNNERS)}"
        )
    return _CELL_RUNNERS[name]


def registered_cell_runners() -> tuple[str, ...]:
    """Names of all currently registered cell runners."""
    return tuple(sorted(_CELL_RUNNERS))


# --------------------------------------------------------------------------- #
# canonical serialization
# --------------------------------------------------------------------------- #
def _jsonable(value: Any) -> Any:
    """Convert ``value`` to plain JSON types, canonicalizing containers."""
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, Path):
        return str(value)
    raise InvalidParameterError(
        f"grid cell parameters must be JSON-serializable, got {type(value)!r}"
    )


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------- #
# cells
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GridCell:
    """One independent unit of work of an experiment grid.

    Attributes
    ----------
    figure:
        Figure the cell contributes to (label only — two figures sharing an
        identical cell configuration also share its cache entry).
    runner:
        Name of the registered cell runner executing the cell.
    params:
        JSON-serializable parameter mapping handed to the runner.  It must
        not be mutated after construction: :attr:`key` and
        :attr:`config_hash` are computed once, on first use, and kept.
    master_seed:
        Master seed of the grid; the cell's generator is derived from it and
        the cell key, independently of scheduling.
    """

    figure: str
    runner: str
    params: Mapping[str, Any] = field(default_factory=dict)
    master_seed: int = 42

    @functools.cached_property
    def key(self) -> str:
        """Canonical cell key: runner plus canonical parameter JSON."""
        return f"{self.runner}:{canonical_json(self.params)}"

    @functools.cached_property
    def config_hash(self) -> str:
        """Content hash identifying the cell's work (cache key).

        Deliberately excludes ``figure`` so identical work shared by several
        figures is computed (and cached) once.
        """
        payload = canonical_json(
            {
                "schema": GRID_SCHEMA_VERSION,
                "runner": self.runner,
                "params": self.params,
                "master_seed": self.master_seed,
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def make_rng(self) -> np.random.Generator:
        """The cell's deterministic random stream."""
        return derive_rng(self.master_seed, "grid-cell", self.key)

    def payload(self) -> dict[str, Any]:
        """JSON-serializable description of the cell (plan files, workers)."""
        return {
            "figure": self.figure,
            "runner": self.runner,
            "params": _jsonable(self.params),
            "master_seed": int(self.master_seed),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "GridCell":
        """Reconstruct a cell from :meth:`payload` output (e.g. a plan file)."""
        try:
            return cls(
                figure=str(payload["figure"]),
                runner=str(payload["runner"]),
                params=dict(payload["params"]),
                master_seed=int(payload["master_seed"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameterError(f"malformed grid-cell payload: {exc}") from exc


# --------------------------------------------------------------------------- #
# the cell-store seam
# --------------------------------------------------------------------------- #
class CellStore(abc.ABC):
    """Storage seam behind the grid engine's completed-cell memo.

    :func:`run_grid` (and everything above it) only relies on this
    interface; :class:`repro.experiments.cellstore.SQLiteCellStore` keeps
    every entry — plus shard completion journals and a run ledger — in one
    WAL-mode SQLite database.  Implementations must degrade I/O failures to
    a once-warned cache miss rather than aborting a grid run.
    """

    @abc.abstractmethod
    def lookup(
        self, cells: Sequence["GridCell"]
    ) -> "list[list[dict[str, Any]] | None]":
        """Cached rows of each of ``cells`` in order (``None`` on a miss).

        One call serves a whole plan, so a store can batch its reads.
        """

    @abc.abstractmethod
    def put(
        self, cell: "GridCell", rows: Sequence[Mapping[str, Any]], elapsed: float
    ) -> "Path | None":
        """Persist the rows of a freshly computed cell (``None`` on failure)."""

    @abc.abstractmethod
    def stats(self) -> dict[str, Any]:
        """Current occupancy and configured bounds."""

    @classmethod
    def from_options(
        cls,
        directory: "str | Path | None",
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> "SQLiteCellStore | None":
        """Build a cell store from optional CLI-style options (``None`` → no cache).

        The one place the ``(directory, max_entries, max_bytes)`` wiring
        lives; the runner, the shard worker and the sharded executor all
        construct their caches through it so a future option cannot silently
        diverge between the parent and its workers.  The store lives in
        ``<directory>/cells.sqlite``.
        """
        if directory is None:
            return None
        from .cellstore import SQLiteCellStore  # late: avoids a cycle

        return SQLiteCellStore.for_directory(
            directory, max_entries=max_entries, max_bytes=max_bytes
        )


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
@dataclass
class CellOutcome:
    """Execution record of one grid cell."""

    cell: GridCell
    rows: list[dict[str, Any]]
    elapsed: float
    source: str  # "computed" | "cache" | "dedup" | "resumed"

    @property
    def cached(self) -> bool:
        """Whether the cell was served from the on-disk cache."""
        return self.source == "cache"


@dataclass
class GridResult:
    """Rows plus execution metadata of one :func:`run_grid` call."""

    rows: list[dict[str, Any]]
    outcomes: list[CellOutcome]
    elapsed: float
    workers: int
    executor: str = "SerialExecutor"

    @property
    def n_cells(self) -> int:
        return len(self.outcomes)

    @property
    def from_cache(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.source == "cache")

    @property
    def computed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.source == "computed")

    @property
    def deduplicated(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.source == "dedup")

    @property
    def resumed(self) -> int:
        """Cells restored from a prior interrupted run's shard journal."""
        return sum(1 for outcome in self.outcomes if outcome.source == "resumed")

    def summary(self) -> dict[str, Any]:
        """JSON-serializable execution summary (for figure artifacts)."""
        return {
            "cells": self.n_cells,
            "computed": self.computed,
            "from_cache": self.from_cache,
            "deduplicated": self.deduplicated,
            "resumed": self.resumed,
            "missing": 0,  # run_grid raises instead of returning partial grids
            "workers": self.workers,
            "executor": self.executor,
            "elapsed_seconds": self.elapsed,
            "cell_timings": [
                {
                    "figure": outcome.cell.figure,
                    "runner": outcome.cell.runner,
                    "config_hash": outcome.cell.config_hash,
                    "source": outcome.source,
                    "elapsed_seconds": outcome.elapsed,
                    "rows": len(outcome.rows),
                }
                for outcome in self.outcomes
            ],
        }


def _execute_payload(
    payload: tuple[str, Mapping[str, Any], int, str]
) -> tuple[list[dict[str, Any]], float]:
    """Execute one cell in a (possibly remote) worker process."""
    runner_name, params, master_seed, key = payload
    runner = get_cell_runner(runner_name)
    rng = derive_rng(master_seed, "grid-cell", key)
    start = time.perf_counter()
    rows = runner(params, rng)
    return list(rows), time.perf_counter() - start


def _cell_payload(cell: GridCell) -> tuple[str, dict[str, Any], int, str]:
    """Picklable ``_execute_payload`` argument for ``cell``."""
    return (cell.runner, dict(cell.params), cell.master_seed, cell.key)


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #
#: ``record(index, rows, elapsed, source)`` callback handed to executors.
RecordFn = Callable[[int, "list[dict[str, Any]]", float, str], None]


class Executor(abc.ABC):
    """Strategy executing the pending cells of one :func:`run_grid` call.

    :func:`run_grid` owns planning, cache lookups, within-run deduplication
    and row assembly; the executor only decides *where and how* the remaining
    cells run.  ``execute`` receives ``(index, cell)`` tasks — guaranteed to
    have pairwise-distinct config hashes — and must call ``record`` exactly
    once per task with the cell's rows, compute time and a source tag
    (``"computed"``, or ``"resumed"`` for cells restored from a prior
    interrupted run).  Because every cell derives its random stream from the
    master seed and its own key alone, any executor that faithfully runs the
    registered cell runner produces byte-identical rows.
    """

    #: Parallelism degree reported in execution summaries.
    workers: int = 1

    @abc.abstractmethod
    def execute(self, tasks: Sequence[tuple[int, GridCell]], record: RecordFn) -> None:
        """Run every task, reporting each completion through ``record``."""


class SerialExecutor(Executor):
    """Execute cells one after another in the calling process."""

    def execute(self, tasks: Sequence[tuple[int, GridCell]], record: RecordFn) -> None:
        for index, cell in tasks:
            rows, elapsed = _execute_payload(_cell_payload(cell))
            record(index, rows, elapsed, "computed")


class PoolExecutor(Executor):
    """Fan cells out across the ``concurrent.futures`` pool ``pool_class``.

    Falls back to in-process execution when the pool cannot help (one worker
    or at most one task).  On a failing cell the pool keeps draining so every
    surviving cell is still recorded (and therefore cached) before the first
    error propagates.  ``record`` is only ever invoked from the calling
    thread, so the callback needs no locking.
    """

    pool_class: Callable[..., concurrent.futures.Executor]

    def __init__(self, workers: int = 2) -> None:
        if int(workers) < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def execute(self, tasks: Sequence[tuple[int, GridCell]], record: RecordFn) -> None:
        tasks = list(tasks)
        if self.workers == 1 or len(tasks) <= 1:
            SerialExecutor().execute(tasks, record)
            return
        with self.pool_class(max_workers=min(self.workers, len(tasks))) as pool:
            futures = {
                pool.submit(_execute_payload, _cell_payload(cell)): index
                for index, cell in tasks
            }
            first_error: BaseException | None = None
            for future in concurrent.futures.as_completed(futures):
                try:
                    rows, elapsed = future.result()
                except BaseException as exc:
                    # keep draining so the surviving cells still hit the cache
                    if first_error is None:
                        first_error = exc
                    continue
                record(futures[future], rows, elapsed, "computed")
            if first_error is not None:
                raise first_error


class ProcessPoolExecutor(PoolExecutor):
    """Fan cells out across a ``multiprocessing`` pool (``run_grid(workers=N)``)."""

    pool_class = concurrent.futures.ProcessPoolExecutor


class ThreadedExecutor(PoolExecutor):
    """Fan cells out across an in-process thread pool.

    Profitable when the hot kernels release the GIL — the numba backend of
    :mod:`repro.kernels` compiles all three with ``nogil=True`` — because,
    unlike :class:`ProcessPoolExecutor`, nothing is pickled: datasets,
    params and result rows stay in one address space.  Pure-NumPy cells
    also overlap wherever NumPy drops the GIL, just less completely.  Rows
    are byte-identical to :class:`SerialExecutor` because every cell
    derives its RNG from the master seed and its own key alone.
    """

    pool_class = concurrent.futures.ThreadPoolExecutor


def resolve_executor(executor: "Executor | None", workers: int = 1) -> Executor:
    """Normalize the ``(executor, workers)`` pair of :func:`run_grid`.

    An explicit executor wins; otherwise ``workers`` selects the classic
    behaviour (serial for 1, process pool for more).
    """
    if executor is not None:
        if not isinstance(executor, Executor):
            raise InvalidParameterError(
                f"executor must be an Executor instance or None, got {type(executor)!r}"
            )
        return executor
    if int(workers) < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    workers = int(workers)
    return SerialExecutor() if workers == 1 else ProcessPoolExecutor(workers)


def run_grid(
    cells: Sequence[GridCell],
    workers: int = 1,
    cache: "CellStore | str | Path | None" = None,
    executor: "Executor | None" = None,
    on_cell_complete: "Callable[[CellOutcome], None] | None" = None,
) -> GridResult:
    """Execute a grid of cells and assemble their rows in cell order.

    Parameters
    ----------
    cells:
        The grid.  Cells are independent; rows are concatenated in the order
        the cells are given regardless of execution order.
    workers:
        Process-pool size; ``1`` executes in-process (no pool).  Ignored when
        an explicit ``executor`` is given.
    cache:
        Optional :class:`CellStore` serving completed cells and persisting
        fresh ones, or a cache directory whose store is opened for this
        call only.
    executor:
        Optional :class:`Executor` deciding where the pending cells run
        (serial, process pool, sharded subprocess workers, ...).  All
        executors produce byte-identical rows.
    on_cell_complete:
        Optional observer invoked (in the parent process) with each
        :class:`CellOutcome` the executor records, in completion order —
        the hook shard workers use to journal completed cells
        incrementally.
    """
    if isinstance(cache, (str, Path)):
        from .cellstore import SQLiteCellStore  # late: avoids a cycle

        with SQLiteCellStore.for_directory(cache) as store:
            return run_grid(cells, workers, store, executor, on_cell_complete)
    if cache is not None and not isinstance(cache, CellStore):
        raise InvalidParameterError(
            f"cache must be a CellStore, a directory path or None, got {type(cache)!r}"
        )
    executor = resolve_executor(executor, workers)
    cells = list(cells)
    for cell in cells:
        get_cell_runner(cell.runner)  # fail fast on unknown runners
        if int(cell.master_seed) < 0:
            # fail in the parent process, not from inside a pool worker
            raise InvalidParameterError(
                f"master_seed must be non-negative, got {cell.master_seed}"
            )

    start = time.perf_counter()
    outcomes: list[CellOutcome | None] = [None] * len(cells)

    # 1. serve cells from the cache: one lookup for the whole plan
    hits: list[list[dict[str, Any]] | None] = (
        cache.lookup(cells) if cache is not None else [None] * len(cells)
    )
    pending: list[int] = []
    for index, (cell, rows) in enumerate(zip(cells, hits)):
        if rows is not None:
            outcomes[index] = CellOutcome(cell=cell, rows=rows, elapsed=0.0, source="cache")
        else:
            pending.append(index)

    # 2. deduplicate identical work within this run
    primary_by_hash: dict[str, int] = {}
    duplicates: list[tuple[int, int]] = []
    to_compute: list[int] = []
    for index in pending:
        config_hash = cells[index].config_hash
        if config_hash in primary_by_hash:
            duplicates.append((index, primary_by_hash[config_hash]))
        else:
            primary_by_hash[config_hash] = index
            to_compute.append(index)

    # 3. hand the remaining cells to the executor; each cell is persisted to
    # the cache as it is recorded, so interrupted runs keep their completed
    # work on every path
    def record(
        index: int,
        cell_rows: list[dict[str, Any]],
        elapsed: float,
        source: str = "computed",
    ) -> None:
        outcome = CellOutcome(
            cell=cells[index], rows=list(cell_rows), elapsed=float(elapsed), source=source
        )
        outcomes[index] = outcome
        if cache is not None:
            cache.put(cells[index], cell_rows, elapsed)
        if on_cell_complete is not None:
            on_cell_complete(outcome)

    if to_compute:
        executor.execute([(index, cells[index]) for index in to_compute], record)

    unrecorded = [index for index in to_compute if outcomes[index] is None]
    if unrecorded:
        names = ", ".join(cells[index].runner for index in unrecorded[:5])
        raise GridExecutionError(
            f"executor {type(executor).__name__} finished without results for "
            f"{len(unrecorded)} of {len(to_compute)} cells (runners: {names}"
            + (", ..." if len(unrecorded) > 5 else "")
            + ")"
        )

    for index, primary in duplicates:
        primary_outcome = outcomes[primary]
        assert primary_outcome is not None  # primaries were recorded above
        outcomes[index] = CellOutcome(
            cell=cells[index],
            rows=list(primary_outcome.rows),
            elapsed=0.0,
            source="dedup",
        )

    # every index is now covered: cache hits (step 1), executed primaries
    # (step 3, checked above) and their duplicates — narrow away the Nones
    completed = [outcome for outcome in outcomes if outcome is not None]
    rows: list[dict[str, Any]] = []
    for outcome in completed:
        rows.extend(outcome.rows)
    return GridResult(
        rows=rows,
        outcomes=completed,
        elapsed=time.perf_counter() - start,
        # total_workers lets composite executors (sharded) report their full
        # configured parallelism, not just the per-shard pool size
        workers=getattr(executor, "total_workers", getattr(executor, "workers", 1)),
        executor=type(executor).__name__,
    )


def execute_plan(
    cells: Sequence[GridCell],
    postprocess: "Callable[[list[dict[str, Any]]], list[dict[str, Any]]] | None" = None,
    *,
    workers: int = 1,
    cache: "CellStore | str | Path | None" = None,
    executor: "Executor | None" = None,
    grid_info: dict[str, Any] | None = None,
) -> list[dict[str, Any]]:
    """Run a planned grid and post-process its rows into figure rows.

    The shared tail of every ``run_*`` experiment function: execute the
    cells, surface the engine summary through ``grid_info`` (updated in
    place) and apply the figure's row aggregation.  ``postprocess`` must be a
    pure function of the raw rows, so sharded invocations can merge partial
    artifacts first and aggregate once at the end.
    """
    result = run_grid(cells, workers=workers, cache=cache, executor=executor)
    if grid_info is not None:
        grid_info.update(result.summary())
    return postprocess(result.rows) if postprocess is not None else result.rows
