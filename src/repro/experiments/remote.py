"""Fault-tolerant lease-based remote executor (coordinator/worker over HTTP).

:class:`ShardedExecutor` (PR 4) already distributes a grid, but placement is
static round-robin and a hung worker stalls the whole run.  This module adds
the dynamic counterpart behind the same :class:`~repro.experiments.grid.Executor`
seam:

* the **coordinator** (:class:`RemoteExecutor`) owns a :class:`LeaseTable`
  of pending cells and serves it over plain stdlib HTTP
  (``http.server`` / ``http.client`` — zero new dependencies);
* **workers** (``python -m repro.experiments.remote_worker``) register, lease
  one cell at a time, heartbeat while computing, and report rows back;
* a lease whose heartbeat lapses past ``lease_timeout`` is **expired** and the
  cell re-queued with capped-exponential backoff (:mod:`repro.core.retry`), so
  killed, hung, or partitioned workers are recovered by reassignment;
* an idle worker may **steal** the in-flight cell with the stalest heartbeat
  (``steal_after`` seconds after the original grant), so one straggler cannot
  serialize the tail of a run.  First valid completion wins; a duplicate
  completion is byte-compared against the recorded rows (deduped when
  identical, a conflict naming the config hash when not — mirroring
  ``merge_artifacts``'s duplicate semantics at the lease layer).

Completed rows stream back incrementally through ``record`` into the
:class:`~repro.experiments.grid.CellStore` seam, so resume after a coordinator
crash is the same indexed cache query PR 6 already provides.  Because every
cell derives its random stream from the master seed and its own key alone,
the merged artifact is byte-identical to :class:`SerialExecutor` for *any*
worker count and *any* failure schedule.

Fault injection (``REPRO_CHAOS``) makes those failure schedules testable::

    REPRO_CHAOS="kill_after:3"         # die when acquiring the 4th lease
    REPRO_CHAOS="drop_heartbeat:2"     # drop every 2nd heartbeat
    REPRO_CHAOS="delay_completion:1.5" # sleep 1.5s before reporting rows
    REPRO_CHAOS="kill_after:3@0"       # ...but only in worker index 0

Directives combine comma-separated; an ``@N`` suffix scopes a directive to
the worker whose ``REPRO_WORKER_INDEX`` is ``N`` (the coordinator numbers the
workers it spawns), so one chaotic worker can run beside healthy ones.

All :class:`LeaseTable` methods take an explicit ``now`` timestamp: lease
expiry, work stealing, backoff, and duplicate handling are exercised by unit
tests with a hand-advanced clock — no sleeps-and-hope timing tests.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..core.http import RequestBodyError, open_body
from ..core.retry import RetryPolicy, retry_call
from ..exceptions import GridExecutionError, InvalidParameterError
from .grid import Executor, GridCell, RecordFn, _execute_payload, canonical_json
from .sharding import _worker_env

#: Environment variable holding the fault-injection directives.
CHAOS_ENV = "REPRO_CHAOS"

#: Environment variable carrying a spawned worker's index (for ``@N`` scoping).
WORKER_INDEX_ENV = "REPRO_WORKER_INDEX"

#: Seconds an idle worker is told to wait before re-asking for a lease.
WAIT_DELAY = 0.05

#: Default heartbeat-lapse threshold before a lease is re-granted.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Default re-grants per cell before the run is declared failed.
DEFAULT_MAX_RETRIES = 3

#: Default seconds the coordinator waits for workers to exit on their own
#: (after the shutdown ``/lease`` reply) before escalating to SIGTERM.
DEFAULT_SHUTDOWN_GRACE = 2.0


def wait_for_worker_exit(
    procs: "Sequence[tuple[int, subprocess.Popen[bytes], Path]]",
    grace: float = DEFAULT_SHUTDOWN_GRACE,
    poll_interval: float = 0.02,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> bool:
    """Wait up to ``grace`` seconds for every worker process to exit.

    Returns ``True`` when all workers exited within the grace period and
    ``False`` on timeout (the caller then escalates to ``terminate``).  The
    clock and sleep are injectable like :class:`LeaseTable`'s ``now``
    arguments, so the grace-period logic is unit-testable with a
    hand-advanced clock instead of real elapsed time.
    """
    if not float(grace) >= 0:
        raise InvalidParameterError(f"grace must be >= 0, got {grace}")
    if not float(poll_interval) > 0:
        raise InvalidParameterError(
            f"poll_interval must be > 0, got {poll_interval}"
        )
    deadline = clock() + float(grace)
    while any(proc.poll() is None for _, proc, _ in procs):
        if clock() >= deadline:
            return False
        sleep(float(poll_interval))
    return True


# --------------------------------------------------------------------------- #
# fault injection
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChaosConfig:
    """Parsed fault-injection directives for one worker.

    Attributes
    ----------
    kill_after:
        Die abruptly (no completion, no farewell) when acquiring lease number
        ``kill_after + 1`` — i.e. after completing ``kill_after`` cells.  The
        orphaned lease is exactly what exercises expiry + re-lease.
    drop_heartbeat:
        Drop every ``drop_heartbeat``-th heartbeat instead of sending it.
    delay_completion:
        Sleep this many seconds between computing rows and reporting them —
        a straggler whose cells become steal candidates.
    """

    kill_after: "int | None" = None
    drop_heartbeat: "int | None" = None
    delay_completion: "float | None" = None

    @property
    def active(self) -> bool:
        """Whether any directive is set."""
        return (
            self.kill_after is not None
            or self.drop_heartbeat is not None
            or self.delay_completion is not None
        )

    @classmethod
    def from_env(cls, environ: "Mapping[str, str] | None" = None) -> "ChaosConfig":
        """Parse :data:`CHAOS_ENV` (scoped by :data:`WORKER_INDEX_ENV`)."""
        env = os.environ if environ is None else environ
        index_text = env.get(WORKER_INDEX_ENV, "").strip()
        index = int(index_text) if index_text else None
        return parse_chaos(env.get(CHAOS_ENV), worker_index=index)


def parse_chaos(value: "str | None", worker_index: "int | None" = None) -> ChaosConfig:
    """Parse a ``REPRO_CHAOS`` directive string into a :class:`ChaosConfig`.

    ``value`` is a comma-separated list of ``name:arg`` directives, each
    optionally scoped with ``@N`` to the worker whose index is ``N``
    (directives scoped to a different index are ignored).  Unknown directive
    names or malformed arguments raise :class:`InvalidParameterError` — a
    typo'd chaos schedule must fail loudly, not silently test nothing.
    """
    fields: dict[str, Any] = {}
    if value is None or not value.strip():
        return ChaosConfig()
    for raw in value.split(","):
        directive = raw.strip()
        if not directive:
            continue
        body, _, scope = directive.partition("@")
        if scope:
            try:
                scope_index = int(scope)
            except ValueError as exc:
                raise InvalidParameterError(
                    f"chaos directive {directive!r}: worker index {scope!r} is not an integer"
                ) from exc
            if worker_index is None or scope_index != worker_index:
                continue
        name, sep, arg = body.partition(":")
        name = name.strip()
        if not sep or not arg.strip():
            raise InvalidParameterError(
                f"chaos directive {directive!r} must look like 'name:value'"
            )
        arg = arg.strip()
        try:
            if name == "kill_after":
                fields["kill_after"] = int(arg)
                if fields["kill_after"] < 0:
                    raise InvalidParameterError(
                        f"chaos kill_after must be >= 0, got {arg}"
                    )
            elif name == "drop_heartbeat":
                fields["drop_heartbeat"] = int(arg)
                if fields["drop_heartbeat"] < 1:
                    raise InvalidParameterError(
                        f"chaos drop_heartbeat must be >= 1, got {arg}"
                    )
            elif name == "delay_completion":
                fields["delay_completion"] = float(arg)
                if fields["delay_completion"] < 0:
                    raise InvalidParameterError(
                        f"chaos delay_completion must be >= 0, got {arg}"
                    )
            else:
                raise InvalidParameterError(
                    f"unknown chaos directive {name!r} "
                    "(expected kill_after, drop_heartbeat or delay_completion)"
                )
        except ValueError as exc:
            raise InvalidParameterError(
                f"chaos directive {directive!r}: bad argument {arg!r}"
            ) from exc
    return ChaosConfig(**fields)


# --------------------------------------------------------------------------- #
# the lease table
# --------------------------------------------------------------------------- #
@dataclass
class _Lease:
    lease_id: str
    config_hash: str
    worker_id: str
    granted_at: float
    last_beat: float
    stolen: bool = False


@dataclass
class _CellSlot:
    index: int
    cell: GridCell
    attempts: int = 0
    not_before: float = 0.0
    done: bool = False
    rows_blob: "str | None" = None
    last_error: "str | None" = None


class LeaseTable:
    """Deterministic lease bookkeeping for one grid of cells.

    The table is the coordinator's whole brain: which cells are pending,
    which are leased to whom, which heartbeats are fresh, and which rows came
    back.  Every time-dependent method takes an explicit ``now`` (seconds, any
    monotonic origin), which makes lease expiry, stealing and backoff unit
    testable with a hand-advanced clock.  All methods are thread-safe — the
    HTTP handler threads and the executor's drain loop share one instance.

    Lifecycle of a cell: *queued* → *leased* (possibly to several workers at
    once, via stealing) → *done* on the first valid completion.  A lease whose
    heartbeat is older than ``lease_timeout`` is expired; when a cell loses
    its last lease without completing, it is re-queued ``attempts`` deep into
    ``retry_policy``'s backoff schedule, until ``max_retries`` re-grants are
    exhausted and the cell (and the run) is declared failed.
    """

    def __init__(
        self,
        tasks: Sequence[tuple[int, GridCell]],
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        retry_policy: "RetryPolicy | None" = None,
        steal_after: "float | None" = None,
        max_leases_per_cell: int = 2,
    ) -> None:
        if not float(lease_timeout) > 0:
            raise InvalidParameterError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        if int(max_retries) < 0:
            raise InvalidParameterError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if int(max_leases_per_cell) < 1:
            raise InvalidParameterError(
                f"max_leases_per_cell must be >= 1, got {max_leases_per_cell}"
            )
        self.lease_timeout = float(lease_timeout)
        self.max_retries = int(max_retries)
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy(
            max_retries=self.max_retries, base_delay=0.05, max_delay=2.0
        )
        self.steal_after = (
            self.lease_timeout / 2.0 if steal_after is None else float(steal_after)
        )
        self.max_leases_per_cell = int(max_leases_per_cell)

        self._lock = threading.Lock()
        self._slots: dict[str, _CellSlot] = {}
        for index, cell in tasks:
            config_hash = cell.config_hash
            if config_hash in self._slots:
                raise InvalidParameterError(
                    f"duplicate config hash in lease table: {config_hash}"
                )
            self._slots[config_hash] = _CellSlot(index=index, cell=cell)
        self._order = [cell.config_hash for _, cell in tasks]
        self._leases: dict[str, _Lease] = {}
        self._workers: dict[str, float] = {}
        self._undelivered: list[tuple[int, list[dict[str, Any]], float]] = []
        self._failure: "str | None" = None
        self._next_lease = 0
        self._next_worker = 0
        self.events: list[dict[str, Any]] = []

    # -- events ------------------------------------------------------------ #
    def _event(self, now: float, kind: str, **fields: Any) -> None:
        record: dict[str, Any] = {"t": round(float(now), 6), "event": kind}
        record.update(fields)
        self.events.append(record)

    # -- registration ------------------------------------------------------ #
    def register(self, worker_id: "str | None", now: float) -> str:
        """Register a worker, assigning it an id if it brought none."""
        with self._lock:
            if not worker_id:
                worker_id = f"w{self._next_worker}"
                self._next_worker += 1
            self._workers[worker_id] = float(now)
            self._event(now, "worker_registered", worker=worker_id)
            return worker_id

    # -- leasing ----------------------------------------------------------- #
    def lease(self, worker_id: str, now: float) -> "dict[str, Any] | None":
        """Grant ``worker_id`` a cell to compute, or ``None`` if nothing fits.

        Expired leases are collected first.  A fresh (never-leased or
        re-queued) cell whose backoff has elapsed is preferred, in plan order;
        failing that, the in-flight cell with the stalest heartbeat may be
        stolen — provided its oldest lease is ``steal_after`` old, the cell is
        below ``max_leases_per_cell``, and ``worker_id`` does not already hold
        it.  ``None`` means "nothing for you right now": the worker should
        wait and re-ask (or shut down once :attr:`all_done`).
        """
        now = float(now)
        with self._lock:
            self._expire_locked(now)
            if self._failure is not None:
                return None
            if worker_id in self._workers:
                self._workers[worker_id] = now
            slot = self._pick_queued_locked(now)
            stolen = False
            if slot is None:
                slot = self._pick_steal_locked(worker_id, now)
                stolen = slot is not None
            if slot is None:
                return None
            lease = _Lease(
                lease_id=f"l{self._next_lease}",
                config_hash=slot.cell.config_hash,
                worker_id=worker_id,
                granted_at=now,
                last_beat=now,
                stolen=stolen,
            )
            self._next_lease += 1
            self._leases[lease.lease_id] = lease
            self._event(
                now,
                "lease_stolen" if stolen else "lease_granted",
                lease=lease.lease_id,
                worker=worker_id,
                config_hash=slot.cell.config_hash,
                attempt=slot.attempts,
            )
            return {
                "lease_id": lease.lease_id,
                "config_hash": slot.cell.config_hash,
                "runner": slot.cell.runner,
                "params": dict(slot.cell.params),
                "master_seed": int(slot.cell.master_seed),
                "key": slot.cell.key,
                "heartbeat_interval": self.lease_timeout / 4.0,
            }

    def _active_leases_locked(self, config_hash: str) -> list[_Lease]:
        return [l for l in self._leases.values() if l.config_hash == config_hash]

    def _pick_queued_locked(self, now: float) -> "_CellSlot | None":
        for config_hash in self._order:
            slot = self._slots[config_hash]
            if slot.done or slot.not_before > now:
                continue
            if self._active_leases_locked(config_hash):
                continue
            return slot
        return None

    def _pick_steal_locked(self, worker_id: str, now: float) -> "_CellSlot | None":
        best: "tuple[float, int, _CellSlot] | None" = None
        for config_hash in self._order:
            slot = self._slots[config_hash]
            if slot.done:
                continue
            leases = self._active_leases_locked(config_hash)
            if not leases or len(leases) >= self.max_leases_per_cell:
                continue
            if any(l.worker_id == worker_id for l in leases):
                continue
            oldest_grant = min(l.granted_at for l in leases)
            if now - oldest_grant < self.steal_after:
                continue
            stalest_beat = min(l.last_beat for l in leases)
            candidate = (stalest_beat, slot.index, slot)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        return None if best is None else best[2]

    # -- heartbeats and expiry --------------------------------------------- #
    def heartbeat(self, lease_id: str, now: float) -> bool:
        """Refresh a lease; ``False`` means the lease is gone (expired)."""
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None:
                return False
            lease.last_beat = float(now)
            self._workers[lease.worker_id] = float(now)
            return True

    def expire(self, now: float) -> list[str]:
        """Expire leases whose heartbeat lapsed; returns the expired ids."""
        with self._lock:
            return self._expire_locked(float(now))

    def _expire_locked(self, now: float) -> list[str]:
        expired = [
            lease
            for lease in self._leases.values()
            if now - lease.last_beat > self.lease_timeout
        ]
        for lease in expired:
            del self._leases[lease.lease_id]
            self._event(
                now,
                "lease_expired",
                lease=lease.lease_id,
                worker=lease.worker_id,
                config_hash=lease.config_hash,
                idle=round(now - lease.last_beat, 6),
            )
            self._requeue_locked(lease.config_hash, now, reason="lease expired")
        return [lease.lease_id for lease in expired]

    def _requeue_locked(self, config_hash: str, now: float, reason: str) -> None:
        slot = self._slots[config_hash]
        if slot.done or self._active_leases_locked(config_hash):
            return
        slot.attempts += 1
        if slot.attempts > self.max_retries:
            slot.not_before = float("inf")  # park: never grantable again
            detail = f"; last error: {slot.last_error}" if slot.last_error else ""
            self._fail_locked(
                now,
                f"cell {config_hash} ({reason}) exhausted its "
                f"{self.max_retries} re-grants after {slot.attempts} "
                f"attempts{detail}",
                config_hash=config_hash,
            )
            return
        # the shared backoff policy is the lease re-grant policy: a cell that
        # keeps killing workers waits longer each time it is re-queued
        delay = self.retry_policy.delay(slot.attempts - 1, key=config_hash)
        slot.not_before = now + delay
        self._event(
            now,
            "cell_requeued",
            config_hash=config_hash,
            attempt=slot.attempts,
            backoff=round(delay, 6),
            reason=reason,
        )

    def _fail_locked(self, now: float, message: str, **fields: Any) -> None:
        if self._failure is None:
            self._failure = message
        self._event(now, "run_failed", message=message, **fields)

    # -- completions ------------------------------------------------------- #
    def complete(
        self,
        config_hash: str,
        rows: "list[dict[str, Any]] | None",
        elapsed: float,
        now: float,
        *,
        lease_id: "str | None" = None,
        worker_id: str = "?",
        error: "str | None" = None,
    ) -> str:
        """Record a completion (or a cell error) for ``config_hash``.

        First valid completion wins — even from an already-expired lease (a
        straggler that finishes late still finished first).  A second
        completion is byte-compared against the recorded rows via canonical
        JSON: identical → ``"duplicate"`` (deduped), different → the run is
        failed with a conflict naming the config hash.  Returns the verdict:
        ``"completed"``, ``"duplicate"``, ``"conflict"``, ``"error"`` or
        ``"unknown"`` (no such cell).
        """
        now = float(now)
        with self._lock:
            slot = self._slots.get(config_hash)
            if lease_id is not None and lease_id in self._leases:
                del self._leases[lease_id]
            if slot is None:
                self._event(
                    now, "unknown_completion", config_hash=config_hash, worker=worker_id
                )
                return "unknown"
            if error is not None:
                slot.last_error = error
                self._event(
                    now,
                    "cell_error",
                    config_hash=config_hash,
                    worker=worker_id,
                    error=error,
                )
                self._requeue_locked(config_hash, now, reason="worker error")
                return "error"
            blob = canonical_json(rows if rows is not None else [])
            if slot.done:
                if blob == slot.rows_blob:
                    self._event(
                        now,
                        "duplicate_completion",
                        config_hash=config_hash,
                        worker=worker_id,
                    )
                    return "duplicate"
                self._fail_locked(
                    now,
                    f"conflicting completions for cell {config_hash}: "
                    f"worker {worker_id} returned rows that differ byte-wise "
                    "from the first recorded completion — identical cell "
                    "configs must produce identical rows",
                    config_hash=config_hash,
                    worker=worker_id,
                )
                return "conflict"
            slot.done = True
            slot.rows_blob = blob
            self._undelivered.append(
                (slot.index, list(rows if rows is not None else []), float(elapsed))
            )
            self._event(
                now,
                "cell_completed",
                config_hash=config_hash,
                worker=worker_id,
                elapsed=round(float(elapsed), 6),
            )
            return "completed"

    def pop_completions(self) -> list[tuple[int, list[dict[str, Any]], float]]:
        """Drain completions not yet handed to the executor's ``record``."""
        with self._lock:
            drained = self._undelivered
            self._undelivered = []
            return drained

    # -- state ------------------------------------------------------------- #
    @property
    def all_done(self) -> bool:
        """Whether every cell has a recorded completion."""
        with self._lock:
            return all(slot.done for slot in self._slots.values())

    @property
    def failure(self) -> "str | None":
        """First fatal condition (conflict / exhausted retries), if any."""
        with self._lock:
            return self._failure

    def counts(self) -> dict[str, int]:
        """Summary counters for ``/status`` and the event log footer."""
        with self._lock:
            done = sum(1 for slot in self._slots.values() if slot.done)
            return {
                "cells": len(self._slots),
                "done": done,
                "leased": len(self._leases),
                "workers": len(self._workers),
                "events": len(self.events),
            }


# --------------------------------------------------------------------------- #
# HTTP layer — coordinator side
# --------------------------------------------------------------------------- #
class _CoordinatorHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP face of the :class:`LeaseTable`."""

    server: "CoordinatorServer"
    protocol_version = "HTTP/1.1"

    # silence the default per-request stderr logging — the lease table's
    # event journal is the authoritative trace
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _reply(self, payload: "Mapping[str, Any]", code: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict[str, Any]:
        raw = open_body(self).read_all()
        payload = json.loads(raw.decode("utf-8")) if raw else {}
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def do_GET(self) -> None:  # noqa: N802  (http.server API)
        table = self.server.table
        if self.path == "/status":
            status = table.counts()
            status["all_done"] = table.all_done
            status["failure"] = table.failure
            self._reply(status)
        else:
            self._reply({"error": f"unknown path {self.path}"}, code=404)

    def do_POST(self) -> None:  # noqa: N802  (http.server API)
        table = self.server.table
        now = self.server.clock()
        try:
            request = self._read_json()
        except RequestBodyError as exc:
            self._reply({"error": str(exc)}, code=exc.status)
            return
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            self._reply({"error": f"bad request: {exc}"}, code=400)
            return
        if self.path == "/register":
            worker_id = table.register(request.get("worker_id"), now)
            self._reply(
                {
                    "status": "ok",
                    "worker_id": worker_id,
                    "heartbeat_interval": table.lease_timeout / 4.0,
                }
            )
        elif self.path == "/lease":
            if table.failure is not None or table.all_done:
                self._reply({"status": "shutdown"})
                return
            grant = table.lease(str(request.get("worker_id") or "?"), now)
            if grant is None:
                self._reply({"status": "wait", "delay": WAIT_DELAY})
            else:
                grant["status"] = "granted"
                self._reply(grant)
        elif self.path == "/heartbeat":
            alive = table.heartbeat(str(request.get("lease_id") or ""), now)
            self._reply({"status": "ok" if alive else "gone"})
        elif self.path == "/complete":
            verdict = table.complete(
                str(request.get("config_hash") or ""),
                request.get("rows"),
                float(request.get("elapsed") or 0.0),
                now,
                lease_id=request.get("lease_id"),
                worker_id=str(request.get("worker_id") or "?"),
                error=request.get("error"),
            )
            self._reply({"status": verdict})
        else:
            self._reply({"error": f"unknown path {self.path}"}, code=404)


class CoordinatorServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`LeaseTable`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        table: LeaseTable,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(address, _CoordinatorHandler)
        self.table = table
        self.clock = clock

    @property
    def url(self) -> str:
        """``http://host:port`` of the bound socket."""
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


def parse_listen(listen: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` listen address (port 0 = ephemeral)."""
    host, sep, port_text = listen.rpartition(":")
    if not sep or not host:
        raise InvalidParameterError(
            f"listen address must look like HOST:PORT, got {listen!r}"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise InvalidParameterError(
            f"listen address {listen!r}: port {port_text!r} is not an integer"
        ) from exc
    if not 0 <= port <= 65535:
        raise InvalidParameterError(
            f"listen address {listen!r}: port must be in [0, 65535]"
        )
    return host, port


# --------------------------------------------------------------------------- #
# HTTP layer — worker side
# --------------------------------------------------------------------------- #
class CoordinatorClient:
    """Tiny JSON-POST client for the coordinator, with bounded retries.

    Network errors (connection refused during coordinator startup, transient
    resets) retry through the shared :mod:`repro.core.retry` policy; HTTP-level
    errors and malformed replies raise :class:`GridExecutionError` immediately
    — they indicate a protocol bug, not a flaky network.
    """

    def __init__(
        self,
        base_url: str,
        retry_policy: "RetryPolicy | None" = None,
        timeout: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        split = urllib.parse.urlsplit(base_url)
        if split.scheme not in ("http", "") or not split.netloc and not split.path:
            raise InvalidParameterError(f"unsupported coordinator URL: {base_url!r}")
        netloc = split.netloc or split.path
        host, _, port_text = netloc.partition(":")
        self.host = host
        self.port = int(port_text) if port_text else 80
        self.timeout = float(timeout)
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy(max_retries=5)
        )
        self._sleep = sleep

    def call(self, path: str, payload: "Mapping[str, Any]") -> dict[str, Any]:
        """POST ``payload`` to ``path`` and decode the JSON reply."""

        def attempt() -> dict[str, Any]:
            body = json.dumps(payload).encode("utf-8")
            conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            try:
                conn.request(
                    "POST", path, body, {"Content-Type": "application/json"}
                )
                response = conn.getresponse()
                raw = response.read()
                if response.status >= 400:
                    raise GridExecutionError(
                        f"coordinator rejected {path}: HTTP {response.status} "
                        f"{raw.decode('utf-8', 'replace')[:200]}"
                    )
                reply = json.loads(raw.decode("utf-8"))
            finally:
                conn.close()
            if not isinstance(reply, dict):
                raise GridExecutionError(
                    f"coordinator reply to {path} is not a JSON object"
                )
            return reply

        return retry_call(
            attempt,
            self.retry_policy,
            key=path,
            retry_on=(OSError, http.client.HTTPException),
            sleep=self._sleep,
        )


class _Heartbeat:
    """Background heartbeat for one lease, honouring ``drop_heartbeat``."""

    def __init__(
        self,
        client: CoordinatorClient,
        lease_id: str,
        interval: float,
        chaos: ChaosConfig,
        counter_start: int,
    ) -> None:
        self._client = client
        self._lease_id = lease_id
        self._interval = max(float(interval), 1e-3)
        self._chaos = chaos
        self._counter = counter_start
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> int:
        """Stop beating; returns the updated chaos beat counter."""
        self._stop.set()
        self._thread.join()
        return self._counter

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._counter += 1
            drop_every = self._chaos.drop_heartbeat
            if drop_every is not None and self._counter % drop_every == 0:
                continue
            try:
                self._client.call(
                    "/heartbeat", {"lease_id": self._lease_id}
                )
            except (OSError, http.client.HTTPException, GridExecutionError):
                # a missed beat is recoverable by design: the lease either
                # survives on the next beat or expires and is re-granted
                continue


def worker_loop(
    coordinator: str,
    *,
    worker_id: "str | None" = None,
    chaos: "ChaosConfig | None" = None,
    retry_policy: "RetryPolicy | None" = None,
    sleep: Callable[[float], None] = time.sleep,
    client: "CoordinatorClient | None" = None,
) -> dict[str, Any]:
    """Register with the coordinator and compute leased cells until shutdown.

    The protocol loop of one worker — shared by the
    ``python -m repro.experiments.remote_worker`` subprocess entrypoint and by
    in-process worker threads in the tests.  Returns a summary dict with the
    assigned ``worker_id``, cells ``completed``, and whether chaos ``killed``
    the worker (in-process "death" is simply returning without completing the
    acquired lease, which orphans it exactly like a SIGKILL would).
    """
    chaos = chaos if chaos is not None else ChaosConfig()
    client = (
        client
        if client is not None
        else CoordinatorClient(coordinator, retry_policy=retry_policy, sleep=sleep)
    )
    registration = client.call("/register", {"worker_id": worker_id})
    assigned = str(registration["worker_id"])
    completed = 0
    errors = 0
    beat_counter = 0
    disconnected = False
    while True:
        try:
            reply = client.call("/lease", {"worker_id": assigned})
        except (OSError, http.client.HTTPException):
            # the coordinator stayed unreachable through the bounded retry
            # schedule: the run is over (or lost) — either way, exit cleanly
            disconnected = True
            break
        status = reply.get("status")
        if status == "shutdown":
            break
        if status == "wait":
            sleep(float(reply.get("delay") or WAIT_DELAY))
            continue
        if status != "granted":
            raise GridExecutionError(f"unexpected /lease reply: {reply!r}")
        if chaos.kill_after is not None and completed >= chaos.kill_after:
            # die holding the lease: no completion, no farewell — the
            # coordinator only learns of it when the heartbeat lapses
            return {
                "worker_id": assigned,
                "completed": completed,
                "errors": errors,
                "killed": True,
                "disconnected": False,
            }
        heartbeat = _Heartbeat(
            client,
            str(reply["lease_id"]),
            float(reply.get("heartbeat_interval") or 1.0),
            chaos,
            beat_counter,
        )
        heartbeat.start()
        rows: "list[dict[str, Any]] | None" = None
        elapsed = 0.0
        error: "str | None" = None
        try:
            rows, elapsed = _execute_payload(
                (
                    str(reply["runner"]),
                    dict(reply["params"]),
                    int(reply["master_seed"]),
                    str(reply["key"]),
                )
            )
        except Exception as exc:  # noqa: BLE001 — reported to the coordinator
            error = f"{type(exc).__name__}: {exc}"
        finally:
            beat_counter = heartbeat.stop()
        if chaos.delay_completion is not None:
            sleep(chaos.delay_completion)
        try:
            client.call(
                "/complete",
                {
                    "lease_id": reply["lease_id"],
                    "config_hash": reply["config_hash"],
                    "worker_id": assigned,
                    "rows": rows,
                    "elapsed": elapsed,
                    "error": error,
                },
            )
        except (OSError, http.client.HTTPException):
            # rows undeliverable: if the coordinator is merely restarting it
            # will re-lease the cell; recomputation is safe by construction
            disconnected = True
            break
        if error is None:
            completed += 1
        else:
            errors += 1
    return {
        "worker_id": assigned,
        "completed": completed,
        "errors": errors,
        "killed": False,
        "disconnected": disconnected,
    }


# --------------------------------------------------------------------------- #
# the remote executor
# --------------------------------------------------------------------------- #
class RemoteExecutor(Executor):
    """Coordinator side of the lease-based remote executor.

    ``execute`` starts an HTTP coordinator around a :class:`LeaseTable`,
    optionally spawns ``workers`` local ``remote_worker`` subprocesses (each
    numbered through :data:`WORKER_INDEX_ENV` so ``REPRO_CHAOS`` directives
    can target one of them), then drains completions into ``record`` until
    every cell is done — re-leasing expired cells and letting idle workers
    steal from stragglers along the way.  With ``workers=0`` the coordinator
    only listens: point external ``python -m repro.experiments.remote_worker
    --coordinator URL`` processes (other machines, a cluster scheduler) at
    :attr:`address`.

    The executor never trusts worker scheduling for correctness: rows are
    recorded exactly once per cell in first-completion-wins order, and cell
    seeds depend only on the cell key, so the assembled artifact is
    byte-identical to :class:`SerialExecutor` under any failure schedule.
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        listen: str = "127.0.0.1:0",
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        steal_after: "float | None" = None,
        poll_interval: float = 0.02,
        python: "str | None" = None,
        event_log: "str | Path | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        shutdown_grace: float = DEFAULT_SHUTDOWN_GRACE,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if int(workers) < 0:
            raise InvalidParameterError(f"workers must be >= 0, got {workers}")
        if not float(lease_timeout) > 0:
            raise InvalidParameterError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        if int(max_retries) < 0:
            raise InvalidParameterError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if not float(poll_interval) > 0:
            raise InvalidParameterError(
                f"poll_interval must be > 0, got {poll_interval}"
            )
        if not float(shutdown_grace) >= 0:
            raise InvalidParameterError(
                f"shutdown_grace must be >= 0, got {shutdown_grace}"
            )
        self.workers = int(workers)
        self.listen = parse_listen(listen)
        self.lease_timeout = float(lease_timeout)
        self.max_retries = int(max_retries)
        self.steal_after = steal_after
        self.poll_interval = float(poll_interval)
        self.python = python or sys.executable
        self.event_log = None if event_log is None else Path(event_log)
        self.retry_policy = retry_policy
        self.shutdown_grace = float(shutdown_grace)
        self._clock = clock
        self._sleep = sleep
        #: ``http://host:port`` once the coordinator is listening.
        self.address: "str | None" = None
        #: Set as soon as :attr:`address` is valid — in-process worker
        #: threads (tests, same-host tools) wait on this instead of polling.
        self.ready = threading.Event()

    @property
    def total_workers(self) -> int:
        """Local worker count reported in run summaries (0 = external only)."""
        return self.workers

    def execute(self, tasks: Sequence[tuple[int, GridCell]], record: RecordFn) -> None:
        tasks = list(tasks)
        if not tasks:
            return
        table = LeaseTable(
            tasks,
            lease_timeout=self.lease_timeout,
            max_retries=self.max_retries,
            retry_policy=self.retry_policy,
            steal_after=self.steal_after,
        )
        server = CoordinatorServer(self.listen, table, clock=self._clock)
        server_thread = threading.Thread(target=server.serve_forever, daemon=True)
        server_thread.start()
        self.address = server.url
        self.ready.set()
        procs: list[tuple[int, "subprocess.Popen[bytes]", Path]] = []
        stderr_dir = tempfile.TemporaryDirectory(prefix="repro-remote-")
        try:
            for index in range(self.workers):
                env = _worker_env()
                env[WORKER_INDEX_ENV] = str(index)
                stderr_path = Path(stderr_dir.name) / f"worker-{index}.stderr"
                stdout_path = Path(stderr_dir.name) / f"worker-{index}.stdout"
                # capture both streams: the parent's stdout carries the
                # figure table, which must stay byte-identical to a serial
                # run — worker summaries must not leak into it
                with open(stderr_path, "wb") as stderr_handle, open(
                    stdout_path, "wb"
                ) as stdout_handle:
                    proc = subprocess.Popen(
                        [
                            self.python,
                            "-m",
                            "repro.experiments.remote_worker",
                            "--coordinator",
                            server.url,
                        ],
                        env=env,
                        stdout=stdout_handle,
                        stderr=stderr_handle,
                    )
                procs.append((index, proc, stderr_path))
                table._event(self._clock(), "worker_spawned", index=index, pid=proc.pid)
            self._drain(table, record, procs)
        finally:
            self.ready.clear()
            self.address = None
            # grace period: let workers see the shutdown /lease reply and
            # exit on their own before the server (and then SIGTERM) goes
            wait_for_worker_exit(
                procs,
                grace=self.shutdown_grace,
                poll_interval=self.poll_interval,
                clock=self._clock,
                sleep=self._sleep,
            )
            server.shutdown()
            server.server_close()
            server_thread.join(timeout=5.0)
            for _, proc, _ in procs:
                if proc.poll() is None:
                    proc.terminate()
            for _, proc, _ in procs:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
            self._write_event_log(table)
            stderr_dir.cleanup()

    def _drain(
        self,
        table: LeaseTable,
        record: RecordFn,
        procs: "list[tuple[int, subprocess.Popen[bytes], Path]]",
    ) -> None:
        while True:
            for index, rows, elapsed in table.pop_completions():
                record(index, rows, elapsed, "computed")
            failure = table.failure
            if failure is not None:
                raise GridExecutionError(failure)
            if table.all_done:
                # catch completions enqueued between the drain and the check
                for index, rows, elapsed in table.pop_completions():
                    record(index, rows, elapsed, "computed")
                return
            table.expire(self._clock())
            if self.workers > 0 and procs:
                alive = [p for _, p, _ in procs if p.poll() is None]
                if not alive and not table.all_done:
                    # every local worker is gone with work remaining (and no
                    # external workers were invited): surface their stderr
                    tails = []
                    for index, proc, stderr_path in procs:
                        tail = ""
                        if stderr_path.exists():
                            lines = (
                                stderr_path.read_text(errors="replace")
                                .strip()
                                .splitlines()
                            )
                            tail = " | ".join(lines[-3:])
                        tails.append(
                            f"worker {index} (pid {proc.pid}) "
                            f"exit {proc.returncode}: {tail or 'no stderr'}"
                        )
                    raise GridExecutionError(
                        "all remote workers exited with cells remaining: "
                        + "; ".join(tails)
                    )
            time.sleep(self.poll_interval)

    def _write_event_log(self, table: LeaseTable) -> None:
        if self.event_log is None:
            return
        self.event_log.parent.mkdir(parents=True, exist_ok=True)
        with open(self.event_log, "w", encoding="utf-8") as handle:
            for event in table.events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
            handle.write(
                json.dumps({"event": "summary", **table.counts()}, sort_keys=True)
                + "\n"
            )
