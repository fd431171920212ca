"""The live LDP collection server.

Architecture (mirroring the remote executor's coordinator):

* a :class:`CollectorRegistry` maps attribute names to
  :class:`AttributeCollector` objects — one frequency oracle plus one
  :class:`~repro.service.windows.WindowedAccumulator` plus the batch-id
  dedup set, guarded by a per-attribute lock so attributes ingest
  concurrently without contending on one global lock;
* a :class:`CollectionService` wraps the registry in a stdlib
  ``ThreadingHTTPServer`` front end and a **bounded ingest queue** drained
  by a single applier thread.  Handler threads only validate, decode and
  enqueue; when the queue is full (or the service is paused) the client
  gets **HTTP 429 with a Retry-After header** — backpressure is part of the
  wire contract, not an exception trace;
* ``GET /estimate`` is **snapshot-on-read**: it merges copies of the live
  panes and finalizes the copy, so ingestion never pauses and the reader
  never observes a half-folded pane.

Report batches carry idempotency keys (``batch_id``): re-deliveries (client
retries after a lost ACK, at-least-once pipes) are counted and dropped at
apply time, so a cumulative-window estimate stays byte-identical to a
one-shot ``aggregate`` over the de-duplicated stream.

HTTP API
--------
``/report`` takes one binary body (:mod:`repro.service.wire`); every other
endpoint takes and returns JSON.  The HTTP layer is
:mod:`repro.core.http`: connections stay open between requests, a negative
or non-integer ``Content-Length`` is a 400, one above ``MAX_BODY_BYTES`` a
413, and a body stalled past ``CONNECTION_TIMEOUT_S`` a 408; each of these
replies closes the connection and says so with ``Connection: close``.

* ``POST /attributes`` ``{attribute, protocol, k, epsilon}`` — register an
  attribute (idempotent when the config matches; 409 on conflict).
* ``POST /report`` — enqueue one batch, sent as an
  ``application/octet-stream`` body: u32 header length, JSON header
  ``{attribute, batch_id, t?, dtype, shape, packed_k?}``, array bytes.
  202 queued, 429 backpressure, 404 unknown attribute, 400 malformed body
  or reports (including a non-finite ``t``), 415 any other content type.
* ``POST /flush`` — barrier: block until every queued batch is applied.
* ``GET /estimate?attribute=NAME[&t=T]`` — snapshot estimate for one
  attribute, at event time ``t`` (default: the attribute's watermark).
* ``GET /stats`` — queue depth and per-attribute ingest counters.
* ``POST /pause`` / ``POST /resume`` — deterministically force the 429
  path (benchmarks, CI).
"""

from __future__ import annotations

import math
import queue
import threading
import time
import urllib.parse
from typing import Any, Callable

import numpy as np

from ..core.http import BodyReader, JSONHandler, JSONServer
from ..exceptions import EstimationError, InvalidParameterError
from ..protocols.registry import make_protocol
from .windows import WindowSpec, WindowedAccumulator, parse_window
from .wire import REPORT_CONTENT_TYPE, event_time, read_batch

#: Default bound on the ingest queue (batches, not reports).
DEFAULT_QUEUE_SIZE = 256

#: Default ``Retry-After`` seconds sent with a 429 reply.
DEFAULT_RETRY_AFTER = 0.05


def parse_attribute_spec(text: str) -> dict[str, Any]:
    """Parse ``NAME:PROTOCOL:K:EPSILON`` (CLI / ``__main__`` shorthand).

    >>> parse_attribute_spec("age:GRR:16:1.0")["k"]
    16
    """
    parts = str(text).split(":")
    if len(parts) != 4:
        raise InvalidParameterError(
            f"attribute spec must look like NAME:PROTOCOL:K:EPSILON, got {text!r}"
        )
    name, protocol, k_text, epsilon_text = parts
    if not name:
        raise InvalidParameterError(f"attribute name must be non-empty in {text!r}")
    try:
        k = int(k_text)
        epsilon = float(epsilon_text)
    except ValueError as exc:
        raise InvalidParameterError(
            f"attribute spec {text!r}: k must be an integer and epsilon a float"
        ) from exc
    return {"attribute": name, "protocol": protocol, "k": k, "epsilon": epsilon}


class AttributeCollector:
    """Ingest state for one attribute: oracle, window, dedup set, counters.

    All mutating access goes through :meth:`apply` / :meth:`snapshot`, which
    take the collector's lock — two attributes never contend, two batches
    for the same attribute serialize.

    The dedup state is **bounded like the window itself**: batch ids are
    bucketed by the pane their event time falls in, and buckets older than
    the window's retention are evicted — a re-delivery of an evicted batch
    would be dropped as late anyway, so forgetting its id cannot double
    count.  Cumulative windows have one never-expiring pane, so they retain
    every id — exact dedup is what makes the cumulative estimate
    byte-identical to a one-shot ``aggregate`` over the de-duplicated
    stream.
    """

    def __init__(self, attribute: str, oracle: Any, spec: WindowSpec) -> None:
        self.attribute = str(attribute)
        self.oracle = oracle
        self.window = WindowedAccumulator(oracle, spec)
        self._seen: dict[int, set[str]] = {}
        self.duplicate_batches = 0
        self.batches = 0
        self._lock = threading.Lock()

    def decode(self, reports: Any) -> Any:
        """Decode and validate one report batch (an array or nested lists).

        Coerces to an integer array, then applies the oracle's wire contract
        (``validate_reports``) so a malformed batch — wrong matrix width,
        values outside the report alphabet — raises here (an HTTP 400 at the
        edge) instead of crashing the applier thread.  An integer array, such
        as the unsigned array a ``/report`` body decodes to, keeps its dtype:
        UE bit rows stay ``uint8``, as ``randomize_many`` emits them, instead
        of growing eightfold to ``int64``.
        """
        chunk = reports
        if not (isinstance(chunk, np.ndarray) and chunk.dtype.kind in "iu"):
            try:
                chunk = np.asarray(reports, dtype=np.int64)
            except (TypeError, ValueError) as exc:
                raise InvalidParameterError(
                    f"reports for {self.attribute!r} are not an integer array: {exc}"
                ) from exc
        try:
            return self.oracle.validate_reports(chunk)
        except InvalidParameterError as exc:
            raise InvalidParameterError(
                f"reports for {self.attribute!r} are malformed: {exc}"
            ) from exc

    def _seen_before(self, batch_id: str) -> bool:
        return any(batch_id in bucket for bucket in self._seen.values())

    def _evict_seen(self) -> None:
        """Drop dedup buckets older than the window's retention."""
        oldest = self.window.oldest_live_index()
        for index in [i for i in self._seen if i < oldest]:
            del self._seen[index]

    def apply(self, batch_id: str, chunk: Any, now: float) -> str:
        """Fold one batch: ``"accepted"``, ``"duplicate"`` or ``"late"``."""
        batch_id = str(batch_id)
        with self._lock:
            if self._seen_before(batch_id):
                self.duplicate_batches += 1
                return "duplicate"
            self._seen.setdefault(self.window.pane_index(now), set()).add(batch_id)
            self.batches += 1
            count = int(self.oracle._num_reports(chunk))
            absorbed = self.window.add(chunk, now)
            self._evict_seen()
        return "accepted" if absorbed or count == 0 else "late"

    def snapshot(self, now: "float | None" = None) -> dict[str, Any]:
        """Snapshot-on-read estimate: finalize a merged copy of the panes.

        ``now`` defaults to the window's watermark — windows live in event
        time, so "the estimate" means "as of the latest report seen", not
        as of an unrelated wall clock.  Pass an explicit ``now`` (the
        ``?t=`` query parameter over HTTP) to force the window forward.
        """
        with self._lock:
            if now is None:
                now = self.window.watermark or 0.0
            merged = self.window.snapshot(now)
        payload: dict[str, Any] = {
            "attribute": self.attribute,
            "n": int(merged.n),
            "window": self.window.spec.describe(),
        }
        try:
            estimate = merged.finalize()
        except EstimationError:
            payload["estimates"] = None  # empty window: no data, not a crash
        else:
            payload["estimates"] = estimate.estimates.tolist()
        return payload

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "batches": self.batches,
                "duplicate_batches": self.duplicate_batches,
                "tracked_batch_ids": sum(len(b) for b in self._seen.values()),
                "accepted_reports": self.window.accepted,
                "late_dropped_reports": self.window.late_dropped,
                "protocol": self.oracle.name,
                "k": self.oracle.k,
                "epsilon": float(self.oracle.epsilon),
                "window": self.window.spec.describe(),
            }


class CollectorRegistry:
    """Thread-safe attribute → :class:`AttributeCollector` map."""

    def __init__(self, window: WindowSpec | str = "cumulative") -> None:
        self.window = parse_window(window) if isinstance(window, str) else window
        self._collectors: dict[str, AttributeCollector] = {}
        self._lock = threading.Lock()

    def register(
        self,
        attribute: str,
        protocol: str,
        k: int,
        epsilon: float,
        rng: Any = None,
    ) -> AttributeCollector:
        """Create (or idempotently re-register) one attribute's collector.

        Re-registering with an *equivalent estimator* returns the existing
        collector; a conflicting configuration raises — silently swapping
        estimators under live traffic would corrupt the stream.
        """
        attribute = str(attribute)
        oracle = make_protocol(protocol, k=k, epsilon=epsilon, rng=rng)
        with self._lock:
            existing = self._collectors.get(attribute)
            if existing is not None:
                if (
                    existing.oracle.estimator_fingerprint()
                    != oracle.estimator_fingerprint()
                ):
                    raise InvalidParameterError(
                        f"attribute {attribute!r} is already registered with "
                        f"{existing.oracle.estimator_fingerprint()}; refusing "
                        f"to re-register as {oracle.estimator_fingerprint()}"
                    )
                return existing
            collector = AttributeCollector(attribute, oracle, self.window)
            self._collectors[attribute] = collector
            return collector

    def get(self, attribute: str) -> "AttributeCollector | None":
        with self._lock:
            return self._collectors.get(str(attribute))

    def attributes(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._collectors))

    def stats(self) -> dict[str, Any]:
        with self._lock:
            collectors = list(self._collectors.values())
        return {c.attribute: c.stats() for c in collectors}


class _ServiceHandler(JSONHandler):
    """HTTP face of the :class:`CollectionService`: binary ``/report``, JSON
    everywhere else."""

    server: "_ServiceHTTPServer"

    def do_GET(self) -> None:  # noqa: N802  (http.server API)
        service = self.server.service
        split = urllib.parse.urlsplit(self.path)
        if split.path == "/estimate":
            params = urllib.parse.parse_qs(split.query)
            attribute = (params.get("attribute") or [""])[0]
            collector = service.registry.get(attribute)
            if collector is None:
                self._reply({"error": f"unknown attribute {attribute!r}"}, code=404)
                return
            t_text = (params.get("t") or [None])[0]
            try:
                now = None if t_text is None else float(t_text)
            except ValueError:
                self._reply({"error": f"t must be a float, got {t_text!r}"}, code=400)
                return
            self._reply(collector.snapshot(now))
        elif split.path == "/stats":
            self._reply(service.stats())
        elif split.path == "/healthz":
            self._reply({"status": "ok"})
        else:
            self._reply({"error": f"unknown path {self.path}"}, code=404)

    def do_POST(self) -> None:  # noqa: N802  (http.server API)
        service = self.server.service
        if self.path == "/report":
            self._handle_report(self._open_body())
            return
        request = self._read_json()
        if request is None:
            return
        if self.path == "/attributes":
            try:
                k = int(request.get("k") or 0)
                epsilon = float(request.get("epsilon") or 0.0)
            except (TypeError, ValueError) as exc:
                self._reply(
                    {"error": f"k must be an integer and epsilon a float: {exc}"},
                    code=400,
                )
                return
            try:
                collector = service.registry.register(
                    str(request.get("attribute") or ""),
                    str(request.get("protocol") or ""),
                    k,
                    epsilon,
                )
            except (InvalidParameterError, KeyError) as exc:
                code = 409 if "already registered" in str(exc) else 400
                self._reply({"error": str(exc)}, code=code)
                return
            self._reply({"status": "ok", "attribute": collector.attribute})
        elif self.path == "/flush":
            service.flush()
            self._reply({"status": "ok"})
        elif self.path == "/pause":
            service.pause()
            self._reply({"status": "paused"})
        elif self.path == "/resume":
            service.resume()
            self._reply({"status": "resumed"})
        else:
            self._reply({"error": f"unknown path {self.path}"}, code=404)

    def _handle_report(self, body: BodyReader) -> None:
        service = self.server.service
        content_type = self.headers.get_content_type()
        if content_type != REPORT_CONTENT_TYPE:
            body.drain()
            self._reply(
                {"error": f"/report takes {REPORT_CONTENT_TYPE}, got {content_type}"},
                code=415,
            )
            return
        try:
            header, reports = read_batch(body.read, body.remaining)
        except InvalidParameterError as exc:
            body.drain()
            self._reply({"error": f"bad report body: {exc}"}, code=400)
            return
        collector = service.registry.get(header.attribute)
        if collector is None:
            self._reply({"error": f"unknown attribute {header.attribute!r}"}, code=404)
            return
        try:
            chunk = collector.decode(reports)
        except InvalidParameterError as exc:
            self._reply({"error": str(exc)}, code=400)
            return
        now = service.clock() if header.t is None else header.t
        if not service.enqueue(collector, header.batch_id, chunk, now):
            # RFC 9110 Retry-After is integral delta-seconds; the JSON body
            # carries the precise float, which the bundled client prefers
            self._reply(
                {"error": "ingest queue full", "retry_after": service.retry_after},
                code=429,
                headers={"Retry-After": str(math.ceil(service.retry_after))},
            )
            return
        self._reply({"status": "queued", "batch_id": header.batch_id}, code=202)


class _ServiceHTTPServer(JSONServer):
    def __init__(self, address: tuple[str, int], service: "CollectionService") -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service


class CollectionService:
    """Bounded-queue ingest pipeline plus HTTP front end.

    Parameters
    ----------
    listen:
        ``(host, port)`` to bind (port 0 = ephemeral).
    window:
        :class:`WindowSpec` or spec string shared by all attributes.
    queue_size:
        Ingest-queue bound in batches; a full queue is backpressure (429),
        never unbounded memory.
    retry_after:
        Seconds advertised in the 429 ``Retry-After`` header.
    clock:
        Injectable event-time source (hand-advanced in tests).
    """

    def __init__(
        self,
        listen: tuple[str, int] = ("127.0.0.1", 0),
        window: WindowSpec | str = "cumulative",
        queue_size: int = DEFAULT_QUEUE_SIZE,
        retry_after: float = DEFAULT_RETRY_AFTER,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if int(queue_size) < 1:
            raise InvalidParameterError(
                f"queue_size must be >= 1, got {queue_size}"
            )
        if not float(retry_after) > 0:
            raise InvalidParameterError(
                f"retry_after must be > 0, got {retry_after}"
            )
        self.registry = CollectorRegistry(window)
        self.queue_size = int(queue_size)
        self.retry_after = float(retry_after)
        self.clock = clock
        self._listen = listen
        self._queue: "queue.Queue[tuple[AttributeCollector, str, np.ndarray, float] | None]"
        self._queue = queue.Queue(maxsize=self.queue_size)
        self._paused = threading.Event()
        self._rejected = 0
        self._failed = 0
        self._counters_lock = threading.Lock()
        self._server: "_ServiceHTTPServer | None" = None
        self._server_thread: "threading.Thread | None" = None
        self._applier: "threading.Thread | None" = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "CollectionService":
        """Bind the HTTP server and start the applier thread."""
        if self._server is not None:
            raise InvalidParameterError("service is already running")
        self._server = _ServiceHTTPServer(self._listen, self)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._server_thread.start()
        self._applier = threading.Thread(target=self._apply_loop, daemon=True)
        self._applier.start()
        return self

    def stop(self) -> None:
        """Drain the queue, stop the applier and close the HTTP server."""
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if self._server_thread is not None:
            self._server_thread.join(timeout=5.0)
            self._server_thread = None
        if self._applier is not None:
            self._queue.put(None)  # sentinel: drain then exit
            self._applier.join(timeout=5.0)
            self._applier = None

    def __enter__(self) -> "CollectionService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def url(self) -> str:
        """``http://host:port`` once :meth:`start` has bound the socket."""
        if self._server is None:
            raise InvalidParameterError("service is not running")
        host, port = self._server.server_address[0], self._server.server_address[1]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------ #
    # ingest pipeline
    # ------------------------------------------------------------------ #
    def enqueue(
        self,
        collector: AttributeCollector,
        batch_id: str,
        chunk: np.ndarray,
        now: float,
    ) -> bool:
        """Admit one batch into the bounded queue; ``False`` = backpressure."""
        if self._paused.is_set():
            self._count_rejected()
            return False
        try:
            self._queue.put_nowait((collector, batch_id, chunk, now))
        except queue.Full:
            self._count_rejected()
            return False
        return True

    def _count_rejected(self) -> None:
        with self._counters_lock:
            self._rejected += 1

    def _count_failed(self) -> None:
        with self._counters_lock:
            self._failed += 1

    def _apply_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                collector, batch_id, chunk, now = item
                try:
                    collector.apply(batch_id, chunk, now)
                except Exception:
                    # The applier is the service's single point of progress:
                    # one decodable-but-invalid batch must surface as a
                    # failure counter, never kill the thread (which would
                    # strand the queue, deadlock /flush and 429 forever).
                    self._count_failed()
            finally:
                self._queue.task_done()

    def flush(self) -> None:
        """Barrier: return once every batch queued so far has been applied."""
        self._queue.join()

    def ingest_local(
        self, attribute: str, batch_id: str, reports: Any, now: "float | None" = None
    ) -> str:
        """In-process ingest (benchmarks): same dedup/window path, no HTTP.

        Like ``/report``, refuses a NaN or infinite ``now``.
        """
        collector = self.registry.get(attribute)
        if collector is None:
            raise InvalidParameterError(f"unknown attribute {attribute!r}")
        now = self.clock() if now is None else event_time(now)
        chunk = collector.decode(reports)
        return collector.apply(batch_id, chunk, now)

    # ------------------------------------------------------------------ #
    # control / observability
    # ------------------------------------------------------------------ #
    def pause(self) -> None:
        """Reject every new batch with 429 until :meth:`resume` (tests, CI)."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def stats(self) -> dict[str, Any]:
        with self._counters_lock:
            rejected, failed = self._rejected, self._failed
        return {
            "queue_depth": self._queue.qsize(),
            "queue_size": self.queue_size,
            "paused": self._paused.is_set(),
            "rejected_batches": rejected,
            "failed_batches": failed,
            "attributes": self.registry.stats(),
        }
