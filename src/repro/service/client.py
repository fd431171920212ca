"""Client side of the collection service: HTTP transport and load generation.

:class:`CollectionClient` is the wire-level counterpart of
:class:`~repro.service.server.CollectionService`: it registers attributes,
ships report batches with idempotency keys as binary array bodies
(:mod:`repro.service.wire`; control requests stay JSON) and honours the
server's backpressure contract — a 429 reply sleeps for the server-advertised
``Retry-After`` (floored by the shared :class:`~repro.core.retry.RetryPolicy`
backoff) and retries, up to the policy's bound.

:class:`LoadGenerator` drives synthetic traffic shaped like the paper's
worst case for a live collector: a large churning user population whose
value distribution drifts batch to batch (non-stationary hot items), with a
configurable fraction of duplicate batch deliveries to exercise the dedup
path.  It is deterministic under a seeded ``RngLike``, so benchmarks and CI
can assert exact estimate parity with a one-shot ``aggregate`` over the
de-duplicated stream.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from ..core.retry import RetryPolicy, retry_call
from ..core.rng import RngLike, ensure_rng
from ..exceptions import InvalidParameterError, ReproError
from ..protocols.registry import make_protocol
from .wire import REPORT_CONTENT_TYPE, encode_batch


class ServiceUnavailableError(ReproError, RuntimeError):
    """A request exhausted its retries against a saturated or down service."""


class _Backpressure(Exception):
    """Internal marker: the server replied 429 with a Retry-After hint."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"backpressure (retry after {retry_after:g}s)")
        self.retry_after = retry_after


class CollectionClient:
    """Tiny HTTP client for one collection service, with bounded retries.

    Each calling thread keeps one HTTP/1.1 connection open and reuses it: it
    is opened on the thread's first request and dropped after a transport
    error or a reply that announces the server will close it.  A request
    that fails on a *reused* connection before any reply byte arrives (the
    server closed it while idle, or restarted) is re-sent once, at once, on
    a fresh connection; that re-send neither sleeps nor counts against the
    retry policy.  Re-sending is safe because every endpoint is idempotent:
    ``/report`` batches carry a batch id the server deduplicates,
    re-registering an attribute with the same configuration is a no-op,
    and the other requests only read state or set it to a fixed value.

    Network errors and 429 backpressure retry through the shared
    :mod:`repro.core.retry` policy; on a 429 the sleep is
    ``max(policy delay, server Retry-After)`` so a loaded server's explicit
    pacing hint is never undercut.  Other HTTP errors raise immediately —
    they are contract violations (unknown attribute, bad batch), not
    congestion.

    :meth:`close` (or leaving a ``with`` block) closes every connection the
    client opened; call it when no request is in flight.
    """

    def __init__(
        self,
        base_url: str,
        retry_policy: "RetryPolicy | None" = None,
        timeout: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        split = urllib.parse.urlsplit(base_url)
        if split.scheme not in ("http", "") or (not split.netloc and not split.path):
            raise InvalidParameterError(f"unsupported service URL: {base_url!r}")
        netloc = split.netloc or split.path
        host, _, port_text = netloc.partition(":")
        self.host = host
        self.port = int(port_text) if port_text else 80
        self.timeout = float(timeout)
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy(max_retries=5)
        )
        self._sleep = sleep
        #: 429 replies absorbed by retries (observability for benchmarks).
        self.backpressure_hits = 0
        self._local = threading.local()
        self._connections: set[http.client.HTTPConnection] = set()
        self._connections_lock = threading.Lock()

    def __enter__(self) -> "CollectionClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Close every connection this client opened, in any thread."""
        with self._connections_lock:
            connections, self._connections = self._connections, set()
            self._local = threading.local()
        for conn in connections:
            conn.close()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connect(self) -> http.client.HTTPConnection:
        """A new connection, now the calling thread's own."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        with self._connections_lock:
            self._connections.add(conn)
            self._local.conn = conn
        return conn

    def _drop(self, conn: http.client.HTTPConnection) -> None:
        with self._connections_lock:
            self._connections.discard(conn)
            if getattr(self._local, "conn", None) is conn:
                del self._local.conn
        conn.close()

    def _exchange(
        self, method: str, path: str, body: "bytes | None", content_type: str
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request on the calling thread's connection: the reply and its body."""
        headers = {} if body is None else {"Content-Type": content_type}
        conn = getattr(self._local, "conn", None)
        reused = conn is not None
        if conn is None:
            conn = self._connect()
        try:
            try:
                conn.request(method, path, body, headers)
                response = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected is a ConnectionResetError.  No reply byte
                # arrived, and every endpoint is idempotent: send it again
                if not reused:
                    raise
                self._drop(conn)
                conn = self._connect()
                conn.request(method, path, body, headers)
                response = conn.getresponse()
            raw = response.read()
        except BaseException:
            self._drop(conn)
            raise
        if response.will_close:
            self._drop(conn)
        return response, raw

    def _request(
        self, method: str, path: str, body: "bytes | None", content_type: str
    ) -> dict[str, Any]:
        response, raw = self._exchange(method, path, body, content_type)
        if response.status == 429:
            raise _Backpressure(self._retry_after_hint(response, raw))
        if response.status >= 400:
            raise ServiceUnavailableError(
                f"service rejected {method} {path}: HTTP {response.status} "
                f"{raw.decode('utf-8', 'replace')[:200]}"
            )
        reply = json.loads(raw.decode("utf-8"))
        if not isinstance(reply, dict):
            raise ServiceUnavailableError(
                f"service reply to {method} {path} is not a JSON object"
            )
        return reply

    @staticmethod
    def _retry_after_hint(response: http.client.HTTPResponse, raw: bytes) -> float:
        """Pacing hint from a 429: the JSON body's precise float ``retry_after``
        when present, else the RFC 9110 integral ``Retry-After`` header."""
        try:
            body = json.loads(raw.decode("utf-8"))
            hint = float(body["retry_after"])
            if hint > 0:
                return hint
        except (ValueError, TypeError, KeyError, UnicodeDecodeError):
            pass
        try:
            return max(0.0, float(response.getheader("Retry-After") or 0.0))
        except ValueError:
            return 0.0

    def call(
        self, method: str, path: str, payload: "Mapping[str, Any] | None" = None
    ) -> dict[str, Any]:
        """One JSON request with backpressure-aware bounded retries."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        return self._call(method, path, body, "application/json")

    def _call(
        self, method: str, path: str, body: "bytes | None", content_type: str
    ) -> dict[str, Any]:
        pending_hint = [0.0]

        def attempt() -> dict[str, Any]:
            try:
                return self._request(method, path, body, content_type)
            except _Backpressure as exc:
                self.backpressure_hits += 1
                pending_hint[0] = exc.retry_after
                raise

        def sleep_honouring_hint(delay: float) -> None:
            # never undercut the server's explicit Retry-After pacing hint
            self._sleep(max(delay, pending_hint[0]))
            pending_hint[0] = 0.0

        try:
            return retry_call(
                attempt,
                self.retry_policy,
                key=path,
                retry_on=(OSError, http.client.HTTPException, _Backpressure),
                sleep=sleep_honouring_hint,
            )
        except _Backpressure as exc:
            raise ServiceUnavailableError(
                f"service still saturated after "
                f"{self.retry_policy.max_retries} retries of {method} {path}"
            ) from exc
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceUnavailableError(
                f"service unreachable after {self.retry_policy.max_retries} "
                f"retries of {method} {path}: {exc}"
            ) from exc

    # ------------------------------------------------------------------ #
    # service API
    # ------------------------------------------------------------------ #
    def register_attribute(
        self, attribute: str, protocol: str, k: int, epsilon: float
    ) -> dict[str, Any]:
        return self.call(
            "POST",
            "/attributes",
            {"attribute": attribute, "protocol": protocol, "k": k, "epsilon": epsilon},
        )

    def send_batch(
        self,
        attribute: str,
        batch_id: str,
        reports: Any,
        t: "float | None" = None,
    ) -> dict[str, Any]:
        """Ship one report batch under an idempotency key.

        ``reports`` (an integer array, nested lists or
        :class:`~repro.protocols.streaming.PackedBits`) travels as one binary
        body.  Negative or non-integer values, and a ``t`` that is not a
        finite number, raise :class:`~repro.exceptions.InvalidParameterError`
        before anything is sent.
        """
        body = encode_batch(attribute, batch_id, reports, t=t)
        return self._call("POST", "/report", body, REPORT_CONTENT_TYPE)

    def estimate(self, attribute: str) -> dict[str, Any]:
        query = urllib.parse.urlencode({"attribute": attribute})
        return self.call("GET", f"/estimate?{query}")

    def flush(self) -> dict[str, Any]:
        """Barrier: block until the server has applied every queued batch."""
        return self.call("POST", "/flush")

    def stats(self) -> dict[str, Any]:
        return self.call("GET", "/stats")

    def pause(self) -> dict[str, Any]:
        return self.call("POST", "/pause")

    def resume(self) -> dict[str, Any]:
        return self.call("POST", "/resume")


class LoadGenerator:
    """Deterministic synthetic report traffic with churn and drift.

    Parameters
    ----------
    protocol, k, epsilon:
        Client-side oracle configuration (must match the registered
        attribute).
    users:
        Total reports to emit across all batches.
    batch_size:
        Reports per batch (one batch = one idempotency key).
    churn:
        Fraction of the value pool redrawn between batches — a churning
        population keeps values from one batch correlating with the next.
    drift:
        How far the categorical distribution rotates per batch: the "hot"
        value advances by ``drift`` positions each batch, so the stream is
        non-stationary end to end.
    duplicate_every:
        Re-deliver every N-th batch under its original idempotency key
        (``0`` disables duplicates).  Duplicates must not change estimates.
    rng:
        Seed or generator; the emitted stream is a pure function of it.
    """

    def __init__(
        self,
        protocol: str,
        k: int,
        epsilon: float,
        users: int,
        batch_size: int = 8192,
        churn: float = 0.1,
        drift: int = 1,
        duplicate_every: int = 0,
        rng: RngLike = 0,
    ) -> None:
        if int(users) < 1:
            raise InvalidParameterError(f"users must be >= 1, got {users}")
        if int(batch_size) < 1:
            raise InvalidParameterError(f"batch_size must be >= 1, got {batch_size}")
        if not 0.0 <= float(churn) <= 1.0:
            raise InvalidParameterError(f"churn must be in [0, 1], got {churn}")
        if int(duplicate_every) < 0:
            raise InvalidParameterError(
                f"duplicate_every must be >= 0, got {duplicate_every}"
            )
        self._rng = ensure_rng(rng)
        self.oracle = make_protocol(protocol, k=k, epsilon=epsilon, rng=self._rng)
        self.users = int(users)
        self.batch_size = int(batch_size)
        self.churn = float(churn)
        self.drift = int(drift)
        self.duplicate_every = int(duplicate_every)
        self._values: "np.ndarray | None" = None
        self._hot = 0

    def _weights(self) -> np.ndarray:
        """Current value distribution: one hot value over a uniform floor."""
        k = self.oracle.k
        weights = np.full(k, 1.0, dtype=float)
        weights[self._hot % k] = k / 2.0  # the hot item carries ~1/3 of mass
        return weights / weights.sum()

    def _next_values(self, count: int) -> np.ndarray:
        """Draw one batch of true values: churned pool, drifting hot item."""
        k = self.oracle.k
        if self._values is None or self._values.size != count:
            self._values = self._rng.choice(k, size=count, p=self._weights())
        else:
            redraw = self._rng.random(count) < self.churn
            fresh = self._rng.choice(k, size=int(redraw.sum()), p=self._weights())
            self._values = self._values.copy()
            self._values[redraw] = fresh
        self._hot += self.drift
        return self._values

    def batches(self) -> Iterator[tuple[str, Any, bool]]:
        """Yield ``(batch_id, reports, is_duplicate)`` triples in order.

        Duplicates re-yield the *same randomized reports* under the same
        idempotency key, exactly like an at-least-once pipe re-delivering a
        batch whose ACK was lost.
        """
        emitted = 0
        index = 0
        while emitted < self.users:
            count = min(self.batch_size, self.users - emitted)
            values = self._next_values(count)
            reports = self.oracle.randomize_many(values)
            batch_id = f"batch-{index:08d}"
            yield batch_id, reports, False
            if self.duplicate_every and (index + 1) % self.duplicate_every == 0:
                yield batch_id, reports, True
            emitted += count
            index += 1

    def drive(
        self,
        client: CollectionClient,
        attribute: str,
        t: "float | None" = None,
    ) -> dict[str, Any]:
        """Send the whole load through ``client``; returns send counters."""
        sent = duplicates = reports_sent = 0
        for batch_id, reports, is_duplicate in self.batches():
            client.send_batch(attribute, batch_id, reports, t=t)
            sent += 1
            duplicates += int(is_duplicate)
            if not is_duplicate:
                reports_sent += int(self.oracle._num_reports(reports))
        return {
            "batches_sent": sent,
            "duplicate_batches_sent": duplicates,
            "unique_reports_sent": reports_sent,
            "backpressure_hits": client.backpressure_hits,
        }
