"""The shared HTTP layer of the package's two stdlib JSON servers.

The remote executor's coordinator (:mod:`repro.experiments.remote`) and the
collection service (:mod:`repro.service.server`) serve through
:class:`JSONServer` and handlers derived from :class:`JSONHandler`:

* connections are HTTP/1.1 and stay open between requests;
* ``TCP_NODELAY`` is set and every reply leaves in one send, so a request on
  a kept-alive connection never waits out the client's delayed ACK;
* a reply announces ``Connection: close`` whenever the server will close
  the connection after it (RFC 9112 section 9.6);
* every connection has a socket timeout of :data:`CONNECTION_TIMEOUT_S`: a
  request body stalled that long gets a 408 and the connection closes, and
  a connection idle that long between requests closes quietly;
* a client that hangs up is not an error, and nothing is logged per
  request;
* closing the server also ends its kept-alive connections, so no handler
  thread keeps answering for a stopped server;
* ``serve_forever`` checks for a shutdown request every
  :data:`SERVE_POLL_INTERVAL_S`, so ``shutdown()`` returns within about
  that long instead of the stdlib's 0.5 s.

Request bodies are read through :func:`open_body`, which checks the declared
``Content-Length`` before a single body byte is read:

* no ``Content-Length`` header means an empty body;
* a negative or non-integer length is a 400 (``rfile.read(-1)`` would block
  the handler thread until the client hangs up);
* a length above :data:`MAX_BODY_BYTES` is a 413, so no request can make a
  handler buffer more than that.

The returned :class:`BodyReader` never reads past the declared length, and
can discard the unread rest of a refused body so the connection stays in
step for its next request.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, BinaryIO, Mapping

from ..exceptions import ReproError

#: Largest request body either server accepts (64 MiB); larger is a 413.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a server connection waits on its client, idle between requests or
#: stalled inside a request body, before the server gives up on it.
CONNECTION_TIMEOUT_S = 30.0

#: Seconds ``serve_forever`` waits between checks for a shutdown request;
#: ``shutdown()`` blocks for up to this long.
SERVE_POLL_INTERVAL_S = 0.05

#: Bytes discarded per read while draining a refused body.
_DRAIN_CHUNK = 64 * 1024


class RequestBodyError(ReproError):
    """A request body refused or cut short, with its HTTP ``status``.

    Handlers let it propagate: :class:`JSONHandler` answers it.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class BodyReader:
    """Reads one request body, never past its declared length."""

    def __init__(self, rfile: BinaryIO, length: int) -> None:
        self._rfile = rfile
        #: Body bytes not read yet.
        self.remaining = length

    def read(self, size: int) -> bytes:
        """The next ``size`` body bytes; a 400 if the body ends first."""
        if size > self.remaining:
            raise RequestBodyError(
                400, f"read of {size} bytes runs past the end of the request body"
            )
        data = self._read(size)
        self.remaining -= len(data)
        if len(data) < size:
            raise RequestBodyError(400, "request body ended before its Content-Length")
        return data

    def read_all(self) -> bytes:
        """The whole unread rest of the body."""
        return self.read(self.remaining)

    def drain(self) -> None:
        """Discard the unread rest of the body without buffering it."""
        while self.remaining:
            chunk = self._read(min(self.remaining, _DRAIN_CHUNK))
            if not chunk:
                break
            self.remaining -= len(chunk)
        self.remaining = 0

    def _read(self, size: int) -> bytes:
        try:
            return self._rfile.read(size)
        except TimeoutError as exc:
            raise RequestBodyError(
                408, "request body stalled past the connection timeout"
            ) from exc


def open_body(handler: BaseHTTPRequestHandler) -> BodyReader:
    """A bounded reader over ``handler``'s request body.

    Raises :class:`RequestBodyError` (400 or 413) before reading anything
    when the declared length is malformed or too large; the handler then
    closes the connection, since the unread body cannot be skipped.
    """
    text = (handler.headers.get("Content-Length") or "0").strip()
    if not (text.isascii() and text.isdigit()):
        handler.close_connection = True
        raise RequestBodyError(
            400, f"Content-Length must be a non-negative integer, got {text!r}"
        )
    length = int(text)
    if length > MAX_BODY_BYTES:
        handler.close_connection = True
        raise RequestBodyError(
            413,
            f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
        )
    return BodyReader(handler.rfile, length)


class JSONHandler(BaseHTTPRequestHandler):
    """Request handler base of the package's JSON servers (see module doc).

    Subclasses implement ``do_GET`` / ``do_POST`` with :meth:`_read_json`,
    :meth:`_open_body` and :meth:`_reply`, and let a
    :class:`RequestBodyError` propagate: it is answered here with its status.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    _body: "BodyReader | None" = None

    def setup(self) -> None:
        self.timeout = CONNECTION_TIMEOUT_S
        super().setup()

    def handle_one_request(self) -> None:
        self._body = None
        try:
            try:
                super().handle_one_request()
            except RequestBodyError as exc:
                self._reply({"error": str(exc)}, code=exc.status)
        except (ConnectionError, TimeoutError):
            # the client hung up or stopped reading: there is no one to answer
            self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # no per-request stderr lines; each server keeps its own counters

    def _open_body(self) -> BodyReader:
        """A bounded reader over this request's body (see :func:`open_body`)."""
        self._body = open_body(self)
        return self._body

    def _read_json(self) -> "dict[str, Any] | None":
        """This request's JSON-object body, or ``None`` once a 400 is sent."""
        raw = self._open_body().read_all()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            self._reply({"error": f"bad request: {exc}"}, code=400)
            return None
        return payload

    def _reply(
        self,
        payload: "Mapping[str, Any]",
        code: int = 200,
        headers: "Mapping[str, str] | None" = None,
    ) -> None:
        """Send ``payload`` as JSON: status line, headers and body in one send.

        Announces ``Connection: close`` when the connection ends after this
        reply, which includes every reply sent before the request body was
        read to its end: the unread rest would be parsed as the next request.
        """
        body = json.dumps(payload).encode("utf-8")
        if self._body is not None and self._body.remaining:
            self.close_connection = True
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()


class JSONServer(ThreadingHTTPServer):
    """Threading HTTP server whose :meth:`server_close` also ends the
    connections its handlers still hold open."""

    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], handler: type[BaseHTTPRequestHandler]
    ) -> None:
        # before binding: a failed bind calls server_close()
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def serve_forever(self, poll_interval: float = SERVE_POLL_INTERVAL_S) -> None:
        """Serve until :meth:`shutdown`, polling for it every ``poll_interval`` s."""
        super().serve_forever(poll_interval)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening, then shut every open connection down.

        A handler waiting on a kept-alive connection reads end-of-stream and
        exits; the client's next request there fails before any reply byte,
        which :class:`~repro.service.client.CollectionClient` re-sends on a
        fresh connection.
        """
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it meanwhile
