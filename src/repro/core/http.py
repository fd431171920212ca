"""Bounded request-body reads for the package's stdlib HTTP servers.

The remote executor's coordinator (:mod:`repro.experiments.remote`) and the
collection service (:mod:`repro.service.server`) both read request bodies
through :func:`open_body`, which checks the declared ``Content-Length``
before a single body byte is read:

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

from http.server import BaseHTTPRequestHandler
from typing import BinaryIO

from ..exceptions import InvalidParameterError

#: Largest request body either server accepts (64 MiB); larger is a 413.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Bytes discarded per read while draining a refused body.
_DRAIN_CHUNK = 64 * 1024


class RequestBodyError(InvalidParameterError):
    """A request body refused before it was read, with its HTTP ``status``."""

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
        data = self._rfile.read(size)
        self.remaining -= len(data)
        if len(data) < size:
            self.remaining = 0
            raise RequestBodyError(400, "request body ended before its Content-Length")
        return data

    def read_all(self) -> bytes:
        """The whole unread rest of the body."""
        return self.read(self.remaining)

    def drain(self) -> None:
        """Discard the unread rest of the body without buffering it."""
        while self.remaining:
            chunk = self._rfile.read(min(self.remaining, _DRAIN_CHUNK))
            if not chunk:
                break
            self.remaining -= len(chunk)
        self.remaining = 0


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
