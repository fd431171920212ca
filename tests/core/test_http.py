"""The shared HTTP layer, on both stdlib servers of the package.

The coordinator of the remote executor and the collection service read
bodies through one reader, which checks ``Content-Length`` before reading a
byte: ``Content-Length: -1`` used to block the handler thread until the
client hung up, and any declared size was buffered.  Both reply through one
handler base: a reply after which the server closes the connection says
``Connection: close``, a stalled body is a 408, an idle connection closes
after the connection timeout, and a client hang-up prints nothing.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import struct
import threading
import time
from types import SimpleNamespace

import pytest

import repro.core.http as core_http
from repro.core.http import MAX_BODY_BYTES, BodyReader, RequestBodyError, open_body
from repro.experiments.remote import CoordinatorServer, LeaseTable
from repro.service import CollectionService
from repro.service.wire import REPORT_CONTENT_TYPE


@pytest.fixture(scope="module", params=["service-report", "service-json", "coordinator"])
def endpoint(request):
    """``(host, port, path, content type)`` of one body-reading endpoint."""
    if request.param == "coordinator":
        server = CoordinatorServer(("127.0.0.1", 0), LeaseTable([], lease_timeout=10.0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield host, port, "/register", "application/json"
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        return
    service = CollectionService()
    service.start()
    host, port = service.url.removeprefix("http://").split(":")
    if request.param == "service-report":
        yield host, int(port), "/report", REPORT_CONTENT_TYPE
    else:
        yield host, int(port), "/attributes", "application/json"
    service.stop()


def post_declared(endpoint, length: str) -> tuple[int, dict]:
    """POST headers declaring ``Content-Length: length`` and send no body."""
    host, port, path, content_type = endpoint
    conn = http.client.HTTPConnection(host, port, timeout=2)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", content_type)
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def post_declared_response(endpoint, length: str) -> http.client.HTTPResponse:
    """Like :func:`post_declared`, but the read response itself."""
    host, port, path, content_type = endpoint
    conn = http.client.HTTPConnection(host, port, timeout=2)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", content_type)
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        response.read()
        return response
    finally:
        conn.close()


class TestBothServers:
    @pytest.mark.parametrize("length", ("-1", "-0", "abc", "1.5", "0x10", "+5", "1_0"))
    def test_negative_or_non_integer_length_is_400_without_blocking(self, endpoint, length):
        status, reply = post_declared(endpoint, length)
        assert status == 400
        assert "Content-Length" in reply["error"]

    def test_length_above_the_limit_is_413(self, endpoint):
        status, reply = post_declared(endpoint, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert str(MAX_BODY_BYTES) in reply["error"]

    def test_length_at_the_limit_is_read(self, endpoint):
        # the limit is inclusive: the server starts reading a body of exactly
        # the limit, and answers 400 when the client stops sending early
        host, port, path, content_type = endpoint
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.putrequest("POST", path)
            conn.putheader("Content-Type", content_type)
            conn.putheader("Content-Length", str(MAX_BODY_BYTES))
            conn.endheaders()
            conn.send(b"{}")
            conn.sock.shutdown(socket.SHUT_WR)
            response = conn.getresponse()
            assert response.status == 400
            assert "ended before" in json.loads(response.read())["error"]
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()


    @pytest.mark.parametrize("length", ("-1", str(MAX_BODY_BYTES + 1)))
    def test_refused_length_announces_connection_close(self, endpoint, length):
        response = post_declared_response(endpoint, length)
        assert response.status in (400, 413)
        assert response.getheader("Connection") == "close"
        assert response.will_close

    def test_connection_close_is_kept_and_the_socket_closed(self, endpoint):
        # the next request on the socket must not be the victim: the server
        # closes right after the announced close
        host, port, path, content_type = endpoint
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(request_head("POST", path, content_type, "-1"))
            reply = read_until_closed(sock)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in reply


#: Connection timeout the hang-up tests patch in (seconds).
SHORT_TIMEOUT = 0.5

#: Every POST endpoint of both servers: ``(server, path, content type)``.
POST_ENDPOINTS = [
    ("service", "/report", REPORT_CONTENT_TYPE),
    ("service", "/attributes", "application/json"),
    ("service", "/flush", "application/json"),
    ("service", "/pause", "application/json"),
    ("service", "/resume", "application/json"),
    ("service", "/unknown", "application/json"),
    ("coordinator", "/register", "application/json"),
    ("coordinator", "/lease", "application/json"),
    ("coordinator", "/heartbeat", "application/json"),
    ("coordinator", "/complete", "application/json"),
    ("coordinator", "/unknown", "application/json"),
]


@pytest.fixture(scope="module")
def servers():
    """``name -> (host, port)`` of a running service and coordinator."""
    coordinator = CoordinatorServer(("127.0.0.1", 0), LeaseTable([], lease_timeout=10.0))
    thread = threading.Thread(target=coordinator.serve_forever, daemon=True)
    thread.start()
    service = CollectionService()
    service.start()
    host, port = service.url.removeprefix("http://").split(":")
    yield {"service": (host, int(port)), "coordinator": coordinator.server_address[:2]}
    service.stop()
    coordinator.shutdown()
    coordinator.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def short_timeout(monkeypatch):
    monkeypatch.setattr(core_http, "CONNECTION_TIMEOUT_S", SHORT_TIMEOUT)
    return SHORT_TIMEOUT


def request_head(method: str, path: str, content_type: str, length: str) -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: {content_type}\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("ascii")


def read_until_closed(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes the connection."""
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def handler_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if "process_request_thread" in t.name}


def wait_for_handlers_to_exit(before: set[threading.Thread], within: float) -> None:
    """Fail unless every handler thread started since ``before`` ends in time."""
    deadline = time.monotonic() + within
    while handler_threads() - before:
        assert time.monotonic() < deadline, "a handler thread outlived its connection"
        time.sleep(0.01)


class TestConnectionTimeout:
    @pytest.mark.parametrize("server, path, content_type", POST_ENDPOINTS)
    def test_stalled_body_is_408_and_the_handler_exits(
        self, servers, server, path, content_type, short_timeout, capfd
    ):
        before = handler_threads()
        start = time.monotonic()
        with socket.create_connection(servers[server], timeout=5) as sock:
            sock.sendall(request_head("POST", path, content_type, "100") + b"0123456789")
            reply = read_until_closed(sock)
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert b"\r\nConnection: close\r\n" in reply
        assert b"stalled" in reply
        wait_for_handlers_to_exit(before, 2 * SHORT_TIMEOUT - (time.monotonic() - start))
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("server, path", [("service", "/healthz"), ("coordinator", "/status")])
    def test_idle_connection_closes_quietly(self, servers, server, path, short_timeout, capfd):
        before = handler_threads()
        with socket.create_connection(servers[server], timeout=5) as sock:
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode("ascii"))
            start = time.monotonic()
            reply = read_until_closed(sock)
            idle = time.monotonic() - start
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" not in reply  # kept alive, then timed out
        assert SHORT_TIMEOUT / 2 < idle < 2 * SHORT_TIMEOUT
        wait_for_handlers_to_exit(before, 2 * SHORT_TIMEOUT)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("server, path, content_type", POST_ENDPOINTS[:1] + POST_ENDPOINTS[6:7])
    def test_client_hang_up_is_not_an_error(
        self, servers, server, path, content_type, short_timeout, capfd
    ):
        before = handler_threads()
        sock = socket.create_connection(servers[server], timeout=5)
        sock.sendall(request_head("POST", path, content_type, "100") + b"0123456789")
        time.sleep(0.05)  # the handler is now blocked in the body read
        # linger 0: close with a reset, so the handler's next socket call fails
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        wait_for_handlers_to_exit(before, 2 * SHORT_TIMEOUT)
        assert capfd.readouterr().err == ""


class TestBodyReader:
    def handler(self, length: "str | None", body: bytes = b"") -> SimpleNamespace:
        headers = {} if length is None else {"Content-Length": length}
        return SimpleNamespace(headers=headers, rfile=io.BytesIO(body), close_connection=False)

    def test_missing_length_is_an_empty_body(self):
        assert open_body(self.handler(None, b"ignored")).read_all() == b""

    def test_refusal_closes_the_connection(self):
        for length, status in (("-1", 400), (str(MAX_BODY_BYTES + 1), 413)):
            handler = self.handler(length)
            with pytest.raises(RequestBodyError) as excinfo:
                open_body(handler)
            assert excinfo.value.status == status
            assert handler.close_connection is True

    def test_never_reads_past_the_declared_length(self):
        reader = open_body(self.handler("5", b"hello, next request"))
        assert reader.read(2) == b"he"
        with pytest.raises(RequestBodyError, match="past the end"):
            reader.read(4)
        assert reader.read_all() == b"llo"

    def test_early_end_is_400(self):
        reader = BodyReader(io.BytesIO(b"abc"), 10)
        with pytest.raises(RequestBodyError, match="ended before") as excinfo:
            reader.read_all()
        assert excinfo.value.status == 400

    def test_stall_is_408(self):
        def stalled_read(size):
            raise TimeoutError("timed out")

        reader = BodyReader(SimpleNamespace(read=stalled_read), 10)
        for read in (reader.read_all, reader.drain):
            with pytest.raises(RequestBodyError, match="stalled") as excinfo:
                read()
            assert excinfo.value.status == 408
            assert reader.remaining == 10  # unread: the reply must close

    def test_drain_discards_only_this_body(self):
        rfile = io.BytesIO(b"x" * 200_000 + b"NEXT")
        reader = BodyReader(rfile, 200_000)
        reader.read(10)
        reader.drain()
        assert reader.remaining == 0 and rfile.read() == b"NEXT"


class TestPromptShutdown:
    """Stopping a server waits one short poll, not the stdlib's 0.5 s."""

    #: well above SERVE_POLL_INTERVAL_S, well below the stdlib's 0.5 s poll
    LIMIT_S = 0.25

    def test_poll_interval_is_short(self):
        assert core_http.SERVE_POLL_INTERVAL_S < self.LIMIT_S

    def test_service_stop_returns_promptly(self):
        service = CollectionService().start()
        time.sleep(0.1)  # serve_forever is inside its poll now
        start = time.monotonic()
        service.stop()
        assert time.monotonic() - start < self.LIMIT_S

    def test_coordinator_shutdown_returns_promptly(self):
        server = CoordinatorServer(("127.0.0.1", 0), LeaseTable([], lease_timeout=10.0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        time.sleep(0.1)
        start = time.monotonic()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert time.monotonic() - start < self.LIMIT_S
        assert not thread.is_alive()
