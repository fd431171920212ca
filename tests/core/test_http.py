"""Bounded request-body reads, on both stdlib servers of the package.

The coordinator of the remote executor and the collection service read
bodies through one reader, which checks ``Content-Length`` before reading a
byte: ``Content-Length: -1`` used to block the handler thread until the
client hung up, and any declared size was buffered.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import threading
from types import SimpleNamespace

import pytest

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
        finally:
            conn.close()


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

    def test_drain_discards_only_this_body(self):
        rfile = io.BytesIO(b"x" * 200_000 + b"NEXT")
        reader = BodyReader(rfile, 200_000)
        reader.read(10)
        reader.drain()
        assert reader.remaining == 0 and rfile.read() == b"NEXT"
