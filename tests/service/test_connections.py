"""Persistent client connections to the collection service.

:class:`~repro.service.client.CollectionClient` keeps one HTTP/1.1
connection per calling thread.  These tests count the sockets the server
accepts, and hand the client a ``sleep`` that fails the test, so a request
that survives a closed connection is seen to do so by an immediate re-send
rather than by the retry policy's backoff.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

import repro.core.http as core_http
from repro.core.http import JSONHandler, JSONServer
from repro.core.retry import RetryPolicy
from repro.service import CollectionClient, CollectionService, ServiceUnavailableError

#: No retries at all: a request must succeed on its first policy attempt.
NO_RETRIES = RetryPolicy(max_retries=0)


def no_sleep(seconds: float) -> None:
    raise AssertionError(f"the client backed off for {seconds} s")


@pytest.fixture()
def accepted(monkeypatch):
    """Every socket a package server accepts while the test runs, in order."""
    sockets: list[socket.socket] = []
    original = JSONServer.process_request

    def recording(self, request, client_address):
        sockets.append(request)
        original(self, request, client_address)

    monkeypatch.setattr(JSONServer, "process_request", recording)
    return sockets


@pytest.fixture()
def service():
    svc = CollectionService()
    svc.start()
    yield svc
    svc.stop()


def strict_client(url: str) -> CollectionClient:
    return CollectionClient(url, retry_policy=NO_RETRIES, sleep=no_sleep)


def wait_until(condition, within: float = 2.0) -> None:
    deadline = time.monotonic() + within
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


class TestReuse:
    def test_sends_share_one_connection(self, service, accepted):
        with strict_client(service.url) as client:
            client.register_attribute("age", "GRR", k=8, epsilon=1.0)
            for index in range(20):
                client.send_batch("age", f"b{index}", [1, 2, 3])
            client.flush()
            assert client.stats()["attributes"]["age"]["accepted_reports"] == 60
        assert len(accepted) == 1

    def test_accepted_socket_has_nodelay(self, service, accepted):
        with strict_client(service.url) as client:
            client.call("GET", "/healthz")  # the connection stays open after it
            assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_requests_on_one_connection_do_not_wait_for_delayed_acks(
        self, service, accepted
    ):
        # a reply split across two sends without TCP_NODELAY stalls ~40 ms
        # on the client's delayed ACK: 100 requests would take over 4 s
        with strict_client(service.url) as client:
            client.call("GET", "/healthz")
            start = time.perf_counter()
            for _ in range(100):
                assert client.call("GET", "/healthz") == {"status": "ok"}
            assert time.perf_counter() - start < 2.0
        assert len(accepted) == 1

    def test_threads_sharing_a_client_each_keep_one_connection(self, service, accepted):
        client = strict_client(service.url)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        errors: list[BaseException] = []

        def send(thread_index: int) -> None:
            try:
                for index in range(25):
                    client.send_batch("age", f"t{thread_index}-b{index}", [thread_index] * 10)
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=send, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the senders as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        client.flush()
        stats = client.stats()["attributes"]["age"]
        client.close()
        assert (stats["batches"], stats["duplicate_batches"]) == (100, 0)
        assert stats["accepted_reports"] == 1000
        assert len(accepted) == 5  # the main thread's and one per sender

    def test_close_ends_the_connections_and_the_client_reconnects(self, service, accepted):
        with strict_client(service.url) as client:
            client.call("GET", "/healthz")
        # the server reads end-of-stream, and its handler closes the socket
        wait_until(lambda: accepted[0].fileno() == -1)
        assert client.call("GET", "/healthz") == {"status": "ok"}
        assert len(accepted) == 2
        client.close()


class TestClosedConnections:
    def test_service_restarted_on_the_same_port_takes_the_next_send(self, accepted):
        first = CollectionService().start()
        host, port = first.url.removeprefix("http://").split(":")
        client = strict_client(first.url)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        client.send_batch("age", "b0", [1])
        first.stop()
        again = CollectionService(listen=(host, int(port)))
        again.registry.register("age", "GRR", k=8, epsilon=1.0)
        again.start()
        try:
            assert client.send_batch("age", "b1", [2, 3])["status"] == "queued"
            client.flush()
            assert again.stats()["attributes"]["age"]["accepted_reports"] == 2
        finally:
            client.close()
            again.stop()
        assert len(accepted) == 2

    def test_server_idle_close_is_survived_without_backing_off(
        self, monkeypatch, accepted
    ):
        monkeypatch.setattr(core_http, "CONNECTION_TIMEOUT_S", 0.2)
        with CollectionService() as svc, strict_client(svc.url) as client:
            client.register_attribute("age", "GRR", k=8, epsilon=1.0)
            wait_until(lambda: accepted[0].fileno() == -1)  # closed while idle
            assert client.send_batch("age", "b0", [1])["status"] == "queued"
        assert len(accepted) == 2

    def test_reply_announcing_close_is_followed_by_a_new_connection(self, accepted):
        class ClosingHandler(JSONHandler):
            def do_GET(self) -> None:  # noqa: N802
                self.close_connection = True
                self._reply({"status": "ok"})

        server = JSONServer(("127.0.0.1", 0), ClosingHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with strict_client(f"http://{host}:{port}") as client:
                for _ in range(3):
                    assert client.call("GET", "/") == {"status": "ok"}
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert len(accepted) == 3

    def test_failure_on_a_fresh_connection_is_not_resent(self):
        # a listener that hangs up on every connection: the first attempt
        # fails before any reply byte, on a connection that was never reused
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)
        accepts = []
        done = threading.Event()

        def hang_up() -> None:
            while not done.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                accepts.append(conn)
                conn.close()

        thread = threading.Thread(target=hang_up, daemon=True)
        thread.start()
        try:
            host, port = listener.getsockname()[:2]
            client = strict_client(f"http://{host}:{port}")
            with pytest.raises(ServiceUnavailableError, match="unreachable"):
                client.call("GET", "/healthz")
        finally:
            done.set()
            thread.join(timeout=5)
            listener.close()
        assert len(accepts) == 1
