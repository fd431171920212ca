"""End-to-end collection-service tests: registry, HTTP, backpressure, parity.

The service tests follow the remote-executor test philosophy: real HTTP on a
loopback ephemeral port, deterministic load (seeded generators, injected
clocks), and byte-identical parity assertions against the one-shot
``aggregate`` reference — never statistical tolerance where exactness is the
contract.
"""

from __future__ import annotations

import http.client
import json
import math
import struct

import numpy as np
import pytest

from repro.core.retry import RetryPolicy
from repro.exceptions import InvalidParameterError
from repro.service import (
    CollectionClient,
    CollectionService,
    LoadGenerator,
    ServiceUnavailableError,
    parse_attribute_spec,
)
from repro.service.server import CollectorRegistry
from repro.service.wire import REPORT_CONTENT_TYPE, encode_batch

FAST = RetryPolicy(max_retries=6, base_delay=0.005, max_delay=0.02, jitter=0.0)


@pytest.fixture()
def service():
    svc = CollectionService(queue_size=64)
    svc.start()
    yield svc
    svc.stop()


def client_for(service: CollectionService) -> CollectionClient:
    return CollectionClient(service.url, retry_policy=FAST)


def post_report(service: CollectionService, body: bytes) -> tuple[int, dict]:
    """POST one binary ``/report`` body; the reply's status and JSON."""
    host, port = service.url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=5)
    try:
        conn.request("POST", "/report", body, {"Content-Type": REPORT_CONTENT_TYPE})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def hand_built(header: dict, data: bytes) -> bytes:
    """A ``/report`` body with a header the client would never write."""
    head = json.dumps(header).encode("utf-8")
    return struct.pack("<I", len(head)) + head + data


class TestParseAttributeSpec:
    def test_parses(self):
        spec = parse_attribute_spec("age:GRR:16:1.5")
        assert spec == {"attribute": "age", "protocol": "GRR", "k": 16, "epsilon": 1.5}

    @pytest.mark.parametrize("bad", ("age", "age:GRR:16", ":GRR:16:1.0", "a:GRR:x:1.0"))
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_attribute_spec(bad)


class TestCollectorRegistry:
    def test_register_is_idempotent_for_equivalent_estimators(self):
        registry = CollectorRegistry()
        a = registry.register("age", "GRR", k=16, epsilon=1.0)
        b = registry.register("age", "GRR", k=16, epsilon=1.0)
        assert a is b
        assert registry.attributes() == ("age",)

    def test_register_rejects_conflicting_estimators(self):
        registry = CollectorRegistry()
        registry.register("age", "GRR", k=16, epsilon=1.0)
        with pytest.raises(InvalidParameterError, match="already registered"):
            registry.register("age", "GRR", k=16, epsilon=2.0)
        with pytest.raises(InvalidParameterError, match="already registered"):
            registry.register("age", "OUE", k=16, epsilon=1.0)

    def test_attributes_ingest_independently(self):
        registry = CollectorRegistry()
        age = registry.register("age", "GRR", k=8, epsilon=1.0, rng=0)
        city = registry.register("city", "OUE", k=8, epsilon=1.0, rng=1)
        age.apply("b0", age.decode(age.oracle.randomize_many([1, 2, 3]).tolist()), 0.0)
        city.apply("b0", city.decode(city.oracle.randomize_many([4]).tolist()), 0.0)
        assert age.stats()["accepted_reports"] == 3
        assert city.stats()["accepted_reports"] == 1


class TestServiceEndToEnd:
    @pytest.mark.parametrize("protocol", ("GRR", "OLH", "SS", "SUE", "OUE"))
    def test_estimate_matches_one_shot_aggregate_byte_for_byte(self, service, protocol):
        client = client_for(service)
        client.register_attribute("age", protocol, k=32, epsilon=1.0)
        load = LoadGenerator(
            protocol, k=32, epsilon=1.0, users=3000, batch_size=500,
            churn=0.3, drift=2, duplicate_every=2, rng=11,
        )
        reference = LoadGenerator(
            protocol, k=32, epsilon=1.0, users=3000, batch_size=500,
            churn=0.3, drift=2, duplicate_every=2, rng=11,
        )
        unique = [r for _, r, dup in reference.batches() if not dup]
        sent = load.drive(client, "age")
        assert sent["duplicate_batches_sent"] > 0
        client.flush()
        estimate = client.estimate("age")
        one_shot = reference.oracle.aggregate(np.concatenate(unique))
        assert estimate["n"] == one_shot.n == 3000
        got = np.asarray(estimate["estimates"], dtype=float)
        assert got.tobytes() == one_shot.estimates.tobytes()
        stats = client.stats()["attributes"]["age"]
        assert stats["duplicate_batches"] == sent["duplicate_batches_sent"]
        assert stats["accepted_reports"] == 3000

    def test_many_attributes_concurrently(self, service):
        client = client_for(service)
        for name, protocol in (("a", "GRR"), ("b", "OLH"), ("c", "OUE")):
            client.register_attribute(name, protocol, k=8, epsilon=1.0)
            load = LoadGenerator(protocol, k=8, epsilon=1.0, users=200,
                                 batch_size=50, rng=3)
            load.drive(client, name)
        client.flush()
        stats = client.stats()["attributes"]
        assert sorted(stats) == ["a", "b", "c"]
        for name in ("a", "b", "c"):
            assert stats[name]["accepted_reports"] == 200
            assert client.estimate(name)["n"] == 200

    def test_unknown_attribute_is_404_not_retry(self, service):
        client = client_for(service)
        with pytest.raises(ServiceUnavailableError, match="404"):
            client.send_batch("ghost", "b0", [1, 2, 3])
        with pytest.raises(ServiceUnavailableError, match="404"):
            client.estimate("ghost")

    def test_missing_batch_id_is_400(self, service):
        client = client_for(service)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        header = {"attribute": "age", "dtype": "u1", "shape": [1]}
        status, reply = post_report(service, hand_built(header, b"\x01"))
        assert status == 400 and "batch_id" in reply["error"]

    def test_conflicting_reregistration_is_409(self, service):
        client = client_for(service)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)  # idempotent
        with pytest.raises(ServiceUnavailableError, match="409"):
            client.register_attribute("age", "GRR", k=8, epsilon=2.0)

    def test_duplicate_batches_are_dropped_exactly(self, service):
        client = client_for(service)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        reports = [1, 2, 3, 4]
        for _ in range(5):
            client.send_batch("age", "batch-0", reports)
        client.flush()
        stats = client.stats()["attributes"]["age"]
        assert stats["accepted_reports"] == 4
        assert stats["duplicate_batches"] == 4
        assert client.estimate("age")["n"] == 4

    def test_empty_window_estimate_is_no_data_not_error(self, service):
        client = client_for(service)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        estimate = client.estimate("age")
        assert estimate["n"] == 0
        assert estimate["estimates"] is None


class TestBackpressure:
    def test_paused_service_replies_429_and_client_retries(self, service):
        client = client_for(service)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        service.pause()
        with pytest.raises(ServiceUnavailableError, match="saturated"):
            client.send_batch("age", "b0", [1, 2, 3])
        assert client.backpressure_hits == FAST.max_retries + 1
        service.resume()
        assert client.send_batch("age", "b0", [1, 2, 3])["status"] == "queued"

    def test_retry_after_hint_floors_client_sleep(self, service):
        sleeps: list[float] = []
        client = CollectionClient(
            service.url,
            retry_policy=RetryPolicy(
                max_retries=2, base_delay=1e-4, max_delay=1e-4, jitter=0.0
            ),
            sleep=sleeps.append,
        )
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        service.pause()
        with pytest.raises(ServiceUnavailableError):
            client.send_batch("age", "b0", [1])
        service.resume()
        # every backoff sleep was floored by the server's Retry-After hint,
        # which exceeds the policy's tiny base delay
        assert sleeps and all(s >= service.retry_after for s in sleeps)

    def test_full_queue_is_backpressure_not_crash(self):
        svc = CollectionService(queue_size=1)
        svc.start()
        try:
            client = client_for(svc)
            client.register_attribute("age", "GRR", k=8, epsilon=1.0)
            svc.pause()  # the applier keeps draining; pause forces rejection
            with pytest.raises(ServiceUnavailableError):
                client.send_batch("age", "b0", [1])
            assert svc.stats()["rejected_batches"] > 0
        finally:
            svc.stop()

    def test_rejected_batches_never_reach_a_collector(self, service):
        client = client_for(service)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        service.pause()
        with pytest.raises(ServiceUnavailableError):
            client.send_batch("age", "b0", [1, 2])
        service.resume()
        client.flush()
        assert client.stats()["attributes"]["age"]["accepted_reports"] == 0


class TestInjectedClock:
    def test_tumbling_window_over_http_with_explicit_timestamps(self):
        # event time comes from the request's ``t``; the window drops the
        # old pane when a new-edge report arrives
        svc = CollectionService(window="tumbling:10")
        svc.start()
        try:
            client = client_for(svc)
            client.register_attribute("age", "GRR", k=8, epsilon=1.0)
            client.send_batch("age", "b0", [1, 2, 3], t=1.0)
            client.flush()
            assert client.estimate("age")["n"] == 3
            client.send_batch("age", "b1", [4], t=10.0)  # exactly on the edge
            client.flush()
            assert client.estimate("age")["n"] == 1
            # a late batch for the expired pane is dropped and counted
            client.send_batch("age", "b2", [5, 6], t=3.0)
            client.flush()
            stats = client.stats()["attributes"]["age"]
            assert stats["late_dropped_reports"] == 2
            assert client.estimate("age")["n"] == 1
        finally:
            svc.stop()

    def test_ingest_local_matches_http_path(self):
        svc = CollectionService()
        svc.registry.register("age", "GRR", k=8, epsilon=1.0, rng=0)
        assert svc.ingest_local("age", "b0", [1, 2, 3], now=0.0) == "accepted"
        assert svc.ingest_local("age", "b0", [1, 2, 3], now=0.0) == "duplicate"
        with pytest.raises(InvalidParameterError):
            svc.ingest_local("ghost", "b0", [1])


class TestNonFiniteEventTime:
    """A NaN or infinite ``t`` is refused at the edge: it used to be queued,
    then failed in the applier (paned windows) or folded (cumulative)."""

    @pytest.mark.parametrize("t", (float("nan"), float("inf"), -float("inf")))
    @pytest.mark.parametrize("window", ("cumulative", "tumbling:10", "sliding:8x4"))
    def test_refused_over_http_and_in_process(self, window, t):
        svc = CollectionService(window=window)
        svc.start()
        try:
            client = client_for(svc)
            client.register_attribute("age", "GRR", k=8, epsilon=1.0)
            header = {"attribute": "age", "batch_id": "b0", "t": t,
                      "dtype": "u1", "shape": [3]}
            status, reply = post_report(svc, hand_built(header, b"\x01\x02\x03"))
            assert status == 400 and "finite" in reply["error"]
            with pytest.raises(InvalidParameterError, match="finite"):
                client.send_batch("age", "b1", [1, 2, 3], t=t)
            with pytest.raises(InvalidParameterError, match="finite"):
                svc.ingest_local("age", "b2", [1, 2, 3], now=t)
            client.flush()
            stats = client.stats()
            assert stats["failed_batches"] == 0
            assert stats["attributes"]["age"]["batches"] == 0
            assert client.estimate("age")["n"] == 0
        finally:
            svc.stop()


class TestLoadGenerator:
    def test_deterministic_under_seed(self):
        a = LoadGenerator("GRR", k=8, epsilon=1.0, users=100, batch_size=30, rng=5)
        b = LoadGenerator("GRR", k=8, epsilon=1.0, users=100, batch_size=30, rng=5)
        for (id_a, rep_a, dup_a), (id_b, rep_b, dup_b) in zip(a.batches(), b.batches()):
            assert id_a == id_b and dup_a == dup_b
            assert np.array_equal(np.asarray(rep_a), np.asarray(rep_b))

    def test_duplicates_reuse_the_same_reports(self):
        gen = LoadGenerator(
            "GRR", k=8, epsilon=1.0, users=100, batch_size=25, duplicate_every=1, rng=5
        )
        batches = list(gen.batches())
        originals = {i: r for i, r, dup in batches if not dup}
        for batch_id, reports, dup in batches:
            if dup:
                assert np.array_equal(np.asarray(reports), np.asarray(originals[batch_id]))

    def test_emits_exactly_users_unique_reports(self):
        gen = LoadGenerator(
            "GRR", k=8, epsilon=1.0, users=103, batch_size=25, duplicate_every=2, rng=5
        )
        unique = sum(
            len(np.atleast_1d(r)) for _, r, dup in gen.batches() if not dup
        )
        assert unique == 103

    def test_validates_parameters(self):
        for kwargs in (
            {"users": 0},
            {"users": 10, "batch_size": 0},
            {"users": 10, "churn": 1.5},
            {"users": 10, "duplicate_every": -1},
        ):
            with pytest.raises(InvalidParameterError):
                LoadGenerator("GRR", k=8, epsilon=1.0, **kwargs)


class TestMalformedIngest:
    """REVIEW regressions: bad batches must be 400s or counted failures —
    never a dead applier thread, a deadlocked /flush, or a dropped socket."""

    def test_applier_survives_a_poison_batch(self, service):
        client = client_for(service)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        collector = service.registry.get("age")
        # bypass the decode() edge validation, as a buggy in-process caller
        # (or a future transport) might: the applier must not die
        assert service.enqueue(collector, "poison", np.asarray([-1]), 0.0)
        client.flush()  # deadlocks forever if the applier thread died
        assert client.stats()["failed_batches"] == 1
        client.send_batch("age", "b0", [1, 2, 3])
        client.flush()
        assert client.stats()["attributes"]["age"]["accepted_reports"] == 3
        assert client.estimate("age")["n"] == 3

    def test_invalid_report_values_are_400(self, service):
        client = client_for(service)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        client.register_attribute("city", "OLH", k=8, epsilon=1.0)
        for attribute, bad in (
            ("age", [8]),             # GRR value >= k
            ("city", [[1, 2], [3, 4]]),  # wrong-width OLH matrix
        ):
            with pytest.raises(ServiceUnavailableError, match="400"):
                client.send_batch(attribute, "b0", bad)
        client.flush()
        assert client.stats()["failed_batches"] == 0  # rejected at the edge

    def test_negative_report_values_fail_at_the_client(self, service):
        client = client_for(service)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        with pytest.raises(InvalidParameterError, match="integers in \\[0, "):
            client.send_batch("age", "b0", [-1])
        client.flush()
        assert client.stats()["attributes"]["age"]["batches"] == 0

    def test_non_numeric_t_is_400_not_connection_drop(self, service):
        client = client_for(service)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        header = {"attribute": "age", "batch_id": "b0", "dtype": "u1", "shape": [1]}
        for bad_t in ("noon", [1.0]):
            status, reply = post_report(service, hand_built(dict(header, t=bad_t), b"\x01"))
            assert status == 400 and "t must be" in reply["error"]
            with pytest.raises(InvalidParameterError, match="t must be"):
                client.send_batch("age", "b0", [1], t=bad_t)

    def test_non_numeric_json_fields_are_400_not_connection_drop(self, service):
        client = client_for(service)
        for bad_config in (
            {"attribute": "x", "protocol": "GRR", "k": "many", "epsilon": 1.0},
            {"attribute": "x", "protocol": "GRR", "k": 8, "epsilon": [1.0]},
        ):
            with pytest.raises(ServiceUnavailableError, match="400"):
                client.call("POST", "/attributes", bad_config)


class TestRetryAfterWireFormat:
    def test_header_is_integral_delta_seconds_body_keeps_float(self, service):
        client = client_for(service)
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        service.pause()
        conn = http.client.HTTPConnection(client.host, client.port, timeout=5)
        try:
            body = encode_batch("age", "b0", [1])
            conn.request("POST", "/report", body, {"Content-Type": REPORT_CONTENT_TYPE})
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
            service.resume()
        assert response.status == 429
        header = response.getheader("Retry-After")
        assert header is not None and header.isdigit()  # RFC 9110 delta-seconds
        assert int(header) == math.ceil(service.retry_after)
        assert json.loads(raw)["retry_after"] == pytest.approx(service.retry_after)

    def test_client_prefers_the_precise_body_hint(self, service):
        sleeps: list[float] = []
        client = CollectionClient(
            service.url,
            retry_policy=RetryPolicy(
                max_retries=1, base_delay=1e-6, max_delay=1e-6, jitter=0.0
            ),
            sleep=sleeps.append,
        )
        client.register_attribute("age", "GRR", k=8, epsilon=1.0)
        service.pause()
        with pytest.raises(ServiceUnavailableError):
            client.send_batch("age", "b0", [1])
        service.resume()
        # the ceiled header would round 0.05 up to 1; the client must pace on
        # the body's exact float instead
        assert sleeps == [pytest.approx(service.retry_after)]


class TestDedupRetention:
    def test_windowed_dedup_state_is_evicted_with_the_window(self):
        registry = CollectorRegistry(window="tumbling:10")
        c = registry.register("age", "GRR", k=8, epsilon=1.0, rng=0)
        assert c.apply("b0", c.decode([1, 2]), 1.0) == "accepted"
        assert c.apply("b0", c.decode([1, 2]), 1.0) == "duplicate"
        assert c.stats()["tracked_batch_ids"] == 1
        assert c.apply("b1", c.decode([3]), 25.0) == "accepted"
        assert c.stats()["tracked_batch_ids"] == 1  # b0's bucket evicted
        # a re-delivery of the forgotten batch is outside the retention: it
        # is dropped as late, so forgetting its id cannot double count
        assert c.apply("b0", c.decode([1, 2]), 1.0) == "late"
        stats = c.stats()
        assert stats["accepted_reports"] == 3
        assert stats["late_dropped_reports"] == 2
        assert stats["duplicate_batches"] == 1

    def test_cumulative_dedup_is_exact_and_retained(self):
        registry = CollectorRegistry()
        c = registry.register("age", "GRR", k=8, epsilon=1.0, rng=0)
        for i in range(5):
            assert c.apply(f"b{i}", c.decode([i]), float(i)) == "accepted"
        assert c.stats()["tracked_batch_ids"] == 5
        assert c.apply("b0", c.decode([0]), 99.0) == "duplicate"
