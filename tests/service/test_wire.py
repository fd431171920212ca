"""Binary ``/report`` wire format: codec round trips and decoder fuzzing.

The decoder is the service's untrusted edge, so it is fuzzed twice: as a
pure function (every malformed body raises ``InvalidParameterError``, never
another exception) and over a real loopback socket (every malformed body
gets a 4xx reply — never a 500, a hang, a dropped socket or a batch that
fails later in the applier).
"""

from __future__ import annotations

import http.client
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.retry import RetryPolicy
from repro.exceptions import InvalidParameterError
from repro.protocols.registry import make_protocol
from repro.service import CollectionClient, CollectionService, ServiceUnavailableError
from repro.service.wire import (
    MAX_HEADER_BYTES,
    REPORT_CONTENT_TYPE,
    decode_batch,
    encode_batch,
)

#: ``(protocol, k)`` of every oracle the service can collect.
PROTOCOLS = (("GRR", 100), ("OLH", 100), ("SS", 16), ("SUE", 64), ("OUE", 12))

FAST = RetryPolicy(max_retries=2, base_delay=0.001, max_delay=0.002, jitter=0.0)


def body(header: object, data: bytes = b"") -> bytes:
    """A ``/report`` body with an arbitrary header (JSON-encoded unless bytes)."""
    head = header if isinstance(header, bytes) else json.dumps(header).encode()
    return struct.pack("<I", len(head)) + head + data


def header(**fields: object) -> dict:
    return {"attribute": "age", "batch_id": "b0", "dtype": "u1", "shape": [2], **fields}


def randomized(protocol: str, k: int, n: int) -> np.ndarray:
    oracle = make_protocol(protocol, k=k, epsilon=1.0, rng=n)
    return np.asarray(oracle.randomize_many(np.arange(n) % k))


# --------------------------------------------------------------------------- #
# codec
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    @pytest.mark.parametrize("n", (0, 1, 37))
    @pytest.mark.parametrize("protocol,k", PROTOCOLS)
    def test_every_protocol_decodes_to_the_sent_array(self, protocol, k, n):
        reports = randomized(protocol, k, n)
        head, decoded = decode_batch(encode_batch("age", "b0", reports, t=2.5))
        assert (head.attribute, head.batch_id, head.t) == ("age", "b0", 2.5)
        assert decoded.shape == reports.shape
        assert np.array_equal(decoded, reports)

    def test_writes_the_narrowest_unsigned_dtype(self):
        for values, dtype in (
            ([0, 255], "u1"),
            ([256], "u2"),
            ([2**16], "u4"),
            ([2**32], "u8"),
            (np.asarray([2**63 - 1], dtype=np.uint64), "u8"),
        ):
            head, decoded = decode_batch(encode_batch("a", "b", values))
            assert f"u{head.dtype.itemsize}" == dtype
            assert np.array_equal(decoded, np.asarray(values))

    def test_bit_matrices_ship_packed(self):
        reports = randomized("SUE", 64, 2048)
        encoded = encode_batch("flags", "b0", reports)
        head, decoded = decode_batch(encoded)
        assert head.packed_k == 64 and head.shape == (2048, 8)
        assert len(encoded) < 2048 * 8 + 128  # 16 kB, not 128 kB of u1
        assert decoded.dtype == np.uint8 and np.array_equal(decoded, reports)

    def test_lists_and_missing_t(self):
        head, decoded = decode_batch(encode_batch("age", "b0", [[0, 1], [1, 1]]))
        assert head.t is None
        assert np.array_equal(decoded, [[0, 1], [1, 1]])
        _, decoded = decode_batch(encode_batch("age", "b0", []))
        assert decoded.shape == (0,)

    @pytest.mark.parametrize(
        "bad",
        (
            [-1],                          # negative
            np.asarray([[3, -2]]),         # negative in a matrix
            [1.5],                         # non-integer
            np.asarray([1.0, 2.0]),        # float dtype
            np.asarray([2**63], dtype=np.uint64),  # above int64
            ["a"],                         # not a number
            [[1, 2], [3]],                 # ragged
            7,                             # 0-D
            np.zeros((1, 1, 1), dtype=int),  # 3-D
        ),
    )
    def test_client_refuses_before_sending(self, monkeypatch, bad):
        def no_network(*args, **kwargs):
            raise AssertionError("the client opened a connection")

        monkeypatch.setattr(http.client, "HTTPConnection", no_network)
        client = CollectionClient("http://127.0.0.1:9", retry_policy=FAST)
        with pytest.raises(InvalidParameterError):
            client.send_batch("age", "b0", bad)


# --------------------------------------------------------------------------- #
# malformed bodies, one strategy per defect class
# --------------------------------------------------------------------------- #
def _valid_body(draw) -> bytes:
    protocol, k = draw(st.sampled_from(PROTOCOLS))
    n = draw(st.integers(min_value=1, max_value=6))
    return encode_batch("age", "b0", randomized(protocol, k, n), t=1.0)


@st.composite
def truncated(draw) -> bytes:
    full = _valid_body(draw)
    return full[: draw(st.integers(min_value=0, max_value=len(full) - 1))]


@st.composite
def header_length_out_of_bounds(draw) -> bytes:
    full = _valid_body(draw)
    declared = draw(
        st.one_of(
            st.integers(min_value=len(full) - 3, max_value=2**32 - 1),
            st.integers(min_value=MAX_HEADER_BYTES + 1, max_value=2**32 - 1),
        )
    )
    return struct.pack("<I", declared) + full[4:]


@st.composite
def header_not_an_object(draw) -> bytes:
    raw = draw(
        st.one_of(
            st.binary(max_size=64).filter(lambda b: not b.strip().startswith(b"{")),
            st.sampled_from([b"[1, 2]", b"null", b"3", b'"age"', b"{", b"\xff\xfe",
                             b"[" * 2000 + b"]" * 2000]),
            st.builds(lambda v: json.dumps(v).encode(),
                      st.one_of(st.integers(), st.lists(st.integers()), st.text())),
        )
    )
    return body(raw, b"\x01\x02")


@st.composite
def missing_key(draw) -> bytes:
    fields = header()
    name = draw(st.sampled_from(["attribute", "batch_id"]))
    if draw(st.booleans()):
        del fields[name]
    else:
        fields[name] = draw(st.sampled_from(["", None, 7, ["age"], {"a": 1}]))
    return body(fields, b"\x01\x02")


@st.composite
def unknown_dtype(draw) -> bytes:
    dtype = draw(
        st.one_of(
            st.text(max_size=4).filter(lambda s: s not in ("u1", "u2", "u4", "u8")),
            st.sampled_from([None, 1, ["u1"], "i8", "f8", "<u1", "U1"]),
        )
    )
    return body(header(dtype=dtype), b"\x01\x02")


@st.composite
def shape_mismatch(draw) -> bytes:
    shape = draw(
        st.one_of(
            st.lists(st.integers(min_value=-(2**70), max_value=-1), min_size=1, max_size=2),
            st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=2)
            .filter(lambda s: int(np.prod(s)) != 2),
            st.sampled_from([[], [1, 1, 2], "2", None, [2.0], [True, 2], [2**70, 0]]),
        )
    )
    return body(header(shape=shape), b"\x01\x02")


@st.composite
def packed_mismatch(draw) -> bytes:
    k = draw(st.integers(min_value=1, max_value=40))
    width = (k + 7) // 8
    rows = draw(st.integers(min_value=1, max_value=4))
    if k % 8 and draw(st.booleans()):
        # one padding bit past k set in some row
        data = bytearray(rows * width)
        bit = draw(st.integers(min_value=0, max_value=7 - k % 8))
        data[draw(st.integers(0, rows - 1)) * width + width - 1] = 1 << bit
        return body(header(dtype="u1", shape=[rows, width], packed_k=k), bytes(data))
    bad_k = draw(
        st.one_of(
            st.integers(min_value=-5, max_value=200).filter(
                lambda j: j < 1 or (j + 7) // 8 != width
            ),
            st.sampled_from([True, "8", 8.0, [8]]),
        )
    )
    dtype = draw(st.sampled_from(["u1", "u2"]))
    size = rows * width * (1 if dtype == "u1" else 2)
    return body(header(dtype=dtype, shape=[rows, width], packed_k=bad_k), bytes(size))


MALFORMED = st.one_of(
    truncated(),
    header_length_out_of_bounds(),
    header_not_an_object(),
    missing_key(),
    unknown_dtype(),
    shape_mismatch(),
    packed_mismatch(),
)


class TestDecoderRejects:
    @settings(max_examples=300, deadline=None)
    @given(raw=MALFORMED)
    def test_malformed_bodies_raise_invalid_parameter(self, raw):
        with pytest.raises(InvalidParameterError):
            decode_batch(raw)

    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(max_size=256))
    def test_arbitrary_bytes_decode_or_raise_invalid_parameter(self, raw):
        try:
            decode_batch(raw)
        except InvalidParameterError:
            pass

    @pytest.mark.parametrize("t", ("noon", [1.0], True, "NaN", float("nan"),
                                   float("inf"), -float("inf"), 10**400))
    def test_t_must_be_a_finite_number(self, t):
        with pytest.raises(InvalidParameterError, match="t must be"):
            decode_batch(body(header(t=t), b"\x01\x02"))

    def test_header_above_its_bound_is_refused_even_inside_the_body(self):
        head = json.dumps(header()).encode().ljust(MAX_HEADER_BYTES + 1)
        with pytest.raises(InvalidParameterError, match="exceeds"):
            decode_batch(body(head, b"\x01\x02"))
        decode_batch(body(head[:MAX_HEADER_BYTES], b"\x01\x02"))  # at the bound

    def test_deeply_nested_header_is_refused(self):
        with pytest.raises(InvalidParameterError, match="not JSON"):
            decode_batch(body(b"[" * 2000 + b"]" * 2000))

    def test_empty_array_with_a_huge_dimension_is_refused(self):
        with pytest.raises(InvalidParameterError, match="shape entries"):
            decode_batch(body(header(shape=[2**70, 0])))

    def test_u8_values_above_int64_are_refused(self):
        data = np.asarray([1, 2**63], dtype="<u8").tobytes()
        with pytest.raises(InvalidParameterError, match="int64"):
            decode_batch(body(header(dtype="u8"), data))


# --------------------------------------------------------------------------- #
# the same bodies over HTTP
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def live():
    service = CollectionService(queue_size=64)
    service.start()
    client = CollectionClient(service.url, retry_policy=FAST)
    for protocol, k in PROTOCOLS:
        client.register_attribute(protocol.lower(), protocol, k, 1.0)
    client.register_attribute("age", "GRR", 8, 1.0)
    yield service, client
    service.stop()


def post(client: CollectionClient, raw: bytes, content_type: str = REPORT_CONTENT_TYPE):
    """POST ``raw`` to ``/report``; the reply's status and JSON body."""
    conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
    try:
        conn.request("POST", "/report", raw, {"Content-Type": content_type})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def batches_applied(service: CollectionService) -> int:
    """Batches the applier has folded so far; none of them may have failed."""
    service.flush()
    stats = service.stats()
    assert stats["failed_batches"] == 0
    return sum(a["batches"] for a in stats["attributes"].values())


class TestHttpEdge:
    @settings(max_examples=150, deadline=None)
    @given(raw=st.one_of(MALFORMED, st.binary(max_size=64)))
    def test_malformed_bodies_get_400(self, live, raw):
        service, client = live
        before = batches_applied(service)
        status, reply = post(client, raw)
        assert status == 400, reply
        assert "error" in reply
        assert batches_applied(service) == before

    @pytest.mark.parametrize("protocol,k", PROTOCOLS)
    def test_u8_values_above_int64_get_400_for_every_protocol(self, live, protocol, k):
        service, client = live
        width = {"GRR": None, "OLH": 3, "SS": make_protocol("SS", k=k, epsilon=1.0).omega}
        columns = width.get(protocol, k)
        shape = [1] if columns is None else [1, columns]
        huge = np.full(shape, 2**63, dtype="<u8").tobytes()
        before = batches_applied(service)
        status, reply = post(
            client, body(header(attribute=protocol.lower(), dtype="u8", shape=shape), huge)
        )
        assert status == 400 and "int64" in reply["error"]
        assert batches_applied(service) == before

    def test_json_body_gets_415(self, live):
        service, client = live
        before = batches_applied(service)
        with pytest.raises(ServiceUnavailableError, match="415"):
            client.call("POST", "/report", {"attribute": "age", "batch_id": "b0",
                                            "reports": [1]})
        status, _ = post(client, encode_batch("age", "b0", [1]), "application/json")
        assert status == 415
        assert batches_applied(service) == before

    def test_connection_survives_a_refused_body(self, live):
        # the handler drains a refused body, so a kept-alive connection's
        # next request is parsed from the right byte
        service, client = live
        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request("POST", "/report", body(header(dtype="u9"), b"\x01\x02"),
                         {"Content-Type": REPORT_CONTENT_TYPE})
            response = conn.getresponse()
            response.read()
            assert response.status == 400
            conn.request("GET", "/healthz")
            assert json.loads(conn.getresponse().read()) == {"status": "ok"}
        finally:
            conn.close()

    @pytest.mark.parametrize("n", (0, 1, 50))
    @pytest.mark.parametrize("protocol,k", PROTOCOLS)
    def test_server_decodes_what_the_client_sent(self, live, monkeypatch, protocol, k, n):
        service, client = live
        collector = service.registry.get(protocol.lower())
        received = []
        original = collector.decode

        def spy(reports):
            received.append(reports)
            return original(reports)

        monkeypatch.setattr(collector, "decode", spy)
        reports = randomized(protocol, k, n)
        client.send_batch(protocol.lower(), f"round-trip-{n}", reports)
        client.flush()
        (got,) = received
        assert got.shape == reports.shape and np.array_equal(got, reports)
        assert client.stats()["failed_batches"] == 0
