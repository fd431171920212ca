"""Binary body of ``POST /report``: one report batch as array bytes.

A body (``Content-Type: application/octet-stream``) has three parts::

    4 bytes    little-endian u32: the header length H (at most MAX_HEADER_BYTES)
    H bytes    JSON header {attribute, batch_id, t?, dtype, shape, packed_k?}
    the rest   the array's C-order, little-endian bytes

``dtype`` is ``u1``, ``u2``, ``u4`` or ``u8``, and ``shape`` is the shape of
the array on the wire (one or two dimensions).  :func:`encode_batch` writes
the narrowest dtype that holds the batch, and bit-packs a 0/1 matrix (the UE
protocols' bit rows) as :class:`~repro.protocols.streaming.PackedBits` does:
``packed_k`` is the matrix width k, the wire array is the ``u1`` matrix
``(n, ceil(k / 8))``, and the padding bits past k are zero.

:func:`read_batch` checks the header and the byte count before it reads any
array data, then rebuilds the array with :func:`numpy.frombuffer`.  A packed
body decodes to the dense matrix it stands for, so every batch
:func:`encode_batch` accepts decodes to ``np.asarray(reports)``.  Every
malformed body raises :class:`~repro.exceptions.InvalidParameterError` (an
HTTP 400 at the service edge).
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..core.http import MAX_BODY_BYTES
from ..exceptions import InvalidParameterError
from ..protocols.streaming import PackedBits

#: ``Content-Type`` of a ``/report`` body; any other type gets a 415.
REPORT_CONTENT_TYPE = "application/octet-stream"

#: Largest JSON header a body may declare.
MAX_HEADER_BYTES = 4096

#: Wire dtypes: unsigned, little-endian.
DTYPES = {name: np.dtype(f"<{name}") for name in ("u1", "u2", "u4", "u8")}

_HEADER_LENGTH = struct.Struct("<I")
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class BatchHeader:
    """The checked JSON header of one ``/report`` body."""

    attribute: str
    batch_id: str
    t: "float | None"
    dtype: np.dtype
    shape: tuple[int, ...]
    packed_k: "int | None" = None

    @property
    def nbytes(self) -> int:
        """Array bytes the body must carry after the header."""
        return math.prod(self.shape) * self.dtype.itemsize


def event_time(t: Any) -> float:
    """``t`` as a finite float event time.

    A NaN or infinite stamp cannot place a batch in any pane, so both ingest
    edges (the ``/report`` header and ``ingest_local``) refuse it instead of
    letting the applier fail or mis-fold the batch later.
    """
    if isinstance(t, bool) or not isinstance(t, (int, float, np.integer, np.floating)):
        raise InvalidParameterError(f"t must be a number, got {t!r}")
    try:
        value = float(t)
    except OverflowError as exc:
        raise InvalidParameterError(f"t must be a finite number, got {t!r}") from exc
    if not math.isfinite(value):
        raise InvalidParameterError(f"t must be a finite number, got {t!r}")
    return value


def _unsigned(reports: Any) -> tuple[np.ndarray, int]:
    """``reports`` as the narrowest unsigned array that holds it, and its maximum."""
    try:
        array = np.asarray(reports)
    except ValueError as exc:
        raise InvalidParameterError(f"reports are not a rectangular array: {exc}") from exc
    if array.ndim not in (1, 2):
        raise InvalidParameterError(
            f"reports must be a 1-D or 2-D array, got shape {array.shape}"
        )
    if array.size == 0:
        return array.astype(np.uint8), 0
    if array.dtype.kind not in "biu":
        raise InvalidParameterError(f"reports must be integers, got {array.dtype} values")
    low, high = int(array.min()), int(array.max())
    if low < 0 or high > _INT64_MAX:
        raise InvalidParameterError(
            f"reports must be integers in [0, {_INT64_MAX}], got values in [{low}, {high}]"
        )
    return array.astype(np.min_scalar_type(high), copy=False), high


def encode_batch(
    attribute: str, batch_id: str, reports: Any, t: "float | None" = None
) -> bytes:
    """One ``/report`` body for ``reports`` (an integer array or nested lists).

    Raises :class:`~repro.exceptions.InvalidParameterError` for negative,
    non-integer, above-int64 or more than 2-D reports, and for a ``t`` that
    is not a finite number.
    """
    header: dict[str, Any] = {"attribute": str(attribute), "batch_id": str(batch_id)}
    if t is not None:
        header["t"] = event_time(t)
    array, high = _unsigned(reports)
    if array.ndim == 2 and array.size and high <= 1:
        packed = PackedBits.pack(array)
        array, header["packed_k"] = packed.data, packed.k
    header["dtype"] = f"u{array.dtype.itemsize}"
    header["shape"] = list(array.shape)
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    data = array.astype(DTYPES[header["dtype"]], copy=False).tobytes()
    return _HEADER_LENGTH.pack(len(head)) + head + data


def _dimension(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"shape entries must be integers, got {value!r}")
    if not 0 <= value <= MAX_BODY_BYTES:
        raise InvalidParameterError(
            f"shape entries must be in [0, {MAX_BODY_BYTES}], got {value}"
        )
    return value


def parse_header(raw: bytes) -> BatchHeader:
    """Check one JSON header; any defect raises ``InvalidParameterError``."""
    try:
        fields = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise InvalidParameterError(f"batch header is not JSON: {exc}") from exc
    if not isinstance(fields, dict):
        raise InvalidParameterError("batch header must be a JSON object")
    for name in ("attribute", "batch_id"):
        if not isinstance(fields.get(name), str) or not fields[name]:
            raise InvalidParameterError(f"batch header needs a non-empty string {name!r}")
    t = fields.get("t")
    dtype = fields.get("dtype")
    if not isinstance(dtype, str) or dtype not in DTYPES:
        raise InvalidParameterError(f"dtype must be one of {sorted(DTYPES)}, got {dtype!r}")
    shape = fields.get("shape")
    if not isinstance(shape, list) or len(shape) not in (1, 2):
        raise InvalidParameterError(f"shape must list one or two sizes, got {shape!r}")
    shape = tuple(_dimension(value) for value in shape)
    packed_k = fields.get("packed_k")
    if packed_k is not None:
        if isinstance(packed_k, bool) or not isinstance(packed_k, int) or packed_k < 1:
            raise InvalidParameterError(f"packed_k must be an integer >= 1, got {packed_k!r}")
        if dtype != "u1" or len(shape) != 2 or shape[1] != (packed_k + 7) // 8:
            raise InvalidParameterError(
                f"a packed batch is a u1 (n, {(packed_k + 7) // 8}) array for "
                f"packed_k={packed_k}, got {dtype} {list(shape)}"
            )
    return BatchHeader(
        attribute=fields["attribute"],
        batch_id=fields["batch_id"],
        t=None if t is None else event_time(t),
        dtype=DTYPES[dtype],
        shape=shape,
        packed_k=packed_k,
    )


def decode_array(header: BatchHeader, data: bytes) -> np.ndarray:
    """The dense report array that ``header.nbytes`` of ``data`` stand for."""
    array = np.frombuffer(data, dtype=header.dtype).reshape(header.shape)
    if header.packed_k is not None:
        spare = -header.packed_k % 8
        if spare and array.size and np.any(array[:, -1] & ((1 << spare) - 1)):
            raise InvalidParameterError(
                f"packed rows set padding bits past packed_k={header.packed_k}"
            )
        return PackedBits(array, header.packed_k).unpack()
    if header.dtype.itemsize == 8 and array.size and int(array.max()) > _INT64_MAX:
        raise InvalidParameterError("u8 report values exceed int64's maximum")
    return array


def read_batch(
    read: Callable[[int], bytes], length: int
) -> tuple[BatchHeader, np.ndarray]:
    """Decode a ``length``-byte body from ``read`` (which returns exactly n bytes).

    The header length, the header and the array byte count are all checked
    before any array data is read.
    """
    if length < _HEADER_LENGTH.size:
        raise InvalidParameterError(
            f"report body of {length} bytes has no {_HEADER_LENGTH.size}-byte header length"
        )
    (header_length,) = _HEADER_LENGTH.unpack(read(_HEADER_LENGTH.size))
    if header_length > MAX_HEADER_BYTES:
        raise InvalidParameterError(
            f"header length {header_length} exceeds {MAX_HEADER_BYTES} bytes"
        )
    data_length = length - _HEADER_LENGTH.size - header_length
    if data_length < 0:
        raise InvalidParameterError(
            f"header length {header_length} runs past the {length}-byte body"
        )
    header = parse_header(read(header_length))
    if data_length != header.nbytes:
        raise InvalidParameterError(
            f"body carries {data_length} array bytes; a {header.dtype.name} "
            f"{list(header.shape)} array needs {header.nbytes}"
        )
    return header, decode_array(header, read(data_length))


def decode_batch(body: bytes) -> tuple[BatchHeader, np.ndarray]:
    """Decode one whole ``/report`` body held in memory."""
    return read_batch(io.BytesIO(body).read, len(body))
