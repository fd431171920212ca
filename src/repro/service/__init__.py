"""Continuously running LDP collection service.

The paper's experiments aggregate each attribute once, offline; the ROADMAP's
north star is the same estimator math *serving* report streams from millions
of users.  This package turns the O(k) streaming accumulators of
:mod:`repro.protocols.streaming` into a long-running collection server:

* :mod:`repro.service.windows` — tumbling / sliding / cumulative windowed
  accumulators with explicit-``now`` semantics (hand-advanced clocks in
  tests, wall clocks in production) and late-report accounting;
* :mod:`repro.service.server` — a stdlib-only threading HTTP server
  (mirroring the remote executor's coordinator) that ingests report batches
  for many attributes concurrently through a bounded backpressure queue and
  serves snapshot-on-read estimates;
* :mod:`repro.service.client` — the matching HTTP client with
  ``Retry-After``-honouring backoff, plus a synthetic load generator with
  population churn and non-stationary value distributions;
* :mod:`repro.service.wire` — the binary ``/report`` body (a JSON header and
  little-endian array bytes, UE bit rows packed) that client and server
  share.

Estimates served by a cumulative-window collector are byte-identical to a
one-shot ``aggregate`` over the de-duplicated report stream: support counts
are integer-valued float64s, so accumulation order cannot change a bit.
"""

from .client import CollectionClient, LoadGenerator, ServiceUnavailableError
from .server import (
    AttributeCollector,
    CollectionService,
    CollectorRegistry,
    parse_attribute_spec,
)
from .windows import WindowSpec, WindowedAccumulator, parse_window

__all__ = [
    "AttributeCollector",
    "CollectionClient",
    "CollectionService",
    "CollectorRegistry",
    "LoadGenerator",
    "ServiceUnavailableError",
    "WindowSpec",
    "WindowedAccumulator",
    "parse_attribute_spec",
    "parse_window",
]
