"""Run a collection service from the command line.

``python -m repro.service --listen 127.0.0.1:8787 \\
    --attribute age:GRR:16:1.0 --attribute city:OLH:64:2.0 \\
    --window sliding:60x4``

The process serves until interrupted; ``GET /stats`` is the live health
view.  A bad flag value, or an address that cannot be bound, prints one
``error:`` line and exits 2.  The same flags are reachable through the main
CLI as ``python -m repro.experiments.runner --serve ...``.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import Sequence

from ..exceptions import InvalidParameterError
from ..experiments.remote import parse_listen
from .server import CollectionService, parse_attribute_spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run a live LDP collection service.",
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help="HOST:PORT to bind (default 127.0.0.1:0 = ephemeral port)",
    )
    parser.add_argument(
        "--attribute",
        action="append",
        default=[],
        metavar="NAME:PROTOCOL:K:EPSILON",
        help="attribute to collect (repeatable), e.g. age:GRR:16:1.0",
    )
    parser.add_argument(
        "--window",
        default="cumulative",
        help="window spec: cumulative, tumbling:SECONDS or sliding:SECONDSxPANES",
    )
    parser.add_argument(
        "--queue-size",
        type=int,
        default=256,
        help="ingest queue bound in batches (backpressure beyond it)",
    )
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        service = CollectionService(
            listen=parse_listen(args.listen),
            window=args.window,
            queue_size=args.queue_size,
        )
        for spec in args.attribute:
            service.registry.register(**parse_attribute_spec(spec))
        service.start()
    except (InvalidParameterError, OSError) as exc:  # OSError: cannot bind
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(f"collection service listening on {service.url}", flush=True)
        for name in service.registry.attributes():
            print(f"  attribute {name}: {service.registry.get(name).stats()}", flush=True)
        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        service.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
