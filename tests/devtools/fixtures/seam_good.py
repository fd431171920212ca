"""Fixture: seam-respecting store construction and canonical hashing."""

import hashlib
import json

from repro.experiments.grid import CellStore


def build_cache(directory: str | None):
    return CellStore.from_options(directory, max_entries=100)


def build_store(directory: str | None):
    from repro.experiments.cellstore import SQLiteCellStore

    return SQLiteCellStore.for_directory(directory)  # factory classmethod: fine


def config_hash(config: dict) -> str:
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def artifact_dump(rows: list) -> str:
    # json.dumps outside any hashing function needs no sort_keys
    return json.dumps(rows)
