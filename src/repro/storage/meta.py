"""The metadata table (§IV-B(4)).

Stores index parameters as a JSON row in the key-value store so a
deployment reopened against the same cluster is checked against the
parameters its rows were encoded with.  The same table holds the shape-code
mappings, one row per enlarged element (``repro/cache/index_cache.py``).
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.kvstore.cluster import Cluster
from repro.kvstore.table import Table

META_TABLE = "tman_meta"


class MetadataTable:
    """Thin JSON document store over one KV table."""

    def __init__(self, cluster: Cluster):
        self.table: Table = cluster.create_table(META_TABLE, if_not_exists=True)

    def put(self, key: str, doc: dict[str, Any]) -> None:
        """Insert or overwrite ``key`` with ``value``."""
        self.table.put(key.encode("utf-8"), json.dumps(doc, sort_keys=True).encode("utf-8"))

    def get(self, key: str) -> Optional[dict[str, Any]]:
        """Return the value stored under ``key``, or ``None`` when absent."""
        raw = self.table.get(key.encode("utf-8"))
        if raw is None:
            return None
        return json.loads(raw.decode("utf-8"))

    def record_config(self, config_doc: dict[str, Any]) -> bool:
        """Persist the deployment's index parameters (α, β, periods, ...), or
        check them against the ones already stored; returns whether some
        were.  Raises ``ValueError`` naming each parameter that differs."""
        stored = self.load_config()
        if stored is None:
            self.put("config", config_doc)
            return False
        wanted = json.loads(json.dumps(config_doc))  # tuples read back as lists
        differ = sorted(k for k in wanted.keys() | stored.keys() if wanted.get(k) != stored.get(k))
        if differ:
            raise ValueError(
                "the store holds rows indexed with other parameters: "
                + "; ".join(f"{k} is {stored.get(k)!r}, not {wanted.get(k)!r}" for k in differ)
            )
        return True

    def load_config(self) -> Optional[dict[str, Any]]:
        """Load config."""
        return self.get("config")
