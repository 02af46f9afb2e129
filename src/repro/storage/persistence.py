"""Save and reopen whole TMan deployments.

A deployment directory holds three artifacts:

- ``config.json`` — the stored ``format`` (see below), the
  :class:`TManConfig` fields (boundary as a tuple) and the row count;
- ``tables.snap`` — every KV table (primary, secondaries, metadata);
- ``cache.rdb`` — the Redis-backed shape index cache.

``save_tman`` / ``open_tman`` round-trip all state needed to keep querying:
index parameters, every stored row, and the shape-code mappings.  The
volatile buffer shape cache is intentionally not persisted (the paper's
update protocol re-stages unknown shapes on demand).

``config.json`` states the stored format it was saved in
(:data:`repro.kvstore.durable.FORMAT`: row layout, key layouts, engine
files).  ``open_tman`` refuses another format, or none, and a ``codec``
other than :attr:`TManConfig.codec` (deployments saved while the codec was
a field state it), with :class:`~repro.kvstore.errors.FormatMismatchError`
before any table is read; it refuses a key that is neither a field, nor
the format, codec or row count, nor one of :data:`RETIRED_KEYS`.  A saved
deployment is brought to a new format test-side
(``tests/data/deployment_parent/rewrite.py``) or reloaded from its source
data.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional, Union

from repro.cache.redis_sim import RedisServer
from repro.kvstore.durable import FORMAT, format_mismatch
from repro.kvstore.errors import FormatMismatchError
from repro.kvstore.snapshot import load_cluster, save_cluster
from repro.model.mbr import MBR
from repro.storage.config import TManConfig
from repro.storage.tman import TMan, cluster_from

CONFIG_FILE = "config.json"
TABLES_FILE = "tables.snap"
CACHE_FILE = "cache.rdb"
# Fields TManConfig dropped on purpose; a config.json that still holds them
# opens as if they were absent.
RETIRED_KEYS = frozenset({
    "block_cache_bytes", "coalesce_windows", "columnar_decode",
    "index_cache_capacity", "multi_get_batch", "row_format_version",
    "scan_batch_rows", "window_concurrency", "window_parallel",
    "write_stall_timeout_ms",
})


def save_tman(tman: TMan, directory: Union[str, Path]) -> None:
    """Persist a deployment (tables + index cache + config) to a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    doc = {"format": FORMAT, **dataclasses.asdict(tman.config)}
    doc["boundary"] = tman.config.boundary.as_tuple()
    # Snapshots always reopen in thread mode: the table dump below
    # streams every row out of the live deployment (works identically
    # over the cluster RPC layer), and the restored copy is a
    # self-contained single-process deployment.  Re-enable process
    # mode explicitly via config_overrides at open time.
    doc["cluster_mode"] = "threads"
    doc["row_count"] = tman.row_count
    (directory / CONFIG_FILE).write_text(json.dumps(doc, indent=2))
    save_cluster(tman.cluster, directory / TABLES_FILE)
    (directory / CACHE_FILE).write_bytes(tman.index_cache.redis.dump())


def open_tman(
    directory: Union[str, Path],
    config_overrides: Optional[dict] = None,
) -> TMan:
    """Reopen a deployment saved with :func:`save_tman`.

    ``config_overrides`` replaces individual persisted config fields for
    this process only (the directory is not rewritten) — e.g. to reopen
    a snapshot in process mode.  A deployment of another stored format or
    codec raises :class:`~repro.kvstore.errors.FormatMismatchError`; persisted
    keys in :data:`RETIRED_KEYS` are ignored, and any other unknown key
    raises ``ValueError``.
    """
    directory = Path(directory)
    doc = json.loads((directory / CONFIG_FILE).read_text())
    if doc.get("format") != FORMAT:
        raise format_mismatch(directory, doc.get("format"))
    if doc.get("codec", TManConfig.codec) != TManConfig.codec:
        raise FormatMismatchError(
            f"{directory} holds rows packed with codec {doc['codec']!r}; "
            f"this build reads {TManConfig.codec!r}"
        )
    known = {f.name for f in dataclasses.fields(TManConfig)}
    unknown = set(doc) - known - RETIRED_KEYS - {"format", "codec", "row_count"}
    if unknown:
        raise ValueError(f"{directory / CONFIG_FILE}: unknown keys {sorted(unknown)}")
    doc = {name: value for name, value in doc.items() if name in known}
    doc["boundary"] = MBR(*doc["boundary"])
    doc["secondary_indexes"] = tuple(doc["secondary_indexes"])
    if config_overrides:
        doc.update(config_overrides)
    config = TManConfig(**doc)

    # The snapshot's tables are restored into the cluster the (overridden)
    # config asks for, so a snapshot reopens in process mode too.
    cluster = cluster_from(config)
    try:
        load_cluster(directory / TABLES_FILE, cluster)
        redis = RedisServer.from_dump((directory / CACHE_FILE).read_bytes())
        tman = TMan(config, cluster=cluster, redis=redis)
        tman._owns_cluster = True  # the restored cluster belongs to this facade
        tman.rebuild_statistics()
    except BaseException:
        cluster.close()  # stops any workers the cluster started
        raise
    return tman
