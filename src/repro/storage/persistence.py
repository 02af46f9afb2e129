"""Save and reopen whole TMan deployments.

A deployment directory holds three artifacts:

- ``config.json`` — the :class:`TManConfig` fields (boundary as a tuple);
- ``tables.snap`` — every KV table (primary, secondaries, metadata);
- ``cache.rdb`` — the Redis-backed shape index cache.

``save_tman`` / ``open_tman`` round-trip all state needed to keep querying:
index parameters, every stored row, and the shape-code mappings.  The
volatile buffer shape cache is intentionally not persisted (the paper's
update protocol re-stages unknown shapes on demand).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional, Union

from repro.cache.redis_sim import RedisServer
from repro.kvstore.snapshot import load_cluster, save_cluster
from repro.model.mbr import MBR
from repro.storage.config import TManConfig
from repro.storage.tman import TMan, cluster_from

CONFIG_FILE = "config.json"
TABLES_FILE = "tables.snap"
CACHE_FILE = "cache.rdb"


def save_tman(tman: TMan, directory: Union[str, Path]) -> None:
    """Persist a deployment (tables + index cache + config) to a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    doc = dataclasses.asdict(tman.config)
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
    a snapshot in process mode.  Persisted keys that are no longer
    ``TManConfig`` fields (written by an older version) are ignored.
    """
    directory = Path(directory)
    doc = json.loads((directory / CONFIG_FILE).read_text())
    known = {f.name for f in dataclasses.fields(TManConfig)}
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
