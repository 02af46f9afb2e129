"""Every KV-backed baseline's answers and accounting over a fixed query set,
and the generator of ``tests/data/baselines_parent.json``.

Written once, at commit 265432e (before the baselines scanned through the
query layer's operators)::

    PYTHONPATH=<parent checkout>/src python tests/baselines_golden.py

and since rewritten three times, by row versions 3, 4 and 6, whose smaller
rows change only the ``simulated_ms`` cells (the model prices bytes
transferred); every other cell is the one 265432e wrote.

The data is ``tdrive_like(160, seed=5, max_points=30)``.  For every system
and query the table holds the sorted result tids, ``candidates``,
``transferred_rows``, ``windows`` and ``simulated_ms`` (as the big-endian
bits of the float).  For VRE it also holds the reassembly point-gets,
measured as the cluster's ``point_gets`` delta around the query, so the
number does not depend on where the system reports it.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from repro.baselines import STHadoop, TManXZ, TManXZT, TrajMesa
from repro.baselines.vre import VRE
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import MBR, TimeRange

OUT = Path(__file__).parent / "data" / "baselines_parent.json"

HOUR = 3600.0
BOUNDARY = TDRIVE_SPEC.boundary
TIMES = ((100 * HOUR, 100.5 * HOUR), (2 * HOUR, 8 * HOUR), (30 * HOUR, 31 * HOUR), (0.0, 72 * HOUR))
WINDOWS = (
    (116.2, 39.7, 116.6, 40.0),
    (116.35, 39.82, 116.45, 39.92),
    (116.38, 39.86, 116.40, 39.88),
    (116.0, 39.85, 116.9, 39.852),
)
STRQ = ((1, 1), (0, 2), (2, 3))  # (window, time range) index pairs
IDT_ROWS = (0, 9, 40)
SIMILARITY = ((3, 0.125, "frechet"), (17, 0.7, "dtw"), (50, 0.11, "hausdorff"))


def dataset():
    return tdrive_like(160, seed=5, max_points=30)


def _cell(result) -> dict:
    return {
        "tids": sorted(t.tid for t in result.trajectories),
        "candidates": result.candidates,
        "transferred_rows": result.transferred_rows,
        "windows": result.windows,
        "simulated_ms": struct.pack(">d", result.simulated_ms).hex(),
    }


def queries(data):
    """The query arguments, by kind."""
    times = [TimeRange(*span) for span in TIMES]
    windows = [MBR(*box) for box in WINDOWS]
    return {
        "trq": times,
        "srq": windows,
        "strq": [(windows[w], times[t]) for w, t in STRQ],
        "idt": [(data[i].oid, data[i].time_range) for i in IDT_ROWS],
        "threshold": [(data[i], theta, measure) for i, theta, measure in SIMILARITY],
    }


def baselines_table() -> dict:
    """The whole table, computed by the ``repro`` on the import path."""
    data = dataset()
    q = queries(data)
    table: dict[str, list[dict]] = {}
    systems = []
    try:
        for push_down in (True, False):
            tag = "on" if push_down else "off"
            xzt = TManXZT(num_shards=2, kv_workers=2, push_down=push_down)
            xz = TManXZ(BOUNDARY, max_resolution=10, num_shards=2, kv_workers=2,
                        push_down=push_down)
            systems += [xzt, xz]
            xzt.bulk_load(data)
            xz.bulk_load(data)
            table[f"tman_xzt/{tag}/trq"] = [_cell(xzt.temporal_range_query(tr)) for tr in q["trq"]]
            table[f"tman_xz/{tag}/srq"] = [_cell(xz.spatial_range_query(w)) for w in q["srq"]]
            table[f"tman_xz/{tag}/strq"] = [_cell(xz.st_range_query(*a)) for a in q["strq"]]

        mesa = TrajMesa(BOUNDARY, max_resolution=10, num_shards=2, kv_workers=2)
        systems.append(mesa)
        mesa.bulk_load(data)
        table["trajmesa/trq"] = [_cell(mesa.temporal_range_query(tr)) for tr in q["trq"]]
        table["trajmesa/srq"] = [_cell(mesa.spatial_range_query(w)) for w in q["srq"]]
        table["trajmesa/strq"] = [_cell(mesa.st_range_query(*a)) for a in q["strq"]]
        table["trajmesa/idt"] = [_cell(mesa.id_temporal_query(*a)) for a in q["idt"]]
        table["trajmesa/threshold"] = [
            _cell(mesa.threshold_similarity_query(*a)) for a in q["threshold"]
        ]

        sth = STHadoop(BOUNDARY, kv_workers=2)
        systems.append(sth)
        sth.bulk_load(data)
        table["sth/trq"] = [_cell(sth.temporal_range_query(tr)) for tr in q["trq"]]
        table["sth/srq"] = [_cell(sth.spatial_range_query(w)) for w in q["srq"]]
        table["sth/strq"] = [_cell(sth.st_range_query(*a)) for a in q["strq"]]

        vre = VRE(segment_seconds=1800.0, kv_workers=1)
        systems.append(vre)
        vre.bulk_load(data)
        cells = []
        for tr in q["trq"]:
            before = vre.cluster.stats.snapshot()
            cell = _cell(vre.temporal_range_query(tr))
            cell["reassembly_gets"] = (vre.cluster.stats.snapshot() - before).point_gets
            cells.append(cell)
        table["vre/trq"] = cells
    finally:
        for system in systems:
            system.close()
    return table


def main() -> None:
    OUT.write_text(json.dumps(baselines_table(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
