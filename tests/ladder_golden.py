"""The refinement ladder's decisions over fixed rows, and the generator of
``tests/data/ladder_parent.json``.

Written once, at commit d93c3c0 (before the push-down filters and the ring
refiners shared one walk)::

    PYTHONPATH=<parent checkout>/src python -m tests.ladder_golden

(from the repository root; at d93c3c0 the module ran as a plain script).

The rows are the first 300 (``tdrive_like(300, seed=21)``) whole simple8b
rows of ``tests/data/ingest_parent/golden.npz``, which are row version 2;
they are rewritten into the current version by
``ingest_reference.row_v2_to_v5``, which keeps every decoded value.  For every push-down
predicate the table holds one character per row, ``"<verdict><rung>"``
packed as ``3 * verdict + rung``: verdict 1 keeps the row, and the rung is
how deep the decision went (0 header, 1 DP feature, 2 points), counted
through ``RowSerializer.decode_feature`` / ``decode_trajectory`` calls.  For
the top-k and kNN refiners under fixed bounds it holds the same per-row
string (verdict 1 = the refiner emitted the row) plus the big-endian bits of
every emitted distance, in row order.  The conjunctions are written
``a & b``, which every version of the filters accepts.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from repro.model import MBR, TimeRange
from repro.obs.profile import QueryProfile, profile_scope
from repro.query.filters import IdFilter, SimilarityFilter, SpatialFilter, TemporalFilter
from repro.query.operators import PointDistanceRefine, SimilarityRefine
from repro.storage.serializer import RowSerializer

from .ingest_reference import row_v2_to_v5

DATA = Path(__file__).parent / "data"
OUT = DATA / "ladder_parent.json"
ROWS = 300

WINDOWS = {
    "big": (116.2, 39.7, 116.6, 40.0),
    "mid": (116.35, 39.82, 116.45, 39.92),
    "small": (116.38, 39.86, 116.40, 39.88),
    "strip_x": (116.0, 39.85, 116.9, 39.852),
    "strip_y": (116.40, 39.1, 116.402, 40.4),
    "far": (120.0, 42.0, 121.0, 43.0),
}
TIMES = {
    "first_hour": (0.0, 3600.0),
    "day_2": (100000.0, 110000.0),
    "instant": (300000.0, 300001.0),
    "tail": (500000.0, 700000.0),
    "pre_origin": (-1000.0, 500.0),
}
STRQ = (("mid", "first_hour"), ("strip_x", "day_2"), ("big", "instant"), ("small", "tail"))
MEASURES = ("frechet", "dtw", "hausdorff")
THRESHOLDS = (0.002, 0.01, 0.05)
QUERY_ROWS = (0, 7)  # rows decoded into the similarity query trajectories
TOPK_BOUNDS = (0.02, float("inf"))
KNN_POINTS = ((116.39, 39.87), (116.7, 40.2), (116.0, 39.2))
KNN_BOUNDS = (0.005, float("inf"))


def golden_rows() -> list[bytes]:
    """The 300 rows every ladder cell is computed over."""
    data = np.load(DATA / "ingest_parent" / "golden.npz")
    buf, cut = data["rows_simple8b_eps"].tobytes(), data["rowoff_simple8b_eps"]
    return [row_v2_to_v5(buf[cut[i]:cut[i + 1]]) for i in range(ROWS)]


class _Rungs:
    """Counts feature and point decodes, whoever makes them."""

    def __init__(self):
        self.feature = self.points = 0
        self._saved = (RowSerializer.__dict__["decode_feature"],
                       RowSerializer.__dict__["decode_trajectory"])

    def __enter__(self) -> "_Rungs":
        feature, trajectory = self._saved[0].__func__, self._saved[1]
        rungs = self

        def decode_feature(*args, **kwargs):
            rungs.feature += 1
            return feature(*args, **kwargs)

        def decode_trajectory(*args, **kwargs):
            rungs.points += 1
            return trajectory(*args, **kwargs)

        RowSerializer.decode_feature = staticmethod(decode_feature)
        RowSerializer.decode_trajectory = decode_trajectory
        return self

    def __exit__(self, *exc) -> None:
        RowSerializer.decode_feature, RowSerializer.decode_trajectory = self._saved

    def deepest(self) -> int:
        """0, 1 or 2: the deepest section decoded since the last call."""
        rung = 2 if self.points else 1 if self.feature else 0
        self.feature = self.points = 0
        return rung


def _cell(verdict: bool, rung: int) -> str:
    return str(3 * int(verdict) + rung)


def predicates(serializer: RowSerializer, rows: list[bytes]) -> dict:
    """Every push-down predicate of the table, by name."""
    windows = {name: MBR(*box) for name, box in WINDOWS.items()}
    times = {name: TimeRange(*span) for name, span in TIMES.items()}
    out = {}
    for name, window in windows.items():
        out[f"spatial/{name}"] = SpatialFilter(window, serializer)
    for name, span in times.items():
        out[f"temporal/{name}"] = TemporalFilter(span)
    for w, t in STRQ:
        out[f"strq/{w}/{t}"] = TemporalFilter(times[t]) & SpatialFilter(windows[w], serializer)
    headers = [RowSerializer.decode_header(row) for row in rows]
    for i, t in ((0, "tail"), (1, "day_2"), (2, "first_hour")):
        out[f"idt/{i}/{t}"] = IdFilter(headers[i].oid) & TemporalFilter(times[t])
    out["idt/none/tail"] = IdFilter("no-such-object") & TemporalFilter(times["tail"])
    for q in QUERY_ROWS:
        points = serializer.decode(rows[q]).trajectory.points
        for measure in MEASURES:
            for theta in THRESHOLDS:
                out[f"threshold/{q}/{measure}/{theta}"] = SimilarityFilter(
                    points, theta, measure, serializer
                )
    return out


def refiners(serializer: RowSerializer, rows: list[bytes]) -> dict:
    """Factories of every ring refiner of the table, by name (one fresh
    refiner per row, so a row's decision never depends on its neighbours)."""
    out = {}
    for q in QUERY_ROWS:
        query = serializer.decode(rows[q]).trajectory
        for measure in MEASURES:
            for bound in TOPK_BOUNDS:
                out[f"topk/{q}/{measure}/{bound}"] = (
                    lambda query=query, measure=measure, bound=bound: SimilarityRefine(
                        serializer, query, measure, lambda: bound
                    )
                )
    for x, y in KNN_POINTS:
        for bound in KNN_BOUNDS:
            out[f"knn/{x}/{y}/{bound}"] = (
                lambda x=x, y=y, bound=bound: PointDistanceRefine(
                    serializer, x, y, lambda: bound
                )
            )
    return out


def ladder_table() -> dict:
    """The whole table, computed by the ``repro`` on the import path."""
    serializer = RowSerializer()
    rows = golden_rows()
    table = {"filters": {}, "refiners": {}}
    # The refiners attribute their point decodes to the active profile.
    with _Rungs() as rungs, profile_scope(QueryProfile("ladder")):
        for name, predicate in predicates(serializer, rows).items():
            cells = []
            for row in rows:
                rungs.deepest()
                verdict = predicate.test(b"", row)
                cells.append(_cell(verdict, rungs.deepest()))
            table["filters"][name] = "".join(cells)
        for name, make in refiners(serializer, rows).items():
            cells, bits = [], []
            for row in rows:
                rungs.deepest()
                emitted = list(make().process(iter([(b"", row)])))
                cells.append(_cell(bool(emitted), rungs.deepest()))
                bits += [struct.pack(">d", d).hex() for d, _, _ in emitted]
            table["refiners"][name] = {"cells": "".join(cells), "distances": "".join(bits)}
    return table


def main() -> None:
    OUT.write_text(json.dumps(ladder_table(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
