"""Writes ``golden.npz``: parent-commit row bytes and TShape keys.

Run once, at commit a091827 (before the batched ingest kernels existed)::

    PYTHONPATH=<parent checkout>/src python tests/data/ingest_parent/generate.py

The file stores the inputs (concatenated t/lng/lat columns, oids, tids,
tr values) next to the outputs, so the test never depends on a generator
staying stable: ``RowSerializer.encode`` rows for every codec id and
``TShapeIndex.index_trajectory`` keys under two index configurations.
Rows are kept whole for simple8b and pfor (the two packers with their own
kernels); the varint rows and the fine-epsilon rows are kept as one sha256
digest per row, which pins them as exactly at a fraction of the size.
The committed file also holds ``sha_columnar_eps``, the rows of a codec id
(3, a varint twin) that has since been retired; nothing reads it.
"""

from __future__ import annotations

from pathlib import Path

import hashlib

import numpy as np

from repro.compression.traj_codec import TrajectoryCodec
from repro.core.quadtree import QuadTreeGrid
from repro.core.tshape import TShapeIndex
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import STPoint, Trajectory
from repro.storage.serializer import RowSerializer

OUT = Path(__file__).with_name("golden.npz")
BOUNDARY = TDRIVE_SPEC.boundary  # (110, 35, 125, 45)
CODECS = ("varint", "simple8b", "pfor")
# (name, dp_epsilon): the default, and a finer one for deeper DP recursions.
EPSILONS = (("eps", 0.002), ("fine", 0.0002))
WHOLE_ROWS = ("simple8b_eps", "pfor_eps")
# (name, max_resolution, alpha, beta)
INDEXES = (("g14a3b3", 14, 3, 3), ("g16a4b2", 16, 4, 2))


def _traj(i: int, pts, t0: float = 1000.0, dt: float = 5.0) -> Trajectory:
    points = [STPoint(t0 + dt * k, x, y) for k, (x, y) in enumerate(pts)]
    return Trajectory(f"edge-obj-{i:03d}", f"edge-trip-{i:04d}", points)


def _grid_x(j: int, r: int) -> float:
    """A longitude whose normalized coordinate is exactly j / 2^r."""
    return BOUNDARY.x1 + BOUNDARY.width * j / (1 << r)


def _grid_y(j: int, r: int) -> float:
    return BOUNDARY.y1 + BOUNDARY.height * j / (1 << r)


def edge_cases() -> list[Trajectory]:
    out = []
    add = lambda pts, **kw: out.append(_traj(len(out), pts, **kw))  # noqa: E731
    # 1- and 2-point trajectories (incl. a repeated point).
    add([(116.4, 39.9)])
    add([(116.4, 39.9), (116.41, 39.91)])
    add([(116.4, 39.9), (116.4, 39.9)])
    # Stationary, regularly sampled: delta-of-delta runs of >= 240 zeros
    # (selector 0), a 199-zero run (selector 1), and a 59-zero tail.
    add([(116.3, 39.8)] * 300)
    add([(116.3, 39.8)] * 200)
    add([(116.3, 39.8)] * 60)
    # Stationary runs between moves; the time stream keeps a regular rate.
    add([(116.3, 39.8)] * 130 + [(116.31, 39.81)] * 130 + [(116.5, 39.7)])
    # Irregular sampling with long gaps (wide time deltas).
    out.append(Trajectory("edge-obj-gap", "edge-trip-gap", [
        STPoint(t, 116.2 + 0.001 * k, 39.9) for k, t in
        enumerate([0.0, 0.5, 1.0, 86400.0, 86400.25, 604800.0, 604800.001])
    ]))
    # Repeated identical points: zero-length DP spans (hypot branch).
    add([(116.0, 40.0), (116.1, 40.1), (116.0, 40.0)])
    add([(116.0, 40.0), (116.1, 40.1), (116.0, 40.0), (116.2, 40.0), (116.0, 40.0)])
    add([(116.0, 40.0)] * 5 + [(116.05, 40.2)] + [(116.0, 40.0)] * 5)
    # Collinear points (every deviation 0) and exact DP ties.
    add([(116.0 + 0.125 * k, 40.0 + 0.0625 * k) for k in range(9)])
    add([(116.0, 40.0), (116.25, 40.25), (116.75, 40.25), (117.0, 40.0)])
    add([(116.0, 40.0), (116.25, 39.75), (116.5, 40.0), (116.75, 40.25), (117.0, 40.0)])
    add([(116.0, 40.0), (116.5, 40.5), (116.5, 39.5), (117.0, 40.0)])
    # Points exactly on local-cell and quad-tree lines.
    for r in (4, 9, 13):
        add([(_grid_x(5 * (1 << r) // 16, r), _grid_y(3 * (1 << r) // 8, r)),
             (_grid_x(5 * (1 << r) // 16 + 1, r), _grid_y(3 * (1 << r) // 8, r)),
             (_grid_x(5 * (1 << r) // 16 + 2, r), _grid_y(3 * (1 << r) // 8 + 2, r)),
             (_grid_x(5 * (1 << r) // 16 + 2, r), _grid_y(3 * (1 << r) // 8 + 1, r))])
    add([(_grid_x(1, 1), _grid_y(1, 1)), (_grid_x(3, 2), _grid_y(1, 1))])
    add([(_grid_x(7, 3), _grid_y(5, 3))])
    # On the boundary's right / top edge, and beyond it (clamped).
    add([(125.0, 45.0)])
    add([(124.99, 44.99), (125.0, 45.0)])
    add([(124.9, 44.0), (125.0, 44.5), (124.95, 45.0)])
    add([(110.0, 35.0), (110.01, 35.0)])
    add([(124.0, 44.0), (126.0, 46.0)])
    add([(109.0, 34.0), (110.5, 35.5)])
    # Whole-space extents (resolution 1).
    add([(110.0, 35.0), (125.0, 45.0)])
    add([(111.0, 36.0), (124.0, 44.0), (111.0, 44.0)])
    # One trajectory per resolution level: extent 2.25 cells from a
    # quarter cell past a grid line, so the element fits at that level.
    for r in range(1, 17):
        cell = 1.0 / (1 << r)
        k = (1 << r) // 3
        nx1, ny1 = (k + 0.25) * cell, (k + 0.25) * cell
        ext = 2.25 * cell
        pts = [(nx1, ny1), (nx1 + ext / 2, ny1 + ext), (nx1 + ext, ny1 + ext / 3)]
        add([(BOUNDARY.x1 + BOUNDARY.width * x, BOUNDARY.y1 + BOUNDARY.height * y)
             for x, y in pts])
    # Fractional-millisecond times (half-to-even rounding) and huge deltas.
    out.append(Trajectory("edge-obj-ms", "edge-trip-ms", [
        STPoint(t, 116.0 + 1e-7 * k, 40.0 - 1.5e-7 * k) for k, t in
        enumerate([0.0005, 0.0015, 0.0025, 1e9, 1e9 + 0.0005, 4e9])
    ]))
    return out


def cases() -> list[Trajectory]:
    return tdrive_like(300, seed=21, max_points=50) + edge_cases()


def main() -> None:
    trajs = cases()
    cols = {"t": [], "x": [], "y": []}
    offsets = [0]
    for traj in trajs:
        cols["t"].extend(p.t for p in traj.points)
        cols["x"].extend(p.lng for p in traj.points)
        cols["y"].extend(p.lat for p in traj.points)
        offsets.append(len(cols["t"]))
    tr_values = np.array([(i * 7919) % 100_003 for i in range(len(trajs))], dtype=np.int64)
    arrays = {
        "ts": np.array(cols["t"], dtype=np.float64),
        "xs": np.array(cols["x"], dtype=np.float64),
        "ys": np.array(cols["y"], dtype=np.float64),
        "offsets": np.array(offsets, dtype=np.int64),
        "oids": np.array([t.oid for t in trajs]),
        "tids": np.array([t.tid for t in trajs]),
        "tr_values": tr_values,
    }
    for codec in CODECS:
        for eps_name, eps in EPSILONS:
            if eps_name != "eps" and codec != "simple8b":
                continue
            ser = RowSerializer(TrajectoryCodec(codec), eps)
            rows = [ser.encode(t, int(v)) for t, v in zip(trajs, tr_values)]
            name = f"{codec}_{eps_name}"
            if name in WHOLE_ROWS:
                arrays[f"rows_{name}"] = np.frombuffer(b"".join(rows), dtype=np.uint8)
                arrays[f"rowoff_{name}"] = np.cumsum([0] + [len(r) for r in rows])
            else:
                arrays[f"sha_{name}"] = np.frombuffer(
                    b"".join(hashlib.sha256(r).digest() for r in rows), dtype=np.uint8
                ).reshape(-1, 32)
    for name, g, alpha, beta in INDEXES:
        index = TShapeIndex(QuadTreeGrid(BOUNDARY, g), alpha, beta)
        keys = [index.index_trajectory(t) for t in trajs]
        arrays[f"keys_{name}"] = np.array(
            [(k.element_code, k.resolution, k.raw_shape, k.anchor.ix, k.anchor.iy)
             for k in keys],
            dtype=np.int64,
        )
        if name == "g14a3b3":
            levels = {k.resolution for k in keys}
            assert levels == set(range(1, g + 1)), sorted(levels)
    np.savez_compressed(OUT, **arrays)
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes, {len(trajs)} trajectories)")


if __name__ == "__main__":
    main()
