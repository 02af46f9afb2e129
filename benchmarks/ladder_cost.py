"""Per-row cost of the similarity refinement ladder's rungs.

Encodes ``tdrive_like(1000, seed=42, max_points=50)`` (the spine's
``similarity_threads`` data) with the default serializer and prints, as
the best of ``--repeat`` timed passes:

- µs per row of ``decode_header``, ``decode_feature`` and
  ``decode_trajectory`` (the point decode) over all rows;
- µs per row of the lower bounds the rungs compute from those sections,
  for the first trajectory as the query: ``dp_lower_bound`` and, in
  checkouts that have them, the header's points-to-MBR bound
  (``boxes_lower_bound`` with one box) and ``endpoint_lower_bound``;
- µs per call of ``frechet_distance`` and of ``dtw_distance`` between
  random-walk trajectories of 35, 50 and 200 fixes.

Apart from those two bounds it uses only long-standing public APIs, so
pointing ``PYTHONPATH`` at an older checkout's ``src/`` measures that
checkout with the same script::

    PYTHONPATH=src python benchmarks/ladder_cost.py
"""

from __future__ import annotations

import argparse
import gc
import time

import numpy as np

from repro.datasets import tdrive_like
from repro.model.pointblock import PointBlock
from repro.similarity.dtw import dtw_distance
from repro.similarity.frechet import frechet_distance
from repro.similarity.pruning import dp_lower_bound
from repro.storage.serializer import RowSerializer

try:
    from repro.similarity.pruning import boxes_lower_bound, endpoint_lower_bound
except ImportError:  # a checkout from before the header and endpoint rungs
    boxes_lower_bound = endpoint_lower_bound = None


def _best_us(fn, items, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        gc.collect()
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        best = min(best, time.perf_counter() - t0)
    return best / len(items) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    serializer = RowSerializer()
    data = tdrive_like(1000, seed=42, max_points=50)
    rows = [serializer.encode(t) for t in data]
    for name, fn in (
        ("header", serializer.decode_header),
        ("feature", serializer.decode_feature),
        ("points", serializer.decode_trajectory),
    ):
        print(f"decode_{name}_us_per_row {_best_us(fn, rows, args.repeat):.1f}")

    query = data[0].block
    headers = [serializer.decode_header(row) for row in rows]
    features = [serializer.decode_feature(row, h) for row, h in zip(rows, headers)]
    bounds = [("dp", lambda f: dp_lower_bound(query, f), features)]
    if boxes_lower_bound is not None:
        boxes = [h.mbr.as_tuple() for h in headers]
        bounds += [
            ("mbr_points", lambda box: boxes_lower_bound(query, box), boxes),
            ("endpoint", lambda f: endpoint_lower_bound(query, f), features),
        ]
    for name, fn, items in bounds:
        print(f"{name}_bound_us_per_row {_best_us(fn, items, args.repeat):.1f}")

    rng = np.random.default_rng(7)
    for n in (35, 50, 200):
        pairs = []
        for _ in range(20):
            xs, ys = 116.4 + rng.normal(0, 1e-3, (2, 2, n)).cumsum(axis=2)
            pairs.append(tuple(
                PointBlock(np.arange(n, dtype=float), x, y)
                for x, y in zip(xs, ys)
            ))
        for name, kernel in (("frechet", frechet_distance), ("dtw", dtw_distance)):
            us = _best_us(lambda pair: kernel(*pair), pairs, args.repeat)
            print(f"{name}_us_at_{n}_points {us:.1f}")


if __name__ == "__main__":
    main()
