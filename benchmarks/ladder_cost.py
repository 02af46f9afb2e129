"""Per-row cost of the similarity refinement ladder's rungs.

Encodes ``tdrive_like(1000, seed=42, max_points=50)`` (the spine's
``similarity_threads`` data) with the default serializer and prints, as
the best of ``--repeat`` timed passes:

- µs per row of ``decode_header``, ``decode_feature`` and
  ``decode_trajectory`` (the point decode) over all rows;
- µs per call of ``frechet_distance`` between random-walk trajectories of
  35, 50 and 200 fixes.

It uses only long-standing public APIs, so pointing ``PYTHONPATH`` at an
older checkout's ``src/`` measures that checkout with the same script::

    PYTHONPATH=src python benchmarks/ladder_cost.py
"""

from __future__ import annotations

import argparse
import gc
import time

import numpy as np

from repro.datasets import tdrive_like
from repro.model.pointblock import PointBlock
from repro.similarity.frechet import frechet_distance
from repro.storage.serializer import RowSerializer


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
    rows = [serializer.encode(t, 0) for t in data]
    for name, fn in (
        ("header", serializer.decode_header),
        ("feature", serializer.decode_feature),
        ("points", serializer.decode_trajectory),
    ):
        print(f"decode_{name}_us_per_row {_best_us(fn, rows, args.repeat):.1f}")

    rng = np.random.default_rng(7)
    for n in (35, 50, 200):
        pairs = []
        for _ in range(20):
            xs, ys = 116.4 + rng.normal(0, 1e-3, (2, 2, n)).cumsum(axis=2)
            pairs.append(tuple(
                PointBlock(np.arange(n, dtype=float), x, y, validate=False)
                for x, y in zip(xs, ys)
            ))
        us = _best_us(lambda pair: frechet_distance(*pair), pairs, args.repeat)
        print(f"frechet_us_at_{n}_points {us:.1f}")


if __name__ == "__main__":
    main()
