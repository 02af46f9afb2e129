"""Wall time of a split table's multi-range scans and multi-gets on a pool.

Builds an in-memory ``Cluster(workers=4, split_rows=500)`` table of 4,000
rows (the script prints its region count, about 15) and prints, as the
median of ``--repeat`` calls:

- ``scan_ms``: one ``multi_range_scan`` over 64 windows of 20 keys spread
  across every region (1,280 rows);
- ``get_ms``: one ``multi_get`` of 256 keys spread likewise;

then the same two as ``scan_delay_ms`` / ``get_delay_ms`` under
``FaultConfig(scan_delay_ms=5, get_delay_ms=5)``, which charges every
region cursor open and every region batch get a 5 ms GIL-releasing sleep:
the remote-store regime in which overlapping the regions' round trips
pays.  Without a delay the reads are CPU-bound under the GIL.

Last, a ``ProcessCluster(nodes=2, workers=4, split_rows=2400)`` table of
8,000 rows, whose regions hold more rows than one 512-row ``SCAN_PAGE``
RPC returns, so each region run costs several page round trips:

- ``pages_ms``: one ``multi_range_scan`` of the whole key range;
- ``pages_work_ms``: the same, its consumer summing 40 bytes of each value
  (a stand-in for the query's per-row decode, which page fetches running
  on the pool could overlap).

It uses only public APIs, so pointing ``PYTHONPATH`` at another
checkout's ``src/`` measures that checkout with the same script::

    PYTHONPATH=src python benchmarks/region_scan_cost.py
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time

from repro.cluster import ProcessCluster
from repro.kvstore import Cluster
from repro.kvstore.simfault import FaultConfig, fault_injection

ROWS = 4000
SPLIT_ROWS = 500
WORKERS = 4
PAGED_ROWS = 8000
PAGED_SPLIT_ROWS = 2400


def _key(i: int) -> bytes:
    return i.to_bytes(4, "big")


def _median_ms(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=15)
    args = parser.parse_args()

    cluster = Cluster(workers=WORKERS, split_rows=SPLIT_ROWS)
    try:
        table = cluster.create_table("t")
        for i in range(ROWS):
            table.put(_key(i), b"%08d" % i * 12)
        step = ROWS // 64
        windows = [(_key(i), _key(i + 20)) for i in range(0, ROWS, step)]
        keys = [_key(i) for i in range(0, ROWS, ROWS // 256)]
        scanned = list(table.multi_range_scan(windows))
        got = table.multi_get(keys)
        assert len(table.regions) >= 4, len(table.regions)
        assert len(scanned) == 20 * len(windows) and all(v is not None for v in got)
        print(f"regions {len(table.regions)}")

        def scan() -> None:
            for _ in table.multi_range_scan(windows):
                pass

        def get() -> None:
            table.multi_get(keys)

        print(f"scan_ms {_median_ms(scan, args.repeat):.3f}")
        print(f"get_ms {_median_ms(get, args.repeat):.3f}")
        with fault_injection(FaultConfig(scan_delay_ms=5.0, get_delay_ms=5.0)):
            print(f"scan_delay_ms {_median_ms(scan, args.repeat):.3f}")
            print(f"get_delay_ms {_median_ms(get, args.repeat):.3f}")
    finally:
        cluster.close()

    cluster = ProcessCluster(
        nodes=2, replication_factor=1, workers=WORKERS, split_rows=PAGED_SPLIT_ROWS
    )
    try:
        table = cluster.create_table("t")
        for start in range(0, PAGED_ROWS, 500):
            table.put_batch([(_key(i), b"%08d" % i * 12) for i in range(start, start + 500)])
        whole = [(_key(0), _key(PAGED_ROWS))]
        assert sum(1 for _ in table.multi_range_scan(whole)) == PAGED_ROWS
        assert len(table.regions) >= 4, len(table.regions)
        print(f"paged_regions {len(table.regions)}")

        def pages() -> None:
            for _ in table.multi_range_scan(whole):
                pass

        def pages_work() -> None:
            for _, value in table.multi_range_scan(whole):
                sum(value[:40])

        print(f"pages_ms {_median_ms(pages, args.repeat):.3f}")
        print(f"pages_work_ms {_median_ms(pages_work, args.repeat):.3f}")
    finally:
        cluster.close()


if __name__ == "__main__":
    main()
