"""E3 — Table I: performance of temporal indexes (Lorry).

TR with periods {10m, 30m, 1h, 2h, 4h, 6h, 8h} vs XZT, sweeping the query
window from 5 minutes to 24 hours.  Reports query time and candidate counts;
the paper's shape to reproduce: TR beats XZT across the board (up to ~3x at
24 h), shorter periods retrieve fewer candidates, and mid-length periods can
win on time thanks to better locality.
"""

import pytest

from repro.baselines.common import SingleIndexStore
from benchmarks.harness import ResultTable, run_queries
from repro.core.baselines.xzt import XZTIndex
from repro.core.temporal import TRIndex
from repro.query.filters import TemporalFilter
from repro.query.windows import primary_windows_inclusive

from benchmarks.conftest import save_table

MIN = 60.0
HOUR = 3600.0

TR_PERIODS = {
    "TR-10M": 10 * MIN,
    "TR-30M": 30 * MIN,
    "TR-1H": 1 * HOUR,
    "TR-2H": 2 * HOUR,
    "TR-4H": 4 * HOUR,
    "TR-6H": 6 * HOUR,
    "TR-8H": 8 * HOUR,
}
WINDOWS = {
    "5m": 5 * MIN,
    "10m": 10 * MIN,
    "30m": 30 * MIN,
    "1h": 1 * HOUR,
    "6h": 6 * HOUR,
    "12h": 12 * HOUR,
    "24h": 24 * HOUR,
}
QUERIES_PER_WINDOW = 8


def _tr_store(name, period, data):
    # N sized so the longest lorry trip (14 h) fits even when it straddles
    # period boundaries: ceil(14h / period) + 1 spanned periods at worst.
    import math

    n = math.ceil(14 * HOUR / period) + 2
    index = TRIndex(period_seconds=period, max_periods=n)
    store = SingleIndexStore(
        name,
        index_value_fn=lambda t: index.index_time_range(t.time_range),
        tr_value_fn=lambda t: index.index_time_range(t.time_range),
        num_shards=2,
        kv_workers=1,
    )
    store.bulk_load(data)

    def query(tr):
        windows = primary_windows_inclusive(store.keys, index.query_ranges(tr))
        return store.run_windows(windows, TemporalFilter(tr))

    return store, query


def _xzt_store(data):
    index = XZTIndex(period_seconds=7 * 24 * HOUR, max_level=16)
    tr_slot = TRIndex()
    store = SingleIndexStore(
        "xzt",
        index_value_fn=lambda t: index.index_time_range(t.time_range),
        tr_value_fn=lambda t: tr_slot.index_time_range(t.time_range),
        num_shards=2,
        kv_workers=1,
    )
    store.bulk_load(data)

    def query(tr):
        windows = primary_windows_inclusive(store.keys, index.query_ranges(tr))
        return store.run_windows(windows, TemporalFilter(tr))

    return store, query


@pytest.fixture(scope="module")
def systems(lorry_data):
    built = {}
    for name, period in TR_PERIODS.items():
        built[name] = _tr_store(name, period, lorry_data)
    built["XZT"] = _xzt_store(lorry_data)
    yield built
    for store, _ in built.values():
        store.close()


def test_table1_temporal_indexes(benchmark, systems, lorry_workload):
    time_table = ResultTable(
        "Table I (left) - median query time (ms) per query window",
        ["index"] + list(WINDOWS),
    )
    cand_table = ResultTable(
        "Table I (right) - median candidates per query window",
        ["index"] + list(WINDOWS),
    )
    # One fixed window set per size, shared by every index (the paper's
    # methodology: the same 100 windows per configuration).
    window_sets = {
        label: lorry_workload.temporal_windows(seconds, QUERIES_PER_WINDOW)
        for label, seconds in WINDOWS.items()
    }
    results = {}
    for name, (_, query) in systems.items():
        times, cands = [], []
        for label in WINDOWS:
            stats = run_queries(query, window_sets[label])
            times.append(stats.median_ms)
            cands.append(stats.median_candidates)
        results[name] = (times, cands)
        time_table.add_row(name, *times)
        cand_table.add_row(name, *cands)
    save_table("table1_times", time_table)
    save_table("table1_candidates", cand_table)

    # Shape checks against the paper:
    # 1) Short-period TR variants never retrieve more candidates than XZT
    #    (the paper's headline: up to 77% fewer retrievals).
    for name in ("TR-10M", "TR-30M"):
        for w in range(len(WINDOWS)):
            # Median-of-8 tolerance: allow a one-row wobble.
            assert results[name][1][w] <= results["XZT"][1][w] + 1, (name, w)
    # 2) Candidates grow with the query window for every index.
    for name, (_, cands) in results.items():
        assert cands[-1] >= cands[0]
    # 3) Shorter TR periods retrieve fewer candidates at small windows.
    assert results["TR-10M"][1][0] <= results["TR-8H"][1][0]

    _, tr1h_query = systems["TR-1H"]
    windows = lorry_workload.temporal_windows(HOUR, 4)
    benchmark.pedantic(
        lambda: [tr1h_query(w) for w in windows], rounds=3, iterations=1
    )
