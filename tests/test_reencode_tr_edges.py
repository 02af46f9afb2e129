"""Re-encode and delete-by-id find every time-keyed row where it was written.

The row value holds no TR value: the writer recomputes the row's temporal
keys from its header's f64 time range, the exact range they were built
from, when a re-encode rewrites them and when ``delete_by_id`` deletes
them.  The decoded points would not do: their times sit on the
millisecond grid, so a trajectory that starts or ends less than 0.5 ms
before a TR period edge decodes into the next period, and keys rebuilt
from it would orphan the row's ``tr``, ``interval`` and ``idt`` rows or
miss the row itself.  Each example inserts such a trajectory beside
stored ones with a buffer threshold of 1, so the insert re-encodes its
element, checks every secondary row against the primary table, then
deletes the trajectory by id and checks again.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore.scan import Scan
from repro.model import TimeRange, Trajectory
from repro.model.pointblock import PointBlock
from repro.storage.schema import encode_u64

BASE = tdrive_like(12, seed=5, max_points=20)
PERIOD = 1800.0  # TManConfig.tr_period_seconds
LAYOUTS = {  # (primary index, secondary indexes)
    "default": ("tshape", ("tr", "idt")),
    "tr": ("tr", ("tshape", "idt")),
    "interval": ("tshape", ("interval", "idt")),
}


def _edge_trajectory(base: Trajectory, period: int, before_ms: float, at_start: bool,
                     n: int, gap: float) -> Trajectory:
    """``base``'s first ``n`` positions (repeated if it has fewer) with times
    ``gap`` s apart, its start or end ``before_ms`` ms before the start of TR
    period ``period``."""
    edge = period * PERIOD - before_ms / 1000.0
    offsets = np.arange(n) * gap
    ts = edge + offsets if at_start else edge - offsets[::-1]
    block = base.block
    xs, ys = (np.resize(col, n) for col in (block.xs, block.ys))
    return Trajectory(base.oid, f"edge-{period}-{n}", PointBlock(ts, xs, ys))


def _assert_every_mapping_resolves(tman: TMan, trajs: list[Trajectory]) -> None:
    """Every secondary row resolves to a stored primary row, one per
    trajectory, and every time-keyed row sits on the value of its
    trajectory's exact time range."""
    keys = tman.keys
    primary = {k for k, _ in tman.primary_table.scan(Scan())}
    assert len(primary) == len(trajs)
    for name, table in tman.secondary_tables.items():
        rows = list(table.scan(Scan()))
        assert len(rows) == len(trajs), name
        for key, value in rows:
            assert keys.primary_from_mapping(name, key, value) in primary, (name, key)
    tr = {t.tid: tman.tr_index.index_time_range(t.time_range) for t in trajs}
    idt = {key for key, _ in tman.secondary_tables["idt"].scan(Scan())}
    assert idt == {keys.idt_key(t.oid, tr[t.tid], t.tid) for t in trajs}
    for name, index in (("tr", tman.tr_index), ("interval", tman.interval_index)):
        if name in tman.secondary_tables:
            got = {key for key, _ in tman.secondary_tables[name].scan(Scan())}
            assert got == {
                keys.secondary_key(encode_u64(index.index_time_range(t.time_range)), t.tid)
                for t in trajs
            }, name
    if tman.config.primary_index == "tr":
        assert primary == {keys.primary_key(encode_u64(tr[t.tid]), t.tid) for t in trajs}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    base=st.integers(0, len(BASE) - 1),
    period=st.integers(1, 200),
    before_ms=st.floats(1e-6, 0.499),
    at_start=st.booleans(),
    n=st.integers(2, 6),
    gap=st.sampled_from([0.5, 7.25, 61.0]),
)
def test_reencode_and_delete_by_id_keep_time_keyed_rows_resolvable(
    layout, base, period, before_ms, at_start, n, gap
):
    primary, secondary = LAYOUTS[layout]
    tman = TMan(TManConfig(
        boundary=TDRIVE_SPEC.boundary, max_resolution=12, num_shards=2, kv_workers=1,
        buffer_shape_threshold=1, primary_index=primary, secondary_indexes=secondary,
    ))
    try:
        tman.bulk_load(BASE)
        edge = _edge_trajectory(BASE[base], period, before_ms, at_start, n, gap)
        decoded = np.rint(edge.block.ts * 1000.0) / 1000.0  # the row's times
        assert tman.tr_index.period_of(decoded[0 if at_start else -1]) == period
        report = tman.insert([edge])
        assert report.reencodes_triggered == 1
        _assert_every_mapping_resolves(tman, [*BASE, edge])
        assert tman.delete_by_id(edge.oid, edge.tid, TimeRange(0.0, (period + 1) * PERIOD))
        _assert_every_mapping_resolves(tman, BASE)
    finally:
        tman.close()
