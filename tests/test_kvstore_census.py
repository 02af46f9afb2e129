"""Row-format census: compactions count v1/v2 trajectory rows."""

from __future__ import annotations

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore.census import census_rows, merge_census
from repro.kvstore.durable import DurableLSMStore
from repro.kvstore.lsm import LSMStore
from repro.storage.serializer import RowSerializer
from tests.conftest import golden_v1_rows


def test_census_counts_only_trajectory_rows():
    v2 = bytes([0x54, 2]) + b"payload"
    v1 = bytes([0x54, 1]) + b"payload"
    pointer = b"\x00primary-key"  # secondary-index value: no magic byte
    rows = [(b"a", v2), (b"b", v1), (b"c", v2), (b"d", pointer), (b"e", b"")]
    assert census_rows(rows) == {1: 1, 2: 2}


def test_merge_census_sums_versions():
    assert merge_census({1: 2, 2: 3}, {2: 4}, {}) == {1: 2, 2: 7}
    assert merge_census() == {}


def _rows(serializer, n, offset=0):
    trajs = tdrive_like(n, seed=99)
    return [
        (f"k{offset + i:04d}".encode(), serializer.encode(t, tr_value=0))
        for i, t in enumerate(trajs)
    ]


def test_lsm_compaction_takes_census():
    store = LSMStore(flush_bytes=1 << 30, max_tables=1)
    assert store.last_format_census is None
    for key, value in _rows(RowSerializer(), 4):
        store.put(key, value)
    store.flush()
    for i, (value, _) in enumerate(golden_v1_rows()[:3]):
        store.put(f"k{10 + i:04d}".encode(), value)
    store.flush()  # second table exceeds max_tables -> compaction
    assert store.last_format_census == {1: 3, 2: 4}


def test_durable_compaction_takes_census(tmp_path):
    store = DurableLSMStore(tmp_path, sync=False)
    for key, value in _rows(RowSerializer(), 5):
        store.put(key, value)
    store.flush()
    store.compact()
    assert store.last_format_census == {2: 5}
    store.close()


@pytest.fixture()
def small_tman():
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=10,
        num_shards=1,
        kv_workers=1,
    )
    tman = TMan(config)
    yield tman
    tman.close()


def test_tman_row_format_census(small_tman):
    tman = small_tman
    assert all(c is None for c in tman.row_format_census().values())
    tman.bulk_load(tdrive_like(12, seed=7))
    for table in [tman.primary_table, *tman.secondary_tables.values()]:
        for region in table.regions:
            region._store.flush()
            region._store.compact()
    census = tman.row_format_census()
    assert census["tman_primary"] == {2: 12}
    # Secondary tables hold key pointers, not trajectory rows.
    for name, counts in census.items():
        if name != "tman_primary":
            assert counts == {}


def test_tman_census_mixed_versions(small_tman):
    tman = small_tman
    trajs = tdrive_like(10, seed=8)
    tman.bulk_load(trajs[:6])
    # Overwrite two rows with ones a pre-upgrade deployment wrote.
    legacy = [value for value, _ in golden_v1_rows()[:2]]
    region = tman.primary_table.regions[0]
    for (key, _), value in zip(list(region._store.scan()), legacy):
        region._store.put(key, value)
    for region in tman.primary_table.regions:
        region._store.flush()
        region._store.compact()
    assert tman.row_format_census()["tman_primary"] == {1: 2, 2: 4}
