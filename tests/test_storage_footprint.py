"""Stored bytes per point of a fixed load, section by section.

The primary row is header (magic, version, time range, MBR, ``tr_value``),
ids (oid, tid), DP-features and the point blob, each with its length
prefix; keys count on their own, and so do every secondary table's keys
and values (a value is the 9-byte ``shard :: primary index value``).  Each
section has a ceiling taken from row version 3 (which halved the feature
section) and from secondary values cut to the primary key's prefix (which
took 0.395 B/point off each secondary table), so a change that grows one
shows up here, by name, before it reaches the benchmark's end-to-end
``stored_bytes_per_point``.
"""

from __future__ import annotations

import pytest

from repro import TMan, TManConfig
from repro.compression.varint import decode_varint
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore.scan import Scan
from repro.storage.serializer import RowSerializer

# B per point, rounded up from the measured values in the comments.
CEILINGS = {
    "primary.keys": 0.58,  # 0.5728
    "primary.header": 1.03,  # 1.0269
    "primary.ids": 0.74,  # 0.7308
    "primary.features": 2.31,  # 2.3089 (4.5642 in row version 2)
    "primary.blob": 6.29,  # 6.2830
    "tr.keys": 0.56,  # 0.5531
    "tr.values": 0.18,  # 0.1778 (0.5728, a whole primary key, before)
    "idt.keys": 0.89,  # 0.8889
    "idt.values": 0.18,  # 0.1778 (0.5728 before)
}


@pytest.fixture(scope="module")
def footprint() -> dict[str, float]:
    data = tdrive_like(300, seed=42)
    config = TManConfig(boundary=TDRIVE_SPEC.boundary, max_resolution=14, num_shards=2,
                        kv_workers=1)
    tman = TMan(config)
    tman.bulk_load(data)
    sizes = dict.fromkeys(CEILINGS, 0)
    for key, value in tman.primary_table.scan(Scan()):
        header = RowSerializer.decode_header(value)
        ids_at = decode_varint(value, 2 + 48)[1]  # just past tr_value
        feat_len, start = decode_varint(value, header.body_offset)
        sizes["primary.keys"] += len(key)
        sizes["primary.header"] += ids_at
        sizes["primary.ids"] += header.body_offset - ids_at
        sizes["primary.features"] += start + feat_len - header.body_offset
        sizes["primary.blob"] += len(value) - start - feat_len
    for name, table in tman.secondary_tables.items():
        for key, value in table.scan(Scan()):
            sizes[f"{name}.keys"] += len(key)
            sizes[f"{name}.values"] += len(value)
    tman.close()
    points = sum(len(t) for t in data)
    return {name: size / points for name, size in sizes.items()}


def test_sections_and_tables_are_the_expected_ones(footprint):
    assert footprint.keys() == CEILINGS.keys()


@pytest.mark.parametrize("section", sorted(CEILINGS))
def test_bytes_per_point_within_ceiling(footprint, section):
    assert footprint[section] <= CEILINGS[section], footprint


def test_features_are_a_small_share_of_the_row(footprint):
    assert footprint["primary.features"] <= 3.0
