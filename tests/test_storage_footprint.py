"""Stored bytes per point of a fixed load, section by section.

The primary row is header (magic, version, time range, MBR), ids (oid,
tid), DP-features with their length prefix, and the point blob, which runs
to the end of the row; keys count on their own, and so do every secondary
table's keys and values (a value is the 9-byte ``shard :: primary index
value``).  Each section has a ceiling taken from row version 3 (which
halved the feature section), from row version 4 (whose blob frame states
each count and length once and counts its first point from the header),
from row version 5 (no ``tr_value``, no first rep index, first reps counted
from the header) and from secondary values cut to the primary key's prefix
(which took 0.395 B/point off each secondary table), so a change that grows
one shows up here, by name, before it reaches the benchmark's end-to-end
``stored_bytes_per_point``.  The blob's frame is pinned exactly by a
property test.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TMan, TManConfig
from repro.compression import simple8b_encode
from repro.compression.columnar import (
    delta_encode_array,
    delta_of_delta_encode_array,
    zigzag_encode_array,
)
from repro.compression.traj_codec import TrajectoryCodec, dequantize_arrays, quantize_arrays
from repro.compression.varint import decode_varint, encode_varint
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore.scan import Scan
from repro.storage.serializer import RowSerializer

# B per point, rounded up from the measured values in the comments.
CEILINGS = {
    "primary.keys": 0.58,  # 0.5728
    "primary.header": 0.99,  # 0.9876 (1.0269 with row version 4's tr_value)
    "primary.ids": 0.74,  # 0.7308
    "primary.features": 2.18,  # 2.1793 (2.3089 in row version 4, 4.5642 in version 2)
    "primary.blob": 5.62,  # 5.6146 (6.2830 in row version 3)
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
        ids_at = 2 + 48  # magic, version, six f64
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


def _varint(value: int) -> bytes:
    out = bytearray()
    encode_varint(value, out)
    return bytes(out)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([0, 1, 2, 35, 300]), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    origin=st.one_of(st.none(), st.tuples(*[st.integers(-(2**53), 2**53)] * 3)),
)
def test_blob_frame_is_codec_id_count_and_two_lengths(sizes, seed, origin):
    """A blob is ``codec id (1, simple8b) | varint n | varint len(t) |
    varint len(x)`` and then the three simple8b streams, nothing more, and
    it decodes back from the same origin, for 0-, 1- and many-point
    trajectories."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    ts = 1.2e9 + np.cumsum(rng.integers(0, 90_000, n)) / 1000.0
    xs = 116.4 + np.cumsum(rng.normal(0.0, 1e-3, n))
    ys = 39.9 + np.cumsum(rng.normal(0.0, 1e-3, n))
    offsets = np.cumsum([0, *sizes])
    origins = None if origin is None else [origin] * len(sizes)
    blobs = TrajectoryCodec().encode_columns(ts, xs, ys, offsets, origins)
    for blob, lo, hi in zip(blobs, offsets[:-1], offsets[1:]):
        ints = quantize_arrays(ts[lo:hi], xs[lo:hi], ys[lo:hi])
        deltas = [delta_of_delta_encode_array(ints[0]), delta_encode_array(ints[1]),
                  delta_encode_array(ints[2])]
        for stream, first in zip(deltas, origin or (0, 0, 0)):
            stream[:1] -= first
        t, x, y = (simple8b_encode(zigzag_encode_array(stream)) for stream in deltas)
        frame = bytes([1]) + _varint(hi - lo) + _varint(len(t)) + _varint(len(x))
        assert blob == frame + t + x + y
        got = TrajectoryCodec().decode_array_block(blob, origin)
        for mine, want in zip(got, dequantize_arrays(*ints)):
            assert mine.tobytes() == want.tobytes()
