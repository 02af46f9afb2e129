"""The batched write path: bit-identity with the parent and the store half.

Rows and TShape keys are pinned to golden bytes written at the parent
commit (``tests/data/ingest_parent/``, see its ``generate.py``), both for a
whole batch and one trajectory at a time; the golden rows are version 2, so
today's rows are compared after ``ingest_reference.row_v6_to_v2``, which
puts back the TR value the golden rows were stored under (and must come
back unchanged from ``row_v2_to_v6``, whose scalar packer makes the same
width and exception choices as ``repro.compression.bitpack``); the codec
menu's segmented simple8b and LEB128 kernels are
checked against the scalar reference in ``tests/ingest_reference.py``; and
the store half — ``Table.put_batch``, region row accounting, inserts whose
buffer overflows mid-batch — must leave the tables exactly as row-by-row
writes do.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.simple8b import simple8b_encode, simple8b_encode_segments
from benchmarks.varint_stream import varint_encode_array, varint_encode_segments
from repro import TMan, TManConfig
from repro.compression.bitpack import pack, unpack_array, unpack_lists
from repro.core.quadtree import QuadTreeGrid
from repro.core.tshape import TShapeIndex
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.geometry.dp import dp_keep_mask
from repro.kvstore import region as region_mod
from repro.kvstore.cluster import MemoryStores
from repro.kvstore.scan import Scan
from repro.kvstore.stats import IOStats
from repro.kvstore.table import Table
from repro.model import STPoint, Trajectory
from repro.model.pointblock import PointBlock
from repro.storage.serializer import RowSerializer

from . import ingest_reference as ref
from .codec_reference import encode_varints, pack_section

GOLDEN = Path(__file__).parent / "data" / "ingest_parent" / "golden.npz"
BOUNDARY = TDRIVE_SPEC.boundary
# golden row set -> dp_epsilon; golden.npz's varint and PFOR rows are not
# read, as no row is packed with those codecs any more
ROW_SETS = {"simple8b_eps": 0.002, "simple8b_fine": 0.0002}
INDEXES = [("g14a3b3", 14, 3, 3), ("g16a4b2", 16, 4, 2)]


# -- golden bytes --------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    data = np.load(GOLDEN)
    off = data["offsets"]
    trajs = [
        Trajectory(str(oid), str(tid), [
            STPoint(*p) for p in zip(*(data[c][off[i]:off[i + 1]].tolist()
                                       for c in ("ts", "xs", "ys")))
        ])
        for i, (oid, tid) in enumerate(zip(data["oids"], data["tids"]))
    ]
    return data, trajs


def _assert_rows(data, name: str, rows: list[bytes]) -> None:
    old = [ref.row_v6_to_v2(row, tr) for row, tr in zip(rows, data["tr_values"].tolist())]
    assert [ref.row_v2_to_v6(row) for row in old] == rows
    rows = old
    if f"rows_{name}" in data:
        buf, off = data[f"rows_{name}"].tobytes(), data[f"rowoff_{name}"]
        want = [buf[off[i]:off[i + 1]] for i in range(len(off) - 1)]
    else:
        want = [bytes(d) for d in data[f"sha_{name}"]]
        rows = [hashlib.sha256(row).digest() for row in rows]
    bad = [i for i, (a, b) in enumerate(zip(rows, want)) if a != b]
    assert len(rows) == len(want) and not bad, f"{name}: rows {bad[:5]} differ"


@pytest.mark.parametrize("name", sorted(ROW_SETS))
def test_rows_reproduce_parent_bytes(golden, name):
    data, trajs = golden
    serializer = RowSerializer(dp_epsilon=ROW_SETS[name])
    _assert_rows(data, name, serializer.encode_many(trajs))
    _assert_rows(data, name, [serializer.encode(t) for t in trajs])


def test_rows_identical_for_block_backed_trajectories(golden):
    data, trajs = golden
    blocks = [
        Trajectory(t.oid, t.tid, PointBlock.from_points(list(t.points))) for t in trajs
    ]
    _assert_rows(data, "simple8b_eps", RowSerializer().encode_many(blocks))


@pytest.mark.parametrize("name,g,alpha,beta", INDEXES)
def test_keys_reproduce_parent(golden, name, g, alpha, beta):
    data, trajs = golden
    index = TShapeIndex(QuadTreeGrid(BOUNDARY, g), alpha, beta)
    batch = index.index_trajectories(trajs)
    assert [index.index_trajectory(t) for t in trajs] == batch
    got = np.array([(k.element_code, k.resolution, k.raw_shape, k.anchor.ix, k.anchor.iy)
                    for k in batch])
    assert np.array_equal(got, data[f"keys_{name}"])


# -- segmented kernels against the scalar reference ------------------------------


def _concat(segments: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    flat = np.array([v for seg in segments for v in seg], dtype=np.uint64)
    return flat, np.cumsum([0] + [len(seg) for seg in segments])


@st.composite
def _streams(draw, max_bits: int):
    """A stream of runs: long zero runs (simple8b selectors 0/1) and runs of
    values of one bit width, so every selector's boundary gets exercised."""
    values: list[int] = []
    for bits, length, seed in draw(st.lists(st.tuples(
        st.sampled_from([0, 0, 1, 2, 3, 4, 7, 8, 12, 15, 20, 30, 31, max_bits]),
        st.integers(1, 260),
        st.integers(0, 2**16),
    ), max_size=5)):
        rng = random.Random(seed)
        values += [rng.getrandbits(bits) if bits else 0 for _ in range(length)]
    return values


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(_streams(60), min_size=1, max_size=5))
def test_simple8b_segments_match_scalar(segments):
    flat, offsets = _concat(segments)
    assert simple8b_encode_segments(flat, offsets) == [
        ref.simple8b_encode(seg) for seg in segments
    ]
    assert simple8b_encode(segments[0]) == ref.simple8b_encode(segments[0])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(_streams(64), min_size=1, max_size=5))
def test_varint_segments_match_scalar(segments):
    flat, offsets = _concat(segments)
    assert varint_encode_segments(flat, offsets) == [encode_varints(seg) for seg in segments]
    assert varint_encode_array(flat[: offsets[1]]) == encode_varints(segments[0])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.tuples(_streams(64), _streams(64)), min_size=1, max_size=4),
       st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_bitpack_sections_match_scalar(rows, heads):
    """Every row's section of two streams, packed for the whole batch, is
    the scalar reference's section, and both readers read it back."""
    columns = [_concat([row[c] for row in rows]) for c in (0, 1)]
    sections = pack([flat for flat, _ in columns], [off for _, off in columns], heads)
    for row, section in zip(rows, sections):
        assert section == pack_section(row, heads)
        lengths = [len(stream) for stream in row]
        assert unpack_lists(section, 0, lengths, heads) == list(row)
        assert unpack_array(section, 0, lengths, heads).tolist() == row[0] + row[1]


@pytest.mark.parametrize(
    "values", [[-1], [5, -3], [1 << 60], [0, (1 << 60) + 7, -1], [2, 1 << 64, -5]]
)
def test_simple8b_range_errors_match_scalar(values):
    with pytest.raises(ValueError) as want:
        ref.simple8b_encode(values)
    with pytest.raises(ValueError) as got:
        simple8b_encode(values)
    assert str(got.value) == str(want.value)


def test_simple8b_segments_reject_values_past_60_bits():
    flat = np.array([1, 2, 1 << 60], dtype=np.uint64)
    with pytest.raises(ValueError, match="exceeds 60 bits"):
        simple8b_encode_segments(flat, [0, 1, 3])


_polylines = st.lists(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=30),
    min_size=1, max_size=6,
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_polylines, st.sampled_from([0.0, 0.25, 1.0, 2.5]), st.sampled_from([0.125, 0.1, 1.0]))
def test_dp_kernel_matches_scalar(polylines, epsilon, scale):
    """Integer grids give exact ties, repeated points (zero-length spans)
    and collinear runs; the 0.1 scale adds rounding."""
    xs = np.array([116.0 + x * scale for line in polylines for x, _ in line])
    ys = np.array([40.0 + y * scale for line in polylines for _, y in line])
    offsets = np.cumsum([0] + [len(line) for line in polylines])
    keep = dp_keep_mask(xs, ys, offsets, epsilon)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        assert np.flatnonzero(keep[lo:hi]).tolist() == ref.douglas_peucker(
            xs[lo:hi].tolist(), ys[lo:hi].tolist(), epsilon
        )


# -- the writer ------------------------------------------------------------------


def _config(**overrides) -> TManConfig:
    base = dict(boundary=BOUNDARY, max_resolution=12, num_shards=2, kv_workers=1)
    return TManConfig(**{**base, **overrides})


def _norm_traj(tid: str, cells: list[tuple[float, float]], ix: int, iy: int, r: int):
    """A trajectory through local cell coordinates of the element at (ix, iy)."""
    w = 1.0 / (1 << r)
    return Trajectory("o", tid, [
        STPoint(float(k), BOUNDARY.x1 + BOUNDARY.width * (ix + a) * w,
                BOUNDARY.y1 + BOUNDARY.height * (iy + b) * w)
        for k, (a, b) in enumerate(cells)
    ])


def test_incremental_bulk_load_takes_free_shape_codes():
    """An insert staged the all-cells shape under its raw bitmap 511, the
    top of the 9-bit space; the next bulk load into that element used to
    number new shapes from 512 and fail mid-load."""
    t = TMan(_config(max_resolution=8, alpha=3, beta=3))
    ix, iy, r = 10, 12, 5
    a = _norm_traj("A", [(0.2, 0.5), (2.8, 0.5)], ix, iy, r)
    b = _norm_traj("B", [(0.2, 0.2), (2.8, 0.2), (2.8, 1.5), (0.2, 1.5),
                         (0.2, 2.8), (2.8, 2.8)], ix, iy, r)
    c = _norm_traj("C", [(0.5, 0.2), (0.5, 2.8)], ix, iy, r)
    d = _norm_traj("D", [(0.2, 0.2), (2.8, 2.8)], ix, iy, r)
    t.bulk_load([a])
    t.insert([b])
    element = t.tshape_index.index_trajectory(a).element_code
    assert {t.tshape_index.index_trajectory(x).element_code for x in (b, c, d)} == {element}
    assert t.index_cache.get_mapping(element) == {7: 0, 511: 511}
    t.bulk_load([c, d])
    mapping = t.index_cache.get_mapping(element)
    assert len(mapping) == 4 and max(mapping.values()) < 1 << 9
    assert len(set(mapping.values())) == 4
    got = t.spatial_range_query(BOUNDARY)
    assert sorted(x.tid for x in got.trajectories) == ["A", "B", "C", "D"]
    t.close()


def test_insert_and_bulk_load_split_encode_from_write_time():
    data = tdrive_like(80, seed=4, max_points=30)
    t = TMan(_config())
    for report in (t.bulk_load(data[:50]), t.insert(data[50:])):
        assert report.encode_seconds > 0 and report.write_seconds > 0
    t.close()


def _table_contents(tman: TMan) -> dict[str, list[tuple[bytes, bytes]]]:
    tables = {"primary": tman.primary_table, **tman.secondary_tables}
    return {name: list(table.scan(Scan())) for name, table in tables.items()}


def test_insert_with_mid_batch_reencode_matches_one_at_a_time():
    """The buffer overflows several times inside one insert batch: the rows
    staged before each overflow must be stored before the re-encode rescans
    their element, or they keep stale keys."""
    data = tdrive_like(160, seed=8, max_points=40)
    config = _config(buffer_shape_threshold=3, secondary_indexes=("tr", "idt", "st"))
    batched, single = TMan(config), TMan(config)
    for t in (batched, single):
        t.bulk_load(data[:100])
    report = batched.insert(data[100:])
    for traj in data[100:]:
        single.insert([traj])
    assert report.reencodes_triggered >= 2 and report.rows_rewritten > 0
    assert _table_contents(batched) == _table_contents(single)
    got = batched.spatial_range_query(BOUNDARY)
    assert {x.tid for x in got.trajectories} == {x.tid for x in data}
    batched.close()
    single.close()


def _rows(n: int, seed: int, distinct: int) -> list[tuple[bytes, bytes]]:
    rng = random.Random(seed)
    return [
        (f"k{rng.randrange(distinct):05d}".encode(), bytes(rng.randrange(1, 40)))
        for _ in range(n)
    ]


@pytest.mark.parametrize("distinct", [10_000, 3])  # 3: splits that cannot happen
def test_table_put_batch_splits_like_row_by_row(monkeypatch, distinct):
    observed: dict[str, list[int]] = {"batch": [], "rows": []}
    rows = _rows(300, seed=distinct, distinct=distinct)
    layouts = {}
    for mode in ("batch", "rows"):
        monkeypatch.setattr(region_mod, "_ROW_BYTES", type("Rec", (), {
            "observe": staticmethod(observed[mode].append)})())
        stats = IOStats()
        table = Table(mode, stats, MemoryStores(stats, None), split_rows=7)
        if mode == "batch":
            for lo in range(0, len(rows), 64):
                table.put_batch(rows[lo:lo + 64])
        else:
            for key, value in rows:
                table.put(key, value)
        layouts[mode] = (
            [(r.start_key, r.end_key, r.approx_rows) for r in table.regions],
            list(table.scan(Scan())),
        )
    assert layouts["batch"] == layouts["rows"]
    assert len(layouts["batch"][0]) > (1 if distinct > 3 else 0)
    # Every put and every row a split moves is observed once, either way.
    assert sorted(observed["batch"]) == sorted(observed["rows"])
    assert len(observed["rows"]) >= len(rows)
