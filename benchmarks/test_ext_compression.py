"""Extension benchmark — the trajectory compression codec menu.

Compares the integer packers (LEB128 varint / simple8b / PFOR) on the same
zigzagged streams the trajectory codec builds (delta-of-delta t, delta lng
and lat, first values counted from 0), plus the float codecs (XOR, Elf) on
raw coordinate columns: compressed size and encode/decode throughput on
realistic GPS tracks.  Supports the storage-layer claim that rows are much
smaller than raw point arrays.  Rows are packed with simple8b alone; the
other packers live here in ``benchmarks/`` (``varint_stream.py``,
``pfor.py``).  A packer's bytes are its three streams per trip without the
blob frame (codec id, varint n, varint len(t), varint len(x)); the
simple8b streams plus that frame are checked to be the codec's blobs.
"""

import time

import numpy as np

from benchmarks.conftest import save_table
from benchmarks.elf import elf_decode, elf_encode
from benchmarks.harness import ResultTable
from benchmarks.pfor import pfor_encode_segments, pfor_unpack
from benchmarks.varint_stream import varint_encode_segments, varint_unpack
from benchmarks.xor_float import xor_float_decode, xor_float_encode
from repro.compression import TrajectoryCodec
from repro.compression.columnar import (
    delta_encode_array,
    delta_of_delta_encode_array,
    zigzag_encode_array,
)
from repro.compression.simple8b import simple8b_encode_segments, simple8b_unpack
from repro.compression.traj_codec import quantize_arrays
from repro.compression.varint import encode_varint

PACKERS = {  # packer -> (segmented packer, array unpacker)
    "varint": (varint_encode_segments, varint_unpack),
    "simple8b": (simple8b_encode_segments, simple8b_unpack),
    "pfor": (pfor_encode_segments, pfor_unpack),
}


def zigzag_streams(trajs) -> tuple[np.ndarray, np.ndarray]:
    """Every trip's three zigzagged streams, as the trajectory codec builds
    them with origin 0, concatenated (all t streams, then x, then y), and
    the offsets of those ``3 * len(trajs)`` streams."""
    offsets = np.cumsum([0] + [len(t) for t in trajs])
    t, x, y = quantize_arrays(*(
        np.concatenate([getattr(traj.block, col) for traj in trajs])
        for col in ("ts", "xs", "ys")
    ))
    n = offsets[-1]
    values = zigzag_encode_array(np.concatenate((
        delta_of_delta_encode_array(t, offsets),
        delta_encode_array(x, offsets),
        delta_encode_array(y, offsets),
    )))
    return values, np.concatenate((offsets, offsets[1:] + n, offsets[1:] + 2 * n))


def test_ext_codec_menu(benchmark, tdrive_data):
    sample = tdrive_data[:300]
    total_points = sum(len(t) for t in sample)
    raw_bytes = total_points * 24  # three f64 per point

    table = ResultTable(
        "Extension - trajectory codec menu (300 trips, "
        f"{total_points} points, raw={raw_bytes}B; packer bytes are the three "
        "zigzagged delta streams per trip, without the blob frame: codec id, "
        "varint n, varint len(t), varint len(x))",
        ["codec", "bytes", "ratio", "encode_ms", "decode_ms"],
    )

    zigzagged, bounds = zigzag_streams(sample)
    k = len(sample)
    for name, (pack, unpack) in PACKERS.items():
        t0 = time.perf_counter()
        streams = pack(zigzagged, bounds)
        encode_ms = (time.perf_counter() - t0) * 1000
        trips = [streams[i::k] for i in range(k)]  # each trip's t, x and y streams
        t0 = time.perf_counter()
        decoded = [unpack(trip, len(traj)) for trip, traj in zip(trips, sample)]
        decode_ms = (time.perf_counter() - t0) * 1000
        restored = np.concatenate([d[j] for j in range(3) for d in decoded])
        assert np.array_equal(restored, zigzagged), name
        size = sum(len(stream) for stream in streams)
        table.add_row(name, size, raw_bytes / size, encode_ms, decode_ms)
        # The quantize+delta+pack pipeline must beat raw doubles comfortably.
        assert size < raw_bytes / 2, name
        if name == "simple8b":  # the codec's blobs are these streams, framed
            codec = TrajectoryCodec()
            for trip, traj in zip(trips, sample):
                frame = bytearray((1,))
                for value in (len(traj), len(trip[0]), len(trip[1])):
                    encode_varint(value, frame)
                assert codec.encode_points(traj.points) == bytes(frame) + b"".join(trip)

    # Float codecs on the longitude column.  Two variants: the raw synthetic
    # doubles (full random mantissas — worst case) and the same column
    # rounded to 7 decimals (what real GPS receivers emit, Elf's sweet spot).
    raw_lngs = [p.lng for t in sample for p in t.points]
    decimal_lngs = [round(v, 7) for v in raw_lngs]
    column_bytes = 8 * len(raw_lngs)
    elf_sizes = {}
    for label, values in (("raw", raw_lngs), ("7-decimal", decimal_lngs)):
        for name, enc, dec in (
            ("xor-float", xor_float_encode, xor_float_decode),
            ("elf", elf_encode, elf_decode),
        ):
            t0 = time.perf_counter()
            blob = enc(values)
            encode_ms = (time.perf_counter() - t0) * 1000
            t0 = time.perf_counter()
            out = dec(blob)
            decode_ms = (time.perf_counter() - t0) * 1000
            assert out == values
            elf_sizes[(name, label)] = len(blob)
            table.add_row(
                f"{name} ({label})", len(blob), column_bytes / len(blob),
                encode_ms, decode_ms,
            )
    # Elf's erase step pays off exactly on decimal data (the cited paper's
    # claim): much smaller than plain XOR there, no worse than ~raw size on
    # full-mantissa noise.
    assert elf_sizes[("elf", "7-decimal")] < elf_sizes[("xor-float", "7-decimal")]

    save_table("ext_compression", table)

    codec = TrajectoryCodec("simple8b")
    points = sample[0].points
    benchmark.pedantic(
        lambda: codec.decode_points(codec.encode_points(points)),
        rounds=5, iterations=3,
    )


def test_ext_storage_engines(benchmark, tmp_path_factory):
    """In-memory LSM vs durable (WAL + disk SSTables): write/scan cost."""
    from repro.kvstore.durable import DurableLSMStore
    from repro.kvstore.lsm import LSMStore

    rows = [(i.to_bytes(8, "big"), b"v" * 64) for i in range(5000)]

    table = ResultTable(
        "Extension - storage engines (5k rows of 64B)",
        ["engine", "write_ms", "scan_ms"],
    )

    mem = LSMStore(flush_bytes=256 * 1024)
    t0 = time.perf_counter()
    for k, v in rows:
        mem.put(k, v)
    mem_write = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    assert sum(1 for _ in mem.scan()) == 5000
    mem_scan = (time.perf_counter() - t0) * 1000
    table.add_row("memory LSM", mem_write, mem_scan)

    base = tmp_path_factory.mktemp("engines")
    for sync, label in ((False, "durable (group commit)"), (True, "durable (fsync/write)")):
        sub = base / label.replace(" ", "_").replace("/", "_")
        store = DurableLSMStore(sub, flush_bytes=256 * 1024, sync=sync)
        subset = rows if not sync else rows[:500]  # per-write fsync is slow
        t0 = time.perf_counter()
        for k, v in subset:
            store.put(k, v)
        write_ms = (time.perf_counter() - t0) * 1000 * (len(rows) / len(subset))
        t0 = time.perf_counter()
        count = sum(1 for _ in store.scan())
        scan_ms = (time.perf_counter() - t0) * 1000
        assert count == len(subset)
        table.add_row(label, write_ms, scan_ms)
        store.close()

    save_table("ext_storage_engines", table)

    benchmark.pedantic(
        lambda: sum(1 for _ in mem.scan()), rounds=3, iterations=1
    )
