"""Extension benchmark — the trajectory compression codec menu.

Compares the integer packers (varint / simple8b / PFOR) through the full
trajectory codec, plus the float codecs (XOR, Elf) on raw coordinate
columns: compressed size and encode/decode throughput on realistic GPS
tracks.  Supports the storage-layer claim that rows are much smaller than
raw point arrays.  The blobs are the standalone codec's: the row version 4
frame (codec id, varint point count, varint t and x stream lengths, no
per-stream counts) with first values counted from 0, so they do not show
the row's header-relative first point.
"""

import time

from benchmarks.conftest import save_table
from benchmarks.elf import elf_decode, elf_encode
from benchmarks.harness import ResultTable
from benchmarks.xor_float import xor_float_decode, xor_float_encode
from repro.compression import TrajectoryCodec


def test_ext_codec_menu(benchmark, tdrive_data):
    sample = tdrive_data[:300]
    total_points = sum(len(t) for t in sample)
    raw_bytes = total_points * 24  # three f64 per point

    table = ResultTable(
        "Extension - trajectory codec menu (300 trips, "
        f"{total_points} points, raw={raw_bytes}B; blob frame: codec id, "
        "varint n, varint len(t), varint len(x), no per-stream counts)",
        ["codec", "bytes", "ratio", "encode_ms", "decode_ms"],
    )

    for name in ("varint", "simple8b", "pfor"):
        codec = TrajectoryCodec(name)
        t0 = time.perf_counter()
        blobs = [codec.encode_points(t.points) for t in sample]
        encode_ms = (time.perf_counter() - t0) * 1000
        t0 = time.perf_counter()
        for blob in blobs:
            codec.decode_points(blob)
        decode_ms = (time.perf_counter() - t0) * 1000
        size = sum(len(b) for b in blobs)
        table.add_row(name, size, raw_bytes / size, encode_ms, decode_ms)
        # The quantize+delta+pack pipeline must beat raw doubles comfortably.
        assert size < raw_bytes / 2, name

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
