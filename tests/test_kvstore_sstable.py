"""Unit tests for the SSTable: one run format, read from a file or an image.

An image (the memory engine's run) is the bytes a file (the durable
engine's run) holds, and one reader serves both: the same entries give
the same bytes, the same rows and the same records-parsed counts on
either medium, and every cut or single-byte change of a run opens and
reads, or raises ``CorruptionError``.
"""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kvstore.block_cache import BlockCache
from repro.kvstore.errors import CorruptionError
from repro.kvstore.sstable import SPARSE_EVERY, SSTable, sstable_image, write_sstable
from repro.kvstore.stats import IOStats

# sha256 of the run written for PINNED_ENTRIES (and for no entries) by the
# file writer before memory runs shared its format; durable files must keep
# these bytes.
PINNED_ENTRIES = [(b"k%05d" % i, b"v" * (i % 37) + b"%d" % i) for i in range(1000)]
PINNED_SHA256 = "f030553c16067473cc083de9da25ad0eceb8129edfb3b7b0cac508b2b45fae00"
EMPTY_SHA256 = "df394d227309f9219029c0198a8b126c885c8accdf46f089d5d793c00c7b3fd8"

MEDIA = ("image", "file", "file-cached")


def entries(n):
    return [(i.to_bytes(4, "big"), b"v%d" % i) for i in range(n)]


def image_table(rows, stats=None):
    return SSTable(sstable_image(rows), stats)


def open_run(medium, rows, tmp_path, stats=None):
    """A run of ``rows`` on ``medium``."""
    if medium == "image":
        return image_table(rows, stats)
    path = tmp_path / f"{medium}.sst"
    write_sstable(path, rows)
    cache = BlockCache(1 << 16, block_bytes=256) if medium == "file-cached" else None
    return SSTable(path, stats, block_cache=cache)


class TestSSTable:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            sstable_image([(b"b", b"1"), (b"a", b"2")])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            sstable_image([(b"a", b"1"), (b"a", b"2")])

    def test_get_hit_and_miss(self):
        t = image_table(entries(100))
        assert t.get((42).to_bytes(4, "big")) == b"v42"
        assert t.get((999).to_bytes(4, "big")) is None

    def test_scan_full(self):
        t = image_table(entries(10))
        assert len(t) == 10
        assert list(t.scan()) == entries(10)

    def test_scan_range(self):
        t = image_table(entries(100))
        got = list(t.scan((10).to_bytes(4, "big"), (20).to_bytes(4, "big")))
        assert [k for k, _ in got] == [i.to_bytes(4, "big") for i in range(10, 20)]

    def test_min_max_keys(self):
        t = image_table(entries(5))
        assert t.min_key == (0).to_bytes(4, "big")
        assert t.max_key == (4).to_bytes(4, "big")

    def test_overlaps(self):
        t = image_table(entries(10))
        assert t.overlaps((5).to_bytes(4, "big"), (6).to_bytes(4, "big"))
        assert not t.overlaps((100).to_bytes(4, "big"), None)
        assert not t.overlaps(None, (0).to_bytes(4, "big"))

    def test_block_reads_counted(self):
        # One unit on every medium: records parsed.
        stats = IOStats()
        t = image_table(entries(500), stats)
        list(t.scan())
        assert stats.snapshot().block_reads == 500

    def test_an_image_has_no_path_and_no_cache(self):
        t = image_table(entries(3))
        assert t.path is None
        t.release_cache()  # nothing to drop
        assert list(t.scan()) == entries(3)


# -- one format over two media -------------------------------------------------


@pytest.mark.parametrize(
    "rows, digest",
    [(PINNED_ENTRIES, PINNED_SHA256), ([], EMPTY_SHA256)],
    ids=["pinned", "empty"],
)
def test_image_and_file_hold_the_pinned_bytes(tmp_path, rows, digest):
    path = tmp_path / "t.sst"
    write_sstable(path, rows)
    image = sstable_image(rows)
    assert image == path.read_bytes()
    assert hashlib.sha256(image).hexdigest() == digest


def _windows(bounds):
    """Sorted, disjoint windows over PINNED_ENTRIES' key space from a sorted
    set of cut points; a None end is unbounded."""
    keys = [b"k%05d" % b for b in sorted(set(bounds))]
    out = [(keys[i], keys[i + 1]) for i in range(0, len(keys) - 1, 2)]
    if len(keys) % 2:
        out.append((keys[-1], None))
    return out


@given(
    bounds=st.lists(st.integers(0, 1100), max_size=24),
    probes=st.lists(st.integers(0, 1100), max_size=40),
)
def test_every_medium_reads_the_same_rows_and_counts(tmp_path_factory, bounds, probes):
    windows = _windows(bounds)
    keys = sorted({b"k%05d" % p for p in probes})
    model = dict(PINNED_ENTRIES)
    expected_rows = [
        (k, v) for k, v in PINNED_ENTRIES
        if any((a is None or a <= k) and (b is None or k < b) for a, b in windows)
    ]
    expected_hits = [(k, model[k]) for k in keys if k in model]
    seen = []
    tmp = tmp_path_factory.mktemp("media")
    for medium in MEDIA:
        stats = IOStats()
        run = open_run(medium, PINNED_ENTRIES, tmp, stats)
        rows = list(run.scan_windows(windows))
        scanned = stats.snapshot().block_reads
        hits = list(run.get_many(keys))
        got = stats.snapshot().block_reads - scanned
        assert rows == expected_rows
        assert hits == expected_hits
        seen.append((scanned, got))
    assert seen.count(seen[0]) == len(MEDIA), seen


@pytest.mark.parametrize("medium", MEDIA)
def test_window_seeks_walk_from_the_sparse_floor(tmp_path, medium):
    stats = IOStats()
    run = open_run(medium, PINNED_ENTRIES, tmp_path, stats)
    k = 5 * SPARSE_EVERY + 3
    assert run.get(b"k%05d" % k) == PINNED_ENTRIES[k][1]
    # The floor's record up to the hit: 4 records parsed.
    assert stats.snapshot().block_reads == 4
    assert run.get(b"k%05d" % k + b"\x00") is None
    assert run.max_key == PINNED_ENTRIES[-1][0]


# -- untrusted bytes -------------------------------------------------------------

FUZZ_ENTRIES = [(b"key-%03d" % i, b"value" * (i % 5) + b"%d" % i) for i in range(40)]
FUZZ_IMAGE = sstable_image(FUZZ_ENTRIES)
FUZZ_WINDOWS = [(b"key-005", b"key-009"), (b"key-020", b"key-021"), (b"key-033", None)]
FUZZ_KEYS = [b"key-000", b"key-017", b"key-039", b"key-999"]


def _read_all(run):
    """Every read path of a run, to completion."""
    return (
        list(run.scan()),
        list(run.scan_windows(FUZZ_WINDOWS)),
        list(run.get_many(FUZZ_KEYS)),
        run.get(b"key-030"),
        run.max_key,
        len(run),
    )


def _outcome(medium, data, path):
    """What reading ``data`` on ``medium`` gives: its reads, or "corrupt"."""
    try:
        if medium == "image":
            return _read_all(SSTable(data))
        path.write_bytes(data)
        cache = BlockCache(1 << 12, block_bytes=64) if medium == "file-cached" else None
        return _read_all(SSTable(path, block_cache=cache))
    except CorruptionError:
        return "corrupt"


def _same_on_every_medium(data, path):
    image = _outcome("image", data, path)
    assert _outcome("file", data, path) == image
    assert _outcome("file-cached", data, path) == image
    return image


def test_every_cut_and_byte_flip_reads_alike_or_raises_corruption(tmp_path):
    """Every medium gives the same outcome: the same reads, or
    CorruptionError (no other exception and no hang).  A cut never leaves
    a readable run; a flip inside a value, or of a key byte that keeps
    the keys in order, does."""
    path = tmp_path / "run.sst"
    for cut in range(len(FUZZ_IMAGE)):
        assert _same_on_every_medium(FUZZ_IMAGE[:cut], path) == "corrupt"
    readable = 0
    for pos in range(len(FUZZ_IMAGE)):
        data = bytearray(FUZZ_IMAGE)
        data[pos] ^= 0xFF
        readable += _same_on_every_medium(bytes(data), path) != "corrupt"
    assert 0 < readable < len(FUZZ_IMAGE)
    assert _same_on_every_medium(FUZZ_IMAGE, path)[0] == FUZZ_ENTRIES


@given(pos=st.integers(0, len(FUZZ_IMAGE) - 1), value=st.integers(0, 255),
       cut=st.integers(0, len(FUZZ_IMAGE)))
def test_any_byte_value_anywhere_reads_or_raises_corruption(tmp_path_factory, pos, value, cut):
    data = bytearray(FUZZ_IMAGE)
    data[pos] = value
    path = tmp_path_factory.mktemp("fuzz") / "run.sst"
    _same_on_every_medium(bytes(data), path)
    _same_on_every_medium(bytes(data[:cut]), path)
