"""Query-window generation (§V-G(1)).

Turns candidate index-value ranges into byte-key scan windows.  Primary
windows are replicated per shard (Eq. 6 puts the shard byte first);
secondary windows are shard-free.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.st import STWindow
from repro.storage.schema import RowKeyCodec, encode_u64

ByteWindow = tuple[Optional[bytes], Optional[bytes]]


def coalesce_inclusive_ranges(
    ranges: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Merge overlapping/adjacent inclusive integer ranges; sorted output.

    The N intervals of Algorithm 1 are frequently contiguous
    (``hi + 1 == next lo``); collapsing them turns N scans into few.
    Empty ranges (``lo > hi``) are dropped.  Pure function.
    """
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(r for r in ranges if r[0] <= r[1]):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def subtract_inclusive_ranges(
    ranges: Iterable[tuple[int, int]], taken: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The integers of ``ranges`` that no range of ``taken`` covers, as
    sorted, merged inclusive ranges: one sweep over both coalesced lists.
    Pure function."""
    cut = coalesce_inclusive_ranges(taken)
    out: list[tuple[int, int]] = []
    j = 0
    for lo, hi in coalesce_inclusive_ranges(ranges):
        while j < len(cut) and cut[j][1] < lo:
            j += 1
        k = j
        while lo <= hi and k < len(cut) and cut[k][0] <= hi:
            if cut[k][0] > lo:
                out.append((lo, cut[k][0] - 1))
            lo = cut[k][1] + 1
            k += 1
        if lo <= hi:
            out.append((lo, hi))
    return out


def _window_sort_key(window: ByteWindow) -> tuple[int, bytes]:
    start = window[0]
    return (0, b"") if start is None else (1, start)


def coalesce_windows(windows: Iterable[ByteWindow]) -> list[ByteWindow]:
    """Sort, de-duplicate, and merge adjacent/overlapping byte-key windows.

    Windows are half-open ``[start, stop)`` with ``None`` meaning
    unbounded; two windows merge when they overlap or abut exactly
    (``next.start <= current.stop``).  Empty windows are dropped.  The
    scanned key set is preserved exactly — only duplicate coverage
    disappears — and the output order is deterministic, so the scan
    schedule built from it is too.  Pure function.
    """
    live = [
        w
        for w in windows
        if w[0] is None or w[1] is None or w[0] < w[1]
    ]
    live.sort(key=_window_sort_key)
    merged: list[ByteWindow] = []
    for start, stop in live:
        if merged:
            prev_start, prev_stop = merged[-1]
            if prev_stop is None:
                # The previous window is unbounded above: it swallows the rest.
                break
            if start is None or start <= prev_stop:
                if stop is None or stop > prev_stop:
                    merged[-1] = (prev_start, stop)
                continue
        merged.append((start, stop))
    return merged


def primary_windows_u64(
    codec: RowKeyCodec, ranges: Iterable[tuple[int, int]]
) -> list[tuple[bytes, bytes]]:
    """Per-shard windows for half-open u64 index ranges on the primary table."""
    windows = []
    for lo, hi in ranges:
        lo_b, hi_b = encode_u64(lo), encode_u64(hi)
        for shard in codec.all_shards():
            windows.append(codec.primary_window(shard, lo_b, hi_b))
    return windows


def primary_windows_inclusive(
    codec: RowKeyCodec, ranges: Iterable[tuple[int, int]]
) -> list[tuple[bytes, bytes]]:
    """Same for inclusive integer ranges ``[lo, hi]`` (TR planner output)."""
    return primary_windows_u64(codec, ((lo, hi + 1) for lo, hi in ranges))


def secondary_windows_u64(ranges: Iterable[tuple[int, int]]) -> list[tuple[bytes, bytes]]:
    """Windows over a secondary table keyed by a bare u64 index value."""
    return [(encode_u64(lo), encode_u64(hi)) for lo, hi in ranges]


def secondary_windows_inclusive(
    ranges: Iterable[tuple[int, int]]
) -> list[tuple[bytes, bytes]]:
    """Secondary windows inclusive."""
    return secondary_windows_u64((lo, hi + 1) for lo, hi in ranges)


def st_primary_windows(
    codec: RowKeyCodec, st_windows: Sequence[STWindow]
) -> list[tuple[bytes, bytes]]:
    """Composite windows for the 16-byte ST primary index.

    Fine windows (one TR value + explicit TShape ranges) become precise
    two-component scans; coarse windows span the whole TShape space of a TR
    interval (the spatial predicate is then enforced by push-down).
    """
    windows: list[tuple[bytes, bytes]] = []
    for w in st_windows:
        if w.shape_ranges is None:
            lo_b = encode_u64(w.tr_lo) + encode_u64(0)
            hi_b = encode_u64(w.tr_hi + 1) + encode_u64(0)
            for shard in codec.all_shards():
                windows.append(codec.primary_window(shard, lo_b, hi_b))
        else:
            for slo, shi in w.shape_ranges:
                lo_b = encode_u64(w.tr_lo) + encode_u64(slo)
                hi_b = encode_u64(w.tr_lo) + encode_u64(shi)
                for shard in codec.all_shards():
                    windows.append(codec.primary_window(shard, lo_b, hi_b))
    return windows
