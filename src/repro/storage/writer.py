"""Write paths: bulk load and the buffered update protocol (§IV-C).

Bulk load groups trajectories by enlarged element, optimizes each element's
shape codes once (greedy/genetic/bitmap per configuration), persists the
mappings to the index cache, and writes primary + secondary rows.

Online inserts follow the paper's update protocol: shapes already known to
the index cache reuse their final code; unknown shapes are stored under
their *raw* bitmap code and staged in the buffer shape cache; when the
buffer crosses its threshold every affected element is re-encoded and its
rows rewritten under the new codes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.temporal import TRIndex
from repro.core.tshape import TShapeKey
from repro.kvstore.scan import Scan
from repro.model.trajectory import Trajectory
from repro.obs import (
    counter as _obs_counter,
    histogram as _obs_histogram,
    tracer as _obs_tracer,
)
from repro.runtime.backpressure import stall_counts
from repro.storage.schema import encode_u64

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.storage.tman import TMan

_INGEST_ROWS = _obs_counter(
    "ingest_rows_total", "Trajectory rows written by bulk loads and inserts"
)
_INGEST_ENCODE_MS = _obs_histogram(
    "ingest_encode_ms", "Shape-code optimization time per write batch"
)
_INGEST_WRITE_MS = _obs_histogram(
    "ingest_write_ms", "Row-write time per write batch"
)
_REENCODE_TOTAL = _obs_counter(
    "ingest_reencode_total", "Buffer-overflow re-encodes triggered by inserts"
)


@dataclass
class WriteReport:
    """Accounting for one write batch.

    The backpressure fields record how the memtable watermarks shaped this
    batch: ``throttled_writes`` counts soft-watermark delays,
    ``stalled_writes`` hard-watermark waits (with total ``stall_seconds``),
    and ``rejected_writes`` stalls that timed out into
    :class:`~repro.kvstore.errors.WriteStalledError`.  All zero when the
    deployment configures no watermarks.
    """

    rows_written: int = 0
    elements_encoded: int = 0
    reencodes_triggered: int = 0
    rows_rewritten: int = 0
    encode_seconds: float = 0.0
    write_seconds: float = 0.0
    throttled_writes: int = 0
    stalled_writes: int = 0
    stall_seconds: float = 0.0
    rejected_writes: int = 0


class _StallDelta:
    """Process-wide backpressure tallies bracketing one write batch."""

    def __init__(self) -> None:
        self._before = stall_counts()

    def apply(self, report: WriteReport) -> None:
        throttles, stalls, stall_s, rejected = stall_counts()
        before = self._before
        report.throttled_writes = throttles - before[0]
        report.stalled_writes = stalls - before[1]
        report.stall_seconds = stall_s - before[2]
        report.rejected_writes = rejected - before[3]


@dataclass(frozen=True)
class _Prepared:
    traj: Trajectory
    tr_value: int
    key: TShapeKey


class StorageWriter:
    """Executes bulk loads, inserts, and re-encoding rewrites."""

    def __init__(self, tman: "TMan"):
        self._t = tman

    # -- shared helpers ---------------------------------------------------

    @staticmethod
    def _record_ingest(report: WriteReport) -> None:
        """Feed one batch's accounting into the metrics registry."""
        _INGEST_ROWS.inc(report.rows_written)
        if report.encode_seconds:
            _INGEST_ENCODE_MS.observe(report.encode_seconds * 1000.0)
        _INGEST_WRITE_MS.observe(report.write_seconds * 1000.0)
        if report.reencodes_triggered:
            _REENCODE_TOTAL.inc(report.reencodes_triggered)

    def _prepare(self, trajs: Iterable[Trajectory]) -> list[_Prepared]:
        tr: TRIndex = self._t.tr_index
        out = []
        for traj in trajs:
            out.append(
                _Prepared(
                    traj,
                    tr.index_time_range(traj.time_range),
                    self._t.tshape_index.index_trajectory(traj),
                )
            )
        return out

    def _primary_index_bytes(self, tr_value: int, tshape_value: int) -> bytes:
        primary = self._t.config.primary_index
        if primary == "tshape":
            return encode_u64(tshape_value)
        if primary == "tr":
            return encode_u64(tr_value)
        return encode_u64(tr_value) + encode_u64(tshape_value)  # st

    def _secondary_index_bytes(self, name: str, p: _Prepared, tshape_value: int) -> bytes:
        if name == "tr":
            return encode_u64(p.tr_value)
        if name == "tshape":
            return encode_u64(tshape_value)
        if name == "st":
            return encode_u64(p.tr_value) + encode_u64(tshape_value)
        if name == "interval":
            # End-period-keyed LIT-style value; unlike the TR value it is
            # not precomputed in _Prepared because only this table uses it.
            return encode_u64(
                self._t.interval_index.index_time_range(p.traj.time_range)
            )
        raise ValueError(f"unexpected secondary index {name!r}")

    def _write_row(self, p: _Prepared, final_code: int) -> None:
        tshape_value = self._t.tshape_index.pack(p.key.element_code, final_code)
        index_bytes = self._primary_index_bytes(p.tr_value, tshape_value)
        primary_key = self._t.keys.primary_key(index_bytes, p.traj.tid)
        row = self._t.serializer.encode(p.traj, p.tr_value)
        self._t.primary_table.put(primary_key, row)
        self._t.stats_builder.observe(p.traj.mbr, p.traj.time_range)

        for name in self._t.config.secondary_indexes:
            table = self._t.secondary_tables[name]
            if name == "idt":
                sec_key = self._t.keys.idt_key(p.traj.oid, p.tr_value, p.traj.tid)
            else:
                sec_key = self._t.keys.secondary_key(
                    self._secondary_index_bytes(name, p, tshape_value), p.traj.tid
                )
            table.put(sec_key, primary_key)

    # -- bulk load ----------------------------------------------------------

    def bulk_load(self, trajs: Sequence[Trajectory]) -> WriteReport:
        """Two-phase load: optimize shape codes per element, then write rows.

        Elements that already carry a mapping (incremental bulk loads) keep
        their existing final codes; genuinely new shapes are appended after
        the current maximum so previously written rows stay valid.
        """
        report = WriteReport()
        stall_delta = _StallDelta()
        with _obs_tracer().span("storage.bulk_load", batch=len(trajs)) as sp:
            t0 = time.perf_counter()
            prepared = self._prepare(trajs)

            by_element: dict[int, list[int]] = {}
            for p in prepared:
                by_element.setdefault(p.key.element_code, []).append(p.key.raw_shape)

            for element_code, shapes in by_element.items():
                existing = self._t.index_cache.get_mapping(element_code)
                if existing is None:
                    mapping = self._t.encoder.encode(shapes)
                    self._t.index_cache.put_mapping(element_code, mapping)
                    report.elements_encoded += 1
                else:
                    new_shapes = sorted(set(shapes) - set(existing))
                    if new_shapes:
                        next_code = max(existing.values()) + 1
                        for offset, shape in enumerate(new_shapes):
                            self._t.index_cache.add_shape(
                                element_code, shape, next_code + offset
                            )
            report.encode_seconds = time.perf_counter() - t0

            t1 = time.perf_counter()
            for p in prepared:
                final = self._t.index_cache.lookup_final_code(
                    p.key.element_code, p.key.raw_shape
                )
                assert final is not None, "bulk load must have encoded every shape"
                self._write_row(p, final)
                report.rows_written += 1
            report.write_seconds = time.perf_counter() - t1
            if sp is not None:
                sp.set(rows=report.rows_written, elements=report.elements_encoded)
        stall_delta.apply(report)
        self._record_ingest(report)
        return report

    # -- online insert (§IV-C) ---------------------------------------------------

    def insert(self, trajs: Sequence[Trajectory]) -> WriteReport:
        """Buffered insert: reuse known codes, stage unknown shapes raw."""
        report = WriteReport()
        stall_delta = _StallDelta()
        with _obs_tracer().span("storage.insert", batch=len(trajs)) as sp:
            t0 = time.perf_counter()
            prepared = self._prepare(trajs)
            for p in prepared:
                final = self._t.index_cache.lookup_final_code(
                    p.key.element_code, p.key.raw_shape
                )
                if final is None:
                    # Unknown shape: store under the raw bitmap and stage it.
                    # Registering the identity mapping keeps the row reachable by
                    # queries until the next re-encode.
                    self._t.index_cache.add_shape(
                        p.key.element_code, p.key.raw_shape, p.key.raw_shape
                    )
                    overflow = self._t.buffer_cache.add(
                        p.key.element_code, p.key.raw_shape
                    )
                    final = p.key.raw_shape
                    self._write_row(p, final)
                    report.rows_written += 1
                    if overflow:
                        report.reencodes_triggered += 1
                        report.rows_rewritten += self._reencode()
                else:
                    self._write_row(p, final)
                    report.rows_written += 1
            report.write_seconds = time.perf_counter() - t0
            if sp is not None:
                sp.set(rows=report.rows_written, reencodes=report.reencodes_triggered)
        stall_delta.apply(report)
        self._record_ingest(report)
        return report

    # -- deletes -----------------------------------------------------------------

    def delete(self, traj: Trajectory) -> bool:
        """Remove a trajectory's primary and secondary rows.

        The rowkeys are recomputed from the trajectory itself; returns False
        when the primary row was not present (already deleted or never
        stored).
        """
        prepared = self._prepare([traj])[0]
        final = self._t.index_cache.lookup_final_code(
            prepared.key.element_code, prepared.key.raw_shape
        )
        if final is None:
            final = prepared.key.raw_shape
        tshape_value = self._t.tshape_index.pack(prepared.key.element_code, final)
        index_bytes = self._primary_index_bytes(prepared.tr_value, tshape_value)
        primary_key = self._t.keys.primary_key(index_bytes, traj.tid)
        value = self._t.primary_table.get(primary_key)
        self._t.primary_table.delete(primary_key)
        if value is not None:
            # Forget exactly what _write_row observed: the header keeps it.
            header = self._t.serializer.decode_header(value)
            self._t.stats_builder.forget(header.mbr, header.time_range)
        for name in self._t.config.secondary_indexes:
            table = self._t.secondary_tables[name]
            if name == "idt":
                sec_key = self._t.keys.idt_key(traj.oid, prepared.tr_value, traj.tid)
            else:
                sec_key = self._t.keys.secondary_key(
                    self._secondary_index_bytes(name, prepared, tshape_value),
                    traj.tid,
                )
            table.delete(sec_key)
        return value is not None

    def delete_by_id(self, oid: str, tid: str, time_range) -> bool:
        """Remove a trajectory located through the IDT secondary table.

        Requires the ``idt`` secondary index; ``time_range`` narrows the
        lookup to the trajectory's TR bins.
        """
        if "idt" not in self._t.config.secondary_indexes:
            raise ValueError("delete_by_id requires the idt secondary index")
        idt_table = self._t.secondary_tables["idt"]
        for lo, hi in self._t.tr_index.query_ranges(time_range):
            start, stop = self._t.keys.idt_window(oid, lo, hi)
            for sec_key, pkey in list(idt_table.scan(Scan(start, stop))):
                parsed = self._t.keys.parse_primary(pkey)
                if parsed.tid != tid:
                    continue
                value = self._t.primary_table.get(pkey)
                if value is None:
                    continue
                stored = self._t.serializer.decode_trajectory(value)
                return self.delete(stored.trajectory)
        return False

    # -- re-encoding -----------------------------------------------------------

    def _reencode(self) -> int:
        """Re-optimize every element with buffered shapes and rewrite rows."""
        pending = self._t.buffer_cache.drain()
        rewritten = 0
        for element_code, new_shapes in pending.items():
            existing = self._t.index_cache.get_mapping(element_code) or {}
            shapes = sorted(set(existing) | new_shapes)
            mapping = self._t.encoder.encode(shapes)
            rows = self._collect_element_rows(element_code)
            self._t.index_cache.put_mapping(element_code, mapping)
            for old_key, value in rows:
                rewritten += self._rewrite_row(old_key, value, element_code, mapping)
        return rewritten

    def _collect_element_rows(self, element_code: int) -> list[tuple[bytes, bytes]]:
        """Find the primary rows stored under one enlarged element."""
        tshape = self._t.tshape_index
        if self._t.config.primary_index == "tshape":
            lo = encode_u64(tshape.pack(element_code, 0))
            hi = encode_u64(tshape.pack(element_code + 1, 0))
            rows: list[tuple[bytes, bytes]] = []
            for shard in self._t.keys.all_shards():
                start, stop = self._t.keys.primary_window(shard, lo, hi)
                rows.extend(self._t.primary_table.scan(Scan(start, stop)))
            return rows
        # Other primaries scatter the element's rows; fall back to a full
        # scan with recomputation (documented, used only by the update path).
        rows = []
        for key, value in self._t.primary_table.scan(Scan()):
            stored = self._t.serializer.decode_trajectory(value)
            k = self._t.tshape_index.index_trajectory(stored.trajectory)
            if k.element_code == element_code:
                rows.append((key, value))
        return rows

    def _rewrite_row(
        self, old_key: bytes, value: bytes, element_code: int, mapping: dict[int, int]
    ) -> int:
        stored = self._t.serializer.decode_trajectory(value)
        key = self._t.tshape_index.index_trajectory(stored.trajectory)
        final = mapping.get(key.raw_shape)
        if final is None:  # pragma: no cover - mapping covers all element shapes
            return 0
        tshape_value = self._t.tshape_index.pack(element_code, final)
        index_bytes = self._primary_index_bytes(stored.tr_value, tshape_value)
        new_key = self._t.keys.primary_key(index_bytes, stored.trajectory.tid)
        if new_key == old_key:
            return 0
        self._t.primary_table.delete(old_key)
        self._t.primary_table.put(new_key, value)
        # TR/IDT secondary keys are unchanged but their values (the primary
        # key) must be repointed; tshape/st secondary keys embed the shape
        # code, so the old secondary row is deleted and a fresh one written.
        old_index = self._t.keys.parse_primary(old_key).index_bytes
        old_tshape_value = int.from_bytes(old_index[-8:], "big")
        p = _Prepared(stored.trajectory, stored.tr_value, key)
        for name in self._t.config.secondary_indexes:
            table = self._t.secondary_tables[name]
            if name == "idt":
                sec_key = self._t.keys.idt_key(
                    stored.trajectory.oid, stored.tr_value, stored.trajectory.tid
                )
            else:
                if name in ("tshape", "st"):
                    old_sec_key = self._t.keys.secondary_key(
                        self._secondary_index_bytes(name, p, old_tshape_value),
                        stored.trajectory.tid,
                    )
                    table.delete(old_sec_key)
                sec_key = self._t.keys.secondary_key(
                    self._secondary_index_bytes(name, p, tshape_value),
                    stored.trajectory.tid,
                )
            table.put(sec_key, new_key)
        return 1
