"""Write paths: bulk load and the buffered update protocol (§IV-C).

Bulk load groups trajectories by enlarged element, optimizes each element's
shape codes once (greedy/genetic/bitmap per configuration), persists the
mappings to the index cache, and writes primary + secondary rows.

Online inserts follow the paper's update protocol: shapes already known to
the index cache reuse their final code; unknown shapes are stored under
their *raw* bitmap code and staged in the buffer shape cache; when the
buffer crosses its threshold every affected element is re-encoded and its
rows rewritten under the new codes.

Both paths work in chunks of at most :data:`INGEST_CHUNK_POINTS` points:
TShape keys and row values of a chunk come from the batch kernels
(:meth:`~repro.core.tshape.TShapeIndex.index_trajectories`,
:meth:`~repro.storage.serializer.RowSerializer.encode_many`), and each
table receives the chunk's rows as one ``Table.put_batch``.  A report's
``encode_seconds`` covers keys, rows and the mapping work; its
``write_seconds`` covers the puts and any re-encodes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.core.temporal import TRIndex
from repro.core.tshape import TShapeKey
from repro.kvstore.scan import Scan
from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory
from repro.obs import counter as _obs_counter, histogram as _obs_histogram
from repro.obs.profile import QueryProfile, profile_scope
from repro.storage.schema import encode_u64

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.kvstore.table import Table
    from repro.storage.tman import TMan

_INGEST_ROWS = _obs_counter(
    "ingest_rows_total", "Trajectory rows written by bulk loads and inserts"
)
_INGEST_ENCODE_MS = _obs_histogram(
    "ingest_encode_ms", "Key, row and shape-code encoding time per write batch"
)
_INGEST_WRITE_MS = _obs_histogram(
    "ingest_write_ms", "Row-put and re-encode time per write batch"
)
_REENCODE_TOTAL = _obs_counter(
    "ingest_reencode_total", "Buffer-overflow re-encodes triggered by inserts"
)

# Points per ingest chunk: the working set of one encode + put_batch round.
INGEST_CHUNK_POINTS = 8192

T = TypeVar("T")


def _point_chunks(items: Iterable[T], points: Callable[[T], int]) -> Iterator[list[T]]:
    """Consecutive runs of ``items`` of at most INGEST_CHUNK_POINTS points
    (an item larger than that is a run of its own)."""
    chunk: list[T] = []
    total = 0
    for item in items:
        n = points(item)
        if chunk and total + n > INGEST_CHUNK_POINTS:
            yield chunk
            chunk, total = [], 0
        chunk.append(item)
        total += n
    if chunk:
        yield chunk


def _free_codes(used: Iterable[int], count: int, limit: int) -> list[int]:
    """``count`` codes below ``limit`` not in ``used``: up from the maximum
    while they fit, then the lowest free ones (an insert may have staged a
    raw bitmap as its own code, up to the top of the shape-code space)."""
    used = set(used)
    start = max(used, default=-1) + 1
    codes = list(range(start, min(limit, start + count)))
    codes += [c for c in range(start) if c not in used][: count - len(codes)]
    if len(codes) < count:
        raise ValueError(f"no {count} free shape codes below {limit}")
    return codes


@dataclass
class WriteReport:
    """Accounting for one write batch.

    The backpressure fields record how the memtable watermarks shaped this
    batch: ``throttled_writes`` counts soft-watermark delays,
    ``stalled_writes`` hard-watermark waits (with total ``stall_seconds``),
    and ``rejected_writes`` stalls that timed out into
    :class:`~repro.kvstore.errors.WriteStalledError`.  They are read off the
    batch's own ledger, so concurrent writers do not see each other's.  All
    zero when the deployment configures no watermarks.
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

    def take_backpressure(self, ledger: QueryProfile) -> None:
        """Copy the watermark toll a batch's ledger recorded."""
        self.throttled_writes = ledger.throttled_writes
        self.stalled_writes = ledger.stalled_writes
        self.stall_seconds = ledger.write_stall_ms / 1000.0
        self.rejected_writes = ledger.rejected_writes


@dataclass(frozen=True)
class _Prepared:
    traj: Trajectory
    # The exact f64 range the row's temporal keys are built from: a stored
    # row's header holds it; its decoded points sit on the millisecond grid.
    time_range: TimeRange
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

    def _prepare(self, trajs: Sequence[Trajectory]) -> list[_Prepared]:
        tr: TRIndex = self._t.tr_index
        keys = self._t.tshape_index.index_trajectories(trajs)
        return [
            _Prepared(traj, traj.time_range, tr.index_time_range(traj.time_range), key)
            for traj, key in zip(trajs, keys)
        ]

    def _prepare_batch(self, trajs: Sequence[Trajectory]) -> list[_Prepared]:
        """Every trajectory of a write batch, prepared chunk by chunk before
        the batch writes anything: one that no row can hold (too many points
        or representatives, a time bin past N periods) fails the batch whole."""
        for traj in trajs:
            self._t.serializer.check_fits(traj)
        return [p for chunk in _point_chunks(trajs, len) for p in self._prepare(chunk)]

    def _prepared(self, traj: Trajectory, time_range: TimeRange, key: TShapeKey) -> _Prepared:
        """A stored row's entry, keyed by its header's ``time_range``."""
        return _Prepared(traj, time_range, self._t.tr_index.index_time_range(time_range), key)

    def _encode_rows(self, prepared: Sequence[_Prepared]) -> list[bytes]:
        return self._t.serializer.encode_many([p.traj for p in prepared])

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
            return encode_u64(self._t.interval_index.index_time_range(p.time_range))
        raise ValueError(f"unexpected secondary index {name!r}")

    def _keys(self, p: _Prepared, tshape_value: int) -> tuple[bytes, list[tuple[str, bytes]]]:
        """A row's primary rowkey and its rowkey in every secondary table."""
        primary_key = self._t.keys.primary_key(
            self._primary_index_bytes(p.tr_value, tshape_value), p.traj.tid
        )
        secondary = []
        for name in self._t.config.secondary_indexes:
            if name == "idt":
                key = self._t.keys.idt_key(p.traj.oid, p.tr_value, p.traj.tid)
            else:
                key = self._t.keys.secondary_key(
                    self._secondary_index_bytes(name, p, tshape_value), p.traj.tid
                )
            secondary.append((name, key))
        return primary_key, secondary

    def _send(self, staged: list[tuple[_Prepared, int, bytes]]) -> float:
        """Key the staged ``(row, final code, value)`` entries, send them with
        one ``put_batch`` per table and empty ``staged``; returns the seconds
        the puts took."""
        primary: list[tuple[bytes, bytes]] = []
        secondary: dict[str, list[tuple[bytes, bytes]]] = {}
        for p, final_code, value in staged:
            primary_key, keys = self._keys(
                p, self._t.tshape_index.pack(p.key.element_code, final_code)
            )
            primary.append((primary_key, value))
            mapping = self._t.keys.mapping_value(primary_key)
            for name, key in keys:
                secondary.setdefault(name, []).append((key, mapping))
        t0 = time.perf_counter()
        if primary:
            self._t.primary_table.put_batch(primary)
        for p, _, _ in staged:
            self._t.stats_builder.observe(p.traj.mbr, p.traj.time_range)
        for name, rows in secondary.items():
            self._t.secondary_tables[name].put_batch(rows)
        staged.clear()
        return time.perf_counter() - t0

    # -- bulk load ----------------------------------------------------------

    def bulk_load(self, trajs: Sequence[Trajectory]) -> WriteReport:
        """Two-phase load: optimize shape codes per element, then write rows.

        Elements that already carry a mapping (incremental bulk loads) keep
        their existing final codes; genuinely new shapes take free codes
        (see :func:`_free_codes`) so previously written rows stay valid.
        Every code is chosen before the first index-cache write.
        """
        report = WriteReport()
        ledger = QueryProfile("bulk_load")
        with profile_scope(ledger):
            t0 = time.perf_counter()
            prepared = self._prepare_batch(trajs)

            by_element: dict[int, list[int]] = {}
            for p in prepared:
                by_element.setdefault(p.key.element_code, []).append(p.key.raw_shape)
            limit = 1 << self._t.tshape_index.shape_bits
            mappings: list[tuple[int, dict[int, int]]] = []
            additions: list[tuple[int, int, int]] = []
            for element_code, shapes in by_element.items():
                existing = self._t.index_cache.get_mapping(element_code)
                if existing is None:
                    mappings.append((element_code, self._t.encoder.encode(shapes)))
                    continue
                new_shapes = sorted(set(shapes) - set(existing))
                codes = _free_codes(existing.values(), len(new_shapes), limit)
                additions += [(element_code, s, c) for s, c in zip(new_shapes, codes)]
            for element_code, mapping in mappings:
                self._t.index_cache.put_mapping(element_code, mapping)
            for element_code, shape, code in additions:
                self._t.index_cache.add_shape(element_code, shape, code)
            report.elements_encoded = len(mappings)

            lookup = self._t.index_cache.lookup_final_code
            for chunk in _point_chunks(prepared, lambda p: len(p.traj)):
                staged = [
                    (p, lookup(p.key.element_code, p.key.raw_shape), row)
                    for p, row in zip(chunk, self._encode_rows(chunk))
                ]
                report.rows_written += len(staged)
                report.write_seconds += self._send(staged)
            report.encode_seconds = time.perf_counter() - t0 - report.write_seconds
        report.take_backpressure(ledger)
        self._record_ingest(report)
        return report

    # -- online insert (§IV-C) ---------------------------------------------------

    def insert(self, trajs: Sequence[Trajectory]) -> WriteReport:
        """Buffered insert: reuse known codes, stage unknown shapes raw."""
        report = WriteReport()
        ledger = QueryProfile("insert")
        with profile_scope(ledger):
            t0 = time.perf_counter()
            staged: list[tuple[_Prepared, int, bytes]] = []
            for chunk in _point_chunks(self._prepare_batch(trajs), lambda p: len(p.traj)):
                for p, row in zip(chunk, self._encode_rows(chunk)):
                    final = self._t.index_cache.lookup_final_code(
                        p.key.element_code, p.key.raw_shape
                    )
                    overflow = False
                    if final is None:
                        # Unknown shape: store under the raw bitmap and stage
                        # it.  Registering the identity mapping keeps the row
                        # reachable by queries until the next re-encode.
                        self._t.index_cache.add_shape(
                            p.key.element_code, p.key.raw_shape, p.key.raw_shape
                        )
                        overflow = self._t.buffer_cache.add(
                            p.key.element_code, p.key.raw_shape
                        )
                        final = p.key.raw_shape
                    staged.append((p, final, row))
                    report.rows_written += 1
                    if overflow:
                        # The re-encode rescans the element's stored rows:
                        # everything staged so far must be stored first.
                        report.write_seconds += self._send(staged)
                        t1 = time.perf_counter()
                        report.reencodes_triggered += 1
                        report.rows_rewritten += self._reencode()
                        report.write_seconds += time.perf_counter() - t1
                report.write_seconds += self._send(staged)
            report.encode_seconds = time.perf_counter() - t0 - report.write_seconds
        report.take_backpressure(ledger)
        self._record_ingest(report)
        return report

    # -- deletes -----------------------------------------------------------------

    def delete(self, traj: Trajectory) -> bool:
        """Remove a trajectory's primary and secondary rows.

        The rowkeys are recomputed from the trajectory itself; returns False
        when the primary row was not present (already deleted or never
        stored).
        """
        return self._delete(self._prepare([traj])[0])

    def _delete(self, p: _Prepared) -> bool:
        final = self._t.index_cache.lookup_final_code(p.key.element_code, p.key.raw_shape)
        if final is None:
            final = p.key.raw_shape
        primary_key, secondary = self._keys(
            p, self._t.tshape_index.pack(p.key.element_code, final)
        )
        value = self._t.primary_table.get(primary_key)
        self._t.primary_table.delete(primary_key)
        if value is not None:
            # Forget exactly what _send observed: the header keeps it.
            header = self._t.serializer.decode_header(value)
            self._t.stats_builder.forget(header.mbr, header.time_range)
        for name, key in secondary:
            self._t.secondary_tables[name].delete(key)
        return value is not None

    def delete_by_id(self, oid: str, tid: str, time_range) -> bool:
        """Remove a trajectory located through the IDT secondary table.

        Requires the ``idt`` secondary index; ``time_range`` narrows the
        lookup to the trajectory's TR bins.
        """
        if "idt" not in self._t.config.secondary_indexes:
            raise ValueError("delete_by_id requires the idt secondary index")
        keys = self._t.keys
        idt_table = self._t.secondary_tables["idt"]
        wanted = tid.encode("utf-8")
        for lo, hi in self._t.tr_index.query_ranges(time_range):
            start, stop = keys.idt_window(oid, lo, hi)
            for sec_key, mapping in list(idt_table.scan(Scan(start, stop))):
                # The key ends in the tid: other trajectories of the object
                # cost no primary get.
                if sec_key[keys.tid_at("idt", sec_key) :] != wanted:
                    continue
                pkey = keys.primary_from_mapping("idt", sec_key, mapping)
                value = self._t.primary_table.get(pkey)
                if value is None:
                    continue
                _, _, traj, exact = self._decode_row((pkey, value))
                key = self._t.tshape_index.index_trajectories([traj])[0]
                return self._delete(self._prepared(traj, exact, key))
        return False

    # -- re-encoding -----------------------------------------------------------

    def _reencode(self) -> int:
        """Re-optimize every element with buffered shapes and rewrite rows.

        Rows move new-before-old: each moved row is put under its new keys
        while the old mapping still finds the old ones, then the new mapping
        is stored, then the old keys are deleted.  A crash anywhere leaves
        every row findable, at worst twice, which every read path
        de-duplicates by tid.
        """
        pending = self._t.buffer_cache.drain()
        rewritten = 0
        for element_code, new_shapes in pending.items():
            existing = self._t.index_cache.get_mapping(element_code) or {}
            shapes = sorted(set(existing) | new_shapes)
            mapping = self._t.encoder.encode(shapes)
            rows = self._collect_element_rows(element_code)
            stale = [
                self._rewrite_row(*row, element_code, mapping, existing) for row in rows
            ]
            self._t.index_cache.put_mapping(element_code, mapping)
            for old_keys in stale:
                for table, old_key in old_keys:
                    table.delete(old_key)
                rewritten += bool(old_keys)
        return rewritten

    def _collect_element_rows(self, element_code: int) -> list[tuple]:
        """``(key, value, trajectory, time range, TShape key)`` of every primary row
        stored under one enlarged element, indexed chunk by chunk."""
        scattered = self._t.config.primary_index != "tshape"
        if not scattered:
            lo = encode_u64(self._t.tshape_index.pack(element_code, 0))
            hi = encode_u64(self._t.tshape_index.pack(element_code + 1, 0))
            rows = itertools.chain.from_iterable(
                self._t.primary_table.scan(Scan(*self._t.keys.primary_window(shard, lo, hi)))
                for shard in self._t.keys.all_shards()
            )
        else:
            # Other primaries scatter the element's rows; fall back to a full
            # scan with recomputation (documented, used only by the update path).
            rows = self._t.primary_table.scan(Scan())
        out = []
        for chunk in _point_chunks(map(self._decode_row, rows), lambda row: len(row[2])):
            keys = self._t.tshape_index.index_trajectories([row[2] for row in chunk])
            out += [
                (*row, k) for row, k in zip(chunk, keys)
                if not scattered or k.element_code == element_code
            ]
        return out

    def _decode_row(
        self, row: tuple[bytes, bytes]
    ) -> tuple[bytes, bytes, Trajectory, TimeRange]:
        """``(key, value, trajectory, time range)`` of one primary row.  The
        time range is the header's f64 one, which the row's keys were built
        from: the decoded points' times sit on the millisecond grid and may
        fall in the next TR period."""
        key, value = row
        header = self._t.serializer.decode_header(value)
        traj = self._t.serializer.decode_trajectory(value, header).trajectory
        return key, value, traj, header.time_range

    def _rewrite_row(
        self, old_key: bytes, value: bytes, traj: Trajectory, time_range: TimeRange,
        key: TShapeKey, element_code: int,
        mapping: dict[int, int], old_mapping: dict[int, int],
    ) -> list[tuple[Table, bytes]]:
        """Put one row under its keys for ``mapping`` (it is stored under
        ``old_mapping``'s); returns ``(table, key)`` of the old keys to
        delete, secondary ones first (none when the row's keys are
        unchanged)."""
        final = mapping.get(key.raw_shape)
        if final is None:  # pragma: no cover - mapping covers all element shapes
            return []
        p = self._prepared(traj, time_range, key)
        pack = self._t.tshape_index.pack
        new_key, secondary = self._keys(p, pack(element_code, final))
        if self._t.config.primary_index == "tr":
            # No shape code in the primary key: only tshape/st secondary
            # keys move, from the code the old mapping gave the shape.
            old_value = pack(element_code, old_mapping.get(key.raw_shape, key.raw_shape))
        else:
            old_index = self._t.keys.parse_primary(old_key).index_bytes
            old_value = int.from_bytes(old_index[-8:], "big")
        _, old_secondary = self._keys(p, old_value)
        moved = new_key != old_key
        if moved:
            self._t.primary_table.put(new_key, value)
        # TR/IDT secondary keys are unchanged but, when the primary row
        # moved, their values (its shard and index value) must be
        # repointed; tshape/st secondary keys embed the shape code, so a
        # fresh secondary row is written and the old one deleted.
        mapping_value = self._t.keys.mapping_value(new_key)
        stale = []
        for (name, sec_key), (_, old_sec_key) in zip(secondary, old_secondary):
            table = self._t.secondary_tables[name]
            if moved or old_sec_key != sec_key:
                table.put(sec_key, mapping_value)
            if old_sec_key != sec_key:
                stale.append((table, old_sec_key))
        if moved:
            stale.append((self._t.primary_table, old_key))
        return stale
