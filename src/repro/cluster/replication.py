"""N-way replicated storage engine over region-server processes.

A :class:`ReplicatedStore` is the process-mode drop-in for the engines a
:class:`~repro.kvstore.region.Region` runs on (it satisfies the
``KVStoreEngine`` protocol): region/table logic, push-down filters,
IOStats accounting, and profile attribution all stay in the coordinator,
which is what makes process-mode query results bit-identical to thread
mode — the only thing that moved across the RPC boundary is raw
key/value storage.

Consistency model (simpler than Dynamo's because the coordinator is the
*sole writer*, so no version vectors are needed):

- **Writes** go to every replica in the store's ring preference list and
  need ``write_quorum`` acks; a batch is one ``PUT_BATCH`` per replica
  and one quorum verdict.  Replicas that are down — or that still owe
  hinted writes, which must stay ordered — get the write appended to
  their per-node hint queue instead; hints are queued only when the write
  overall succeeded, so a failed write leaves no deferred state.
- **Reads** are served only by *fresh* replicas (up, no pending hints),
  which by construction hold every acknowledged write.  At least
  ``read_quorum`` fresh replicas must be live or the read is denied with
  :class:`~repro.kvstore.errors.NoQuorumError`.  With ``read_quorum >= 2``
  every scan page is digest-checked against the other fresh replicas
  (Cassandra-style: they ship a CRC, not the rows).
- **Failover**: scan pages are stateless (the region's window list,
  trimmed to after the last delivered key, travels with each request),
  so when the serving replica dies mid-scan the next page is fetched
  from another fresh replica and the row stream is byte-identical.
"""

from __future__ import annotations

from typing import Iterator, Optional, Protocol, Sequence

from repro.cluster import rpc
from repro.cluster.metrics import (
    DIGEST_MISMATCH_TOTAL,
    FAILOVER_TOTAL,
    QUORUM_DENIED_TOTAL,
)
from repro.cluster.worker import _page_digest
from repro.kvstore.errors import NoQuorumError, ReplicaDownError
from repro.kvstore.memtable import TOMBSTONE
from repro.kvstore.scan import Window, windows_after
from repro.runtime.deadline import Deadline

DEFAULT_PAGE_ROWS = 512


class ReplicaRouter(Protocol):
    """What the store needs from the cluster: placement, health, hints."""

    read_quorum: int
    write_quorum: int
    page_rows: int

    def replicas(self, store_id: str) -> list[str]: ...
    def client(self, node: str): ...
    def node_is_down(self, node: str) -> bool: ...
    def node_has_hints(self, node: str) -> bool: ...
    def mark_down(self, node: str) -> None: ...
    def queue_hint(
        self, node: str, store_id: str, key: bytes, value: bytes
    ) -> None: ...
    def forget_store(self, store_id: str) -> None: ...


class ReplicatedStore:
    """One region's replicated key/value engine (coordinator side)."""

    def __init__(self, store_id: str, router: ReplicaRouter):
        self.store_id = store_id
        self._router = router

    @property
    def memtable_bytes(self) -> int:
        """Unflushed bytes are buffered worker-side; report none here."""
        return 0

    # -- replica selection ---------------------------------------------------

    def _fresh_replicas(self) -> list[str]:
        """Live replicas holding every acknowledged write, ring order."""
        return [
            node
            for node in self._router.replicas(self.store_id)
            if not self._router.node_is_down(node)
            and not self._router.node_has_hints(node)
        ]

    def _require_read_quorum(self, op: str) -> list[str]:
        fresh = self._fresh_replicas()
        if len(fresh) < self._router.read_quorum:
            QUORUM_DENIED_TOTAL.labels(op=op).inc()
            raise NoQuorumError(
                f"{op} on {self.store_id}: {len(fresh)} fresh replicas "
                f"< read_quorum {self._router.read_quorum}"
            )
        return fresh

    # -- writes --------------------------------------------------------------

    def _replicated_write(
        self, op: int, args: tuple, hints: Sequence[tuple[bytes, bytes]]
    ) -> None:
        """One write RPC per replica, one quorum verdict; every replica that
        missed it is hinted each of the call's ``(key, value)`` rows.  The
        request is encoded once and the same bytes go to every replica."""
        payload = rpc.encode(args)
        acks = 0
        missed: list[str] = []
        for node in self._router.replicas(self.store_id):
            # A node that is down — or that still owes this store hinted
            # writes — takes this write through its hint queue too, so
            # per-node delivery order matches coordinator write order.
            if self._router.node_is_down(node) or self._router.node_has_hints(node):
                missed.append(node)
                continue
            try:
                self._router.client(node).call(op, payload)
                acks += 1
            except ReplicaDownError:
                self._router.mark_down(node)
                missed.append(node)
        if acks < self._router.write_quorum:
            QUORUM_DENIED_TOTAL.labels(op="write").inc()
            raise NoQuorumError(
                f"write to {self.store_id}: {acks} acks "
                f"< write_quorum {self._router.write_quorum}"
            )
        # The write is acknowledged; everything a replica missed becomes
        # a hint delivered when it returns.
        for node in missed:
            for key, value in hints:
                self._router.queue_hint(node, self.store_id, key, value)

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key`` with ``value`` on a write quorum."""
        self._replicated_write(rpc.OP_PUT, (self.store_id, key, value), [(key, value)])

    def put_batch(self, rows: Sequence[tuple[bytes, bytes]]) -> None:
        """Insert many rows: one ``PUT_BATCH`` per replica, one quorum verdict."""
        rows = list(rows)
        self._replicated_write(rpc.OP_PUT_BATCH, (self.store_id, rows), rows)

    def delete(self, key: bytes) -> None:
        """Remove ``key`` on a write quorum (hinted as a tombstone)."""
        self._replicated_write(rpc.OP_DELETE, (self.store_id, key), [(key, TOMBSTONE)])

    # -- reads ---------------------------------------------------------------

    def get_batch(self, keys: list[bytes]) -> list[Optional[bytes]]:
        """Batched point lookups — one RPC for the whole batch."""
        fresh = self._require_read_quorum("get")
        return self._call_with_failover(
            fresh, "get", rpc.OP_GET_BATCH, (self.store_id, list(keys))
        )

    def _call_with_failover(self, fresh: list[str], op_name: str, op: int, args: tuple):
        last_exc: Optional[Exception] = None
        for i, node in enumerate(fresh):
            if i > 0:
                FAILOVER_TOTAL.labels(op=op_name).inc()
            try:
                return self._router.client(node).call(op, args)
            except ReplicaDownError as exc:
                self._router.mark_down(node)
                last_exc = exc
        QUORUM_DENIED_TOTAL.labels(op=op_name).inc()
        raise NoQuorumError(
            f"{op_name} on {self.store_id}: every fresh replica failed"
        ) from last_exc

    def scan(
        self,
        start: Optional[bytes] = None,
        stop: Optional[bytes] = None,
        deadline: Optional[Deadline] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Ordered range scan: a one-window :meth:`scan_windows`."""
        return self.scan_windows([(start, stop)], deadline)

    def scan_windows(
        self, windows: Sequence[Window], deadline: Optional[Deadline] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Ordered rows of sorted, disjoint ``windows``, streamed in stateless pages.

        One ``SCAN_PAGE`` carries the whole window list.  Pages come from
        the first fresh replica; a replica dying mid-scan fails the
        *page*, not the scan — the window list, trimmed to after the last
        delivered key, makes the next page (from the next fresh replica)
        continue the exact row stream.  Deadline expiry worker-side
        truncates the page and surfaces here as :class:`QueryTimeoutError`
        via ``deadline.check``.
        """
        self._require_read_quorum("scan")
        page_rows = self._router.page_rows
        windows = list(windows)
        while windows:
            fresh = self._require_read_quorum("scan")
            rows = done = expired = None
            for i, node in enumerate(fresh):
                if i > 0:
                    FAILOVER_TOTAL.labels(op="scan").inc()
                try:
                    rows, done, expired = self._router.client(node).call(
                        rpc.OP_SCAN_PAGE,
                        (self.store_id, windows, page_rows),
                        deadline=deadline,
                    )
                except ReplicaDownError:
                    self._router.mark_down(node)
                    continue
                if self._router.read_quorum >= 2 and rows:
                    self._verify_page(fresh, node, windows, rows)
                break
            if rows is None:
                QUORUM_DENIED_TOTAL.labels(op="scan").inc()
                raise NoQuorumError(
                    f"scan on {self.store_id}: every fresh replica failed"
                )
            yield from rows
            if expired and deadline is not None:
                # The worker truncated the page at the deadline; raise
                # through the normal cooperative path (the sink guard
                # turns this into partial=True when allowed).
                deadline.cancel()
                deadline.check("rpc.scan")
            if done:
                return
            if rows:
                windows = windows_after(windows, rows[-1][0])

    def _verify_page(
        self,
        fresh: list[str],
        served_by: str,
        windows: list[Window],
        rows: list[tuple[bytes, bytes]],
    ) -> None:
        """Digest-check one page against the other fresh replicas."""
        expect = _page_digest(rows)
        checked = 1  # the replica that shipped the rows
        for node in fresh:
            if checked >= self._router.read_quorum:
                return
            if node == served_by:
                continue
            try:
                digest, count, _done, expired = self._router.client(node).call(
                    rpc.OP_DIGEST, (self.store_id, windows, len(rows))
                )
            except ReplicaDownError:
                self._router.mark_down(node)
                continue
            if not expired and (digest != expect or count != len(rows)):
                DIGEST_MISMATCH_TOTAL.inc()
            checked += 1

    # -- maintenance ---------------------------------------------------------

    def flush(self) -> None:
        """Flush the memtable of every live replica."""
        for node in self._router.replicas(self.store_id):
            if self._router.node_is_down(node):
                continue
            try:
                self._router.client(node).call(rpc.OP_FLUSH, (self.store_id,))
            except ReplicaDownError:
                self._router.mark_down(node)

    def destroy(self) -> None:
        """Delete this store's data on every live replica (region retired)."""
        for node in self._router.replicas(self.store_id):
            if self._router.node_is_down(node):
                continue
            try:
                self._router.client(node).call(rpc.OP_DROP, (self.store_id,))
            except ReplicaDownError:
                self._router.mark_down(node)
        self._router.forget_store(self.store_id)

    def close(self) -> None:
        """Nothing to release coordinator-side (workers own the handles)."""
