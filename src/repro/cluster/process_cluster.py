"""The process-mode cluster: worker fleet, ring, hints, and rebalancing.

:class:`ProcessCluster` extends the embedded
:class:`~repro.kvstore.cluster.Cluster` facade: the table catalog, scan
pool, retry policy, and IOStats stay exactly as in thread mode, but its
store builder makes every region's storage engine a
:class:`~repro.cluster.replication.ReplicatedStore` whose replicas live
in spawned region-server processes (the coordinator, holding no region
data, builds no block cache, write limits or flush pool).  This class is
the store's ``ReplicaRouter``: it owns the consistent-hash ring, the
per-node hint queues, the down set, and the worker process handles.

Lifecycle operations exposed for tests, fault drills, and operations:

- :meth:`kill_node` — SIGKILL a worker (nothing drained; its WAL/SSTables
  survive on disk for the restart).
- :meth:`restart_node` — respawn (or just reconnect), deliver the node's
  hinted writes in order, then mark it fresh for reads again.
- :meth:`add_node` — grow the fleet: the ring assigns the new node ~1/N
  of the region replicas, which are copied over and dropped from the
  nodes that lost them.
- :meth:`arm_crash` — arm a deterministic ``rpc.*`` crash point inside a
  worker (the process-mode face of :mod:`repro.kvstore.simfault`).
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from pathlib import Path
from typing import Optional

from repro.cluster import rpc
from repro.cluster.client import NodeClient, WorkerHandle
from repro.cluster.metrics import (
    HANDOFF_DELIVERED_TOTAL,
    HANDOFF_DEPTH,
    HINTS_QUEUED_TOTAL,
    REBALANCE_MOVES_TOTAL,
    REPLICA_STATE,
)
from repro.cluster.replication import DEFAULT_PAGE_ROWS, ReplicatedStore
from repro.cluster.ring import ConsistentHashRing
from repro.kvstore.cluster import Cluster
from repro.kvstore.errors import ReplicaDownError
from repro.kvstore.retry import RetryPolicy
from repro.kvstore.scan import Window, windows_after
from repro.kvstore.table import DEFAULT_SPLIT_ROWS, StoreBuilder

STATE_UP = 2
STATE_STALE = 1
STATE_DOWN = 0


class ProcessCluster(Cluster):
    """A cluster whose regions live in shared-nothing worker processes."""

    def __init__(
        self,
        nodes: int = 3,
        replication_factor: int = 2,
        read_quorum: int = 1,
        write_quorum: int = 1,
        page_rows: int = DEFAULT_PAGE_ROWS,
        cluster_data_dir: Optional[str] = None,
        workers: int = 4,
        split_rows: int = DEFAULT_SPLIT_ROWS,
        retry: Optional[RetryPolicy] = None,
    ):
        if nodes < 1:
            raise ValueError(f"nodes must be positive, got {nodes}")
        if not 1 <= replication_factor <= nodes:
            raise ValueError(
                f"need 1 <= replication_factor <= nodes, got "
                f"{replication_factor}/{nodes}"
            )
        for name, q in (("read_quorum", read_quorum), ("write_quorum", write_quorum)):
            if not 1 <= q <= replication_factor:
                raise ValueError(
                    f"need 1 <= {name} <= replication_factor, got "
                    f"{q}/{replication_factor}"
                )
        super().__init__(workers=workers, split_rows=split_rows, retry=retry)
        self.replication_factor = replication_factor
        self.read_quorum = read_quorum
        self.write_quorum = write_quorum
        self.page_rows = page_rows
        self._owns_dir = cluster_data_dir is None
        self.cluster_dir = Path(
            cluster_data_dir
            if cluster_data_dir is not None
            else tempfile.mkdtemp(prefix="tman-cluster-")
        )
        self.cluster_dir.mkdir(parents=True, exist_ok=True)

        self._mu = threading.Lock()
        self._handles: dict[str, WorkerHandle] = {}
        self._hints: dict[str, list[tuple[str, bytes, bytes]]] = {}
        self._down: set[str] = set()
        self._stores: dict[str, ReplicatedStore] = {}
        self._next_node = 0
        self._closed = False

        self.ring = ConsistentHashRing()
        # Launch the whole fleet before waiting on any node, so the workers'
        # start-ups overlap; a failed start closes everything acquired.
        fleet = [self._new_handle() for _ in range(nodes)]
        try:
            for handle in fleet:
                self._handles[handle.node_id] = handle
                handle.launch()
            for handle in fleet:
                handle.wait_ready()
        except BaseException:
            self.close()
            raise
        for handle in fleet:
            self._admit(handle)

    def _store_builder(self, data_dir, block_cache_bytes, write_limits) -> StoreBuilder:
        """Every region is a :class:`ReplicatedStore` on the workers (the
        base's engine arguments are never set here)."""
        return _ReplicatedStores(self)

    # -- worker fleet --------------------------------------------------------

    def _new_handle(self) -> WorkerHandle:
        node_id = f"node-{self._next_node}"
        self._next_node += 1
        return WorkerHandle(node_id, self.cluster_dir)

    def _admit(self, handle: WorkerHandle) -> str:
        """Put a ready worker in the fleet and on the ring."""
        self._handles[handle.node_id] = handle
        self.ring.add_node(handle.node_id)
        REPLICA_STATE.labels(node=handle.node_id).set(STATE_UP)
        return handle.node_id

    @property
    def nodes(self) -> tuple[str, ...]:
        """Member node ids, sorted."""
        return tuple(sorted(self._handles))

    # -- ReplicaRouter interface ---------------------------------------------

    def replicas(self, store_id: str) -> list[str]:
        """The store's current preference list (ring order)."""
        return self.ring.preference(store_id, self.replication_factor)

    def client(self, node: str) -> NodeClient:
        return self._handles[node].client

    def node_is_down(self, node: str) -> bool:
        return node in self._down

    def node_has_hints(self, node: str) -> bool:
        hints = self._hints.get(node)
        return bool(hints)

    def mark_down(self, node: str) -> None:
        """Record a transport failure against ``node``; reads skip it."""
        with self._mu:
            if node in self._down:
                return
            self._down.add(node)
        REPLICA_STATE.labels(node=node).set(STATE_DOWN)

    def queue_hint(self, node: str, store_id: str, key: bytes, value: bytes) -> None:
        """Defer one write for a node that missed it (ordered per node)."""
        with self._mu:
            queue = self._hints.setdefault(node, [])
            queue.append((store_id, key, value))
            depth = len(queue)
        HINTS_QUEUED_TOTAL.inc()
        HANDOFF_DEPTH.labels(node=node).set(depth)
        if node not in self._down:
            REPLICA_STATE.labels(node=node).set(STATE_STALE)

    def forget_store(self, store_id: str) -> None:
        """Drop a retired store from placement tracking and hint queues."""
        with self._mu:
            self._stores.pop(store_id, None)
            for node, queue in self._hints.items():
                self._hints[node] = [h for h in queue if h[0] != store_id]

    # -- fault drills and recovery -------------------------------------------

    def kill_node(self, node: str) -> None:
        """SIGKILL a worker process mid-flight (its on-disk state survives)."""
        self._handles[node].kill()
        self.mark_down(node)

    def arm_crash(self, node: str, point: str) -> None:
        """Arm a one-shot ``rpc.*`` crash point inside a worker."""
        self._handles[node].client.call(rpc.OP_ARM_CRASH, (point,))

    def restart_node(self, node: str) -> None:
        """Bring a node back: respawn if dead, deliver hints, mark fresh.

        The worker reopens its stores from its own directory (WAL replay
        included), then receives every hinted write in coordinator order
        via ``PUT_BATCH``.  Only after the queue drains is the node fresh
        again — readable and directly writable.
        """
        handle = self._handles[node]
        if not handle.alive:
            handle.stop()  # reap the dead process, close stale sockets
            handle.start()
        self._drain_hints(node)
        with self._mu:
            still_hinted = bool(self._hints.get(node))
            if not still_hinted:
                self._down.discard(node)
        if not still_hinted:
            REPLICA_STATE.labels(node=node).set(STATE_UP)

    revive_node = restart_node

    def _drain_hints(self, node: str) -> None:
        client = self._handles[node].client
        while True:
            with self._mu:
                queue = self._hints.get(node, [])
                if not queue:
                    HANDOFF_DEPTH.labels(node=node).set(0)
                    return
                self._hints[node] = []
            # Per-store batches, preserving the queue's write order.
            grouped: dict[str, list[tuple[bytes, bytes]]] = {}
            for store_id, key, value in queue:
                grouped.setdefault(store_id, []).append((key, value))
            try:
                for store_id, rows in grouped.items():
                    client.call(rpc.OP_PUT_BATCH, (store_id, rows))
            except ReplicaDownError:
                # Node died again mid-drain: requeue and stay down.
                with self._mu:
                    self._hints[node] = queue + self._hints.get(node, [])
                self.mark_down(node)
                return
            HANDOFF_DELIVERED_TOTAL.inc(len(queue))

    # -- scale-out -----------------------------------------------------------

    def add_node(self) -> tuple[str, int]:
        """Grow the fleet by one node and rebalance (~1/N of replicas move).

        Returns ``(node_id, replicas_moved)``.  Placement is recomputed
        from the ring; every store whose preference list gained the new
        node has its content copied from a surviving replica, and nodes
        that fell off a preference list drop their copy.
        """
        with self._mu:
            store_ids = list(self._stores)
        old_pref = {sid: set(self.replicas(sid)) for sid in store_ids}
        handle = self._new_handle()
        handle.start()
        node_id = self._admit(handle)
        moves = 0
        for sid in store_ids:
            new_pref = set(self.replicas(sid))
            gained = new_pref - old_pref[sid]
            lost = old_pref[sid] - new_pref
            for target in gained:
                source = next(
                    (
                        n
                        for n in old_pref[sid]
                        if n not in self._down and not self.node_has_hints(n)
                    ),
                    None,
                )
                if source is None:
                    continue
                self._copy_store(sid, source, target)
                moves += 1
                REBALANCE_MOVES_TOTAL.inc()
            for source in lost:
                if source in self._down:
                    continue
                try:
                    self.client(source).call(rpc.OP_DROP, (sid,))
                except ReplicaDownError:
                    self.mark_down(source)
        return node_id, moves

    def _copy_store(self, store_id: str, source: str, target: str) -> None:
        """Stream a store's live rows from one node to another."""
        src = self.client(source)
        dst = self.client(target)
        windows: list[Window] = [(None, None)]
        while windows:
            rows, done, _expired = src.call(
                rpc.OP_SCAN_PAGE, (store_id, windows, self.page_rows)
            )
            if rows:
                dst.call(rpc.OP_PUT_BATCH, (store_id, rows))
                windows = windows_after(windows, rows[-1][0])
            if done:
                return

    # -- observability -------------------------------------------------------

    def cluster_health(self) -> dict:
        """Per-node replica state for ``TMan.health()`` / ``repro health``."""
        with self._mu:
            hints = {node: len(queue) for node, queue in self._hints.items()}
            down = set(self._down)
        nodes = {}
        for node, handle in sorted(self._handles.items()):
            if node in down:
                state = "down"
            elif hints.get(node):
                state = "stale"
            else:
                state = "up"
            nodes[node] = {
                "state": state,
                "pid": handle.pid,
                "alive": handle.alive,
                "pending_hints": hints.get(node, 0),
            }
        return {
            "mode": "processes",
            "nodes": nodes,
            "replication_factor": self.replication_factor,
            "read_quorum": self.read_quorum,
            "write_quorum": self.write_quorum,
            "stores": len(self._stores),
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close tables, stop every worker, remove owned scratch space."""
        if self._closed:
            return
        self._closed = True
        super().close()
        for handle in self._handles.values():
            try:
                handle.stop()
            except Exception:  # noqa: BLE001 - best-effort shutdown
                pass
        if self._owns_dir:
            shutil.rmtree(self.cluster_dir, ignore_errors=True)


class _ReplicatedStores(StoreBuilder):
    """Backs each region with a :class:`ReplicatedStore` on the cluster's
    ring; the regions of a table start as one at every open."""

    def __init__(self, cluster: ProcessCluster):
        self._cluster = cluster

    def store(self, table: str, region_id: int) -> ReplicatedStore:
        cluster = self._cluster
        store = ReplicatedStore(f"{table}/region-{region_id:04d}", cluster)
        with cluster._mu:  # placement tracking for rebalancing and health
            cluster._stores[store.store_id] = store
        return store
