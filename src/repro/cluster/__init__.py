"""``repro.cluster`` — shared-nothing scale-out for the region store.

Promotes regions from threads in one process to worker *processes* behind
a length-prefixed binary RPC protocol: a consistent-hash ring places each
region's N replicas on the fleet, writes need a tunable write quorum
(missed replicas get hinted handoff), reads are served by fresh replicas
with mid-scan failover, and the fleet can grow with ~1/N rebalancing.

Enable with ``TManConfig(cluster_mode="processes")``; the default
``"threads"`` keeps the embedded in-process cluster, bit-identical to
before this package existed.  See ``docs/architecture.md`` §6.
"""

from repro._lazy import lazy_exports
from repro.cluster import metrics as _metrics  # register cluster_* instruments

__all__ = [
    "ConsistentHashRing",
    "NodeClient",
    "ProcessCluster",
    "ReplicatedStore",
    "WorkerHandle",
]

del _metrics

# Re-exports resolve on first access (PEP 562): a spawned worker imports
# ``repro.cluster.worker`` through this package and must not load the
# coordinator side (``process_cluster`` pulls in the whole kvstore facade).
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.cluster.client": ("NodeClient", "WorkerHandle"),
        "repro.cluster.process_cluster": ("ProcessCluster",),
        "repro.cluster.replication": ("ReplicatedStore",),
        "repro.cluster.ring": ("ConsistentHashRing",),
    },
)
