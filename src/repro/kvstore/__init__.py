"""An embedded, range-partitioned key-value store with push-down filters.

This package is the reproduction's stand-in for HBase: byte-ordered keys,
LSM-tree storage (memtable + immutable SSTables + compaction), range
*regions* hosted on region servers, ordered scans with start/stop keys,
server-side (push-down) filters, and detailed I/O accounting.  Everything the
paper's experiments measure — rows retrieved, ranges scanned, data
transferred — is surfaced through :class:`~repro.kvstore.stats.IOStats`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Cluster",
    "Table",
    "Scan",
    "LSMStore",
    "DurableLSMStore",
    "save_cluster",
    "load_cluster",
    "Filter",
    "FilterChain",
    "TrueFilter",
    "PrefixFilter",
    "IOStats",
    "RetryPolicy",
    "FaultConfig",
    "FaultInjector",
    "fault_injection",
    "KVError",
    "TableNotFoundError",
    "TableExistsError",
    "RegionError",
    "TransientError",
    "TransientRPCError",
    "TransientIOError",
    "RetryExhaustedError",
]

# Re-exports resolve on first access (PEP 562), so importing one engine
# module (a region-server worker imports only ``durable``) loads no more.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.kvstore.cluster": ("Cluster",),
        "repro.kvstore.durable": ("DurableLSMStore",),
        "repro.kvstore.errors": (
            "KVError", "RegionError", "RetryExhaustedError", "TableExistsError",
            "TableNotFoundError", "TransientError", "TransientIOError", "TransientRPCError",
        ),
        "repro.kvstore.filters": ("Filter", "FilterChain", "PrefixFilter", "TrueFilter"),
        "repro.kvstore.lsm": ("LSMStore",),
        "repro.kvstore.retry": ("RetryPolicy",),
        "repro.kvstore.scan": ("Scan",),
        "repro.kvstore.simfault": ("FaultConfig", "FaultInjector", "fault_injection"),
        "repro.kvstore.snapshot": ("load_cluster", "save_cluster"),
        "repro.kvstore.stats": ("IOStats",),
        "repro.kvstore.table": ("Table",),
    },
)
