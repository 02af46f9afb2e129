"""Key-value store exception hierarchy."""


class KVError(Exception):
    """Base class for all key-value store errors."""


class TableNotFoundError(KVError):
    """Raised when operating on a table that does not exist."""


class TableExistsError(KVError):
    """Raised when creating a table whose name is taken."""


class RegionError(KVError):
    """Raised on region-routing inconsistencies (key outside all regions)."""


class CorruptionError(KVError):
    """Raised when stored bytes fail to decode."""


class FormatMismatchError(KVError):
    """A saved deployment or a durable data directory holds another stored
    format than this build writes and reads, or states none.

    Raised when the deployment or directory is opened, before any table is
    served; the message names the format found and the format expected.
    """


class TransientError(KVError):
    """Base class for failures that a retry is expected to cure.

    The retry layer (:mod:`repro.kvstore.retry`) classifies every raised
    exception: subclasses of this type are retried with backoff, anything
    else is fatal and propagates immediately.
    """


class TransientRPCError(TransientError):
    """A region RPC (scan open, batched get) failed transiently.

    In the emulated cluster this is raised by the fault injector
    (:mod:`repro.kvstore.simfault`); against a real distributed backend it
    would wrap the store's region-moved / timeout / connection errors.
    """


class TransientIOError(TransientError):
    """A storage-side write (SSTable flush, compaction rewrite) failed
    transiently and left no visible state behind."""


class ReplicaDownError(TransientRPCError):
    """An RPC to a region-server replica failed at the transport layer
    (connection refused, reset, or closed mid-frame — how a killed worker
    process presents).

    Transient by classification: the replication layer fails over to
    another replica, and the retry layer may re-resolve after the node
    is restarted.
    """


class NoQuorumError(KVError):
    """Too few live replicas acknowledged an operation to meet its quorum.

    Deliberately *not* transient: by the time this is raised the
    replication layer has already tried every replica in the preference
    list; an immediate retry would fail the same way.  Recovery requires
    a replica to return (``restart_node`` / ``revive_node``).
    """


class StoreLockedError(KVError):
    """A durable store directory is owned by another live process.

    Each :class:`~repro.kvstore.durable.DurableLSMStore` asserts
    single-writer ownership with a pid lockfile; two processes appending
    to one WAL would interleave records and corrupt the log.
    """


class WriteStalledError(KVError):
    """A write stalled at the hard memtable watermark past its bounded
    timeout and was rejected.

    Backpressure, not corruption: the store is healthy but flushing
    slower than the ingest rate.  Callers should slow down and retry.
    """


class RetryExhaustedError(KVError):
    """A retryable operation failed past its attempt or deadline budget.

    ``__cause__`` carries the last underlying transient error.
    """
