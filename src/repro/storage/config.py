"""TMan deployment configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.compression.traj_codec import CODEC
from repro.model.mbr import MBR

VALID_INDEXES = ("tshape", "tr", "st")
VALID_SECONDARY = ("tr", "idt", "st", "tshape", "interval")


@dataclass(frozen=True)
class TManConfig:
    """All index, storage, and query-processing knobs of one deployment.

    Defaults mirror the paper's storage-schema figure: TShape as the primary
    index with TR and IDT secondary tables, ``α = β = 3``, 30-minute TR
    periods capped at ``N = 48``, greedy shape encoding, push-down enabled.
    """

    boundary: MBR
    primary_index: str = "tshape"
    secondary_indexes: tuple[str, ...] = ("tr", "idt")
    # TShape
    alpha: int = 3
    beta: int = 3
    max_resolution: int = 16
    shape_encoding: str = "greedy"  # bitmap | greedy | genetic
    use_index_cache: bool = True
    # TR
    tr_period_seconds: float = 1800.0
    tr_max_periods: int = 48
    time_origin: float = 0.0
    # storage
    num_shards: int = 4
    # Not a field: every row's point blob is packed with simple8b.  Saved
    # deployments state it, and open_tman refuses any other value.
    codec: ClassVar[str] = CODEC
    dp_epsilon: float = 0.002
    buffer_shape_threshold: int = 512
    # query processing
    push_down: bool = True
    st_window_budget: int = 4096
    kv_workers: int = 4
    split_rows: int = 200_000
    # Resilience: transient region-RPC/IO failures are retried with
    # exponential backoff and decorrelated jitter under these budgets.
    retry_max_attempts: int = 6
    retry_base_ms: float = 1.0
    retry_max_ms: float = 50.0
    # Overload protection.  All knobs default off so an unconfigured
    # deployment behaves bit-identically to one without the limits layer.
    # admission_max_inflight > 0 bounds concurrently executing queries;
    # excess queries wait FIFO (interactive ahead of batch) up to
    # admission_queue_timeout_ms, and beyond admission_max_queue waiters
    # are shed immediately with AdmissionRejectedError.
    admission_max_inflight: int = 0
    admission_max_queue: int = 16
    admission_queue_timeout_ms: float = 1000.0
    # Write backpressure: crossing memtable_soft_bytes triggers an async
    # flush plus a write_throttle_ms delay per write; memtable_hard_bytes
    # stalls writers until flushing catches up (for a bounded time, then
    # the write fails with WriteStalledError).
    memtable_soft_bytes: int | None = None
    memtable_hard_bytes: int | None = None
    write_throttle_ms: float = 1.0
    # Deadline applied to every query that does not pass its own
    # deadline_ms (None = unbounded).
    default_deadline_ms: float | None = None
    # Shared-nothing scale-out.  "threads" keeps the embedded in-process
    # cluster (bit-identical to before the knob existed); "processes"
    # promotes regions to region-server worker processes behind the
    # binary RPC layer, with cluster_nodes workers hosting
    # replication_factor replicas of each region, quorum-gated
    # reads/writes, and hinted handoff for replicas that miss writes.
    cluster_mode: str = "threads"
    cluster_nodes: int = 3
    replication_factor: int = 2
    read_quorum: int = 1
    write_quorum: int = 1
    # Rows per stateless scan page shipped over the RPC boundary.
    cluster_page_rows: int = 512
    # Root directory for worker node data (None = private tempdir,
    # removed on close).
    cluster_data_dir: str | None = None

    def __post_init__(self) -> None:
        if self.primary_index not in VALID_INDEXES:
            raise ValueError(
                f"primary_index must be one of {VALID_INDEXES}, got {self.primary_index!r}"
            )
        for sec in self.secondary_indexes:
            if sec not in VALID_SECONDARY:
                raise ValueError(f"unknown secondary index {sec!r}")
        if self.primary_index in self.secondary_indexes:
            raise ValueError(
                f"{self.primary_index!r} cannot be both primary and secondary"
            )
        if self.shape_encoding not in ("bitmap", "greedy", "genetic"):
            raise ValueError(f"unknown shape_encoding {self.shape_encoding!r}")
        if self.retry_max_attempts < 1:
            raise ValueError(
                f"retry_max_attempts must be positive, got {self.retry_max_attempts}"
            )
        if not 0 <= self.retry_base_ms <= self.retry_max_ms:
            raise ValueError(
                f"need 0 <= retry_base_ms <= retry_max_ms, got "
                f"{self.retry_base_ms}/{self.retry_max_ms}"
            )
        if self.admission_max_inflight < 0:
            raise ValueError(
                "admission_max_inflight must be non-negative, got "
                f"{self.admission_max_inflight}"
            )
        if self.admission_max_queue < 0:
            raise ValueError(
                f"admission_max_queue must be non-negative, got "
                f"{self.admission_max_queue}"
            )
        if self.admission_queue_timeout_ms < 0:
            raise ValueError(
                "admission_queue_timeout_ms must be non-negative, got "
                f"{self.admission_queue_timeout_ms}"
            )
        for name in ("memtable_soft_bytes", "memtable_hard_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if (
            self.memtable_soft_bytes is not None
            and self.memtable_hard_bytes is not None
            and self.memtable_hard_bytes < self.memtable_soft_bytes
        ):
            raise ValueError(
                "memtable_hard_bytes must be >= memtable_soft_bytes, got "
                f"{self.memtable_hard_bytes} < {self.memtable_soft_bytes}"
            )
        if self.write_throttle_ms < 0:
            raise ValueError(
                f"write_throttle_ms must be non-negative, got "
                f"{self.write_throttle_ms}"
            )
        if self.cluster_mode not in ("threads", "processes"):
            raise ValueError(
                f"cluster_mode must be 'threads' or 'processes', got "
                f"{self.cluster_mode!r}"
            )
        if self.cluster_nodes < 1:
            raise ValueError(
                f"cluster_nodes must be positive, got {self.cluster_nodes}"
            )
        if not 1 <= self.replication_factor <= self.cluster_nodes:
            raise ValueError(
                "need 1 <= replication_factor <= cluster_nodes, got "
                f"{self.replication_factor}/{self.cluster_nodes}"
            )
        for name in ("read_quorum", "write_quorum"):
            q = getattr(self, name)
            if not 1 <= q <= self.replication_factor:
                raise ValueError(
                    f"need 1 <= {name} <= replication_factor, got "
                    f"{q}/{self.replication_factor}"
                )
        if self.cluster_page_rows <= 0:
            raise ValueError(
                f"cluster_page_rows must be positive, got {self.cluster_page_rows}"
            )
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError(
                "default_deadline_ms must be positive, got "
                f"{self.default_deadline_ms}"
            )

    @property
    def primary_index_width(self) -> int:
        """Byte width of the primary key's index-value portion."""
        return 16 if self.primary_index == "st" else 8

    def available_indexes(self) -> tuple[str, ...]:
        """Every index this deployment can answer queries with."""
        return (self.primary_index,) + self.secondary_indexes
