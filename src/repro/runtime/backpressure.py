"""Write backpressure limits and their per-call accounting.

:class:`WriteLimits` carries the memtable watermark knobs from
``TManConfig`` down to the LSM engine.  Semantics (enforced once, in
the write path of :class:`repro.kvstore.lsm.LSMStore`, for both storage
media):

- **soft watermark** — the active memtable is frozen and flushed in the
  background (inline when the store has no flusher pool, as on the
  directory medium, whose single-file WAL makes concurrent truncation
  unsafe) and the writer is throttled by ``throttle_ms`` per put,
  smearing the flush cost across the burst;
- **hard watermark** — the writer stalls until flushing brings the
  unflushed bytes back under the hard mark, for at most
  ``stall_timeout_ms``, after which the put is rejected with
  :class:`~repro.kvstore.errors.WriteStalledError`.  Without a flusher
  the stall drains inline and always recovers.

Each throttle and stall is attributed to the calling thread's ledger (the
:class:`~repro.obs.profile.QueryProfile` that ``StorageWriter`` opens per
write batch), so a ``WriteReport`` counts only its own batch even while
other deployments write beside it.  Process-wide totals live in the
metrics registry.
"""

from __future__ import annotations

from collections import namedtuple

from repro.obs import counter as _obs_counter
from repro.obs.profile import current_profile

_STALL_SECONDS = _obs_counter(
    "kv_write_stall_seconds",
    "Total wall time writers spent stalled at the hard memtable watermark",
)
_STALL_TOTAL = _obs_counter(
    "kv_write_stall_total",
    "Writer stalls at the hard memtable watermark",
)
_THROTTLE_TOTAL = _obs_counter(
    "kv_write_throttle_total",
    "Writer throttle delays injected at the soft memtable watermark",
)
_REJECTED_TOTAL = _obs_counter(
    "kv_write_rejected_total",
    "Writes rejected after a stall exceeded its bounded timeout",
)


def stall_counts() -> tuple[int, int, float, int]:
    """``(throttles, stalls, stall_seconds, rejections)`` process-wide, as
    the metrics registry has counted them (zeros while metrics are off)."""
    return (
        int(_THROTTLE_TOTAL.value),
        int(_STALL_TOTAL.value),
        _STALL_SECONDS.value,
        int(_REJECTED_TOTAL.value),
    )


def record_throttle() -> None:
    """Account one soft-watermark throttle delay."""
    profile = current_profile()
    if profile is not None:
        profile.add(throttled_writes=1)
    if _THROTTLE_TOTAL._registry.enabled:
        _THROTTLE_TOTAL.inc()


def record_stall(seconds: float, rejected: bool) -> None:
    """Account one hard-watermark stall (and its outcome)."""
    profile = current_profile()
    if profile is not None:
        profile.add(
            stalled_writes=1,
            write_stall_ms=seconds * 1000.0,
            rejected_writes=int(rejected),
        )
    if _STALL_TOTAL._registry.enabled:
        _STALL_TOTAL.inc()
        _STALL_SECONDS.inc(seconds)
        if rejected:
            _REJECTED_TOTAL.inc()


class WriteLimits(
    namedtuple(
        "WriteLimits",
        "soft_bytes hard_bytes stall_timeout_ms throttle_ms",
        defaults=(None, None, 1000.0, 1.0),
    )
):
    """Memtable watermark configuration for one LSM store (an immutable
    record).

    ``soft_bytes`` < ``hard_bytes``; both count unflushed bytes (the
    active memtable plus any frozen memtables awaiting flush).  ``None``
    for either watermark disables that mechanism.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.soft_bytes is not None and self.soft_bytes <= 0:
            raise ValueError(f"soft_bytes must be positive, got {self.soft_bytes}")
        if self.hard_bytes is not None and self.hard_bytes <= 0:
            raise ValueError(f"hard_bytes must be positive, got {self.hard_bytes}")
        if (
            self.soft_bytes is not None
            and self.hard_bytes is not None
            and self.hard_bytes < self.soft_bytes
        ):
            raise ValueError(
                f"hard_bytes ({self.hard_bytes}) must be >= soft_bytes "
                f"({self.soft_bytes})"
            )
        if self.stall_timeout_ms < 0:
            raise ValueError(
                f"stall_timeout_ms must be >= 0, got {self.stall_timeout_ms}"
            )
        if self.throttle_ms < 0:
            raise ValueError(f"throttle_ms must be >= 0, got {self.throttle_ms}")
        return self

    @property
    def enabled(self) -> bool:
        """True when either watermark is configured."""
        return self.soft_bytes is not None or self.hard_bytes is not None
