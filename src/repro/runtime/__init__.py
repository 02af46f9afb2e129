"""Runtime limits: deadlines, admission control, write backpressure.

The overload-robustness layer.  Three independent mechanisms, each off by
default (so a limits-disabled deployment behaves byte-for-byte like one
built before this package existed):

- :mod:`repro.runtime.deadline` — a cooperative cancellation token that a
  query carries through every layer; expiry either aborts the query with
  :class:`~repro.runtime.deadline.QueryTimeoutError` or, in
  ``allow_partial`` mode, ends the stream early with a flagged partial
  result.
- :mod:`repro.runtime.admission` — a bounded inflight-query limiter with
  a priority FIFO wait queue; overflow sheds load fast with
  :class:`~repro.runtime.admission.AdmissionRejectedError`.
- :mod:`repro.runtime.backpressure` — soft/hard memtable watermarks that
  throttle, stall, and finally reject writers instead of letting ingest
  bursts grow memory without bound.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AdmissionController",
    "AdmissionRejectedError",
    "Deadline",
    "QueryTimeoutError",
    "WriteLimits",
]

# Re-exports resolve on first access (PEP 562): the storage engine imports
# ``deadline`` and ``backpressure`` through this package, and a region-server
# worker must not load admission control with them.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.runtime.admission": ("AdmissionController", "AdmissionRejectedError"),
        "repro.runtime.backpressure": ("WriteLimits",),
        "repro.runtime.deadline": ("Deadline", "QueryTimeoutError"),
    },
)
