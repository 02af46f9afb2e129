"""Cooperative query deadlines.

A :class:`Deadline` is created once per query (``TMan.query(deadline_ms=…)``)
and threaded *explicitly* through the planner, pipeline operators, scan
scheduler, region scan loops, batched gets, and the retry layer — explicit
rather than ambient (contextvars) because read-ahead chunks run on pool
worker threads that never see the submitting thread's context.

Expiry is checked cooperatively at loop boundaries (every scanned batch of
rows, every chunk wait, before every retry sleep) and raises
:class:`QueryTimeoutError` from the layer that notices first.  In
``allow_partial`` mode the pipeline converts that into an early end of
stream instead, and the query returns the rows produced so far flagged
``partial=True`` — the deep layers always raise; only the stream guard at
the sink decides whether expiry is an error or a truncation.

Deadline tokens never cross a process boundary: monotonic-clock instants
are meaningless in another process.  The cluster RPC layer instead wires
the *remaining budget* in milliseconds into every request frame
(:func:`repro.cluster.rpc.deadline_budget_ms`) and the worker re-anchors
a fresh token on its own clock (:func:`repro.cluster.rpc.reanchor_deadline`),
so a query whose deadline expires mid-RPC gets ``STATUS_EXPIRED`` back
from the worker and travels the same cooperative path — partial results,
never a hang.
"""

from __future__ import annotations

import time
from collections.abc import Callable


class QueryTimeoutError(Exception):
    """The query's deadline expired before it finished.

    ``where`` names the layer that noticed the expiry (e.g.
    ``"region.scan"``, ``"retry:scan"``, ``"admission"``);
    ``budget_ms`` is the original deadline budget.
    """

    def __init__(self, where: str, budget_ms: float):
        super().__init__(
            f"query deadline of {budget_ms:.0f} ms exceeded (at {where})"
        )
        self.where = where
        self.budget_ms = budget_ms


class Deadline:
    """A monotonic-clock budget shared by every layer of one query.

    The token itself is lock-free: ``expired()`` compares the clock to a
    precomputed instant, and the only mutable state (``_cancelled``,
    ``_partial``) is a pair of idempotent one-way booleans — benign under
    concurrent access from pool workers.

    ``cancel()`` force-expires the token (caller-initiated abort travels
    the same cooperative path as a timeout).  ``note_partial()`` records
    that the stream guard truncated the query; the executor reads
    ``partial`` to flag the result.
    """

    __slots__ = ("budget_ms", "allow_partial", "_clock", "_t0", "_expires_at",
                 "_cancelled", "_partial")

    def __init__(
        self,
        budget_ms: float,
        *,
        allow_partial: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ):
        if budget_ms <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget_ms}")
        self.budget_ms = budget_ms
        self.allow_partial = allow_partial
        self._clock = clock
        self._t0 = clock()
        self._expires_at = self._t0 + budget_ms / 1000.0
        self._cancelled = False
        self._partial = False

    # -- queries -------------------------------------------------------------

    def remaining_s(self) -> float:
        """Seconds of budget left (<= 0 once expired or cancelled)."""
        if self._cancelled:
            return 0.0
        return self._expires_at - self._clock()

    def remaining_ms(self) -> float:
        """Milliseconds of budget left (<= 0 once expired or cancelled)."""
        return self.remaining_s() * 1000.0

    def expired(self) -> bool:
        """True once the budget is spent or the token was cancelled."""
        return self._cancelled or self._clock() >= self._expires_at

    @property
    def partial(self) -> bool:
        """True if a stream guard truncated the query at this deadline."""
        return self._partial

    # -- transitions ---------------------------------------------------------

    def cancel(self) -> None:
        """Force-expire the token (cooperative caller-initiated abort)."""
        self._cancelled = True

    def note_partial(self) -> None:
        """Record that the query was truncated rather than failed."""
        self._partial = True

    def check(self, where: str) -> None:
        """Raise :class:`QueryTimeoutError` if the budget is spent."""
        if self.expired():
            raise QueryTimeoutError(where, self.budget_ms)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Deadline(budget_ms={self.budget_ms}, "
            f"remaining_ms={self.remaining_ms():.1f}, "
            f"allow_partial={self.allow_partial})"
        )
