"""Deterministic, seeded fault injection for the emulated kvstore.

The kvstore stands in for a distributed store (HBase in the paper) whose
region RPCs are slow, fail transiently, and whose region servers crash
mid-flush.  Local code never exercises those paths, so this module injects
them on demand:

- **Transient RPC faults.**  Region scans, point gets, and batched gets
  raise :class:`~repro.kvstore.errors.TransientRPCError` with a
  configurable per-attempt probability; flush/compaction I/O raises
  :class:`~repro.kvstore.errors.TransientIOError` the same way.  Each
  injection site draws from its own seeded RNG stream, so a site's
  pass/fail sequence is a pure function of ``(seed, site)`` regardless of
  how threads interleave across sites.  ``max_consecutive`` bounds the
  failure run length at any one site, which makes recovery-under-retry
  deterministic instead of merely overwhelmingly probable.

- **RPC latency.**  ``scan_delay_ms`` / ``get_delay_ms`` sleep (releasing
  the GIL) once per region scan and once per point-get *request* — a
  batched ``multi_get`` pays it per region batch — so wall-clock tests see
  the round trips the scan scheduler and batching exist to overlap.

- **Crash points.**  Named locations in the flush → WAL-truncate and
  compact → unlink sequences (:data:`CRASH_POINTS`) raise
  :class:`SimulatedCrash` when armed, abandoning the store the way a
  killed process would — nothing is unwound, no close runs.  Tests then
  reopen the directory and assert recovery.

Disabled by default: the injector is process-global and ``None`` unless a
test, benchmark, or the CLI installs one, and every call site guards with
a single attribute read, so production paths pay nothing.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.kvstore.errors import TransientIOError, TransientRPCError
from repro.obs import counter as _obs_counter

_FAULTS_INJECTED = _obs_counter(
    "kv_fault_injected_total",
    "Faults raised by the simulated fault injector",
    labelnames=("site",),
)

#: Crash points recognised by :meth:`FaultInjector.crash`.  ``pre_rename``
#: fires with the new SSTable still at its ``.tmp`` path; ``post_rename``
#: fires with the SSTable visible but the WAL not yet truncated (flush) or
#: the superseded runs not yet unlinked (compact).  The ``rpc.*`` points
#: fire inside a region-server worker's request handlers
#: (:mod:`repro.cluster.worker`), where the armed crash kills the whole
#: worker process — the coordinator observes a dead connection, marks the
#: replica down, and fails the read over to another replica.
CRASH_POINTS = (
    "flush.pre_rename",
    "flush.post_rename",
    "compact.pre_rename",
    "compact.post_rename",
    "rpc.scan",
    "rpc.get",
)


class SimulatedCrash(BaseException):
    """An armed crash point fired.

    Deliberately *not* an :class:`Exception` subclass: a simulated crash
    models the process dying, so no ``except Exception`` cleanup handler
    (retry loops, the scheduler's drain path) may swallow it.
    """

    def __init__(self, point: str):
        super().__init__(f"simulated crash at {point}")
        self.point = point


@dataclass(frozen=True)
class FaultConfig:
    """Per-site fault probabilities, RPC delays and crash-point arming.

    Rates are per *attempt*: a retried operation re-rolls on every try.
    ``max_consecutive`` forces a success after that many back-to-back
    failures at one site, so any retry budget of at least
    ``max_consecutive + 1`` attempts is guaranteed to recover.  Delays
    (milliseconds) are paid by every scan / get request that does not fail.
    """

    scan_fail_rate: float = 0.0
    get_fail_rate: float = 0.0
    flush_fail_rate: float = 0.0
    compact_fail_rate: float = 0.0
    scan_delay_ms: float = 0.0
    get_delay_ms: float = 0.0
    seed: int = 0
    max_consecutive: int = 4
    crash_points: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for name in (
            "scan_fail_rate",
            "get_fail_rate",
            "flush_fail_rate",
            "compact_fail_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        for name in ("scan_delay_ms", "get_delay_ms"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.max_consecutive < 1:
            raise ValueError(
                f"max_consecutive must be positive, got {self.max_consecutive}"
            )
        unknown = set(self.crash_points) - set(CRASH_POINTS)
        if unknown:
            raise ValueError(f"unknown crash points: {sorted(unknown)}")

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, **kwargs) -> "FaultConfig":
        """Config failing every RPC/IO site with the same ``rate``."""
        return cls(
            scan_fail_rate=rate,
            get_fail_rate=rate,
            flush_fail_rate=rate,
            compact_fail_rate=rate,
            seed=seed,
            **kwargs,
        )


class FaultInjector:
    """Seeded fault source shared by every region and store in a process."""

    def __init__(self, config: FaultConfig):
        self.config = config
        self._lock = threading.Lock()
        self._rngs: dict[str, random.Random] = {}
        self._consecutive: dict[str, int] = {}
        self._armed = set(config.crash_points)
        self.injected = 0
        self.crashes = 0

    def _should_fail(self, site: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        with self._lock:
            rng = self._rngs.get(site)
            if rng is None:
                # One independent stream per site: outcomes depend only on
                # (seed, site, draw index), never on cross-site interleaving.
                rng = random.Random(f"{self.config.seed}:{site}")
                self._rngs[site] = rng
            streak = self._consecutive.get(site, 0)
            if streak >= self.config.max_consecutive:
                self._consecutive[site] = 0
                rng.random()  # keep the draw sequence aligned
                return False
            if rng.random() < rate:
                self._consecutive[site] = streak + 1
                self.injected += 1
                return True
            self._consecutive[site] = 0
            return False

    def _raise_if(self, site: str, rate: float, exc_cls) -> None:
        if self._should_fail(site, rate):
            _FAULTS_INJECTED.labels(site=site).inc()
            raise exc_cls(f"injected fault at {site}")

    def scan_fault(self) -> None:
        """Maybe fail a region scan RPC (raised at scan open), else pay its
        delay."""
        self._raise_if("scan", self.config.scan_fail_rate, TransientRPCError)
        if self.config.scan_delay_ms > 0.0:
            time.sleep(self.config.scan_delay_ms / 1000.0)

    def get_fault(self) -> None:
        """Maybe fail a point-get / batched-get RPC, else pay its delay."""
        self._raise_if("get", self.config.get_fail_rate, TransientRPCError)
        if self.config.get_delay_ms > 0.0:
            time.sleep(self.config.get_delay_ms / 1000.0)

    def flush_fault(self) -> None:
        """Maybe fail the SSTable write of a memtable flush."""
        self._raise_if("flush", self.config.flush_fail_rate, TransientIOError)

    def compact_fault(self) -> None:
        """Maybe fail the merged-run write of a compaction."""
        self._raise_if("compact", self.config.compact_fail_rate, TransientIOError)

    # -- crash points --------------------------------------------------------

    def crash(self, point: str) -> None:
        """Raise :class:`SimulatedCrash` when ``point`` is armed (one-shot)."""
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r}")
        with self._lock:
            if point not in self._armed:
                return
            # One-shot: the "process" that hits the point dies once; the
            # reopened store must be able to flush/compact normally.
            self._armed.discard(point)
            self.crashes += 1
        _FAULTS_INJECTED.labels(site=point).inc()
        raise SimulatedCrash(point)

    def arm(self, point: str) -> None:
        """(Re-)arm a crash point."""
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r}")
        with self._lock:
            self._armed.add(point)

    def armed(self) -> frozenset[str]:
        """The currently armed crash points."""
        with self._lock:
            return frozenset(self._armed)


_injector: Optional[FaultInjector] = None


def set_fault_injector(injector: Optional[FaultInjector]) -> None:
    """Install (or with ``None`` remove) the process-wide injector."""
    global _injector
    _injector = injector


def fault_injector() -> Optional[FaultInjector]:
    """The active injector, or ``None`` when injection is off."""
    return _injector


@contextmanager
def fault_injection(config: FaultConfig) -> Iterator[FaultInjector]:
    """Enable injection for a scope, restoring the previous state after."""
    global _injector
    prior = _injector
    injector = FaultInjector(config)
    _injector = injector
    try:
        yield injector
    finally:
        _injector = prior


def scan_fault() -> None:
    """Injection hook for region scan opens (free when disabled)."""
    injector = _injector
    if injector is not None:
        injector.scan_fault()


def get_fault() -> None:
    """Injection hook for point/batched gets (free when disabled)."""
    injector = _injector
    if injector is not None:
        injector.get_fault()


def flush_fault() -> None:
    """Injection hook for flush SSTable writes (free when disabled)."""
    injector = _injector
    if injector is not None:
        injector.flush_fault()


def compact_fault() -> None:
    """Injection hook for compaction rewrites (free when disabled)."""
    injector = _injector
    if injector is not None:
        injector.compact_fault()


def crash_point(point: str) -> None:
    """Injection hook for named crash points (free when disabled)."""
    injector = _injector
    if injector is not None:
        injector.crash(point)
