"""Process-wide metrics: counters, gauges, and log-bucketed histograms.

A :class:`MetricsRegistry` is a thread-safe catalog of named metric
*families*; each family owns one time series per distinct label-value
combination (``family.labels(stage="decode")``).  Three metric types cover
the paper's evaluation axes:

- **Counter** — monotone totals (rows scanned, WAL appends, compactions);
- **Gauge** — point-in-time values, settable directly or backed by a
  callback sampled at snapshot time (cache hit counts);
- **Histogram** — log-bucketed latency/size distributions.  Bucket upper
  bounds grow geometrically (factor ``2**0.25`` by default, ~19% per
  bucket), so quantile estimates carry a bounded *relative* error of a few
  percent across nine orders of magnitude while storing only touched
  buckets.

Disabled mode (``registry.set_enabled(False)``) turns every ``inc`` /
``set`` / ``observe`` into an early-return flag check, so instrumented hot
paths cost ~nothing when observability is off; cached metric handles stay
valid across ``reset()`` and enable/disable toggles.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections.abc import Callable, Iterable, Sequence

DEFAULT_GROWTH = 2.0 ** 0.25
DEFAULT_BASE = 1e-3  # smallest bucket bound (e.g. one microsecond, in ms)

SNAPSHOT_SCHEMA = "repro.obs.metrics/v1"
HISTOGRAM_QUANTILES = (50.0, 90.0, 95.0, 99.0)

# Per-family ceiling on distinct label combinations; past it, new
# combinations collapse into one overflow series instead of growing the
# registry without bound (think per-region labels under scale-out).
DEFAULT_MAX_LABEL_SERIES = 128
OVERFLOW_LABEL = "__overflow__"


class MetricError(ValueError):
    """Raised on metric misuse: name collisions, bad labels, bad types."""


def _check_labels(labelnames: Sequence[str], labels: dict) -> tuple:
    if set(labels) != set(labelnames):
        raise MetricError(
            f"expected labels {tuple(labelnames)}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Child:
    """One time series of a family (one label-value combination)."""

    __slots__ = ("_registry", "_lock")

    def __init__(self, registry: "MetricsRegistry", lock: threading.Lock):
        self._registry = registry
        self._lock = lock


class CounterChild(_Child):
    """A monotonically increasing total."""

    __slots__ = ("_value",)

    def __init__(self, registry, lock):
        super().__init__(registry, lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if not self._registry._enabled:
            return
        if amount < 0:
            raise MetricError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def _reset(self) -> None:
        self._value = 0.0

    def _sample(self) -> dict:
        return {"value": self._value}


class GaugeChild(_Child):
    """A point-in-time value, set directly or sampled from a callback."""

    __slots__ = ("_value", "_callback")

    def __init__(self, registry, lock):
        super().__init__(registry, lock)
        self._value = 0.0
        self._callback: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        if not self._registry._enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        if not self._registry._enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)

    def set_callback(self, callback: Callable[[], float] | None) -> None:
        """Back the gauge with ``callback``, sampled at snapshot time.

        Re-registering replaces the previous callback (the newest instance
        of a shared component wins).
        """
        with self._lock:
            self._callback = callback

    @property
    def value(self) -> float:
        """Current value (invokes the callback when one is set)."""
        if self._callback is not None:
            return float(self._callback())
        return self._value

    def _reset(self) -> None:
        self._value = 0.0

    def _sample(self) -> dict:
        return {"value": self.value}


class HistogramChild(_Child):
    """Log-bucketed distribution with O(log range) sparse buckets."""

    __slots__ = ("_base", "_log_growth", "_growth", "_buckets", "_count",
                 "_sum", "_min", "_max", "_exemplars")

    def __init__(self, registry, lock, base: float, growth: float):
        super().__init__(registry, lock)
        self._base = base
        self._growth = growth
        self._log_growth = math.log(growth)
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        # Per-bucket (value, exemplar) of the slowest sample that carried
        # an exemplar id — bounded by the touched-bucket count.
        self._exemplars: dict[int, tuple[float, str]] = {}

    def _bucket_index(self, value: float) -> int:
        if value <= self._base:
            return 0
        return max(0, math.ceil(math.log(value / self._base) / self._log_growth))

    def bucket_bound(self, index: int) -> float:
        """Inclusive upper bound of bucket ``index``."""
        return self._base * self._growth ** index

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one sample (negative values clamp to zero).

        ``exemplar`` tags the sample with a trace/query id; each bucket
        remembers the slowest exemplar-carrying sample it received, so a
        latency spike can be chased back to the query that caused it.
        """
        if not self._registry._enabled:
            return
        value = float(value)
        if value < 0.0:
            value = 0.0
        idx = self._bucket_index(value)
        with self._lock:
            self._buckets[idx] = self._buckets.get(idx, 0) + 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if exemplar is not None:
                prev = self._exemplars.get(idx)
                if prev is None or value >= prev[0]:
                    self._exemplars[idx] = (value, exemplar)

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of observed values."""
        return self._sum

    def percentile(self, pct: float) -> float:
        """Nearest-rank quantile estimate from the log buckets.

        The returned value is the geometric midpoint of the selected
        bucket, clamped to the observed [min, max]; relative error is
        bounded by ``sqrt(growth) - 1`` (~9% at the default growth).
        """
        with self._lock:
            if self._count == 0:
                raise MetricError("empty histogram")
            rank = max(1, math.ceil(pct / 100.0 * self._count))
            cumulative = 0
            for idx in sorted(self._buckets):
                cumulative += self._buckets[idx]
                if cumulative >= rank:
                    mid = self.bucket_bound(idx) / math.sqrt(self._growth)
                    return min(max(mid, self._min), self._max)
            return self._max  # pragma: no cover - rank <= count always hits

    def _reset(self) -> None:
        self._buckets.clear()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._exemplars.clear()

    def exemplars(self) -> list[tuple[float, float, str]]:
        """Per-bucket ``(bound, value, exemplar)`` of the slowest samples."""
        with self._lock:
            return [
                (self.bucket_bound(idx), value, exemplar)
                for idx, (value, exemplar) in sorted(self._exemplars.items())
            ]

    def _sample(self) -> dict:
        with self._lock:
            out = {
                "count": self._count,
                "sum": round(self._sum, 6),
                "min": round(self._min, 6) if self._count else None,
                "max": round(self._max, 6) if self._count else None,
                "buckets": [
                    [round(self.bucket_bound(idx), 9), self._buckets[idx]]
                    for idx in sorted(self._buckets)
                ],
            }
            if self._exemplars:
                out["exemplars"] = [
                    [round(self.bucket_bound(idx), 9), round(value, 6), exemplar]
                    for idx, (value, exemplar) in sorted(self._exemplars.items())
                ]
        for q in HISTOGRAM_QUANTILES:
            key = f"p{q:g}"
            out[key] = round(self.percentile(q), 6) if out["count"] else None
        return out


class MetricFamily:
    """A named metric plus its labeled children.

    A family with no label names is its own single child: ``inc`` /
    ``set`` / ``observe`` on the family operate on the default series.
    """

    kind = "untyped"
    _child_cls = _Child

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str],
        **child_kwargs,
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._registry = registry
        self._lock = threading.Lock()
        self._child_kwargs = child_kwargs
        self._children: dict[tuple, _Child] = {}
        self._overflowed = False
        if not self.labelnames:
            self._default = self._make_child()
            self._children[()] = self._default

    def _make_child(self) -> _Child:
        return self._child_cls(self._registry, self._lock, **self._child_kwargs)

    def labels(self, **labels) -> _Child:
        """The child series for one label-value combination (get-or-create).

        Past the registry's ``max_label_series`` cap, new combinations
        collapse into a single ``__overflow__`` series (with a one-time
        warning) so unbounded label values can't grow the registry forever.
        """
        key = _check_labels(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if len(self._children) >= self._registry.max_label_series:
                        if not self._overflowed:
                            self._overflowed = True
                            warnings.warn(
                                f"metric {self.name!r} exceeded "
                                f"{self._registry.max_label_series} label "
                                "combinations; further combinations collapse "
                                f"into {OVERFLOW_LABEL!r}",
                                RuntimeWarning,
                                stacklevel=2,
                            )
                        key = (OVERFLOW_LABEL,) * len(self.labelnames)
                        child = self._children.get(key)
                        if child is None:
                            child = self._make_child()
                            self._children[key] = child
                    else:
                        child = self._make_child()
                        self._children[key] = child
        return child

    @property
    def series_count(self) -> int:
        """Number of label combinations seen (cardinality guard rail)."""
        return len(self._children)

    def _reset(self) -> None:
        for child in self._children.values():
            child._reset()

    def samples(self) -> list[dict]:
        """JSON-ready samples, one per labeled child."""
        out = []
        for key, child in sorted(self._children.items()):
            sample = child._sample()
            sample["labels"] = dict(zip(self.labelnames, key))
            out.append(sample)
        return out


class CounterFamily(MetricFamily):
    """Family of counters."""

    kind = "counter"
    _child_cls = CounterChild

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled series."""
        self._default.inc(amount)

    @property
    def value(self) -> float:
        """Value of the unlabeled series."""
        return self._default.value


class GaugeFamily(MetricFamily):
    """Family of gauges."""

    kind = "gauge"
    _child_cls = GaugeChild

    def set(self, value: float) -> None:
        """Set the unlabeled series."""
        self._default.set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled series."""
        self._default.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the unlabeled series."""
        self._default.dec(amount)

    def set_callback(self, callback: Callable[[], float] | None) -> None:
        """Back the unlabeled series with a sampled callback."""
        self._default.set_callback(callback)

    @property
    def value(self) -> float:
        """Value of the unlabeled series."""
        return self._default.value


class HistogramFamily(MetricFamily):
    """Family of log-bucketed histograms."""

    kind = "histogram"
    _child_cls = HistogramChild

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Observe into the unlabeled series."""
        self._default.observe(value, exemplar=exemplar)

    def percentile(self, pct: float) -> float:
        """Quantile of the unlabeled series."""
        return self._default.percentile(pct)

    @property
    def count(self) -> int:
        """Observation count of the unlabeled series."""
        return self._default.count


class MetricsRegistry:
    """Thread-safe catalog of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: repeated
    registration under the same name returns the same family (so modules
    can hold cheap handles), but re-registering a name as a different type
    or with different label names raises.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_label_series: int = DEFAULT_MAX_LABEL_SERIES,
    ):
        self._enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}
        self._max_label_series = max_label_series

    # -- lifecycle ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether writes are being recorded."""
        return self._enabled

    @property
    def max_label_series(self) -> int:
        """Per-family cap on distinct label combinations."""
        return self._max_label_series

    def set_max_label_series(self, cap: int) -> None:
        """Adjust the per-family label-cardinality cap."""
        if cap < 1:
            raise MetricError(f"max_label_series must be positive, got {cap}")
        self._max_label_series = cap

    def set_enabled(self, enabled: bool) -> None:
        """Toggle recording; existing values are kept either way."""
        self._enabled = bool(enabled)

    def reset(self) -> None:
        """Zero every series in place; registered handles stay valid."""
        with self._lock:
            for family in self._families.values():
                family._reset()

    # -- registration -------------------------------------------------------

    def _register(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls) or family.labelnames != tuple(
                    labelnames
                ):
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.labelnames}"
                    )
                return family
            family = cls(self, name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def unregister(self, name: str) -> bool:
        """Drop a family from the registry (e.g. a test-only metric).

        Handles already held by callers keep working but are no longer
        exported.  Returns whether the name was registered.
        """
        with self._lock:
            return self._families.pop(name, None) is not None

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> CounterFamily:
        """Get or create a counter family."""
        return self._register(CounterFamily, name, help, labelnames)

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> GaugeFamily:
        """Get or create a gauge family (optionally callback-backed)."""
        family = self._register(GaugeFamily, name, help, labelnames)
        if callback is not None:
            family.set_callback(callback)
        return family

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        base: float = DEFAULT_BASE,
        growth: float = DEFAULT_GROWTH,
    ) -> HistogramFamily:
        """Get or create a log-bucketed histogram family."""
        if growth <= 1.0:
            raise MetricError(f"growth must exceed 1.0, got {growth}")
        if base <= 0.0:
            raise MetricError(f"base must be positive, got {base}")
        return self._register(
            HistogramFamily, name, help, labelnames, base=base, growth=growth
        )

    # -- introspection ------------------------------------------------------

    def get(self, name: str) -> MetricFamily | None:
        """The family registered under ``name``, or ``None``."""
        return self._families.get(name)

    def names(self) -> list[str]:
        """Sorted names of every registered family."""
        return sorted(self._families)

    def families(self) -> Iterable[MetricFamily]:
        """Registered families in name order."""
        return [self._families[name] for name in self.names()]

    def snapshot(self) -> dict:
        """JSON-ready snapshot of every family (the exporter input)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "enabled": self._enabled,
            "metrics": [
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "labelnames": list(family.labelnames),
                    "samples": family.samples(),
                }
                for family in self.families()
            ],
        }
