"""The engine's plain records behave as the dataclasses they replaced.

``BlockCacheStats``, ``RetryPolicy``, ``FaultConfig`` and ``WriteLimits``
are named tuples (a region-server worker loads them without
``dataclasses``): equal fields compare and hash equal, assignment is
rejected, defaults and validation errors are the dataclasses', and the
``repr`` names every field.  The coordinator-side records (``Scan``,
``StatsSnapshot``) stay dataclasses; their contract is pinned here too.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.kvstore.block_cache import BlockCacheStats
from repro.kvstore.retry import RetryPolicy
from repro.kvstore.scan import Scan
from repro.kvstore.simfault import FaultConfig
from repro.kvstore.stats import IOStats
from repro.obs.profile import IO_FIELDS
from repro.runtime.backpressure import WriteLimits

# (record class, fields to build one with, one field changed)
RECORDS = [
    (
        BlockCacheStats,
        dict(hits=3, misses=1, evictions=0, entries=2, bytes=8192, capacity_bytes=65536),
        dict(hits=4),
    ),
    (RetryPolicy, dict(max_attempts=3, base_delay_ms=0.5, jitter_seed=7), dict(jitter_seed=8)),
    (
        FaultConfig,
        dict(scan_fail_rate=0.25, seed=5, crash_points=frozenset({"rpc.scan"})),
        dict(seed=6),
    ),
    (WriteLimits, dict(soft_bytes=1024, hard_bytes=4096), dict(throttle_ms=2.0)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
def test_equal_fields_compare_and_hash_equal(cls, fields, change):
    a, b = cls(**fields), cls(**fields)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    other = cls(**{**fields, **change})
    assert other != a
    assert {a: 1}.get(other) is None


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
def test_records_reject_assignment(cls, fields, change):
    record = cls(**fields)
    (name,) = change
    with pytest.raises(AttributeError):
        setattr(record, name, change[name])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, fields, change):
    text = repr(cls(**fields))
    assert text.startswith(f"{cls.__name__}(")
    for name, value in fields.items():
        assert f"{name}={value!r}" in text


def test_defaults_are_the_dataclass_defaults():
    assert RetryPolicy() == RetryPolicy(
        max_attempts=6,
        base_delay_ms=1.0,
        max_delay_ms=50.0,
        deadline_ms=10_000.0,
        jitter_seed=None,
        sleep=time.sleep,
        clock=time.monotonic,
    )
    config = FaultConfig()
    assert config.crash_points == frozenset()
    assert (config.seed, config.max_consecutive) == (0, 4)
    assert config.scan_fail_rate == config.get_fail_rate == config.scan_delay_ms == 0.0
    assert WriteLimits() == WriteLimits(None, None, 1000.0, 1.0)
    assert not WriteLimits().enabled and WriteLimits(hard_bytes=1).enabled
    assert BlockCacheStats(1, 3, 0, 1, 10, 20).hit_ratio == 0.25
    assert BlockCacheStats(0, 0, 0, 0, 0, 20).hit_ratio == 0.0


def test_fault_config_uniform_sets_every_rate():
    config = FaultConfig.uniform(0.5, seed=9, max_consecutive=2)
    assert config == FaultConfig(0.5, 0.5, 0.5, 0.5, seed=9, max_consecutive=2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FaultConfig.uniform(1.5), r"scan_fail_rate must be in \[0, 1\], got 1.5"),
        (lambda: FaultConfig(compact_fail_rate=-0.1), "compact_fail_rate must be in"),
        (lambda: FaultConfig(get_delay_ms=-1.0), "get_delay_ms must be >= 0"),
        (lambda: FaultConfig(max_consecutive=0), "max_consecutive must be positive"),
        (lambda: FaultConfig(crash_points={"nowhere"}), r"unknown crash points: \['nowhere'\]"),
        (
            lambda: WriteLimits(soft_bytes=4096, hard_bytes=1024),
            r"hard_bytes \(1024\) must be >= soft_bytes \(4096\)",
        ),
        (lambda: WriteLimits(soft_bytes=0), "soft_bytes must be positive"),
        (lambda: WriteLimits(hard_bytes=-1), "hard_bytes must be positive"),
        (lambda: WriteLimits(stall_timeout_ms=-1.0), "stall_timeout_ms must be >= 0"),
        (lambda: WriteLimits(throttle_ms=-1.0), "throttle_ms must be >= 0"),
        (lambda: RetryPolicy(max_attempts=0), "max_attempts must be positive"),
        (lambda: RetryPolicy(base_delay_ms=5.0, max_delay_ms=1.0), "base_delay_ms <= max_delay_ms"),
        (lambda: RetryPolicy(deadline_ms=0.0), "deadline_ms must be positive"),
        (lambda: Scan(start=b"b", stop=b"a"), r"scan stop < start: b'a' < b'b'"),
        (lambda: Scan(limit=-1), "negative scan limit: -1"),
    ],
)
def test_invalid_arguments_raise_the_same_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_snapshot_delta_yields_every_counter():
    stats = IOStats()
    stats.add(rows_scanned=100)
    earlier = stats.snapshot()
    stats.add(**{name: i + 1 for i, name in enumerate(IO_FIELDS)})
    delta = stats.snapshot() - earlier
    assert vars(delta) == {name: i + 1 for i, name in enumerate(IO_FIELDS)}
    assert replace(delta, block_reads=0).block_reads == 0
    assert "rows_scanned=1" in repr(delta)
    stats.reset()
    assert vars(stats.snapshot()) == dict.fromkeys(IO_FIELDS, 0)
