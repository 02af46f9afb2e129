"""Tests for the simulated remote-RPC latency knob: the fault injector's
``scan_delay_ms`` / ``get_delay_ms``, how they are switched on and off,
and that the hooks cost no sleep while latency is off.

What the delays prove about the scan scheduler and batched ``multi_get``
is tested in ``test_kvstore_simfault.py``."""

from __future__ import annotations

import pytest

from repro.kvstore import simfault
from repro.kvstore.simfault import (
    FaultConfig,
    FaultInjector,
    fault_injection,
    fault_injector,
    set_fault_injector,
)


class TestKnob:
    def test_disabled_by_default(self):
        assert fault_injector() is None

    def test_context_sets_and_restores(self):
        with fault_injection(FaultConfig(scan_delay_ms=1.0)):
            assert fault_injector().config.scan_delay_ms == 1.0
            with fault_injection(FaultConfig(scan_delay_ms=2.0)):
                assert fault_injector().config.scan_delay_ms == 2.0
            assert fault_injector().config.scan_delay_ms == 1.0
        assert fault_injector() is None

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with fault_injection(FaultConfig(scan_delay_ms=1.0)):
                raise RuntimeError("boom")
        assert fault_injector() is None

    def test_set_none_disables(self):
        set_fault_injector(FaultInjector(FaultConfig(get_delay_ms=1.0)))
        assert fault_injector() is not None
        set_fault_injector(None)
        assert fault_injector() is None

    def test_delays_are_free_when_disabled(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simfault.time, "sleep", lambda s: calls.append(s))
        simfault.scan_fault()
        simfault.get_fault()
        assert calls == []
