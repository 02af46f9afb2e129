"""Tests for the one cost model: pricing counters and fitting the constants."""

import pytest

from repro.kvstore.scan import StatsSnapshot
from repro.query.cost import COST_MODEL, MIN_CALIBRATION_SAMPLES, CostModel, calibrate

# Planted constants, in the model's own units.
PLANTED = dict(seek_ms=2.5, row_scan_us=7.0, row_transfer_us=30.0, point_get_us=90.0)


def synth_profiles(n, **overrides):
    """Synthetic ledgers whose elapsed_ms follows the model's linear terms
    with the ``PLANTED`` constants (or ``overrides`` of them)."""
    c = {**PLANTED, **overrides}
    out = []
    for i in range(n):
        scans = 1 + i % 7
        scanned = 100 + 37 * i
        returned = (i * 29) % 50
        gets = (i * 13) % 90
        out.append(
            {
                "range_scans": scans,
                "rows_scanned": scanned,
                "rows_returned": returned,
                "point_gets": gets,
                "elapsed_ms": (
                    c["seek_ms"] * scans
                    + c["row_scan_us"] / 1000 * scanned
                    + c["row_transfer_us"] / 1000 * returned
                    + c["point_get_us"] / 1000 * gets
                ),
            }
        )
    return out


class TestCostModel:
    def test_cost_model_prices_seeks(self):
        cm = CostModel(seek_ms=8.0, rpc_ms=0.0)
        cost_1 = cm.simulate_ms(StatsSnapshot(range_scans=1))
        cost_10 = cm.simulate_ms(StatsSnapshot(range_scans=10))
        assert cost_10 == pytest.approx(10 * cost_1)

    def test_cost_model_zero_work_is_free(self):
        assert CostModel().simulate_ms(StatsSnapshot()) == 0.0

    def test_linear_combination(self):
        cm = CostModel(bandwidth_mb_per_s=100.0, point_get_us=50.0)
        work = StatsSnapshot(
            range_scans=2, rows_scanned=10, rows_returned=4,
            bytes_transferred=1_000_000, point_gets=3,
        )
        assert cm.simulate_ms(work) == pytest.approx(
            2 * 8.0 + 10 * 0.004 + 4 * 0.020 + 10.0 + 1.0 + 3 * 0.050
        )


class TestCalibrate:
    def test_recovers_planted_constants(self):
        fitted = calibrate(synth_profiles(32))
        for name, value in PLANTED.items():
            assert getattr(fitted, name) == pytest.approx(value, rel=1e-6), name
        # Not fitted: carried over from the defaults.
        assert fitted.rpc_ms == COST_MODEL.rpc_ms
        assert fitted.bandwidth_mb_per_s == COST_MODEL.bandwidth_mb_per_s

    def test_too_few_samples_keeps_defaults(self):
        defaults = CostModel()
        assert calibrate(synth_profiles(MIN_CALIBRATION_SAMPLES - 1), defaults) is defaults

    def test_unused_column_keeps_default(self):
        # A workload that never resolved through point gets can't calibrate
        # the point-get constant; the default must survive.
        defaults = CostModel(point_get_us=12.0)
        profiles = synth_profiles(32, point_get_us=0.0)
        for p in profiles:
            p["point_gets"] = 0
        fitted = calibrate(profiles, defaults)
        assert fitted.point_get_us == 12.0
        assert fitted.seek_ms == pytest.approx(PLANTED["seek_ms"], rel=1e-6)

    def test_accepts_profile_objects(self):
        class Ledger:
            def __init__(self, d):
                self.__dict__.update(d)

        fitted = calibrate([Ledger(d) for d in synth_profiles(16)])
        assert fitted.point_get_us == pytest.approx(PLANTED["point_get_us"], rel=1e-6)

    def test_degenerate_latencies_keep_defaults(self):
        profiles = [
            {"rows_scanned": 10, "elapsed_ms": 0.0} for _ in range(32)
        ]
        defaults = CostModel()
        assert calibrate(profiles, defaults) is defaults

    def test_non_positive_row_scan_keeps_defaults(self):
        profiles = synth_profiles(32, row_scan_us=-5.0)
        defaults = CostModel()
        assert calibrate(profiles, defaults) is defaults
