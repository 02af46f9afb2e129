"""Unit tests for STPoint."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model import STPoint


class TestConstruction:
    def test_fields(self):
        p = STPoint(10.0, 116.3, 39.9)
        assert (p.t, p.lng, p.lat) == (10.0, 116.3, 39.9)

    def test_xy_is_lng_lat(self):
        assert STPoint(0.0, 116.3, 39.9).xy == (116.3, 39.9)

    @pytest.mark.parametrize("lng", [-180.1, 180.1, 361.0])
    def test_rejects_bad_longitude(self, lng):
        with pytest.raises(ValueError):
            STPoint(0.0, lng, 0.0)

    @pytest.mark.parametrize("lat", [-90.01, 95.0])
    def test_rejects_bad_latitude(self, lat):
        with pytest.raises(ValueError):
            STPoint(0.0, 0.0, lat)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError):
            STPoint(t, 116.3, 39.9)

    def test_boundary_coordinates_allowed(self):
        STPoint(0.0, -180.0, -90.0)
        STPoint(0.0, 180.0, 90.0)


class TestBehaviour:
    def test_ordering_is_time_first(self):
        early = STPoint(1.0, 170.0, 80.0)
        late = STPoint(2.0, -170.0, -80.0)
        assert early < late

    def test_equal_points_hash_equal(self):
        assert hash(STPoint(1.0, 2.0, 3.0)) == hash(STPoint(1.0, 2.0, 3.0))

    def test_shifted(self):
        p = STPoint(10.0, 116.0, 39.0).shifted(dt=5.0, dlng=0.5, dlat=-0.5)
        assert (p.t, p.lng, p.lat) == (15.0, 116.5, 38.5)

    def test_shifted_validates_result(self):
        with pytest.raises(ValueError):
            STPoint(0.0, 179.9, 0.0).shifted(dlng=1.0)

    @given(
        st.floats(0, 1e9),
        st.floats(-179, 179),
        st.floats(-89, 89),
    )
    def test_roundtrip_shift_identity(self, t, lng, lat):
        p = STPoint(t, lng, lat)
        assert p.shifted() == p
