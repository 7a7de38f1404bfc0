import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlaod.errors import ContractViolation
from rlaod.imaging import (
    AttributeAction,
    estimate_scale_level,
    scale_factor_for_step,
    update_scale_level,
)


class TestEstimate:
    def test_prior_area_is_zero(self):
        assert estimate_scale_level(96.0**2) == 0.0

    def test_upper_bound(self):
        # 0.5 * log_8(768^2 / 96^2) = 0.5 * log_8(64) = 1
        assert estimate_scale_level(768.0**2) == pytest.approx(1.0)

    def test_lower_clamp(self):
        # 12^2 / 96^2 = 1/64 exactly reaches -1; anything smaller clamps.
        assert estimate_scale_level(12.0**2) == pytest.approx(-1.0)
        assert estimate_scale_level(4.0) == -1.0

    def test_sentinel_maps_to_zero(self):
        assert estimate_scale_level(None) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            estimate_scale_level(0.0)
        with pytest.raises(ValueError):
            estimate_scale_level(-5.0)

    def test_formula_against_direct_log(self):
        for area in (500.0, 96.0**2, 5e4, 3e5):
            expected = min(1.0, max(-1.0, 0.5 * math.log(area / 96.0**2, 8.0)))
            assert estimate_scale_level(area) == pytest.approx(expected, abs=1e-12)


class TestUpdate:
    def test_zoom_in_from_zero(self):
        assert update_scale_level(0.0, AttributeAction.ZOOM_IN) == pytest.approx(0.05)

    def test_fixed_point(self):
        assert update_scale_level(-1.0, AttributeAction.ZOOM_OUT) == pytest.approx(-1.0)

    def test_zoom_out(self):
        assert update_scale_level(0.8, AttributeAction.ZOOM_OUT) == pytest.approx(0.71)

    def test_wrong_action_kind(self):
        with pytest.raises(ContractViolation):
            update_scale_level(0.0, AttributeAction.BRIGHTEN)

    @settings(max_examples=100, deadline=None)
    @given(level=st.floats(-1.0, 1.0), zoom_in=st.booleans())
    def test_contraction(self, level, zoom_in):
        action = AttributeAction.ZOOM_IN if zoom_in else AttributeAction.ZOOM_OUT
        target = 1.0 if zoom_in else -1.0
        new = update_scale_level(level, action)
        assert -1.0 <= new <= 1.0
        assert abs(new - target) == pytest.approx(0.95 * abs(level - target), abs=1e-12)


class TestScaleFactor:
    def test_unchanged_level(self):
        assert scale_factor_for_step(0.3, 0.3) == pytest.approx(1.0)

    def test_positive_delta(self):
        assert scale_factor_for_step(0.0, 0.05) == pytest.approx(8.0**0.05)
        assert 8.0**0.05 == pytest.approx(1.10957, abs=1e-5)

    def test_negative_delta_and_inverse(self):
        f_down = scale_factor_for_step(0.05, 0.0)
        assert f_down == pytest.approx(0.90125, abs=1e-5)
        assert f_down * scale_factor_for_step(0.0, 0.05) == pytest.approx(1.0)

    def test_area_level_shift_identity(self):
        # Multiplying areas by f^2 shifts the level by log_theta(f).
        for before, after in ((-0.5, 0.2), (0.1, 0.15), (0.9, -0.9)):
            f = scale_factor_for_step(before, after)
            area = 3000.0
            shifted = estimate_scale_level(area * f * f) - estimate_scale_level(area)
            if abs(estimate_scale_level(area * f * f)) < 1.0:
                assert shifted == pytest.approx(after - before, abs=1e-9)
