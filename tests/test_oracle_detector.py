import numpy as np
import pytest

from rlaod.environment import (
    DetectorCalibration,
    OracleDetector,
    SceneParams,
    area_quality,
    brightness_quality,
    generate_scene,
)
from rlaod.imaging import RgbImage, render_brightness
from rlaod.metrics import performance_score

from conftest import rendered_image

PARAMS = SceneParams(width=96, height=96, count_range=(1, 3), area_range=(676.0, 1600.0))


class TestQualityBands:
    def test_brightness_quality_shape(self):
        calib = DetectorCalibration()
        assert brightness_quality(0.0, calib) == 1.0
        assert brightness_quality(0.15, calib) == 1.0
        assert brightness_quality(-0.15, calib) == 1.0
        assert brightness_quality(0.9, calib) == 0.0
        assert brightness_quality(-0.95, calib) == 0.0
        mid = brightness_quality(0.525, calib)  # halfway through the decay
        assert mid == pytest.approx(0.5)

    def test_area_quality_shape(self):
        calib = DetectorCalibration()
        lo, hi = calib.area_full_band
        assert area_quality(lo, calib) == 1.0
        assert area_quality(hi, calib) == 1.0
        assert area_quality(calib.area_zero_below, calib) == 0.0
        assert area_quality(calib.area_zero_above, calib) == 0.0
        geo_mid = np.sqrt(calib.area_zero_below * lo)
        assert area_quality(geo_mid, calib) == pytest.approx(0.5)


class TestOracleDetect:
    def test_clean_scene_near_perfect(self):
        det = OracleDetector()
        for seed in range(20):
            scene = generate_scene(seed, PARAMS)
            out = det.detect(scene.image, scene.truths, scene.seed)
            p = performance_score(out.detections, scene.truths)
            assert p >= 0.95, f"seed {seed}: p={p}"

    def test_extreme_brightness_kills_detections(self, rng):
        det = OracleDetector()
        scene = generate_scene(1, PARAMS)
        for level in (-0.92, 0.92):
            extreme = rendered_image(level, (96, 96), rng)
            out = det.detect(extreme, scene.truths, scene.seed)
            assert out.detections == [], f"level {level}"

    def test_deterministic(self):
        det = OracleDetector()
        scene = generate_scene(9, PARAMS)
        a = det.detect(scene.image, scene.truths, scene.seed)
        b = det.detect(scene.image, scene.truths, scene.seed)
        assert [d.box for d in a.detections] == [d.box for d in b.detections]
        assert np.array_equal(a.context, b.context)

    def test_context_shape_and_determinism_across_instances(self):
        scene = generate_scene(2, PARAMS)
        a = OracleDetector().detect(scene.image, scene.truths, scene.seed)
        b = OracleDetector().detect(scene.image, scene.truths, scene.seed)
        assert a.context.shape == (512,)
        assert np.all(np.isfinite(a.context))
        assert np.array_equal(a.context, b.context)

    def test_precomputed_v_equivalent(self):
        from rlaod.imaging import value_channel

        det = OracleDetector()
        scene = generate_scene(4, PARAMS)
        v = value_channel(scene.image)
        a = det.detect(scene.image, scene.truths, scene.seed)
        b = det.detect(scene.image, scene.truths, scene.seed, precomputed_v=v)
        assert [d.box for d in a.detections] == [d.box for d in b.detections]

    def test_unimodal_quality_over_brightness(self, rng):
        """Sweep the rendered level; p must rise to a plateau and then fall."""
        det = OracleDetector()
        scene = generate_scene(12, PARAMS)
        from rlaod.imaging import fit_brightness_base, value_channel, estimate_brightness_level

        v = value_channel(scene.image)
        model = fit_brightness_base(v, estimate_brightness_level(v))
        levels = np.linspace(-0.95, 0.95, 39)
        ps = []
        for lv in levels:
            vv = render_brightness(model, lv)
            img = RgbImage(np.floor(vv + 0.5).astype(np.uint8)[None])
            out = det.detect(img, scene.truths, scene.seed)
            ps.append(performance_score(out.detections, scene.truths))
        ps = np.array(ps)
        peak = ps.argmax()
        assert ps[peak] >= 0.95
        # Within the full band the score stays at the plateau value.
        in_band = np.abs(levels) <= 0.15
        assert ps[in_band].min() >= 0.95
        # Unimodal within tolerance: non-decreasing up to the plateau,
        # non-increasing after it.
        rising, falling = ps[: peak + 1], ps[peak:]
        assert np.all(np.diff(rising) >= -0.02)
        assert np.all(np.diff(falling) <= 0.02)

    def test_false_positive_rate_configurable(self):
        calib = DetectorCalibration(false_positive_rate=1.0)
        det = OracleDetector(calib)
        scene = generate_scene(6, SceneParams(width=64, height=64, count_range=(0, 0)))
        out = det.detect(scene.image, scene.truths, scene.seed)
        assert len(out.detections) == 1  # the synthetic false positive

    def test_no_false_positives_by_default(self):
        det = OracleDetector()
        scene = generate_scene(6, SceneParams(width=64, height=64, count_range=(0, 0)))
        assert det.detect(scene.image, scene.truths, scene.seed).detections == []


def test_calibration_validation():
    with pytest.raises(ValueError):
        DetectorCalibration(bright_full_band=0.95)
    with pytest.raises(ValueError):
        DetectorCalibration(area_zero_below=1e9)
