import numpy as np

from rlaod.environment import SceneParams, generate_scene, scale_boxes
from rlaod.metrics import Box2D, GroundTruthBox


SMALL = SceneParams(width=96, height=96, count_range=(0, 3), area_range=(676.0, 1600.0))


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(41, SMALL)
        b = generate_scene(41, SMALL)
        assert np.array_equal(a.image.pixels, b.image.pixels)
        assert a.truths == b.truths
        assert a.nominal_level_b == b.nominal_level_b

    def test_zero_count_range(self):
        scene = generate_scene(7, SceneParams(width=64, height=64, count_range=(0, 0)))
        assert scene.truths == []
        assert scene.nominal_mean_area == 0.0

    def test_truths_within_bounds(self):
        for seed in range(30):
            scene = generate_scene(seed, SMALL)
            for t in scene.truths:
                assert 0.0 <= t.box.x_min < t.box.x_max <= scene.image.width
                assert 0.0 <= t.box.y_min < t.box.y_max <= scene.image.height

    def test_boxes_are_tight(self):
        # Every truth box edge must touch drawn (bright) pixels.
        scene = generate_scene(3, SMALL)
        v = scene.image.pixels[..., 0].astype(float)
        bg_max = 140.0
        for t in scene.truths:
            x0, y0 = int(t.box.x_min), int(t.box.y_min)
            x1, y1 = int(t.box.x_max), int(t.box.y_max)
            patch = v[y0:y1, x0:x1]
            assert patch[0, :].max() > bg_max
            assert patch[-1, :].max() > bg_max
            assert patch[:, 0].max() > bg_max
            assert patch[:, -1].max() > bg_max

    def test_empty_scene_fraction(self):
        empties = sum(1 for s in range(300) if not generate_scene(s, SMALL).truths)
        assert 0.03 <= empties / 300 <= 0.25

    def test_mean_area_near_midpoint(self):
        areas = [
            t.box.area for s in range(150) for t in generate_scene(s, SMALL).truths
        ]
        mid = 0.5 * sum(SMALL.area_range)
        assert abs(np.mean(areas) - mid) / mid < 0.25

    def test_default_params_500_scene_mean_area(self):
        # Placement rejection skews large objects slightly; the empirical
        # mean must stay within 20% of the configured midpoint.
        params = SceneParams()
        areas = [
            t.box.area for s in range(500) for t in generate_scene(s, params).truths
        ]
        mid = 0.5 * sum(params.area_range)
        assert abs(np.mean(areas) - mid) / mid <= 0.20

    def test_tinted_scene_has_color(self):
        params = SceneParams(
            width=64, height=64, count_range=(1, 2), area_range=(676.0, 900.0),
            tint_strength=0.08,
        )
        scene = generate_scene(5, params)
        px = scene.image.pixels
        assert not np.array_equal(px[..., 0], px[..., 1])


class TestScaleBoxes:
    def test_exact_scaling(self):
        truths = [GroundTruthBox(Box2D(10.0, 20.0, 30.0, 60.0))]
        out = scale_boxes(truths, 0.5, 100.0, 100.0)
        b = out[0].box
        assert (b.x_min, b.y_min, b.x_max, b.y_max) == (5.0, 10.0, 15.0, 30.0)

    def test_composition_commutes(self):
        truths = [GroundTruthBox(Box2D(3.0, 4.0, 50.0, 41.0))]
        f1, f2 = 1.7, 0.45
        via_two = scale_boxes(scale_boxes(truths, f1, 1e6, 1e6), f2, 1e6, 1e6)
        direct = scale_boxes(truths, f1 * f2, 1e6, 1e6)
        from rlaod.metrics import iou

        assert iou(via_two[0].box, direct[0].box) > 1.0 - 1e-6

    def test_clips_to_bounds(self):
        truths = [GroundTruthBox(Box2D(0.0, 0.0, 100.0, 100.0))]
        out = scale_boxes(truths, 1.5, 120.0, 120.0)
        assert out[0].box.x_max == 120.0

    def test_category_preserved(self):
        truths = [GroundTruthBox(Box2D(0.0, 0.0, 10.0, 10.0), category=7)]
        assert scale_boxes(truths, 2.0, 100.0, 100.0)[0].category == 7
