import numpy as np
import pytest

from dataclasses import replace

from conftest import per_call_hsv_to_rgb, per_pixel_render
from rlaod.environment import (
    DegradeKind,
    DegradeOp,
    OracleDetector,
    SceneParams,
    degrade,
    detection_mean_area,
    generate_scene,
    reset_episode,
    step_episode,
)
from rlaod.environment import detector as detector_module
from rlaod.environment import episode as episode_module
from rlaod.errors import ContractViolation
from rlaod.imaging import color as color_module
from rlaod.imaging import (
    THETA,
    AttributeAction,
    RgbImage,
    estimate_scale_level,
    resize_bilinear,
    rgb_to_hsv,
    value_channel,
)

PARAMS = SceneParams(width=96, height=96, count_range=(1, 3), area_range=(676.0, 1600.0))


@pytest.fixture
def detector():
    return OracleDetector()


def clean_episode(seed=21, horizon=4, detector=None):
    scene = generate_scene(seed, PARAMS)
    return reset_episode(scene, detector or OracleDetector(), horizon)


class TestReset:
    def test_clean_scene_levels(self, detector):
        ep = clean_episode(detector=detector)
        assert abs(ep.level_b) <= 0.15
        mean_area = detection_mean_area(ep.last_output)
        assert ep.level_s == pytest.approx(estimate_scale_level(mean_area))
        # On a clean scene detections coincide with the truths, so the scale
        # level matches the nominal mean object area.
        assert ep.level_s == pytest.approx(
            estimate_scale_level(ep.original.nominal_mean_area), abs=1e-6
        )
        assert ep.cumulative_scale_factor == 1.0
        assert ep.step == 0

    def test_zero_detection_scale_sentinel(self, detector, rng):
        from conftest import rendered_image

        scene = generate_scene(5, PARAMS)
        dark = rendered_image(-0.93, (96, 96), rng)
        from dataclasses import replace

        dark_scene = replace(scene, image=dark)
        ep = reset_episode(dark_scene, detector, 4)
        assert ep.last_output.detections == []
        assert ep.level_s == 0.0

    def test_p_recorded(self, detector):
        scene = generate_scene(8, PARAMS)
        ep = reset_episode(scene, detector, 4)
        from rlaod.metrics import performance_score

        assert ep.last_p == performance_score(ep.last_output.detections, scene.truths)

    def test_bad_horizon(self, detector):
        with pytest.raises(ValueError):
            reset_episode(generate_scene(1, PARAMS), detector, 0)

    @pytest.mark.parametrize("tint", [0.0, 0.25])
    def test_estimates_brightness_once(self, detector, monkeypatch, tint):
        # The reset and every step count their frame's V values once and
        # hand the level to the oracle, which then sorts no V plane. Each
        # level is the float sort of the frame's V plane, and the oracle's
        # output equals its own pass over the frame.
        scene = degrade(
            generate_scene(6, replace(PARAMS, tint_strength=tint)),
            DegradeOp(DegradeKind.UNDER_EXPOSE, 0.5),
        )
        passes = []

        class Spy:
            def detect(self, image, truths, seed, **kw):
                passes.append((image, truths, seed, kw))
                return detector.detect(image, truths, seed, **kw)

        sorts = []
        estimate = detector_module.estimate_brightness_level

        def counting(v):
            sorts.append(v)
            return estimate(v)

        monkeypatch.setattr(detector_module, "estimate_brightness_level", counting)
        ep = reset_episode(scene, Spy(), 5)
        episodes = [ep]
        B, D = AttributeAction.BRIGHTEN, AttributeAction.DARKEN
        zi, zo = AttributeAction.ZOOM_IN, AttributeAction.ZOOM_OUT
        for a_b, a_s in [(B, None), (B, zi), (None, zo), (D, None), (None, zo)]:
            ep, _, _, _ = step_episode(ep, a_b, a_s)
            episodes.append(ep)
        assert sorts == [] and len(passes) == len(episodes)
        monkeypatch.undo()
        for ep, (image, truths, seed, kw) in zip(episodes, passes):
            v = value_channel(image)
            assert np.array_equal(kw["precomputed_v"], v)
            assert np.array_equal(ep.current_image.v_counts, np.bincount(v.ravel(), minlength=256))
            assert kw["precomputed_level"] == estimate(v.astype(np.float64))
            want = detector.detect(image, truths, seed)
            assert ep.last_output.detections == want.detections
            assert ep.last_output.context.tobytes() == want.context.tobytes()
        assert episodes[0].level_b == estimate(value_channel(scene.image).astype(np.float64))


class TestStep:
    def test_restoring_underexposed_scene_rewards(self, detector):
        scene = degrade(generate_scene(3, PARAMS), DegradeOp(DegradeKind.UNDER_EXPOSE, 0.6))
        ep = reset_episode(scene, detector, 8)
        assert ep.level_b == pytest.approx(-0.6, abs=0.05)
        rewards = []
        for _ in range(6):
            ep, r_b, r_s, _ = step_episode(ep, AttributeAction.BRIGHTEN, None)
            assert r_s is None
            rewards.append(r_b)
        assert ep.last_p > 0.9
        assert 1 in rewards  # restoring actions must earn positive reward
        assert sum(rewards) > 0
        assert all(r in (-1, 0, 1) for r in rewards)

    def test_saturating_action_near_fixed_point_zero_reward(self, detector, rng):
        # On an all-white image the base saturates at 255, so further
        # brightening leaves the image untouched and earns no reward.
        from conftest import rendered_image
        from dataclasses import replace

        scene = generate_scene(3, PARAMS)
        bright = rendered_image(1.0, (96, 96), rng)
        ep = reset_episode(replace(scene, image=bright), detector, 2)
        assert ep.level_b >= 0.98  # estimate 1.0, clamped for the fit
        before = ep.last_p
        ep, r_b, _, _ = step_episode(ep, AttributeAction.BRIGHTEN, None)
        assert np.array_equal(ep.current_image.pixels, bright.pixels)
        assert r_b == 0
        assert ep.last_p == before

    def test_horizon_one_terminal(self, detector):
        ep = clean_episode(horizon=1, detector=detector)
        ep, _, _, terminal = step_episode(ep, AttributeAction.BRIGHTEN, None)
        assert terminal
        with pytest.raises(ContractViolation):
            step_episode(ep, AttributeAction.BRIGHTEN, None)

    def test_requires_an_action(self, detector):
        ep = clean_episode(detector=detector)
        with pytest.raises(ValueError):
            step_episode(ep, None, None)

    def test_cumulative_factor_invariant(self, detector):
        ep = clean_episode(horizon=6, detector=detector)
        for i in range(6):
            action = AttributeAction.ZOOM_IN if i % 2 else AttributeAction.ZOOM_OUT
            ep, _, _, _ = step_episode(ep, None, action)
            expected = THETA ** (ep.level_s - ep.initial_scale_level)
            assert ep.cumulative_scale_factor == pytest.approx(expected, rel=1e-9)

    def test_determinism(self, detector):
        actions = [AttributeAction.BRIGHTEN, AttributeAction.DARKEN, AttributeAction.BRIGHTEN]
        trajectories = []
        for _ in range(2):
            ep = clean_episode(detector=detector)
            ps = []
            for a in actions:
                ep, _, _, _ = step_episode(ep, a, AttributeAction.ZOOM_IN)
                ps.append(ep.last_p)
            trajectories.append((ps, ep.current_image.pixels.copy()))
        assert trajectories[0][0] == trajectories[1][0]
        assert np.array_equal(trajectories[0][1], trajectories[1][1])

    def test_truth_scaling_consistency(self, detector):
        # The detector scores each frame against the truths scaled by the
        # episode's cumulative factor.
        seen = []

        class SpyDetector:
            def detect(self, image, truths, seed, **kw):
                seen.append(truths)
                return detector.detect(image, truths, seed, **kw)

        ep = clean_episode(horizon=4, detector=SpyDetector())
        scene = ep.original
        for _ in range(4):
            ep, _, _, _ = step_episode(ep, None, AttributeAction.ZOOM_OUT)
        f = ep.cumulative_scale_factor
        assert f < 1.0 and len(seen) == 5
        assert len(seen[-1]) == len(scene.truths) > 0
        for orig, cur in zip(scene.truths, seen[-1]):
            assert cur.box.area == pytest.approx(orig.box.area * f * f, rel=1e-6)

    @pytest.mark.parametrize("tint", [0.0, 0.25])
    def test_renders_only_when_level_b_changes(self, detector, monkeypatch, tint):
        # A step renders brightness only when L^b moved; scale-only steps
        # resize the cached frame.
        renders = []
        render = episode_module.render_brightness

        def counting(*args):
            renders.append(args)
            return render(*args)

        monkeypatch.setattr(episode_module, "render_brightness", counting)
        scene = generate_scene(9, replace(PARAMS, tint_strength=tint))
        ep = reset_episode(scene, detector, 6)
        B, D = AttributeAction.BRIGHTEN, AttributeAction.DARKEN
        zi, zo = AttributeAction.ZOOM_IN, AttributeAction.ZOOM_OUT
        per_step = []
        for a_b, a_s in [(None, zi), (None, zo), (B, None), (None, zi), (D, zi), (None, zo)]:
            before = len(renders)
            ep, _, _, _ = step_episode(ep, a_b, a_s)
            per_step.append(len(renders) - before)
        assert per_step == [1, 0, 1, 0, 1, 0]

    def test_gray_fast_path_matches_rgb_path(self, detector):
        # The single-plane rebuild used for gray scenes must be bit-identical
        # to the general RGB rebuild, which a three-plane original takes.
        actions = [
            (AttributeAction.BRIGHTEN, AttributeAction.ZOOM_IN),
            (AttributeAction.DARKEN, AttributeAction.ZOOM_OUT),
            (AttributeAction.DARKEN, AttributeAction.ZOOM_OUT),
        ]
        fast = clean_episode(seed=55, detector=detector)
        planes = fast.original.image.planes
        assert len(planes) == 1
        three = RgbImage(np.repeat(planes, 3, axis=0))
        slow = replace(fast, original=replace(fast.original, image=three))
        for a_b, a_s in actions:
            fast, _, _, _ = step_episode(fast, a_b, a_s)
            slow, _, _, _ = step_episode(slow, a_b, a_s)
            assert np.array_equal(fast.current_image.pixels, slow.current_image.pixels)
            assert fast.last_p == slow.last_p
        # The gray original renders its 256 values; the three-plane one its
        # own distinct colours.
        assert len(fast.palette.colours.planes) == 1
        assert len(slow.palette.colours.planes) == 3

    def test_tinted_render_matches_per_call_formula(self, detector):
        # The palette's colours are converted once per episode, on its first
        # render; every frame must equal a per-pixel render of the original's
        # V plane, converted afresh, bit for bit.
        from dataclasses import replace

        scene = generate_scene(9, replace(PARAMS, tint_strength=0.25))
        scene = degrade(scene, DegradeOp(DegradeKind.UNDER_EXPOSE, 0.5))
        ep = reset_episode(scene, detector, 6)
        assert len(scene.image.planes) == 3 and ep.palette_weights is None
        hsv = rgb_to_hsv(scene.image)
        B, D = AttributeAction.BRIGHTEN, AttributeAction.DARKEN
        zi, zo = AttributeAction.ZOOM_IN, AttributeAction.ZOOM_OUT
        for a_b, a_s in [(None, zo), (B, zi), (B, None), (None, zi), (D, zo), (B, zo)]:
            ep, _, _, _ = step_episode(ep, a_b, a_s)
            assert ep.palette_weights is not None
            v = per_pixel_render(scene.image, ep.level_b)
            rgb = RgbImage.from_pixels(per_call_hsv_to_rgb(hsv.h, hsv.s, v))
            want = resize_bilinear(rgb, ep.cumulative_scale_factor)
            assert np.array_equal(ep.current_image.pixels, want.pixels)

    def test_both_agents_same_reward_value(self, detector):
        scene = degrade(generate_scene(7, PARAMS), DegradeOp(DegradeKind.UNDER_EXPOSE, 0.5))
        ep = reset_episode(scene, detector, 2)
        _, r_b, r_s, _ = step_episode(ep, AttributeAction.BRIGHTEN, AttributeAction.ZOOM_IN)
        assert r_b is not None and r_s is not None
        assert r_b == r_s


class TestResetSkipsHsv:
    """Only a render needs HSV: a reset never converts or factors the image,
    and an episode converts its palette's colours once, on its first render.
    The palette is factored once per image and shared by its episodes."""

    B, D = AttributeAction.BRIGHTEN, AttributeAction.DARKEN
    ZI, ZO = AttributeAction.ZOOM_IN, AttributeAction.ZOOM_OUT

    @pytest.fixture
    def conversions(self, monkeypatch):
        calls = []
        convert = episode_module.rgb_to_hsv

        def counting(img):
            calls.append(img)
            return convert(img)

        monkeypatch.setattr(episode_module, "rgb_to_hsv", counting)
        return calls

    @pytest.fixture
    def factorings(self, monkeypatch):
        calls = []
        factor = color_module.factor_palette

        def counting(img):
            calls.append(img)
            return factor(img)

        monkeypatch.setattr(color_module, "factor_palette", counting)
        return calls

    def test_gray_episode(self, detector, conversions, factorings):
        scene = degrade(generate_scene(13, PARAMS), DegradeOp(DegradeKind.OVER_EXPOSE, 0.5))
        # degrade renders on the clean image's palette; count from here on.
        conversions.clear()
        factorings.clear()
        ep = reset_episode(scene, detector, 4)
        assert len(scene.image.planes) == 1 and ep.palette is None
        assert conversions == [] and factorings == []
        for a_b, a_s in [(self.B, self.ZI), (self.D, None), (None, self.ZO), (self.D, self.ZO)]:
            ep, _, _, _ = step_episode(ep, a_b, a_s)
        # The 256 gray values, converted once.
        assert factorings == [scene.image]
        assert len(conversions) == 1 and conversions[0] is ep.palette.colours
        assert conversions[0].planes.shape == (1, 1, 256)

    def test_tinted_reset(self, detector, conversions, factorings):
        scene = generate_scene(9, replace(PARAMS, tint_strength=0.25))
        ep = reset_episode(scene, detector, 4)
        assert len(scene.image.planes) == 3 and ep.palette is None
        assert conversions == [] and factorings == []

    def test_tinted_episode_converts_once(self, detector, conversions, factorings):
        clean = generate_scene(9, replace(PARAMS, tint_strength=0.25))
        scene = degrade(clean, DegradeOp(DegradeKind.UNDER_EXPOSE, 0.5))
        # degrade factors and converts the clean image; count from here on.
        assert factorings == [clean.image] and len(conversions) == 1
        conversions.clear()
        factorings.clear()
        ep = reset_episode(scene, detector, 5)
        assert conversions == [] and factorings == []
        for a_b, a_s in [(self.B, None), (self.B, self.ZI), (None, self.ZO), (self.D, None), (self.B, self.ZO)]:
            ep, _, _, _ = step_episode(ep, a_b, a_s)
        assert len(conversions) == 1 and conversions[0] is scene.image.palette.colours
        assert ep.palette is scene.image.palette
        assert factorings == [scene.image]
        # An episode on the clean image shares the factorization degrade made.
        step_episode(reset_episode(clean, detector, 1), self.B, None)
        assert factorings == [scene.image]

    def test_two_episodes_factor_once(self, detector, conversions, factorings):
        scene = generate_scene(9, replace(PARAMS, tint_strength=0.25))
        eps = [reset_episode(scene, detector, 2) for _ in range(2)]
        assert factorings == []
        eps = [step_episode(ep, self.B, self.ZO)[0] for ep in eps]
        assert factorings == [scene.image]
        assert eps[0].palette is eps[1].palette is scene.image.palette
        # Each episode converts the shared colours itself.
        assert len(conversions) == 2
        assert np.array_equal(eps[0].current_image.planes, eps[1].current_image.planes)


class TestTowardNominalPolicy:
    """Environment sanity: steering both attributes toward nominal never
    reduces p on degraded scenes."""

    @staticmethod
    def toward_nominal_actions(ep):
        a_b = (
            AttributeAction.BRIGHTEN
            if ep.level_b < ep.original.nominal_level_b
            else AttributeAction.DARKEN
        )
        target_s = estimate_scale_level(
            ep.original.nominal_mean_area * ep.cumulative_scale_factor**2
            if ep.original.nominal_mean_area
            else None
        )
        a_s = AttributeAction.ZOOM_IN if target_s < 0 else AttributeAction.ZOOM_OUT
        return a_b, a_s

    @pytest.mark.parametrize(
        "op",
        [
            DegradeOp(DegradeKind.UNDER_EXPOSE, 0.7),
            DegradeOp(DegradeKind.OVER_EXPOSE, 0.55),
            DegradeOp(DegradeKind.ZOOM_OUT, 0.2),
        ],
    )
    def test_p_non_decreasing(self, detector, op):
        for seed in (31, 37):
            scene = degrade(generate_scene(seed, PARAMS), op)
            if not scene.truths:
                continue
            ep = reset_episode(scene, detector, 10)
            history = [ep.last_p]
            for _ in range(10):
                a_b, a_s = self.toward_nominal_actions(ep)
                ep, _, _, _ = step_episode(ep, a_b, a_s)
                history.append(ep.last_p)
            for before, after in zip(history, history[1:]):
                assert after >= before - 0.02, history

