import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import per_call_hsv_to_rgb, reference_rgb_to_hsv, same_bits
from rlaod.environment import SceneParams, generate_scene
from rlaod.imaging import (
    HsvImage,
    RgbImage,
    estimate_brightness_level,
    fit_brightness_base,
    hsv_to_rgb,
    hue_weights,
    merge_v_channel,
    planar_image,
    render_brightness,
    rgb_to_hsv,
    value_channel,
)


def single_pixel(r, g, b):
    return RgbImage(pixels=np.array([[[r, g, b]]], dtype=np.uint8))


class TestRgbToHsv:
    def test_black_pixel(self):
        hsv = rgb_to_hsv(single_pixel(0, 0, 0))
        assert hsv.v[0, 0] == 0.0
        assert hsv.s[0, 0] == 0.0

    def test_white_pixel(self):
        hsv = rgb_to_hsv(single_pixel(255, 255, 255))
        assert hsv.v[0, 0] == 255.0
        assert hsv.s[0, 0] == 0.0

    def test_pure_red(self):
        # By the standard formulas: C = 255, H' = (G-B)/C = 0, S = C/V = 1.
        hsv = rgb_to_hsv(single_pixel(255, 0, 0))
        assert hsv.h[0, 0] == 0.0
        assert hsv.s[0, 0] == 1.0
        assert hsv.v[0, 0] == 255.0

    def test_pure_green_hue(self):
        hsv = rgb_to_hsv(single_pixel(0, 255, 0))
        assert hsv.h[0, 0] == 120.0

    def test_v_is_max_channel(self, rng):
        px = rng.integers(0, 256, size=(13, 7, 3), dtype=np.uint8)
        img = RgbImage(pixels=px)
        hsv = rgb_to_hsv(img)
        assert np.array_equal(hsv.v, px.max(axis=2).astype(float))
        assert np.array_equal(value_channel(img), hsv.v)

    def test_all_rgb_triples_match_reference(self):
        # Every one of the 2^24 triples, as 256 planar images of 256 x 256:
        # red fixed per image, green down the rows, blue along the columns.
        ramp = np.arange(256, dtype=np.uint8)
        planes = np.empty((3, 256, 256), dtype=np.uint8)
        planes[1] = ramp[:, None]
        planes[2] = ramp[None, :]
        for red in range(256):
            planes[0] = red
            img = planar_image(planes)
            got = rgb_to_hsv(img)
            for name, want in zip("hsv", reference_rgb_to_hsv(img.pixels)):
                assert same_bits(getattr(got, name), want), (red, name)

    def test_ranges(self, rng):
        hsv = rgb_to_hsv(RgbImage(pixels=rng.integers(0, 256, (20, 20, 3), dtype=np.uint8)))
        assert hsv.h.min() >= 0.0 and hsv.h.max() < 360.0
        assert hsv.s.min() >= 0.0 and hsv.s.max() <= 1.0
        assert hsv.v.min() >= 0.0 and hsv.v.max() <= 255.0


class TestHsvToRgb:
    def test_pure_green(self):
        shape = (1, 1)
        img = HsvImage(
            h=np.full(shape, 120.0), s=np.ones(shape), v=np.full(shape, 255.0)
        )
        assert tuple(hsv_to_rgb(img).pixels[0, 0]) == (0, 255, 0)

    def test_zero_v_is_black(self):
        shape = (2, 2)
        img = HsvImage(h=np.full(shape, 200.0), s=np.ones(shape), v=np.zeros(shape))
        assert np.all(hsv_to_rgb(img).pixels == 0)

    def test_round_trip_1000_random_pixels(self, rng):
        px = rng.integers(0, 256, size=(20, 50, 3), dtype=np.uint8)
        img = RgbImage(pixels=px)
        back = hsv_to_rgb(rgb_to_hsv(img))
        assert np.array_equal(back.pixels, px)

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.integers(0, 255),
        g=st.integers(0, 255),
        b=st.integers(0, 255),
    )
    def test_round_trip_property(self, r, g, b):
        img = single_pixel(r, g, b)
        assert np.array_equal(hsv_to_rgb(rgb_to_hsv(img)).pixels, img.pixels)


class TestHueWeights:
    def test_tinted_brightness_sweep_is_bit_identical(self):
        params = SceneParams(width=80, height=56, count_range=(1, 3),
                             area_range=(300.0, 900.0), tint_strength=0.25)
        for seed in (3, 4, 5):
            hsv = rgb_to_hsv(generate_scene(seed, params).image)
            assert hsv.s.max() > 0.0
            weights = hue_weights(hsv.h)
            model = fit_brightness_base(hsv.v, estimate_brightness_level(hsv.v))
            for level in np.linspace(-1.0, 1.0, 21):
                img = merge_v_channel(hsv, render_brightness(model, level))
                want = per_call_hsv_to_rgb(img.h, img.s, img.v)
                assert np.array_equal(hsv_to_rgb(img, weights).pixels, want)
                assert np.array_equal(hsv_to_rgb(img).pixels, want)

    def test_out_of_range_channels_match_clamped_formula(self, rng):
        shape = (17, 23)
        h = rng.uniform(-720.0, 720.0, shape)
        s = rng.uniform(-0.5, 1.5, shape)
        v = rng.uniform(-40.0, 300.0, shape)
        got = hsv_to_rgb(HsvImage(h=h, s=s, v=v), hue_weights(h)).pixels
        assert np.array_equal(got, per_call_hsv_to_rgb(h, s, v))

    def test_weights_equal_modulo_formula(self, rng):
        edges = [-1e-20, -0.0, 0.0, 1e-300, 59.99999999999999, 60.0, 180.0,
                 359.99999999999994, 360.0, 720.0, -360.0, -1e300,
                 np.nan, -np.nan, np.inf, -np.inf]
        h = np.concatenate([edges, rng.uniform(-1e4, 1e4, 200)]).reshape(4, -1)
        with np.errstate(invalid="ignore"):  # inf % 360 is NaN
            h60 = (h % 360.0) / 60.0
            got = hue_weights(h)
        for i, n in enumerate((5.0, 3.0, 1.0)):
            k = (n + h60) % 6.0
            want = np.maximum(np.minimum(np.minimum(k, 4.0 - k), 1.0), 0.0)
            assert same_bits(got[..., i], want), i


def test_rgb_image_validation():
    with pytest.raises(ValueError):
        RgbImage(pixels=np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        RgbImage(pixels=np.zeros((4, 4, 3), dtype=np.float64))
