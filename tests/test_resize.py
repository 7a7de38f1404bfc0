import numpy as np
import pytest

from rlaod.imaging import (
    MAX_SIDE,
    MIN_SIDE,
    RgbImage,
    resample_bilinear,
    resize_bilinear,
    scaled_dims,
)


def loop_bilinear(src, out_h, out_w):
    """Independent oracle: per-pixel corner-aligned bilinear with plain loops."""
    src = np.asarray(src, dtype=np.float64)
    h, w = src.shape[:2]
    out = np.zeros((out_h, out_w) + src.shape[2:])
    for i in range(out_h):
        for j in range(out_w):
            sy = (h - 1) / 2.0 if out_h == 1 else i * (h - 1) / (out_h - 1)
            sx = (w - 1) / 2.0 if out_w == 1 else j * (w - 1) / (out_w - 1)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y0, x0 = min(y0, h - 1), min(x0, w - 1)
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            top = src[y0, x0] * (1 - fx) + src[y0, x1] * fx
            bot = src[y1, x0] * (1 - fx) + src[y1, x1] * fx
            out[i, j] = top * (1 - fy) + bot * fy
    return out


def separable_bilinear(values, out_h, out_w):
    """The separable formula resample_bilinear computes, without cached axis
    tables or row gathers: convert the whole frame, blend rows, then columns.
    The results must be equal bit for bit, not merely close."""
    src = np.asarray(values, dtype=np.float64)
    h, w = src.shape[:2]

    def coords(n_out, n_in):
        if n_out == 1:
            return np.array([(n_in - 1) / 2.0])
        return np.arange(n_out) * ((n_in - 1) / (n_out - 1))

    ys, xs = coords(out_h, h), coords(out_w, w)
    y0 = np.minimum(np.floor(ys).astype(np.int64), h - 1)
    x0 = np.minimum(np.floor(xs).astype(np.int64), w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).reshape(-1, 1)
    wx = (xs - x0).reshape(1, -1)
    if src.ndim == 3:
        wy = wy[..., None]
        wx = wx[..., None]
    rows = src[y0] * (1.0 - wy) + src[y1] * wy
    return rows[:, x0] * (1.0 - wx) + rows[:, x1] * wx


def checkerboard():
    return np.array([[0.0, 255.0], [255.0, 0.0]])


class TestResample:
    def test_matches_loop_oracle(self, rng):
        src = rng.uniform(0, 255, size=(7, 5))
        got = resample_bilinear(src, 11, 9)
        assert got == pytest.approx(loop_bilinear(src, 11, 9), abs=1e-9)

    def test_matches_loop_oracle_3ch(self, rng):
        # Channels resample as separate planes, as resize_bilinear runs them.
        src = rng.uniform(0, 255, size=(6, 6, 3))
        got = np.stack([resample_bilinear(src[..., c], 4, 13) for c in range(3)], axis=-1)
        assert got == pytest.approx(loop_bilinear(src, 4, 13), abs=1e-9)

    def test_rejects_non_plane(self, rng):
        with pytest.raises(ValueError, match="plane"):
            resample_bilinear(rng.uniform(0, 255, size=(6, 6, 3)), 4, 13)

    def test_checkerboard_3x3_center_is_midpoint(self):
        # Upscaling 2x2 -> 3x3 samples the exact center: mean of all corners.
        out = resample_bilinear(checkerboard(), 3, 3)
        assert out[1, 1] == pytest.approx(127.5)
        assert out[0, 1] == pytest.approx(127.5)
        assert np.floor(out[1, 1] + 0.5) == 128  # the documented rounding rule

    def test_checkerboard_4x4_hand_values(self):
        out = resample_bilinear(checkerboard(), 4, 4)
        expected = loop_bilinear(checkerboard(), 4, 4)
        assert out == pytest.approx(expected, abs=1e-9)
        # corner pixels keep their source values
        assert out[0, 0] == 0.0 and out[0, 3] == 255.0
        # (1,1) sits at source (1/3, 1/3): hand-computed 4/9 * 255
        assert out[1, 1] == pytest.approx(255.0 * 4.0 / 9.0)

    def test_constant_invariance(self):
        src = np.full((4, 4), 77.0)
        for factor_dims in ((9, 5), (3, 17)):
            out = resample_bilinear(src, *factor_dims)
            assert out == pytest.approx(np.full(factor_dims, 77.0))


# (source h, w) -> (out h, w): upscale, downscale, out == 1, non-square.
SIZE_PAIRS = [
    ((7, 5), (11, 9)),
    ((96, 96), (57, 57)),
    ((96, 96), (144, 144)),
    ((31, 64), (64, 17)),
    ((2, 2), (1, 1)),
    ((9, 13), (1, 20)),
    ((12, 10), (25, 1)),
    ((1, 6), (4, 3)),
    ((5, 1), (8, 8)),
]


class TestResampleBits:
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_equals_separable_formula(self, rng, dtype):
        for (h, w), (out_h, out_w) in SIZE_PAIRS:
            src = rng.integers(0, 256, (h, w)).astype(dtype)
            if dtype is np.float64:
                src += rng.uniform(0.0, 1.0, (h, w))
            want = separable_bilinear(src, out_h, out_w)
            for _ in range(2):  # the second call reads the cached tables
                got = resample_bilinear(src, out_h, out_w)
                assert got.dtype == np.float64 and got.shape == want.shape
                assert np.array_equal(got, want), ((h, w), (out_h, out_w))


def rounded_separable(pixels, factor):
    """resize_bilinear's result by the separable formula on all three
    channels at once, rounded half-up and clamped to uint8."""
    out_w, out_h = scaled_dims(pixels.shape[1], pixels.shape[0], factor)
    if (out_w, out_h) == pixels.shape[1::-1]:
        return pixels.copy()
    full = separable_bilinear(pixels, out_h, out_w)
    return np.minimum(np.floor(full + 0.5), 255.0).astype(np.uint8)


def layouts(pixels):
    """Three planes of the same (h, w, 3) pixels: viewed through an
    interleaved copy, and as a contiguous copy."""
    return {
        "interleaved": RgbImage(np.moveaxis(pixels.copy(), -1, 0)),
        "planar": RgbImage(np.moveaxis(pixels, -1, 0).copy()),
    }


class TestResizeBits:
    FACTORS = [0.3, 0.75, 1.0, 1.6, 2.5]

    @pytest.mark.parametrize("layout", ["interleaved", "planar"])
    def test_equals_separable_formula(self, rng, layout):
        for (h, w), _ in SIZE_PAIRS:
            pixels = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            img = layouts(pixels)[layout]
            for factor in self.FACTORS:
                want = rounded_separable(pixels, factor)
                for _ in range(2):  # the second call reads the cached tables
                    got = resize_bilinear(img, factor).pixels
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), ((h, w), factor)

    def test_strided_source(self, rng):
        pixels = rng.integers(0, 256, (20, 30, 3), dtype=np.uint8)[::2, 1::3]
        got = resize_bilinear(RgbImage(np.moveaxis(pixels, -1, 0)), 1.3).pixels
        assert np.array_equal(got, rounded_separable(pixels, 1.3))

    def test_rgb_channels_equal_gray_resample(self, rng):
        # The gray episode path resamples one plane and views it three times.
        v = rng.integers(0, 256, (33, 47), dtype=np.uint8)
        rgb = RgbImage(np.repeat(v[None], 3, axis=0))
        got = resize_bilinear(rgb, 1.4).pixels
        for c in range(3):
            assert np.array_equal(got[..., c], resize_bilinear(RgbImage(v[None]), 1.4).planes[0])


class TestResizeBilinear:
    def test_identity_factor(self, rng):
        img = RgbImage.from_pixels(rng.integers(0, 256, (12, 10, 3), dtype=np.uint8))
        out = resize_bilinear(img, 1.0)
        assert np.array_equal(out.pixels, img.pixels)

    def test_constant_image_any_factor(self):
        img = RgbImage.from_pixels(np.full((16, 16, 3), 99, dtype=np.uint8))
        for factor in (0.5, 1.7, 3.0):
            out = resize_bilinear(img, factor)
            assert np.all(out.pixels == 99)

    def test_dims_rounding_and_clamps(self):
        assert scaled_dims(100, 100, 0.5) == (50, 50)
        assert scaled_dims(10, 10, 0.1) == (MIN_SIDE, MIN_SIDE)
        assert scaled_dims(4096, 4096, 2.0) == (MAX_SIDE, MAX_SIDE)
        assert scaled_dims(15, 15, 1.1) == (17, 17)  # 16.5 rounds half away

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            scaled_dims(10, 10, 0.0)
        with pytest.raises(ValueError):
            scaled_dims(10, 10, -1.0)

    def test_deterministic(self, rng):
        img = RgbImage.from_pixels(rng.integers(0, 256, (20, 20, 3), dtype=np.uint8))
        a = resize_bilinear(img, 1.3)
        b = resize_bilinear(img, 1.3)
        assert np.array_equal(a.pixels, b.pixels)

    def test_gray_image_resize_keeps_channels_equal(self, rng):
        v = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        img = RgbImage(np.repeat(v[None], 3, axis=0))
        out = resize_bilinear(img, 0.75)
        assert np.array_equal(out.pixels[..., 0], out.pixels[..., 1])
        assert np.array_equal(out.pixels[..., 1], out.pixels[..., 2])
