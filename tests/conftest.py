import numpy as np
import pytest

from rlaod.imaging import BrightnessModel, RgbImage, render_brightness


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def uniform_ramp_base(shape, rng):
    """Base matrix whose interpolated-decile estimate is exactly zero:
    an evenly spaced ramp over [0, 255], shuffled."""
    n = shape[0] * shape[1]
    vals = np.linspace(0.0, 255.0, n)
    rng.shuffle(vals)
    return vals.reshape(shape)


def rendered_image(level, shape, rng):
    """Grayscale RgbImage whose V channel is an exact render of a
    zero-estimate base at `level` (quantized to 8 bits)."""
    base = uniform_ramp_base(shape, rng)
    v = render_brightness(BrightnessModel(level=0.0, base=base), level)
    q = np.floor(v + 0.5).astype(np.uint8)
    return RgbImage(pixels=np.repeat(q[..., None], 3, axis=2))


def per_call_hsv_to_rgb(h, s, v):
    """HSV -> RGB as a single pass with no precomputed hue weights, clamping
    every intermediate: the reference the rendering path must match bit for
    bit. Returns (h, w, 3) uint8."""
    v = np.minimum(np.maximum(v, 0.0), 255.0)
    s = np.minimum(np.maximum(s, 0.0), 1.0)
    h60 = (h % 360.0) / 60.0
    c = v * s
    out = np.empty(v.shape + (3,), dtype=np.uint8)
    for i, n in enumerate((5.0, 3.0, 1.0)):
        k = (n + h60) % 6.0
        w = np.minimum(np.minimum(k, 4.0 - k), 1.0)
        chan = v - c * np.maximum(w, 0.0)
        out[..., i] = np.minimum(np.maximum(np.floor(chan + 0.5), 0.0), 255.0)
    return out
