import struct
import zlib

import numpy as np
import pytest
from hypothesis import settings

from rlaod.imaging import BrightnessModel, RgbImage, render_brightness
from rlaod.imaging.png import _SIGNATURE, _chunk

# `--hypothesis-profile=fuzz` runs the parser fuzz tests at length.
settings.register_profile("fuzz", max_examples=2000, deadline=None)


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
    return RgbImage(q[None])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, and NaN payloads count."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_rgb_to_hsv(pixels):
    """RGB -> HSV by the textbook formula in float64, with nested np.where
    and the float modulo: the reference rgb_to_hsv must match bit for bit.
    Takes (h, w, 3) uint8 pixels; returns (h, s, v) float64 planes."""
    r, g, b = (pixels[..., c].astype(np.float64) for c in range(3))
    v = np.maximum(np.maximum(r, g), b)
    c = v - np.minimum(np.minimum(r, g), b)
    safe_v = np.where(v > 0.0, v, 1.0)
    s = np.where(v > 0.0, c / safe_v, 0.0)
    safe_c = np.where(c > 0.0, c, 1.0)
    h = np.where(
        c <= 0.0,
        0.0,
        np.where(
            v == r,
            (g - b) / safe_c,
            np.where(v == g, (b - r) / safe_c + 2.0, (r - g) / safe_c + 4.0),
        ),
    )
    h = (h * 60.0) % 360.0
    return h, s, v


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


def filtered_png(pixels, filters) -> bytes:
    """An 8-bit RGB PNG of (h, w, 3) uint8 pixels, row y encoded with PNG
    filter type filters[y] (0 None, 1 Sub, 2 Up, 3 Average, 4 Paeth)."""
    h, w = pixels.shape[:2]
    raw = bytearray()
    prev = [0] * (w * 3)
    for y in range(h):
        line = pixels[y].ravel().tolist()
        filt = int(filters[y])
        raw.append(filt)
        for i in range(w * 3):
            a = line[i - 3] if i >= 3 else 0
            b = prev[i]
            c = prev[i - 3] if i >= 3 else 0
            if filt == 0:
                pred = 0
            elif filt == 1:
                pred = a
            elif filt == 2:
                pred = b
            elif filt == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
            raw.append((line[i] - pred) % 256)
        prev = line
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(bytes(raw)))
        + _chunk(b"IEND", b"")
    )
