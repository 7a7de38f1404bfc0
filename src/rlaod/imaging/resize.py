"""Bilinear resampling with corner-aligned source coordinates."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..util import round_half_away
from .color import RgbImage

MIN_SIDE = 8
MAX_SIDE = 4096


def _source_coords(n_out: int, n_in: int) -> np.ndarray:
    """Corner-aligned source positions for each output index."""
    if n_out == 1:
        return np.array([(n_in - 1) / 2.0])
    return np.arange(n_out) * ((n_in - 1) / (n_out - 1))


# Scale actions make many (n_out, n_in) pairs; entries are a few KB each, and
# 128 of them hit about 80% of lookups in training.
@lru_cache(maxsize=128)
def _axis_table(n_out: int, n_in: int):
    """Read-only (i0, i1, w, 1 - w) for resampling one axis of n_in to n_out."""
    pos = _source_coords(n_out, n_in)
    i0 = np.minimum(np.floor(pos).astype(np.int64), n_in - 1)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w = pos - i0
    table = (i0, i1, w, 1.0 - w)
    for a in table:
        a.setflags(write=False)
    return table


def resample_bilinear(values: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinearly resample a (h, w) plane to float (out_h, out_w).

    Separable: rows are blended vertically first, then sampled horizontally.
    Only the source rows that are needed are converted to float64.
    """
    if out_h < 1 or out_w < 1:
        raise ValueError("output dimensions must be positive")
    src = np.asarray(values)
    if src.ndim != 2:
        raise ValueError(f"expected a (h, w) plane, got shape {src.shape}")
    h, w = src.shape

    y0, y1, wy, wy_c = _axis_table(out_h, h)
    x0, x1, wx, wx_c = _axis_table(out_w, w)
    # Gather rows and columns, then blend in place: the same products and
    # sums as top * (1 - wy) + bottom * wy, and so on.
    rows = src[y0] * wy_c[:, None]
    rows += src[y1] * wy[:, None]
    out = np.take(rows, x0, axis=1)
    out *= wx_c
    right = np.take(rows, x1, axis=1)
    right *= wx
    out += right
    return out


def scaled_dims(width: int, height: int, factor: float) -> tuple[int, int]:
    """Output (width, height) for a linear resize factor, clamped to sane bounds."""
    if factor <= 0.0:
        raise ValueError(f"resize factor must be positive, got {factor}")
    out_w = int(min(MAX_SIDE, max(MIN_SIDE, round_half_away(width * factor))))
    out_h = int(min(MAX_SIDE, max(MIN_SIDE, round_half_away(height * factor))))
    return out_w, out_h


def resize_bilinear(img: RgbImage, factor: float) -> RgbImage:
    """Resize an RGB image by a linear factor; deterministic, corner-aligned.

    Each plane resamples on its own, so a gray image stays one plane.
    Bilinear weights are per channel, so the bits equal a three-channel
    resample.
    """
    out_w, out_h = scaled_dims(img.width, img.height, factor)
    if (out_w, out_h) == (img.width, img.height):
        return RgbImage(img.planes.copy())
    out = np.empty((len(img.planes), out_h, out_w), dtype=np.uint8)
    # One call per plane keeps the float64 temporaries one plane in size;
    # a single call on the stacked planes is faster only on small outputs.
    for src, dst in zip(img.planes, out):
        # Interpolated values are nonnegative, so half-up equals half-away.
        dst[...] = np.minimum(np.floor(resample_bilinear(src, out_h, out_w) + 0.5), 255.0)
    return RgbImage(out)
