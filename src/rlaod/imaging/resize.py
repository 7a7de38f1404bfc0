"""Bilinear resampling with corner-aligned source coordinates."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..util import round_half_away
from .color import RgbImage, gray_image, gray_plane

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
def _axis_table(n_out: int, n_in: int, stride: int):
    """Read-only (i0, i1, w, 1 - w) for resampling one axis of n_in to n_out.

    Indices address a flattened axis whose elements are ``stride`` values
    wide (the channels of a pixel); the weights repeat per channel.
    """
    pos = _source_coords(n_out, n_in)
    i0 = np.minimum(np.floor(pos).astype(np.int64), n_in - 1)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w = np.repeat(pos - i0, stride)
    lanes = np.arange(stride)
    i0 = (i0[:, None] * stride + lanes).ravel()
    i1 = (i1[:, None] * stride + lanes).ravel()
    table = (i0, i1, w, 1.0 - w)
    for a in table:
        a.setflags(write=False)
    return table


def resample_bilinear(values: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinearly resample a (h, w) or (h, w, c) array to float (out_h, out_w).

    Separable: rows are blended vertically first, then sampled horizontally.
    Only the source rows that are needed are converted to float64.
    """
    if out_h < 1 or out_w < 1:
        raise ValueError("output dimensions must be positive")
    src = np.asarray(values)
    h, w = src.shape[:2]
    stride = src.shape[2] if src.ndim == 3 else 1

    y0, y1, wy, wy_c = _axis_table(out_h, h, 1)
    x0, x1, wx, wx_c = _axis_table(out_w, w, stride)
    # Gather rows and columns of the (h, w * c) view, then blend in place:
    # the same products and sums as top * (1 - wy) + bottom * wy, and so on.
    flat = src.reshape(h, w * stride)
    rows = flat[y0] * wy_c[:, None]
    rows += flat[y1] * wy[:, None]
    out = np.take(rows, x0, axis=1)
    out *= wx_c
    right = np.take(rows, x1, axis=1)
    right *= wx
    out += right
    return out.reshape((out_h, out_w) + src.shape[2:])


def scaled_dims(width: int, height: int, factor: float) -> tuple[int, int]:
    """Output (width, height) for a linear resize factor, clamped to sane bounds."""
    if factor <= 0.0:
        raise ValueError(f"resize factor must be positive, got {factor}")
    out_w = int(min(MAX_SIDE, max(MIN_SIDE, round_half_away(width * factor))))
    out_h = int(min(MAX_SIDE, max(MIN_SIDE, round_half_away(height * factor))))
    return out_w, out_h


def resize_bilinear(img: RgbImage, factor: float) -> RgbImage:
    """Resize an RGB image by a linear factor; deterministic, corner-aligned.

    A gray view resamples its one plane and returns a gray view: bilinear
    weights are per channel, so the bits equal the three-channel result.
    """
    out_w, out_h = scaled_dims(img.width, img.height, factor)
    plane = gray_plane(img)
    src = img.pixels if plane is None else plane
    if (out_w, out_h) == (img.width, img.height):
        out = src.copy()
    else:
        # Interpolated values are nonnegative, so half-up equals half-away.
        out = np.minimum(np.floor(resample_bilinear(src, out_h, out_w) + 0.5), 255.0)
        out = out.astype(np.uint8)
    return RgbImage(pixels=out) if plane is None else gray_image(out)
