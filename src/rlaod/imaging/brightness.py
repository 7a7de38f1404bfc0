"""Brightness level algebra.

An image's V channel is modeled as a scalar level in [-1, 1] applied to a
per-image base matrix:

    level < 0:   V = (1 + level) * base
    level >= 0:  V = (1 - level) * base + 255 * level

The base is fitted once from a source image and every later brightness
change re-renders from it, so repeated adjustments never accumulate the
truncation loss that multiplying the current frame would cause.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractViolation
from .actions import AttributeAction

# Fitting divides by (1 +/- level); keep the divisor away from zero.
FIT_LEVEL_LIMIT = 0.98

# A uint8 V plane takes one of 256 values.
N_VALUES = 256

# The 11 evenly spaced quantiles form 5 symmetric pairs plus the median;
# each pair sums to the full-range estimate d and the median to d/2.
_QUANTILES = np.arange(11) / 10.0
_QUANTILE_DIVISOR = 5.5


@dataclass(frozen=True)
class BrightnessModel:
    """A fitted base matrix and the level it was fitted at.

    The base is produced by fit_brightness_base and is guaranteed to lie
    in [0, 255]; only the level is revalidated on construction.
    """

    level: float
    base: np.ndarray

    def __post_init__(self):
        if not -1.0 <= self.level <= 1.0:
            raise ValueError(f"level {self.level} outside [-1, 1]")


def interpolated_quantiles(values: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Quantiles by linear interpolation between order statistics."""
    flat = np.sort(np.asarray(values, dtype=np.float64), axis=None)
    n = flat.size
    if n == 1:
        return np.full(len(qs), flat[0], dtype=np.float64)
    pos = np.asarray(qs) * (n - 1)
    lo = pos.astype(np.int64)
    hi = np.minimum(lo + 1, n - 1)
    frac = pos - lo
    return flat[lo] * (1.0 - frac) + flat[hi] * frac


def value_counts(v: np.ndarray) -> np.ndarray:
    """How many pixels of a uint8 V plane take each of the 256 values."""
    if v.dtype != np.uint8:
        raise ValueError(f"expected a uint8 V plane, got {v.dtype}")
    return np.bincount(v.ravel(), minlength=N_VALUES)


def _level_from_deciles(q: np.ndarray) -> float:
    d = q.sum() / _QUANTILE_DIVISOR
    return float(min(1.0, max(-1.0, d / 255.0 - 1.0)))


def level_from_counts(counts: np.ndarray) -> float:
    """estimate_brightness_level of a uint8 V plane, from its value_counts.

    Order statistic k is the first value whose running count exceeds k, so
    the deciles, and the level, have the bits of the float64 sort of the
    plane. No pixel is read.
    """
    n = int(counts.sum())
    if n < 1:
        raise ValueError("V channel must contain at least one pixel")
    pos = _QUANTILES * (n - 1)
    lo = pos.astype(np.int64)
    hi = np.minimum(lo + 1, n - 1)
    frac = pos - lo
    running = np.cumsum(counts)
    at_lo = np.searchsorted(running, lo, side="right").astype(np.float64)
    at_hi = np.searchsorted(running, hi, side="right").astype(np.float64)
    return _level_from_deciles(at_lo * (1.0 - frac) + at_hi * frac)


def estimate_brightness_level(v: np.ndarray) -> float:
    """Estimate the brightness level of a V channel from its 11 deciles.

    Interpolated quantiles transform affinely with the rendering map, so the
    estimate of a rendered image recovers the level it was rendered at
    (exactly, when the base's own estimate is zero). A uint8 plane is
    counted (level_from_counts); a float plane is sorted.
    """
    if v.size < 1:
        raise ValueError("V channel must contain at least one pixel")
    if v.dtype == np.uint8:
        return level_from_counts(value_counts(v))
    return _level_from_deciles(interpolated_quantiles(v, _QUANTILES))


def fit_brightness_base(v: np.ndarray, level: float) -> BrightnessModel:
    """Invert the rendering map at the given level to recover the base matrix."""
    if not -1.0 <= level <= 1.0:
        raise ValueError(f"level {level} outside [-1, 1]")
    lv = float(min(FIT_LEVEL_LIMIT, max(-FIT_LEVEL_LIMIT, level)))
    v = np.asarray(v, dtype=np.float64)
    if lv < 0.0:
        base = v / (1.0 + lv)
    else:
        base = (v - 255.0 * lv) / (1.0 - lv)
    return BrightnessModel(level=lv, base=np.minimum(np.maximum(base, 0.0), 255.0))


def render_brightness(model: BrightnessModel, level: float) -> np.ndarray:
    """Render the V channel of the model's base at an arbitrary level."""
    if not -1.0 <= level <= 1.0:
        raise ValueError(f"level {level} outside [-1, 1]")
    if level < 0.0:
        v = (1.0 + level) * model.base
    else:
        v = (1.0 - level) * model.base + 255.0 * level
    return np.minimum(np.maximum(v, 0.0), 255.0)


def update_brightness_level(level: float, action: AttributeAction) -> float:
    """Contract the level 10% toward +1 (brighten) or -1 (darken)."""
    if not -1.0 <= level <= 1.0:
        raise ValueError(f"level {level} outside [-1, 1]")
    if action is AttributeAction.BRIGHTEN:
        return 0.9 * level + 0.1
    if action is AttributeAction.DARKEN:
        return 0.9 * level - 0.1
    raise ContractViolation(f"{action} is not a brightness action")
