"""Agent state vectors: detector context plus attribute histograms.

Each agent sees 576 values: a 512-value context feature from the detector
concatenated with a 64-bin histogram describing the attribute it controls
(V-channel brightness or detection box areas).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .imaging import N_VALUES, value_counts

CONTEXT_DIM = 512
HIST_BINS = 64
STATE_DIM = CONTEXT_DIM + HIST_BINS

# Detections weaker than this do not describe the scene's object areas: they
# are left out of the area histogram and of the episode's mean object area.
AREA_SCORE_MIN = 0.5


class StateKind(Enum):
    BRIGHTNESS = "brightness"
    SCALE = "scale"


@dataclass(frozen=True)
class StateVector:
    values: np.ndarray
    kind: StateKind

    def __post_init__(self):
        if self.values.shape != (STATE_DIM,):
            raise ValueError(f"state must have {STATE_DIM} values, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("state values must be finite")


def brightness_histogram(counts: np.ndarray) -> np.ndarray:
    """Normalized 64-bin histogram of a V channel, bin width 4 over [0, 256).

    Takes the frame's 256 value counts (imaging.value_counts); a uint8 V
    plane is counted first.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1:
        counts = value_counts(counts)
    if counts.shape != (N_VALUES,):
        raise ValueError(f"expected {N_VALUES} value counts, got {counts.shape}")
    n = counts.sum()
    if n < 1:
        raise ValueError("V channel must contain at least one pixel")
    # Bin i holds values 4i .. 4i + 3. The sums are exact integers.
    return counts.reshape(HIST_BINS, -1).sum(axis=1).astype(np.float64) / n


def _area_edges() -> np.ndarray:
    sides = [0]
    sides += list(range(9, 25))        # step 1
    sides += list(range(27, 76, 3))    # step 3
    sides += list(range(80, 176, 5))   # step 5
    sides += list(range(182, 246, 7))  # step 7
    edges = [float(s) ** 2 for s in sides] + [np.inf]
    return np.array(edges)


AREA_BIN_EDGES = _area_edges()
assert len(AREA_BIN_EDGES) == HIST_BINS + 1


def area_histogram(detections: Sequence, min_score: float = AREA_SCORE_MIN) -> np.ndarray:
    """Normalized histogram of detection box areas over widening bins.

    Bin widths grow with area (the underlying quantity is quadratic in
    object side length); the last bin is open-ended. Low-confidence
    detections are excluded; an empty list yields the zero vector.
    """
    areas = [d.box.area for d in detections if d.score >= min_score]
    if not areas:
        return np.zeros(HIST_BINS)
    idx = np.searchsorted(AREA_BIN_EDGES, np.array(areas), side="right") - 1
    counts = np.bincount(np.clip(idx, 0, HIST_BINS - 1), minlength=HIST_BINS)
    return counts / len(areas)


_SMOOTH_CACHE: dict[tuple[int, float, int], np.ndarray] = {}


def _smoothing_operator(n: int, sigma: float, radius: int) -> np.ndarray:
    """Banded Gaussian matrix balanced to be doubly stochastic.

    Plain truncation at the edges would either leak mass or distort a flat
    histogram; balancing the row and column sums restores both properties
    at once (the fix only touches entries within `radius` of the edges).
    """
    key = (n, sigma, radius)
    if key not in _SMOOTH_CACHE:
        offsets = np.arange(-radius, radius + 1)
        w = np.exp(-(offsets**2) / (2.0 * sigma**2))
        w /= w.sum()
        k = np.zeros((n, n))
        for off, wk in zip(offsets, w):
            k += wk * np.eye(n, k=off)
        # Symmetric diagonal scaling D K D with d_i (K d)_i = 1.
        d = np.ones(n)
        for _ in range(1000):
            r = d * (k @ d)
            if np.abs(r - 1.0).max() < 1e-15:
                break
            d /= np.sqrt(r)
        _SMOOTH_CACHE[key] = k * d[:, None] * d[None, :]
    return _SMOOTH_CACHE[key]


def gaussian_smooth(hist: np.ndarray, sigma: float = 1.0, radius: int = 3) -> np.ndarray:
    """Smooth a histogram with a discrete Gaussian kernel.

    Conserves total mass, preserves nonnegativity, and maps constant
    vectors to themselves.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    hist = np.asarray(hist, dtype=np.float64)
    return _smoothing_operator(len(hist), float(sigma), radius) @ hist


def reduce_context(ctx: np.ndarray) -> np.ndarray:
    """Reduce a detector context vector to 512 values (stride-2 max pooling)."""
    ctx = np.asarray(ctx, dtype=np.float64)
    if ctx.shape == (CONTEXT_DIM,):
        return ctx.copy()
    if ctx.shape == (2 * CONTEXT_DIM,):
        return np.maximum(ctx[0::2], ctx[1::2])
    raise ValueError(f"context length must be 512 or 1024, got {ctx.shape}")


def assemble_state(ctx: np.ndarray, attr_hist: np.ndarray, kind: StateKind) -> StateVector:
    """Concatenate context and attribute histogram into an agent state."""
    ctx = np.asarray(ctx, dtype=np.float64)
    attr_hist = np.asarray(attr_hist, dtype=np.float64)
    if ctx.shape != (CONTEXT_DIM,):
        raise ValueError(f"context must have {CONTEXT_DIM} values, got {ctx.shape}")
    if attr_hist.shape != (HIST_BINS,):
        raise ValueError(f"histogram must have {HIST_BINS} values, got {attr_hist.shape}")
    return StateVector(values=np.concatenate([ctx, attr_hist]), kind=kind)
