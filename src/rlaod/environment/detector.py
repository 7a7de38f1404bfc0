"""Deterministic oracle detector.

Stands in for a detector pre-trained on nominal imagery: detection quality
is 1 inside calibrated brightness and object-area bands and decays to zero
outside them. Per-object emission thresholds and box jitter are hash-driven
so the same (image, truths, seed) always yields the same output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..imaging import RgbImage, estimate_brightness_level, resample_bilinear, value_channel
from ..metrics import Box2D, Detection, GroundTruthBox
from ..util import hash_unit

CONTEXT_THUMB = 16  # thumbnail side for the context projection


@dataclass(frozen=True)
class DetectorCalibration:
    bright_full_band: float = 0.15
    bright_zero_at: float = 0.9
    area_full_band: tuple[float, float] = (24.0**2, 128.0**2)
    area_zero_below: float = 6.0**2
    area_zero_above: float = 640.0**2
    jitter_coeff: float = 0.15
    projection_seed: int = 2024
    false_positive_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.bright_full_band < self.bright_zero_at:
            raise ValueError("brightness bands must be nested and positive")
        lo, hi = self.area_full_band
        if not self.area_zero_below < lo < hi < self.area_zero_above:
            raise ValueError("area bands must be nested and positive")
        if self.projection_seed < 0:
            raise ValueError(f"projection_seed must be >= 0, got {self.projection_seed}")
        if self.jitter_coeff < 0.0:
            raise ValueError(f"jitter_coeff must be >= 0, got {self.jitter_coeff}")
        if not 0.0 <= self.false_positive_rate <= 1.0:
            raise ValueError(f"false_positive_rate {self.false_positive_rate} outside [0, 1]")


@dataclass(frozen=True)
class DetectorOutput:
    detections: list[Detection]
    context: np.ndarray  # 512 (or 1024 before reduction) finite reals


def brightness_quality(level: float, calib: DetectorCalibration) -> float:
    """1 inside the nominal band, linear decay to 0 at the outer level."""
    excess = max(0.0, abs(level) - calib.bright_full_band)
    return min(1.0, max(0.0, 1.0 - excess / (calib.bright_zero_at - calib.bright_full_band)))


def area_quality(area: float, calib: DetectorCalibration) -> float:
    """1 inside the area band, log-linear decay to 0 at the outer areas."""
    lo, hi = calib.area_full_band
    if area <= calib.area_zero_below or area >= calib.area_zero_above:
        return 0.0
    if area < lo:
        return (math.log(area) - math.log(calib.area_zero_below)) / (
            math.log(lo) - math.log(calib.area_zero_below)
        )
    if area > hi:
        return (math.log(calib.area_zero_above) - math.log(area)) / (
            math.log(calib.area_zero_above) - math.log(hi)
        )
    return 1.0


@lru_cache(maxsize=4096)
def _truth_draws(seed: int, j: int) -> tuple[float, tuple[bool, ...]]:
    """Emission threshold and four jitter signs (True for +) of truth j.

    They depend on (seed, j) alone, and an episode detects the same truths
    once per step, so they are hashed once and then looked up.
    """
    threshold = 0.05 + 0.9 * hash_unit(seed, j)
    return threshold, tuple(hash_unit(seed, j, k) < 0.5 for k in range(4))


@lru_cache(maxsize=4)
def _context_projection(seed: int) -> np.ndarray:
    """Read-only 512 x 256 random sign projection of the context thumbnail."""
    rng = np.random.default_rng(seed)
    n = CONTEXT_THUMB * CONTEXT_THUMB
    signs = rng.integers(0, 2, size=(512, n)) * 2 - 1
    projection = signs / math.sqrt(n)
    projection.setflags(write=False)
    return projection


class OracleDetector:
    """Deterministic stand-in for a fixed, pre-trained detector."""

    def __init__(self, calib: DetectorCalibration | None = None):
        self.calib = calib or DetectorCalibration()
        self._projection = _context_projection(self.calib.projection_seed)

    def close(self) -> None:
        """Nothing to release; callers close every detector they build."""

    def detect(
        self,
        image: RgbImage,
        truths: Sequence[GroundTruthBox],
        seed: int = 0,
        precomputed_v: np.ndarray | None = None,
        precomputed_level: float | None = None,
    ) -> DetectorOutput:
        """Detect objects. `precomputed_v`, when given, must equal the image's
        V channel, and `precomputed_level` its estimate_brightness_level;
        they only skip recomputing them."""
        calib = self.calib
        v = precomputed_v if precomputed_v is not None else value_channel(image)
        level = (
            precomputed_level if precomputed_level is not None else estimate_brightness_level(v)
        )
        q_bright = brightness_quality(level, calib)

        detections: list[Detection] = []
        for j, truth in enumerate(truths):
            q = q_bright * area_quality(truth.box.area, calib)
            threshold, signs = _truth_draws(seed, j)
            if q < threshold:
                continue
            mag = (1.0 - q) * calib.jitter_coeff * math.sqrt(truth.box.area)
            b = truth.box
            jit = [mag if up else -mag for up in signs]
            detections.append(
                Detection(
                    box=Box2D(
                        x_min=min(max(b.x_min + jit[0], 0.0), image.width - 1e-3),
                        y_min=min(max(b.y_min + jit[1], 0.0), image.height - 1e-3),
                        x_max=max(min(b.x_max + jit[2], float(image.width)), 1e-3),
                        y_max=max(min(b.y_max + jit[3], float(image.height)), 1e-3),
                    ),
                    score=q,
                    category=truth.category,
                )
            )

        if calib.false_positive_rate > 0.0 and hash_unit(seed, 0xFA15E) < calib.false_positive_rate:
            side = 4.0 + 20.0 * hash_unit(seed, 0xFA15E, 1)
            x0 = hash_unit(seed, 0xFA15E, 2) * max(1.0, image.width - side)
            y0 = hash_unit(seed, 0xFA15E, 3) * max(1.0, image.height - side)
            detections.append(
                Detection(
                    box=Box2D(x0, y0, x0 + side, y0 + side),
                    score=0.05 + 0.4 * hash_unit(seed, 0xFA15E, 4),
                )
            )

        thumb = resample_bilinear(v, CONTEXT_THUMB, CONTEXT_THUMB) / 255.0
        return DetectorOutput(detections=detections, context=self._projection @ thumb.ravel())
