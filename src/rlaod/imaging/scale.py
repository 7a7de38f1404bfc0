"""Scale level algebra.

The scale level encodes the mean object area of an image relative to a
prior area ALPHA0 under logarithm base THETA:

    level = 0.5 * log_THETA(mean_area / ALPHA0), clamped to [-1, 1]

Changing the level by delta corresponds to resizing the image linearly by
THETA ** delta, which multiplies areas by THETA ** (2 * delta) and shifts
the level estimate by exactly delta.
"""

from __future__ import annotations

import math

from ..errors import ContractViolation
from .actions import AttributeAction

THETA = 8.0
ALPHA0 = 96.0**2


def estimate_scale_level(mean_area: float | None) -> float:
    """Scale level for a mean object area; None (no detections) maps to 0."""
    if mean_area is None:
        return 0.0
    if mean_area <= 0.0:
        raise ValueError(f"mean_area must be positive, got {mean_area}")
    level = 0.5 * math.log(mean_area / ALPHA0, THETA)
    return float(min(1.0, max(-1.0, level)))


def update_scale_level(level: float, action: AttributeAction) -> float:
    """Contract the level 5% toward +1 (zoom in) or -1 (zoom out)."""
    if not -1.0 <= level <= 1.0:
        raise ValueError(f"level {level} outside [-1, 1]")
    if action is AttributeAction.ZOOM_IN:
        return 0.95 * level + 0.05
    if action is AttributeAction.ZOOM_OUT:
        return 0.95 * level - 0.05
    raise ContractViolation(f"{action} is not a scale action")


def scale_factor_for_step(level_before: float, level_after: float) -> float:
    """Linear resize factor that shifts the area-based level by exactly the delta."""
    for name, lv in (("level_before", level_before), ("level_after", level_after)):
        if not -1.0 <= lv <= 1.0:
            raise ValueError(f"{name} {lv} outside [-1, 1]")
    return float(THETA ** (level_after - level_before))
