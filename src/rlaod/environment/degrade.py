"""Degradation operations used to build low-quality test and training sets."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..imaging import (
    estimate_brightness_level,
    fit_brightness_base,
    # Not called here: perfbench's tracer wraps these names as conversion
    # sites; degrade converts inside the episode's render_frame.
    hsv_to_rgb,  # noqa: F401
    render_brightness,
    resize_bilinear,
    rgb_to_hsv,  # noqa: F401
    value_channel,
)
from .episode import V_VALUES, convert_palette, render_frame
from .scene import Scene, resized_truths


class DegradeKind(Enum):
    OVER_EXPOSE = "over_expose"
    UNDER_EXPOSE = "under_expose"
    ZOOM_OUT = "zoom_out"
    ZOOM_IN = "zoom_in"


# Magnitudes drawn when building degraded datasets.
SAMPLING_RANGES = {
    DegradeKind.OVER_EXPOSE: (0.4, 0.8),
    DegradeKind.UNDER_EXPOSE: (0.4, 0.8),
    DegradeKind.ZOOM_OUT: (1.0 / 6.0, 1.0 / 3.0),
    DegradeKind.ZOOM_IN: (2.0, 4.0),
}

# Magnitudes accepted at all; identity (0 exposure, factor 1) is legal.
_VALID_RANGES = {
    DegradeKind.OVER_EXPOSE: (0.0, 0.8),
    DegradeKind.UNDER_EXPOSE: (0.0, 0.8),
    DegradeKind.ZOOM_OUT: (1.0 / 6.0, 1.0),
    DegradeKind.ZOOM_IN: (1.0, 4.0),
}


@dataclass(frozen=True)
class DegradeOp:
    kind: DegradeKind
    magnitude: float

    def __post_init__(self):
        lo, hi = _VALID_RANGES[self.kind]
        if not lo <= self.magnitude <= hi:
            raise ValueError(
                f"{self.kind.value} magnitude {self.magnitude} outside [{lo}, {hi}]"
            )


def sample_op(kind: DegradeKind, rng: np.random.Generator) -> DegradeOp:
    lo, hi = SAMPLING_RANGES[kind]
    return DegradeOp(kind=kind, magnitude=float(rng.uniform(lo, hi)))


def degrade(scene: Scene, op: DegradeOp) -> Scene:
    """Apply one degradation; truths are transformed to match zoomed images.

    Exposure renders the image's palette as an episode step renders a frame.
    """
    if op.kind in (DegradeKind.OVER_EXPOSE, DegradeKind.UNDER_EXPOSE):
        level = estimate_brightness_level(value_channel(scene.image))
        model = fit_brightness_base(V_VALUES, level)
        target = op.magnitude if op.kind is DegradeKind.OVER_EXPOSE else -op.magnitude
        image = render_frame(*convert_palette(scene.image), render_brightness(model, target))
        truths = list(scene.truths)
    else:
        factor = op.magnitude
        image = resize_bilinear(scene.image, factor)
        truths = resized_truths(scene, factor, image.width, image.height)
    return Scene(
        image=image,
        truths=truths,
        seed=scene.seed,
        nominal_level_b=scene.nominal_level_b,
        nominal_mean_area=scene.nominal_mean_area,
    )
