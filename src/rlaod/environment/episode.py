"""Episode state machine: attribute levels, image rebuilds, rewards.

Every step re-renders brightness from the base fitted at reset and applies
a single resize from the original image, so interpolation and truncation
loss never compound across steps.

The fit, the render and the gray rounding work value by value, and every
pixel of the original's uint8 V plane takes one of 256 values. So the base
is fitted on those 256 values and a render is a 256-entry table. The HSV
round trip works colour by colour, so a frame is rendered on the original's
palette of distinct colours (a gray image's are its 256 values) and read
back at each pixel's colour, with the bits of a render of the whole image.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ContractViolation
from ..features import AREA_SCORE_MIN
from ..imaging import (
    N_VALUES,
    AttributeAction,
    BrightnessModel,
    HsvImage,
    Palette,
    RgbImage,
    # Not called here: perfbench's tracer wraps this name as a level site;
    # the episode's levels come from level_from_counts.
    estimate_brightness_level,  # noqa: F401
    estimate_scale_level,
    fit_brightness_base,
    hsv_to_rgb,
    hue_weights,
    level_from_counts,
    merge_v_channel,
    render_brightness,
    # Not called here: perfbench's tracer wraps this name as a frame-resample
    # site; the frames themselves resample inside resize_bilinear.
    resample_bilinear,  # noqa: F401
    resize_bilinear,
    rgb_to_hsv,
    scale_factor_for_step,
    update_brightness_level,
    update_scale_level,
    value_channel,
)
from ..metrics import performance_score, reward
from .detector import DetectorOutput
from .scene import Scene, resized_truths

# The values a uint8 V plane can take, in order: the brightness base is
# fitted on them.
V_VALUES = np.arange(N_VALUES, dtype=np.float64)
V_VALUES.setflags(write=False)


@dataclass(frozen=True)
class EpisodeState:
    original: Scene
    detector: object
    # Base fitted at reset on the 256 V values; renders every level as a table.
    brightness: BrightnessModel
    level_b: float  # current L^b
    level_s: float  # current L^s
    initial_scale_level: float
    step: int
    horizon: int
    current_image: RgbImage
    current_v: np.ndarray  # uint8 V plane of current_image
    last_output: DetectorOutput
    last_p: float
    # The brightness render at level_b, once a step made one; steps that
    # leave level_b unchanged reuse it.
    frame: RgbImage | None = None
    # The original's palette, the HSV of its colours and hue_weights of
    # their H, all taken on the episode's first render.
    palette: Palette | None = None
    palette_hsv: HsvImage | None = None
    palette_weights: np.ndarray | None = None

    @property
    def cumulative_scale_factor(self) -> float:
        return scale_factor_for_step(self.initial_scale_level, self.level_s)


def detection_mean_area(
    output: DetectorOutput, min_score: float = AREA_SCORE_MIN
) -> float | None:
    areas = [d.box.area for d in output.detections if d.score >= min_score]
    if not areas:
        return None
    return float(np.mean(areas))


def convert_palette(image: RgbImage) -> tuple[Palette, HsvImage, np.ndarray | None]:
    """The image's palette, its colours' HSV and their hue weights (None
    where S is zero everywhere: hsv_to_rgb then reads none)."""
    palette = image.palette
    hsv = rgb_to_hsv(palette.colours)
    return palette, hsv, hue_weights(hsv.h) if hsv.s.any() else None


def render_frame(
    palette: Palette, hsv: HsvImage, weights: np.ndarray | None, table: np.ndarray
) -> RgbImage:
    """The image of ``palette`` with each colour's V replaced by its entry
    in ``table``, a render of the 256 V values; the frame has its V counts."""
    v = np.take(table, value_channel(palette.colours))
    return palette.gather(hsv_to_rgb(merge_v_channel(hsv, v), weights))


def reset_episode(scene: Scene, detector, horizon: int) -> EpisodeState:
    """Run the detector once, fit the brightness base and read both levels."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    v = value_channel(scene.image)
    level_b = level_from_counts(scene.image.v_counts)
    output = detector.detect(
        scene.image, scene.truths, scene.seed, precomputed_v=v, precomputed_level=level_b
    )
    brightness = fit_brightness_base(V_VALUES, level_b)
    level_s = estimate_scale_level(detection_mean_area(output))

    return EpisodeState(
        original=scene,
        detector=detector,
        brightness=brightness,
        level_b=brightness.level,
        level_s=level_s,
        initial_scale_level=level_s,
        step=0,
        horizon=horizon,
        current_image=scene.image,
        current_v=v,
        last_output=output,
        last_p=performance_score(output.detections, scene.truths),
    )


def step_episode(
    state: EpisodeState,
    action_b: AttributeAction | None,
    action_s: AttributeAction | None,
) -> tuple[EpisodeState, int | None, int | None, bool]:
    """Apply the given actions, rebuild the image, re-detect, and score.

    Returns the new state, a reward per acting agent (None for an agent
    that did not act), and whether the episode just reached its horizon.
    """
    if state.step >= state.horizon:
        raise ContractViolation(
            f"episode already finished ({state.step} >= {state.horizon})"
        )
    if action_b is None and action_s is None:
        raise ValueError("at least one action must be provided")

    level_b = state.level_b
    if action_b is not None:
        level_b = update_brightness_level(level_b, action_b)
    level_s = state.level_s
    if action_s is not None:
        level_s = update_scale_level(level_s, action_s)
    cumulative = scale_factor_for_step(state.initial_scale_level, level_s)

    # Brightness first, then a single resize from the original frame.
    scene = state.original
    palette, hsv, weights = state.palette, state.palette_hsv, state.palette_weights
    if state.frame is not None and level_b == state.level_b:
        frame = state.frame
    else:
        table = render_brightness(state.brightness, level_b)
        if palette is None:
            palette, hsv, weights = convert_palette(scene.image)
        frame = render_frame(palette, hsv, weights, table)
    image = resize_bilinear(frame, cumulative)
    current_v = value_channel(image)
    truths = resized_truths(scene, cumulative, image.width, image.height)

    output = state.detector.detect(
        image,
        truths,
        scene.seed,
        precomputed_v=current_v,
        precomputed_level=level_from_counts(image.v_counts),
    )
    p_next = performance_score(output.detections, truths)
    r = reward(p_next, state.last_p)

    new_state = replace(
        state,
        level_b=level_b,
        level_s=level_s,
        step=state.step + 1,
        current_image=image,
        current_v=current_v,
        last_output=output,
        last_p=p_next,
        frame=frame,
        palette=palette,
        palette_hsv=hsv,
        palette_weights=weights,
    )
    terminal = new_state.step == state.horizon
    return (
        new_state,
        r if action_b is not None else None,
        r if action_s is not None else None,
        terminal,
    )
