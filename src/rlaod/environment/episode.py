"""Episode state machine: attribute levels, image rebuilds, rewards.

Every step re-renders brightness from the base fitted at reset and applies
a single resize from the original image, so interpolation and truncation
loss never compound across steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ContractViolation
from ..features import AREA_SCORE_MIN
from ..imaging import (
    AttributeAction,
    BrightnessModel,
    HsvImage,
    RgbImage,
    estimate_brightness_level,
    estimate_scale_level,
    fit_brightness_base,
    hsv_to_rgb,
    hue_weights,
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


@dataclass(frozen=True)
class EpisodeState:
    original: Scene
    detector: object
    brightness: BrightnessModel  # base fitted at reset; renders every level
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
    # HSV of the original image and hue_weights(hsv0.h), both computed on
    # the first RGB render of the episode; gray episodes never need them.
    hsv0: HsvImage | None = None
    hue_weights: np.ndarray | None = None

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


def reset_episode(scene: Scene, detector, horizon: int) -> EpisodeState:
    """Run the detector once, fit the brightness base and read both levels."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    v = value_channel(scene.image)
    level_b = estimate_brightness_level(v)
    output = detector.detect(
        scene.image, scene.truths, scene.seed, precomputed_v=v, precomputed_level=level_b
    )
    brightness = fit_brightness_base(v, level_b)
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
    hsv0, weights = state.hsv0, state.hue_weights
    if state.frame is not None and level_b == state.level_b:
        frame = state.frame
    else:
        v = render_brightness(state.brightness, level_b)
        if len(scene.image.planes) == 1:
            # hsv_to_rgb's gray rounding; render_brightness already clamps.
            frame = RgbImage(np.floor(v + 0.5).astype(np.uint8)[None])
        else:
            if hsv0 is None:
                hsv0 = rgb_to_hsv(scene.image)
                weights = hue_weights(hsv0.h)
            frame = hsv_to_rgb(merge_v_channel(hsv0, v), weights)
    image = resize_bilinear(frame, cumulative)
    current_v = value_channel(image)
    truths = resized_truths(scene, cumulative, image.width, image.height)

    output = state.detector.detect(image, truths, scene.seed, precomputed_v=current_v)
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
        hsv0=hsv0,
        hue_weights=weights,
    )
    terminal = new_state.step == state.horizon
    return (
        new_state,
        r if action_b is not None else None,
        r if action_s is not None else None,
        terminal,
    )
