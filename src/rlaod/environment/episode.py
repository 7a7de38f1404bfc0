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
    ScaleModel,
    estimate_brightness_level,
    estimate_scale_level,
    fit_brightness_base,
    gray_image,
    gray_plane,
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
from ..metrics import GroundTruthBox, performance_score, reward
from .detector import DetectorOutput
from .scene import Scene, resized_truths


@dataclass(frozen=True)
class EpisodeState:
    original: Scene
    detector: object
    brightness: BrightnessModel  # level tracks the current L^b
    scale: ScaleModel  # level tracks the current L^s
    initial_scale_level: float
    cumulative_scale_factor: float
    step: int
    horizon: int
    current_image: RgbImage
    current_v: np.ndarray  # uint8 V plane of current_image
    current_truths: list[GroundTruthBox]
    last_output: DetectorOutput
    last_p: float
    grayscale: bool = False
    # Cache of the last brightness render (scale-only steps reuse it).
    rendered_frame: RgbImage | None = None
    rendered_level_b: float | None = None
    # HSV of the original image and hue_weights(hsv0.h), both computed on
    # the first RGB render of the episode; gray episodes never need them.
    hsv0: HsvImage | None = None
    hue_weights: np.ndarray | None = None


def detection_mean_area(
    output: DetectorOutput, min_score: float = AREA_SCORE_MIN
) -> float | None:
    areas = [d.box.area for d in output.detections if d.score >= min_score]
    if not areas:
        return None
    return float(np.mean(areas))


def _is_gray(image: RgbImage) -> bool:
    """True for a gray view, or a planar or interleaved image whose three
    channels are equal (exactly the images whose HSV saturation is zero
    everywhere)."""
    if gray_plane(image) is not None:
        return True
    p = image.pixels
    r = p[..., 0]
    return bool(np.array_equal(r, p[..., 1]) and np.array_equal(r, p[..., 2]))


def reset_episode(scene: Scene, detector, horizon: int) -> EpisodeState:
    """Run the detector once and fit the episode's attribute models."""
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
        scale=ScaleModel(level=level_s),
        initial_scale_level=level_s,
        cumulative_scale_factor=1.0,
        step=0,
        horizon=horizon,
        current_image=scene.image,
        current_v=v,
        current_truths=list(scene.truths),
        last_output=output,
        last_p=performance_score(output.detections, scene.truths),
        grayscale=_is_gray(scene.image),
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

    level_b = state.brightness.level
    if action_b is not None:
        level_b = update_brightness_level(level_b, action_b)
    level_s = state.scale.level
    if action_s is not None:
        level_s = update_scale_level(level_s, action_s)

    theta = state.scale.theta
    cumulative = scale_factor_for_step(state.initial_scale_level, level_s, theta)

    # Brightness first, then a single resize from the original frame.
    scene = state.original
    hsv0, weights = state.hsv0, state.hue_weights
    if state.rendered_level_b == level_b:
        frame = state.rendered_frame
    else:
        v = render_brightness(state.brightness, level_b)
        if state.grayscale:
            # hsv_to_rgb's gray rounding; render_brightness already clamps.
            frame = gray_image(np.floor(v + 0.5).astype(np.uint8))
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
        brightness=state.brightness.with_level(level_b),
        scale=ScaleModel(level=level_s, theta=theta, alpha0=state.scale.alpha0),
        cumulative_scale_factor=cumulative,
        step=state.step + 1,
        current_image=image,
        current_v=current_v,
        current_truths=truths,
        last_output=output,
        last_p=p_next,
        rendered_frame=frame,
        rendered_level_b=level_b,
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
