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
    hsv_to_rgb,
    hue_weights,
    merge_v_channel,
    render_brightness,
    resample_bilinear,
    resize_bilinear,
    rgb_to_hsv,
    scale_factor_for_step,
    scaled_dims,
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
    hsv0: HsvImage
    brightness: BrightnessModel  # level tracks the current L^b
    scale: ScaleModel  # level tracks the current L^s
    initial_scale_level: float
    cumulative_scale_factor: float
    step: int
    horizon: int
    current_image: RgbImage
    current_v: np.ndarray
    current_truths: list[GroundTruthBox]
    last_output: DetectorOutput
    last_p: float
    grayscale: bool = False
    # Cache of the last brightness render (scale-only steps reuse it).
    rendered_frame: object | None = None  # RgbImage, or quantized V when grayscale
    rendered_level_b: float | None = None
    # hue_weights(hsv0.h), computed on the first RGB render of the episode.
    hue_weights: np.ndarray | None = None


def detection_mean_area(
    output: DetectorOutput, min_score: float = AREA_SCORE_MIN
) -> float | None:
    areas = [d.box.area for d in output.detections if d.score >= min_score]
    if not areas:
        return None
    return float(np.mean(areas))


def reset_episode(scene: Scene, detector, horizon: int) -> EpisodeState:
    """Run the detector once and fit the episode's attribute models."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    hsv = rgb_to_hsv(scene.image)
    output = detector.detect(scene.image, scene.truths, scene.seed, precomputed_v=hsv.v)

    level_b = estimate_brightness_level(hsv.v)
    brightness = fit_brightness_base(hsv.v, level_b)
    level_s = estimate_scale_level(detection_mean_area(output))

    return EpisodeState(
        original=scene,
        detector=detector,
        hsv0=hsv,
        brightness=brightness,
        scale=ScaleModel(level=level_s),
        initial_scale_level=level_s,
        cumulative_scale_factor=1.0,
        step=0,
        horizon=horizon,
        current_image=scene.image,
        current_v=hsv.v,
        current_truths=list(scene.truths),
        last_output=output,
        last_p=performance_score(output.detections, scene.truths),
        grayscale=bool(hsv.s.max() <= 0.0),
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
    out_w, out_h = scaled_dims(scene.image.width, scene.image.height, cumulative)
    cache_hit = state.rendered_level_b == level_b and state.rendered_frame is not None
    weights = state.hue_weights

    if state.grayscale:
        # Grayscale frames resample one plane and view it as three channels:
        # bilinear weights are per-channel, so this is bit-identical to the
        # RGB path.
        if cache_hit:
            v_q = state.rendered_frame
        else:
            v = render_brightness(state.brightness, level_b)
            v_q = np.floor(v + 0.5).astype(np.uint8)
        rendered = v_q
        if (out_w, out_h) == (scene.image.width, scene.image.height):
            v_out = v_q
        else:
            v_out = np.minimum(
                np.floor(resample_bilinear(v_q, out_h, out_w) + 0.5), 255.0
            ).astype(np.uint8)
        image = gray_image(v_out)
        current_v = v_out.astype(np.float64)
    else:
        if cache_hit:
            rgb = state.rendered_frame
        else:
            if weights is None:
                weights = hue_weights(state.hsv0.h)
            v = render_brightness(state.brightness, level_b)
            rgb = hsv_to_rgb(merge_v_channel(state.hsv0, v), weights)
        rendered = rgb
        image = resize_bilinear(rgb, cumulative)
        current_v = value_channel(image)

    truths = resized_truths(scene, cumulative, out_w, out_h)

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
        rendered_frame=rendered,
        rendered_level_b=level_b,
        hue_weights=weights,
    )
    terminal = new_state.step == state.horizon
    return (
        new_state,
        r if action_b is not None else None,
        r if action_s is not None else None,
        terminal,
    )
