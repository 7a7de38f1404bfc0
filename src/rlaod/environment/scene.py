"""Synthetic scenes: noisy backgrounds with bright aircraft-like blobs.

Scenes are fully determined by an integer seed, carry tight ground-truth
boxes, and record the clean image's nominal brightness level and mean
object area so tests can reason about what "restored" means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..imaging import (
    MAX_SIDE,
    RgbImage,
    estimate_brightness_level,
    fit_brightness_base,
    render_brightness,
    resample_bilinear,
    value_channel,
)
from ..metrics import Box2D, GroundTruthBox


@dataclass(frozen=True)
class SceneParams:
    width: int = 512
    height: int = 512
    count_range: tuple[int, int] = (0, 8)
    area_range: tuple[float, float] = (12.0**2, 200.0**2)
    empty_scene_prob: float = 0.1
    background_range: tuple[float, float] = (100.0, 132.0)
    object_value_range: tuple[float, float] = (180.0, 230.0)
    tint_strength: float = 0.0  # 0 keeps scenes grayscale

    def __post_init__(self):
        if self.width < 16 or self.height < 16:
            raise ValueError("scene must be at least 16x16")
        if self.width > MAX_SIDE or self.height > MAX_SIDE:
            # Frames are clamped to MAX_SIDE; truths would not follow them.
            raise ValueError(f"scene must be at most {MAX_SIDE}x{MAX_SIDE}")
        lo, hi = self.count_range
        if not (0 <= lo <= hi):
            raise ValueError(f"bad count range {self.count_range}")
        if self.area_range[0] < 16.0 or self.area_range[1] < self.area_range[0]:
            raise ValueError(f"bad area range {self.area_range}")


@dataclass(frozen=True)
class Scene:
    image: RgbImage
    truths: list[GroundTruthBox]
    seed: int
    nominal_level_b: float
    nominal_mean_area: float


def _background(rng: np.random.Generator, params: SceneParams) -> np.ndarray:
    lo, hi = params.background_range
    lattice = rng.uniform(lo, hi, size=(17, 17))
    return resample_bilinear(lattice, params.height, params.width)


def _object_mask(rng: np.random.Generator, w: int, h: int) -> np.ndarray:
    """Boolean blob mask touching all four box edges (ellipse or cross)."""
    ys = (np.arange(h) + 0.5).reshape(-1, 1)
    xs = (np.arange(w) + 0.5).reshape(1, -1)
    if rng.random() < 0.5:
        a, b = w / 2.0, h / 2.0
        mask = ((xs - a) / a) ** 2 + ((ys - b) / b) ** 2 <= 1.0
    else:
        bar_h = max(1, int(round(0.3 * h)))
        bar_w = max(1, int(round(0.25 * w)))
        y0 = (h - bar_h) // 2
        x0 = (w - bar_w) // 2
        mask = np.zeros((h, w), dtype=bool)
        mask[y0 : y0 + bar_h, :] = True
        mask[:, x0 : x0 + bar_w] = True
    return mask


def _boxes_overlap(a: tuple, b: tuple, pad: float = 2.0) -> bool:
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return not (
        ax1 + pad <= bx0 or bx1 + pad <= ax0 or ay1 + pad <= by0 or by1 + pad <= ay0
    )


def generate_scene(seed: int, params: SceneParams = SceneParams()) -> Scene:
    """Deterministically generate a scene from its seed."""
    rng = np.random.default_rng(seed)
    v = _background(rng, params)

    lo_count, hi_count = params.count_range
    if hi_count == 0:
        count = 0
    elif rng.random() < params.empty_scene_prob:
        count = 0
    else:
        count = int(rng.integers(max(1, lo_count), hi_count + 1))

    margin = 2
    placed: list[tuple] = []
    truths: list[GroundTruthBox] = []
    for _ in range(count):
        area = rng.uniform(*params.area_range)
        ratio = rng.uniform(0.5, 2.0)
        w_obj = max(4, int(round(np.sqrt(area * ratio))))
        h_obj = max(4, int(round(np.sqrt(area / ratio))))
        if w_obj + 2 * margin >= params.width or h_obj + 2 * margin >= params.height:
            continue
        spot = None
        for _ in range(50):
            x0 = int(rng.integers(margin, params.width - w_obj - margin + 1))
            y0 = int(rng.integers(margin, params.height - h_obj - margin + 1))
            cand = (x0, y0, x0 + w_obj, y0 + h_obj)
            if not any(_boxes_overlap(cand, p) for p in placed):
                spot = cand
                break
        if spot is None:
            continue  # crowded scene: place fewer objects rather than fail
        x0, y0, x1, y1 = spot
        mask = _object_mask(rng, w_obj, h_obj)
        value = rng.uniform(*params.object_value_range)
        texture = rng.normal(0.0, 5.0, size=mask.shape)
        patch = v[y0:y1, x0:x1]
        patch[mask] = np.clip(value + texture[mask], 0.0, 255.0)

        cols = np.where(mask.any(axis=0))[0]
        rows = np.where(mask.any(axis=1))[0]
        truths.append(
            GroundTruthBox(
                box=Box2D(
                    x_min=float(x0 + cols[0]),
                    y_min=float(y0 + rows[0]),
                    x_max=float(x0 + cols[-1] + 1),
                    y_max=float(y0 + rows[-1] + 1),
                )
            )
        )
        placed.append(spot)

    # Clean scenes sit at nominal brightness by construction: re-render the
    # composited V at level 0 so bright-object coverage cannot push the
    # decile estimate out of a detector's nominal band.
    est = estimate_brightness_level(v)
    if abs(est) > 1e-9:
        v = render_brightness(fit_brightness_base(v, est), 0.0)

    if params.tint_strength > 0.0:
        shift = rng.uniform(-params.tint_strength, params.tint_strength, size=3)
        planes = np.clip(v * (1.0 + shift)[:, None, None], 0.0, 255.0)
        image = RgbImage(np.floor(planes + 0.5).astype(np.uint8))
    else:
        image = RgbImage(np.floor(v + 0.5).astype(np.uint8)[None])

    mean_area = float(np.mean([t.box.area for t in truths])) if truths else 0.0
    return Scene(
        image=image,
        truths=truths,
        seed=seed,
        nominal_level_b=estimate_brightness_level(value_channel(image)),
        nominal_mean_area=mean_area,
    )


def clip_scaled_box(box: Box2D, factor: float, width: float, height: float) -> Box2D:
    """Multiply a box by a linear factor and clip it to a width x height frame.

    Bounds may be the unrounded scaled dimensions. A box that leaves the
    frame collapses to a 1e-6 sliver at its edge, so it stays non-degenerate.
    """
    return Box2D(
        x_min=min(max(box.x_min * factor, 0.0), width - 1e-6),
        y_min=min(max(box.y_min * factor, 0.0), height - 1e-6),
        x_max=max(min(box.x_max * factor, float(width)), 1e-6),
        y_max=max(min(box.y_max * factor, float(height)), 1e-6),
    )


def scale_boxes(
    truths: Sequence[GroundTruthBox], factor: float, width: float, height: float
) -> list[GroundTruthBox]:
    """Scale truth boxes by a linear factor, clipped to the new image bounds.

    Coordinates multiply by the exact factor so compositions of factors
    commute; bounds may be passed as the unrounded scaled dimensions.
    """
    return [
        GroundTruthBox(box=clip_scaled_box(t.box, factor, width, height), category=t.category)
        for t in truths
    ]


def resized_truths(scene: Scene, factor: float, out_w: int, out_h: int) -> list[GroundTruthBox]:
    """The scene's truths for its image resized by `factor` to out_w x out_h.

    Boxes clip to the larger of the rounded and the exact scaled size, so a
    box at the image edge is not cut by the rounding of the output size.
    """
    w, h = scene.image.width, scene.image.height
    return scale_boxes(
        scene.truths, factor, max(float(out_w), w * factor), max(float(out_h), h * factor)
    )
