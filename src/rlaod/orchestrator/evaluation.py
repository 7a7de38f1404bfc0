"""Mode-matrix evaluation over a degraded test set.

Each test scene contributes five images: the clean original plus one per
degradation operation. Every mode runs over the same set (starred modes
restrict to the clean originals) and is scored with the COCO-style AP
report plus the mean final performance score.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..environment import DegradeKind, Scene, degrade, generate_scene, sample_op
from ..errors import ConfigError
from ..metrics import ApReport, evaluate_ap
from .config import EvalMode, RunConfig, build_detector
from .pipeline import AgentBundle, run_episode


@dataclass(frozen=True)
class EvalImage:
    scene: Scene
    origin: str  # "clean" or the degradation kind


@dataclass(frozen=True)
class ModeResult:
    mode: EvalMode
    report: ApReport
    mean_p: float
    n_images: int

    def to_dict(self) -> dict:
        d = self.report.to_dict()
        d["mean_p"] = self.mean_p
        d["n_images"] = self.n_images
        return d


def degradation_variants(scene: Scene) -> list[EvalImage]:
    """The clean scene, then one degradation per DegradeKind in declaration order.

    Magnitudes come from the scene's own [seed, 0xDE6] stream, so a scene's
    variants do not depend on the other scenes in its set.
    """
    rng = np.random.default_rng([scene.seed, 0xDE6])
    return [EvalImage(scene=scene, origin="clean")] + [
        EvalImage(scene=degrade(scene, sample_op(kind, rng)), origin=kind.value)
        for kind in DegradeKind
    ]


def build_eval_set(cfg: RunConfig, scenes: Sequence[Scene] | None = None) -> list[EvalImage]:
    """Clean scenes plus their four degradations (five images per scene)."""
    if scenes is None:
        scenes = [
            generate_scene(cfg.seed + 1_000_000 + i, cfg.scene)
            for i in range(cfg.n_eval_scenes)
        ]
    return [im for scene in scenes for im in degradation_variants(scene)]


def evaluate_mode(
    mode: EvalMode,
    images: Sequence[EvalImage],
    bundle: AgentBundle | None,
    detector,
) -> ModeResult:
    if (mode.uses_brightness or mode.uses_scale) and bundle is None:
        raise ConfigError(f"mode {mode.value} needs trained weights")
    subset = [im for im in images if not mode.clean_only or im.origin == "clean"]

    brightness = bundle.brightness if mode.uses_brightness else None
    scale = bundle.scale if mode.uses_scale else None

    dets_per_image = []
    truths_per_image = []
    ps = []
    for im in subset:
        result = run_episode(im.scene, detector, mode.horizon, brightness, scale)
        dets_per_image.append(result.final_detections)
        truths_per_image.append(im.scene.truths)
        ps.append(result.final_p)

    return ModeResult(
        mode=mode,
        report=evaluate_ap(dets_per_image, truths_per_image),
        mean_p=float(np.mean(ps)) if ps else 0.0,
        n_images=len(subset),
    )


def evaluate_modes(
    cfg: RunConfig,
    modes: Sequence[EvalMode],
    bundle: AgentBundle | None = None,
    scenes: Sequence[Scene] | None = None,
) -> dict[EvalMode, ModeResult]:
    images = build_eval_set(cfg, scenes)
    with closing(build_detector(cfg)) as detector:
        return {mode: evaluate_mode(mode, images, bundle, detector) for mode in modes}
