"""Greedy inference: run trained agents over images, step by step."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..agent import MlpParams, forward, load_params, save_params
from ..environment import (
    EpisodeState,
    Scene,
    clip_scaled_box,
    reset_episode,
    step_episode,
)
from ..errors import ConfigError, WeightFormatError
from ..features import (
    STATE_DIM,
    StateKind,
    StateVector,
    area_histogram,
    assemble_state,
    brightness_histogram,
    gaussian_smooth,
    reduce_context,
)
from ..imaging import BRIGHTNESS_ACTIONS, SCALE_ACTIONS, AttributeAction, RgbImage
from ..metrics import Detection


def weight_file(kind: StateKind) -> str:
    """The file name of one agent's weights inside a weights directory."""
    return f"{kind.value}.rlw"


@dataclass
class AgentBundle:
    """The two independent trained networks."""

    brightness: MlpParams
    scale: MlpParams

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_params(self.brightness, out / weight_file(StateKind.BRIGHTNESS))
        save_params(self.scale, out / weight_file(StateKind.SCALE))

    @classmethod
    def load(cls, weights_dir: str | Path) -> "AgentBundle":
        paths = {kind: Path(weights_dir) / weight_file(kind) for kind in StateKind}
        for path in paths.values():
            if not path.exists():
                raise ConfigError(f"missing weight file {path}")
        return cls(
            brightness=_load_net(paths[StateKind.BRIGHTNESS], len(BRIGHTNESS_ACTIONS)),
            scale=_load_net(paths[StateKind.SCALE], len(SCALE_ACTIONS)),
        )


def _load_net(path: Path, n_actions: int) -> MlpParams:
    """Load one agent's net and check that it maps a state to its actions."""
    params = load_params(path)
    sizes = params.layer_sizes
    if sizes[0] != STATE_DIM or sizes[-1] != n_actions:
        raise WeightFormatError(
            f"{path}: layer sizes {sizes} do not map {STATE_DIM} state values "
            f"to {n_actions} actions"
        )
    return params


def agent_state(ep: EpisodeState, kind: StateKind) -> StateVector:
    """Assemble one agent's 576-value state from the episode's last pass."""
    ctx = reduce_context(ep.last_output.context)
    if kind is StateKind.BRIGHTNESS:
        return assemble_state(ctx, brightness_histogram(ep.current_image.v_counts), kind)
    return assemble_state(
        ctx, gaussian_smooth(area_histogram(ep.last_output.detections)), kind
    )


def greedy_action(params: MlpParams, state: StateVector, actions) -> AttributeAction:
    q, _ = forward(params, state.values)
    return actions[int(np.argmax(q))]


@dataclass(frozen=True)
class StepRecord:
    step: int
    action_b: str | None
    action_s: str | None
    level_b: float
    level_s: float
    p: float
    detections: list[Detection]  # in the step's own (resized) frame

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "action_b": self.action_b,
            "action_s": self.action_s,
            "level_b": self.level_b,
            "level_s": self.level_s,
            "p": self.p,
            "detections": [
                {
                    "bbox": [d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max],
                    "score": d.score,
                }
                for d in self.detections
            ],
        }


@dataclass
class EpisodeResult:
    scene_id: int
    initial_p: float
    final_p: float
    final_image: RgbImage
    final_detections: list[Detection]  # mapped back to the input frame
    cumulative_scale_factor: float
    trajectory: list[StepRecord]


def map_detections_back(
    detections: Sequence[Detection], factor: float, width: int, height: int
) -> list[Detection]:
    """Undo the episode's cumulative resize so boxes live in the input frame."""
    inv = 1.0 / factor
    return [
        Detection(
            box=clip_scaled_box(d.box, inv, width, height), score=d.score, category=d.category
        )
        for d in detections
    ]


def run_episode(
    scene: Scene,
    detector,
    horizon: int,
    brightness: MlpParams | None = None,
    scale: MlpParams | None = None,
) -> EpisodeResult:
    """Run one greedy episode with the nets given; with neither net this is a
    plain detector pass."""
    ep = reset_episode(scene, detector, max(horizon, 1))
    initial_p = ep.last_p
    trajectory: list[StepRecord] = []

    for _ in range(horizon if (brightness is not None or scale is not None) else 0):
        a_b = a_s = None
        if brightness is not None:
            a_b = greedy_action(
                brightness, agent_state(ep, StateKind.BRIGHTNESS), BRIGHTNESS_ACTIONS
            )
        if scale is not None:
            a_s = greedy_action(scale, agent_state(ep, StateKind.SCALE), SCALE_ACTIONS)
        ep, _, _, _ = step_episode(ep, a_b, a_s)
        trajectory.append(
            StepRecord(
                step=ep.step,
                action_b=a_b.value if a_b else None,
                action_s=a_s.value if a_s else None,
                level_b=ep.level_b,
                level_s=ep.level_s,
                p=ep.last_p,
                detections=list(ep.last_output.detections),
            )
        )

    return EpisodeResult(
        scene_id=scene.seed,
        initial_p=initial_p,
        final_p=ep.last_p,
        final_image=ep.current_image,
        final_detections=map_detections_back(
            ep.last_output.detections,
            ep.cumulative_scale_factor,
            scene.image.width,
            scene.image.height,
        ),
        cumulative_scale_factor=ep.cumulative_scale_factor,
        trajectory=trajectory,
    )
