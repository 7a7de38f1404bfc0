"""Run configuration and evaluation modes."""

from __future__ import annotations

import json
import shlex
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

from ..agent import TrainConfig
from ..environment import DetectorCalibration, ExternalDetector, OracleDetector, SceneParams
from ..errors import ConfigError


class EvalMode(Enum):
    """Rows of the evaluation matrix: detector-only baseline, brightness-only
    or both agents at horizon 2 or 4, and the clean-set (starred) variants."""

    FR = "FR"
    B2 = "B2"
    BS2 = "BS2"
    B4 = "B4"
    BS4 = "BS4"
    FR_STAR = "FR*"
    BS4_STAR = "BS4*"

    @property
    def uses_brightness(self) -> bool:
        return self in (EvalMode.B2, EvalMode.BS2, EvalMode.B4, EvalMode.BS4, EvalMode.BS4_STAR)

    @property
    def uses_scale(self) -> bool:
        return self in (EvalMode.BS2, EvalMode.BS4, EvalMode.BS4_STAR)

    @property
    def horizon(self) -> int:
        return {"B2": 2, "BS2": 2, "B4": 4, "BS4": 4, "BS4*": 4}.get(self.value, 0)

    @property
    def clean_only(self) -> bool:
        return self in (EvalMode.FR_STAR, EvalMode.BS4_STAR)

    @classmethod
    def parse(cls, name: str) -> "EvalMode":
        for mode in cls:
            if mode.value.lower() == name.strip().lower():
                return mode
        raise ConfigError(f"unknown evaluation mode {name!r}")


def desk_scene_params() -> SceneParams:
    """Scene family small enough to train against in minutes: object areas
    sit inside the oracle's full-quality band on clean images."""
    # Areas stay inside the oracle's full-quality band even after four
    # greedy zoom-out steps from the initial level (worst case ~0.65x).
    return SceneParams(
        width=96,
        height=96,
        count_range=(0, 3),
        area_range=(30.0**2, 42.0**2),
    )


@dataclass
class RunConfig:
    seed: int = 0  # scene stream seed
    train_seed: int = 1
    horizon: int = 4
    detector: str = "oracle"  # "oracle" or "external"
    endpoint: str | None = None  # command line, or host:port for TCP
    degraded_fraction: float = 0.8
    n_eval_scenes: int = 300
    image_format: str = "ppm"  # "ppm" or "png"
    train: TrainConfig = field(default_factory=TrainConfig)
    scene: SceneParams = field(default_factory=desk_scene_params)
    calibration: DetectorCalibration = field(default_factory=DetectorCalibration)

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be at least 1, got {self.horizon}")
        if self.n_eval_scenes < 1:
            raise ConfigError(f"n_eval_scenes must be at least 1, got {self.n_eval_scenes}")
        if not 0.0 <= self.degraded_fraction <= 1.0:
            raise ConfigError(f"degraded_fraction {self.degraded_fraction} outside [0, 1]")
        if self.detector not in ("oracle", "external"):
            raise ConfigError(f"detector must be 'oracle' or 'external', got {self.detector!r}")
        if self.detector == "external" and not self.endpoint:
            raise ConfigError("external detector requires an endpoint")
        if self.image_format not in ("ppm", "png"):
            raise ConfigError(f"image_format must be 'ppm' or 'png', got {self.image_format!r}")


def _build_section(default, data: dict, name: str):
    """Overlay a config section's dict onto its default instance."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} section must be a JSON object, got {data!r}")
    if not data:
        return default
    known = {f.name for f in fields(default)}
    bad = set(data) - known
    if bad:
        raise ConfigError(f"unknown {name} option(s): {sorted(bad)}")
    tupled = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    try:
        return replace(default, **tupled)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} section: {exc}") from exc


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus flat overrides."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # ValueError covers decode errors
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must contain a JSON object")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})

    train = _build_section(TrainConfig(), data.pop("train", {}), "train")
    scene = _build_section(desk_scene_params(), data.pop("scene", {}), "scene")
    calib = _build_section(DetectorCalibration(), data.pop("calibration", {}), "calibration")
    known = {f.name for f in fields(RunConfig)} - {"train", "scene", "calibration"}
    bad = set(data) - known
    if bad:
        raise ConfigError(f"unknown config option(s): {sorted(bad)}")
    try:
        return RunConfig(train=train, scene=scene, calibration=calib, **data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def build_detector(cfg: RunConfig):
    """Instantiate the configured detector."""
    if cfg.detector == "oracle":
        return OracleDetector(cfg.calibration)
    endpoint = cfg.endpoint or ""
    try:
        if ":" in endpoint and " " not in endpoint:
            host, _, port = endpoint.rpartition(":")
            return ExternalDetector(address=(host, int(port)), image_format=cfg.image_format)
        command = shlex.split(endpoint)
    except ValueError as exc:
        raise ConfigError(f"bad endpoint {endpoint!r}: {exc}") from exc
    if not command:
        raise ConfigError(f"endpoint {endpoint!r} names no command")
    return ExternalDetector(command=command, image_format=cfg.image_format)
