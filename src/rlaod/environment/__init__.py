"""Detector environment: scenes, detectors, degradations, episodes."""

from .degrade import SAMPLING_RANGES, DegradeKind, DegradeOp, degrade, sample_op
from .detector import (
    DetectorCalibration,
    DetectorOutput,
    OracleDetector,
    area_quality,
    brightness_quality,
)
from .episode import (
    EpisodeState,
    detection_mean_area,
    reset_episode,
    step_episode,
)
from .external import ExternalDetector
from .scene import Scene, SceneParams, generate_scene, scale_boxes

__all__ = [
    "DegradeKind",
    "DegradeOp",
    "SAMPLING_RANGES",
    "degrade",
    "sample_op",
    "DetectorCalibration",
    "DetectorOutput",
    "OracleDetector",
    "area_quality",
    "brightness_quality",
    "EpisodeState",
    "detection_mean_area",
    "reset_episode",
    "step_episode",
    "ExternalDetector",
    "Scene",
    "SceneParams",
    "generate_scene",
    "scale_boxes",
]
