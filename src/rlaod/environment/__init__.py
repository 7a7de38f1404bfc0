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
from .scene import Scene, SceneParams, clip_scaled_box, generate_scene, scale_boxes
