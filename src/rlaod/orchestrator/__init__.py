"""End-to-end orchestration: training, inference, evaluation, CLI."""

from .config import (
    EvalMode,
    RunConfig,
    build_detector,
    desk_scene_params,
    load_config,
)
from .dataset import generate_dataset, load_dataset, write_dataset
from .evaluation import EvalImage, ModeResult, build_eval_set, evaluate_mode, evaluate_modes
from .pipeline import (
    AgentBundle,
    EpisodeResult,
    StepRecord,
    agent_state,
    map_detections_back,
    run_episode,
    run_rl_aod,
)
from .report import METRICS, emit_payload, emit_report, load_report
from .training import train_agent, train_agents
