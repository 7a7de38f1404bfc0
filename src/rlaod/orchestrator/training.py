"""Training loops for the two agents.

Each agent trains alone on episodes degraded along its own attribute
(80% degraded starts by default), while the other attribute stays at its
initial level. One environment step and one gradient step per iteration.
"""

from __future__ import annotations

import csv
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..agent import (
    AdamState,
    ReplayBuffer,
    Transition,
    forward,
    init_params,
    save_params,
    select_action,
    sync_target,
    train_step,
)
from ..environment import (
    DegradeKind,
    degrade,
    generate_scene,
    reset_episode,
    sample_op,
    step_episode,
)
from ..features import STATE_DIM, StateKind
from ..imaging import BRIGHTNESS_ACTIONS, SCALE_ACTIONS
from .config import RunConfig, build_detector
from .pipeline import AgentBundle, agent_state, weight_file

_DEGRADE_KINDS = {
    StateKind.BRIGHTNESS: (DegradeKind.OVER_EXPOSE, DegradeKind.UNDER_EXPOSE),
    StateKind.SCALE: (DegradeKind.ZOOM_IN, DegradeKind.ZOOM_OUT),
}


@dataclass
class LogRow:
    iteration: int
    loss: float | None
    epsilon: float
    mean_episode_reward: float | None


def _write_log(rows: list[LogRow], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loss", "epsilon", "mean_episode_reward"])
        for r in rows:
            writer.writerow(
                [
                    r.iteration,
                    "" if r.loss is None else f"{r.loss:.6f}",
                    f"{r.epsilon:.4f}",
                    "" if r.mean_episode_reward is None else f"{r.mean_episode_reward:.4f}",
                ]
            )


class _EpisodeStream:
    """Deterministic supply of (possibly degraded) training episodes."""

    def __init__(self, kind: StateKind, cfg: RunConfig, detector, seed: int):
        self.kind = kind
        self.cfg = cfg
        self.detector = detector
        self.rng = np.random.default_rng([seed, 0xE9])

    def next_episode(self):
        scene_seed = int(self.rng.integers(0, 2**62))
        scene = generate_scene(scene_seed, self.cfg.scene)
        if self.rng.random() < self.cfg.degraded_fraction:
            kinds = _DEGRADE_KINDS[self.kind]
            op = sample_op(kinds[int(self.rng.integers(0, len(kinds)))], self.rng)
            scene = degrade(scene, op)
        return reset_episode(scene, self.detector, self.cfg.horizon)


def train_agent(
    kind: StateKind,
    cfg: RunConfig,
    seed: int | None = None,
    out_dir: str | Path | None = None,
):
    """Train one agent; returns (params, log rows).

    Training runs in float32; the returned params are their float64 widening,
    so inference on them equals inference on the saved weight file. With
    `out_dir`, the agent's log `train_<kind>.csv` and its weight file are
    written there once training ends."""
    seed = cfg.train_seed if seed is None else seed
    total = (
        cfg.train.iterations_brightness
        if kind is StateKind.BRIGHTNESS
        else cfg.train.iterations_scale
    )
    actions = BRIGHTNESS_ACTIONS if kind is StateKind.BRIGHTNESS else SCALE_ACTIONS

    online = init_params(cfg.train.layer_sizes(STATE_DIM), seed).astype(np.float32)
    target = online.copy()
    opt = AdamState.for_params(online, lr=cfg.train.learning_rate)
    # One transition per iteration: a larger buffer would never fill or wrap.
    buffer = ReplayBuffer(max(1, min(cfg.train.buffer_capacity, total)), STATE_DIM)
    rng_agent = np.random.default_rng([seed, 0xA6])
    rng_batch = np.random.default_rng([seed, 0xB7])

    rows: list[LogRow] = []
    with closing(build_detector(cfg)) as detector:
        stream = _EpisodeStream(kind, cfg, detector, seed)
        ep = stream.next_episode()
        state = agent_state(ep, kind)
        ep_reward = 0.0
        recent_rewards: deque[float] = deque(maxlen=100)
        mean_reward: float | None = None  # of recent_rewards; changes only when an episode ends

        min_fill = max(cfg.train.batch_size, cfg.train.warmup)
        for it in range(total):
            epsilon = cfg.train.epsilon_at(it, total)
            q, _ = forward(online, state.values)
            a_idx = select_action(q, epsilon, rng_agent)
            action = actions[a_idx]
            if kind is StateKind.BRIGHTNESS:
                ep, r, _, terminal = step_episode(ep, action, None)
            else:
                ep, _, r, terminal = step_episode(ep, None, action)
            next_state = agent_state(ep, kind)
            buffer.push(
                Transition(
                    state=state.values,
                    action=a_idx,
                    reward=float(r),
                    next_state=next_state.values,
                    terminal=terminal,
                )
            )
            ep_reward += r
            if terminal:
                recent_rewards.append(ep_reward)
                mean_reward = float(np.mean(recent_rewards))
                ep_reward = 0.0
                ep = stream.next_episode()
                state = agent_state(ep, kind)
            else:
                state = next_state

            loss = train_step(buffer, online, target, opt, cfg.train, rng_batch) if len(buffer) >= min_fill else None
            if (it + 1) % cfg.train.target_sync_every == 0:
                sync_target(online, target)

            rows.append(LogRow(iteration=it, loss=loss, epsilon=epsilon, mean_episode_reward=mean_reward))

    params = online.astype(np.float64)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_log(rows, out / f"train_{kind.value}.csv")
        save_params(params, out / weight_file(kind))
    return params, rows


def train_agents(cfg: RunConfig, out_dir: str | Path | None = None) -> AgentBundle:
    """Train the brightness agent, then the scale agent; with `out_dir`, each
    writes its files there as it finishes."""
    nets = {kind: train_agent(kind, cfg, out_dir=out_dir)[0] for kind in StateKind}
    return AgentBundle(brightness=nets[StateKind.BRIGHTNESS], scale=nets[StateKind.SCALE])
