"""Double DQN machinery: replay buffer, action selection, training step."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ContractViolation
from .mlp import AdamState, MlpParams, adam_step, backward, forward


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


@dataclass(frozen=True)
class Batch:
    states: np.ndarray  # float32, as stored
    actions: np.ndarray
    rewards: np.ndarray  # float64: they set the bits of the loss
    next_states: np.ndarray  # float32
    terminals: np.ndarray


class ReplayBuffer:
    """Fixed-capacity FIFO transition store with uniform sampling.

    States live once, in one float32 ring of `capacity + 1` rows: a
    transition's state sits at its own row and its next state at the row
    after it, which is also the following transition's state. So pushes
    must follow trajectories: unless the previous transition was terminal,
    a pushed `state` must be the previous `next_state` (the same array, or
    one with the same float32 bits), or `push` raises ContractViolation
    and stores nothing. A terminal transition's next state is not stored:
    it points at one more row that stays zero, so `gather` returns zeros
    for it, and `train_step` multiplies its term by `~terminal`. Arrays
    pushed are not to be changed in place afterwards.
    """

    def __init__(self, capacity: int, state_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.state_dim = state_dim
        self._states = np.zeros((capacity + 2, state_dim), dtype=np.float32)  # ring, zero row
        self._rows = np.zeros((2, capacity), dtype=np.int64)  # state rows, next-state rows
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity, dtype=np.float32)
        self._terminals = np.zeros(capacity, dtype=bool)
        self._cursor = 0
        self._size = 0
        self._head = 0  # the row of the next pushed state
        self._open = None  # the previous next_state while its trajectory goes on

    def __len__(self) -> int:
        return self._size

    def push(self, tr: Transition) -> None:
        i, row = self._cursor, self._head
        next_row = (row + 1) % (self.capacity + 1)
        if self._open is None:
            self._states[row] = tr.state
        elif tr.state is not self._open and not np.array_equal(
            # Bit for bit, as stored: -0.0 is not 0.0, and a NaN equals itself.
            self._states[row].view(np.uint32),
            np.asarray(tr.state, dtype=np.float32).view(np.uint32),
        ):
            raise ContractViolation(
                "pushed state is not the previous transition's next_state, "
                "and that transition was not terminal"
            )
        if not tr.terminal:
            self._states[next_row] = tr.next_state
        self._head = next_row
        self._open = None if tr.terminal else tr.next_state
        self._rows[0, i] = row
        self._rows[1, i] = self.capacity + 1 if tr.terminal else next_row
        self._actions[i] = tr.action
        self._rewards[i] = tr.reward
        self._terminals[i] = tr.terminal
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample_indices(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self._size, size=batch_size)

    def gather(self, idx: np.ndarray) -> Batch:
        n = len(idx)
        both = self._states.take(self._rows.take(idx, axis=1).ravel(), axis=0)
        return Batch(
            states=both[:n],
            actions=self._actions.take(idx),
            rewards=self._rewards.take(idx).astype(np.float64),
            next_states=both[n:],
            terminals=self._terminals.take(idx),
        )

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        return self.gather(self.sample_indices(batch_size, rng))


@dataclass
class TrainConfig:
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_final: float = 0.1
    epsilon_anneal_frac: float = 0.2  # fraction of iterations spent annealing
    batch_size: int = 32
    target_sync_every: int = 500
    buffer_capacity: int = 50_000
    iterations_brightness: int = 20_000  # paper-scale setting: 120_000
    iterations_scale: int = 10_000  # paper-scale setting: 40_000
    hidden_width: int = 128  # paper-scale setting: 512
    hidden_layers: int = 5
    learning_rate: float = 0.001
    warmup: int = 500

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma {self.gamma} outside [0, 1)")
        for name in ("epsilon_start", "epsilon_final"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} {v} outside [0, 1]")
        for name, least in (
            ("batch_size", 1),
            ("target_sync_every", 1),
            ("buffer_capacity", 1),
            ("hidden_width", 1),
            ("hidden_layers", 1),
            ("iterations_brightness", 0),
            ("iterations_scale", 0),
            ("warmup", 0),
        ):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        fill = max(self.batch_size, self.warmup)
        if self.buffer_capacity < fill:
            # train_step waits for max(batch_size, warmup) stored transitions.
            raise ValueError(
                f"buffer_capacity {self.buffer_capacity} below max(batch_size, warmup) = {fill}: "
                "no gradient step could ever run"
            )
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")

    def layer_sizes(self, input_dim: int, n_actions: int = 2) -> tuple[int, ...]:
        return (input_dim, *([self.hidden_width] * self.hidden_layers), n_actions)

    def epsilon_at(self, iteration: int, total_iterations: int) -> float:
        """Linear anneal from start to final over the first anneal fraction."""
        anneal = max(1, int(total_iterations * self.epsilon_anneal_frac))
        if iteration >= anneal:
            return self.epsilon_final
        frac = iteration / anneal
        return self.epsilon_start + frac * (self.epsilon_final - self.epsilon_start)


def select_action(q: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over Q-values; greedy ties go to the lower index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, len(q)))
    return int(np.argmax(q))


def huber(diff: np.ndarray, delta: float = 1.0) -> np.ndarray:
    a = np.abs(diff)
    return np.where(a <= delta, 0.5 * diff * diff, delta * (a - 0.5 * delta))


def train_step(
    buffer: ReplayBuffer,
    online: MlpParams,
    target: MlpParams,
    opt: AdamState,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> float | None:
    """One minibatch update; returns the mean Huber loss, or None if the
    buffer cannot fill a batch yet."""
    if len(buffer) < cfg.batch_size:
        return None
    batch = buffer.sample(cfg.batch_size, rng)
    n = cfg.batch_size
    rows = np.arange(n)

    # One online pass over states and next states; backward sees the first n rows.
    x = np.concatenate([batch.states, batch.next_states], dtype=online.flat.dtype)
    q_both, cache = forward(online, x)
    q = q_both[:n]
    q_taken = q[rows, batch.actions]
    cache = replace(
        cache,
        activations=[a[:n] for a in cache.activations],
        relu_masks=[m[:n] for m in cache.relu_masks],
    )

    a_star = np.argmax(q_both[n:], axis=1)
    q_next_target, _ = forward(target, x[n:])
    targets = batch.rewards + cfg.gamma * q_next_target[rows, a_star] * ~batch.terminals

    diff = q_taken - targets
    loss = float(np.mean(huber(diff)))

    grad_q = np.zeros_like(q)
    grad_q[rows, batch.actions] = np.clip(diff, -1.0, 1.0) / n
    grads = backward(online, cache, grad_q)
    adam_step(online, grads, opt)
    return loss


def sync_target(online: MlpParams, target: MlpParams) -> None:
    """Copy online parameters into the target network, in place."""
    np.copyto(target.flat, online.flat)
