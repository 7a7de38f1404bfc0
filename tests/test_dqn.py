import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlaod.agent import (
    AdamState,
    ReplayBuffer,
    TrainConfig,
    Transition,
    adam_step,
    backward,
    forward,
    huber,
    init_params,
    select_action,
    sync_target,
    train_step,
)
from rlaod.agent.dqn import Batch
from rlaod.errors import ContractViolation


def double_dqn_target(tr, online, target, gamma):
    """Reference oracle for one transition's bootstrap value: the online net
    picks the action, the target net prices it."""
    if tr.terminal:
        return float(tr.reward)
    q_online, _ = forward(online, tr.next_state)
    a_star = int(np.argmax(q_online))
    q_target, _ = forward(target, tr.next_state)
    return float(tr.reward + gamma * q_target[a_star])


def three_forward_train_step(buffer, online, target, opt, cfg, rng):
    """Reference for train_step with separate online passes over states and
    next states."""
    if len(buffer) < cfg.batch_size:
        return None
    batch = buffer.sample(cfg.batch_size, rng)
    n = cfg.batch_size
    rows = np.arange(n)
    q, cache = forward(online, batch.states)
    q_taken = q[rows, batch.actions]
    q_next_online, _ = forward(online, batch.next_states)
    a_star = np.argmax(q_next_online, axis=1)
    q_next_target, _ = forward(target, batch.next_states)
    targets = batch.rewards + cfg.gamma * q_next_target[rows, a_star] * ~batch.terminals
    diff = q_taken - targets
    loss = float(np.mean(huber(diff)))
    grad_q = np.zeros_like(q)
    grad_q[rows, batch.actions] = np.clip(diff, -1.0, 1.0) / n
    adam_step(online, backward(online, cache, grad_q), opt)
    return loss


def normal_state(rng, dim):
    return rng.normal(size=dim)


def uniform_state(rng, dim):
    return rng.uniform(0.0, 1.0, size=dim)


def trajectory(rng, lengths, dim=4, draw=normal_state):
    """Transitions of consecutive episodes with the given lengths, each
    ending terminal: every non-first state of an episode is the previous
    transition's next_state array. `draw(rng, dim)` makes a state."""
    for length in lengths:
        state = draw(rng, dim)
        for step in range(length):
            tr = Transition(
                state=state,
                action=int(rng.integers(0, 2)),
                reward=float(rng.integers(-1, 2)),
                next_state=draw(rng, dim),
                terminal=step == length - 1,
            )
            yield tr
            state = tr.next_state


class TwoArrayBuffer:
    """Reference replay buffer: every transition keeps its own state and
    next_state rows, as the buffer did before states were stored once."""

    def __init__(self, capacity, state_dim):
        self.capacity = capacity
        self._states = np.zeros((capacity, state_dim), dtype=np.float32)
        self._next_states = np.zeros((capacity, state_dim), dtype=np.float32)
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity, dtype=np.float32)
        self._terminals = np.zeros(capacity, dtype=bool)
        self._cursor = 0
        self._size = 0

    def __len__(self):
        return self._size

    def push(self, tr):
        i = self._cursor
        self._states[i] = tr.state
        self._next_states[i] = tr.next_state
        self._actions[i] = tr.action
        self._rewards[i] = tr.reward
        self._terminals[i] = tr.terminal
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def gather(self, idx):
        return Batch(
            states=self._states[idx],
            actions=self._actions[idx],
            rewards=self._rewards[idx].astype(np.float64),
            next_states=self._next_states[idx],
            terminals=self._terminals[idx],
        )

    def sample(self, batch_size, rng):
        return self.gather(rng.integers(0, self._size, size=batch_size))


def assert_batches_match(got, want):
    """Every Batch field of the buffer equals the reference's, bit for bit;
    a terminal transition's next state is zeros instead."""
    for name in ("states", "actions", "rewards", "terminals"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    live = ~want.terminals
    assert got.next_states.dtype == np.float32
    assert got.next_states[live].tobytes() == want.next_states[live].tobytes()
    assert got.next_states[want.terminals].tobytes() == bytes(
        4 * got.next_states.shape[1] * int(want.terminals.sum())
    )


def make_transition(rng, dim=4, terminal=False, reward=0.0):
    return Transition(
        state=rng.normal(size=dim),
        action=int(rng.integers(0, 2)),
        reward=reward,
        next_state=rng.normal(size=dim),
        terminal=terminal,
    )


class TestReplayBuffer:
    def test_capacity_never_exceeded(self, rng):
        buf = ReplayBuffer(capacity=10, state_dim=4)
        for tr in trajectory(rng, [7, 1, 12, 5]):
            buf.push(tr)
            assert len(buf) <= 10
        assert len(buf) == 10

    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3, state_dim=1)
        for k in range(5):
            buf.push(
                Transition(
                    state=np.array([float(k)]),
                    action=0,
                    reward=0.0,
                    next_state=np.array([float(k + 1)]),
                    terminal=False,
                )
            )
        batch = buf.gather(np.arange(3))
        order = np.argsort(batch.states.ravel())
        assert batch.states.ravel()[order].tolist() == [2.0, 3.0, 4.0]
        assert batch.next_states.ravel()[order].tolist() == [3.0, 4.0, 5.0]

    def test_uniform_sampling_chi_squared(self, rng):
        buf = ReplayBuffer(capacity=20, state_dim=1)
        for k in range(20):
            buf.push(
                Transition(
                    state=np.array([float(k)]),
                    action=0,
                    reward=0.0,
                    next_state=np.array([float(k + 1)]),
                    terminal=False,
                )
            )
        draws = buf.sample_indices(10_000, rng)
        counts = np.bincount(draws, minlength=20)
        expected = 10_000 / 20
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square critical value at p = 0.01 with 19 degrees of freedom;
        # staying below it means uniformity is not rejected (p > 0.01).
        assert chi2 < 36.191

    def test_gather_dtypes(self, rng):
        buf = ReplayBuffer(capacity=4, state_dim=3)
        buf.push(make_transition(rng, dim=3, terminal=True, reward=-1.0))
        batch = buf.gather(np.array([0]))
        assert batch.states.dtype == np.float32
        assert batch.next_states.dtype == np.float32
        assert batch.rewards.dtype == np.float64
        assert batch.terminals[0]
        assert batch.rewards[0] == -1.0


class TestReplayLayout:
    """The one-ring buffer against the two-array reference."""

    @settings(max_examples=max(200, settings.default.max_examples), deadline=None)
    @given(
        capacity=st.integers(1, 7),
        lengths=st.lists(st.integers(1, 6), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_two_array_reference(self, capacity, lengths, seed):
        rng = np.random.default_rng(seed)
        buf, ref = ReplayBuffer(capacity, 3), TwoArrayBuffer(capacity, 3)
        for tr in trajectory(rng, lengths, 3):
            if buf._open is not None:
                if rng.random() < 0.5:
                    # An equal copy takes the bit comparison, not the identity check.
                    tr = Transition(tr.state.copy(), tr.action, tr.reward, tr.next_state,
                                    tr.terminal)
                if rng.random() < 0.3:
                    broken = Transition(tr.state + 1.0, tr.action, tr.reward, tr.next_state,
                                        tr.terminal)
                    with pytest.raises(ContractViolation):
                        buf.push(broken)
            buf.push(tr)
            ref.push(tr)
            assert len(buf) == len(ref)
            every = np.arange(len(ref))
            assert_batches_match(buf.gather(every), ref.gather(every))
        for _ in range(5):
            idx = rng.integers(0, len(ref), size=int(rng.integers(1, 11)))
            assert_batches_match(buf.gather(idx), ref.gather(idx))
        draw = int(rng.integers(0, 2**32))
        assert_batches_match(
            buf.sample(4, np.random.default_rng(draw)), ref.sample(4, np.random.default_rng(draw))
        )

    def test_continuity_break_stores_nothing(self):
        buf = ReplayBuffer(4, 3)
        buf.push(Transition(np.zeros(3), 0, 1.0, np.array([1.0, 1.0, 0.0]), False))
        tiny = np.nextafter(np.float32(0.0), np.float32(1.0))
        for state in ([2.0, 1.0, 0.0], [1.0, 1.0, tiny], [1.0, 1.0, -0.0]):
            with pytest.raises(ContractViolation):
                buf.push(Transition(np.array(state), 1, 0.0, np.zeros(3), True))
        assert len(buf) == 1
        # Equal as stored: 1e-50 rounds to float32 0.0.
        buf.push(Transition(np.array([1.0, 1.0, 1e-50]), 1, 0.0, np.zeros(3), True))
        # After a terminal transition a new episode may start anywhere.
        buf.push(Transition(np.full(3, 5.0), 0, 0.0, np.full(3, 6.0), False))
        batch = buf.gather(np.arange(3))
        assert batch.states.tolist() == [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [5.0, 5.0, 5.0]]
        assert batch.next_states.tolist() == [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [6.0, 6.0, 6.0]]

    @pytest.mark.parametrize(
        "capacity, state_dim, width, batch_size",
        [(8, 4, 16, 8), (61, 4, 16, 8), (150, 576, 128, 32)],
    )
    def test_train_steps_bit_identical(self, capacity, state_dim, width, batch_size):
        # 200 float32 gradient steps, pushing one transition per step as
        # train_agent does: a terminal transition's next state is zeros in
        # one buffer and a real state in the other, and the loss masks it.
        cfg = TrainConfig(
            batch_size=batch_size, buffer_capacity=capacity, warmup=0, hidden_width=width,
            hidden_layers=2,
        )
        rng = np.random.default_rng(capacity)
        pushes = list(
            itertools.islice(trajectory(rng, rng.geometric(0.2, size=400), state_dim), 400)
        )
        runs = []
        for buf in (ReplayBuffer(capacity, state_dim), TwoArrayBuffer(capacity, state_dim)):
            online = init_params(cfg.layer_sizes(state_dim), seed=4).astype(np.float32)
            target = online.copy()
            opt = AdamState.for_params(online, lr=cfg.learning_rate)
            batch_rng = np.random.default_rng(8)
            losses = []
            for tr in pushes:
                buf.push(tr)
                loss = train_step(buf, online, target, opt, cfg, batch_rng)
                if loss is not None:
                    losses.append(loss)
                    if len(losses) % 50 == 0:
                        sync_target(online, target)
                if len(losses) == 200:
                    break
            assert len(losses) == 200
            runs.append((losses, online.flat.tobytes(), opt.m.tobytes(), opt.v.tobytes()))
        assert runs[0] == runs[1]


class TestSelectAction:
    def test_greedy(self, rng):
        assert select_action(np.array([0.2, 0.7]), 0.0, rng) == 1

    def test_tie_goes_to_zero(self, rng):
        assert select_action(np.array([0.5, 0.5]), 0.0, rng) == 0

    def test_full_exploration_is_uniform(self):
        rng = np.random.default_rng(0)
        draws = [select_action(np.array([0.0, 9.9]), 1.0, rng) for _ in range(10_000)]
        freq = np.mean(draws)
        assert abs(freq - 0.5) < 0.02

    def test_epsilon_validation(self, rng):
        with pytest.raises(ValueError):
            select_action(np.array([0.0, 1.0]), 1.5, rng)


class TestDoubleDqnTarget:
    def test_terminal_is_reward(self, rng):
        online = init_params([4, 3, 2], seed=0)
        target = init_params([4, 3, 2], seed=1)
        tr = make_transition(rng, terminal=True, reward=1.0)
        assert double_dqn_target(tr, online, target, 0.9) == 1.0

    def test_bootstrap_arithmetic(self, rng):
        # Build nets whose outputs we control exactly: zero weights, biases
        # give q values directly.
        online = init_params([4, 3, 2], seed=0)
        target = init_params([4, 3, 2], seed=0)
        for p in (online, target):
            for w in p.weights:
                w[:] = 0.0
        online.biases[-1][:] = [0.9, 0.1]  # argmax -> head 0
        target.biases[-1][:] = [0.5, 2.0]  # head 0 priced at 0.5
        tr = make_transition(rng, reward=1.0)
        y = double_dqn_target(tr, online, target, 0.9)
        assert y == pytest.approx(1.0 + 0.9 * 0.5)

    def test_gamma_zero(self, rng):
        online = init_params([4, 3, 2], seed=0)
        target = init_params([4, 3, 2], seed=1)
        tr = make_transition(rng, reward=-1.0)
        assert double_dqn_target(tr, online, target, 0.0) == -1.0


class TestTrainStep:
    def make_setup(self, rng, cfg):
        online = init_params([4, 8, 8, 2], seed=11)
        target = online.copy()
        opt = AdamState.for_params(online, lr=cfg.learning_rate)
        buf = ReplayBuffer(capacity=256, state_dim=4)
        return online, target, opt, buf

    def test_insufficient_buffer_noop(self, rng):
        cfg = TrainConfig(batch_size=32)
        online, target, opt, buf = self.make_setup(rng, cfg)
        buf.push(make_transition(rng))
        assert train_step(buf, online, target, opt, cfg, rng) is None

    def test_loss_decreases_on_fixed_terminal_batch(self, rng):
        cfg = TrainConfig(batch_size=16, learning_rate=0.003)
        online, target, opt, buf = self.make_setup(rng, cfg)
        state = np.array([0.5, -0.25, 1.0, 0.0])
        for _ in range(32):
            buf.push(
                Transition(state=state, action=0, reward=0.0, next_state=state, terminal=True)
            )
        losses = [train_step(buf, online, target, opt, cfg, rng) for _ in range(120)]
        assert losses[-1] < losses[0]
        assert losses[-1] < 0.01

    def test_losses_finite_nonnegative(self, rng):
        cfg = TrainConfig(batch_size=8)
        online, target, opt, buf = self.make_setup(rng, cfg)
        for tr in trajectory(rng, [5, 9, 1, 17]):
            buf.push(tr)
        for _ in range(50):
            loss = train_step(buf, online, target, opt, cfg, rng)
            assert np.isfinite(loss) and loss >= 0.0

    def test_hand_computed_huber_batch_of_one(self, rng):
        cfg = TrainConfig(batch_size=1, gamma=0.9)
        online = init_params([2, 2, 2], seed=0)
        for w in online.weights:
            w[:] = 0.0
        online.biases[-1][:] = [2.0, 0.0]
        target = online.copy()
        opt = AdamState.for_params(online)
        buf = ReplayBuffer(capacity=4, state_dim=2)
        buf.push(
            Transition(
                state=np.zeros(2), action=0, reward=1.0, next_state=np.zeros(2), terminal=True
            )
        )
        # q(taken) = 2, y = 1 -> diff 1 -> huber = 0.5
        loss = train_step(buf, online, target, opt, cfg, rng)
        assert loss == pytest.approx(0.5)

    def test_huber_shape(self):
        d = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
        expected = np.array([2.5, 0.5, 0.125, 0.0, 0.125, 0.5, 1.5])
        assert huber(d) == pytest.approx(expected)


class TestTrainStepBits:
    def test_matches_three_forward_version(self):
        # Acceptance-sized net and batch, float64: one merged online pass must
        # give the same losses and parameters as separate passes.
        cfg = TrainConfig(batch_size=32, learning_rate=0.003)
        rng = np.random.default_rng(5)
        buf = ReplayBuffer(capacity=512, state_dim=576)
        lengths = rng.geometric(0.2, size=300)  # terminal with probability 0.2
        for tr in itertools.islice(trajectory(rng, lengths, 576, uniform_state), 300):
            buf.push(tr)
        nets = []
        for _ in range(2):
            online = init_params(cfg.layer_sizes(576), seed=21)
            nets.append((online, online.copy(), AdamState.for_params(online, lr=cfg.learning_rate)))
        losses = {}
        for (online, target, opt), step_fn in zip(nets, (train_step, three_forward_train_step)):
            batch_rng = np.random.default_rng(9)
            losses[step_fn] = []
            for it in range(40):
                losses[step_fn].append(step_fn(buf, online, target, opt, cfg, batch_rng))
                if (it + 1) % 10 == 0:
                    sync_target(online, target)
        assert losses[train_step] == losses[three_forward_train_step]
        assert np.array_equal(nets[0][0].flat, nets[1][0].flat)
        assert np.array_equal(nets[0][2].m, nets[1][2].m)


class TestSyncTarget:
    def test_sync_copies(self, rng):
        online = init_params([4, 3, 2], seed=0)
        target = init_params([4, 3, 2], seed=1)
        x = rng.normal(size=4)
        sync_target(online, target)
        qo, _ = forward(online, x)
        qt, _ = forward(target, x)
        assert np.array_equal(qo, qt)

    def test_sync_is_deep(self):
        online = init_params([4, 3, 2], seed=0)
        target = init_params([4, 3, 2], seed=1)
        sync_target(online, target)
        online.weights[0][0, 0] += 1.0
        assert target.weights[0][0, 0] != online.weights[0][0, 0]

    def test_idempotent(self, rng):
        online = init_params([4, 3, 2], seed=0)
        target = init_params([4, 3, 2], seed=1)
        sync_target(online, target)
        snap = [w.copy() for w in target.weights]
        sync_target(online, target)
        assert all(np.array_equal(a, b) for a, b in zip(snap, target.weights))


class TestTrainConfig:
    def test_epsilon_schedule(self):
        cfg = TrainConfig()
        assert cfg.epsilon_at(0, 1000) == pytest.approx(1.0)
        assert cfg.epsilon_at(100, 1000) == pytest.approx(0.55)
        assert cfg.epsilon_at(200, 1000) == pytest.approx(0.1)
        assert cfg.epsilon_at(999, 1000) == pytest.approx(0.1)

    def test_layer_sizes(self):
        cfg = TrainConfig(hidden_width=512)
        assert cfg.layer_sizes(576) == (576, 512, 512, 512, 512, 512, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(gamma=1.0)
        with pytest.raises(ValueError):
            TrainConfig(epsilon_start=1.5)
