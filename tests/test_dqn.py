import numpy as np
import pytest

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
        for _ in range(25):
            buf.push(make_transition(rng))
            assert len(buf) <= 10

    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3, state_dim=1)
        for k in range(5):
            buf.push(
                Transition(
                    state=np.array([float(k)]),
                    action=0,
                    reward=0.0,
                    next_state=np.array([0.0]),
                    terminal=False,
                )
            )
        kept = sorted(buf.gather(np.arange(3)).states.ravel().tolist())
        assert kept == [2.0, 3.0, 4.0]

    def test_uniform_sampling_chi_squared(self, rng):
        buf = ReplayBuffer(capacity=20, state_dim=1)
        for k in range(20):
            buf.push(
                Transition(
                    state=np.array([float(k)]),
                    action=0,
                    reward=0.0,
                    next_state=np.array([0.0]),
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
        for _ in range(32):
            buf.push(make_transition(rng, reward=float(rng.integers(-1, 2))))
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
        for _ in range(300):
            buf.push(
                Transition(
                    state=rng.uniform(0.0, 1.0, size=576),
                    action=int(rng.integers(0, 2)),
                    reward=float(rng.integers(-1, 2)),
                    next_state=rng.uniform(0.0, 1.0, size=576),
                    terminal=bool(rng.random() < 0.2),
                )
            )
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
