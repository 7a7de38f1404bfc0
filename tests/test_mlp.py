import numpy as np
import pytest

from rlaod.agent import (
    AdamState,
    MlpParams,
    ParamGrads,
    adam_step,
    backward,
    forward,
    init_params,
    load_params,
    save_params,
    sync_target,
)
from rlaod.errors import ContractViolation, RlaodError, WeightFormatError


def finite_difference_grads(params, x, grad_q, h=1e-5):
    """Central differences of sum(q * grad_q) over every parameter."""

    def value():
        q, _ = forward(params, x)
        return float(np.sum(q * grad_q))

    grads = ParamGrads(
        weights=[np.zeros_like(w) for w in params.weights],
        biases=[np.zeros_like(b) for b in params.biases],
    )
    for arrs, outs in ((params.weights, grads.weights), (params.biases, grads.biases)):
        for arr, out in zip(arrs, outs):
            flat = arr.reshape(-1)
            oflat = out.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = value()
                flat[i] = orig - h
                fm = value()
                flat[i] = orig
                oflat[i] = (fp - fm) / (2 * h)
    return grads


def max_rel_error(a: ParamGrads, b: ParamGrads) -> float:
    worst = 0.0
    for ga, gb in zip(a.weights + a.biases, b.weights + b.biases):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gb)), 1e-6)
        worst = max(worst, float((np.abs(ga - gb) / denom).max()))
    return worst


class TestInit:
    def test_deterministic(self):
        a = init_params([10, 8, 2], seed=5)
        b = init_params([10, 8, 2], seed=5)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_he_uniform_bound(self):
        p = init_params([100, 50, 2], seed=1)
        for w, n_in in zip(p.weights, (100, 50)):
            assert np.abs(w).max() <= np.sqrt(6.0 / n_in)

    def test_biases_zero(self):
        p = init_params([10, 8, 2], seed=3)
        assert all(np.all(b == 0) for b in p.biases)

    def test_weight_mean_near_zero(self):
        p = init_params([400, 300, 2], seed=7)
        w = p.weights[0]
        bound = np.sqrt(6.0 / 400)
        sigma = bound / np.sqrt(3.0) / np.sqrt(w.size)  # sd of the mean
        assert abs(w.mean()) < 3 * sigma * 1.5

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            init_params([5], seed=0)
        with pytest.raises(ValueError):
            init_params([5, 0, 2], seed=0)


class TestForward:
    def test_zero_weights_give_bias(self):
        p = init_params([4, 3, 2], seed=0)
        for w in p.weights:
            w[:] = 0.0
        p.biases[-1][:] = [0.25, -0.75]
        q, _ = forward(p, np.ones(4))
        assert np.array_equal(q, [0.25, -0.75])

    def test_single_path_hand_computed(self):
        # One unit per layer: q = w2 * relu(w1 * x + b1) + b2
        p = MlpParams(
            layer_sizes=(1, 1, 1),
            weights=[np.array([[2.0]]), np.array([[-3.0]])],
            biases=[np.array([0.5]), np.array([1.0])],
        )
        q, _ = forward(p, np.array([2.0]))
        assert q[0] == pytest.approx(-3.0 * (2.0 * 2.0 + 0.5) + 1.0)

    def test_relu_blocks_negative(self):
        p = MlpParams(
            layer_sizes=(1, 1, 1),
            weights=[np.array([[1.0]]), np.array([[5.0]])],
            biases=[np.array([0.0]), np.array([0.0])],
        )
        q, _ = forward(p, np.array([-3.0]))
        assert q[0] == 0.0

    def test_output_length_two(self):
        p = init_params([576, 16, 16, 2], seed=0)
        q, _ = forward(p, np.zeros(576))
        assert q.shape == (2,)

    def test_batched_matches_single(self, rng):
        p = init_params([6, 5, 2], seed=2)
        xs = rng.normal(size=(7, 6))
        q_batch, _ = forward(p, xs)
        for i in range(7):
            q_one, _ = forward(p, xs[i])
            assert q_one == pytest.approx(q_batch[i], abs=1e-12)

    def test_shape_mismatch(self):
        p = init_params([6, 5, 2], seed=2)
        with pytest.raises(ContractViolation):
            forward(p, np.zeros(7))


class TestBackward:
    def test_zero_grad_q(self, rng):
        p = init_params([5, 4, 2], seed=1)
        x = rng.normal(size=5)
        _, cache = forward(p, x)
        grads = backward(p, cache, np.zeros(2))
        assert all(np.all(g == 0) for g in grads.weights + grads.biases)

    def test_matches_finite_differences_small_net(self, rng):
        p = init_params([5, 4, 4, 2], seed=3)
        x = rng.uniform(-1, 1, size=5)
        gq = np.array([0.7, -0.3])
        _, cache = forward(p, x)
        analytic = backward(p, cache, gq)
        numeric = finite_difference_grads(p, x, gq)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_per_head_gradients(self, rng):
        # A one-hot grad on head 0 must produce zero gradient in head 1's
        # output column, and match finite differences elsewhere.
        p = init_params([4, 3, 2], seed=4)
        x = rng.uniform(-1, 1, size=4)
        _, cache = forward(p, x)
        g0 = backward(p, cache, np.array([1.0, 0.0]))
        assert np.all(g0.weights[-1][:, 1] == 0.0)
        assert g0.biases[-1][1] == 0.0
        numeric = finite_difference_grads(p, x, np.array([1.0, 0.0]))
        assert max_rel_error(g0, numeric) <= 1e-4

    def test_batched_grads_sum(self, rng):
        p = init_params([5, 4, 2], seed=6)
        xs = rng.uniform(-1, 1, size=(3, 5))
        gq = rng.normal(size=(3, 2))
        _, cache = forward(p, xs)
        batched = backward(p, cache, gq)
        total = ParamGrads(
            weights=[np.zeros_like(w) for w in p.weights],
            biases=[np.zeros_like(b) for b in p.biases],
        )
        for i in range(3):
            _, c1 = forward(p, xs[i])
            g1 = backward(p, c1, gq[i])
            for t, g in zip(total.weights + total.biases, g1.weights + g1.biases):
                t += g
        assert max_rel_error(batched, total) <= 1e-9

    def test_stale_cache_rejected(self, rng):
        p1 = init_params([5, 4, 2], seed=1)
        p2 = init_params([5, 4, 2], seed=2)
        _, cache = forward(p1, rng.normal(size=5))
        with pytest.raises(ContractViolation):
            backward(p2, cache, np.zeros(2))


def per_layer_backward(params, cache, grad_q):
    """The per-layer backward the flat one replaced, as a bit reference."""
    g = np.asarray(grad_q, dtype=params.flat.dtype)
    n_layers = len(params.weights)
    d_weights, d_biases = [None] * n_layers, [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        d_weights[i] = cache.activations[i].T @ g
        d_biases[i] = g.sum(axis=0)
        if i > 0:
            g = (g @ params.weights[i].T) * cache.relu_masks[i - 1]
    return d_weights, d_biases


class PerLayerAdam:
    """The per-layer Adam update the flat one replaced, as a bit reference."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(a) for a in params.weights + params.biases]
        self.v = [np.zeros_like(a) for a in params.weights + params.biases]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params.weights + params.biases, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class TestFlatBuffer:
    def test_views_alias_flat(self):
        p = init_params([6, 5, 3, 2], seed=4)
        packed = np.concatenate([a.ravel() for a in p.weights + p.biases])
        assert np.array_equal(packed, p.flat)
        for a in p.weights + p.biases:
            assert np.shares_memory(a, p.flat)
        p.flat[:] = np.arange(p.flat.size)
        assert p.weights[0][0, 1] == 1.0
        assert p.biases[-1][-1] == p.flat.size - 1
        p.weights[1][2, 0] = -7.0
        assert p.flat[30 + 2 * 3] == -7.0

    def test_constructor_packs_lists(self):
        weights = [np.full((3, 2), 1.5), np.full((2, 2), -2.0)]
        biases = [np.array([0.25, 0.5]), np.array([1.0, 2.0])]
        p = MlpParams(layer_sizes=(3, 2, 2), weights=weights, biases=biases)
        assert p.flat.dtype == np.float64
        assert np.array_equal(p.flat, [1.5] * 6 + [-2.0] * 4 + [0.25, 0.5, 1.0, 2.0])
        weights[0][0, 0] = 9.0
        assert p.weights[0][0, 0] == 1.5  # packed by copy
        g = ParamGrads(weights, biases)
        assert g.layer_sizes == (3, 2, 2)
        assert np.array_equal(g.weights[0], weights[0])

    def test_constructor_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            MlpParams(layer_sizes=(3, 2, 2), weights=[np.zeros((3, 2)), np.zeros((3, 2))],
                      biases=[np.zeros(2), np.zeros(2)])
        with pytest.raises(ValueError):
            MlpParams(layer_sizes=(3, 2), weights=[np.zeros((3, 2))], biases=[])

    def test_copy_is_deep(self):
        p = init_params([4, 3, 2], seed=1)
        c = p.copy()
        assert not np.shares_memory(c.flat, p.flat)
        for a in c.weights + c.biases:
            assert np.shares_memory(a, c.flat)
        c.weights[0][0, 0] += 1.0
        c.biases[0][0] += 1.0
        assert c.weights[0][0, 0] != p.weights[0][0, 0]
        assert c.biases[0][0] != p.biases[0][0]

    def test_astype_round_trip(self):
        p = init_params([4, 3, 2], seed=1)
        narrow = p.astype(np.float32)
        assert narrow.flat.dtype == np.float32 and narrow.weights[0].dtype == np.float32
        assert narrow.layer_sizes == p.layer_sizes
        wide = narrow.astype(np.float64)
        assert np.array_equal(wide.flat, p.flat.astype(np.float32).astype(np.float64))

    def test_sync_target_copies(self):
        online = init_params([4, 3, 2], seed=0)
        target = init_params([4, 3, 2], seed=1)
        flat_before = target.flat
        sync_target(online, target)
        assert target.flat is flat_before
        assert np.array_equal(target.flat, online.flat)
        assert not np.shares_memory(target.flat, online.flat)
        online.flat += 1.0
        assert not np.array_equal(target.flat, online.flat)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_and_backward_follow_params_dtype(self, dtype, rng):
        p = init_params([6, 5, 2], seed=2).astype(dtype)
        q, cache = forward(p, rng.normal(size=(3, 6)))
        assert q.dtype == dtype
        grads = backward(p, cache, np.ones((3, 2)))
        assert grads.flat.dtype == dtype
        for a in grads.weights + grads.biases:
            assert np.shares_memory(a, grads.flat)


class TestFlatBits:
    """The flat-buffer code keeps the per-layer code's bits."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_matches_per_layer(self, dtype, rng):
        p = init_params([576, 128, 128, 128, 128, 128, 2], seed=8).astype(dtype)
        x = rng.uniform(0.0, 1.0, size=(32, 576))
        _, cache = forward(p, x)
        gq = rng.normal(size=(32, 2)) / 32
        grads = backward(p, cache, gq)
        want_w, want_b = per_layer_backward(p, cache, gq)
        for got, want in zip(grads.weights + grads.biases, want_w + want_b):
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_adam_matches_per_layer(self, dtype, rng):
        flat_p = init_params([12, 9, 7, 2], seed=3).astype(dtype)
        ref_p = flat_p.copy()
        opt = AdamState.for_params(flat_p, lr=0.003)
        ref = PerLayerAdam(ref_p, lr=0.003)
        for step in range(12):
            scale = 10.0 ** rng.integers(-6, 2)
            grad_arrays = [
                (rng.normal(size=a.shape) * scale).astype(dtype) for a in flat_p.weights + flat_p.biases
            ]
            n = len(flat_p.weights)
            adam_step(flat_p, ParamGrads(grad_arrays[:n], grad_arrays[n:]), opt)
            ref.step(ref_p, grad_arrays)
            assert flat_p.flat.dtype == dtype
            for got, want in zip(flat_p.weights + flat_p.biases, ref_p.weights + ref_p.biases):
                assert np.array_equal(got, want), f"step {step}"
            assert np.array_equal(opt.m, np.concatenate([m.ravel() for m in ref.m]))
            assert np.array_equal(opt.v, np.concatenate([v.ravel() for v in ref.v]))


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = init_params([3, 2], seed=0)
        opt = AdamState.for_params(p)
        before = [w.copy() for w in p.weights]
        adam_step(
            p,
            ParamGrads([np.zeros((3, 2))], [np.zeros(2)]),
            opt,
        )
        assert opt.timestep == 1
        assert all(np.array_equal(a, b) for a, b in zip(before, p.weights))

    def test_first_step_is_signed_lr(self):
        p = init_params([2, 2], seed=1)
        opt = AdamState.for_params(p, lr=0.001)
        g = np.array([[0.3, -0.2], [0.5, 0.1]])
        before = p.weights[0].copy()
        adam_step(p, ParamGrads([g], [np.zeros(2)]), opt)
        delta = p.weights[0] - before
        # With m-hat = g and v-hat = g^2 the update is -lr * sign(g) (up to eps).
        assert delta == pytest.approx(-0.001 * np.sign(g), rel=1e-6)

    def test_two_identical_steps_shrink(self):
        p = init_params([2, 2], seed=1)
        opt = AdamState.for_params(p, lr=0.001)
        g = np.array([[0.5, 0.5], [0.5, 0.5]])
        w0 = p.weights[0].copy()
        adam_step(p, ParamGrads([g.copy()], [np.zeros(2)]), opt)
        step1 = np.abs(p.weights[0] - w0).max()
        w1 = p.weights[0].copy()
        adam_step(p, ParamGrads([g.copy()], [np.zeros(2)]), opt)
        step2 = np.abs(p.weights[0] - w1).max()
        # Closed form: second-step magnitude is strictly smaller because the
        # second-moment estimate accumulates while m-hat/sqrt(v-hat) stays 1.
        assert step2 < step1

    # The smallest parameter magnitude the first-moment flush cannot move.
    FLUSH_SAFE = {np.float32: 1e-16, np.float64: 2e-8}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flush_keeps_parameter_bits(self, dtype, rng):
        # Half the gradients are exactly 0 for 850 steps, as a dead unit's
        # are, so their unflushed first moments decay below 1e-30 (and below
        # float32's normal range) while the flushed ones are set to 0. Every
        # parameter of magnitude FLUSH_SAFE or more keeps the unflushed
        # reference's bits at every step. A few parameters are set near 0
        # once their moments are tiny: there equality cannot hold, and the
        # difference stays below the sum of the flushed updates.
        p = init_params([40, 24, 2], seed=4).astype(dtype)
        n = p.flat.size
        ref_p = p.copy()
        opt = AdamState.for_params(p, lr=1e-3)
        ref = PerLayerAdam(ref_p, lr=1e-3)
        dead = rng.random(n) < 0.5
        near_zero = rng.choice(np.flatnonzero(dead), 8, replace=False)
        tiny = np.array([0.0, 1e-30, -1e-28, 1e-25, -1e-22, 1e-20, -1e-18, 3e-17])
        safe = self.FLUSH_SAFE[dtype]
        for step in range(1050):
            g = (rng.normal(size=n) * 1e-2).astype(dtype)
            if 50 <= step < 900:
                g[dead] = 0.0
            if step == 600:
                p.flat[near_zero] = ref_p.flat[near_zero] = tiny
            grads = ParamGrads.from_flat(p.layer_sizes, g)
            adam_step(p, grads, opt)
            ref.step(ref_p, grads.weights + grads.biases)
            kept = np.abs(ref_p.flat) >= safe
            assert np.array_equal(p.flat[kept], ref_p.flat[kept]), f"step {step}"
            if step == 899:
                ref_m = np.concatenate([m.ravel() for m in ref.m])
                assert np.all(opt.m[dead] == 0.0)
                assert np.all(np.abs(ref_m[dead]) < 1e-30) and np.any(ref_m[dead] != 0.0)
                if dtype == np.float32:
                    assert np.any((ref_m != 0.0) & (np.abs(ref_m) < np.finfo(dtype).tiny))
        assert np.abs(p.flat - ref_p.flat).max() <= 1e-21

    def test_non_finite_gradient_rejected(self):
        p = init_params([2, 2], seed=1)
        opt = AdamState.for_params(p)
        g = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(RlaodError):
            adam_step(p, ParamGrads([g], [np.zeros(2)]), opt)


class TestWeightsIo:
    def test_round_trip_stable(self, tmp_path, rng):
        p = init_params([6, 5, 3, 2], seed=9)
        path = tmp_path / "w.rlw"
        save_params(p, path)
        first = load_params(path)
        save_params(first, path)
        second = load_params(path)
        xs = rng.uniform(-1, 1, size=(100, 6))
        q1, _ = forward(first, xs)
        q2, _ = forward(second, xs)
        assert np.array_equal(q1, q2)
        q0, _ = forward(p, xs)
        assert q0 == pytest.approx(q1, abs=1e-4)  # f32 quantization only

    def test_file_size_formula(self, tmp_path):
        p = init_params([6, 5, 2], seed=0)
        path = tmp_path / "w.rlw"
        save_params(p, path)
        expected = 8 + 4  # magic + layer count
        for w in p.weights:
            rows, cols = w.shape[1], w.shape[0]
            expected += 8 + 4 * (rows * cols + rows)
        assert path.stat().st_size == expected

    def test_corrupted_magic(self, tmp_path):
        p = init_params([4, 2], seed=0)
        path = tmp_path / "w.rlw"
        save_params(p, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(WeightFormatError):
            load_params(path)

    def test_truncation(self, tmp_path):
        p = init_params([4, 3, 2], seed=0)
        path = tmp_path / "w.rlw"
        save_params(p, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(WeightFormatError):
            load_params(path)

    def test_trailing_garbage(self, tmp_path):
        p = init_params([4, 2], seed=0)
        path = tmp_path / "w.rlw"
        save_params(p, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(WeightFormatError):
            load_params(path)

    # Little-endian f32: quiet NaN, +inf, -inf, and a signalling NaN (whose
    # widening would warn, so the loader must reject it first).
    @pytest.mark.parametrize(
        "bad", [b"\x00\x00\xc0\x7f", b"\x00\x00\x80\x7f", b"\x00\x00\x80\xff", b"\x01\x00\x80\x7f"],
        ids=["nan", "inf", "-inf", "snan"],
    )
    def test_non_finite_weights_rejected(self, tmp_path, bad):
        path = tmp_path / "w.rlw"
        save_params(init_params([4, 3, 2], seed=0), path)
        data = path.read_bytes()
        path.write_bytes(data[:40] + bad + data[44:])  # the first layer's 6th weight
        with pytest.raises(WeightFormatError, match="non-finite"):
            load_params(path)
