"""Fully connected Q-network: forward, exact backprop, Adam.

Plain numpy throughout; weights are (n_in, n_out) so activations flow as
x @ W + b. Rectified-linear hidden layers, affine output head.

Parameters, gradients and Adam moments each live in one flat buffer (all
weights in layer order, then all biases); the per-layer arrays are views
into it. Arithmetic follows the dtype of the parameters: inference uses
float64, training float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ContractViolation, TrainingDiverged


def _views(flat: np.ndarray, sizes: tuple[int, ...]) -> tuple[list, list]:
    """Per-layer weight (n_in, n_out) and bias (n_out,) views of `flat`."""
    weights, biases, pos = [], [], 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[pos : pos + n_in * n_out].reshape(n_in, n_out))
        pos += n_in * n_out
    for n_out in sizes[1:]:
        biases.append(flat[pos : pos + n_out])
        pos += n_out
    return weights, biases


def _n_params(sizes: tuple[int, ...]) -> int:
    return sum(n_in * n_out + n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))


class _LayerBuffer:
    """One flat buffer with per-layer `weights` and `biases` views."""

    def __init__(self, layer_sizes: Sequence[int], weights, biases):
        sizes = tuple(int(n) for n in layer_sizes)
        arrays = [np.asarray(a) for a in (*weights, *biases)]
        self._bind(sizes, np.empty(_n_params(sizes), dtype=np.result_type(np.float32, *arrays)))
        views = self.weights + self.biases
        if len(arrays) != len(views) or any(a.shape != v.shape for a, v in zip(arrays, views)):
            raise ValueError(f"layer arrays do not match layer sizes {sizes}")
        for view, a in zip(views, arrays):
            view[...] = a

    def _bind(self, sizes: tuple[int, ...], flat: np.ndarray) -> None:
        self.layer_sizes = sizes
        self.flat = flat
        self.weights, self.biases = _views(flat, sizes)

    @classmethod
    def from_flat(cls, layer_sizes: tuple[int, ...], flat: np.ndarray):
        """Wrap `flat` without copying it."""
        obj = cls.__new__(cls)
        obj._bind(tuple(layer_sizes), flat)
        return obj


class MlpParams(_LayerBuffer):
    def copy(self) -> "MlpParams":
        return MlpParams.from_flat(self.layer_sizes, self.flat.copy())

    def astype(self, dtype) -> "MlpParams":
        """A copy in `dtype`."""
        return MlpParams.from_flat(self.layer_sizes, self.flat.astype(dtype))


class ParamGrads(_LayerBuffer):
    def __init__(self, weights, biases):
        super().__init__((weights[0].shape[0], *(w.shape[1] for w in weights)), weights, biases)


@dataclass(frozen=True)
class ForwardCache:
    """Activations captured by forward; consumed by backward."""

    params: MlpParams
    activations: list[np.ndarray]  # layer inputs: a_0 .. a_{L-1}, each (B, n)
    relu_masks: list[np.ndarray]
    single: bool  # input was a single state, not a batch


def init_params(layer_sizes: Sequence[int], seed: int) -> MlpParams:
    """He-uniform weights (bound sqrt(6 / fan_in)), zero biases."""
    sizes = tuple(int(n) for n in layer_sizes)
    if len(sizes) < 2 or any(n < 1 for n in sizes):
        raise ValueError(f"bad layer sizes {sizes}")
    rng = np.random.default_rng(seed)
    params = MlpParams.from_flat(sizes, np.zeros(_n_params(sizes)))
    for w, n_in in zip(params.weights, sizes):
        bound = np.sqrt(6.0 / n_in)
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Q-values for a state (n_in,) or batch (B, n_in), plus the backprop cache."""
    x = np.asarray(x, dtype=params.flat.dtype)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.layer_sizes[0]:
        raise ContractViolation(
            f"input shape {x.shape} does not match network input {params.layer_sizes[0]}"
        )

    activations = [x]
    masks = []
    a = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w
        a += b
        if i < last:
            mask = a > 0.0
            a *= mask
            masks.append(mask)
            activations.append(a)
    q = a[0] if single else a
    return q, ForwardCache(params=params, activations=activations, relu_masks=masks, single=single)


def backward(params: MlpParams, cache: ForwardCache, grad_q: np.ndarray) -> ParamGrads:
    """Exact gradients of sum(q * grad_q) with respect to all weights and biases."""
    if cache.params is not params:
        raise ContractViolation("cache does not belong to these parameters")
    g = np.asarray(grad_q, dtype=params.flat.dtype)
    if cache.single:
        if g.shape != (params.layer_sizes[-1],):
            raise ContractViolation(f"grad_q shape {g.shape} does not match output")
        g = g[None, :]
    elif g.shape != (cache.activations[0].shape[0], params.layer_sizes[-1]):
        raise ContractViolation(f"grad_q shape {g.shape} does not match cached batch")

    grads = ParamGrads.from_flat(params.layer_sizes, np.empty_like(params.flat))
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(cache.activations[i].T, g, out=grads.weights[i])
        np.sum(g, axis=0, out=grads.biases[i])
        if i > 0:
            g = g @ params.weights[i].T
            g *= cache.relu_masks[i - 1]
    return grads


# Every _FLUSH_EVERY steps, first moments below _FLUSH_BELOW in magnitude are
# set to 0. A parameter whose gradient stays exactly 0 (a dead ReLU unit)
# keeps a first moment that decays by beta1 each step until it is subnormal,
# and float32 arithmetic on subnormals is many times slower. The parameter
# bits hold: with |m| < 1e-30, c1 >= 1 - beta1 and the denominator at least
# eps = 1e-8, the update lr (m / c1) / (sqrt(v / c2) + eps) is below about
# 1e-24 (lr 1e-3), under half an ulp of any parameter of magnitude 1e-16
# or more, so subtracting it leaves such a parameter unchanged. Only a
# parameter closer to 0 than that can differ, and then by less than the
# sum of those updates.
_FLUSH_EVERY = 16
_FLUSH_BELOW = 1e-30


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    timestep: int = 0
    m: np.ndarray | None = None  # first moment, laid out like MlpParams.flat
    v: np.ndarray | None = None  # second moment
    scratch: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def for_params(cls, params: MlpParams, lr: float = 0.001) -> "AdamState":
        def zeros():
            return np.zeros_like(params.flat)

        return cls(lr=lr, m=zeros(), v=zeros(), scratch=(zeros(), zeros()))


def adam_step(params: MlpParams, grads: ParamGrads, opt: AdamState) -> None:
    """One bias-corrected Adam update, in place, over the whole flat buffer.

    Element by element the operations are those of
    m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
    p -= lr (m / c1) / (sqrt(v / c2) + eps), in that order, with tiny first
    moments flushed to 0 every _FLUSH_EVERY steps.
    """
    g, m, v, p = grads.flat, opt.m, opt.v, params.flat
    if not np.isfinite(g).all():
        raise TrainingDiverged("non-finite gradient; training diverged")
    opt.timestep += 1
    t = opt.timestep
    c1 = 1.0 - opt.beta1**t
    c2 = 1.0 - opt.beta2**t
    a, b = opt.scratch
    m *= opt.beta1
    np.multiply(g, 1.0 - opt.beta1, out=a)
    m += a
    if t % _FLUSH_EVERY == 0:
        m[np.abs(m) < _FLUSH_BELOW] = 0.0
    v *= opt.beta2
    np.multiply(g, 1.0 - opt.beta2, out=a)
    a *= g
    v += a
    np.divide(m, c1, out=a)
    a *= opt.lr
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += opt.eps
    a /= b
    p -= a
