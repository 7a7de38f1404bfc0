"""Fully connected Q-network: forward, exact backprop, Adam.

Plain numpy throughout; weights are (n_in, n_out) so activations flow as
x @ W + b. Rectified-linear hidden layers, affine output head.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ContractViolation, TrainingDiverged


@dataclass
class MlpParams:
    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "MlpParams":
        return MlpParams(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


@dataclass(frozen=True)
class ForwardCache:
    """Activations captured by forward; consumed by backward."""

    params: MlpParams
    activations: list[np.ndarray]  # layer inputs: a_0 .. a_{L-1}, each (B, n)
    relu_masks: list[np.ndarray]
    single: bool  # input was a single state, not a batch


@dataclass
class ParamGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_params(layer_sizes: Sequence[int], seed: int) -> MlpParams:
    """He-uniform weights (bound sqrt(6 / fan_in)), zero biases."""
    sizes = tuple(int(n) for n in layer_sizes)
    if len(sizes) < 2 or any(n < 1 for n in sizes):
        raise ValueError(f"bad layer sizes {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return MlpParams(layer_sizes=sizes, weights=weights, biases=biases)


def forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Q-values for a state (n_in,) or batch (B, n_in), plus the backprop cache."""
    x = np.asarray(x, dtype=np.float64)
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
        z = a @ w + b
        if i < last:
            mask = z > 0.0
            a = z * mask
            masks.append(mask)
            activations.append(a)
        else:
            a = z
    q = a[0] if single else a
    return q, ForwardCache(params=params, activations=activations, relu_masks=masks, single=single)


def backward(params: MlpParams, cache: ForwardCache, grad_q: np.ndarray) -> ParamGrads:
    """Exact gradients of sum(q * grad_q) with respect to all weights and biases."""
    if cache.params is not params:
        raise ContractViolation("cache does not belong to these parameters")
    g = np.asarray(grad_q, dtype=np.float64)
    if cache.single:
        if g.shape != (params.layer_sizes[-1],):
            raise ContractViolation(f"grad_q shape {g.shape} does not match output")
        g = g[None, :]
    elif g.shape != (cache.activations[0].shape[0], params.layer_sizes[-1]):
        raise ContractViolation(f"grad_q shape {g.shape} does not match cached batch")

    n_layers = len(params.weights)
    d_weights: list[np.ndarray] = [None] * n_layers
    d_biases: list[np.ndarray] = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        a_prev = cache.activations[i]
        d_weights[i] = a_prev.T @ g
        d_biases[i] = g.sum(axis=0)
        if i > 0:
            g = (g @ params.weights[i].T) * cache.relu_masks[i - 1]
    return ParamGrads(weights=d_weights, biases=d_biases)


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    timestep: int = 0
    m_weights: list[np.ndarray] = field(default_factory=list)
    v_weights: list[np.ndarray] = field(default_factory=list)
    m_biases: list[np.ndarray] = field(default_factory=list)
    v_biases: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: MlpParams, lr: float = 0.001) -> "AdamState":
        return cls(
            lr=lr,
            m_weights=[np.zeros_like(w) for w in params.weights],
            v_weights=[np.zeros_like(w) for w in params.weights],
            m_biases=[np.zeros_like(b) for b in params.biases],
            v_biases=[np.zeros_like(b) for b in params.biases],
        )


def adam_step(params: MlpParams, grads: ParamGrads, opt: AdamState) -> None:
    """One bias-corrected Adam update, in place."""
    for g in grads.weights + grads.biases:
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged("non-finite gradient; training diverged")
    opt.timestep += 1
    t = opt.timestep
    c1 = 1.0 - opt.beta1**t
    c2 = 1.0 - opt.beta2**t
    for p, g, m, v in (
        list(zip(params.weights, grads.weights, opt.m_weights, opt.v_weights))
        + list(zip(params.biases, grads.biases, opt.m_biases, opt.v_biases))
    ):
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        p -= opt.lr * (m / c1) / (np.sqrt(v / c2) + opt.eps)
