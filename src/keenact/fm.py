"""Sparse second-order factorization machine with a sparse Adam optimizer.

A score is w0 + sum_i w_i x_i + 0.5 * sum_f [(sum_i v_if x_i)^2
- sum_i v_if^2 x_i^2], evaluated over the nonzero entries of x only.
One parameter set backs one scorer; the Keen and Act models share
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from keenact.features import SparseVector


@dataclass
class FMParameters:
    """Global bias, linear weights (dim,) and latent factors (dim, k)."""

    w0: float
    w: np.ndarray
    factors: np.ndarray

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @property
    def k(self) -> int:
        return self.factors.shape[1]

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.w0) and np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.factors)))

    def copy(self) -> "FMParameters":
        return FMParameters(self.w0, self.w.copy(), self.factors.copy())


@dataclass
class FMGradient:
    """Per-example gradient, sparse over the touched indices."""

    w0: float
    indices: np.ndarray
    w: np.ndarray
    factors: np.ndarray


@dataclass
class AdamState:
    """First/second moment accumulators matching FMParameters' shape.

    Sparse gradients touch only their own coordinates' moments; the step
    counter t is global.
    """

    m_w0: float
    v_w0: float
    m_w: np.ndarray
    v_w: np.ndarray
    m_factors: np.ndarray
    v_factors: np.ndarray
    t: int
    alpha: float
    beta1: float
    beta2: float
    eps: float

    @classmethod
    def for_params(
        cls,
        params: FMParameters,
        alpha: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> "AdamState":
        return cls(
            m_w0=0.0,
            v_w0=0.0,
            m_w=np.zeros_like(params.w),
            v_w=np.zeros_like(params.w),
            m_factors=np.zeros_like(params.factors),
            v_factors=np.zeros_like(params.factors),
            t=0,
            alpha=alpha,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def init_params(dim: int, k: int, seed: int, scale: float = 0.01) -> FMParameters:
    """Zero bias and linear weights; factors uniform in (-scale, +scale)."""
    if dim < 1 or k < 1:
        raise ValueError("dim and k must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    factors = rng.uniform(-scale, scale, size=(dim, k))
    return FMParameters(w0=0.0, w=np.zeros(dim), factors=factors)


def fm_score(params: FMParameters, x: SparseVector) -> float:
    """Score one input via the pairwise-interaction identity."""
    if x.dim != params.dim:
        raise ValueError(f"input dim {x.dim} != parameter dim {params.dim}")
    if x.nnz == 0:
        return float(params.w0)
    idx, val = x.indices, x.values
    vx = params.factors[idx] * val[:, None]
    s = vx.sum(axis=0)
    pairwise = 0.5 * (s @ s - (vx * vx).sum())
    return float(params.w0 + params.w[idx] @ val + pairwise)


def fm_gradient(params: FMParameters, x: SparseVector, upstream: float) -> FMGradient:
    """d(score)/d(params) scaled by ``upstream``, over touched indices only.

    d/dw0 = 1, d/dw_i = x_i, d/dv_if = x_i * (sum_j v_jf x_j) - v_if x_i^2.
    """
    if x.dim != params.dim:
        raise ValueError(f"input dim {x.dim} != parameter dim {params.dim}")
    idx, val = x.indices, x.values
    rows = params.factors[idx]
    s = rows.T @ val
    g_factors = upstream * (val[:, None] * s[None, :] - rows * (val * val)[:, None])
    return FMGradient(w0=float(upstream), indices=idx, w=upstream * val, factors=g_factors)


def combine_gradients(grads: list[FMGradient]) -> FMGradient:
    """Sum gradients over the union of their touched indices."""
    w0 = float(sum(g.w0 for g in grads))
    idx = np.concatenate([g.indices for g in grads])
    uniq, inverse = np.unique(idx, return_inverse=True)
    w = np.zeros(uniq.size)
    np.add.at(w, inverse, np.concatenate([g.w for g in grads]))
    k = grads[0].factors.shape[1]
    factors = np.zeros((uniq.size, k))
    np.add.at(factors, inverse, np.vstack([g.factors for g in grads]))
    return FMGradient(w0=w0, indices=uniq, w=w, factors=factors)


def adam_moves(m, v, grad, t, alpha: float, beta1: float, beta2: float, eps: float):
    """Bias-corrected Adam (Kingma & Ba, 2015): the new moments and the step to subtract.

    ``t`` is the step count after this update, a scalar or one count per
    coordinate; ``m``, ``v`` and ``grad`` may be floats or arrays.
    """
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    return m, v, alpha * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)


def adam_update(params: FMParameters, state: AdamState, grad: FMGradient) -> tuple[FMParameters, AdamState]:
    """One bias-corrected Adam step, in place; sparse over grad.indices."""
    state.t += 1
    hyper = (state.t, state.alpha, state.beta1, state.beta2, state.eps)
    state.m_w0, state.v_w0, step = adam_moves(state.m_w0, state.v_w0, grad.w0, *hyper)
    params.w0 -= step
    idx = grad.indices
    if idx.size:
        state.m_w[idx], state.v_w[idx], step = adam_moves(state.m_w[idx], state.v_w[idx], grad.w, *hyper)
        params.w[idx] -= step
        state.m_factors[idx], state.v_factors[idx], step = adam_moves(
            state.m_factors[idx], state.v_factors[idx], grad.factors, *hyper
        )
        params.factors[idx] -= step
    return params, state
