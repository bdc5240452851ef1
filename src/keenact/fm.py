"""Sparse second-order factorization machine with a sparse Adam optimizer.

A score is w0 + sum_i w_i x_i + 0.5 * sum_f [(sum_i v_if x_i)^2
- sum_i v_if^2 x_i^2], evaluated over the nonzero entries of x only.
One parameter set backs one scorer; the Keen and Act models share
nothing.  Each set keeps w and V in one (dim, k+1) table whose row i is
[w_i | v_i], so a gradient is one block of rows and an Adam update one
step over them.  The bias w0 is part of the formula and the snapshot but
is never trained: the pairwise losses do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from keenact.features import SparseVector


class FMParameters:
    """Global bias and one (dim, k+1) table of rows [w_i | v_i].

    ``w`` (dim,) and ``factors`` (dim, k) are views of the table.
    """

    def __init__(self, w0: float, w: np.ndarray, factors: np.ndarray):
        if np.ndim(w) != 1 or np.ndim(factors) != 2 or len(factors) != len(w):
            raise ValueError(f"w {np.shape(w)} and factors {np.shape(factors)} need shapes (dim,) and (dim, k)")
        self.w0 = w0
        self.table = np.column_stack((w, factors))

    @property
    def w(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def factors(self) -> np.ndarray:
        return self.table[:, 1:]

    @property
    def dim(self) -> int:
        return self.table.shape[0]

    @property
    def k(self) -> int:
        return self.table.shape[1] - 1

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.w0) and np.all(np.isfinite(self.table)))

    def copy(self) -> "FMParameters":
        return FMParameters(self.w0, self.w, self.factors)


@dataclass
class FMGradient:
    """Per-example gradient, sparse over the touched indices: one [w | V] row each."""

    w0: float
    indices: np.ndarray
    rows: np.ndarray

    @property
    def w(self) -> np.ndarray:
        return self.rows[:, 0]

    @property
    def factors(self) -> np.ndarray:
        return self.rows[:, 1:]


@dataclass
class AdamState:
    """First/second moment tables matching FMParameters.table.

    Sparse gradients touch only their own rows' moments; the step
    counter t is global.
    """

    m: np.ndarray
    v: np.ndarray
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
            m=np.zeros_like(params.table),
            v=np.zeros_like(params.table),
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
    return FMGradient(w0=float(upstream), indices=idx, rows=np.column_stack((upstream * val, g_factors)))


def combine_gradients(grads: list[FMGradient]) -> FMGradient:
    """Sum gradients over the union of their touched indices."""
    w0 = float(sum(g.w0 for g in grads))
    idx = np.concatenate([g.indices for g in grads])
    uniq, inverse = np.unique(idx, return_inverse=True)
    rows = np.zeros((uniq.size, grads[0].rows.shape[1]))
    np.add.at(rows, inverse, np.vstack([g.rows for g in grads]))
    return FMGradient(w0=w0, indices=uniq, rows=rows)


def adam_moves(m, v, grad, t, alpha: float, beta1: float, beta2: float, eps: float):
    """Bias-corrected Adam (Kingma & Ba, 2015): the new moments and the step to subtract.

    ``t`` is the step count after this update, a scalar or one count per
    coordinate; ``m``, ``v`` and ``grad`` are arrays in the program.  The
    root is ``** 0.5``: numpy takes it as ``sqrt`` on arrays, and on
    floats it keeps floats as floats (C ``pow``, within an ulp of sqrt).
    The scalar cutoff fit in ``training`` writes this rule out in Python
    floats, with the bias corrections from tables; the tests pin the two
    together by running this function on floats as the fit's oracle.
    """
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    return m, v, alpha * (m / (1.0 - beta1**t)) / ((v / (1.0 - beta2**t)) ** 0.5 + eps)


def adam_update(params: FMParameters, state: AdamState, grad: FMGradient) -> tuple[FMParameters, AdamState]:
    """One bias-corrected Adam step, in place; sparse over grad.indices.

    ``grad.w0`` is not applied and ``params.w0`` does not move: every
    loss trained here is a difference of two scores, in which the bias
    cancels, so its gradient is always 0 (Rendle et al., BPR, 2009).
    """
    state.t += 1
    idx = grad.indices
    state.m[idx], state.v[idx], step = adam_moves(
        state.m[idx], state.v[idx], grad.rows, state.t, state.alpha, state.beta1, state.beta2, state.eps
    )
    params.table[idx] -= step
    return params, state
