"""Batched FM scoring through the block-part decomposition.

Inputs are concatenations of disjoint user/item/activity parts, so for
factor sums S_p = sum_{i in p} v_i x_i the score decomposes as

    w0 + sum_p base_p + sum_{p<q} S_p . S_q

with base_p folding the linear term and the within-part pairwise term.
This lets one user be scored against every item (or every item-activity
pair) with a few matrix products instead of per-pair loops.  Equality
with fm_score on assembled inputs is covered by tests, and so is the
equality of part_gradient with fm_gradient/combine_gradients.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from keenact.features import FeatureLayout, FeatureMatrix
from keenact.fm import FMGradient, FMParameters


def part_stats(params: FMParameters, idx: np.ndarray, val: np.ndarray) -> tuple[float, np.ndarray]:
    """(base, factor sum) for one part given absolute indices."""
    if idx.size == 0:
        return 0.0, np.zeros(params.k)
    rows = params.table[idx]
    s = rows[:, 1:].T @ val
    vx = rows[:, 1:] * val[:, None]
    base = rows[:, 0] @ val + 0.5 * (s @ s - (vx * vx).sum())
    return float(base), s


def table_stats(params: FMParameters, idx: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """part_stats for every row of a padded part table: (base per row, factor sums)."""
    rows = params.table[idx]
    vx = rows[:, :, 1:] * val[:, :, None]
    s = vx.sum(axis=1)
    base = (rows[:, :, 0] * val).sum(axis=1) + 0.5 * ((s * s).sum(axis=1) - (vx * vx).sum(axis=(1, 2)))
    return base, s


def part_gradient(
    params: FMParameters,
    context: tuple[np.ndarray, np.ndarray],
    pos: tuple[np.ndarray, np.ndarray],
    neg: tuple[np.ndarray, np.ndarray],
    s_ctx: np.ndarray,
    s_pos: np.ndarray,
    s_neg: np.ndarray,
    weight: float,
) -> FMGradient:
    """Gradient of weight * (score(context + neg) - score(context + pos)).

    Parts are (indices, values) with factor sums ``s_*`` from part_stats;
    the context is disjoint from both candidates, whose indices are sorted
    and may overlap.  Context rows get a zero linear term and
    weight * x * (S_neg - S_pos); candidate rows get the FM gradient
    against S_ctx + S_candidate, a shared row summed once.  The index set
    is that of combine_gradients over the two assembled inputs, in
    context, positive, negative-only order.
    """
    (cidx, cval), (pidx, pval), (nidx, nval) = context, pos, neg
    shared = np.zeros(nidx.size, dtype=bool)
    if pidx.size and nidx.size:
        loc = np.searchsorted(pidx, nidx)
        shared = pidx[np.minimum(loc, pidx.size - 1)] == nidx
    own = ~shared
    c, p = cidx.size, cidx.size + pidx.size
    rows = np.empty((p + int(own.sum()), params.k + 1))
    rows[:c, 0] = 0.0
    rows[:c, 1:] = weight * cval[:, None] * (s_neg - s_pos)
    w_pos, w_neg = -weight * pval, weight * nval
    rows[c:p, 0] = w_pos
    rows[c:p, 1:] = w_pos[:, None] * (s_ctx + s_pos) - (w_pos * pval)[:, None] * params.factors[pidx]
    g_neg = w_neg[:, None] * (s_ctx + s_neg) - (w_neg * nval)[:, None] * params.factors[nidx]
    rows[p:, 0] = w_neg[own]
    rows[p:, 1:] = g_neg[own]
    if shared.any():
        at = c + loc[shared]
        rows[at, 0] += w_neg[shared]
        rows[at, 1:] += g_neg[shared]
    return FMGradient(w0=0.0, indices=np.concatenate([cidx, pidx, nidx[own]]), rows=rows)


def _block_stats(
    params: FMParameters,
    onehot_offset: int | None,
    n_entities: int,
    feat_offset: int,
    feats: FeatureMatrix,
    onehot_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (base, S) over all entities of one side.

    ``onehot_offset`` None disables the id block; ``onehot_mask`` zeroes
    it per entity (cold items).
    """
    k = params.k
    d = feats.dim
    s = np.zeros((n_entities, k))
    lin = np.zeros(n_entities)
    sumsq = np.zeros(n_entities)
    if d:
        mat: sparse.csr_matrix = feats.matrix
        block = params.table[feat_offset : feat_offset + d]
        prod = mat @ block
        lin += prod[:, 0]
        s += prod[:, 1:]
        sumsq += mat.power(2) @ (block[:, 1:] ** 2).sum(axis=1)
    if onehot_offset is not None:
        oh = params.factors[onehot_offset : onehot_offset + n_entities]
        w_oh = params.w[onehot_offset : onehot_offset + n_entities]
        mask = np.ones(n_entities) if onehot_mask is None else onehot_mask
        s += mask[:, None] * oh
        lin += mask * w_oh
        sumsq += mask * (oh * oh).sum(axis=1)
    base = lin + 0.5 * ((s * s).sum(axis=1) - sumsq)
    return base, s


def _rows(items) -> slice | np.ndarray:
    """Row selector for per-item arrays: every row for None, else the given ids."""
    return slice(None) if items is None else np.asarray(items, dtype=np.int64)


class Scorer:
    """Read-only batch scorer for one trained FM over one layout.

    ``seen_items`` restricts which items keep their id one-hot; items
    outside it are scored cold (side features only).  None means every
    item was observed in training.
    """

    def __init__(
        self,
        params: FMParameters,
        layout: FeatureLayout,
        user_feats: FeatureMatrix,
        item_feats: FeatureMatrix,
        seen_items=None,
    ):
        if layout.dim != params.dim:
            raise ValueError(f"layout dim {layout.dim} != parameter dim {params.dim}")
        self.params = params
        self.layout = layout
        user_oh = layout.user_id_offset if layout.use_user_ids else None
        self._user_base, self._user_s = _block_stats(
            params, user_oh, layout.n_users, layout.user_feat_offset, user_feats
        )
        mask = None
        if seen_items is not None:
            mask = np.zeros(layout.n_items)
            seen = np.asarray(sorted(seen_items), dtype=np.int64)
            mask[seen] = 1.0
        item_oh = layout.item_id_offset if layout.use_item_ids else None
        self._item_base, self._item_s = _block_stats(
            params, item_oh, layout.n_items, layout.item_feat_offset, item_feats, onehot_mask=mask
        )
        # the activity block is the layout's last; the keen layout has none
        activities = slice(layout.activity_offset, layout.dim)
        self._act_base = params.w[activities].copy()
        self._act_s = params.factors[activities].copy()
        self._item_act_cross = self._item_s @ self._act_s.T

    def all_finite(self) -> bool:
        """True when every cached per-user, per-item and per-activity term is finite."""
        terms = (self._user_base, self._user_s, self._item_base, self._item_s, self._act_base, self._act_s)
        return all(np.isfinite(t).all() for t in (*terms, self._item_act_cross))

    def _check_user(self, u: int) -> None:
        if not (0 <= u < self.layout.n_users):
            raise ValueError(f"user id {u} outside [0, {self.layout.n_users})")

    def score_items(self, u: int, items: np.ndarray | None = None) -> np.ndarray:
        """K(u, v) for the given items (default: every catalog item)."""
        self._check_user(u)
        rows = _rows(items)
        return self.params.w0 + self._user_base[u] + self._item_base[rows] + self._item_s[rows] @ self._user_s[u]

    def score_activities(self, u: int, v: int) -> np.ndarray:
        """A(u, v, z) for every activity z: row ``v`` of score_pair_matrix."""
        return self._pair_matrix(u, slice(v, v + 1))[0]

    def score_pair_matrix(self, u: int, items: np.ndarray | None = None) -> np.ndarray:
        """A(u, v, z) as an (items, n_activities) matrix (default: every catalog item)."""
        return self._pair_matrix(u, _rows(items))

    def _pair_matrix(self, u: int, rows: slice | np.ndarray) -> np.ndarray:
        """The act score of user ``u`` on the item rows ``rows`` selects, for every activity."""
        self._check_user(u)
        if not self.layout.n_activities:
            raise ValueError("scorer layout has no activity block")
        us = self._user_s[u]
        item_terms = self._item_base[rows] + self._item_s[rows] @ us
        act_terms = self._act_base + self._act_s @ us
        cross = self._item_act_cross[rows]
        return self.params.w0 + self._user_base[u] + item_terms[:, None] + act_terms[None, :] + cross
