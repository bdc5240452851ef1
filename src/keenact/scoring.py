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

from keenact.features import FeatureLayout, FeatureMatrix, join_parts
from keenact.fm import FMGradient, FMParameters


def part_stats(params: FMParameters, idx: np.ndarray, val: np.ndarray) -> tuple[float, np.ndarray]:
    """(base, factor sum) for one part given absolute indices."""
    if idx.size == 0:
        return 0.0, np.zeros(params.k)
    rows = params.factors[idx]
    s = rows.T @ val
    vx = rows * val[:, None]
    base = params.w[idx] @ val + 0.5 * (s @ s - (vx * vx).sum())
    return float(base), s


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
    the context is disjoint from both candidates, which may share rows.
    Context rows get a zero linear term and weight * x * (S_neg - S_pos);
    candidate rows get the FM gradient against S_ctx + S_candidate, a
    shared row summed once.  The index set is that of combine_gradients
    over the two assembled inputs.
    """
    sizes = [pos[0].size, neg[0].size]
    idx, val = join_parts(pos, neg)
    upstream = np.repeat([-weight, weight], sizes)
    s_rows = s_ctx + np.repeat(np.vstack([s_pos, s_neg]), sizes, axis=0)
    g_rows = upstream[:, None] * (val[:, None] * s_rows - params.factors[idx] * (val * val)[:, None])
    uniq, inverse = np.unique(idx, return_inverse=True)
    w = np.zeros(uniq.size)
    np.add.at(w, inverse, upstream * val)
    factors = np.zeros((uniq.size, params.k))
    np.add.at(factors, inverse, g_rows)
    cidx, cval = context
    return FMGradient(
        w0=0.0,
        indices=np.concatenate([cidx, uniq]),
        w=np.concatenate([np.zeros(cidx.size), w]),
        factors=np.vstack([weight * cval[:, None] * (s_neg - s_pos)[None, :], factors]),
    )


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
        vf = params.factors[feat_offset : feat_offset + d]
        wf = params.w[feat_offset : feat_offset + d]
        s += mat @ vf
        lin += mat @ wf
        sumsq += mat.power(2) @ (vf * vf).sum(axis=1)
    if onehot_offset is not None:
        oh = params.factors[onehot_offset : onehot_offset + n_entities]
        w_oh = params.w[onehot_offset : onehot_offset + n_entities]
        mask = np.ones(n_entities) if onehot_mask is None else onehot_mask
        s += mask[:, None] * oh
        lin += mask * w_oh
        sumsq += mask * (oh * oh).sum(axis=1)
    base = lin + 0.5 * ((s * s).sum(axis=1) - sumsq)
    return base, s


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
        if layout.n_activities:
            oh = params.factors[layout.activity_offset : layout.activity_offset + layout.n_activities]
            self._act_base = params.w[layout.activity_offset : layout.activity_offset + layout.n_activities].copy()
            self._act_s = oh.copy()
            self._item_act_cross = self._item_s @ self._act_s.T
        else:
            self._act_base = None
            self._act_s = None
            self._item_act_cross = None

    def _check_user(self, u: int) -> None:
        if not (0 <= u < self.layout.n_users):
            raise ValueError(f"user id {u} outside [0, {self.layout.n_users})")

    def score_items(self, u: int, items: np.ndarray | None = None) -> np.ndarray:
        """K(u, v) for the given items (default: every catalog item)."""
        self._check_user(u)
        if items is None:
            base, s = self._item_base, self._item_s
        else:
            items = np.asarray(items, dtype=np.int64)
            base, s = self._item_base[items], self._item_s[items]
        return self.params.w0 + self._user_base[u] + base + s @ self._user_s[u]

    def score_activities(self, u: int, v: int) -> np.ndarray:
        """A(u, v, z) for every activity z."""
        self._check_user(u)
        if self._act_s is None:
            raise ValueError("scorer layout has no activity block")
        us, its = self._user_s[u], self._item_s[v]
        return (
            self.params.w0
            + self._user_base[u]
            + self._item_base[v]
            + self._act_base
            + us @ its
            + self._act_s @ us
            + self._act_s @ its
        )

    def score_pair_matrix(self, u: int) -> np.ndarray:
        """A(u, v, z) as an (n_items, n_activities) matrix."""
        self._check_user(u)
        if self._act_s is None:
            raise ValueError("scorer layout has no activity block")
        us = self._user_s[u]
        item_terms = self._item_base + self._item_s @ us
        act_terms = self._act_base + self._act_s @ us
        return (
            self.params.w0
            + self._user_base[u]
            + item_terms[:, None]
            + act_terms[None, :]
            + self._item_act_cross
        )
