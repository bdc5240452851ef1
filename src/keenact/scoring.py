"""Batched FM scoring through the block-part decomposition.

Inputs are concatenations of disjoint user/item/activity parts, so for
factor sums S_p = sum_{i in p} v_i x_i the score decomposes as

    w0 + sum_p base_p + sum_{p<q} S_p . S_q

with base_p folding the linear term and the within-part pairwise term.
This lets one user be scored against every item (or every item-activity
pair) with a few matrix products instead of per-pair loops.

``table_stats`` is the one kernel that computes a part's (base, S): over
padded part tables (``features.part_tables``) for phase-1 batches, and
over blocks of the same rows for ``Scorer``'s per-user and per-item
terms.  Equality with fm_score on assembled inputs is covered by tests,
and so is the equality of part_gradient, summed per row, with
fm_gradient/combine_gradients.
"""

from __future__ import annotations

import numpy as np

from keenact.features import FeatureLayout, FeatureMatrix, padded_rows
from keenact.fm import FMParameters


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
    """part_stats for every row of a padded part table: (base per row, factor sums).

    One sum of the scaled ``[w | v]`` rows gives the linear term and the
    factor sums together.  The rows are gathered position-major, so that
    sum runs over the leading axis and adds each row's products in order.
    """
    scaled = params.table[idx.T]
    scaled *= val.T[:, :, None]
    sums = scaled.sum(axis=0)
    s, vx = sums[:, 1:], scaled[:, :, 1:]
    base = sums[:, 0] + 0.5 * (np.einsum("ij,ij->i", s, s) - np.einsum("jik,jik->i", vx, vx))
    return base, s


def part_gradient(
    params: FMParameters,
    context: tuple[np.ndarray, np.ndarray],
    pos: tuple[np.ndarray, np.ndarray],
    neg: tuple[np.ndarray, np.ndarray],
    s_ctx: np.ndarray,
    s_pos: np.ndarray,
    s_neg: np.ndarray,
    weight: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient of weight[r] * (score(context[r] + neg[r]) - score(context[r] + pos[r])) for every row r.

    Parts are padded (indices, values) tables with one row each, with
    factor sums ``s_*`` (one row each) from table_stats; a row's context
    is disjoint from both its candidates, which may overlap.  Context
    entries get a zero linear term and weight * x * (S_neg - S_pos);
    candidate entries get the FM gradient against S_ctx + S_candidate.
    Returns (indices, owners, rows) over the stored (nonzero-valued)
    entries in row order, each row's in context, positive, negative
    order: ``owners`` is the row an entry belongs to, and an index that
    both candidates of a row hold appears twice, to be summed.
    """
    (cidx, cval), (pidx, pval), (nidx, nval) = context, pos, neg
    w = np.asarray(weight)[:, None]
    g_ctx = np.empty(cidx.shape + (params.k + 1,))
    g_ctx[..., 0] = 0.0
    g_ctx[..., 1:] = (w * cval)[..., None] * (s_neg - s_pos)[:, None, :]
    w_pos, w_neg = -w * pval, w * nval
    g_pos = np.empty(pidx.shape + (params.k + 1,))
    g_pos[..., 0] = w_pos
    g_pos[..., 1:] = w_pos[..., None] * (s_ctx + s_pos)[:, None, :] - (w_pos * pval)[..., None] * params.factors[pidx]
    g_neg = np.empty(nidx.shape + (params.k + 1,))
    g_neg[..., 0] = w_neg
    g_neg[..., 1:] = w_neg[..., None] * (s_ctx + s_neg)[:, None, :] - (w_neg * nval)[..., None] * params.factors[nidx]
    indices = np.concatenate((cidx, pidx, nidx), axis=1).ravel()
    stored = np.concatenate((cval, pval, nval), axis=1).ravel() != 0.0  # padding carries value 0
    owners = np.repeat(np.arange(len(cidx)), stored.size // len(cidx))
    rows = np.concatenate((g_ctx, g_pos, g_neg), axis=1).reshape(stored.size, -1)
    return indices[stored], owners[stored], rows[stored]


# scaled table floats in one block of _side_terms
_TERM_BLOCK = 1 << 16


def _side_terms(
    params: FMParameters,
    feats: FeatureMatrix,
    one_hot: int | None,
    feat_offset: int,
    kept: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """table_stats over the part-table rows of every entity of one side:
    (base per entity, factor sums).

    Rows go longest first, up to ``_TERM_BLOCK`` scaled floats at a time,
    and each block is cut to its widest row, so memory stays bounded.
    ``kept``, a boolean mask over the entities, keeps the one-hot only
    where set; elsewhere it gets value 0 (cold items score on their
    features).  Widths count the one-hot slot either way.
    """
    lengths = np.diff(feats.matrix.indptr) + (one_hot is not None)
    order = np.argsort(-lengths, kind="stable")
    base, s = np.empty(order.size), np.empty((order.size, params.k))
    start = 0
    while start < order.size:
        rows = order[start : start + max(1, _TERM_BLOCK // (max(1, lengths[order[start]]) * (params.k + 1)))]
        idx, val = padded_rows(feats, rows, one_hot, feat_offset)
        if one_hot is not None and kept is not None:
            val[:, 0] = kept[rows]
        base[rows], s[rows] = table_stats(params, idx, val)
        start += rows.size
    return base, s


class Scorer:
    """Read-only batch scorer for one trained FM over one layout.

    ``item_trained`` is a boolean mask over the items: the items it marks
    keep their id one-hot, and the rest are scored cold (side features
    only).  None means every item was observed in training.
    """

    def __init__(
        self,
        params: FMParameters,
        layout: FeatureLayout,
        user_feats: FeatureMatrix,
        item_feats: FeatureMatrix,
        item_trained: np.ndarray | None = None,
    ):
        if layout.dim != params.dim:
            raise ValueError(f"layout dim {layout.dim} != parameter dim {params.dim}")
        self.params = params
        self.layout = layout
        if (user_feats.n_rows, item_feats.n_rows) != (layout.n_users, layout.n_items):
            raise ValueError("feature rows do not match the layout's users and items")
        user_oh = layout.user_id_offset if layout.id_onehots else None
        self._user_base, self._user_s = _side_terms(params, user_feats, user_oh, layout.user_feat_offset)
        item_oh = layout.item_id_offset if layout.id_onehots else None
        self._item_base, self._item_s = _side_terms(
            params, item_feats, item_oh, layout.item_feat_offset, kept=item_trained
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

    def score_items(self, u: int) -> np.ndarray:
        """K(u, v) for every catalog item v.  There is no subset form: a product's
        last bit can depend on how many rows it covers."""
        self._check_user(u)
        return self.params.w0 + self._user_base[u] + self._item_base + self._item_s @ self._user_s[u]

    def score_activities(self, u: int, v: int) -> np.ndarray:
        """A(u, v, z) for every activity z: row ``v`` of score_pair_matrix."""
        if not 0 <= v < self.layout.n_items:
            raise ValueError(f"item id {v} outside [0, {self.layout.n_items})")
        return self.score_pair_matrix(u, [v])[0]

    def score_pair_matrix(self, u: int, items: np.ndarray | list[int] | None = None) -> np.ndarray:
        """A(u, v, z) as an (items, n_activities) matrix; ``items`` None is every catalog item.

        The item product always covers the whole catalog, and ``items``
        cuts its rows afterwards; every later step is elementwise, so a
        row's bits do not depend on which rows are asked for.
        """
        self._check_user(u)
        if not self.layout.n_activities:
            raise ValueError("scorer layout has no activity block")
        us = self._user_s[u]
        rows = slice(None) if items is None else items
        item_terms = (self._item_base + self._item_s @ us)[rows]
        act_terms = self._act_base + self._act_s @ us
        return self.params.w0 + self._user_base[u] + item_terms[:, None] + act_terms[None, :] + self._item_act_cross[rows]
