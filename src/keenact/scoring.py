"""Batched FM scoring through the block-part decomposition.

Inputs are concatenations of disjoint user/item/activity parts, so for
factor sums S_p = sum_{i in p} v_i x_i the score decomposes as

    w0 + sum_p base_p + sum_{p<q} S_p . S_q

with base_p folding the linear term and the within-part pairwise term.
This lets one user be scored against every item (or every item-activity
pair) with a few matrix products instead of per-pair loops.  Equality
with fm_score on assembled inputs is covered by tests, and so is the
equality of part_gradient, summed per row, with fm_gradient/combine_gradients.
"""

from __future__ import annotations

import numpy as np

from keenact.features import CSR, FeatureLayout, FeatureMatrix
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
    factor sums together.
    """
    scaled = params.table[idx] * val[:, :, None]
    sums = scaled.sum(axis=1)
    s, vx = sums[:, 1:], scaled[:, :, 1:]
    base = sums[:, 0] + 0.5 * (np.einsum("ij,ij->i", s, s) - np.einsum("ijk,ijk->i", vx, vx))
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


# floats in one padded block of _row_products
PRODUCT_BLOCK = 1 << 15


def _row_products(mat: CSR, table: np.ndarray, col_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mat @ table, (mat * mat) @ col_weights), each row adding its
    entries' products in stored order, from 0.

    That order is a sparse library's, so the sums keep its bits; a
    reduction that regroups them, as numpy's pairwise sum along the fast
    axis of an array does, would not.  ``bincount`` adds in that order, and
    so does ``np.add.reduce`` along any other axis, slice after slice.
    For the table, rows of similar length, longest first, go up to
    ``PRODUCT_BLOCK`` floats at a time into a (position, row, column)
    block whose slice p + 1 holds each row's p-th product and is summed
    over positions.  Every other slot gathers the product of an appended
    0 entry and zero row, +0.0: a sum that starts from +0.0 is never -0.0,
    so adding it changes nothing.
    """
    n_rows, width = mat.shape[0], table.shape[1]
    sq = np.bincount(mat.row_ids(), (mat.data * mat.data) * col_weights[mat.indices], minlength=n_rows)
    lengths = np.diff(mat.indptr)
    order = np.argsort(-lengths, kind="stable")
    data, cols = np.append(mat.data, 0.0), np.append(mat.indices, table.shape[0])
    table = np.vstack((table, np.zeros(width)))
    prod = np.zeros((n_rows, width))
    start = 0
    while start < n_rows and lengths[order[start]]:
        longest = int(lengths[order[start]])
        rows = order[start : start + max(1, PRODUCT_BLOCK // ((longest + 1) * width))]
        counts = lengths[rows]
        position = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        # the spare last row keeps axis 0 from being the fast axis
        at = np.full((longest + 1, rows.size + 1), mat.nnz)
        at[1 + position, np.repeat(np.arange(rows.size), counts)] = np.repeat(mat.indptr[rows], counts) + position
        block = table[cols[at]]
        block *= data[at][..., None]
        prod[rows] = np.add.reduce(block, axis=0)[:-1]
        start += rows.size
    return prod, sq


def _block_stats(
    params: FMParameters,
    onehot_offset: int | None,
    n_entities: int,
    feat_offset: int,
    feats: FeatureMatrix,
    onehot_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (base, S) over all entities of one side.

    ``onehot_offset`` None disables the id block; ``onehot_mask``, a
    boolean mask over the entities, keeps it only where set (cold items
    lose it).
    """
    k = params.k
    d = feats.dim
    s = np.zeros((n_entities, k))
    lin = np.zeros(n_entities)
    sumsq = np.zeros(n_entities)
    if d:
        block = params.table[feat_offset : feat_offset + d]
        prod, sq = _row_products(feats.matrix, block, (block[:, 1:] ** 2).sum(axis=1))
        lin += prod[:, 0]
        s += prod[:, 1:]
        sumsq += sq
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
        user_oh = layout.user_id_offset if layout.id_onehots else None
        self._user_base, self._user_s = _block_stats(
            params, user_oh, layout.n_users, layout.user_feat_offset, user_feats
        )
        item_oh = layout.item_id_offset if layout.id_onehots else None
        self._item_base, self._item_s = _block_stats(
            params, item_oh, layout.n_items, layout.item_feat_offset, item_feats, onehot_mask=item_trained
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
