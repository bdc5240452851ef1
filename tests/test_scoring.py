"""Batch scorer equality with per-input fm_score on assembled vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keenact.data import Catalog, InteractionStore
from keenact.features import (
    CSR,
    FeatureLayout,
    FeatureMatrix,
    assemble_act_input,
    assemble_keen_input,
    co_participation_features,
    empty_features,
    padded_rows,
    part_tables,
)
from keenact.features import activity_part, item_part, user_part
from keenact.fm import FMGradient, combine_gradients, fm_gradient, fm_score, init_params
from keenact.scoring import Scorer, part_gradient, part_stats, table_stats


def pad_parts(parts):
    """Stack (indices, values) parts into one padded pair, one row per part,
    padded at the end with index 0 and value 0: the part-table oracle."""
    parts = list(parts)
    width = max([1] + [p[0].size for p in parts])
    indices = np.zeros((len(parts), width), dtype=np.int64)
    values = np.zeros((len(parts), width))
    for row, (idx, val) in enumerate(parts):
        indices[row, : idx.size] = idx
        values[row, : val.size] = val
    return indices, values


def join_parts(*parts):
    """Concatenate (indices, values) parts of disjoint blocks, unsorted."""
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def random_setup(seed, n_users=6, n_items=9, n_acts=3, d_item=4, id_onehots=True):
    rng = np.random.default_rng(seed)
    catalog = Catalog(
        [f"u{i}" for i in range(n_users)],
        [f"i{j}" for j in range(n_items)],
        [f"a{z}" for z in range(n_acts)],
    )
    triples = sorted(
        {
            (int(u), int(v), int(z))
            for u, v, z in zip(
                rng.integers(0, n_users, 40),
                rng.integers(0, n_items, 40),
                rng.integers(0, n_acts, 40),
            )
        }
    )
    store = InteractionStore(catalog, triples)
    user_feats = co_participation_features(store)
    item_rows = rng.normal(size=(n_items, d_item)) * (rng.random((n_items, d_item)) < 0.4)
    item_feats = FeatureMatrix(CSR.from_dense(item_rows))
    keen_layout = FeatureLayout.for_keen(catalog, user_feats, item_feats, id_onehots)
    act_layout = FeatureLayout.for_act(catalog, user_feats, item_feats, id_onehots)
    keen_params = init_params(keen_layout.dim, 5, seed=seed + 1, scale=0.5)
    act_params = init_params(act_layout.dim, 5, seed=seed + 2, scale=0.5)
    keen_params.w0 = 0.3
    keen_params.w[:] = rng.normal(size=keen_layout.dim)
    act_params.w0 = -0.2
    act_params.w[:] = rng.normal(size=act_layout.dim)
    return catalog, store, user_feats, item_feats, keen_layout, act_layout, keen_params, act_params


class TestPartStats:
    def test_single_part_reproduces_fm_terms(self):
        """base folds the linear and within-part pairwise contributions."""
        rng = np.random.default_rng(2)
        params = init_params(6, 3, seed=0, scale=0.4)
        params.w[:] = rng.normal(size=6)
        idx = np.array([1, 4], dtype=np.int64)
        val = np.array([2.0, -1.0])
        base, s = part_stats(params, idx, val)
        lin = params.w[idx] @ val
        pairwise = (params.factors[1] @ params.factors[4]) * val[0] * val[1]
        np.testing.assert_allclose(base, lin + pairwise)
        np.testing.assert_allclose(s, params.factors[idx].T @ val)

    def test_empty_part(self):
        params = init_params(4, 2, seed=0)
        base, s = part_stats(params, np.empty(0, dtype=np.int64), np.empty(0))
        assert base == 0.0
        np.testing.assert_array_equal(s, np.zeros(2))


class TestTableStats:
    """table_stats on a padded table, row by row against part_stats on the unpadded part."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        widths=st.lists(st.integers(0, 9), min_size=1, max_size=12),
        k=st.integers(1, 6),
        pad=st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_match_part_stats(self, seed, widths, k, pad):
        """Rows of every width, all-padding ones included, with values other
        than 1.  ``s`` equals the in-order sum of the row's scaled factor rows
        exactly, and part_stats's within 1e-12 (its sum is one BLAS product,
        which may fuse and reorder); ``base`` is within 1e-12."""
        rng = np.random.default_rng(seed)
        params = init_params(20, k, seed=seed % 1000, scale=0.5)
        params.w[:] = rng.normal(size=20)
        parts = []
        for width in widths + [1]:
            idx = np.sort(rng.choice(20, size=width, replace=False))
            parts.append((idx, rng.choice([-1.0, 1.0], size=width) * rng.uniform(0.1, 3.0, size=width)))
        idx, val = pad_parts(parts)
        # extra padding columns beyond the widest row
        idx = np.pad(idx, ((0, 0), (0, pad)))
        val = np.pad(val, ((0, 0), (0, pad)))
        base, s = table_stats(params, idx, val)
        assert base.shape == (len(parts),) and s.shape == (len(parts), k)
        for row, (part_idx, part_val) in enumerate(parts):
            want_base, want_s = part_stats(params, part_idx, part_val)
            in_order = np.zeros(k)
            for i, x in zip(part_idx, part_val):
                in_order = in_order + params.factors[i] * x
            assert s[row].tolist() == in_order.tolist()
            np.testing.assert_allclose(s[row], want_s, rtol=0, atol=1e-12)
            np.testing.assert_allclose(base[row], want_base, rtol=0, atol=1e-12)


@st.composite
def part_layouts(draw):
    """A layout and its user and item feature rows: empty rows, zero-width
    feature blocks, id one-hots on or off, with or without an activity block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def feature_rows(n):
        width, density = draw(st.integers(0, 6)), draw(st.sampled_from([0.0, 0.3, 1.0]))
        return FeatureMatrix(CSR.from_dense(rng.normal(size=(n, width)) * (rng.random((n, width)) < density)))

    n_users, n_items = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    uf, itf = feature_rows(n_users), feature_rows(n_items)
    layout = FeatureLayout(n_users, n_items, uf.dim, itf.dim, draw(st.integers(0, 3)), draw(st.booleans()))
    return layout, uf, itf


class TestPartTables:
    """part_tables and padded_rows against pad_parts over the per-entity parts."""

    @settings(max_examples=200, deadline=None)
    @given(part_layouts(), st.data())
    def test_rows_match_the_per_entity_parts(self, case, data):
        layout, uf, itf = case
        want = (
            pad_parts(user_part(u, layout, uf) for u in range(layout.n_users)),
            pad_parts(item_part(v, layout, itf) for v in range(layout.n_items)),
            pad_parts(activity_part(z, layout) for z in range(layout.n_activities)),
        )
        for got, oracle in zip(part_tables(layout, uf, itf), want):
            assert got[0].dtype == np.int64 and got[1].dtype == np.float64
            np.testing.assert_array_equal(got[0], oracle[0])
            np.testing.assert_array_equal(got[1], oracle[1])
        # Scorer's blocks: any rows, in any order, cut to the widest of them
        draw_items = st.lists(st.integers(0, max(0, layout.n_items - 1)), max_size=6 if layout.n_items else 0)
        items = np.array(data.draw(draw_items), dtype=np.int64)
        one_hot = layout.item_id_offset if layout.id_onehots else None
        idx, val = padded_rows(itf, items, one_hot, layout.item_feat_offset)
        oracle = pad_parts(item_part(v, layout, itf) for v in items)
        np.testing.assert_array_equal(idx, oracle[0])
        np.testing.assert_array_equal(val, oracle[1])


def assert_part_gradient_matches_oracle(params, cases):
    """One part_gradient call over every (context, pos, neg, x_pos, x_neg, weight)
    case as a padded batch; each row's entries, summed per index, equal the
    combined fm_gradient of its assembled pair."""
    context, pos, neg = (pad_parts(case[i] for case in cases) for i in range(3))
    s_ctx, s_pos, s_neg = (np.array([part_stats(params, *case[i])[1] for case in cases]) for i in range(3))
    weight = np.array([case[5] for case in cases])
    indices, owners, rows = part_gradient(params, context, pos, neg, s_ctx, s_pos, s_neg, weight)
    assert np.all(np.diff(owners) >= 0)
    for r, (_, _, _, x_pos, x_neg, w) in enumerate(cases):
        got = combine_gradients([FMGradient(0.0, indices[owners == r], rows[owners == r])])
        want = combine_gradients([fm_gradient(params, x_pos, -w), fm_gradient(params, x_neg, w)])
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.w, want.w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.factors, want.factors, rtol=0, atol=1e-12)


class TestPartGradient:
    """part_gradient, summed per row, equals the combined fm_gradient of each assembled pair."""

    @pytest.mark.parametrize("id_onehots", [True, False])
    @pytest.mark.parametrize("dense_items", [False, True])
    def test_keen_act_and_flat_layouts(self, id_onehots, dense_items):
        catalog, _, uf, itf, keen_l, act_l, keen_p, act_p = random_setup(31, id_onehots=id_onehots)
        if dense_items:
            # every item row fills every column, so candidates share feature rows
            rows = np.random.default_rng(5).normal(size=(catalog.n_items, itf.dim))
            itf = FeatureMatrix(CSR.from_dense(rows))
        rng = np.random.default_rng(17)
        n_items, n_acts = catalog.n_items, catalog.n_activities
        keen, act, flat = [], [], []
        for _ in range(30):
            u = int(rng.integers(catalog.n_users))
            v, v2 = (int(x) for x in rng.choice(n_items, size=2, replace=False))
            z, z2 = (int(x) for x in rng.choice(n_acts, size=2, replace=False))
            weight = float(rng.uniform(0.1, 3.0))
            # keen: user context, item candidates
            keen.append((
                user_part(u, keen_l, uf), item_part(v, keen_l, itf), item_part(v2, keen_l, itf),
                assemble_keen_input(u, v, keen_l, uf, itf), assemble_keen_input(u, v2, keen_l, uf, itf), weight,
            ))
            # act: user + item context, activity candidates
            act.append((
                join_parts(user_part(u, act_l, uf), item_part(v, act_l, itf)),
                activity_part(z, act_l), activity_part(z2, act_l),
                assemble_act_input(u, v, z, act_l, uf, itf), assemble_act_input(u, v, z2, act_l, uf, itf), weight,
            ))
            # flat: user context, (item, activity) candidates sharing an item,
            # sharing an activity, or sharing neither
            for pv, pz, nv, nz in ((v, z, v, z2), (v, z, v2, z), (v, z, v2, z2)):
                flat.append((
                    user_part(u, act_l, uf),
                    join_parts(item_part(pv, act_l, itf), activity_part(pz, act_l)),
                    join_parts(item_part(nv, act_l, itf), activity_part(nz, act_l)),
                    assemble_act_input(u, pv, pz, act_l, uf, itf), assemble_act_input(u, nv, nz, act_l, uf, itf),
                    weight,
                ))
        assert_part_gradient_matches_oracle(keen_p, keen)
        assert_part_gradient_matches_oracle(act_p, act)
        assert_part_gradient_matches_oracle(act_p, flat)
        # a batch of one row
        assert_part_gradient_matches_oracle(act_p, flat[:1])


class TestScorerEquality:
    def test_score_items_matches_fm_score(self):
        """Batched item scores equal fm_score over assembled keen inputs."""
        for seed in range(4):
            catalog, _, uf, itf, kl, _, kp, _ = random_setup(seed)
            scorer = Scorer(kp, kl, uf, itf)
            for u in range(catalog.n_users):
                batch = scorer.score_items(u)
                for v in range(catalog.n_items):
                    x = assemble_keen_input(u, v, kl, uf, itf)
                    np.testing.assert_allclose(batch[v], fm_score(kp, x), atol=1e-10)

    def test_score_activities_matches_fm_score(self):
        for seed in range(3):
            catalog, _, uf, itf, _, al, _, ap = random_setup(seed)
            scorer = Scorer(ap, al, uf, itf)
            for u in range(catalog.n_users):
                for v in range(catalog.n_items):
                    batch = scorer.score_activities(u, v)
                    for z in range(catalog.n_activities):
                        x = assemble_act_input(u, v, z, al, uf, itf)
                        np.testing.assert_allclose(batch[z], fm_score(ap, x), atol=1e-10)

    def test_pair_matrix_matches_score_activities(self):
        catalog, _, uf, itf, _, al, _, ap = random_setup(9)
        scorer = Scorer(ap, al, uf, itf)
        for u in range(catalog.n_users):
            matrix = scorer.score_pair_matrix(u)
            for v in range(catalog.n_items):
                np.testing.assert_allclose(matrix[v], scorer.score_activities(u, v), atol=1e-12)

    def test_without_id_onehots(self):
        """Feature-only layout still matches the per-input scorer."""
        catalog, _, uf, itf, kl, _, kp, _ = random_setup(5, id_onehots=False)
        scorer = Scorer(kp, kl, uf, itf)
        for u in range(catalog.n_users):
            batch = scorer.score_items(u)
            for v in range(catalog.n_items):
                x = assemble_keen_input(u, v, kl, uf, itf)
                np.testing.assert_allclose(batch[v], fm_score(kp, x), atol=1e-10)


class TestColdItems:
    def test_unseen_items_scored_without_identity(self):
        """Items outside the item_trained mask score as if their one-hot were absent."""
        catalog, _, uf, itf, kl, _, kp, _ = random_setup(21)
        trained = np.arange(catalog.n_items) % 2 == 0
        scorer = Scorer(kp, kl, uf, itf, item_trained=trained)
        for u in range(catalog.n_users):
            batch = scorer.score_items(u)
            for v in range(catalog.n_items):
                x = assemble_keen_input(u, v, kl, uf, itf, cold_item=not trained[v])
                np.testing.assert_allclose(batch[v], fm_score(kp, x), atol=1e-10)

    def test_cold_items_that_are_the_widest_rows(self):
        """A cold item's one-hot keeps its slot, at value 0, so cutting a block
        to its widest row keeps every feature of a cold item."""
        catalog, _, uf, _, _, _, _, _ = random_setup(23, n_items=3)
        itf = FeatureMatrix(CSR.from_dense([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.3, 0.4, 0.5]]))
        trained = np.array([True, True, False])
        kl, al = FeatureLayout.for_keen(catalog, uf, itf), FeatureLayout.for_act(catalog, uf, itf)
        kp, ap = init_params(kl.dim, 5, seed=1, scale=0.5), init_params(al.dim, 5, seed=2, scale=0.5)
        rng = np.random.default_rng(4)
        kp.w[:], ap.w[:] = rng.normal(size=kl.dim), rng.normal(size=al.dim)
        keen, act = Scorer(kp, kl, uf, itf, trained), Scorer(ap, al, uf, itf, trained)
        for u in range(catalog.n_users):
            items, pairs = keen.score_items(u), act.score_pair_matrix(u)
            for v in range(catalog.n_items):
                x = assemble_keen_input(u, v, kl, uf, itf, cold_item=not trained[v])
                np.testing.assert_allclose(items[v], fm_score(kp, x), rtol=0, atol=1e-10)
                for z in range(catalog.n_activities):
                    x = assemble_act_input(u, v, z, al, uf, itf, cold_item=not trained[v])
                    np.testing.assert_allclose(pairs[v, z], fm_score(ap, x), rtol=0, atol=1e-10)

    def test_cold_and_warm_differ_for_trained_identity(self):
        catalog, _, uf, itf, kl, _, kp, _ = random_setup(22)
        warm = Scorer(kp, kl, uf, itf).score_items(0)
        cold = Scorer(kp, kl, uf, itf, item_trained=np.zeros(catalog.n_items, dtype=bool)).score_items(0)
        assert not np.allclose(warm, cold)


class TestValidation:
    def test_layout_parameter_dim_mismatch(self):
        catalog, _, uf, itf, kl, _, _, _ = random_setup(1)
        wrong = init_params(kl.dim + 1, 3, seed=0)
        with pytest.raises(ValueError):
            Scorer(wrong, kl, uf, itf)

    def test_feature_rows_must_match_the_layout(self):
        catalog, _, uf, itf, kl, _, kp, _ = random_setup(1)
        with pytest.raises(ValueError, match="feature rows"):
            Scorer(kp, kl, uf, FeatureMatrix(CSR.from_dense(itf.matrix.toarray()[:-1])))

    def test_unknown_user_rejected(self):
        catalog, _, uf, itf, kl, _, kp, _ = random_setup(2)
        scorer = Scorer(kp, kl, uf, itf)
        with pytest.raises(ValueError):
            scorer.score_items(catalog.n_users)

    @pytest.mark.parametrize("v", [-1, 9])
    def test_unknown_item_rejected(self, v):
        """score_activities takes a catalog item id; a negative one does not wrap."""
        catalog, _, uf, itf, _, al, _, ap = random_setup(2)
        assert catalog.n_items == 9
        with pytest.raises(ValueError):
            Scorer(ap, al, uf, itf).score_activities(0, v)

    def test_keen_layout_has_no_activity_scores(self):
        catalog, _, uf, itf, kl, _, kp, _ = random_setup(3)
        scorer = Scorer(kp, kl, uf, itf)
        with pytest.raises(ValueError):
            scorer.score_activities(0, 0)

    def test_scoring_leaves_parameters_untouched(self):
        catalog, _, uf, itf, _, al, _, ap = random_setup(4)
        w_before = ap.w.copy()
        f_before = ap.factors.copy()
        scorer = Scorer(ap, al, uf, itf)
        scorer.score_pair_matrix(0)
        scorer.score_activities(1, 2)
        np.testing.assert_array_equal(ap.w, w_before)
        np.testing.assert_array_equal(ap.factors, f_before)
