"""Factorization machine scoring, gradients, and the sparse Adam optimizer.

The scorer is checked against a dense O(n^2) reimplementation of the
pairwise-interaction sum, and every gradient against central finite
differences, so the fast paths never get to grade their own homework.
"""

import numpy as np
import pytest

from keenact.features import SparseVector
from keenact.fm import (
    AdamState,
    FMParameters,
    adam_update,
    combine_gradients,
    fm_gradient,
    fm_score,
    init_params,
)


def dense_score(params, x):
    """Literal pairwise sum: w0 + <w, x> + sum_{i<j} <v_i, v_j> x_i x_j."""
    dense = np.zeros(params.dim)
    for i, val in x.to_entries():
        dense[i] = val
    total = params.w0 + float(params.w @ dense)
    for i in range(params.dim):
        for j in range(i + 1, params.dim):
            total += float(params.factors[i] @ params.factors[j]) * dense[i] * dense[j]
    return total


def random_params(rng, dim, k):
    return FMParameters(
        w0=float(rng.normal()),
        w=rng.normal(size=dim),
        factors=rng.normal(size=(dim, k)),
    )


def sparse_vector(entries, dim):
    """A SparseVector from nonzero (index, value) entries in any order."""
    idx, val = zip(*sorted(entries)) if entries else ((), ())
    return SparseVector(np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64), dim)


def random_input(rng, dim, max_nnz=8):
    nnz = int(rng.integers(0, min(dim, max_nnz) + 1))
    idx = rng.choice(dim, size=nnz, replace=False)
    vals = rng.normal(size=nnz)
    vals[vals == 0.0] = 1.0
    return sparse_vector(list(zip(idx, vals)), dim)


class TestScore:
    """fm_score agrees with the explicit pairwise formula."""

    def test_hand_case(self):
        """w0=0.1, w=(0.2,0,-0.1), v0=(1,0), v2=(.5,.5), x={0:1, 2:2} -> 1.1."""
        params = FMParameters(
            w0=0.1,
            w=np.array([0.2, 0.0, -0.1]),
            factors=np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]]),
        )
        x = sparse_vector([(0, 1.0), (2, 2.0)], dim=3)
        np.testing.assert_allclose(fm_score(params, x), 1.1, rtol=0, atol=1e-12)

    def test_empty_input_is_bias(self):
        params = random_params(np.random.default_rng(0), dim=4, k=3)
        x = sparse_vector([], dim=4)
        assert fm_score(params, x) == params.w0

    def test_dimension_mismatch_rejected(self):
        params = random_params(np.random.default_rng(1), dim=4, k=2)
        x = sparse_vector([(0, 1.0)], dim=5)
        with pytest.raises(ValueError):
            fm_score(params, x)

    def test_matches_dense_oracle(self):
        """300 random sparse inputs agree with the O(n^2) sum to 1e-9."""
        rng = np.random.default_rng(42)
        for _ in range(300):
            dim = int(rng.integers(1, 30))
            k = int(rng.integers(1, 6))
            params = random_params(rng, dim, k)
            x = random_input(rng, dim)
            assert abs(fm_score(params, x) - dense_score(params, x)) < 1e-9

    def test_scoring_is_pure(self):
        """Scoring mutates neither the parameters nor the input."""
        rng = np.random.default_rng(7)
        params = random_params(rng, dim=10, k=4)
        x = random_input(rng, 10)
        w_before = params.w.copy()
        f_before = params.factors.copy()
        v_before = x.values.copy()
        fm_score(params, x)
        np.testing.assert_array_equal(params.w, w_before)
        np.testing.assert_array_equal(params.factors, f_before)
        np.testing.assert_array_equal(x.values, v_before)


def numeric_gradient(params, x, h=1e-5):
    """Central finite differences of fm_score over the touched coordinates."""
    plus, minus = params.copy(), params.copy()
    plus.w0 += h
    minus.w0 -= h
    g_w0 = (fm_score(plus, x) - fm_score(minus, x)) / (2 * h)
    g_w = np.zeros(x.nnz)
    g_f = np.zeros((x.nnz, params.k))
    for pos, i in enumerate(x.indices):
        plus, minus = params.copy(), params.copy()
        plus.w[i] += h
        minus.w[i] -= h
        g_w[pos] = (fm_score(plus, x) - fm_score(minus, x)) / (2 * h)
        for f in range(params.k):
            plus, minus = params.copy(), params.copy()
            plus.factors[i, f] += h
            minus.factors[i, f] -= h
            g_f[pos, f] = (fm_score(plus, x) - fm_score(minus, x)) / (2 * h)
    return g_w0, g_w, g_f


def max_relative_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    worst = 0.0
    for a, b in zip(analytic, numeric):
        if max(abs(a), abs(b)) < 1e-7:
            continue
        worst = max(worst, abs(a - b) / max(abs(a) + abs(b), 1e-8))
    return worst


class TestGradient:
    """fm_gradient agrees with finite differences of fm_score."""

    def test_matches_finite_differences(self):
        """120 random cases, central differences h=1e-5, rel err < 1e-4."""
        rng = np.random.default_rng(3)
        for _ in range(120):
            dim = int(rng.integers(2, 20))
            k = int(rng.integers(1, 5))
            params = random_params(rng, dim, k)
            x = random_input(rng, dim)
            if x.nnz == 0:
                continue
            grad = fm_gradient(params, x, upstream=1.0)
            g_w0, g_w, g_f = numeric_gradient(params, x)
            assert max_relative_error([grad.w0], [g_w0]) < 1e-4
            assert max_relative_error(grad.w, g_w) < 1e-4
            assert max_relative_error(grad.factors, g_f) < 1e-4

    def test_zero_upstream_zeroes_everything(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, dim=8, k=3)
        x = random_input(rng, 8)
        grad = fm_gradient(params, x, upstream=0.0)
        assert grad.w0 == 0.0
        np.testing.assert_array_equal(grad.w, np.zeros(x.nnz))
        np.testing.assert_array_equal(grad.factors, np.zeros((x.nnz, 3)))

    def test_upstream_scales_linearly(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, dim=8, k=3)
        x = random_input(rng, 8, max_nnz=5)
        g1 = fm_gradient(params, x, upstream=1.0)
        g3 = fm_gradient(params, x, upstream=3.0)
        np.testing.assert_allclose(g3.w, 3.0 * g1.w)
        np.testing.assert_allclose(g3.factors, 3.0 * g1.factors)
        np.testing.assert_allclose(g3.w0, 3.0 * g1.w0)

    def test_single_entry_has_no_factor_gradient(self):
        """With one active coordinate there is no pair, so d/dv must vanish."""
        rng = np.random.default_rng(8)
        params = random_params(rng, dim=6, k=4)
        x = sparse_vector([(2, 1.7)], dim=6)
        grad = fm_gradient(params, x, upstream=1.0)
        np.testing.assert_allclose(grad.factors, np.zeros((1, 4)), atol=1e-15)
        np.testing.assert_allclose(grad.w, [1.7])


class TestCombine:
    """combine_gradients sums sparse gradients over the index union."""

    def test_union_and_sums(self):
        k = 2
        g1 = fm_gradient(
            FMParameters(0.0, np.zeros(5), np.ones((5, k))),
            sparse_vector([(1, 1.0), (3, 2.0)], 5),
            upstream=1.0,
        )
        g2 = fm_gradient(
            FMParameters(0.0, np.zeros(5), np.ones((5, k))),
            sparse_vector([(3, 1.0), (4, 1.0)], 5),
            upstream=-1.0,
        )
        combined = combine_gradients([g1, g2])
        np.testing.assert_array_equal(combined.indices, [1, 3, 4])
        assert combined.w0 == 0.0

    def test_matches_dense_sum(self):
        """Scattering each part into dense arrays gives the same totals."""
        rng = np.random.default_rng(11)
        dim, k = 12, 3
        params = random_params(rng, dim, k)
        grads = []
        dense_w = np.zeros(dim)
        dense_f = np.zeros((dim, k))
        w0 = 0.0
        for _ in range(4):
            x = random_input(rng, dim, max_nnz=6)
            if x.nnz == 0:
                continue
            upstream = float(rng.normal())
            g = fm_gradient(params, x, upstream)
            grads.append(g)
            w0 += g.w0
            np.add.at(dense_w, g.indices, g.w)
            np.add.at(dense_f, g.indices, g.factors)
        combined = combine_gradients(grads)
        np.testing.assert_allclose(combined.w0, w0)
        np.testing.assert_allclose(dense_w[combined.indices], combined.w)
        np.testing.assert_allclose(dense_f[combined.indices], combined.factors)
        untouched = np.setdiff1d(np.arange(dim), combined.indices)
        np.testing.assert_array_equal(dense_w[untouched], np.zeros(untouched.size))


class TestInit:
    def test_deterministic(self):
        a = init_params(20, 4, seed=9)
        b = init_params(20, 4, seed=9)
        np.testing.assert_array_equal(a.factors, b.factors)
        assert a.w0 == 0.0
        np.testing.assert_array_equal(a.w, np.zeros(20))

    def test_scale_bounds(self):
        params = init_params(50, 8, seed=1, scale=0.05)
        assert np.all(np.abs(params.factors) < 0.05)
        zero = init_params(10, 2, seed=1, scale=0.0)
        np.testing.assert_array_equal(zero.factors, np.zeros((10, 2)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            init_params(0, 4, seed=0)
        with pytest.raises(ValueError):
            init_params(4, 0, seed=0)


class TestTable:
    """w and factors are views of one [w | V] table, which Adam updates row by row."""

    def test_views_share_the_table(self):
        params = random_params(np.random.default_rng(20), dim=5, k=3)
        assert params.table.shape == (5, 4)
        assert np.shares_memory(params.w, params.table)
        assert np.shares_memory(params.factors, params.table)

    @pytest.mark.parametrize("w_shape, f_shape", [((5, 2), (5, 1)), ((5,), (4, 2)), ((5,), (5,))])
    def test_constructor_rejects_mismatched_shapes(self, w_shape, f_shape):
        with pytest.raises(ValueError):
            FMParameters(0.0, np.zeros(w_shape), np.zeros(f_shape))

    def test_update_shows_through_both_views(self):
        rng = np.random.default_rng(21)
        params = random_params(rng, dim=6, k=2)
        before = params.copy()
        state = AdamState.for_params(params)
        assert state.m.shape == state.v.shape == params.table.shape
        touched = [1, 4]
        adam_update(params, state, fm_gradient(params, sparse_vector([(1, 2.0), (4, -1.0)], 6), 1.0))
        assert np.all(params.w[touched] != before.w[touched])
        assert np.all(params.factors[touched] != before.factors[touched])

    def test_copy_is_independent(self):
        params = random_params(np.random.default_rng(22), dim=4, k=2)
        twin = params.copy()
        twin.w[0] += 1.0
        twin.factors[1, 1] += 1.0
        assert not np.shares_memory(twin.table, params.table)
        assert params.w[0] != twin.w[0] and params.factors[1, 1] != twin.factors[1, 1]

    def test_bias_is_not_stepped(self):
        """A pairwise loss never moves w0, so the update leaves it even when its gradient is not 0."""
        rng = np.random.default_rng(23)
        params = random_params(rng, dim=5, k=2)
        w0 = params.w0
        grad = fm_gradient(params, sparse_vector([(2, 1.0)], 5), upstream=1.0)
        assert grad.w0 != 0.0
        adam_update(params, AdamState.for_params(params), grad)
        assert params.w0 == w0


class TestAdam:
    """Sparse Adam semantics on fresh state."""

    def test_zero_gradient_is_identity(self):
        rng = np.random.default_rng(13)
        params = random_params(rng, dim=6, k=2)
        before = params.copy()
        state = AdamState.for_params(params)
        grad = fm_gradient(params, sparse_vector([(1, 2.0)], 6), upstream=0.0)
        adam_update(params, state, grad)
        assert params.w0 == before.w0
        np.testing.assert_array_equal(params.w, before.w)
        np.testing.assert_array_equal(params.factors, before.factors)

    def test_first_step_size_is_alpha(self):
        """Bias correction makes the first step -alpha * sign(gradient)."""
        rng = np.random.default_rng(14)
        params = random_params(rng, dim=5, k=2)
        before = params.copy()
        state = AdamState.for_params(params, alpha=0.01)
        x = sparse_vector([(0, 1.0), (3, -2.0)], 5)
        grad = fm_gradient(params, x, upstream=1.0)
        adam_update(params, state, grad)
        moved = params.w[grad.indices] - before.w[grad.indices]
        np.testing.assert_allclose(moved, -0.01 * np.sign(grad.w), rtol=1e-5)
        assert state.t == 1

    def test_untouched_coordinates_stay_put(self):
        rng = np.random.default_rng(15)
        params = random_params(rng, dim=8, k=2)
        before = params.copy()
        state = AdamState.for_params(params)
        x = sparse_vector([(2, 1.0), (5, 1.0)], 8)
        adam_update(params, state, fm_gradient(params, x, upstream=1.0))
        untouched = [0, 1, 3, 4, 6, 7]
        np.testing.assert_array_equal(params.w[untouched], before.w[untouched])
        np.testing.assert_array_equal(params.factors[untouched], before.factors[untouched])

    def test_descends_a_simple_objective(self):
        """Repeated steps on 0.5*(score-target)^2 shrink the loss."""
        rng = np.random.default_rng(16)
        params = random_params(rng, dim=4, k=2)
        state = AdamState.for_params(params, alpha=0.05)
        x = sparse_vector([(0, 1.0), (2, 1.5)], 4)
        target = 3.0
        first = 0.5 * (fm_score(params, x) - target) ** 2
        for _ in range(200):
            err = fm_score(params, x) - target
            adam_update(params, state, fm_gradient(params, x, upstream=err))
        last = 0.5 * (fm_score(params, x) - target) ** 2
        assert last < first * 0.01
