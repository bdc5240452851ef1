"""Sparse vectors, side features, layouts, and scorer input assembly."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from keenact import features
from keenact.data import Catalog, InteractionStore
from keenact.features import (
    CSR,
    FeatureLayout,
    FeatureMatrix,
    SparseVector,
    assemble_act_input,
    assemble_keen_input,
    co_participation_features,
    empty_features,
    l2_normalize_rows,
    read_tag_file,
    tfidf_item_features,
)
from keenact.synth import generate_two_stage


class TestSparseVector:
    def test_rejects_unsorted_or_duplicate_indices(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([2, 1]), np.array([1.0, 1.0]), 3)
        with pytest.raises(ValueError):
            SparseVector(np.array([1, 1]), np.array([1.0, 1.0]), 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([3]), np.array([1.0]), 3)
        with pytest.raises(ValueError):
            SparseVector(np.array([-1]), np.array([1.0]), 3)

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([0]), np.array([0.0]), 2)


# finite values whose squares cannot overflow; the smallest square to 0.0
csr_values = st.floats(-1e100, 1e100, allow_nan=False, allow_subnormal=True)
# values whose squares underflow to 0.0 or overflow to inf, infinities,
# and values whose duplicates sum to an infinity
extreme_values = st.one_of(
    csr_values,
    st.sampled_from([1e-170, -3e-200, 5e-324, 1e155, -1e160, 1e200, -1e300, math.inf, -1.7e308]),
    st.floats(1e150, 1e308).map(lambda x: -x),
)


@st.composite
def coo_entries(draw, max_rows=6, max_cols=6, values=csr_values):
    """(rows, cols, values, shape): up to 16 entries in any order, with
    duplicates and explicit zeros; zero-row and zero-width shapes included.

    At most 16 entries keep scipy's per-row index sort an insertion sort,
    which adds duplicates in input order as CSR.from_coo does.
    """
    shape = (draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols)))
    if 0 in shape:
        return [], [], [], shape
    cells = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
    entries = draw(st.lists(st.tuples(cells, st.one_of(st.just(0.0), values)), max_size=12))
    if entries and draw(st.booleans()):
        entries += draw(st.lists(st.sampled_from(entries), max_size=4))  # exact duplicates
    entries = draw(st.permutations(entries))
    rows = [r for (r, _), _ in entries]
    cols = [c for (_, c), _ in entries]
    return rows, cols, [x for _, x in entries], shape


def scipy_csr(rows, cols, values, shape):
    """scipy's canonical CSR of the entries, as FeatureMatrix built it."""
    m = sparse.csr_matrix((values, (rows, cols)), shape=shape, dtype=np.float64)
    m.eliminate_zeros()
    m.sort_indices()
    return m


def as_scipy(m: CSR):
    return sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def assert_same_csr(ours: CSR, theirs):
    theirs = sparse.csr_matrix(theirs)
    theirs.sort_indices()
    assert ours.shape == theirs.shape
    np.testing.assert_array_equal(ours.indptr, theirs.indptr)
    np.testing.assert_array_equal(ours.indices, theirs.indices)
    np.testing.assert_array_equal(ours.data, theirs.data)


class TestCSR:
    @settings(max_examples=300, deadline=None)
    @given(coo_entries())
    def test_from_coo_equals_scipy(self, entries):
        assert_same_csr(CSR.from_coo(*entries), scipy_csr(*entries))

    @settings(max_examples=100, deadline=None)
    @given(coo_entries())
    def test_toarray_and_from_dense_round_trip(self, entries):
        m = CSR.from_coo(*entries)
        dense = m.toarray()
        np.testing.assert_array_equal(dense, scipy_csr(*entries).toarray())
        assert_same_csr(CSR.from_dense(dense), scipy_csr(*entries))
        assert m.nnz == scipy_csr(*entries).nnz

    def test_duplicates_sum_in_input_order(self):
        m = CSR.from_coo([0, 0, 0], [1, 1, 1], [1e16, 1.0, 1.0], (1, 2))
        assert m.data.tolist() == [(1e16 + 1.0) + 1.0]
        assert CSR.from_coo([0, 0], [1, 1], [2.5, -2.5], (1, 2)).nnz == 0

    @pytest.mark.parametrize(
        "indptr, indices, data, shape",
        [
            ([0, 2], [1, 0], [1.0, 1.0], (1, 2)),  # unsorted
            ([0, 2], [1, 1], [1.0, 1.0], (1, 2)),  # duplicate
            ([0, 1], [0], [0.0], (1, 2)),  # stored zero
            ([0, 1], [2], [1.0], (1, 2)),  # column outside the width
            ([0, 1], [-1], [1.0], (1, 2)),  # negative column
            ([0, 1, 0], [0], [1.0], (2, 2)),  # indptr falls
            ([1, 1], [0], [1.0], (1, 2)),  # indptr does not start at 0
            ([0, 1], [0], [1.0], (2, 2)),  # indptr too short
            ([0, 2], [0], [1.0, 2.0], (1, 2)),  # data longer than indices
            ([0, 1], [0.0], [1.0], (1, 2)),  # float column
            ([0, 1], [0], [1.0], (1, -2)),  # negative width
            ([0, 1], [0], [1.0], (1, 2, 1)),  # three dimensions
            ([0, 1], [0], [1.0], (True, 2)),  # bool dimension
        ],
    )
    def test_rejects_non_canonical(self, indptr, indices, data, shape):
        with pytest.raises(ValueError):
            CSR(np.array(indptr), np.array(indices), np.array(data), shape)

    def test_a_row_may_start_below_the_last_column(self):
        """A row boundary may fall between a larger and a smaller column."""
        m = CSR(np.array([0, 2, 3, 3]), np.array([1, 3, 0]), np.array([1.0, 2.0, 3.0]), (3, 4))
        assert m.toarray().tolist() == [[0, 1, 0, 2], [3, 0, 0, 0], [0, 0, 0, 0]]

    def test_feature_matrix_needs_a_csr(self):
        with pytest.raises(TypeError):
            FeatureMatrix(sparse.csr_matrix(np.eye(2)))


def scipy_co_participation(store):
    """The incidence product that co_participation_features computes."""
    u, v, z = store.columns
    _, cols = np.unique(v * store.catalog.n_activities + z, return_inverse=True)
    incidence = sparse.csr_matrix((np.ones(u.size), (u, cols)), shape=(store.catalog.n_users, cols.max() + 1))
    co = (incidence @ incidence.T).tocsr()
    co.setdiag(0.0)
    co.eliminate_zeros()
    return co


def scipy_l2_normalize(m):
    """The row scaling that l2_normalize_rows computes, in scipy's arithmetic."""
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    norms[norms == 0.0] = 1.0
    return sparse.diags(1.0 / norms) @ m


@st.composite
def stores(draw):
    """Small stores with users that act on nothing, the last ones included."""
    n_users, n_items, n_acts = draw(st.integers(1, 9)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    triple = st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1), st.integers(0, n_acts - 1))
    triples = draw(st.lists(triple, min_size=1, max_size=60))
    catalog = Catalog([f"u{i}" for i in range(n_users)], [f"i{j}" for j in range(n_items)], [f"a{z}" for z in range(n_acts)])
    return InteractionStore(catalog, triples)


class TestAgainstScipy:
    @settings(max_examples=200, deadline=None)
    @given(stores(), st.sampled_from([1, 5, 40, 1 << 16]))
    def test_co_participation(self, store, chunk):
        """Equal for every chunk size, down to one user or one pair at a time."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "CO_PARTICIPATION_CHUNK", chunk)
            got = co_participation_features(store)
        assert_same_csr(got.matrix, scipy_co_participation(store))

    def test_co_participation_at_scale(self):
        store = generate_two_stage(150, 300, 2, seed=4)[1]
        assert_same_csr(co_participation_features(store).matrix, scipy_co_participation(store))

    @settings(max_examples=300, deadline=None)
    @given(coo_entries(max_rows=5, max_cols=30, values=extreme_values))
    # an infinite stored value, and one that four finite duplicates sum to
    @example(([0, 0, 1], [0, 1, 0], [math.inf, 1.0, 2.0], (2, 2)))
    @example(([0, 0, 0, 0], [0, 0, 0, 0], [-4.495e307] * 4, (1, 1)))
    def test_l2_normalize(self, entries):
        """Equal where squares underflow to 0.0 (the row keeps its
        values when all do) and where they overflow or a value is
        infinite (the row drops out)."""
        m = CSR.from_coo(*entries)
        got = l2_normalize_rows(FeatureMatrix(m))
        assert_same_csr(got.matrix, scipy_l2_normalize(as_scipy(m)))

    def test_l2_normalize_long_rows(self):
        """Rows long enough that the sum of squares is formed pairwise."""
        rng = np.random.default_rng(8)
        dense = rng.normal(size=(40, 300)) * (rng.random((40, 300)) < 0.7)
        dense[rng.random((40, 300)) < 0.05] = 1e-170  # stored, but its square is 0.0
        dense[3] = 0.0
        m = CSR.from_dense(dense)
        assert_same_csr(l2_normalize_rows(FeatureMatrix(m)).matrix, scipy_l2_normalize(as_scipy(m)))
        store = generate_two_stage(120, 300, 2, seed=2)[1]
        co = co_participation_features(store)
        assert_same_csr(l2_normalize_rows(co).matrix, scipy_l2_normalize(as_scipy(co.matrix)))


def two_user_store():
    """Users a and b share (x, fork); a additionally watches x."""
    catalog = Catalog(["a", "b"], ["x"], ["fork", "watch"])
    return InteractionStore(catalog, [(0, 0, 0), (0, 0, 1), (1, 0, 0)])


class TestCoParticipation:
    def test_counts_shared_item_activity_combinations(self):
        feats = co_participation_features(two_user_store())
        dense = feats.matrix.toarray()
        assert dense[0, 1] == 1.0
        assert dense[1, 0] == 1.0

    def test_both_shared(self):
        catalog = Catalog(["a", "b"], ["x"], ["fork", "watch"])
        store = InteractionStore(catalog, [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)])
        dense = co_participation_features(store).matrix.toarray()
        assert dense[0, 1] == 2.0

    def test_diagonal_forced_to_zero(self):
        dense = co_participation_features(two_user_store()).matrix.toarray()
        np.testing.assert_array_equal(np.diag(dense), np.zeros(2))

    def test_symmetric(self):
        rng = np.random.default_rng(31)
        catalog = Catalog(
            [f"u{i}" for i in range(8)], [f"i{j}" for j in range(12)], ["fork", "watch"]
        )
        triples = sorted(
            {
                (int(u), int(v), int(z))
                for u, v, z in zip(
                    rng.integers(0, 8, 100), rng.integers(0, 12, 100), rng.integers(0, 2, 100)
                )
            }
        )
        dense = co_participation_features(InteractionStore(catalog, triples)).matrix.toarray()
        np.testing.assert_array_equal(dense, dense.T)


class TestL2Normalize:
    def test_rows_become_unit_length(self):
        feats = co_participation_features(two_user_store())
        scaled = l2_normalize_rows(feats)
        norms = np.sqrt((scaled.matrix.toarray() ** 2).sum(axis=1))
        np.testing.assert_allclose(norms, np.ones(2))

    def test_zero_rows_stay_zero(self):
        m = FeatureMatrix(CSR.from_dense(np.array([[3.0, 4.0], [0.0, 0.0]])))
        scaled = l2_normalize_rows(m).matrix.toarray()
        np.testing.assert_allclose(scaled[0], [0.6, 0.8])
        np.testing.assert_array_equal(scaled[1], [0.0, 0.0])


@st.composite
def tag_maps(draw):
    """(tags, catalog): tag lists with repeated tags, empty lists and unknown items."""
    items = [f"i{j}" for j in range(draw(st.integers(1, 6)))]
    catalog = Catalog(["u"], items, ["a"])
    raw_ids = st.sampled_from(items + ["ghost", "i99"])
    tags = draw(st.dictionaries(raw_ids, st.lists(st.sampled_from("abcde"), max_size=8)))
    return tags, catalog


def brute_force_tfidf(tags, catalog):
    """Dense tf-idf rows, each scaled to unit length, from dicts of counts."""
    counts = {catalog.item_index[i]: Counter(ts) for i, ts in tags.items() if i in catalog.item_index and ts}
    df = Counter(t for c in counts.values() for t in c)
    vocab = sorted(df)
    dense = np.zeros((catalog.n_items, len(vocab)))
    for v, c in counts.items():
        for t, n in c.items():
            dense[v, vocab.index(t)] = n * (math.log((1 + catalog.n_items) / (1 + df[t])) + 1)
        dense[v] /= math.sqrt(sum(x * x for x in dense[v]))
    return dense


class TestTfidf:
    def _catalog(self):
        return Catalog(["a"], ["x", "y"], ["fork"])

    def test_idf_downweights_common_tags(self):
        """A tag on every item gets a smaller idf than a tag on one item."""
        tags = {"x": ["shared", "rare"], "y": ["shared"]}
        feats = tfidf_item_features(tags, self._catalog())
        dense = feats.matrix.toarray()
        vocab = {"rare": 0, "shared": 1}
        assert dense[0, vocab["rare"]] > dense[0, vocab["shared"]]

    def test_idf_values(self):
        """idf(t) = ln((1 + |V|) / (1 + df)) + 1 before row normalization."""
        tags = {"x": ["only"]}
        feats = tfidf_item_features(tags, self._catalog())
        # a single-tag row normalizes to 1.0 regardless of idf
        np.testing.assert_allclose(feats.matrix.toarray()[0, 0], 1.0)
        tags = {"x": ["a", "b", "b"]}
        dense = tfidf_item_features(tags, self._catalog()).matrix.toarray()
        idf = np.log(3.0 / 2.0) + 1.0
        expect = np.array([idf, 2 * idf])
        np.testing.assert_allclose(dense[0], expect / np.linalg.norm(expect))

    def test_rows_unit_norm_and_unknown_items_ignored(self):
        tags = {"x": ["a", "b"], "ghost": ["c"]}
        feats = tfidf_item_features(tags, self._catalog())
        dense = feats.matrix.toarray()
        np.testing.assert_allclose(np.linalg.norm(dense[0]), 1.0)
        np.testing.assert_array_equal(dense[1], np.zeros(dense.shape[1]))
        # the ghost item's tag never enters the vocabulary
        assert dense.shape[1] == 2

    def test_equals_normalized_raw_tfidf(self):
        """The rows are l2_normalize_rows of the raw tf x idf rows, byte for byte."""
        catalog = Catalog(["a"], ["x", "y", "z", "w"], ["fork"])
        tags = {"x": ["b", "a", "b", "c", "b"], "y": ["c", "a"], "ghost": ["d"], "z": []}
        tf = np.array([[1.0, 3.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        idf = np.log(5.0 / (1.0 + np.array([2.0, 1.0, 2.0]))) + 1.0
        expected = l2_normalize_rows(FeatureMatrix(CSR.from_dense(tf * idf)))
        assert_same_csr(tfidf_item_features(tags, catalog).matrix, as_scipy(expected.matrix))

    @settings(max_examples=200, deadline=None)
    @given(tag_maps())
    def test_matches_brute_force(self, tags_and_catalog):
        tags, catalog = tags_and_catalog
        got = tfidf_item_features(tags, catalog).matrix
        expected = brute_force_tfidf(tags, catalog)
        reference = CSR.from_dense(expected)
        assert got.shape == reference.shape
        np.testing.assert_array_equal(got.indptr, reference.indptr)
        np.testing.assert_array_equal(got.indices, reference.indices)
        np.testing.assert_allclose(got.toarray(), expected, rtol=1e-12)
        norms = np.linalg.norm(got.toarray(), axis=1)
        np.testing.assert_allclose(norms[np.diff(got.indptr) > 0], 1.0, rtol=1e-12)

    def test_read_tag_file(self, tmp_path):
        path = tmp_path / "tags.tsv"
        path.write_text("x\tpython, ml\ny\t\n\nz\tsolo\n", encoding="utf-8")
        tags = read_tag_file(path)
        assert tags == {"x": ["python", "ml"], "y": [], "z": ["solo"]}

    def test_read_tag_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "tags.tsv"
        path.write_bytes(b"\xef\xbb\xbfx\tpython\r\ny\tml\r\n")
        assert read_tag_file(path) == {"x": ["python"], "y": ["ml"]}


class TestLayout:
    def _catalog(self, n_users=5, n_items=4, n_acts=3):
        return Catalog(
            [f"u{i}" for i in range(n_users)],
            [f"i{j}" for j in range(n_items)],
            [f"a{z}" for z in range(n_acts)],
        )

    def test_block_offsets_contiguous(self):
        catalog = self._catalog()
        user_feats = empty_features(5)
        item_feats = empty_features(4)
        layout = FeatureLayout.for_act(catalog, user_feats, item_feats)
        assert layout.user_id_offset == 0
        assert layout.item_id_offset == 5
        assert layout.user_feat_offset == 9
        assert layout.item_feat_offset == 9
        assert layout.activity_offset == 9
        assert layout.dim == 12
        assert layout.id_onehots

    def test_keen_layout_has_no_activity_block(self):
        catalog = self._catalog()
        layout = FeatureLayout.for_keen(catalog, empty_features(5), empty_features(4))
        assert layout.n_activities == 0
        assert layout.dim == 9

    def test_id_onehots_off(self):
        catalog = self._catalog()
        layout = FeatureLayout.for_keen(
            catalog, empty_features(5), empty_features(4), id_onehots=False
        )
        assert not layout.id_onehots
        assert layout.item_id_offset == layout.user_feat_offset == layout.dim == 0


class TestAssembly:
    def _parts(self):
        catalog = Catalog(
            [f"u{i}" for i in range(5)], [f"i{j}" for j in range(4)], ["fork", "watch"]
        )
        store = InteractionStore(
            catalog, [(0, 0, 0), (0, 0, 1), (3, 0, 0), (3, 1, 1), (1, 2, 0)]
        )
        user_feats = co_participation_features(store)
        item_rows = np.zeros((4, 3))
        item_rows[0, 1] = 0.5
        item_rows[1, 0] = 1.0
        item_rows[1, 2] = 2.0
        item_feats = FeatureMatrix(CSR.from_dense(item_rows))
        return catalog, user_feats, item_feats

    def test_user_onehot_position(self):
        catalog, _, _ = self._parts()
        layout = FeatureLayout.for_keen(catalog, empty_features(5), empty_features(4))
        x = assemble_keen_input(3, 1, layout, empty_features(5), empty_features(4))
        assert (3, 1.0) in x.to_entries()
        assert (5 + 1, 1.0) in x.to_entries()
        assert x.nnz == 2

    def test_entry_budget(self):
        """One user id + one item id + user feature nnz + item feature nnz."""
        catalog, user_feats, item_feats = self._parts()
        layout = FeatureLayout.for_keen(catalog, user_feats, item_feats)
        x = assemble_keen_input(0, 1, layout, user_feats, item_feats)
        expected = 2 + user_feats.row(0)[0].size + item_feats.row(1)[0].size
        assert x.nnz == expected

    def test_act_input_adds_activity_onehot(self):
        catalog, user_feats, item_feats = self._parts()
        layout = FeatureLayout.for_act(catalog, user_feats, item_feats)
        x = assemble_act_input(0, 1, 1, layout, user_feats, item_feats)
        assert (layout.activity_offset + 1, 1.0) in x.to_entries()

    def test_cold_item_has_no_id_entry(self):
        catalog, user_feats, item_feats = self._parts()
        layout = FeatureLayout.for_keen(catalog, user_feats, item_feats)
        warm = assemble_keen_input(0, 1, layout, user_feats, item_feats)
        cold = assemble_keen_input(0, 1, layout, user_feats, item_feats, cold_item=True)
        assert warm.nnz == cold.nnz + 1
        id_index = layout.item_id_offset + 1
        assert id_index not in set(cold.indices)

    def test_out_of_range_entities_rejected(self):
        catalog, user_feats, item_feats = self._parts()
        layout = FeatureLayout.for_act(catalog, user_feats, item_feats)
        with pytest.raises(ValueError):
            assemble_keen_input(9, 0, layout, user_feats, item_feats)
        with pytest.raises(ValueError):
            assemble_act_input(0, 0, 7, layout, user_feats, item_feats)
