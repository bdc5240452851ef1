"""Sparse vectors, side features, layouts, and scorer input assembly."""

import numpy as np
import pytest

from keenact.data import Catalog, InteractionStore
from keenact.features import (
    FeatureLayout,
    SparseVector,
    assemble_act_input,
    assemble_keen_input,
    co_participation_features,
    empty_features,
    l2_normalize_rows,
    read_tag_file,
    tfidf_item_features,
)


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
        from scipy import sparse

        from keenact.features import FeatureMatrix

        m = FeatureMatrix(sparse.csr_matrix(np.array([[3.0, 4.0], [0.0, 0.0]])), "user")
        scaled = l2_normalize_rows(m).matrix.toarray()
        np.testing.assert_allclose(scaled[0], [0.6, 0.8])
        np.testing.assert_array_equal(scaled[1], [0.0, 0.0])


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
        user_feats = empty_features(5, "user")
        item_feats = empty_features(4, "item")
        layout = FeatureLayout.for_act(catalog, user_feats, item_feats)
        assert layout.user_id_offset == 0
        assert layout.item_id_offset == 5
        assert layout.user_feat_offset == 9
        assert layout.item_feat_offset == 9
        assert layout.activity_offset == 9
        assert layout.dim == 12
        names = [name for name, _, _ in layout.blocks()]
        assert names == ["user_id", "item_id", "user_features", "item_features", "activity"]

    def test_keen_layout_has_no_activity_block(self):
        catalog = self._catalog()
        layout = FeatureLayout.for_keen(catalog, empty_features(5, "user"), empty_features(4, "item"))
        assert layout.n_activities == 0
        assert layout.dim == 9

    def test_id_onehots_off(self):
        catalog = self._catalog()
        layout = FeatureLayout.for_keen(
            catalog, empty_features(5, "user"), empty_features(4, "item"), id_onehots=False
        )
        assert layout.dim == 0
        assert [name for name, _, _ in layout.blocks()] == ["user_features", "item_features"]

    def test_round_trip_dict(self):
        catalog = self._catalog()
        layout = FeatureLayout.for_act(catalog, empty_features(5, "user"), empty_features(4, "item"))
        assert FeatureLayout.from_dict(layout.to_dict()) == layout


class TestAssembly:
    def _parts(self):
        catalog = Catalog(
            [f"u{i}" for i in range(5)], [f"i{j}" for j in range(4)], ["fork", "watch"]
        )
        store = InteractionStore(
            catalog, [(0, 0, 0), (0, 0, 1), (3, 0, 0), (3, 1, 1), (1, 2, 0)]
        )
        user_feats = co_participation_features(store)
        from scipy import sparse

        from keenact.features import FeatureMatrix

        item_rows = np.zeros((4, 3))
        item_rows[0, 1] = 0.5
        item_rows[1, 0] = 1.0
        item_rows[1, 2] = 2.0
        item_feats = FeatureMatrix(sparse.csr_matrix(item_rows), "item")
        return catalog, user_feats, item_feats

    def test_user_onehot_position(self):
        catalog, _, _ = self._parts()
        layout = FeatureLayout.for_keen(catalog, empty_features(5, "user"), empty_features(4, "item"))
        x = assemble_keen_input(3, 1, layout, empty_features(5, "user"), empty_features(4, "item"))
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
