"""Synthetic corpus generator: coverage, shapes, and reproducibility."""

import hashlib

import numpy as np
import pytest

from keenact.synth import generate_two_stage


def triples(store):
    return list(zip(*(c.tolist() for c in store.columns)))


class TestGenerate:
    def test_deterministic_per_seed(self):
        a_cat, a_store = generate_two_stage(15, 25, 3, seed=4, items_per_user=(3, 8))
        b_cat, b_store = generate_two_stage(15, 25, 3, seed=4, items_per_user=(3, 8))
        assert a_cat.users == b_cat.users
        assert triples(a_store) == triples(b_store)
        assert a_store.times.tolist() == b_store.times.tolist()

    def test_check6_corpus_is_pinned(self):
        """The acceptance corpus keeps its columns: adoption is drawn through
        training.sigmoid, so a change to it must leave these bytes alone."""
        _, store = generate_two_stage(200, 500, 2, seed=0)
        digest = hashlib.sha256(b"".join(col.tobytes() for col in store.columns)).hexdigest()
        assert digest == "c2c85795e0b565ada16470a49d008623332edaa91b5cbf4316f08dd24c6acaf4"

    def test_seed_changes_output(self):
        _, a = generate_two_stage(15, 25, 3, seed=4, items_per_user=(3, 8))
        _, b = generate_two_stage(15, 25, 3, seed=5, items_per_user=(3, 8))
        assert triples(a) != triples(b)

    def test_catalog_shape_and_id_format(self):
        catalog, _ = generate_two_stage(12, 30, 2, seed=0)
        assert catalog.n_users == 12
        assert catalog.n_items == 30
        assert catalog.n_activities == 2
        assert catalog.users[0] == "u0000" and catalog.users[11] == "u0011"
        assert catalog.items[29] == "i0029"
        assert list(catalog.activities) == ["a0", "a1"]

    def test_wide_catalogs_keep_ids_sortable(self):
        catalog, _ = generate_two_stage(3, 20000, 1, seed=0, items_per_user=(1, 2))
        assert len(catalog.items[0]) == len(catalog.items[-1])
        assert list(catalog.items) == sorted(catalog.items)

    def test_every_user_has_an_item(self):
        _, store = generate_two_stage(40, 60, 2, seed=8)
        users = set(store.columns[0].tolist())
        assert users == set(range(40))

    def test_every_pair_has_an_activity(self):
        """The pair columns hold exactly the pairs seen in triples."""
        _, store = generate_two_stage(20, 30, 3, seed=2)
        from_triples = {(u, v) for (u, v, _) in triples(store)}
        assert set(zip(*(c.tolist() for c in store.pair_columns))) == from_triples

    def test_adoption_counts_track_requested_band(self):
        _, store = generate_two_stage(60, 200, 2, seed=3, items_per_user=(10, 30))
        counts = np.bincount(store.pair_columns[0], minlength=60)
        # binomial noise around a per-user target drawn inside the band
        assert 8 <= np.mean(counts) <= 34
        assert min(counts) >= 1

    def test_both_activities_occur(self):
        _, store = generate_two_stage(30, 40, 2, seed=6)
        acts = set(store.columns[2].tolist())
        assert acts == {0, 1}

    def test_activity_propensities_are_user_specific(self):
        """Most users leave a skewed share of pairs with both activities."""
        _, store = generate_two_stage(50, 80, 2, seed=7)
        shares = []
        for u in range(50):
            pairs = [(v, z) for (uu, v, z) in triples(store) if uu == u]
            items = {v for v, _ in pairs}
            both = sum(1 for v in items if {(v, 0), (v, 1)} <= set(pairs))
            shares.append(both / len(items))
        # a U-shaped propensity prior keeps all-or-nothing users common
        assert np.std(shares) > 0.15

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_two_stage(0, 10, 2)
        with pytest.raises(ValueError):
            generate_two_stage(5, 1, 2)
        with pytest.raises(ValueError):
            generate_two_stage(5, 10, 0)
        with pytest.raises(ValueError):
            generate_two_stage(5, 10, 2, items_per_user=(0, 5))
        with pytest.raises(ValueError):
            generate_two_stage(5, 10, 2, items_per_user=(6, 5))
        with pytest.raises(ValueError):
            generate_two_stage(5, 10, 2, items_per_user=(5, 11))

    def test_timestamps_cover_triples(self):
        _, store = generate_two_stage(10, 15, 2, seed=1, items_per_user=(2, 5))
        assert store.times.shape == (store.n_triples,)
        assert len(set(store.times.tolist())) == store.n_triples
