"""Synthetic corpus generator: coverage, shapes, and reproducibility."""

import hashlib

import numpy as np
import pytest

from keenact import synth
from keenact.synth import _calibrate_offset, generate_two_stage
from keenact.training import sigmoid


def triples(store):
    return list(zip(*(c.tolist() for c in store.columns)))


def column_digest(store):
    return hashlib.sha256(b"".join(col.tobytes() for col in store.columns)).hexdigest()


def bisection(logits, target):
    """The plain calibration: 60 halvings of [-60, 60], each evaluating the sum."""
    lo, hi = -60.0, 60.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(sigmoid(logits + mid).sum()) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCalibrateOffset:
    """_calibrate_offset returns the plain bisection's float, bit for bit."""

    def test_random_cases(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 1500))
            logits = float(rng.choice([0.1, 1.0, 4.0, 20.0])) * rng.standard_normal(n)
            target = float(rng.uniform(0.01, n))
            assert _calibrate_offset(logits, target) == bisection(logits, target)

    @pytest.mark.parametrize("target", [0.2, 0.999, 1.0, 1.5, 2.0 - 1e-10, 2.0])
    def test_two_items(self, target):
        for logits in (np.array([0.0, 0.0]), np.array([-3.0, 5.0]), np.array([80.0, -80.0])):
            assert _calibrate_offset(logits, target) == bisection(logits, target)

    def test_logits_up_to_80(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(2, 500))
            logits = rng.uniform(-80.0, 80.0, n)
            target = float(rng.uniform(0.5, n))
            assert _calibrate_offset(logits, target) == bisection(logits, target)

    def test_target_next_to_the_item_count(self):
        """Within 1e-9 of n_items the sum saturates and its slope vanishes."""
        rng = np.random.default_rng(31)
        for n in (2, 3, 17, 400):
            for scale in (1.0, 4.0, 80.0):
                logits = scale * rng.standard_normal(n)
                for gap in (1e-9, 3e-10, 1e-12, 0.0):
                    assert _calibrate_offset(logits, n - gap) == bisection(logits, n - gap)

    def test_targets_below_one(self):
        rng = np.random.default_rng(37)
        for target in (1e-6, 0.01, 0.3, 0.75, 0.9999):
            logits = 4.0 * rng.standard_normal(int(rng.integers(2, 800)))
            assert _calibrate_offset(logits, target) == bisection(logits, target)

    def test_integer_targets(self):
        rng = np.random.default_rng(41)
        for n in (2, 10, 250, 1500):
            logits = 4.0 * rng.standard_normal(n)
            for target in sorted({1, 2, n // 2, n - 1, n}):
                assert _calibrate_offset(logits, float(target)) == bisection(logits, float(target))

    def test_evaluates_fewer_sums_than_the_bisection(self, monkeypatch):
        """Most halvings are decided without a sum: under 40 sums a call, where the loop alone takes 60."""
        calls = []

        def counting(x):
            calls.append(1)
            return sigmoid(x)

        monkeypatch.setattr(synth, "sigmoid", counting)
        rng = np.random.default_rng(43)
        affinity = rng.standard_normal((50, 8)) @ rng.standard_normal((8, 1500)) / np.sqrt(8)
        for row in affinity:
            _calibrate_offset(synth.AFFINITY_GAIN * row, float(rng.uniform(5, 60)))
        assert len(calls) < 40 * len(affinity)


class TestGenerate:
    def test_deterministic_per_seed(self):
        a_cat, a_store = generate_two_stage(15, 25, 3, seed=4, items_per_user=(3, 8))
        b_cat, b_store = generate_two_stage(15, 25, 3, seed=4, items_per_user=(3, 8))
        assert a_cat.users == b_cat.users
        assert triples(a_store) == triples(b_store)
        assert a_store.times.tolist() == b_store.times.tolist()

    def test_check6_corpus_is_pinned(self):
        """The acceptance corpus keeps its columns: adoption is drawn through
        training.sigmoid at the offset that _calibrate_offset finds, so a
        change to either must leave these bytes alone."""
        _, store = generate_two_stage(200, 500, 2, seed=0)
        assert column_digest(store) == "c2c85795e0b565ada16470a49d008623332edaa91b5cbf4316f08dd24c6acaf4"

    @pytest.mark.parametrize(
        "args, digest",
        [
            ((700, 1500, 3, 1, (5, 60)), "a175b736d7a86b287ff0db6a7ece1f3ac4e0fb25483211460e47ef45945e9bbf"),
            ((60, 500, 2, 0, (20, 20)), "8ff67727462047cb94b5bc52f16fd2ecb2f3f3ec2d2a4b261be017ed0401a9e5"),
        ],
    )
    def test_benchmark_corpora_are_pinned(self, args, digest):
        """The corpus and serving benchmark corpora keep the bytes of the per-item draw loop."""
        n_users, n_items, n_activities, seed, band = args
        _, store = generate_two_stage(n_users, n_items, n_activities, seed=seed, items_per_user=band)
        assert column_digest(store) == digest

    def test_repeats_within_one_process(self):
        """A second call in the same process gives the same columns and times."""
        first = generate_two_stage(700, 1500, 3, seed=1, items_per_user=(5, 60))[1]
        second = generate_two_stage(700, 1500, 3, seed=1, items_per_user=(5, 60))[1]
        for a, b in zip((*first.columns, first.times), (*second.columns, second.times)):
            assert np.array_equal(a, b)

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
