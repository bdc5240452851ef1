"""Ranking metrics, flat baselines, and the repeated-split harness."""

import dataclasses

import numpy as np
import pytest

from keenact import evaluation
from keenact.evaluation import (
    DEFAULT_KS,
    VARIANTS,
    EvalReport,
    FlatPairSpace,
    _average_precisions,
    _flat_by_user,
    average_precision_at_k,
    evaluate_split,
    map_at_k,
    rank_act_only,
    rank_baseline,
    rank_keen2act,
    rank_keen_only,
    run_experiment,
    train_baseline,
)
from keenact.data import split_per_user
from keenact.features import co_participation_features, empty_features, l2_normalize_rows
from keenact.recommend import recommend
from keenact.synth import generate_two_stage
from keenact.training import NumericalError, TrainConfig, train

FAST = TrainConfig(epochs=2, k=4, threshold_epochs=3, max_neg_samples=5)


def ap_oracle(ranked, relevant, k=None):
    """Quadratic reference: precision re-counted from scratch at each hit."""
    cutoff = len(ranked) if k is None else min(k, len(ranked))
    total = 0.0
    for i in range(cutoff):
        if ranked[i] in relevant:
            total += sum(1 for x in ranked[: i + 1] if x in relevant) / (i + 1)
    return total / (len(relevant) if k is None else min(len(relevant), k))


class TestAveragePrecision:
    def test_hand_case(self):
        """Hits at positions 1 and 3 of five, two relevant: (1 + 2/3) / 2."""
        ranked = [7, 2, 9, 4, 5]
        relevant = {7, 9}
        np.testing.assert_allclose(average_precision_at_k(ranked, relevant, k=5), 5.0 / 6.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            ranked = list(rng.permutation(n))
            relevant = set(int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            k = None if rng.random() < 0.3 else int(rng.integers(1, n + 5))
            got = average_precision_at_k(ranked, relevant, k)
            np.testing.assert_allclose(got, ap_oracle(ranked, relevant, k), atol=1e-12)

    def test_perfect_prefix_is_one(self):
        assert average_precision_at_k([3, 1, 0, 9], {3, 1}, k=2) == 1.0
        assert average_precision_at_k([3, 1], {3, 1, 8}, k=2) == 1.0

    def test_unranked_relevant_items_lower_the_score(self):
        full = average_precision_at_k([5], {5}, k=None)
        partial = average_precision_at_k([5], {5, 6}, k=None)
        assert full == 1.0
        assert partial == 0.5

    def test_prepending_a_hit_never_hurts(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            ranked = list(rng.permutation(n))
            relevant = set(int(x) for x in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            fresh = n + 1
            relevant_plus = relevant | {fresh}
            before = average_precision_at_k(ranked, relevant_plus)
            after = average_precision_at_k([fresh] + ranked, relevant_plus)
            assert after >= before - 1e-12

    def test_empty_relevant_raises(self):
        with pytest.raises(ValueError):
            average_precision_at_k([1, 2], set())

    def test_bad_k(self):
        with pytest.raises(ValueError):
            average_precision_at_k([1], {1}, k=0)

    def test_empty_ranked_scores_zero(self):
        assert average_precision_at_k([], {1, 2}) == 0.0


class TestAveragePrecisionAll:
    """The one-pass AP at every cutoff that evaluate_split uses, against the reference."""

    @staticmethod
    def cutoffs(rng, ranked, relevant):
        """1, a k past the list's end, a k before the first hit, no cutoff, a random k and a repeat."""
        hits = np.flatnonzero(np.isin(ranked, relevant))
        ks = [1, len(ranked) + int(rng.integers(1, 5)), max(1, int(hits[0])) if hits.size else 2, None]
        ks.append(int(rng.integers(1, len(ranked) + 2)))
        ks.append(ks[int(rng.integers(0, len(ks)))])
        return [ks[i] for i in rng.permutation(len(ks))]

    def check(self, rng, ranked, relevant):
        ranked, relevant = np.asarray(ranked, dtype=np.int64), np.unique(np.asarray(relevant, dtype=np.int64))
        ks = self.cutoffs(rng, ranked, relevant)
        expected = [average_precision_at_k(ranked.tolist(), frozenset(relevant.tolist()), k) for k in ks]
        assert _average_precisions(ranked, relevant, ks) == expected

    def test_equals_reference_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            size = int(rng.integers(1, 400))
            # a ranked list of any length, and relevant ids in it, outside it or both
            ranked = rng.permutation(size)[: int(rng.integers(0, size + 1))]
            self.check(rng, ranked, rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False))

    @pytest.mark.parametrize(
        "ranked, relevant",
        [
            ([], {3}),
            ([0, 1, 2], {5}),
            ([4, 2, 0, 1, 3], {0, 1, 2, 3, 4}),
            ([9], {9, 0}),
            (list(range(999, -1, -1)), {0, 500, 998}),
        ],
    )
    def test_edge_cases(self, ranked, relevant):
        self.check(np.random.default_rng(len(ranked)), ranked, sorted(relevant))


class TestMapAtK:
    def test_single_user(self):
        ranked = {0: [4, 2, 7]}
        relevant = {0: {2}}
        np.testing.assert_allclose(map_at_k(ranked, relevant), 0.5)

    def test_mean_over_users(self):
        ranked = {0: [1], 1: [9]}
        relevant = {0: {1}, 1: {2}}
        np.testing.assert_allclose(map_at_k(ranked, relevant, k=1), 0.5)

    def test_users_without_positives_are_skipped(self):
        ranked = {0: [1], 1: [9]}
        relevant = {0: {1}, 1: set()}
        np.testing.assert_allclose(map_at_k(ranked, relevant, k=1), 1.0)

    def test_missing_ranked_list_counts_as_empty(self):
        np.testing.assert_allclose(map_at_k({}, {0: {1}}), 0.0)

    def test_all_empty_raises(self):
        with pytest.raises(ValueError):
            map_at_k({0: [1]}, {0: set()})


class TestFlatPairSpace:
    def test_bijection(self):
        space = FlatPairSpace(7, 3)
        assert space.size == 21
        seen = set()
        for v in range(7):
            for z in range(3):
                f = space.flatten(v, z)
                assert divmod(f, space.n_activities) == (v, z)
                seen.add(f)
        assert seen == set(range(21))

    def test_out_of_range(self):
        space = FlatPairSpace(2, 2)
        with pytest.raises(ValueError):
            space.flatten(2, 0)
        with pytest.raises(ValueError):
            space.flatten(0, -1)


def small_corpus(seed=5, n_users=10, n_items=14):
    catalog, store = generate_two_stage(n_users, n_items, 2, seed=seed, items_per_user=(2, 5))
    user_feats = l2_normalize_rows(co_participation_features(store))
    item_feats = empty_features(catalog.n_items)
    return catalog, store, user_feats, item_feats


class TestBaselines:
    def test_unknown_kind(self):
        _, store, uf, itf = small_corpus()
        with pytest.raises(ValueError, match="unknown baseline kind"):
            train_baseline(store, uf, itf, FAST, kind="mf")

    def test_deterministic(self):
        _, store, uf, itf = small_corpus()
        a = train_baseline(store, uf, itf, FAST, kind="bpr")
        b = train_baseline(store, uf, itf, FAST, kind="bpr")
        np.testing.assert_array_equal(a.params.w, b.params.w)
        np.testing.assert_array_equal(a.params.factors, b.params.factors)
        assert a.report == b.report

    def test_kinds_differ(self):
        _, store, uf, itf = small_corpus()
        a = train_baseline(store, uf, itf, FAST, kind="bpr")
        b = train_baseline(store, uf, itf, FAST, kind="warp")
        assert not np.array_equal(a.params.w, b.params.w)

    def test_report_rows_per_epoch(self):
        """Baselines report the stages' three rows; BPR draws and updates once per example."""
        _, store, uf, itf = small_corpus()
        reports = {kind: train_baseline(store, uf, itf, FAST, kind=kind).report for kind in ("bpr", "warp")}
        for kind, report in reports.items():
            assert [(e, m) for e, _, m, _ in report] == [
                (e, m) for e in range(FAST.epochs) for m in ("warp_loss", "mean_draws", "violation_rate")
            ]
            assert {phase for _, phase, _, _ in report} == {f"fm_{kind}"}
        bpr = {(e, m): value for e, _, m, value in reports["bpr"]}
        for epoch in range(FAST.epochs):
            assert bpr[epoch, "mean_draws"] == 1.0
            assert bpr[epoch, "violation_rate"] == 1.0

    def test_overflowing_scores_raise(self):
        """Finite parameters whose scores overflow raise instead of ranking by NaN.

        At this step size the WARP losses stay finite (the second epoch
        reads 0.0), so only the scores show the divergence.
        """
        catalog, store = generate_two_stage(20, 60, 2, seed=1, items_per_user=(5, 10))
        uf = l2_normalize_rows(co_participation_features(store))
        itf = empty_features(catalog.n_items)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            train_baseline(store, uf, itf, TrainConfig(lr=1e300, epochs=2), kind="warp")

    def test_warp_ranks_training_positives_above_chance(self):
        """After training, held-in positives sit far above a random shuffle."""
        catalog, store, uf, itf = small_corpus(seed=9, n_items=30)
        cfg = dataclasses.replace(FAST, epochs=10)
        baseline = train_baseline(store, uf, itf, cfg, kind="warp")
        space = FlatPairSpace(catalog.n_items, catalog.n_activities)
        _, items, activities = store.columns
        positives = {
            u: {space.flatten(v, z) for v, z in zip(items[rows].tolist(), activities[rows].tolist())}
            for u, rows in store.user_rows().items()
        }
        rng = np.random.default_rng(0)
        trained_ap, random_ap = [], []
        for u, relevant in positives.items():
            ranked = rank_baseline(baseline, space, u, frozenset())
            trained_ap.append(average_precision_at_k(ranked, relevant))
            random_ap.append(average_precision_at_k(list(rng.permutation(space.size)), relevant))
        assert np.mean(trained_ap) > 2 * np.mean(random_ap)


class TestRankers:
    def setup_method(self):
        self.catalog, self.store, uf, itf = small_corpus(seed=7)
        self.model = train(self.store, uf, itf, FAST)
        self.space = FlatPairSpace(self.catalog.n_items, self.catalog.n_activities)
        self.baseline = train_baseline(self.store, uf, itf, FAST, kind="bpr")

    def rankers(self):
        yield lambda u, ex: rank_keen2act(self.model, self.space, u, ex)
        yield lambda u, ex: rank_keen_only(self.model, self.space, u, ex)
        yield lambda u, ex: rank_act_only(self.model, self.space, u, ex)
        yield lambda u, ex: rank_baseline(self.baseline, self.space, u, ex)

    def test_exclusion_filters_and_preserves_order(self):
        for ranker in self.rankers():
            for u in range(3):
                base = ranker(u, frozenset())
                assert base.dtype == np.int64
                assert len(set(base.tolist())) == len(base)
                dropped = frozenset(base[::2].tolist())
                expected = [f for f in base.tolist() if f not in dropped]
                # any collection of flat ids: a frozenset or an int64 array, sorted or not,
                # which may hold ids the list lacks or none at all
                assert ranker(u, np.zeros(0, dtype=np.int64)).tolist() == base.tolist()
                for exclude in (dropped, np.sort(base[::2]), np.sort(base[::2])[::-1], np.union1d(base[::2], [-1, self.space.size])):
                    got = ranker(u, exclude)
                    assert got.dtype == np.int64
                    assert got.tolist() == expected

    def test_keen2act_matches_recommendations(self):
        """Equal to filtering recommend()'s entries one by one, for every user."""
        _, items, activities = self.store.columns
        positives = {u: set(zip(items[rows].tolist(), activities[rows].tolist())) for u, rows in self.store.user_rows().items()}
        for u in range(self.catalog.n_users):
            flat = [self.space.flatten(e.item, e.activity) for e in recommend(self.model, u).entries]
            held_in = frozenset(self.space.flatten(v, z) for v, z in positives.get(u, ()))
            for exclude in (frozenset(), held_in, frozenset(flat[::2]) | {self.space.size - 1}):
                expected = [f for f in flat if f not in exclude]
                got = rank_keen2act(self.model, self.space, u, exclude)
                assert got.dtype == np.int64
                assert got.tolist() == expected

    def test_keen_only_expands_selected_items_over_all_activities(self):
        from keenact.recommend import select_items

        for u in range(3):
            ranked = rank_keen_only(self.model, self.space, u, frozenset())
            assert ranked.dtype == np.int64
            ranked = ranked.tolist()
            selected = select_items(self.model, u)
            assert len(ranked) == len(selected) * self.space.n_activities
            items_in_order = [f // self.space.n_activities for f in ranked]
            acts_in_order = [f % self.space.n_activities for f in ranked]
            assert set(items_in_order) == set(int(v) for v in selected)
            # items by keen score descending, exact ties by ascending id
            keen = self.model.scorers()[0].score_items(u)
            keys = [(-keen[v], v) for v in items_in_order[:: self.space.n_activities]]
            assert keys == sorted(keys)
            # every item contributes a full id-ordered activity run
            for i in range(0, len(ranked), self.space.n_activities):
                run = acts_in_order[i : i + self.space.n_activities]
                assert run == list(range(self.space.n_activities))
                assert len(set(items_in_order[i : i + self.space.n_activities])) == 1

    def test_act_only_is_the_thresholded_pair_set(self):
        _, act_scorer = self.model.scorers()
        cutoffs = self.model.thresholds.activity_thresholds
        for u in range(3):
            ranked = rank_act_only(self.model, self.space, u, frozenset())
            assert ranked.dtype == np.int64
            ranked = ranked.tolist()
            scores = act_scorer.score_pair_matrix(u)
            expected = {
                self.space.flatten(v, z)
                for v in range(self.space.n_items)
                for z in range(self.space.n_activities)
                if scores[v, z] >= cutoffs[z]
            }
            assert set(ranked) == expected
            vals = [scores[divmod(f, self.space.n_activities)] for f in ranked]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestEvalReport:
    def test_records_and_lookup(self):
        report = EvalReport(dataset="toy")
        report.add("keen2act", "map@5", "0", 0.5)
        report.add("keen2act", "map@5", "1", 0.7)
        report.add("keen2act", "map@5", "mean", 0.6)
        report.add("fm_bpr", "map@5", "mean", 0.4)
        assert report.value("keen2act", "map@5", "mean") == 0.6
        assert report.values("keen2act", "map@5") == [0.5, 0.7]
        assert report.variants() == ["keen2act", "fm_bpr"]
        assert report.metrics() == ["map@5"]
        with pytest.raises(KeyError):
            report.value("keen", "map@5", "mean")

    def test_table_uses_labels(self):
        report = EvalReport(dataset="toy")
        report.add("keen2act", "map@10", "mean", 0.1234)
        report.add("fm_warp", "map@10", "mean", 0.2)
        text = report.table()
        assert "Keen2Act" in text and "FM_WARP" in text
        assert "0.1234" in text

    def test_tsv_round_trip(self, tmp_path):
        report = EvalReport(dataset="toy")
        report.add("act", "map@inf", "2", 0.125)
        path = tmp_path / "report.tsv"
        report.write_tsv(path)
        ds, var, met, sp, val = path.read_text(encoding="utf-8").strip().split("\t")
        assert (ds, var, met, sp) == ("toy", "act", "map@inf", "2")
        assert float(val) == 0.125


class TestEvaluateSplit:
    def test_smoke_and_determinism(self):
        _, store, _, _ = small_corpus(seed=21, n_users=8, n_items=10)
        result = evaluate_split(store, seed=0, config=FAST, variants=("keen2act", "fm_bpr"), ks=(5, None))
        assert set(result) == {"keen2act", "fm_bpr"}
        for metrics in result.values():
            assert set(metrics) == {"map@5", "map@inf", "train_seconds", "rank_seconds", "eval_users"}
            assert 0.0 <= metrics["map@5"] <= 1.0
            assert metrics["eval_users"] >= 1
        again = evaluate_split(store, seed=0, config=FAST, variants=("keen2act", "fm_bpr"), ks=(5, None))
        for variant in result:
            for metric in ("map@5", "map@inf", "eval_users"):
                assert result[variant][metric] == again[variant][metric]

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_map_equals_map_at_k_over_the_rankers_lists(self, seed):
        """One list at a time gives map_at_k's values bit for bit."""
        catalog, store, _, _ = small_corpus(seed=seed, n_users=8, n_items=10)
        ks = (1, 3, None)
        result = evaluate_split(store, seed=seed, config=FAST, variants=VARIANTS, ks=ks)
        split = split_per_user(store, fraction=0.8, seed=seed)
        uf = l2_normalize_rows(co_participation_features(split.train))
        itf = empty_features(catalog.n_items)
        cfg = dataclasses.replace(FAST, seed=seed)
        model = train(split.train, uf, itf, cfg)
        space = FlatPairSpace(catalog.n_items, catalog.n_activities)
        # frozensets, as the benchmark's held-out MAP passes them
        relevant, exclude = ({u: frozenset(ids.tolist()) for u, ids in _flat_by_user(s, space).items()} for s in (split.test, split.train))
        rankers = {"keen2act": rank_keen2act, "keen": rank_keen_only, "act": rank_act_only}
        trained = dict.fromkeys(rankers, model)
        for kind in ("bpr", "warp"):
            rankers[f"fm_{kind}"] = rank_baseline
            trained[f"fm_{kind}"] = train_baseline(split.train, uf, itf, cfg, kind=kind)
        for variant, rank in rankers.items():
            ranked = {u: rank(trained[variant], space, u, exclude.get(u, frozenset())) for u in relevant}
            for k, name in zip(ks, ("map@1", "map@3", "map@inf")):
                assert result[variant][name] == map_at_k(ranked, relevant, k)

    def test_repeated_cutoff_scores_once(self):
        """A repeated k gives the bytes of the k given once, not a mean over a doubled list."""
        _, store = generate_two_stage(40, 250, 2, seed=0, items_per_user=(20, 20))
        config = TrainConfig(epochs=1)
        once = evaluate_split(store, seed=0, config=config, variants=("fm_warp",), ks=(10, None))["fm_warp"]
        again = evaluate_split(store, seed=0, config=config, variants=("fm_warp",), ks=(10, None, 10, None))["fm_warp"]
        assert list(again) == list(once)
        assert (again["map@10"], again["map@inf"]) == (once["map@10"], once["map@inf"])

    def test_bad_cutoff(self):
        _, store, _, _ = small_corpus(seed=21, n_users=8, n_items=10)
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate_split(store, seed=0, config=FAST, variants=("keen",), ks=(5, 0))

    def test_unknown_variant(self):
        _, store, _, _ = small_corpus(seed=21, n_users=8, n_items=10)
        with pytest.raises(ValueError, match="unknown variant"):
            evaluate_split(store, seed=0, config=FAST, variants=("popularity",), ks=(5,))

    @pytest.mark.parametrize(
        "variants, ks, message",
        [(("keen2act", "typo"), (5,), "unknown variant"), (("fm_bpr", "keen"), (5, 0), "cutoff")],
    )
    def test_inputs_are_checked_before_any_work(self, monkeypatch, variants, ks, message):
        """A bad variant or cutoff anywhere in the lists fails before the split, so nothing is trained."""
        _, store, _, _ = small_corpus(seed=21, n_users=8, n_items=10)
        called = []
        for name in ("split_per_user", "train", "train_baseline"):
            monkeypatch.setattr(evaluation, name, lambda *a, _n=name, **k: called.append(_n))
        with pytest.raises(ValueError, match=message):
            evaluate_split(store, seed=0, config=FAST, variants=variants, ks=ks)
        assert called == []


class TestRunExperiment:
    def test_single_split_mean(self):
        _, store, _, _ = small_corpus(seed=23, n_users=8, n_items=10)
        # a repeated variant or cutoff is recorded once
        report = run_experiment(store, FAST, n_splits=1, variants=("keen", "keen"), ks=(5, 5), dataset="toy")
        assert [met for _, _, met, sp, _ in report.records if sp == "mean"] == ["map@5", "train_seconds", "rank_seconds", "eval_users"]
        assert report.value("keen", "map@5", "mean") == report.value("keen", "map@5", "0")
        assert report.values("keen", "map@5") == [report.value("keen", "map@5", "0")]

    def test_bad_split_count(self):
        _, store, _, _ = small_corpus(seed=23, n_users=8, n_items=10)
        with pytest.raises(ValueError):
            run_experiment(store, FAST, n_splits=0)

    def test_default_tables(self):
        assert VARIANTS[0] == "keen2act"
        assert None in DEFAULT_KS
