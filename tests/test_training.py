"""Rank learning, threshold fitting, config parsing, and training invariants."""

import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse, stats

from keenact import training

from keenact.data import Catalog, InteractionStore
from keenact.evaluation import flat_candidate_space, train_baseline
from keenact.features import (
    FeatureLayout,
    FeatureMatrix,
    SparseVector,
    assemble_act_input,
    assemble_keen_input,
    co_participation_features,
    empty_features,
    l2_normalize_rows,
)
from keenact.fm import (
    AdamState,
    FMGradient,
    adam_moves,
    adam_update,
    combine_gradients,
    fm_gradient,
    fm_score,
    init_params,
)
from keenact.scoring import Scorer, part_gradient, part_stats, table_stats
from keenact.snapshot import model_from_dict, model_to_dict
from keenact.synth import generate_two_stage
from keenact.training import (
    CandidateSpace,
    ConfigError,
    TrainConfig,
    Trainer,
    batch_step,
    config_from_mapping,
    cross_entropy,
    cross_entropy_grad_threshold,
    estimate_rank,
    fit_thresholds,
    harmonic_numbers,
    parse_config,
    run_phase,
    phi,
    sample_negatives,
    sigmoid,
    train,
    trained_item_mask,
    warp_weights,
    write_training_report,
)


class TestPhi:
    def test_values(self):
        assert phi(0) == 0.0
        assert phi(1) == 1.0
        np.testing.assert_allclose(phi(3), 11.0 / 6.0)

    def test_monotone(self):
        values = [phi(n) for n in range(30)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            phi(-1)

    def test_table_and_phi_equal_a_sequential_loop(self):
        """harmonic_numbers and phi equal H_n summed one term at a time in Python floats, bit for bit."""
        want = [0.0]
        for i in range(1, 5001):
            want.append(want[-1] + 1.0 / i)
        assert harmonic_numbers(5000).tolist() == want
        assert [harmonic_numbers(n).tolist() for n in (0, 1, 7)] == [want[:1], want[:2], want[:8]]
        assert [phi(n) for n in range(0, 5001, 37)] == want[::37]


class TestEstimateRank:
    def test_formula(self):
        """21 negatives with the violation on the 4th draw estimate rank 5."""
        assert estimate_rank(21, 4) == 5

    def test_first_draw_strongest(self):
        assert estimate_rank(21, 1) == 20

    def test_clamped_to_one(self):
        assert estimate_rank(2, 4) == 1

    def test_non_increasing_in_draws(self):
        for total in (2, 5, 21, 100):
            ranks = [estimate_rank(total, d) for d in range(1, total + 5)]
            assert all(b <= a for a, b in zip(ranks, ranks[1:]))
            assert all(r >= 1 for r in ranks)

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            estimate_rank(0, 1)
        with pytest.raises(ValueError):
            estimate_rank(5, 0)


class TestWarpWeights:
    def test_equals_phi_of_the_estimated_rank(self):
        """The array lookup equals phi(estimate_rank(t, d)) exactly for t in 1..500, d in 1..20."""
        t, d = np.meshgrid(np.arange(1, 501), np.arange(1, 21), indexing="ij")
        got = warp_weights(t, d, harmonic_numbers(500))
        want = [[phi(estimate_rank(int(a), int(b))) for a, b in zip(ta, da)] for ta, da in zip(t, d)]
        assert got.tolist() == want


class TestCrossEntropy:
    def test_ln2_at_zero(self):
        np.testing.assert_allclose(cross_entropy(0.0, 1.0), math.log(2.0))
        np.testing.assert_allclose(cross_entropy(0.0, 0.0), math.log(2.0))

    def test_asymptotes(self):
        assert cross_entropy(30.0, 1.0) < 1e-12
        assert cross_entropy(-30.0, 0.0) < 1e-12
        assert cross_entropy(-30.0, 1.0) > 29.0

    def test_stable_at_extremes(self):
        assert np.isfinite(cross_entropy(1000.0, 0.0))
        assert np.isfinite(cross_entropy(-1000.0, 1.0))

    def test_threshold_gradient_matches_finite_differences(self):
        """d CE(score - delta, y) / d delta against central differences."""
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(200):
            score = float(rng.normal() * 3)
            delta = float(rng.normal() * 3)
            y = float(rng.integers(0, 2))
            grad = cross_entropy_grad_threshold(score, delta, y)
            numeric = (
                cross_entropy(score - (delta + h), y) - cross_entropy(score - (delta - h), y)
            ) / (2 * h)
            if max(abs(grad), abs(numeric)) < 1e-7:
                continue
            assert abs(grad - numeric) / max(abs(grad) + abs(numeric), 1e-8) < 1e-4

    def test_sigmoid_symmetry(self):
        x = np.linspace(-20, 20, 41)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), np.ones_like(x), atol=1e-12)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.epochs >= 1
        assert cfg.margin > 0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(max_neg_samples=0)
        with pytest.raises(ValueError):
            TrainConfig(margin=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lambda_keen=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(threshold_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(threshold_negative_ratio=-2.0)

    def test_parse_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_bytes(b"\xef\xbb\xbfepochs = 3\r\nk = 4\r\n")
        cfg = parse_config(path)
        assert (cfg.epochs, cfg.k) == (3, 4)

    def test_parse_file(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "# two-stage hyperparameters\n"
            "epochs = 3\n"
            "lr = 0.05   # step size\n"
            "threshold_negative_ratio = full\n"
            "id_onehots = no\n",
            encoding="utf-8",
        )
        cfg = parse_config(path)
        assert cfg.epochs == 3
        assert cfg.lr == 0.05
        assert cfg.threshold_negative_ratio == "full"
        assert cfg.id_onehots is False

    def test_unknown_key_carries_name(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("learning_rate = 0.1\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.key == "learning_rate"

    def test_bad_value(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"epochs": "three"})
        assert err.value.key == "epochs"

    def test_missing_keys_warn_once(self, tmp_path, caplog):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 2\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="keenact.training"):
            cfg = parse_config(path)
        assert cfg.epochs == 2
        warnings = [r for r in caplog.records if "defaults" in r.message]
        assert len(warnings) == 1

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs 2\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("margin", "nan"),
            ("margin", "inf"),
            ("lr", "-1"),
            ("lr", "0"),
            ("lr", "nan"),
            ("beta1", "1.5"),
            ("beta1", "1"),
            ("beta2", "-0.1"),
            ("eps", "0"),
            ("lambda_keen", "inf"),
            ("lambda_act", "-1"),
            ("lambda_act", "nan"),
            ("threshold_negative_ratio", "inf"),
        ],
    )
    def test_out_of_range_values_rejected(self, key, value):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({key: value})
        assert err.value.key == key

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "1e3", "many"])
    def test_batch_size_must_be_a_positive_integer(self, value):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"batch_size": value})
        assert err.value.key == "batch_size"

    @pytest.mark.parametrize("value", [0, 2.5, 16.0, True])
    def test_int_keys_reject_non_integers_passed_directly(self, value):
        with pytest.raises(ConfigError) as err:
            TrainConfig(batch_size=value)
        assert err.value.key == "batch_size"

    def test_batch_size_defaults_to_16_and_parses(self):
        assert TrainConfig().batch_size == 16
        assert config_from_mapping({"batch_size": " 1 "}).batch_size == 1

    def test_range_edges_accepted(self):
        cfg = config_from_mapping({"beta1": "0", "beta2": "0.9999", "lambda_keen": "0", "lambda_act": "0"})
        assert (cfg.beta1, cfg.lambda_keen) == (0.0, 0.0)

    def test_round_trip_dict(self):
        cfg = TrainConfig(epochs=4, lr=0.2, threshold_negative_ratio="full")
        again = config_from_mapping({k: str(v) for k, v in cfg.to_dict().items()})
        assert again == dataclasses.replace(cfg)


class ScalarAdam:
    """Reference single-coordinate Adam used to cross-check fit_thresholds."""

    def __init__(self, alpha, beta1, beta2, eps):
        self.m = 0.0
        self.v = 0.0
        self.t = 0
        self.alpha, self.beta1, self.beta2, self.eps = alpha, beta1, beta2, eps

    def step(self, value, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return value - self.alpha * m_hat / (math.sqrt(v_hat) + self.eps)


def group_loop_fit(scores_by_group, labels_by_group, coords_by_group, n_coords, epochs,
                   alpha=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    """Oracle: the cutoff fit one group at a time, in the vector CE and
    gradient of acceptance check 2 and the array Adam rule."""
    delta = np.zeros(n_coords)
    m, v, t = np.zeros(n_coords), np.zeros(n_coords), np.zeros(n_coords, dtype=np.int64)
    trace = []
    total = sum(len(s) for s in scores_by_group)
    for _ in range(epochs):
        ce_sum = 0.0
        for scores, labels, coords in zip(scores_by_group, labels_by_group, coords_by_group):
            cutoffs = delta[coords]
            ce_sum += float(np.sum(cross_entropy(scores - cutoffs, labels)))
            grad = cross_entropy_grad_threshold(scores, cutoffs, labels)
            t[coords] += 1
            m[coords], v[coords], step = adam_moves(m[coords], v[coords], grad, t[coords], alpha, beta1, beta2, eps)
            delta[coords] -= step
        trace.append(ce_sum / max(total, 1))
    return delta, trace


def act_shaped_groups(seed, n_groups=60, n_coords=3, scale=2.0):
    """Every group holds every coordinate, as in the per-activity fit."""
    rng = np.random.default_rng(seed)
    labels = [(rng.random(n_coords) < 0.4).astype(np.float64) for _ in range(n_groups)]
    scores = [rng.normal(size=n_coords) * scale for _ in range(n_groups)]
    return scores, labels, [np.arange(n_coords)] * n_groups


def extreme_groups(seed, n_groups=30, n_coords=6):
    """Scores of +-40 and +-1000: both logistic branches, exp underflow,
    and CE terms of a thousand."""
    rng = np.random.default_rng(seed)
    scores, labels, coords = [], [], []
    for _ in range(n_groups):
        chosen = np.sort(rng.choice(n_coords, size=int(rng.integers(1, n_coords + 1)), replace=False))
        scores.append(rng.choice([-1000.0, -40.0, 40.0, 1000.0], size=chosen.size))
        labels.append((rng.random(chosen.size) < 0.5).astype(np.float64))
        coords.append(chosen)
    return scores, labels, coords


class TestFitThresholds:
    def _grouped_scores(self, seed, n_groups=12, n_coords=15):
        """Random per-group subsets with labels from shifted separating bands."""
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-3, 3, size=n_coords)
        scores, labels, coords = [], [], []
        for _ in range(n_groups):
            size = int(rng.integers(3, n_coords + 1))
            chosen = np.sort(rng.choice(n_coords, size=size, replace=False))
            y = (rng.random(size) < 0.5).astype(np.float64)
            offset = rng.uniform(2.0, 4.0, size=size)
            s = centers[chosen] + np.where(y == 1.0, offset, -offset)
            scores.append(s)
            labels.append(y)
            coords.append(chosen)
        return scores, labels, coords, centers

    def test_matches_sequential_coordinate_adam(self):
        """Group updates equal coordinate-by-coordinate reference updates."""
        scores, labels, coords, _ = self._grouped_scores(23)
        n_coords = 15
        delta, _ = fit_thresholds(scores, labels, coords, n_coords, epochs=7, alpha=0.05)
        ref = np.zeros(n_coords)
        states = [ScalarAdam(0.05, 0.9, 0.999, 1e-8) for _ in range(n_coords)]
        for _ in range(7):
            for s, y, c in zip(scores, labels, coords):
                grads = y - 1.0 / (1.0 + np.exp(-(s - ref[c])))
                for j, g in zip(c, grads):
                    ref[j] = states[j].step(ref[j], g)
        np.testing.assert_allclose(delta, ref, atol=1e-12)

    @pytest.mark.parametrize(
        "case",
        ["grouped-23", "grouped-29-wide", "act-shaped", "act-shaped-2-coords", "extreme-41", "extreme-43"],
    )
    @pytest.mark.parametrize("adam", [{}, {"alpha": 0.05, "beta1": 0.5, "beta2": 0.9}])
    def test_matches_group_loop_oracle(self, case, adam):
        """Per-cutoff scalar recurrences give the group loop's cutoffs and CE trace."""
        kind, seed, *rest = case.split("-")
        if kind == "grouped":
            scores, labels, coords, _ = self._grouped_scores(int(seed), n_groups=40 if rest else 12)
            n_coords = 15
        elif kind == "act":
            n_coords = 2 if rest else 3
            scores, labels, coords = act_shaped_groups(7, n_coords=n_coords)
        else:
            scores, labels, coords = extreme_groups(int(seed))
            n_coords = 6
        delta, trace = fit_thresholds(scores, labels, coords, n_coords, 9, **adam)
        want_delta, want_trace = group_loop_fit(scores, labels, coords, n_coords, 9, **adam)
        np.testing.assert_allclose(delta, want_delta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace, want_trace, rtol=0, atol=1e-12)
        # plain floats, so report.tsv writes them as plain reprs
        assert all(type(ce) is float for ce in trace)

    def test_empty_input_and_unobserved_coordinates(self):
        """No observations: zero cutoffs and a zero trace; empty groups add
        nothing, and a coordinate never observed keeps 0.0."""
        delta, trace = fit_thresholds([], [], [], 4, 3)
        assert delta.tolist() == [0.0] * 4 and trace == [0.0] * 3
        empty = np.array([], dtype=np.int64)
        delta, trace = fit_thresholds([np.array([])] * 2, [np.array([])] * 2, [empty] * 2, 3, 2)
        assert delta.tolist() == [0.0] * 3 and trace == [0.0] * 2
        scores = [np.array([1.0, -2.0]), np.array([]), np.array([0.5]), np.array([])]
        labels = [np.array([1.0, 0.0]), np.array([]), np.array([0.0]), np.array([])]
        coords = [np.array([0, 2]), empty, np.array([0]), empty]
        delta, trace = fit_thresholds(scores, labels, coords, 4, 5)
        want_delta, want_trace = group_loop_fit(scores, labels, coords, 4, 5)
        assert delta[1] == 0.0 and delta[3] == 0.0
        assert delta[0] != 0.0 and delta[2] != 0.0
        np.testing.assert_allclose(delta, want_delta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace, want_trace, rtol=0, atol=1e-12)

    def test_recovers_shifted_bands(self):
        """Cutoffs move into each coordinate's separating band."""
        scores, labels, coords, centers = self._grouped_scores(29, n_groups=40)
        delta, trace = fit_thresholds(scores, labels, coords, 15, epochs=200, alpha=0.05)
        correct = 0
        total = 0
        for s, y, c in zip(scores, labels, coords):
            predicted = (s >= delta[c]).astype(np.float64)
            correct += int(np.sum(predicted == y))
            total += len(y)
        assert correct / total >= 0.95
        assert trace[-1] < trace[0]

    def test_globally_separable_scores_stay_classified(self):
        """Positives >= +2 and negatives <= -2 classify at >= 0.95 in 50 epochs."""
        rng = np.random.default_rng(31)
        scores, labels, coords = [], [], []
        n_coords = 30
        for _ in range(20):
            y = (rng.random(n_coords) < 0.5).astype(np.float64)
            s = np.where(y == 1.0, rng.uniform(2.0, 5.0, n_coords), rng.uniform(-5.0, -2.0, n_coords))
            scores.append(s)
            labels.append(y)
            coords.append(np.arange(n_coords))
        delta, _ = fit_thresholds(scores, labels, coords, n_coords, epochs=50)
        correct = sum(
            int(np.sum(((s >= delta[c]) == (y == 1.0)))) for s, y, c in zip(scores, labels, coords)
        )
        assert correct / (20 * n_coords) >= 0.95


def small_store(seed=0, n_users=6, n_items=10, n_acts=2, density=40):
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
                rng.integers(0, n_users, density),
                rng.integers(0, n_items, density),
                rng.integers(0, n_acts, density),
            )
        }
    )
    store = InteractionStore(catalog, triples)
    user_feats = l2_normalize_rows(co_participation_features(store))
    item_feats = empty_features(n_items, "item")
    return store, user_feats, item_feats


def one(i):
    """A batch of the single example ``i``."""
    return np.array([i])


class TestWarpSteps:
    def test_keen_skips_user_with_no_negatives(self, caplog):
        """A user positive on every training item cannot produce a violation; one warning per user, per run."""
        catalog = Catalog(["a"], ["x", "y"], ["fork"])
        store = InteractionStore(catalog, [(0, 0, 0), (0, 1, 0)])
        config = TrainConfig(seed=0, epochs=3, threshold_epochs=1)
        with caplog.at_level(logging.WARNING, logger="keenact.training"):
            trainer = Trainer(store, empty_features(1, "user"), empty_features(2, "item"), config)
            w_before = trainer.keen.w.copy()
            result = trainer.warp_step_keen(np.arange(2))
            trainer.run_rank_learning()
        assert (result.skipped, result.updated, result.draws) == (2, 0, 0)
        np.testing.assert_array_equal(trainer.keen.w, w_before)
        skipped = [r for r in caplog.records if r.name == "keenact.training" and "skipped" in r.message]
        assert len(skipped) == 1
        assert "user 0" in skipped[0].getMessage()

    def test_act_skips_fully_active_pair(self):
        """Both activity types observed on the pair leaves nothing to rank."""
        catalog = Catalog(["a", "b"], ["x", "y"], ["fork", "watch"])
        store = InteractionStore(catalog, [(0, 0, 0), (0, 0, 1), (1, 1, 0)])
        trainer = Trainer(
            store, empty_features(2, "user"), empty_features(2, "item"), TrainConfig(seed=0)
        )
        assert trainer.warp_step_act(one(0)).skipped == 1
        # the third triple's pair has a negative; the batch skips only the first two
        result = trainer.warp_step_act(np.arange(3))
        assert result.skipped == 2
        assert result.draws == 1

    def test_no_violation_leaves_parameters_unchanged(self):
        store, uf, itf = small_store(seed=3)
        trainer = Trainer(store, uf, itf, TrainConfig(seed=0))
        u, v = store.keen_pairs[0]
        # make the positive unbeatable so no sampled negative violates
        trainer.keen.w[trainer.keen_layout.item_id_offset + v] = 100.0
        w_before = trainer.keen.w.copy()
        f_before = trainer.keen.factors.copy()
        result = trainer.warp_step_keen(one(0))
        assert not result.updated
        assert result.draws == min(
            TrainConfig().max_neg_samples,
            len(trainer.item_universe) - len(store.positive_items(u)),
        )
        assert trainer.keen_state.t == 0
        np.testing.assert_array_equal(trainer.keen.w, w_before)
        np.testing.assert_array_equal(trainer.keen.factors, f_before)

    def test_every_accepted_update_descends_its_own_hinge(self, monkeypatch):
        """A plain 1e-3 step along each row's gradient in a training batch lowers that row's hinge."""
        store, uf, itf = small_store(seed=5, density=60)
        config = TrainConfig(seed=1, epochs=2, batch_size=4)
        hinges = record_hinge_descent(monkeypatch, config.margin)
        train(store, uf, itf, config)
        assert hinges and all(after < before for before, after in hinges)

    def test_probe_hinge_strictly_below_original(self, monkeypatch):
        """Each keen update's gradient, stepped plainly, leaves the hinge strictly below its value before."""
        store, uf, itf = small_store(seed=7)
        config = TrainConfig(seed=2)
        trainer = Trainer(store, uf, itf, config)
        hinges = record_hinge_descent(monkeypatch, config.margin)
        updates = sum(trainer.warp_step_keen(one(i)).updated for i in range(store.n_pairs))
        assert updates > 0
        assert len(hinges) == updates
        for before, after in hinges:
            assert after < before


def record_hinge_descent(monkeypatch, margin, step=1e-3):
    """Wrap training.part_gradient; for each row of each gradient applied, record
    the row's hinge before and after a plain step along that row's gradient."""
    hinges = []

    def assembled(dim, context, part, r):
        idx, val = np.concatenate([context[0][r], part[0][r]]), np.concatenate([context[1][r], part[1][r]])
        keep = val != 0.0
        order = np.argsort(idx[keep])
        return SparseVector(idx[keep][order], val[keep][order], dim)

    def checked_part_gradient(params, context, pos, neg, *rest):
        indices, owners, rows = part_gradient(params, context, pos, neg, *rest)
        for r in range(len(context[0])):
            grad = combine_gradients([FMGradient(0.0, indices[owners == r], rows[owners == r])])
            x_pos, x_neg = assembled(params.dim, context, pos, r), assembled(params.dim, context, neg, r)
            trial = params.copy()
            trial.w[grad.indices] -= step * grad.w
            trial.factors[grad.indices] -= step * grad.factors
            before = margin - fm_score(params, x_pos) + fm_score(params, x_neg)
            after = margin - fm_score(trial, x_pos) + fm_score(trial, x_neg)
            hinges.append((before, after))
        return indices, owners, rows

    monkeypatch.setattr(training, "part_gradient", checked_part_gradient)
    return hinges


def reference_negatives(rng, universe, positives, cap):
    """One row's WARP sampler written out over the negatives in universe order:
    with few negatives (2 * cap >= total) the first cap of them sorted by one
    random key each; else 2 * cap ranks drawn with replacement, sorted, each
    with a random key, repeats dropped and the cap distinct ranks of smallest
    key kept in key order, redrawing while fewer than cap are distinct."""
    candidates = [int(c) for c in universe if c not in positives]
    total_neg = len(candidates)
    if cap * 2 >= total_neg:
        keys = rng.random(total_neg).tolist()
        return [candidates[i] for i in sorted(range(total_neg), key=keys.__getitem__)[:cap]]
    while True:
        ranks = sorted(rng.integers(0, total_neg, size=2 * cap).tolist())
        keys = rng.random(2 * cap).tolist()
        distinct = [(key, r) for i, (key, r) in enumerate(zip(keys, ranks)) if i == 0 or r != ranks[i - 1]]
        if len(distinct) >= cap:
            return [candidates[r] for _, r in sorted(distinct)[:cap]]


def reference_warp_step(rng, config, params, state, lam, universe, positives, assemble, positive):
    """WARP on assembled inputs with fm_score, fm_gradient and combine_gradients."""
    total_neg = len(universe) - len(positives)
    if total_neg <= 0:
        return False, 0
    x_pos = assemble(positive)
    draws = 0
    for c in reference_negatives(rng, universe, positives, min(config.max_neg_samples, total_neg)):
        draws += 1
        x_neg = assemble(c)
        if fm_score(params, x_pos) < config.margin + fm_score(params, x_neg):
            weight = phi(estimate_rank(total_neg, draws))
            grad = combine_gradients([fm_gradient(params, x_pos, -weight), fm_gradient(params, x_neg, weight)])
            grad.rows = grad.rows + lam * params.table[grad.indices]
            adam_update(params, state, grad)
            return True, draws
    return False, draws


class TestStepMatchesReference:
    def test_one_epoch_of_each_stage(self):
        """Same seed: same draws and updates per step, parameters within 1e-9."""
        catalog, store = generate_two_stage(12, 30, 3, seed=4, items_per_user=(3, 8))
        uf = l2_normalize_rows(co_participation_features(store))
        rows = np.random.default_rng(9).random((catalog.n_items, 5))
        itf = FeatureMatrix(sparse.csr_matrix(rows * (rows < 0.6)), "item")
        config = TrainConfig(seed=6, k=4)
        new, ref = Trainer(store, uf, itf, config), Trainer(store, uf, itf, config)
        stages = [
            (store.keen_pairs, new.warp_step_keen, "keen", config.lambda_keen),
            (store.triples, new.warp_step_act, "act", config.lambda_act),
        ]
        updates = 0
        for examples, step, stage, lam in stages:
            order = new.rng.permutation(len(examples))
            np.testing.assert_array_equal(order, ref.rng.permutation(len(examples)))
            for i in order:
                u, v = examples[i][:2]
                if stage == "keen":
                    universe, positives, positive = ref.item_universe, store.positive_items(u), v
                    assemble = lambda c: assemble_keen_input(u, c, ref.keen_layout, uf, itf)
                else:
                    universe, positives, positive = ref.activity_universe, store.positive_activities(u, v), examples[i][2]
                    assemble = lambda c: assemble_act_input(u, v, c, ref.act_layout, uf, itf)
                got = step(one(i))
                want = reference_warp_step(
                    ref.rng, config, getattr(ref, stage), getattr(ref, f"{stage}_state"), lam,
                    universe, positives, assemble, positive,
                )
                assert (got.updated, got.draws) == want
                updates += int(got.updated)
                a, b = getattr(new, stage), getattr(ref, stage)
                np.testing.assert_allclose(a.w0, b.w0, rtol=0, atol=1e-9)
                np.testing.assert_allclose(a.w, b.w, rtol=0, atol=1e-9)
                np.testing.assert_allclose(a.factors, b.factors, rtol=0, atol=1e-9)
        assert updates > 0


def reference_sparse_warp_step(rng, config, params, state, lam, universe, positives, assemble, positive):
    """WARP for 2 * cap < total negatives, written out: reference_negatives'
    with-replacement draw, then a walk over fm_score on assembled inputs."""
    total_neg = len(universe) - len(positives)
    cap = min(config.max_neg_samples, total_neg)
    assert 2 * cap < total_neg
    return reference_warp_step(rng, config, params, state, lam, universe, positives, assemble, positive)


def assert_params_close(a, b):
    np.testing.assert_allclose(a.w0, b.w0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(a.w, b.w, rtol=0, atol=1e-9)
    np.testing.assert_allclose(a.factors, b.factors, rtol=0, atol=1e-9)


def sparse_corpus():
    """60 items, at most 8 positives per user: more than 2 * cap negatives everywhere."""
    catalog, store = generate_two_stage(30, 60, 3, seed=8, items_per_user=(3, 8))
    uf = l2_normalize_rows(co_participation_features(store))
    rows = np.random.default_rng(3).random((catalog.n_items, 4))
    itf = FeatureMatrix(sparse.csr_matrix(rows * (rows < 0.5)), "item")
    return catalog, store, uf, itf


class TestSparseStepMatchesReference:
    def test_keen_epochs(self):
        """Same seed: same draws and updates per keen step, parameters within 1e-9."""
        _, store, uf, itf = sparse_corpus()
        config = TrainConfig(seed=2, k=4, lr=0.05)
        new, ref = Trainer(store, uf, itf, config), Trainer(store, uf, itf, config)
        outcomes = set()
        for _ in range(3):
            order = new.rng.permutation(store.n_pairs)
            np.testing.assert_array_equal(order, ref.rng.permutation(store.n_pairs))
            for i in order:
                u, v = store.keen_pairs[i]
                got = new.warp_step_keen(one(i))
                want = reference_sparse_warp_step(
                    ref.rng, config, ref.keen, ref.keen_state, config.lambda_keen, ref.item_universe,
                    store.positive_items(u), lambda c: assemble_keen_input(u, c, ref.keen_layout, uf, itf), v,
                )
                assert (got.updated, got.draws) == want
                outcomes.add((got.updated, got.draws > 1))
                assert_params_close(new.keen, ref.keen)
        # updates on the first draw and on later ones, and steps without a violator
        assert outcomes == {(True, False), (True, True), (False, True)}

    def test_fm_warp_epoch(self):
        """The flat space against the written-out step, and train_baseline against both."""
        catalog, store, uf, itf = sparse_corpus()
        config = TrainConfig(seed=5, k=4, epochs=1, batch_size=1)
        layout = FeatureLayout.for_act(catalog, uf, itf)
        params = init_params(layout.dim, config.k, seed=config.seed + 3)
        ref_params = params.copy()
        state = AdamState.for_params(params, **config.adam_kwargs())
        ref_state = AdamState.for_params(ref_params, **config.adam_kwargs())
        rng = np.random.Generator(np.random.PCG64(config.seed))
        ref_rng = np.random.Generator(np.random.PCG64(config.seed))
        space = flat_candidate_space(store, layout, uf, itf, trained_item_mask(store))
        n_acts = catalog.n_activities
        universe = [v * n_acts + z for v in store.items_with_interactions() for z in range(n_acts)]
        flat = {u: frozenset(v * n_acts + z for _, v, z in rows) for u, rows in store.triples_by_user().items()}
        order = rng.permutation(store.n_triples)
        np.testing.assert_array_equal(order, ref_rng.permutation(store.n_triples))
        updates = 0
        for i in order:
            u, v, z = store.triples[i]
            got = batch_step(params, state, config.lambda_keen, space, one(u), one(v * n_acts + z), rng, config)
            want = reference_sparse_warp_step(
                ref_rng, config, ref_params, ref_state, config.lambda_keen, universe, flat[u],
                lambda f: assemble_act_input(u, f // n_acts, f % n_acts, layout, uf, itf), v * n_acts + z,
            )
            assert (got.updated, got.draws) == want
            updates += int(got.updated)
            assert_params_close(params, ref_params)
        assert updates > 0
        assert_params_close(train_baseline(store, uf, itf, config, kind="warp").params, ref_params)


def unpadded(table, row):
    """Row ``row`` of a padded (indices, values) part table without its padding."""
    idx, val = table[0][row], table[1][row]
    keep = val != 0.0
    return idx[keep], val[keep]


def assembled_input(dim, *parts):
    idx, val = np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    order = np.argsort(idx)
    return SparseVector(idx[order], val[order], dim)


def pairwise_step(params, state, lam, space, context, positive, rng, config, bpr=False, update=adam_update, negatives=None):
    """The per-example sampled update that one-row batches must reproduce.

    Without ``negatives`` it draws them with one one-row sample_negatives
    call.  The context is scored with part_stats on its unpadded part and
    the candidates with one table_stats gather; the gradient is the
    combined fm_gradient of the assembled pair plus the decay on its rows,
    passed to ``update`` (one Adam step).  Returns (updated, draws, loss).
    """
    if negatives is None:
        at, counts, _ = sample_negatives(rng, space, np.array([context]), 1 if bpr else config.max_neg_samples)
        negatives = space.universe[at[0, : counts[0]]]
    total_neg = space.universe.size - np.count_nonzero(space.positive_contexts == context)
    if total_neg <= 0:
        return False, 0, 0.0
    cap = negatives.size
    candidates = np.concatenate(([positive], negatives))
    ctx = unpadded(space.contexts, context)
    cbase, s_ctx = part_stats(params, *ctx)
    base, s = table_stats(params, space.table[0][candidates], space.table[1][candidates])
    scores = cbase + base + s @ s_ctx
    j = 0
    if not bpr:
        violates = scores[0] < config.margin + scores[1:]
        j = int(violates.argmax())
        if not violates[j]:
            return False, cap, 0.0
    draws = j + 1
    s_pos, s_neg = float(scores[0]), float(scores[draws])
    if bpr:
        weight, loss = 1.0 / (1.0 + math.exp(s_pos - s_neg)), math.log1p(math.exp(s_neg - s_pos))
    else:
        weight = phi(estimate_rank(total_neg, draws))
        loss = weight * (config.margin - s_pos + s_neg)
    x_pos = assembled_input(params.dim, ctx, unpadded(space.table, positive))
    x_neg = assembled_input(params.dim, ctx, unpadded(space.table, int(negatives[j])))
    grad = combine_gradients([fm_gradient(params, x_pos, -weight), fm_gradient(params, x_neg, weight)])
    grad.rows = grad.rows + lam * params.table[grad.indices]
    update(params, state, grad)
    return True, draws, loss


def assert_params_within(a, b, atol):
    np.testing.assert_allclose(a.table, b.table, rtol=0, atol=atol)
    assert a.w0 == b.w0


class FlatStage:
    """The flat baseline's parameters, optimizer, space and examples, as train_baseline builds them."""

    def __init__(self, store, uf, itf, config):
        catalog = store.catalog
        layout = FeatureLayout.for_act(catalog, uf, itf)
        self.params = init_params(layout.dim, config.k, seed=config.seed + 3)
        self.state = AdamState.for_params(self.params, **config.adam_kwargs())
        self.rng = np.random.Generator(np.random.PCG64(config.seed))
        self.space = flat_candidate_space(store, layout, uf, itf, trained_item_mask(store))
        u, v, z = store.columns
        self.contexts, self.positives = u, v * catalog.n_activities + z


def stage_views(trainer_or_flat, stage):
    """(params, state, lam, space, contexts, positives, batched step) of one stage."""
    t, cfg = trainer_or_flat, trainer_or_flat.config
    if stage == "keen":
        return t.keen, t.keen_state, cfg.lambda_keen, t.keen_space, t.pair_users, t.pair_items, t.warp_step_keen
    if stage == "act":
        z = t.store.columns[2]
        return t.act, t.act_state, cfg.lambda_act, t.act_space, t.triple_pairs, z, t.warp_step_act
    bpr = stage == "fm_bpr"

    def step(rows):
        return batch_step(t.params, t.state, cfg.lambda_keen, t.space, t.contexts[rows], t.positives[rows], t.rng, cfg, bpr=bpr)

    return t.params, t.state, cfg.lambda_keen, t.space, t.contexts, t.positives, step


def make_stage(store, uf, itf, config, stage):
    if stage in ("keen", "act"):
        return Trainer(store, uf, itf, config)
    flat = FlatStage(store, uf, itf, config)
    flat.config = config
    return flat


class TestBatchOfOneMatchesPairwiseStep:
    @pytest.mark.parametrize("stage", ["keen", "act", "fm_bpr", "fm_warp"])
    def test_two_epochs(self, stage):
        """batch_size 1: the same (updated, draws) per row as pairwise_step, parameters within 1e-12."""
        catalog, store = generate_two_stage(14, 30, 3, seed=2, items_per_user=(3, 9))
        uf = l2_normalize_rows(co_participation_features(store))
        rows = np.random.default_rng(4).random((catalog.n_items, 5))
        itf = FeatureMatrix(sparse.csr_matrix(rows * (rows < 0.6)), "item")
        config = TrainConfig(seed=3, k=4, batch_size=1)
        new, ref = make_stage(store, uf, itf, config, stage), make_stage(store, uf, itf, config, stage)
        params, *_, step = stage_views(new, stage)
        ref_params, ref_state, lam, space, contexts, positives, _ = stage_views(ref, stage)
        outcomes = set()
        for _ in range(2):
            order = new.rng.permutation(len(contexts))
            np.testing.assert_array_equal(order, ref.rng.permutation(len(contexts)))
            for i in order:
                got = step(one(i))
                want = pairwise_step(
                    ref_params, ref_state, lam, space, int(contexts[i]), int(positives[i]), ref.rng, config,
                    bpr=stage == "fm_bpr",
                )
                assert (bool(got.updated), got.draws) == want[:2]
                np.testing.assert_allclose(got.loss, want[2], rtol=1e-12, atol=0)
                outcomes.add(bool(got.updated))
        assert True in outcomes
        assert_params_within(params, ref_params, 1e-12)

    def test_report_rows_match_per_example_run(self):
        """batch_size 1: warp_loss, mean_draws and violation_rate are the per-example means of pairwise_step."""
        store, uf, itf = small_store(seed=13, n_items=14, density=60)
        config = TrainConfig(seed=8, epochs=2, batch_size=1)
        trainer, ref = Trainer(store, uf, itf, config), Trainer(store, uf, itf, config)
        trainer.run_rank_learning()
        want = []
        for epoch in range(config.epochs):
            for stage, phase in (("keen", "keen_rank"), ("act", "act_rank")):
                params, state, lam, space, contexts, positives, _ = stage_views(ref, stage)
                totals = [0.0, 0, 0]
                for i in ref.rng.permutation(len(contexts)):
                    updated, draws, loss = pairwise_step(params, state, lam, space, int(contexts[i]), int(positives[i]), ref.rng, config)
                    totals = [totals[0] + loss, totals[1] + draws, totals[2] + int(updated)]
                n = len(contexts)
                want += [(epoch, phase, "warp_loss", totals[0] / n), (epoch, phase, "mean_draws", totals[1] / n),
                         (epoch, phase, "violation_rate", totals[2] / n)]
        assert [row[:3] for row in trainer.report] == [row[:3] for row in want]
        for got, expected in zip(trainer.report, want):
            if got[2] == "warp_loss":
                assert got[3] == pytest.approx(expected[3], rel=1e-12, abs=0)
            else:
                assert got[3] == expected[3]


def frozen_batch_reference(params, state, lam, space, contexts, positives, rng, config, bpr=False):
    """One batch written out: the batch's negatives from one sample_negatives
    call, every row's pairwise_step on its own against a frozen copy of the
    parameters, each row's gradient (with its decay) kept, and their sum
    applied as one Adam step.  Returns (updated, draws, skipped) per row."""
    frozen = params.copy()
    grads, outcomes = [], []
    at, counts, _ = sample_negatives(rng, space, contexts, 1 if bpr else config.max_neg_samples)
    for c, p, row, n in zip(contexts.tolist(), positives.tolist(), at, counts.tolist()):
        skipped = space.universe.size == np.count_nonzero(space.positive_contexts == c)
        updated, draws, _ = pairwise_step(
            frozen, state, lam, space, c, p, rng, config, bpr=bpr,
            update=lambda _p, _s, grad: grads.append(grad), negatives=space.universe[row[:n]],
        )
        outcomes.append((updated, draws, skipped))
    if grads:
        adam_update(params, state, combine_gradients(grads))
    return outcomes


class TestFrozenBatch:
    """Batches of several rows against the frozen-parameter reference, with their edge cases."""

    @staticmethod
    def edge_store():
        """Rows that skip (an all-positive keen user, fully active act pairs) and
        fewer negatives than max_neg_samples (nine training items, three activities)."""
        catalog = Catalog([f"u{i}" for i in range(6)], [f"i{j}" for j in range(10)], ["a", "b", "c"])
        rng = np.random.default_rng(21)
        triples = {(0, v, int(z)) for v in range(9) for z in rng.integers(0, 3, 2)}  # every training item
        triples |= {(1, 2, z) for z in range(3)} | {(1, 5, z) for z in range(3)}  # fully active pairs
        triples |= {(int(u), int(v), int(z)) for u, v, z in zip(rng.integers(1, 6, 50), rng.integers(0, 9, 50), rng.integers(0, 3, 50))}
        store = InteractionStore(catalog, sorted(triples))
        return store, l2_normalize_rows(co_participation_features(store)), empty_features(10, "item")

    @pytest.mark.parametrize("stage", ["keen", "act", "fm_bpr", "fm_warp"])
    @pytest.mark.parametrize("batch_size", [7, 1000])
    def test_epochs_of_batches(self, stage, batch_size):
        """Summed outcomes per batch and parameters within 1e-12 over 3 epochs,
        including a last partial batch (n % 7 != 0) and a batch larger than the epoch."""
        store, uf, itf = self.edge_store()
        config = TrainConfig(seed=4, k=3, batch_size=batch_size, max_neg_samples=20)
        new, ref = make_stage(store, uf, itf, config, stage), make_stage(store, uf, itf, config, stage)
        params, *_, step = stage_views(new, stage)
        ref_params, ref_state, lam, space, contexts, positives, _ = stage_views(ref, stage)
        n = len(contexts)
        assert n % 7 != 0 and n < 1000
        seen = {"skipped": 0, "partial": 0, "updated": 0}
        for _ in range(3):
            order = new.rng.permutation(n)
            np.testing.assert_array_equal(order, ref.rng.permutation(n))
            for start in range(0, n, batch_size):
                rows = order[start : start + batch_size]
                got = step(rows)
                want = frozen_batch_reference(
                    ref_params, ref_state, lam, space, contexts[rows], positives[rows], ref.rng, config,
                    bpr=stage == "fm_bpr",
                )
                assert got.updated == sum(u for u, _, _ in want)
                assert got.draws == sum(d for _, d, _ in want)
                assert got.skipped == sum(s for _, _, s in want)
                assert_params_within(params, ref_params, 1e-12)
                seen["skipped"] += got.skipped
                seen["partial"] += rows.size < batch_size
                seen["updated"] += got.updated
        assert seen["partial"] == 3 and seen["updated"] > 0
        assert (seen["skipped"] > 0) == (stage in ("keen", "act"))


class TestRunPhase:
    @pytest.mark.parametrize("n, batch_size, sizes", [(11, 4, [4, 4, 3]), (5, 16, [5]), (3, 1, [1, 1, 1])])
    def test_batches_cover_the_seeded_order(self, n, batch_size, sizes):
        rng = np.random.Generator(np.random.PCG64(0))
        want = np.random.Generator(np.random.PCG64(0)).permutation(n)
        batches = []

        def step(rows):
            batches.append(rows)
            return training.StepResult(updated=rows.size - 1, draws=2 * rows.size, loss=float(rows.size))

        report = []
        run_phase(0, "keen_rank", n, step, init_params(2, 1, seed=0), rng, report, batch_size)
        assert [b.size for b in batches] == sizes
        np.testing.assert_array_equal(np.concatenate(batches), want)
        # report rows are means per example, not per batch
        assert report == [
            (0, "keen_rank", "warp_loss", 1.0),
            (0, "keen_rank", "mean_draws", 2.0),
            (0, "keen_rank", "violation_rate", (n - len(sizes)) / n),
        ]


def sampling_space(n_universe, positive_sets):
    """A CandidateSpace for sampling only: one context per set of positive
    positions over a sorted universe of spaced-out ids, with empty part tables."""
    n = len(positive_sets)
    empty = (np.zeros((n, 1), dtype=np.int64), np.zeros((n, 1)))
    contexts = np.array([c for c, p in enumerate(positive_sets) for _ in p], dtype=np.int64)
    positions = np.array([r for p in positive_sets for r in sorted(p)], dtype=np.int64)
    return CandidateSpace(empty, empty, 3 * np.arange(n_universe, dtype=np.int64) + 1, contexts, 3 * positions + 1)


def list_space(universe, positive_lists):
    """The derived arrays of a space written out from one array of sorted
    universe positions per context: (n_negatives, key_starts, rank_keys)."""
    sizes = np.array([p.size for p in positive_lists], dtype=np.int64)
    key_starts = np.concatenate(([0], np.cumsum(sizes)))
    owners = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *positive_lists])
    within = np.arange(flat.size) - key_starts[owners]
    return universe.size - sizes, key_starts, owners * (universe.size + 1) + flat - within


@st.composite
def space_stores(draw):
    """Stores with a user who has no triple and, when drawn, a user positive
    on every item, so a keen context and some act contexts are all-positive."""
    n_users, n_items, n_acts = draw(st.integers(1, 5)), draw(st.integers(1, 7)), draw(st.integers(1, 3))
    triple = st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1), st.integers(0, n_acts - 1))
    triples = draw(st.sets(triple, min_size=1, max_size=30))
    if draw(st.booleans()):
        triples |= {(0, v, z) for v in range(n_items) for z in range(n_acts)}
    users, items, acts = [f"u{i}" for i in range(n_users + 1)], [f"i{j}" for j in range(n_items)], [f"a{z}" for z in range(n_acts)]
    catalog = Catalog(users, items, acts)
    return InteractionStore(catalog, sorted(triples))


class TestCandidateSpace:
    @settings(max_examples=60, deadline=None)
    @given(space_stores())
    def test_columns_match_per_context_lists(self, store):
        """Keen, act and flat spaces from positive columns derive what the per-context position lists gave."""
        catalog = store.catalog
        uf, itf = empty_features(catalog.n_users, "user"), empty_features(catalog.n_items, "item")
        trainer = Trainer(store, uf, itf, TrainConfig(k=2))
        items = store.items_with_interactions()
        flat_ids = [v * catalog.n_activities + z for v in items for z in range(catalog.n_activities)]
        layout = FeatureLayout.for_act(catalog, uf, itf)
        flat_space = flat_candidate_space(store, layout, uf, itf, trained_item_mask(store))
        by_user = store.triples_by_user()
        cases = [
            (trainer.keen_space, items, [store.positive_items(u) for u in range(catalog.n_users)]),
            (trainer.act_space, list(range(catalog.n_activities)), [store.positive_activities(*p) for p in store.keen_pairs]),
            (flat_space, flat_ids, [
                {v * catalog.n_activities + z for _, v, z in by_user.get(u, ())} for u in range(catalog.n_users)
            ]),
        ]
        for space, universe, positive_sets in cases:
            assert space.universe.tolist() == universe
            lists = [np.array(sorted(universe.index(c) for c in p), dtype=np.int64) for p in positive_sets]
            n_negatives, key_starts, rank_keys = list_space(space.universe, lists)
            for c, positions in enumerate(lists):
                np.testing.assert_array_equal(space.positions[space.key_starts[c] : space.key_starts[c + 1]], positions)
            np.testing.assert_array_equal(space.n_negatives, n_negatives)
            np.testing.assert_array_equal(space.key_starts, key_starts)
            np.testing.assert_array_equal(space.rank_keys, rank_keys)


batches_to_sample = st.integers(1, 60).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.sets(st.integers(0, n - 1), max_size=n), min_size=1, max_size=6),
        st.integers(1, n + 3),
        st.integers(0, 2**32 - 1),
    )
).flatmap(
    # then a batch of context ids, repeats allowed
    lambda case: st.tuples(st.just(case), st.lists(st.integers(0, len(case[1]) - 1), min_size=1, max_size=12))
)


class CountingRng:
    """Forwards ``random`` and ``integers`` to a generator and counts the ``integers`` calls."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.integer_calls = 0

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.integer_calls += 1
        return self.rng.integers(*args, **kwargs)


class TestSampleNegatives:
    @settings(max_examples=300, deadline=None)
    @given(batches_to_sample)
    def test_each_row_gets_min_cap_total_distinct_negatives(self, case):
        """Every row: exactly min(cap, total) distinct positions, inside the universe, none positive; 0 without negatives."""
        (n_universe, positive_sets, cap, seed), rows = case
        space = sampling_space(n_universe, positive_sets)
        contexts = np.array(rows, dtype=np.int64)
        at, counts, total_neg = sample_negatives(np.random.Generator(np.random.PCG64(seed)), space, contexts, cap)
        assert at.shape == (contexts.size, counts.max())
        for c, row, n, total in zip(rows, at.tolist(), counts.tolist(), total_neg.tolist()):
            assert total == n_universe - len(positive_sets[c])
            assert n == min(cap, total)
            drawn = row[:n]
            assert row[n:] == [-1] * (len(row) - n)
            assert len(set(drawn)) == n
            assert all(0 <= x < n_universe and x not in positive_sets[c] for x in drawn)

    @pytest.mark.parametrize("cap", [3, 2], ids=["dense", "sparse"])
    def test_ordered_tuples_are_uniform(self, cap):
        """Five negatives among seven: every ordered cap-tuple equally likely (chi-square, seeded).

        cap 3 is dense (2 * 3 >= 5); cap 2 is sparse and mixes in a second
        context with four negatives, which is dense at cap 2."""
        space = sampling_space(7, [{1, 4}, {0, 3, 6}])
        negatives = [0, 2, 3, 5, 6]
        tuples = {t: i for i, t in enumerate(itertools.permutations(negatives, cap))}
        rng = np.random.Generator(np.random.PCG64(11))
        contexts = np.tile([0, 1], 500 * len(tuples))
        at, counts, _ = sample_negatives(rng, space, contexts, cap)
        assert (counts[contexts == 0] == cap).all()
        observed = np.bincount([tuples[tuple(row)] for row in at[contexts == 0, :cap].tolist()], minlength=len(tuples))
        assert stats.chisquare(observed).pvalue > 1e-3

    def test_sparse_rows_short_of_cap_are_redrawn(self):
        """Four draws with replacement from five negatives sometimes give one distinct rank; those rows redraw whole."""
        space = sampling_space(7, [{1, 4}])
        rng = CountingRng(5)
        contexts = np.zeros(2000, dtype=np.int64)
        at, counts, _ = sample_negatives(rng, space, contexts, 2)
        assert rng.integer_calls > 1
        assert (counts == 2).all()
        assert (at[:, 0] != at[:, 1]).all()
        assert set(np.unique(at).tolist()) == {0, 2, 3, 5, 6}


class TestStepCost:
    def test_two_table_stats_calls_per_batch(self, monkeypatch):
        """A batch scores its contexts with one table_stats call and its candidates with one more; no part_stats."""
        _, store, uf, itf = sparse_corpus()
        trainer = Trainer(store, uf, itf, TrainConfig(seed=3, k=4))
        calls = {"table_stats": 0, "part_stats": 0}
        for name in calls:
            original = getattr(training, name)
            monkeypatch.setattr(training, name, lambda *a, _f=original, _n=name: calls.__setitem__(_n, calls[_n] + 1) or _f(*a))
        batches = 0
        for start in range(0, 60, 16):
            rows = np.arange(start, min(start + 16, 60))
            for step in (trainer.warp_step_keen, trainer.warp_step_act):
                before = calls["table_stats"]
                result = step(rows)
                assert calls["table_stats"] - before == (0 if result.skipped == rows.size else 2)
                batches += result.skipped < rows.size
        assert batches == 8
        assert calls["part_stats"] == 0


def list_threshold_groups(trainer, rng):
    """Keen and act threshold groups built with Python lists, as a written-out reference."""
    store, universe = trainer.store, trainer.item_universe
    ratio = trainer.config.threshold_negative_ratio
    keen = []
    for u in store.users_with_interactions():
        pos_set = store.positive_items(u)
        items = universe
        if ratio != "full":
            positives = sorted(pos_set)
            n_neg = math.ceil(float(ratio) * len(positives))
            negatives = np.array([v for v in universe if v not in pos_set], dtype=np.int64)
            if n_neg < len(negatives):
                chosen = rng.choice(len(negatives), size=n_neg, replace=False)
                negatives = negatives[np.sort(chosen)]
            items = np.concatenate([np.array(positives, dtype=np.int64), negatives])
        keen.append((items, np.array([1.0 if v in pos_set else 0.0 for v in items])))
    act = [
        np.array([1.0 if z in store.positive_activities(u, v) else 0.0 for z in trainer.activity_universe])
        for u, v in store.keen_pairs
    ]
    return keen, act


class TestThresholdSampling:
    @pytest.mark.parametrize("ratio", ["full", 0.5, 1.0])
    def test_masks_match_list_version(self, ratio):
        """Same RNG state: the same items, labels and cutoffs as the list version."""
        store, uf, itf = small_store(seed=29, n_users=8, n_items=20, density=70)
        config = TrainConfig(seed=4, epochs=1, threshold_negative_ratio=ratio, threshold_epochs=3)
        trainer = Trainer(store, uf, itf, config)
        trainer.run_rank_learning()
        rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = trainer.rng.bit_generator.state
        keen, act = list_threshold_groups(trainer, rng)
        probe = Trainer(store, uf, itf, config)
        probe.rng.bit_generator.state = trainer.rng.bit_generator.state
        for u, (items, labels) in zip(store.users_with_interactions(), keen):
            got_items, got_labels = probe._threshold_enum_items(u)
            np.testing.assert_array_equal(got_items, items)
            np.testing.assert_array_equal(got_labels, labels)
        keen_scorer, act_scorer = (
            Scorer(m, layout, uf, itf)
            for m, layout in ((trainer.keen, trainer.keen_layout), (trainer.act, trainer.act_layout))
        )
        users = store.users_with_interactions()
        want_keen, _ = fit_thresholds(
            [keen_scorer.score_items(u, items) for u, (items, _) in zip(users, keen)],
            [labels for _, labels in keen], [items for items, _ in keen],
            store.catalog.n_items, config.threshold_epochs, **config.adam_kwargs(),
        )
        want_act, _ = fit_thresholds(
            [act_scorer.score_activities(u, v) for u, v in store.keen_pairs], act,
            [trainer.activity_universe] * len(act), store.catalog.n_activities,
            config.threshold_epochs, **config.adam_kwargs(),
        )
        table = trainer.run_threshold_learning()
        np.testing.assert_array_equal(table.item_thresholds, want_keen)
        np.testing.assert_array_equal(table.activity_thresholds, want_act)
        # a finite ratio samples the negatives of at least one user
        assert (ratio == "full") != any(len(items) < len(trainer.item_universe) for items, _ in keen)

class TestTrainedItems:
    @pytest.mark.parametrize("ratio", [5.0, "full", 0.1])
    def test_mask_is_the_items_phase_two_fits(self, ratio):
        """The cutoff table's trained mask marks exactly the items with a training
        interaction, and phase 2 enumerates each of them for some user."""
        store, uf, itf = small_store(seed=31, n_users=8, n_items=40, density=40)
        config = TrainConfig(seed=2, epochs=1, threshold_negative_ratio=ratio, threshold_epochs=2)
        trainer = Trainer(store, uf, itf, config)
        trainer.run_rank_learning()
        enumerated = []
        enum_items = trainer._threshold_enum_items
        trainer._threshold_enum_items = lambda u: enumerated.append(enum_items(u)) or enumerated[-1]
        model = trainer.finish(trainer.run_threshold_learning())
        want = np.zeros(store.catalog.n_items, dtype=bool)
        want[store.items_with_interactions()] = True
        assert not want.all()  # some items are cold
        fitted = np.zeros_like(want)
        fitted[np.concatenate([items for items, _ in enumerated])] = True
        np.testing.assert_array_equal(model.thresholds.item_trained, want)
        np.testing.assert_array_equal(fitted, want)
        assert model.seen_items == frozenset(store.items_with_interactions())
        # a finite ratio samples the negatives of at least one user
        assert (ratio == "full") != any(len(items) < want.sum() for items, _ in enumerated)


class TestTrain:
    def test_model_keeps_the_scorers_phase_two_used(self, monkeypatch):
        """train() builds one Scorer pair: phase 2 scores with it, the model returns it,
        and a snapshot round trip of the model scores identically."""
        store, uf, itf = small_store(seed=37, n_items=14, density=50)
        used, builds = [], []
        for name in ("learn_thresholds_keen", "learn_thresholds_act"):
            learn = getattr(Trainer, name)
            monkeypatch.setattr(Trainer, name, lambda self, scorer, _f=learn: used.append(scorer) or _f(self, scorer))
        build = Scorer.__init__
        monkeypatch.setattr(Scorer, "__init__", lambda self, *a, **k: builds.append(self) or build(self, *a, **k))
        model = train(store, uf, itf, TrainConfig(seed=3, epochs=2))
        pair = model.scorers()
        assert len(used) == 2 and pair[0] is used[0] and pair[1] is used[1]
        assert builds == used
        back = model_from_dict(model_to_dict(model))
        for u in range(model.n_users):
            for ours, theirs in zip(pair, back.scorers()):
                np.testing.assert_array_equal(theirs.score_items(u), ours.score_items(u))
            np.testing.assert_array_equal(back.scorers()[1].score_pair_matrix(u), pair[1].score_pair_matrix(u))

    def test_bitwise_determinism(self):
        store, uf, itf = small_store(seed=11, density=50)
        config = TrainConfig(seed=4, epochs=3)
        a = train(store, uf, itf, config)
        b = train(store, uf, itf, config)
        np.testing.assert_array_equal(a.keen.w, b.keen.w)
        np.testing.assert_array_equal(a.keen.factors, b.keen.factors)
        np.testing.assert_array_equal(a.act.factors, b.act.factors)
        np.testing.assert_array_equal(a.thresholds.item_thresholds, b.thresholds.item_thresholds)
        assert a.report == b.report

    def test_bias_is_never_trained(self):
        """Pairwise losses do not depend on w0, so both scorers keep its initial 0.0."""
        store, uf, itf = small_store(seed=11, density=50)
        model = train(store, uf, itf, TrainConfig(seed=4, epochs=2))
        assert (model.keen.w0, model.act.w0) == (0.0, 0.0)

    def test_seed_changes_the_run(self):
        store, uf, itf = small_store(seed=11, density=50)
        a = train(store, uf, itf, TrainConfig(seed=4, epochs=2))
        b = train(store, uf, itf, TrainConfig(seed=5, epochs=2))
        assert not np.array_equal(a.keen.factors, b.keen.factors)

    def test_phase_two_never_touches_scorer_parameters(self):
        store, uf, itf = small_store(seed=13, density=50)
        trainer = Trainer(store, uf, itf, TrainConfig(seed=6, epochs=2))
        trainer.run_rank_learning()
        keen_w = trainer.keen.w.copy()
        keen_f = trainer.keen.factors.copy()
        act_w = trainer.act.w.copy()
        act_f = trainer.act.factors.copy()
        trainer.run_threshold_learning()
        np.testing.assert_array_equal(trainer.keen.w, keen_w)
        np.testing.assert_array_equal(trainer.keen.factors, keen_f)
        np.testing.assert_array_equal(trainer.act.w, act_w)
        np.testing.assert_array_equal(trainer.act.factors, act_f)

    def test_stronger_decay_shrinks_factors(self):
        """Trained factor norms drop monotonically across three decay settings."""
        store, uf, itf = small_store(seed=17, n_users=8, n_items=14, density=80)
        norms = []
        for lam in (0.01, 1.0, 10.0):
            config = TrainConfig(seed=7, epochs=5, lambda_keen=lam)
            model = train(store, uf, itf, config)
            norms.append(float(np.linalg.norm(model.keen.factors)))
        assert norms[0] > norms[1] > norms[2]

    def test_report_structure(self):
        store, uf, itf = small_store(seed=19)
        config = TrainConfig(seed=8, epochs=2, threshold_epochs=3)
        model = train(store, uf, itf, config)
        phases = {phase for _, phase, _, _ in model.report}
        assert phases == {"keen_rank", "act_rank", "keen_threshold", "act_threshold"}
        keen_epochs = [e for e, p, m, _ in model.report if p == "keen_rank" and m == "warp_loss"]
        assert keen_epochs == [0, 1]
        ce_rows = [e for e, p, m, _ in model.report if p == "keen_threshold"]
        assert ce_rows == [0, 1, 2]
        for _, _, _, value in model.report:
            assert isinstance(value, float)

    def test_fallback_is_mean_of_trained_cutoffs(self):
        """Catalog items never enumerated fall back to the trained mean."""
        catalog = Catalog(["a", "b"], ["x", "y", "ghost"], ["fork", "watch"])
        store = InteractionStore(catalog, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
        uf = empty_features(2, "user")
        itf = empty_features(3, "item")
        model = train(store, uf, itf, TrainConfig(seed=9, epochs=2, threshold_negative_ratio="full"))
        table = model.thresholds
        assert not table.item_trained[2]
        trained_mean = table.item_thresholds[table.item_trained].mean()
        np.testing.assert_allclose(table.global_item_fallback, trained_mean)
        np.testing.assert_allclose(table.effective_item_thresholds()[2], trained_mean)

    def test_training_auc_on_planted_preferences(self):
        """Item scores separate observed from unobserved pairs after training."""
        catalog, store = generate_two_stage(n_users=20, n_items=50, n_activities=2, seed=1)
        uf = l2_normalize_rows(co_participation_features(store))
        itf = empty_features(catalog.n_items, "item")
        model = train(store, uf, itf, TrainConfig(seed=1, epochs=30))
        keen_scorer, _ = model.scorers()
        scores, labels = [], []
        for u in range(catalog.n_users):
            pos = store.positive_items(u)
            s = keen_scorer.score_items(u)
            for v in range(catalog.n_items):
                scores.append(float(s[v]))
                labels.append(1.0 if v in pos else 0.0)
        scores = np.array(scores)
        labels = np.array(labels)
        order = np.argsort(scores, kind="stable")
        ranks = np.empty_like(order, dtype=np.float64)
        ranks[order] = np.arange(1, len(scores) + 1)
        n_pos = labels.sum()
        n_neg = len(labels) - n_pos
        auc = (ranks[labels == 1.0].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
        assert auc > 0.8


def exact_warp_loss(params, layout, user_feats, item_feats, store, universe, margin):
    """Harmonic-weighted count of margin violations, fully enumerated."""
    total = 0.0
    for u in store.users_with_interactions():
        positives = store.positive_items(u)
        for v in sorted(positives):
            x_pos = assemble_keen_input(u, v, layout, user_feats, item_feats)
            s_pos = fm_score(params, x_pos)
            violations = 0
            for v_neg in universe:
                if v_neg in positives:
                    continue
                x_neg = assemble_keen_input(u, int(v_neg), layout, user_feats, item_feats)
                if s_pos < margin + fm_score(params, x_neg):
                    violations += 1
            total += phi(violations)
    return total


def exact_loss_drops(batch_size, epochs):
    """Seeds out of 5 on which rank learning lowers the true-rank loss of a tiny instance."""
    decreased = 0
    for seed in range(5):
        catalog, store = generate_two_stage(
            n_users=5, n_items=8, n_activities=2, seed=seed, items_per_user=(2, 5)
        )
        uf = l2_normalize_rows(co_participation_features(store))
        itf = empty_features(catalog.n_items, "item")
        config = TrainConfig(seed=seed, epochs=epochs, lambda_keen=0.001, batch_size=batch_size)
        trainer = Trainer(store, uf, itf, config)
        before = exact_warp_loss(
            trainer.keen, trainer.keen_layout, uf, itf, store, trainer.item_universe, config.margin
        )
        trainer.run_rank_learning()
        after = exact_warp_loss(
            trainer.keen, trainer.keen_layout, uf, itf, store, trainer.item_universe, config.margin
        )
        decreased += int(after < before)
    return decreased


class TestExactLoss:
    def test_full_warp_loss_decreases_on_tiny_instances(self):
        """Per-example SGD: true-rank loss drops from init to trained on >= 4 of 5 seeds."""
        assert exact_loss_drops(batch_size=1, epochs=8) >= 4

    def test_full_warp_loss_decreases_at_the_default_batch_size(self):
        """The same at the default batch size, given 40 epochs: an instance has at
        most 20 pairs, so an epoch is one or two Adam steps of size lr, and 8 of
        them cannot cross the margin of 1."""
        assert exact_loss_drops(batch_size=TrainConfig.batch_size, epochs=40) >= 4


class TestReportFile:
    def test_written_records_parse_back(self, tmp_path):
        store, uf, itf = small_store(seed=23)
        model = train(store, uf, itf, TrainConfig(seed=10, epochs=2))
        path = tmp_path / "report.tsv"
        write_training_report(model.report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(model.report)
        epoch, phase, metric, value = lines[0].split("\t")
        assert (int(epoch), phase, metric, float(value)) == model.report[0]
