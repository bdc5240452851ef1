"""Rank learning, threshold fitting, config parsing, and training invariants."""

import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from keenact import training

from keenact.data import Catalog, InteractionStore, split_per_user
from keenact.evaluation import flat_candidate_space, train_baseline
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
    draw_block,
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


def masked_sigmoid(x):
    """Oracle: the logistic in two branches selected by boolean masks."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


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

    def test_sigmoid_equals_the_masked_form_bitwise(self):
        """Bit for bit the two-branch form with boolean masks, NaN signs included."""
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1000.0, -1000.0, 745.5, -745.5, 5e-324]
        x = np.concatenate((special, np.random.default_rng(0).normal(scale=30.0, size=501)))
        for arr in (x, x.reshape(2, -1)):
            assert sigmoid(arr).view(np.int64).tolist() == masked_sigmoid(arr).view(np.int64).tolist()
        for value in special:
            got = sigmoid(value)
            assert type(got) is float
            assert np.float64(got).view(np.int64) == np.float64(masked_sigmoid(value)).view(np.int64)


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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("id_onehots", "no"),
            ("id_onehots", 0),
            ("lr", True),
            ("threshold_negative_ratio", True),
            ("threshold_negative_ratio", "abc"),
            ("margin", "2"),
            ("epochs", "3"),
            ("lambda_act", None),
        ],
    )
    def test_keys_reject_values_of_another_type_passed_directly(self, key, value):
        """Each key takes its default's type: a bool is no number, a string no bool or number."""
        with pytest.raises(ConfigError) as err:
            TrainConfig(**{key: value})
        assert err.value.key == key

    def test_numbers_of_any_numeric_type_accepted(self):
        cfg = TrainConfig(lr=1, margin=np.float32(0.5), epochs=np.int64(2), id_onehots=np.bool_(False))
        assert (cfg.lr, cfg.epochs) == (1, 2) and not cfg.id_onehots

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



def _logistic(diff):
    """(sigmoid(diff), log(1 + exp(diff))) of one float, both overflow-free."""
    if diff >= 0.0:
        e = math.exp(-diff)
        return 1.0 / (1.0 + e), diff + math.log1p(e)
    e = math.exp(diff)
    return e / (1.0 + e), math.log1p(e)


def scalar_loop_fit(scores_by_group, labels_by_group, coords_by_group, n_coords, epochs,
                    alpha=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    """Oracle: every cutoff's Adam recurrence in Python floats through
    ``adam_moves``, cutoff after cutoff, CE sums added in coordinate order."""
    delta = np.zeros(n_coords)
    ce_sums = [0.0] * epochs
    total = sum(len(s) for s in scores_by_group)
    if total:
        coords = np.concatenate(coords_by_group)
        order = np.argsort(coords, kind="stable")
        scores = np.concatenate(scores_by_group)[order].tolist()
        labels = np.concatenate(labels_by_group)[order].tolist()
        observed = list(zip(scores, labels))
        start = 0
        for c, end in enumerate(np.cumsum(np.bincount(coords, minlength=n_coords)).tolist()):
            stream, start = observed[start:end], end
            cutoff = m = v = 0.0
            for epoch in range(epochs):
                ce_sum = 0.0
                for t, (score, label) in enumerate(stream, start=epoch * len(stream) + 1):
                    x = score - cutoff
                    prob, softplus = _logistic(x)
                    ce_sum += softplus - label * x
                    m, v, step = adam_moves(m, v, label - prob, t, alpha, beta1, beta2, eps)
                    cutoff -= step
                ce_sums[epoch] += ce_sum
            delta[c] = cutoff
    return delta, [ce_sum / max(total, 1) for ce_sum in ce_sums]


def streams_to_groups(lengths, rng, extreme=False, single_label=None):
    """Groups whose cutoff c occurs in the first lengths[c] groups, each group
    in a shuffled coordinate order; scores of +-1000 when ``extreme``, and
    every label ``single_label`` when it is set."""
    scores, labels, coords = [], [], []
    for g in range(int(max(lengths, default=0))):
        chosen = rng.permutation(np.flatnonzero(np.asarray(lengths) > g))
        if extreme:
            scores.append(rng.choice([-1000.0, 1000.0], size=chosen.size))
        else:
            scores.append(rng.normal(size=chosen.size) * 3.0)
        if single_label is None:
            labels.append((rng.random(chosen.size) < 0.3).astype(np.float64))
        else:
            labels.append(np.full(chosen.size, single_label))
        coords.append(chosen)
    return scores, labels, coords


@st.composite
def stream_cases(draw):
    """Stream lengths per cutoff (zero for unobserved ones) with their groups.

    Shapes: ragged lengths, equal lengths, and either with one very long
    stream; few cutoffs or many, so the cost rule meets all three splits."""
    n_coords = draw(st.one_of(st.integers(1, 8), st.integers(60, 150)))
    if draw(st.booleans()):
        lengths = np.full(n_coords, draw(st.integers(1, 4)))
    else:
        lengths = np.array(draw(st.lists(st.integers(0, 3), min_size=n_coords, max_size=n_coords)))
    if draw(st.booleans()):
        lengths[draw(st.integers(0, n_coords - 1))] = draw(st.integers(60, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    single_label = draw(st.sampled_from([None, None, 0.0, 1.0]))
    groups = streams_to_groups(lengths, rng, extreme=draw(st.booleans()), single_label=single_label)
    return (*groups, n_coords + draw(st.integers(0, 2)), draw(st.sampled_from([3, 1, 0])))


def assert_matches_scalar_oracle(scores, labels, coords, n_coords, epochs, **adam):
    """The scalar regime equals the oracle exactly; the lockstep regime is
    within 1e-12 on cutoffs and on the mean CE per epoch.  Returns the split."""
    delta, trace = fit_thresholds(scores, labels, coords, n_coords, epochs, **adam)
    want_delta, want_trace = scalar_loop_fit(scores, labels, coords, n_coords, epochs, **adam)
    lengths = np.bincount(np.concatenate(coords).astype(np.int64), minlength=n_coords) if coords else np.zeros(n_coords, int)
    scalar, lockstep = training.split_streams(lengths)
    assert delta[scalar].tolist() == want_delta[scalar].tolist()
    np.testing.assert_allclose(delta[lockstep], want_delta[lockstep], rtol=0, atol=1e-12)
    assert delta[lengths == 0].tolist() == [0.0] * int((lengths == 0).sum())
    assert len(trace) == epochs and all(type(ce) is float for ce in trace)
    if lockstep.size:
        np.testing.assert_allclose(trace, want_trace, rtol=0, atol=1e-12)
    else:
        assert trace == want_trace
    return scalar, lockstep


class TestTwoRegimes:
    """fit_thresholds against the scalar loop it replaced."""

    @given(stream_cases())
    @settings(max_examples=200, deadline=None)
    def test_drawn_streams_match_the_scalar_loop(self, case):
        assert_matches_scalar_oracle(*case)

    @pytest.mark.parametrize(
        "lengths, n_scalar, n_lockstep",
        [
            ([575, 575], 2, 0),  # the act fit: two long streams
            ([5] * 100, 0, 100),  # equal lengths, as with threshold_negative_ratio = full
            ([500] + [3] * 100, 1, 100),  # one very long stream among short ones
            ([0, 2, 0] + [2] * 70, 0, 71),  # unobserved cutoffs
        ],
    )
    @pytest.mark.parametrize("adam", [{}, {"alpha": 0.05, "beta1": 0.5, "beta2": 0.9}])
    def test_each_split_matches_the_scalar_loop(self, lengths, n_scalar, n_lockstep, adam):
        for extreme, single_label in [(False, None), (True, None), (False, 1.0)]:
            groups = streams_to_groups(lengths, np.random.default_rng(len(lengths)), extreme, single_label)
            scalar, lockstep = assert_matches_scalar_oracle(*groups, len(lengths), 4, **adam)
            assert (scalar.size, lockstep.size) == (n_scalar, n_lockstep)

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_few_epochs(self, epochs):
        groups = streams_to_groups([300] + [1] * 90, np.random.default_rng(3))
        assert_matches_scalar_oracle(*groups, 91, epochs)


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.999, 0.99999])
def test_bias_corrections_equal_the_powers(beta):
    """The table stops computing powers once 1 - beta**t rounds to 1.0; it
    equals the full list of powers."""
    n = 60_000
    assert training._bias_corrections(beta, n) == [1.0 - beta**t for t in range(1, n + 1)]
    assert training._bias_corrections(beta, 0) == []


class TestSplitStreams:
    """The cost rule, as a function of stream lengths alone."""

    def test_rule(self):
        cost = training.LOCKSTEP_STEP_COST
        # more than cost equal streams go lockstep, fewer stay scalar
        assert training.split_streams(np.full(cost + 1, 7))[1].size == cost + 1
        assert training.split_streams(np.full(cost - 1, 7))[0].size == cost - 1
        scalar, lockstep = training.split_streams(np.array([0, 3, 900, 0, 3, 2] + [3] * 200))
        assert scalar.tolist() == [2] and lockstep[:3].tolist() == [1, 4, 6]
        assert 5 not in scalar and 0 not in lockstep and 3 not in lockstep
        assert [a.size for a in training.split_streams(np.zeros(4, dtype=np.int64))] == [0, 0]

    @pytest.mark.parametrize("n_pairs", [575, 3972, 15996])
    def test_act_shape_is_all_scalar(self, n_pairs):
        """Two activities, each observed on every keen pair."""
        scalar, lockstep = training.split_streams(np.array([n_pairs, n_pairs]))
        assert scalar.tolist() == [0, 1] and lockstep.size == 0

    def test_800_user_keen_shape_is_mostly_lockstep(self):
        """The keen streams of an 800-user, 2,000-item corpus at the default ratio."""
        catalog, store = generate_two_stage(800, 2000, 2, seed=0)
        trainer = Trainer(
            store, empty_features(catalog.n_users), empty_features(catalog.n_items), TrainConfig()
        )
        users = np.flatnonzero(np.diff(trainer.keen_space.key_starts)).tolist()
        items = np.concatenate([trainer._threshold_enum_items(u)[0] for u in users])
        scalar, lockstep = training.split_streams(np.bincount(items, minlength=catalog.n_items))
        assert lockstep.size > 1000 and scalar.size <= 0.01 * lockstep.size

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
    item_feats = empty_features(n_items)
    return store, user_feats, item_feats


def triples_of(store):
    """The store's triples as Python-int tuples, in column order."""
    return list(zip(*(c.tolist() for c in store.columns)))


def pairs_of(store):
    """The store's distinct (u, v) pairs as Python-int tuples, in column order."""
    return list(zip(*(c.tolist() for c in store.pair_columns)))


def positive_items(store):
    """Each catalog user's positive items; empty for a user without triples."""
    out = {u: set() for u in range(store.catalog.n_users)}
    for u, v in pairs_of(store):
        out[u].add(v)
    return out


def positive_activities(store):
    """Each (u, v) pair's positive activities."""
    out = {}
    for u, v, z in triples_of(store):
        out.setdefault((u, v), set()).add(z)
    return out


def one(i):
    """A batch of the single example ``i``."""
    return np.array([i])


def step_rows(trainer, stage, rows):
    """Draw the negatives of examples ``rows`` of ``stage``, then take one batched step over them."""
    block = draw_block(trainer.rng, getattr(trainer, f"{stage}_space"), np.asarray(rows), trainer.config.max_neg_samples)
    return getattr(trainer, f"warp_step_{stage}")(block)


class TestWarpSteps:
    def test_keen_skips_user_with_no_negatives(self, caplog):
        """A user positive on every training item cannot produce a violation; one warning per user, per run."""
        catalog = Catalog(["a"], ["x", "y"], ["fork"])
        store = InteractionStore(catalog, [(0, 0, 0), (0, 1, 0)])
        config = TrainConfig(seed=0, epochs=3, threshold_epochs=1)
        with caplog.at_level(logging.WARNING, logger="keenact.training"):
            trainer = Trainer(store, empty_features(1), empty_features(2), config)
            w_before = trainer.keen.w.copy()
            result = step_rows(trainer, "keen", np.arange(2))
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
            store, empty_features(2), empty_features(2), TrainConfig(seed=0)
        )
        assert step_rows(trainer, "act", one(0)).skipped == 1
        # the third triple's pair has a negative; the batch skips only the first two
        result = step_rows(trainer, "act", np.arange(3))
        assert result.skipped == 2
        assert result.draws == 1

    def test_no_violation_leaves_parameters_unchanged(self):
        store, uf, itf = small_store(seed=3)
        trainer = Trainer(store, uf, itf, TrainConfig(seed=0))
        u, v = pairs_of(store)[0]
        # make the positive unbeatable so no sampled negative violates
        trainer.keen.w[trainer.keen_layout.item_id_offset + v] = 100.0
        w_before = trainer.keen.w.copy()
        f_before = trainer.keen.factors.copy()
        result = step_rows(trainer, "keen", one(0))
        assert not result.updated
        assert result.draws == min(
            TrainConfig().max_neg_samples,
            len(trainer.item_universe) - len(positive_items(store)[u]),
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
        updates = sum(step_rows(trainer, "keen", one(i)).updated for i in range(store.n_pairs))
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


def reference_negatives(rng, universe, positive_sets, cap):
    """One epoch's WARP draws written out row by row, over each row's
    negatives in universe order; ``positive_sets`` holds each row's
    context's positives, in epoch order.

    Rows with negatives but at most 2 * cap of them are dense.  They share
    one rng.random block with a row per dense row, as wide as the most
    negatives; each keeps the first cap of its negatives sorted by its
    first total keys.  The other rows are sparse and go in rounds: one
    rng.integers block of 2 * cap ranks per row, drawn with replacement,
    then one rng.random block of keys; each row sorts its ranks, drops
    repeats and keeps the cap distinct ranks of smallest key in key
    order, and a row left with fewer than cap goes to the next round.
    Returns each row's negatives as a list."""
    negatives = [[int(c) for c in universe if c not in positives] for positives in positive_sets]
    totals = [len(n) for n in negatives]
    drawn = [[] for _ in negatives]
    dense = [r for r, t in enumerate(totals) if 0 < t <= 2 * cap]
    if dense:
        keys = rng.random((len(dense), max(totals[r] for r in dense))).tolist()
        for r, row_keys in zip(dense, keys):
            by_key = sorted(range(totals[r]), key=row_keys.__getitem__)
            drawn[r] = [negatives[r][i] for i in by_key[:cap]]
    todo = [r for r, t in enumerate(totals) if t > 2 * cap]
    while todo:
        ranks = rng.integers(0, np.array([[totals[r]] for r in todo]), size=(len(todo), 2 * cap)).tolist()
        keys = rng.random((len(todo), 2 * cap)).tolist()
        short = []
        for r, row_ranks, row_keys in zip(todo, ranks, keys):
            row_ranks = sorted(row_ranks)
            distinct = [(key, x) for i, (key, x) in enumerate(zip(row_keys, row_ranks)) if i == 0 or x != row_ranks[i - 1]]
            if len(distinct) < cap:
                short.append(r)
            else:
                drawn[r] = [negatives[r][x] for _, x in sorted(distinct)[:cap]]
        todo = short
    return drawn


def reference_warp_step(config, params, state, lam, universe, positives, assemble, positive, negatives):
    """WARP on assembled inputs with fm_score, fm_gradient and combine_gradients,
    walking the row's drawn ``negatives`` in order."""
    total_neg = len(universe) - len(positives)
    if total_neg <= 0:
        return False, 0
    x_pos = assemble(positive)
    draws = 0
    for c in negatives:
        draws += 1
        x_neg = assemble(c)
        if fm_score(params, x_pos) < config.margin + fm_score(params, x_neg):
            weight = phi(estimate_rank(total_neg, draws))
            grad = combine_gradients([fm_gradient(params, x_pos, -weight), fm_gradient(params, x_neg, weight)])
            grad.rows = grad.rows + lam * params.table[grad.indices]
            adam_update(params, state, grad)
            return True, draws
    return False, draws


def run_checked_epoch(space, cap, step, params, rng, batch_size, order, check):
    """One run_phase epoch of ``step`` over ``space``, where ``order`` is the
    caller's copy of the epoch's permutation.  Each batch's block must hold
    the next ``batch_size`` examples of ``order``; after its step,
    ``check(start, rows, got)`` gets the batch's offset in the epoch, its
    example indices and the step's result."""
    starts = iter(range(0, order.size, batch_size))

    def checked(batch):
        start = next(starts)
        rows = order[start : start + batch_size]
        np.testing.assert_array_equal(batch.contexts, space.positive_contexts[rows])
        np.testing.assert_array_equal(batch.candidates[:, 0], space.positive_ids[rows])
        got = step(batch)
        check(start, rows, got)
        return got

    run_phase(0, "checked", space, cap, checked, params, rng, [], batch_size)
    assert next(starts, None) is None


class TestStepMatchesReference:
    def test_one_epoch_of_each_stage(self):
        """Same seed: same draws and updates per step, parameters within 1e-9."""
        catalog, store = generate_two_stage(12, 30, 3, seed=4, items_per_user=(3, 8))
        uf = l2_normalize_rows(co_participation_features(store))
        rows = np.random.default_rng(9).random((catalog.n_items, 5))
        itf = FeatureMatrix(CSR.from_dense(rows * (rows < 0.6)))
        config = TrainConfig(seed=6, k=4)
        new, ref = Trainer(store, uf, itf, config), Trainer(store, uf, itf, config)
        updates = 0
        pos_items, pos_acts = positive_items(store), positive_activities(store)
        for examples, stage, lam in [(pairs_of(store), "keen", config.lambda_keen), (triples_of(store), "act", config.lambda_act)]:
            if stage == "keen":
                universe = ref.item_universe
                positive_sets = [pos_items[u] for u, _ in examples]
            else:
                universe = ref.activity_universe
                positive_sets = [pos_acts[u, v] for u, v, _ in examples]
            order = ref.rng.permutation(len(examples))
            negatives = reference_negatives(ref.rng, universe, [positive_sets[i] for i in order], config.max_neg_samples)

            def check(start, rows, got):
                nonlocal updates
                u, v = examples[rows[0]][:2]
                if stage == "keen":
                    positive = v
                    assemble = lambda c: assemble_keen_input(u, c, ref.keen_layout, uf, itf)
                else:
                    positive = examples[rows[0]][2]
                    assemble = lambda c: assemble_act_input(u, v, c, ref.act_layout, uf, itf)
                want = reference_warp_step(
                    config, getattr(ref, stage), getattr(ref, f"{stage}_state"), lam,
                    universe, positive_sets[rows[0]], assemble, positive, negatives[start],
                )
                assert (got.updated, got.draws) == want
                updates += int(got.updated)
                assert_params_close(getattr(new, stage), getattr(ref, stage))

            space, step = getattr(new, f"{stage}_space"), getattr(new, f"warp_step_{stage}")
            run_checked_epoch(space, config.max_neg_samples, step, getattr(new, stage), new.rng, 1, order, check)
        assert updates > 0


def reference_sparse_warp_step(config, params, state, lam, universe, positives, assemble, positive, negatives):
    """WARP for 2 * cap < total negatives, written out: a walk over fm_score on
    assembled inputs, along the row's drawn negatives."""
    total_neg = len(universe) - len(positives)
    cap = min(config.max_neg_samples, total_neg)
    assert 2 * cap < total_neg
    return reference_warp_step(config, params, state, lam, universe, positives, assemble, positive, negatives)


def assert_params_close(a, b):
    np.testing.assert_allclose(a.w0, b.w0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(a.w, b.w, rtol=0, atol=1e-9)
    np.testing.assert_allclose(a.factors, b.factors, rtol=0, atol=1e-9)


def sparse_corpus():
    """60 items, at most 8 positives per user: more than 2 * cap negatives everywhere."""
    catalog, store = generate_two_stage(30, 60, 3, seed=8, items_per_user=(3, 8))
    uf = l2_normalize_rows(co_participation_features(store))
    rows = np.random.default_rng(3).random((catalog.n_items, 4))
    itf = FeatureMatrix(CSR.from_dense(rows * (rows < 0.5)))
    return catalog, store, uf, itf


class TestSparseStepMatchesReference:
    def test_keen_epochs(self):
        """Same seed: same draws and updates per keen step, parameters within 1e-9."""
        _, store, uf, itf = sparse_corpus()
        config = TrainConfig(seed=2, k=4, lr=0.05)
        new, ref = Trainer(store, uf, itf, config), Trainer(store, uf, itf, config)
        outcomes = set()
        pairs, pos_items = pairs_of(store), positive_items(store)
        for _ in range(3):
            order = ref.rng.permutation(store.n_pairs)
            positive_sets = [pos_items[pairs[i][0]] for i in order]
            negatives = reference_negatives(ref.rng, ref.item_universe, positive_sets, config.max_neg_samples)

            def check(start, rows, got):
                u, v = pairs[rows[0]]
                want = reference_sparse_warp_step(
                    config, ref.keen, ref.keen_state, config.lambda_keen, ref.item_universe, positive_sets[start],
                    lambda c: assemble_keen_input(u, c, ref.keen_layout, uf, itf), v, negatives[start],
                )
                assert (got.updated, got.draws) == want
                outcomes.add((got.updated, got.draws > 1))
                assert_params_close(new.keen, ref.keen)

            run_checked_epoch(new.keen_space, config.max_neg_samples, new.warp_step_keen, new.keen, new.rng, 1, order, check)
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
        universe = [v * n_acts + z for v in np.unique(store.columns[1]).tolist() for z in range(n_acts)]
        triples = triples_of(store)
        flat = {}
        for u, v, z in triples:
            flat.setdefault(u, set()).add(v * n_acts + z)
        order = ref_rng.permutation(store.n_triples)
        negatives = reference_negatives(ref_rng, universe, [flat[triples[i][0]] for i in order], config.max_neg_samples)
        updates = 0

        def check(start, rows, got):
            nonlocal updates
            u, v, z = triples[rows[0]]
            want = reference_sparse_warp_step(
                config, ref_params, ref_state, config.lambda_keen, universe, flat[u],
                lambda f: assemble_act_input(u, f // n_acts, f % n_acts, layout, uf, itf), v * n_acts + z, negatives[start],
            )
            assert (got.updated, got.draws) == want
            updates += int(got.updated)
            assert_params_close(params, ref_params)

        step = lambda batch: batch_step(params, state, config.lambda_keen, space, batch, config)
        run_checked_epoch(space, config.max_neg_samples, step, params, rng, 1, order, check)
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


def pairwise_step(params, state, lam, space, context, positive, negatives, config, bpr=False, update=adam_update):
    """The per-example sampled update that one-row batches must reproduce,
    over the row's drawn ``negatives`` (universe ids, in draw order).

    The context is scored with part_stats on its unpadded part and the
    candidates with one table_stats gather; the gradient is the combined
    fm_gradient of the assembled pair plus the decay on its rows, passed
    to ``update`` (one Adam step).  Returns (updated, draws, loss).
    """
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


def epoch_negatives(rng, space, order, cap):
    """Each row's drawn negatives (universe ids) for an epoch in ``order``,
    from one sample_negatives call over the epoch's contexts."""
    at, counts, _ = sample_negatives(rng, space, space.positive_contexts[order], cap)
    return [space.universe[row[:n]] for row, n in zip(at, counts.tolist())]


def assert_params_within(a, b, atol):
    np.testing.assert_allclose(a.table, b.table, rtol=0, atol=atol)
    assert a.w0 == b.w0


class FlatStage:
    """The flat baseline's parameters, optimizer and space, as train_baseline builds them."""

    def __init__(self, store, uf, itf, config):
        layout = FeatureLayout.for_act(store.catalog, uf, itf)
        self.config = config
        self.params = init_params(layout.dim, config.k, seed=config.seed + 3)
        self.state = AdamState.for_params(self.params, **config.adam_kwargs())
        self.rng = np.random.Generator(np.random.PCG64(config.seed))
        self.space = flat_candidate_space(store, layout, uf, itf, trained_item_mask(store))


def stage_views(t, stage):
    """(params, state, lam, space, cap, batched step) of one stage of a Trainer or FlatStage."""
    cfg = t.config
    if stage in ("keen", "act"):
        lam = cfg.lambda_keen if stage == "keen" else cfg.lambda_act
        params, state, space = getattr(t, stage), getattr(t, f"{stage}_state"), getattr(t, f"{stage}_space")
        return params, state, lam, space, cfg.max_neg_samples, getattr(t, f"warp_step_{stage}")
    bpr = stage == "fm_bpr"

    def step(batch):
        return batch_step(t.params, t.state, cfg.lambda_keen, t.space, batch, cfg, bpr=bpr)

    return t.params, t.state, cfg.lambda_keen, t.space, 1 if bpr else cfg.max_neg_samples, step


def make_stage(store, uf, itf, config, stage):
    if stage in ("keen", "act"):
        return Trainer(store, uf, itf, config)
    return FlatStage(store, uf, itf, config)


class TestBatchOfOneMatchesPairwiseStep:
    @pytest.mark.parametrize("stage", ["keen", "act", "fm_bpr", "fm_warp"])
    def test_two_epochs(self, stage):
        """batch_size 1: the same (updated, draws) per row as pairwise_step, parameters within 1e-12."""
        catalog, store = generate_two_stage(14, 30, 3, seed=2, items_per_user=(3, 9))
        uf = l2_normalize_rows(co_participation_features(store))
        rows = np.random.default_rng(4).random((catalog.n_items, 5))
        itf = FeatureMatrix(CSR.from_dense(rows * (rows < 0.6)))
        config = TrainConfig(seed=3, k=4, batch_size=1)
        new, ref = make_stage(store, uf, itf, config, stage), make_stage(store, uf, itf, config, stage)
        params, *_, step = stage_views(new, stage)
        ref_params, ref_state, lam, space, cap, _ = stage_views(ref, stage)
        outcomes = set()
        for _ in range(2):
            order = ref.rng.permutation(space.positive_ids.size)
            negatives = epoch_negatives(ref.rng, space, order, cap)

            def check(start, rows, got):
                i = rows[0]
                want = pairwise_step(
                    ref_params, ref_state, lam, space, int(space.positive_contexts[i]), int(space.positive_ids[i]),
                    negatives[start], config, bpr=stage == "fm_bpr",
                )
                assert (bool(got.updated), got.draws) == want[:2]
                np.testing.assert_allclose(got.loss, want[2], rtol=1e-12, atol=0)
                outcomes.add(bool(got.updated))

            run_checked_epoch(space, cap, step, params, new.rng, 1, order, check)
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
                params, state, lam, space, cap, _ = stage_views(ref, stage)
                n = space.positive_ids.size
                order = ref.rng.permutation(n)
                totals = [0.0, 0, 0]
                for i, negatives in zip(order, epoch_negatives(ref.rng, space, order, cap)):
                    updated, draws, loss = pairwise_step(
                        params, state, lam, space, int(space.positive_contexts[i]), int(space.positive_ids[i]), negatives, config,
                    )
                    totals = [totals[0] + loss, totals[1] + draws, totals[2] + int(updated)]
                want += [(epoch, phase, "warp_loss", totals[0] / n), (epoch, phase, "mean_draws", totals[1] / n),
                         (epoch, phase, "violation_rate", totals[2] / n)]
        assert [row[:3] for row in trainer.report] == [row[:3] for row in want]
        for got, expected in zip(trainer.report, want):
            if got[2] == "warp_loss":
                assert got[3] == pytest.approx(expected[3], rel=1e-12, abs=0)
            else:
                assert got[3] == expected[3]


def frozen_batch_reference(params, state, lam, space, contexts, positives, negatives, config, bpr=False):
    """One batch written out: every row's pairwise_step on its own, over its
    drawn ``negatives`` from the epoch block, against a frozen copy of the
    parameters; each row's gradient (with its decay) is kept, and their sum
    applied as one Adam step.  Returns (updated, draws, skipped) per row."""
    frozen = params.copy()
    grads, outcomes = [], []
    for c, p, row_negatives in zip(contexts.tolist(), positives.tolist(), negatives):
        skipped = space.universe.size == np.count_nonzero(space.positive_contexts == c)
        updated, draws, _ = pairwise_step(
            frozen, state, lam, space, c, p, row_negatives, config, bpr=bpr,
            update=lambda _p, _s, grad: grads.append(grad),
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
        return store, l2_normalize_rows(co_participation_features(store)), empty_features(10)

    @pytest.mark.parametrize("stage", ["keen", "act", "fm_bpr", "fm_warp"])
    @pytest.mark.parametrize("batch_size", [7, 1000])
    def test_epochs_of_batches(self, stage, batch_size):
        """Summed outcomes per batch and parameters within 1e-12 over 3 epochs,
        including a last partial batch (n % 7 != 0) and a batch larger than the epoch."""
        store, uf, itf = self.edge_store()
        config = TrainConfig(seed=4, k=3, batch_size=batch_size, max_neg_samples=20)
        new, ref = make_stage(store, uf, itf, config, stage), make_stage(store, uf, itf, config, stage)
        params, *_, step = stage_views(new, stage)
        ref_params, ref_state, lam, space, cap, _ = stage_views(ref, stage)
        n = space.positive_ids.size
        assert n % 7 != 0 and n < 1000
        seen = {"skipped": 0, "partial": 0, "updated": 0}
        for _ in range(3):
            order = ref.rng.permutation(n)
            negatives = epoch_negatives(ref.rng, space, order, cap)

            def check(start, rows, got):
                want = frozen_batch_reference(
                    ref_params, ref_state, lam, space, space.positive_contexts[rows], space.positive_ids[rows],
                    negatives[start : start + rows.size], config, bpr=stage == "fm_bpr",
                )
                assert got.updated == sum(u for u, _, _ in want)
                assert got.draws == sum(d for _, d, _ in want)
                assert got.skipped == sum(s for _, _, s in want)
                assert_params_within(params, ref_params, 1e-12)
                seen["skipped"] += got.skipped
                seen["partial"] += rows.size < batch_size
                seen["updated"] += got.updated

            run_checked_epoch(space, cap, step, params, new.rng, batch_size, order, check)
        assert seen["partial"] == 3 and seen["updated"] > 0
        assert (seen["skipped"] > 0) == (stage in ("keen", "act"))


class TestRunPhase:
    @pytest.mark.parametrize("n, batch_size, sizes", [(11, 4, [4, 4, 3]), (5, 16, [5]), (3, 1, [1, 1, 1])])
    def test_batches_cover_the_seeded_order(self, n, batch_size, sizes):
        """The batches cut the seeded order, last partial batch included, and view one block drawn for the epoch."""
        space = sampling_space(12, [set(range(c, n, 4)) for c in range(4)])
        assert space.positive_ids.size == n
        rng = np.random.Generator(np.random.PCG64(0))
        want_rng = np.random.Generator(np.random.PCG64(0))
        order = want_rng.permutation(n)
        want = draw_block(want_rng, space, order, 3)
        batches = []

        def step(batch):
            batches.append(batch)
            return training.StepResult(updated=batch.contexts.size - 1, draws=2 * batch.contexts.size, loss=float(batch.contexts.size))

        report = []
        run_phase(0, "keen_rank", space, 3, step, init_params(2, 1, seed=0), rng, report, batch_size)
        assert [b.contexts.size for b in batches] == sizes
        for name in ("contexts", "candidates", "drawn", "counts", "total_neg"):
            parts = [getattr(b, name) for b in batches]
            np.testing.assert_array_equal(np.concatenate(parts), getattr(want, name))
            assert all(p.base is not None and p.base is parts[0].base for p in parts)
        np.testing.assert_array_equal(want.contexts, space.positive_contexts[order])
        # report rows are means per example, not per batch
        assert report == [
            (0, "keen_rank", "warp_loss", 1.0),
            (0, "keen_rank", "mean_draws", 2.0),
            (0, "keen_rank", "violation_rate", (n - len(sizes)) / n),
        ]

    def test_an_epoch_with_every_row_skipped(self):
        """No example has a negative: a zero-width block, no update and zero report rows."""
        catalog = Catalog(["a"], ["x", "y", "w"], ["fork"])
        store = InteractionStore(catalog, [(0, 0, 0), (0, 1, 0), (0, 2, 0)])
        trainer = Trainer(store, empty_features(1), empty_features(3), TrainConfig(seed=0, batch_size=2))
        before = trainer.keen.table.copy()
        blocks, report = [], []

        def step(batch):
            blocks.append(batch)
            return trainer.warp_step_keen(batch)

        run_phase(0, "keen_rank", trainer.keen_space, 20, step, trainer.keen, trainer.rng, report, 2)
        assert [b.candidates.shape for b in blocks] == [(2, 1), (1, 1)]
        assert all(b.counts.sum() == 0 for b in blocks)
        assert [value for *_, value in report] == [0.0, 0.0, 0.0]
        np.testing.assert_array_equal(trainer.keen.table, before)
        assert trainer.keen_state.t == 0


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
        uf, itf = empty_features(catalog.n_users), empty_features(catalog.n_items)
        trainer = Trainer(store, uf, itf, TrainConfig(k=2))
        items = np.unique(store.columns[1]).tolist()
        flat_ids = [v * catalog.n_activities + z for v in items for z in range(catalog.n_activities)]
        layout = FeatureLayout.for_act(catalog, uf, itf)
        flat_space = flat_candidate_space(store, layout, uf, itf, trained_item_mask(store))
        pos_items, pos_acts = positive_items(store), positive_activities(store)
        flat_positives = {u: set() for u in range(catalog.n_users)}
        for u, v, z in triples_of(store):
            flat_positives[u].add(v * catalog.n_activities + z)
        cases = [
            (trainer.keen_space, items, [pos_items[u] for u in range(catalog.n_users)]),
            (trainer.act_space, list(range(catalog.n_activities)), [pos_acts[p] for p in pairs_of(store)]),
            (flat_space, flat_ids, [flat_positives[u] for u in range(catalog.n_users)]),
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
        """A batch scores its contexts with one table_stats call and its candidates
        with one more; it draws nothing and calls no part_stats."""
        _, store, uf, itf = sparse_corpus()
        trainer = Trainer(store, uf, itf, TrainConfig(seed=3, k=4))
        blocks = {stage: draw_block(trainer.rng, getattr(trainer, f"{stage}_space"), np.arange(60), 20) for stage in ("keen", "act")}
        calls = {"table_stats": 0, "part_stats": 0, "sample_negatives": 0}
        for name in calls:
            original = getattr(training, name)
            monkeypatch.setattr(training, name, lambda *a, _f=original, _n=name: calls.__setitem__(_n, calls[_n] + 1) or _f(*a))
        batches = 0
        for start in range(0, 60, 16):
            for stage in ("keen", "act"):
                before = calls["table_stats"]
                batch = blocks[stage][start : start + 16]
                result = getattr(trainer, f"warp_step_{stage}")(batch)
                assert calls["table_stats"] - before == (0 if result.skipped == batch.contexts.size else 2)
                batches += result.skipped < batch.contexts.size
        assert batches == 8
        assert calls["part_stats"] == calls["sample_negatives"] == 0


def record_draws(monkeypatch):
    """Wrap training.sample_negatives; record each call's contexts, cap and returned block."""
    calls = []
    original = training.sample_negatives

    def recorded(rng, space, contexts, cap):
        out = original(rng, space, contexts, cap)
        calls.append((contexts.copy(), cap, *(a.copy() for a in out)))
        return out

    monkeypatch.setattr(training, "sample_negatives", recorded)
    return calls


class TestEpochDraws:
    """Phase 1 draws each stage's negatives once per epoch, whatever the batch size."""

    @pytest.mark.parametrize("kind", [None, "bpr", "warp"], ids=["keen2act", "fm_bpr", "fm_warp"])
    def test_one_draw_per_stage_and_epoch(self, monkeypatch, kind):
        store, uf, itf = small_store(seed=17, n_items=14, density=60)
        config = TrainConfig(seed=5, epochs=3, batch_size=4)
        calls = record_draws(monkeypatch)
        if kind is None:
            train(store, uf, itf, config)
            assert [c[0].size for c in calls] == [store.n_pairs, store.n_triples] * config.epochs
        else:
            train_baseline(store, uf, itf, config, kind)
            assert [c[0].size for c in calls] == [store.n_triples] * config.epochs
            assert {c[1] for c in calls} == {1 if kind == "bpr" else config.max_neg_samples}

    def test_draws_do_not_depend_on_the_batch_size(self, monkeypatch):
        """batch_size 1, 7 and 16: the same sampler calls (contexts, blocks) in every epoch
        of train and both baselines, and the same items phase 2 samples."""
        store, uf, itf = small_store(seed=19, n_items=30, density=120)
        calls, enumerated = record_draws(monkeypatch), []
        enum_items = Trainer._threshold_enum_items
        monkeypatch.setattr(Trainer, "_threshold_enum_items", lambda self, u: enumerated.append(enum_items(self, u)) or enumerated[-1])
        runs = []
        for batch_size in (1, 7, 16):
            config = TrainConfig(seed=6, epochs=2, batch_size=batch_size, threshold_negative_ratio=1.0)
            train(store, uf, itf, config)
            for kind in ("bpr", "warp"):
                train_baseline(store, uf, itf, config, kind)
            runs.append((calls[:], enumerated[:]))
            calls.clear()
            enumerated.clear()
        (calls, enumerated), others = runs[0], runs[1:]
        assert len(calls) == 2 * 2 + 2 + 2
        # the positives sampled for phase 2 outnumber its negatives, so it draws
        assert any(labels.sum() < labels.size for _, labels in enumerated)
        for other_calls, other_enumerated in others:
            assert len(other_calls) == len(calls)
            for got, want in zip(other_calls, calls):
                assert got[1] == want[1]
                for a, b in zip(got[:1] + got[2:], want[:1] + want[2:]):
                    np.testing.assert_array_equal(a, b)
            assert len(other_enumerated) == len(enumerated)
            for (items, labels), (want_items, want_labels) in zip(other_enumerated, enumerated):
                np.testing.assert_array_equal(items, want_items)
                np.testing.assert_array_equal(labels, want_labels)


def list_threshold_groups(trainer, rng):
    """Keen and act threshold groups built with Python lists, as a written-out reference."""
    store, universe = trainer.store, trainer.item_universe
    ratio = trainer.config.threshold_negative_ratio
    keen = []
    pos_items, pos_acts = positive_items(store), positive_activities(store)
    for u in store.user_rows():
        pos_set = pos_items[u]
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
        np.array([1.0 if z in pos_acts[u, v] else 0.0 for z in trainer.activity_universe])
        for u, v in pairs_of(store)
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
        for u, (items, labels) in zip(store.user_rows(), keen):
            got_items, got_labels = probe._threshold_enum_items(u)
            np.testing.assert_array_equal(got_items, items)
            np.testing.assert_array_equal(got_labels, labels)
        keen_scorer, act_scorer = (
            Scorer(m, layout, uf, itf)
            for m, layout in ((trainer.keen, trainer.keen_layout), (trainer.act, trainer.act_layout))
        )
        users = list(store.user_rows())
        want_keen, _ = fit_thresholds(
            [keen_scorer.score_items(u)[items] for u, (items, _) in zip(users, keen)],
            [labels for _, labels in keen], [items for items, _ in keen],
            store.catalog.n_items, config.threshold_epochs, **config.adam_kwargs(),
        )
        # each user's pairs cut from one whole-catalog score_pair_matrix call, as phase 2 does
        user_items = {u: [v for w, v in pairs_of(store) if w == u] for u in users}
        act_scores = [row for u in users for row in act_scorer.score_pair_matrix(u)[user_items[u]]]
        want_act, _ = fit_thresholds(
            act_scores, act,
            [trainer.activity_universe] * len(act), store.catalog.n_activities,
            config.threshold_epochs, **config.adam_kwargs(),
        )
        table = trainer.run_threshold_learning()
        np.testing.assert_array_equal(table.item_thresholds, want_keen)
        np.testing.assert_array_equal(table.activity_thresholds, want_act)
        # a finite ratio samples the negatives of at least one user
        assert (ratio == "full") != any(len(items) < len(trainer.item_universe) for items, _ in keen)


class TestFitScoresAreServingScores:
    def test_cutoffs_are_fitted_on_whole_catalog_scores(self, monkeypatch):
        """Every score phase 2 fits a cutoff on is, to the last bit, the score that
        serving compares with that cutoff: the same entry of ``score_items(u)`` or
        ``score_pair_matrix(u)``.  A product over a subset of rows can round
        differently; on this corpus some keen and act scores would."""
        catalog, store = generate_two_stage(30, 250, 2, seed=1, items_per_user=(20, 20))
        train_store = split_per_user(store, fraction=0.8, seed=1).train
        uf = l2_normalize_rows(co_participation_features(train_store))
        itf = empty_features(catalog.n_items)
        trainer = Trainer(train_store, uf, itf, TrainConfig(epochs=2))
        trainer.run_rank_learning()
        fed = []
        fit = training.fit_thresholds
        monkeypatch.setattr(training, "fit_thresholds", lambda *args, **kw: fed.append(args[:3]) or fit(*args, **kw))
        trainer.run_threshold_learning()
        (keen_scores, _, keen_items), (act_scores, _, act_items) = fed
        keen_scorer, act_scorer = trainer.scorers
        pair_users, pair_items = train_store.pair_columns
        users = np.unique(pair_users)
        assert len(keen_scores) == users.size and len(act_scores) == pair_users.size

        def bits(scores):
            return np.ascontiguousarray(scores, dtype=np.float64).view(np.uint64)

        for u, scores, items in zip(users, keen_scores, keen_items):
            np.testing.assert_array_equal(bits(scores), bits(keen_scorer.score_items(u)[items]))
        for u, v, scores, activities in zip(pair_users, pair_items, act_scores, act_items):
            np.testing.assert_array_equal(bits(scores), bits(act_scorer.score_pair_matrix(u)[v, activities]))


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
        want[store.columns[1]] = True
        assert not want.all()  # some items are cold
        fitted = np.zeros_like(want)
        fitted[np.concatenate([items for items, _ in enumerated])] = True
        np.testing.assert_array_equal(model.thresholds.item_trained, want)
        np.testing.assert_array_equal(fitted, want)
        assert model.seen_items == frozenset(store.columns[1].tolist())
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
        uf = empty_features(2)
        itf = empty_features(3)
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
        itf = empty_features(catalog.n_items)
        model = train(store, uf, itf, TrainConfig(seed=1, epochs=30))
        keen_scorer, _ = model.scorers()
        scores, labels = [], []
        pos_items = positive_items(store)
        for u in range(catalog.n_users):
            pos = pos_items[u]
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
    pos_items = positive_items(store)
    for u in store.user_rows():
        positives = pos_items[u]
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
        itf = empty_features(catalog.n_items)
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
