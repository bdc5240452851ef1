"""Acceptance gate: one numbered check per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per check.  The two-stage comparison (check 6) trains twenty models and
takes a few minutes; everything else finishes in seconds.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from keenact.cli import main
from keenact.data import Catalog
from keenact.evaluation import average_precision_at_k, run_experiment
from keenact.features import FeatureLayout, SparseVector, empty_features
from keenact.fm import FMParameters, fm_gradient, fm_score, init_params
from keenact.recommend import decide, recommend
from keenact.synth import generate_two_stage
from keenact.training import (
    ThresholdTable,
    TrainConfig,
    TrainedModel,
    cross_entropy,
    cross_entropy_grad_threshold,
    estimate_rank,
    fit_thresholds,
)

ROOT = Path(__file__).resolve().parent.parent


def random_params(rng, dim, k):
    params = init_params(dim, k, seed=int(rng.integers(1 << 30)), scale=0.5)
    params.w0 = float(rng.normal())
    params.w[:] = rng.normal(size=dim)
    params.factors[:] = rng.normal(size=(dim, k))
    return params


def random_input(rng, dim, max_nnz=None):
    nnz = int(rng.integers(0, (max_nnz or dim) + 1))
    idx = np.sort(rng.choice(dim, size=nnz, replace=False)).astype(np.int64)
    val = rng.normal(size=nnz)
    val[val == 0.0] = 1.0
    return SparseVector(idx, val, dim)


def test_01_score_matches_quadratic_oracle():
    """Factored score equals the literal pairwise double sum."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 30))
        k = int(rng.integers(1, 8))
        params = random_params(rng, dim, k)
        x = random_input(rng, dim)
        dense = np.zeros(dim)
        for i, v in x.to_entries():
            dense[i] = v
        expected = params.w0 + float(params.w @ dense)
        for i in range(dim):
            for j in range(i + 1, dim):
                expected += float(params.factors[i] @ params.factors[j]) * dense[i] * dense[j]
        worst = max(worst, abs(fm_score(params, x) - expected))
    elapsed = time.perf_counter() - started
    assert worst < 1e-9
    assert elapsed < 5.0
    print(f"check 1 PASS: 1000 scores within {worst:.2e} of the quadratic oracle in {elapsed:.2f}s")


def test_02_gradients_match_central_differences():
    """Score and both threshold gradients agree with finite differences."""
    rng = np.random.default_rng(102)
    h = 1e-5

    def rel_err(analytic, numeric):
        if abs(analytic) < 1e-7 and abs(numeric) < 1e-7:
            return 0.0
        return abs(analytic - numeric) / max(abs(analytic), abs(numeric))

    worst_fm = 0.0
    for _ in range(120):
        dim = int(rng.integers(2, 12))
        k = int(rng.integers(1, 5))
        params = random_params(rng, dim, k)
        x = random_input(rng, dim)
        upstream = float(rng.normal())
        if upstream == 0.0:
            upstream = 1.0
        grad = fm_gradient(params, x, upstream)

        def probe(mutate):
            trial = params.copy()
            mutate(trial, +h)
            up = fm_score(trial, x)
            trial = params.copy()
            mutate(trial, -h)
            down = fm_score(trial, x)
            return upstream * (up - down) / (2 * h)

        worst_fm = max(worst_fm, rel_err(grad.w0, probe(lambda p, d: setattr(p, "w0", p.w0 + d))))
        for row, i in enumerate(grad.indices):
            def bump_w(p, d, i=i):
                p.w[i] += d
            worst_fm = max(worst_fm, rel_err(grad.w[row], probe(bump_w)))
            for f in range(k):
                def bump_v(p, d, i=i, f=f):
                    p.factors[i, f] += d
                worst_fm = max(worst_fm, rel_err(grad.factors[row, f], probe(bump_v)))
    assert worst_fm < 1e-4

    # the same cutoff gradient drives both stages; check it under both
    # groupings: per-item cutoffs and per-activity cutoffs
    worst_thr = 0.0
    for n_coords, group_size in ((12, 6), (3, 9)):
        for _ in range(120):
            scores = rng.normal(size=group_size) * 2
            labels = (rng.random(group_size) < 0.5).astype(np.float64)
            coords = rng.choice(n_coords, size=group_size, replace=False if group_size <= n_coords else True)
            delta = rng.normal(size=n_coords)
            analytic = cross_entropy_grad_threshold(scores, delta[coords], labels)
            for j in range(group_size):
                def loss(d):
                    return float(cross_entropy(scores[j] - d, labels[j]))
                numeric = (loss(delta[coords[j]] + h) - loss(delta[coords[j]] - h)) / (2 * h)
                worst_thr = max(worst_thr, rel_err(float(analytic[j]), numeric))
    assert worst_thr < 1e-4
    print(
        f"check 2 PASS: worst relative error {worst_fm:.2e} (score gradient), "
        f"{worst_thr:.2e} (cutoff gradients) vs central differences"
    )


def test_03_rank_estimator_properties():
    """Floor rule at the reference point, monotone in draws, floor of one."""
    assert estimate_rank(21, 4) == 5
    for total in (1, 2, 3, 7, 21, 50, 200):
        last = None
        for draws in range(1, total + 1):
            r = estimate_rank(total, draws)
            assert r >= 1
            if last is not None:
                assert r <= last
            last = r
    print("check 3 PASS: estimate_rank(21, 4) = 5, non-increasing in draws, always >= 1")


def test_04_average_precision_matches_brute_force():
    """Implementation agrees exactly with a recount-from-scratch oracle."""
    ranked = [9, 4, 8, 1, 2]
    hand = average_precision_at_k(ranked, {9, 8}, k=5)
    assert round(hand, 4) == 0.8333

    def brute(ranked, relevant, k):
        cutoff = len(ranked) if k is None else min(k, len(ranked))
        total = 0.0
        for i in range(cutoff):
            if ranked[i] in relevant:
                prefix = ranked[: i + 1]
                total += sum(1 for c in prefix if c in relevant) / len(prefix)
        return total / (len(relevant) if k is None else min(len(relevant), k))

    rng = np.random.default_rng(104)
    for _ in range(20):
        n = int(rng.integers(1, 25))
        case = list(rng.permutation(n))
        relevant = set(int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        k = None if rng.random() < 0.25 else int(rng.integers(1, n + 4))
        assert average_precision_at_k(case, relevant, k) == brute(case, relevant, k)
    print("check 4 PASS: 20 randomized cases equal the brute-force oracle; hand case 0.8333")


def test_05_threshold_recovery_on_separable_scores():
    """Learned cutoffs split well-separated score bands at >= 0.95 accuracy."""
    rng = np.random.default_rng(105)
    started = time.perf_counter()
    n_coords = 40
    scores_by_group, labels_by_group, coords_by_group = [], [], []
    for _ in range(30):
        size = int(rng.integers(5, 15))
        coords = rng.choice(n_coords, size=size, replace=False)
        labels = (rng.random(size) < 0.5).astype(np.float64)
        scores = np.where(labels == 1.0, rng.uniform(2.0, 4.0, size), rng.uniform(-4.0, -2.0, size))
        scores_by_group.append(scores)
        labels_by_group.append(labels)
        coords_by_group.append(coords)
    delta, trace = fit_thresholds(scores_by_group, labels_by_group, coords_by_group, n_coords, epochs=50)
    correct = total = 0
    for scores, labels, coords in zip(scores_by_group, labels_by_group, coords_by_group):
        predictions = (scores >= delta[coords]).astype(np.float64)
        correct += int(np.sum(predictions == labels))
        total += len(labels)
    accuracy = correct / total
    elapsed = time.perf_counter() - started
    assert accuracy >= 0.95
    assert elapsed < 10.0
    assert trace[-1] < trace[0]
    print(f"check 5 PASS: cutoff accuracy {accuracy:.3f} within 50 epochs in {elapsed:.2f}s")


def test_06_two_stage_beats_single_stage_and_flat_baseline():
    """Mean MAP@10 favors the two-stage list on the built-in corpus."""
    started = time.perf_counter()
    catalog, store = generate_two_stage(200, 500, 2, seed=0)
    report = run_experiment(
        store,
        TrainConfig(),
        n_splits=5,
        variants=("keen2act", "keen", "act", "fm_bpr"),
        ks=(10,),
        dataset="synthetic",
    )
    elapsed = time.perf_counter() - started
    means = {v: report.value(v, "map@10", "mean") for v in ("keen2act", "keen", "act", "fm_bpr")}
    per_seed = {v: report.values(v, "map@10") for v in means}
    assert means["keen2act"] > means["keen"]
    assert means["keen2act"] > means["act"]
    assert means["keen2act"] > means["fm_bpr"]
    for rival in ("keen", "act", "fm_bpr"):
        wins = sum(a > b for a, b in zip(per_seed["keen2act"], per_seed[rival]))
        assert wins >= 4, f"keen2act beat {rival} on only {wins}/5 splits"
    assert elapsed < 600.0
    print(
        "check 6 PASS: mean MAP@10 "
        + ", ".join(f"{v}={means[v]:.4f}" for v in means)
        + f" over 5 splits in {elapsed:.0f}s"
    )


def test_07_listing_equals_the_decision_function():
    """recommend() emits exactly the pairs decide() accepts, enumerated."""
    rng = np.random.default_rng(107)
    for trial in range(50):
        n_users = int(rng.integers(1, 4))
        n_items = int(rng.integers(2, 21))
        n_acts = int(rng.integers(1, 4))
        catalog = Catalog(
            [f"u{i}" for i in range(n_users)],
            [f"i{j}" for j in range(n_items)],
            [f"a{z}" for z in range(n_acts)],
        )
        uf = empty_features(n_users)
        itf = empty_features(n_items)
        keen_layout = FeatureLayout.for_keen(catalog, uf, itf)
        act_layout = FeatureLayout.for_act(catalog, uf, itf)
        k = int(rng.integers(2, 5))
        keen = random_params(rng, keen_layout.dim, k)
        act = random_params(rng, act_layout.dim, k)
        cold = frozenset() if rng.random() < 0.5 else frozenset({int(rng.integers(n_items))})
        model = TrainedModel(
            keen=keen,
            act=act,
            thresholds=ThresholdTable(
                item_thresholds=rng.normal(size=n_items),
                activity_thresholds=rng.normal(size=n_acts),
                global_item_fallback=float(rng.normal()),
                item_trained=np.array([v not in cold for v in range(n_items)]),
            ),
            keen_layout=keen_layout,
            act_layout=act_layout,
            user_feats=uf,
            item_feats=itf,
            seen_items=frozenset(range(n_items)) - cold,
            report=[],
            config=TrainConfig(),
            catalog=catalog,
        )
        keen_scorer, _ = model.scorers()
        # center cutoffs on observed scores so both outcomes occur
        model.thresholds.item_thresholds += float(np.median(keen_scorer.score_items(0)))
        for u in range(n_users):
            listed = recommend(model, u).pairs()
            accepted = {
                (v, z)
                for v in range(n_items)
                for z in range(n_acts)
                if decide(model, u, v, z)
            }
            assert listed == accepted, f"trial {trial} user {u}"
    print("check 7 PASS: list/decision agreement on 50 random models, exhaustive enumeration")


def test_08_training_runs_are_deterministic(tmp_path):
    """Same seed, config, and data give byte-identical artifacts."""
    log = tmp_path / "log.tsv"
    assert main(["synth", "--out", str(log), "--users", "30", "--items", "50",
                 "--n-activities", "2", "--seed", "7", "--items-per-user", "3,8"]) == 0
    config = tmp_path / "train.conf"
    config.write_text("epochs = 4\nk = 8\nthreshold_epochs = 5\nseed = 11\n", encoding="utf-8")
    outs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        assert main(["train", "--log", str(log), "--config", str(config), "--out", str(out_dir)]) == 0
        outs.append(out_dir)
    model_a = (outs[0] / "model.json").read_bytes()
    model_b = (outs[1] / "model.json").read_bytes()
    report_a = (outs[0] / "report.tsv").read_bytes()
    report_b = (outs[1] / "report.tsv").read_bytes()
    assert model_a == model_b
    assert report_a == report_b
    json.loads(model_a.decode("utf-8"))
    print(f"check 8 PASS: identical model ({len(model_a)} bytes) and report ({len(report_a)} bytes)")


def test_09_full_scale_protocol_is_documented():
    """Desk-scale runs replace published numbers; the full protocol is written down."""
    readme = ROOT / "README.md"
    assert readme.exists(), "README.md missing"
    text = readme.read_text(encoding="utf-8")
    assert "Full-scale datasets" in text
    assert "ordering" in text
    assert "absolute" in text
    assert "evaluate --log" in text
    print("check 9 PASS: README documents the full-scale protocol and its ordering-only claim")
