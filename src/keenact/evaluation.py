"""Evaluation harness: MAP@k over ranked (item, activity) pairs.

Every variant is scored on the same task: rank candidate pairs for each
user, compare against the held-out positives, report MAP at several
depths.  Training positives are removed from every candidate list so
variants cannot pad precision with pairs already observed.

Single-model baselines treat each (item, activity) pair as one pseudo
item in a flat space and train one scorer over it with the two-stage
scorers' own batched pairwise step, either with a single-negative
logistic update or with the rank-weighted one.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from keenact.data import InteractionStore, split_per_user
from keenact.features import (
    FeatureLayout,
    FeatureMatrix,
    co_participation_features,
    empty_features,
    join_tables,
    l2_normalize_rows,
    part_tables,
)
from keenact.fm import AdamState, init_params
from keenact.scoring import Scorer
from keenact.training import (
    CandidateSpace,
    NegativeBlock,
    NumericalError,
    TrainConfig,
    TrainedModel,
    batch_step,
    run_phase,
    train,
    trained_item_mask,
)
from keenact.recommend import accepted_pairs, act_stage, keen_stage

# Not called here since the baselines train through batch_step and the
# rankers score through the stage helpers; the traced benchmark
# (perfbench/layers.py) still wraps these names on this module, so they
# stay importable from it.
from keenact.features import assemble_act_input  # noqa: F401
from keenact.fm import adam_update, combine_gradients, fm_gradient  # noqa: F401
from keenact.recommend import recommend, select_items  # noqa: F401
from keenact.scoring import part_stats  # noqa: F401

logger = logging.getLogger("keenact.evaluation")

VARIANTS = ("keen2act", "keen", "act", "fm_bpr", "fm_warp")
VARIANT_LABELS = {
    "keen2act": "Keen2Act",
    "keen": "Keen Model",
    "act": "Act Model",
    "fm_bpr": "FM_BPR",
    "fm_warp": "FM_WARP",
}
DEFAULT_KS = (5, 10, 20, 50, None)


@dataclass(frozen=True)
class FlatPairSpace:
    """Bijection between (item, activity) pairs and flat candidate ids."""

    n_items: int
    n_activities: int

    @property
    def size(self) -> int:
        return self.n_items * self.n_activities

    def flatten(self, v: int, z: int) -> int:
        if not (0 <= v < self.n_items and 0 <= z < self.n_activities):
            raise ValueError(f"pair ({v}, {z}) outside space")
        return v * self.n_activities + z


def _flat_by_user(store: InteractionStore, space: FlatPairSpace) -> dict[int, frozenset]:
    """Flat pair ids of each user's triples."""
    flat = (store.columns[1] * space.n_activities + store.columns[2]).tolist()
    return {u: frozenset(flat[rows]) for u, rows in store.user_rows().items()}


def average_precision_at_k(ranked, relevant, k: int | None = None) -> float:
    """AP@k with the min(|relevant|, k) normalizer; k=None means no cutoff."""
    if not relevant:
        raise ValueError("average precision is undefined for an empty relevant set")
    if k is not None and k < 1:
        raise ValueError("k must be >= 1 or None")
    cutoff = len(ranked) if k is None else min(k, len(ranked))
    hits = 0
    score = 0.0
    for i in range(cutoff):
        if ranked[i] in relevant:
            hits += 1
            score += hits / (i + 1)
    denom = len(relevant) if k is None else min(len(relevant), k)
    return score / denom


def map_at_k(ranked_by_user: dict, relevant_by_user: dict, k: int | None = None) -> float:
    """Mean AP@k over users with a non-empty relevant set."""
    scores = [
        average_precision_at_k(ranked_by_user.get(u, []), relevant, k)
        for u, relevant in relevant_by_user.items()
        if relevant
    ]
    if not scores:
        raise ValueError("no users with held-out positives")
    return float(np.mean(scores))


# -- single-model baselines over the flat pair space ------------------------


@dataclass
class BaselineModel:
    """A trained flat baseline and its batch scorer over the flat pairs; cold items score feature-only."""

    params: object
    scorer: Scorer
    kind: str
    report: list[tuple[int, str, str, float]]


def flat_candidate_space(store, layout: FeatureLayout, user_feats, item_feats, item_trained: np.ndarray) -> CandidateSpace:
    """The flat pairwise space: each user's part against the items
    ``item_trained`` marks x activities.

    One part table, with a row per flat pair id, serves every user.
    """
    pairs = FlatPairSpace(layout.n_items, layout.n_activities)
    universe = (np.flatnonzero(item_trained)[:, None] * pairs.n_activities + np.arange(pairs.n_activities)).ravel()
    contexts, items, activities = part_tables(layout, user_feats, item_feats)
    item_of, activity_of = np.divmod(np.arange(pairs.size), pairs.n_activities)
    table = join_tables((items, item_of), (activities, activity_of))
    u, v, z = store.columns
    return CandidateSpace(contexts, table, universe, u, v * pairs.n_activities + z)


def train_baseline(store, user_feats, item_feats, config: TrainConfig, kind: str) -> BaselineModel:
    """Train a flat single-model baseline: kind is "bpr" or "warp".

    The user is the context and negatives are training items x activities.
    """
    if kind not in ("bpr", "warp"):
        raise ValueError(f"unknown baseline kind {kind!r}")
    catalog = store.catalog
    layout = FeatureLayout.for_act(catalog, user_feats, item_feats, config.id_onehots)
    params = init_params(layout.dim, config.k, seed=config.seed + 3)
    state = AdamState.for_params(params, **config.adam_kwargs())
    rng = np.random.Generator(np.random.PCG64(config.seed))
    item_trained = trained_item_mask(store)
    space = flat_candidate_space(store, layout, user_feats, item_feats, item_trained)
    bpr = kind == "bpr"

    def step(batch: NegativeBlock):
        # the flat space is dominated by item coordinates, so the
        # item-stage decay is the comparable setting for the baselines
        return batch_step(params, state, config.lambda_keen, space, batch, config, bpr=bpr)

    report: list[tuple[int, str, str, float]] = []
    cap = 1 if bpr else config.max_neg_samples
    for epoch in range(config.epochs):
        run_phase(epoch, f"fm_{kind}", space, cap, step, params, rng, report, config.batch_size)
    scorer = Scorer(params, layout, user_feats, item_feats, item_trained)
    # finite parameters near the float limit can still overflow the
    # scores, and no phase 2 runs here to catch it in a cross-entropy
    if not scorer.all_finite():
        raise NumericalError(config.epochs - 1, f"non-finite fm_{kind} scores after training")
    return BaselineModel(params=params, scorer=scorer, kind=kind, report=report)


# -- ranked candidate lists per variant -------------------------------------


def _excluding(flat: np.ndarray, exclude: frozenset) -> list[int]:
    """``flat`` in its own order without the ids in ``exclude``, as Python ints.

    A sorted lookup, not ``np.isin``: that would import ``numpy.ma``.
    """
    ids = np.sort(np.fromiter(exclude, np.int64, len(exclude)))
    return flat[np.searchsorted(ids, flat, "left") == np.searchsorted(ids, flat, "right")].tolist()


def _ordered_flat(scores: np.ndarray, exclude: frozenset, keep: np.ndarray | None = None) -> list[int]:
    """Flat ids by score descending, ties by id; ``keep`` masks the candidates."""
    flat_ids = np.arange(len(scores), dtype=np.int64) if keep is None else np.flatnonzero(keep)
    order = np.lexsort((flat_ids, -scores[flat_ids]))
    return _excluding(flat_ids[order], exclude)


def rank_keen2act(model: TrainedModel, space: FlatPairSpace, u: int, exclude: frozenset) -> list[int]:
    """Thresholded two-stage list in recommendation order (may be short)."""
    items, activities, _, _ = accepted_pairs(model, u)
    return _excluding(items * space.n_activities + activities, exclude)


def rank_keen_only(model: TrainedModel, space: FlatPairSpace, u: int, exclude: frozenset) -> list[int]:
    """Stage-one items by keen score, each expanded to all activities in id order."""
    scores, keep = keen_stage(model, u)
    # ties break by flat id: by item, then activity
    return _ordered_flat(np.repeat(scores, space.n_activities), exclude, np.repeat(keep, space.n_activities))


def rank_act_only(model: TrainedModel, space: FlatPairSpace, u: int, exclude: frozenset) -> list[int]:
    """Pairs whose act score clears its activity cutoff, by score alone (no item stage)."""
    scores, keep = act_stage(model, u)
    return _ordered_flat(scores.reshape(-1), exclude, keep.reshape(-1))


def rank_baseline(baseline: BaselineModel, space: FlatPairSpace, u: int, exclude: frozenset) -> list[int]:
    scores = baseline.scorer.score_pair_matrix(u).reshape(-1)
    return _ordered_flat(scores, exclude)


# -- experiment driver -------------------------------------------------------


@dataclass
class EvalReport:
    """Per-variant MAP records: (dataset, variant, metric, split, value)."""

    dataset: str
    records: list[tuple[str, str, str, str, float]] = field(default_factory=list)

    def add(self, variant: str, metric: str, split: str, value: float) -> None:
        self.records.append((self.dataset, variant, metric, split, float(value)))

    def value(self, variant: str, metric: str, split: str) -> float:
        for ds, var, met, sp, val in self.records:
            if var == variant and met == metric and sp == split:
                return val
        raise KeyError((variant, metric, split))

    def values(self, variant: str, metric: str) -> list[float]:
        return [
            val
            for _, var, met, sp, val in self.records
            if var == variant and met == metric and sp != "mean"
        ]

    def variants(self) -> list[str]:
        seen = dict.fromkeys(var for _, var, _, _, _ in self.records)
        return list(seen)

    def metrics(self) -> list[str]:
        seen = dict.fromkeys(met for _, _, met, _, _ in self.records if met.startswith("map@"))
        return list(seen)

    def table(self) -> str:
        """Aligned text table of mean MAP per variant."""
        metrics = self.metrics()
        rows = []
        header = ["variant"] + metrics
        for variant in self.variants():
            label = VARIANT_LABELS.get(variant, variant)
            row = [label]
            for metric in metrics:
                try:
                    row.append(f"{self.value(variant, metric, 'mean'):.4f}")
                except KeyError:
                    row.append("-")
            rows.append(row)
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for ds, var, met, sp, val in self.records:
                fh.write(f"{ds}\t{var}\t{met}\t{sp}\t{val!r}\n")


def _metric_name(k: int | None) -> str:
    return "map@inf" if k is None else f"map@{k}"


def evaluate_split(
    store: InteractionStore,
    seed: int,
    config: TrainConfig,
    variants,
    ks,
    fraction: float = 0.8,
    item_feats: FeatureMatrix | None = None,
) -> dict[str, dict[str, float]]:
    """Train on one split and return {variant: {metric: value}}.

    Besides MAP at each k, a variant records ``eval_users`` and two wall
    times: ``train_seconds`` (the three two-stage variants share one
    model, so they repeat its training time) and ``rank_seconds``, the
    variant's own ranking of the held-out users.

    User features are co-participation counts rebuilt from the training
    half only; item features default to none (identity one-hots carry
    the items) unless an item feature matrix is supplied.
    """
    split = split_per_user(store, fraction=fraction, seed=seed)
    catalog = store.catalog
    user_feats = l2_normalize_rows(co_participation_features(split.train))
    if item_feats is None:
        item_feats = empty_features(catalog.n_items)
    cfg = dataclasses.replace(config, seed=seed)
    space = FlatPairSpace(catalog.n_items, catalog.n_activities)

    relevant = _flat_by_user(split.test, space)
    if not relevant:
        raise ValueError("split produced no held-out positives")
    exclude = _flat_by_user(split.train, space)
    empty = frozenset()

    out: dict[str, dict[str, float]] = {}
    two_stage = {"keen2act": rank_keen2act, "keen": rank_keen_only, "act": rank_act_only}
    model = None
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        started = time.perf_counter()
        if variant in two_stage:
            # the three two-stage variants share one trained model
            if model is None:
                model = train(split.train, user_feats, item_feats, cfg)
                train_seconds = time.perf_counter() - started
            trained, rank, seconds = model, two_stage[variant], train_seconds
        else:
            trained = train_baseline(split.train, user_feats, item_feats, cfg, kind=variant.removeprefix("fm_"))
            rank, seconds = rank_baseline, time.perf_counter() - started
        # one user's list at a time; APs in map_at_k's order, so MAP keeps its bytes
        aps: dict = {k: [] for k in ks}
        rank_seconds = 0.0
        for u, rel in relevant.items():
            started = time.perf_counter()
            ranked = rank(trained, space, u, exclude.get(u, empty))
            rank_seconds += time.perf_counter() - started
            for k in ks:
                aps[k].append(average_precision_at_k(ranked, rel, k))
        metrics = {_metric_name(k): float(np.mean(aps[k])) for k in ks}
        metrics["train_seconds"] = seconds
        metrics["rank_seconds"] = rank_seconds
        metrics["eval_users"] = float(len(relevant))
        out[variant] = metrics
    return out


def run_experiment(
    store: InteractionStore,
    config: TrainConfig,
    n_splits: int = 5,
    variants=VARIANTS,
    ks=DEFAULT_KS,
    dataset: str = "dataset",
    fraction: float = 0.8,
    item_feats: FeatureMatrix | None = None,
) -> EvalReport:
    """Repeated-split evaluation; records per-split values plus means."""
    if n_splits < 1:
        raise ValueError("n_splits must be >= 1")
    report = EvalReport(dataset=dataset)
    per_split: list[dict] = []
    for i in range(n_splits):
        seed = config.seed + i
        logger.info("split %d/%d (seed %d)", i + 1, n_splits, seed)
        result = evaluate_split(store, seed, config, variants, ks, fraction=fraction, item_feats=item_feats)
        per_split.append(result)
        for variant, metrics in result.items():
            for metric, value in metrics.items():
                report.add(variant, metric, str(i), value)
    for variant in variants:
        for metric in per_split[0][variant]:
            vals = [split_result[variant][metric] for split_result in per_split]
            report.add(variant, metric, "mean", float(np.mean(vals)))
    return report
