"""Two-phase learning: WARP rank learning, then decision-threshold fitting.

Phase 1 walks the item-level pairs and the activity-level triples once
per epoch; for each positive it draws up to ``max_neg_samples``
negatives as one array, scores them together, and applies one sparse
Adam update for the first that violates the margin, weighted by the
harmonic transform of the estimated rank.  Phase 2 freezes both scorers and fits
per-item / per-activity decision thresholds with a cross-entropy loss.
``pairwise_step`` is that sampled update; the flat baselines in
``evaluation`` run it too.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from keenact.data import InteractionStore
from keenact.features import (
    FeatureLayout,
    FeatureMatrix,
    activity_part,
    item_part,
    join_parts,
    pad_parts,
    user_part,
)
from keenact.fm import (
    AdamState,
    FMParameters,
    adam_moves,
    adam_update,
    init_params,
)
from keenact.scoring import Scorer, part_gradient, part_stats, table_stats

# Not called here since the step computes its update from block parts;
# the traced benchmark (perfbench/layers.py) still wraps these names on
# this module, so they stay importable from it.
from keenact.features import assemble_act_input, assemble_keen_input  # noqa: F401
from keenact.fm import combine_gradients, fm_gradient  # noqa: F401

logger = logging.getLogger("keenact.training")

class ConfigError(ValueError):
    """Unknown or malformed configuration key; carries the key name."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


class NumericalError(RuntimeError):
    """Training produced a non-finite loss or parameter; carries the epoch."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch


@dataclass
class TrainConfig:
    """Hyperparameters for both phases.

    ``threshold_negative_ratio`` is "full" (enumerate every training
    item per user during threshold fitting) or a positive float r, in
    which case each user sees all positives plus ceil(r * n_pos)
    sampled negative items.  Full enumeration leans on the majority
    class and pushes item cutoffs up; the subsampled default keeps the
    cutoffs permissive enough that stage one rarely drops a user's
    top-ranked items.
    """

    epochs: int = 10
    max_neg_samples: int = 20
    k: int = 16
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lambda_keen: float = 0.01
    lambda_act: float = 0.3
    margin: float = 1.0
    seed: int = 0
    threshold_epochs: int = 10
    threshold_negative_ratio: float | str = 5.0
    id_onehots: bool = True

    def __post_init__(self):
        checks = [
            ("epochs", self.epochs >= 1, "must be >= 1"),
            ("max_neg_samples", self.max_neg_samples >= 1, "must be >= 1"),
            ("k", self.k >= 1, "must be >= 1"),
            ("threshold_epochs", self.threshold_epochs >= 1, "must be >= 1"),
            ("lr", self.lr > 0, "must be > 0"),
            ("beta1", 0 <= self.beta1 < 1, "must be in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "must be in [0, 1)"),
            ("eps", self.eps > 0, "must be > 0"),
            ("lambda_keen", self.lambda_keen >= 0, "must be >= 0"),
            ("lambda_act", self.lambda_act >= 0, "must be >= 0"),
            ("margin", self.margin > 0, "must be > 0"),
        ]
        if self.threshold_negative_ratio != "full":
            ratio = float(self.threshold_negative_ratio)
            checks.append(("threshold_negative_ratio", math.isfinite(ratio) and ratio > 0, "must be 'full' or > 0"))
        for key in ("lr", "beta1", "beta2", "eps", "lambda_keen", "lambda_act", "margin"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(key, f"{key} must be finite, got {getattr(self, key)!r}")
        for key, ok, rule in checks:
            if not ok:
                raise ConfigError(key, f"{key} {rule}, got {getattr(self, key)!r}")

    def adam_kwargs(self) -> dict:
        return {"alpha": self.lr, "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps}

    def to_dict(self) -> dict:
        return asdict(self)


CONFIG_KEYS = tuple(f.name for f in fields(TrainConfig))


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_config(path) -> TrainConfig:
    """Read a flat ``key = value`` file; unknown keys are errors.

    Missing keys fall back to defaults with one logged warning.
    """
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(stripped, f"line {lineno}: expected 'key = value', got {stripped!r}")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
    return config_from_mapping(raw)


def config_from_mapping(raw: dict) -> TrainConfig:
    kwargs: dict = {}
    for key, value in raw.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(key, f"unknown config key {key!r}")
        try:
            if key in ("epochs", "max_neg_samples", "k", "seed", "threshold_epochs"):
                kwargs[key] = int(value)
            elif key == "id_onehots":
                text = str(value).strip().lower()
                if isinstance(value, bool):
                    kwargs[key] = value
                elif text in _BOOL_VALUES:
                    kwargs[key] = _BOOL_VALUES[text]
                else:
                    raise ValueError(f"not a boolean: {value!r}")
            elif key == "threshold_negative_ratio":
                kwargs[key] = "full" if str(value).strip().lower() == "full" else float(value)
            else:
                kwargs[key] = float(value)
        except ValueError as exc:
            raise ConfigError(key, f"bad value for {key!r}: {exc}") from None
    missing = [k for k in CONFIG_KEYS if k not in kwargs]
    if missing:
        logger.warning("config keys %s not set, using defaults", ", ".join(missing))
    return TrainConfig(**kwargs)


@dataclass
class ThresholdTable:
    """Learned per-item and per-activity decision cutoffs.

    ``item_trained`` marks items whose threshold was actually fitted;
    the rest (cold at training time) fall back to the mean of the
    trained cutoffs.
    """

    item_thresholds: np.ndarray
    activity_thresholds: np.ndarray
    global_item_fallback: float
    item_trained: np.ndarray

    def effective_item_thresholds(self) -> np.ndarray:
        return np.where(self.item_trained, self.item_thresholds, self.global_item_fallback)


@dataclass
class TrainedModel:
    """Both scorers, their layouts and features, and the threshold table."""

    keen: FMParameters
    act: FMParameters
    thresholds: ThresholdTable
    keen_layout: FeatureLayout
    act_layout: FeatureLayout
    user_feats: FeatureMatrix
    item_feats: FeatureMatrix
    seen_items: frozenset
    report: list[tuple[int, str, str, float]]
    config: TrainConfig
    catalog: object | None = None
    _scorers: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.keen_layout.dim != self.keen.dim:
            raise ValueError("keen layout does not match keen parameter dim")
        if self.act_layout.dim != self.act.dim:
            raise ValueError("act layout does not match act parameter dim")

    @property
    def n_users(self) -> int:
        return self.keen_layout.n_users

    @property
    def n_items(self) -> int:
        return self.keen_layout.n_items

    @property
    def n_activities(self) -> int:
        return self.act_layout.n_activities

    def scorers(self) -> tuple[Scorer, Scorer]:
        """Cached (keen, act) batch scorers; cold items score feature-only."""
        if self._scorers is None:
            keen = Scorer(self.keen, self.keen_layout, self.user_feats, self.item_feats, seen_items=self.seen_items)
            act = Scorer(self.act, self.act_layout, self.user_feats, self.item_feats, seen_items=self.seen_items)
            self._scorers = (keen, act)
        return self._scorers


_HARMONIC = [0.0]


def phi(n: int) -> float:
    """Harmonic number H_n = sum_{i=1..n} 1/i; phi(0) = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_HARMONIC) <= n:
        _HARMONIC.append(_HARMONIC[-1] + 1.0 / len(_HARMONIC))
    return _HARMONIC[n]


def estimate_rank(total_negatives: int, draws_to_violation: int) -> int:
    """Sampled rank estimate floor((total - 1) / draws), clamped to >= 1."""
    if total_negatives < 1 or draws_to_violation < 1:
        raise ValueError("counts must be >= 1")
    return max(1, (total_negatives - 1) // draws_to_violation)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


def cross_entropy(x, y):
    """CE(x, y) = -[y ln sigma(x) + (1-y) ln(1-sigma(x))], stable form."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = np.logaddexp(0.0, x) - y * x
    if out.ndim == 0:
        return float(out)
    return out


def cross_entropy_grad_threshold(score, threshold, y):
    """d CE(score - delta, y) / d delta = y - sigma(score - delta)."""
    return y - sigmoid(np.asarray(score) - np.asarray(threshold))


@dataclass
class StepResult:
    """Outcome of one sampled pairwise step: whether an update fired and its cost."""

    updated: bool
    draws: int
    loss: float = 0.0
    skipped: bool = False


@dataclass
class CandidateSpace:
    """What one sampled pairwise step ranks a positive against.

    ``context`` is the (indices, values) part shared by every candidate
    of the step; ``table`` is the padded (indices, values) pair of
    ``pad_parts`` with one row per candidate id.  Negatives are drawn
    from the sorted ``universe`` minus ``positives``, the sorted
    positions of the positive candidates in it.
    """

    context: tuple[np.ndarray, np.ndarray]
    table: tuple[np.ndarray, np.ndarray]
    universe: np.ndarray
    positives: np.ndarray

    def part(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidate c's own part: its table row without the padding."""
        idx, val = self.table[0][c], self.table[1][c]
        keep = val != 0.0
        return idx[keep], val[keep]


def universe_positions(universe: np.ndarray, ids) -> np.ndarray:
    """Sorted positions in the sorted ``universe`` of candidate ``ids``, all in it."""
    return np.searchsorted(universe, np.fromiter(sorted(ids), dtype=np.int64, count=len(ids)))


def draw_negatives(rng: np.random.Generator, n_universe: int, positives: np.ndarray, cap: int) -> np.ndarray:
    """Positions of ``cap`` distinct negatives, uniform without replacement.

    ``positives`` are the sorted positive positions among ``n_universe``
    candidates, and ``cap`` is at most the number of negatives.  With few
    negatives (2 * cap >= total) the draw permutes the negatives in
    universe order; otherwise it is one draw of cap + |positives|
    distinct positions with the positives dropped.  Either way the result
    is the first ``cap`` of a uniform permutation of the negatives, and
    memory is O(cap + |positives|).
    """
    total_neg = n_universe - positives.size
    if 2 * cap >= total_neg:
        ranks = rng.permutation(total_neg)[:cap]
        # the r-th negative comes after every positive with at most r negatives before it
        return ranks + np.searchsorted(positives - np.arange(positives.size), ranks, side="right")
    drawn = rng.choice(n_universe, cap + positives.size, replace=False)
    if positives.size:
        drawn = drawn[positives[np.minimum(np.searchsorted(positives, drawn), positives.size - 1)] != drawn]
    return drawn[:cap]


def _logistic(diff: float) -> tuple[float, float]:
    """(sigmoid(diff), log(1 + exp(diff))) of one float, both overflow-free."""
    if diff >= 0.0:
        e = math.exp(-diff)
        return 1.0 / (1.0 + e), diff + math.log1p(e)
    e = math.exp(diff)
    return e / (1.0 + e), math.log1p(e)


def pairwise_step(
    params: FMParameters,
    state: AdamState,
    lam: float,
    space: CandidateSpace,
    positive: int,
    rng: np.random.Generator,
    config: TrainConfig,
    bpr: bool = False,
) -> StepResult:
    """One sampled pairwise update of ``params`` for ``positive``.

    WARP draws up to ``max_neg_samples`` distinct negatives as one
    array, scores them with one gather from the part table, and updates
    on the first that violates the margin, weighted by phi of the
    estimated rank (WSABIE); ``draws`` is that violator's 1-based
    position, or the number drawn when none violates.  BPR draws one
    negative and always updates, weighted by sigmoid(-(s_pos - s_neg)).
    ``lam`` is the L2 decay on the touched rows.
    """
    total_neg = space.universe.size - space.positives.size
    if total_neg <= 0:
        return StepResult(updated=False, draws=0, skipped=True)
    cap = 1 if bpr else min(config.max_neg_samples, total_neg)
    negatives = space.universe[draw_negatives(rng, space.universe.size, space.positives, cap)]
    candidates = np.concatenate(([positive], negatives))
    cbase, s_ctx = part_stats(params, *space.context)
    base, s = table_stats(params, space.table[0][candidates], space.table[1][candidates])
    scores = params.w0 + cbase + base + s @ s_ctx
    # BPR updates on its single negative; WARP on the first margin violator
    j = 0
    if not bpr:
        violates = scores[0] < config.margin + scores[1:]
        j = int(violates.argmax())
        if not violates[j]:
            return StepResult(updated=False, draws=cap)
    draws = j + 1
    s_pos, s_neg = float(scores[0]), float(scores[draws])
    if bpr:
        weight, loss = _logistic(s_neg - s_pos)
    else:
        weight = phi(estimate_rank(total_neg, draws))
        loss = weight * (config.margin - s_pos + s_neg)
    c = int(negatives[j])
    grad = part_gradient(params, space.context, space.part(positive), space.part(c), s_ctx, s[0], s[draws], weight)
    if lam:
        grad.w = grad.w + lam * params.w[grad.indices]
        grad.factors = grad.factors + lam * params.factors[grad.indices]
    adam_update(params, state, grad)
    return StepResult(updated=True, draws=draws, loss=loss)


def fit_thresholds(
    scores_by_group: list[np.ndarray],
    labels_by_group: list[np.ndarray],
    coords_by_group: list[np.ndarray],
    n_coords: int,
    epochs: int,
    alpha: float = 0.01,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, list[float]]:
    """Adam-fit cutoffs minimizing CE(score - delta[coord], label).

    Groups are visited in order once per epoch; within a group every
    coordinate appears at most once, so the group update equals the
    coordinate-sequential one.  Returns (thresholds, mean CE per epoch).
    """
    delta = np.zeros(n_coords)
    # a step count per coordinate keeps each cutoff's bias correction its own
    m, v, t = np.zeros(n_coords), np.zeros(n_coords), np.zeros(n_coords, dtype=np.int64)
    trace: list[float] = []
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


class Trainer:
    """Drives both phases over one training store; deterministic per seed.

    Negative items are drawn from the items observed in the training
    store; catalog items without training interactions are cold and are
    handled at inference through the threshold fallback.
    """

    def __init__(
        self,
        store: InteractionStore,
        user_feats: FeatureMatrix,
        item_feats: FeatureMatrix,
        config: TrainConfig,
    ):
        if store.n_triples == 0:
            raise ValueError("empty training store")
        self.store = store
        self.config = config
        self.user_feats = user_feats
        self.item_feats = item_feats
        catalog = store.catalog
        self.keen_layout = FeatureLayout.for_keen(catalog, user_feats, item_feats, config.id_onehots)
        self.act_layout = FeatureLayout.for_act(catalog, user_feats, item_feats, config.id_onehots)
        self.keen = init_params(self.keen_layout.dim, config.k, seed=config.seed + 1)
        self.act = init_params(self.act_layout.dim, config.k, seed=config.seed + 2)
        self.keen_state = AdamState.for_params(self.keen, **config.adam_kwargs())
        self.act_state = AdamState.for_params(self.act, **config.adam_kwargs())
        self.rng = np.random.Generator(np.random.PCG64(config.seed))
        self.item_universe = np.array(store.items_with_interactions(), dtype=np.int64)
        self.activity_universe = np.arange(catalog.n_activities, dtype=np.int64)
        # user and item blocks sit at the same offsets in both layouts, so
        # one part per user and per item serves keen and act
        self.user_parts = [user_part(u, self.act_layout, user_feats) for u in range(catalog.n_users)]
        self.item_parts = [item_part(v, self.act_layout, item_feats) for v in range(catalog.n_items)]
        self.item_table = pad_parts(self.item_parts)
        self.activity_table = pad_parts(activity_part(z, self.act_layout) for z in self.activity_universe)
        self.item_positives = [
            universe_positions(self.item_universe, store.positive_items(u)) for u in range(catalog.n_users)
        ]
        self.activity_positives = {
            (u, v): universe_positions(self.activity_universe, store.positive_activities(u, v))
            for u, v in store.keen_pairs
        }
        self.report: list[tuple[int, str, str, float]] = []

    # -- phase 1: rank learning ------------------------------------------

    def warp_step_keen(self, u: int, v: int) -> StepResult:
        """One WARP step for a positive item pair; no-op without violation."""
        space = CandidateSpace(
            context=self.user_parts[u],
            table=self.item_table,
            universe=self.item_universe,
            positives=self.item_positives[u],
        )
        result = pairwise_step(self.keen, self.keen_state, self.config.lambda_keen, space, v, self.rng, self.config)
        if result.skipped:
            logger.warning("user %d is positive on every training item; keen step skipped", u)
        return result

    def warp_step_act(self, u: int, v: int, z: int) -> StepResult:
        """One WARP step for a positive activity; negatives drawn from Z."""
        space = CandidateSpace(
            context=join_parts(self.user_parts[u], self.item_parts[v]),
            table=self.activity_table,
            universe=self.activity_universe,
            positives=self.activity_positives[u, v],
        )
        return pairwise_step(self.act, self.act_state, self.config.lambda_act, space, z, self.rng, self.config)

    def _run_phase(self, epoch: int, phase: str, examples, step) -> None:
        order = self.rng.permutation(len(examples))
        losses = 0.0
        draws = 0
        updates = 0
        for i in order:
            result = step(*examples[i])
            draws += result.draws
            losses += result.loss
            updates += int(result.updated)
        n = max(len(examples), 1)
        self.report.append((epoch, phase, "warp_loss", float(losses) / n))
        self.report.append((epoch, phase, "mean_draws", draws / n))
        self.report.append((epoch, phase, "violation_rate", updates / n))
        if not math.isfinite(losses) or not (self.keen.all_finite() and self.act.all_finite()):
            raise NumericalError(epoch, f"non-finite loss or parameters at epoch {epoch}")

    def run_rank_learning(self) -> None:
        """Phase 1: keen steps over the pairs, then act steps over the triples."""
        for epoch in range(self.config.epochs):
            self._run_phase(epoch, "keen_rank", self.store.keen_pairs, self.warp_step_keen)
            self._run_phase(epoch, "act_rank", self.store.triples, self.warp_step_act)

    # -- phase 2: threshold learning ---------------------------------------

    def _threshold_enum_items(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Items a user contributes to threshold fitting and their 0/1 labels:
        all training items, or positives plus a sampled negative subset when
        the ratio is finite."""
        positives = self.item_positives[u]
        negative = np.ones(self.item_universe.size, dtype=bool)
        negative[positives] = False
        ratio = self.config.threshold_negative_ratio
        if ratio == "full":
            return self.item_universe, (~negative).astype(np.float64)
        negatives = self.item_universe[negative]
        n_neg = math.ceil(float(ratio) * positives.size)
        if n_neg < negatives.size:
            chosen = self.rng.choice(negatives.size, size=n_neg, replace=False)
            negatives = negatives[np.sort(chosen)]
        items = np.concatenate([self.item_universe[positives], negatives])
        labels = np.zeros(items.size)
        labels[: positives.size] = 1.0
        return items, labels

    def learn_thresholds_keen(self) -> tuple[np.ndarray, np.ndarray, list[float]]:
        """Fit per-item cutoffs on frozen keen scores.

        Returns (thresholds over the catalog, trained mask, CE trace).
        """
        scorer = Scorer(self.keen, self.keen_layout, self.user_feats, self.item_feats)
        users = self.store.users_with_interactions()
        scores_by_group, labels_by_group, coords_by_group = [], [], []
        trained = np.zeros(self.store.catalog.n_items, dtype=bool)
        for u in users:
            enum_items, labels = self._threshold_enum_items(u)
            scores_by_group.append(scorer.score_items(u, enum_items))
            labels_by_group.append(labels)
            coords_by_group.append(enum_items)
            trained[enum_items] = True
        delta, trace = fit_thresholds(
            scores_by_group,
            labels_by_group,
            coords_by_group,
            self.store.catalog.n_items,
            self.config.threshold_epochs,
            **self.config.adam_kwargs(),
        )
        return delta, trained, trace

    def learn_thresholds_act(self) -> tuple[np.ndarray, list[float]]:
        """Fit per-activity cutoffs on frozen act scores over positive pairs."""
        scorer = Scorer(self.act, self.act_layout, self.user_feats, self.item_feats)
        all_z = self.activity_universe
        scores_by_group, labels_by_group, coords_by_group = [], [], []
        for u, v in self.store.keen_pairs:
            labels = np.zeros(all_z.size)
            labels[self.activity_positives[u, v]] = 1.0
            scores_by_group.append(scorer.score_activities(u, v))
            labels_by_group.append(labels)
            coords_by_group.append(all_z)
        delta, trace = fit_thresholds(
            scores_by_group,
            labels_by_group,
            coords_by_group,
            len(all_z),
            self.config.threshold_epochs,
            **self.config.adam_kwargs(),
        )
        return delta, trace

    def run_threshold_learning(self) -> ThresholdTable:
        item_delta, trained, keen_trace = self.learn_thresholds_keen()
        act_delta, act_trace = self.learn_thresholds_act()
        for epoch, ce in enumerate(keen_trace):
            self.report.append((epoch, "keen_threshold", "mean_ce", ce))
        for epoch, ce in enumerate(act_trace):
            self.report.append((epoch, "act_threshold", "mean_ce", ce))
        fallback = float(item_delta[trained].mean()) if trained.any() else 0.0
        return ThresholdTable(
            item_thresholds=item_delta,
            activity_thresholds=act_delta,
            global_item_fallback=fallback,
            item_trained=trained,
        )

    def finish(self, thresholds: ThresholdTable) -> TrainedModel:
        return TrainedModel(
            keen=self.keen,
            act=self.act,
            thresholds=thresholds,
            keen_layout=self.keen_layout,
            act_layout=self.act_layout,
            user_feats=self.user_feats,
            item_feats=self.item_feats,
            seen_items=frozenset(int(v) for v in self.item_universe),
            report=self.report,
            config=self.config,
            catalog=self.store.catalog,
        )


def train(
    store: InteractionStore,
    user_feats: FeatureMatrix,
    item_feats: FeatureMatrix,
    config: TrainConfig,
) -> TrainedModel:
    """Run both phases and return the trained two-stage model."""
    trainer = Trainer(store, user_feats, item_feats, config)
    trainer.run_rank_learning()
    thresholds = trainer.run_threshold_learning()
    return trainer.finish(thresholds)


def write_training_report(report, path) -> None:
    """Line-delimited ``epoch<TAB>phase<TAB>metric<TAB>value`` records."""
    with open(path, "w", encoding="utf-8") as fh:
        for epoch, phase, metric, value in report:
            fh.write(f"{epoch}\t{phase}\t{metric}\t{value!r}\n")
