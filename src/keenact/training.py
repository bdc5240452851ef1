"""Two-phase learning: WARP rank learning, then decision-threshold fitting.

Phase 1 walks the item-level pairs and the activity-level triples once
per epoch; for each positive it samples negatives until the margin is
violated and applies one sparse Adam update weighted by the harmonic
transform of the estimated rank.  Phase 2 freezes both scorers and fits
per-item / per-activity decision thresholds with a cross-entropy loss.
``pairwise_step`` is that sampled update; the flat baselines in
``evaluation`` run it too.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from keenact.data import InteractionStore
from keenact.features import (
    FeatureLayout,
    FeatureMatrix,
    SparseVector,
    activity_part,
    assemble_act_input,
    assemble_keen_input,
    item_part,
    join_parts,
    user_part,
)
from keenact.fm import (
    AdamState,
    FMParameters,
    adam_update,
    combine_gradients,
    fm_gradient,
    fm_score,
    init_params,
)
from keenact.scoring import Scorer, part_gradient, part_stats

logger = logging.getLogger("keenact.training")

CONFIG_KEYS = (
    "epochs",
    "max_neg_samples",
    "k",
    "lr",
    "beta1",
    "beta2",
    "eps",
    "lambda_keen",
    "lambda_act",
    "margin",
    "seed",
    "threshold_epochs",
    "threshold_negative_ratio",
    "id_onehots",
)


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
    init_scale: float = 0.01

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.max_neg_samples < 1:
            raise ValueError("max_neg_samples must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.lambda_keen < 0 or self.lambda_act < 0:
            raise ValueError("regularization strengths must be >= 0")
        if self.margin <= 0:
            raise ValueError("margin must be > 0")
        if self.threshold_epochs < 1:
            raise ValueError("threshold_epochs must be >= 1")
        if self.threshold_negative_ratio != "full":
            ratio = float(self.threshold_negative_ratio)
            if ratio <= 0:
                raise ValueError("threshold_negative_ratio must be 'full' or > 0")

    def adam_kwargs(self) -> dict:
        return {"alpha": self.lr, "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps}

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in CONFIG_KEYS}


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_config(path) -> TrainConfig:
    """Read a flat ``key = value`` file; unknown keys are errors.

    Missing keys fall back to defaults with one logged warning.
    """
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
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
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError("config", str(exc)) from None


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

    def item_threshold(self, v: int) -> float:
        if self.item_trained[v]:
            return float(self.item_thresholds[v])
        return self.global_item_fallback

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
    """Outcome of one sampled pairwise step: whether an update fired and its cost.

    In diagnostic mode ``hinge_after`` holds the updated pair's hinge
    after a small plain gradient probe step, not after the Adam step.
    """

    updated: bool
    draws: int
    loss: float = 0.0
    skipped: bool = False
    hinge_before: float = 0.0
    hinge_after: float = 0.0


@dataclass
class CandidateSpace:
    """What one sampled pairwise step ranks a positive against.

    ``context`` is the (indices, values) part shared by every candidate
    of the step, ``part(c)`` is candidate c's own part, and negatives are
    drawn from ``universe`` minus ``positives``.  ``assemble(c)`` builds
    the full input the reference path scores; only the descent probe
    uses it, so spaces that are never probed leave it out.
    """

    context: tuple[np.ndarray, np.ndarray]
    part: Callable[[int], tuple[np.ndarray, np.ndarray]]
    universe: np.ndarray
    positives: frozenset
    assemble: Callable[[int], SparseVector] | None = None


def _negative_stream(rng: np.random.Generator, universe: np.ndarray, positives, cap: int):
    """Up to ``cap`` distinct negatives, uniform without replacement."""
    n_universe = len(universe)
    total_neg = n_universe - len(positives)
    if cap * 2 >= total_neg:
        candidates = np.array([c for c in universe if c not in positives], dtype=np.int64)
        order = rng.permutation(len(candidates))
        for i in order[:cap]:
            yield int(candidates[i])
        return
    drawn: set[int] = set()
    while len(drawn) < cap:
        c = int(universe[rng.integers(n_universe)])
        if c in positives or c in drawn:
            continue
        drawn.add(c)
        yield c


def _descent_probe(params: FMParameters, x_pos: SparseVector, x_neg: SparseVector, weight: float, margin: float) -> float:
    """The pair's hinge after a plain step of 1e-3 along its reference gradient.

    That step must lower the hinge; the Adam step itself carries momentum
    from earlier pairs and offers no such per-pair guarantee.
    """
    grad = combine_gradients([fm_gradient(params, x_pos, -weight), fm_gradient(params, x_neg, weight)])
    alpha = 1e-3
    trial = params.copy()
    trial.w0 -= alpha * grad.w0
    trial.w[grad.indices] = trial.w[grad.indices] - alpha * grad.w
    trial.factors[grad.indices] = trial.factors[grad.indices] - alpha * grad.factors
    return margin - fm_score(trial, x_pos) + fm_score(trial, x_neg)


def pairwise_step(
    params: FMParameters,
    state: AdamState,
    lam: float,
    space: CandidateSpace,
    positive: int,
    rng: np.random.Generator,
    config: TrainConfig,
    bpr: bool = False,
    check_descent: bool = False,
) -> StepResult:
    """One sampled pairwise update of ``params`` for ``positive``.

    WARP draws up to ``max_neg_samples`` distinct negatives one at a
    time and updates on the first that violates the margin, weighted by
    phi of the estimated rank (WSABIE).  BPR draws one negative and
    always updates, weighted by sigmoid(-(s_pos - s_neg)).  ``lam`` is
    the L2 decay on the touched rows.
    """
    total_neg = len(space.universe) - len(space.positives)
    if total_neg <= 0:
        return StepResult(updated=False, draws=0, skipped=True)
    cbase, s_ctx = part_stats(params, *space.context)
    pos = space.part(positive)
    pbase, s_pos_part = part_stats(params, *pos)
    s_pos = params.w0 + cbase + pbase + s_ctx @ s_pos_part
    cap = 1 if bpr else min(config.max_neg_samples, total_neg)
    draws = 0
    for c in _negative_stream(rng, space.universe, space.positives, cap):
        draws += 1
        neg = space.part(c)
        nbase, s_neg_part = part_stats(params, *neg)
        s_neg = params.w0 + cbase + nbase + s_ctx @ s_neg_part
        hinge = config.margin - s_pos + s_neg
        if bpr:
            weight = sigmoid(s_neg - s_pos)
            loss = float(np.logaddexp(0.0, s_neg - s_pos))
        elif s_pos < config.margin + s_neg:
            weight = phi(estimate_rank(total_neg, draws))
            loss = weight * hinge
        else:
            continue
        result = StepResult(updated=True, draws=draws, loss=loss, hinge_before=hinge)
        if check_descent:
            result.hinge_after = _descent_probe(
                params, space.assemble(positive), space.assemble(c), weight, config.margin
            )
        grad = part_gradient(params, space.context, pos, neg, s_ctx, s_pos_part, s_neg_part, weight)
        if lam:
            grad.w = grad.w + lam * params.w[grad.indices]
            grad.factors = grad.factors + lam * params.factors[grad.indices]
        adam_update(params, state, grad)
        return result
    return StepResult(updated=False, draws=draws)


class _CoordinateAdam:
    """Adam over a threshold vector with per-coordinate step counts.

    Per-coordinate counts make a vectorized group update identical to
    updating its coordinates one by one, since each coordinate's moments
    and bias correction depend only on its own history.
    """

    def __init__(self, n: int, alpha: float, beta1: float, beta2: float, eps: float):
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = np.zeros(n, dtype=np.int64)
        self.alpha, self.beta1, self.beta2, self.eps = alpha, beta1, beta2, eps

    def update(self, values: np.ndarray, idx, grad: np.ndarray) -> None:
        self.t[idx] += 1
        t = self.t[idx]
        m = self.beta1 * self.m[idx] + (1.0 - self.beta1) * grad
        v = self.beta2 * self.v[idx] + (1.0 - self.beta2) * grad * grad
        self.m[idx] = m
        self.v[idx] = v
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        values[idx] -= self.alpha * m_hat / (np.sqrt(v_hat) + self.eps)


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
    adam = _CoordinateAdam(n_coords, alpha, beta1, beta2, eps)
    trace: list[float] = []
    total = sum(len(s) for s in scores_by_group)
    for _ in range(epochs):
        ce_sum = 0.0
        for scores, labels, coords in zip(scores_by_group, labels_by_group, coords_by_group):
            x = scores - delta[coords]
            ce_sum += float(np.sum(cross_entropy(x, labels)))
            grad = labels - sigmoid(x)
            adam.update(delta, coords, grad)
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
        check_descent: bool = False,
    ):
        if store.n_triples == 0:
            raise ValueError("empty training store")
        self.store = store
        self.config = config
        self.user_feats = user_feats
        self.item_feats = item_feats
        self.check_descent = check_descent
        catalog = store.catalog
        self.keen_layout = FeatureLayout.for_keen(catalog, user_feats, item_feats, config.id_onehots)
        self.act_layout = FeatureLayout.for_act(catalog, user_feats, item_feats, config.id_onehots)
        self.keen = init_params(self.keen_layout.dim, config.k, seed=config.seed + 1, scale=config.init_scale)
        self.act = init_params(self.act_layout.dim, config.k, seed=config.seed + 2, scale=config.init_scale)
        self.keen_state = AdamState.for_params(self.keen, **config.adam_kwargs())
        self.act_state = AdamState.for_params(self.act, **config.adam_kwargs())
        self.rng = np.random.Generator(np.random.PCG64(config.seed))
        self.item_universe = np.array(store.items_with_interactions(), dtype=np.int64)
        self.activity_universe = np.arange(catalog.n_activities, dtype=np.int64)
        self.report: list[tuple[int, str, str, float]] = []
        self.descent_violations = 0

    # -- phase 1: rank learning ------------------------------------------

    def warp_step_keen(self, u: int, v: int) -> StepResult:
        """One WARP step for a positive item pair; no-op without violation."""
        layout, user_feats, item_feats = self.keen_layout, self.user_feats, self.item_feats
        space = CandidateSpace(
            context=user_part(u, layout, user_feats),
            part=lambda c: item_part(c, layout, item_feats),
            universe=self.item_universe,
            positives=self.store.positive_items(u),
            assemble=lambda c: assemble_keen_input(u, c, layout, user_feats, item_feats),
        )
        result = pairwise_step(
            self.keen, self.keen_state, self.config.lambda_keen, space, v, self.rng, self.config,
            check_descent=self.check_descent,
        )
        if result.skipped:
            logger.warning("user %d is positive on every training item; keen step skipped", u)
        return result

    def warp_step_act(self, u: int, v: int, z: int) -> StepResult:
        """One WARP step for a positive activity; negatives drawn from Z."""
        layout, user_feats, item_feats = self.act_layout, self.user_feats, self.item_feats
        space = CandidateSpace(
            context=join_parts(user_part(u, layout, user_feats), item_part(v, layout, item_feats)),
            part=lambda c: activity_part(c, layout),
            universe=self.activity_universe,
            positives=self.store.positive_activities(u, v),
            assemble=lambda c: assemble_act_input(u, v, c, layout, user_feats, item_feats),
        )
        return pairwise_step(
            self.act, self.act_state, self.config.lambda_act, space, z, self.rng, self.config,
            check_descent=self.check_descent,
        )

    def _run_phase(self, epoch: int, phase: str, examples, step) -> None:
        order = self.rng.permutation(len(examples))
        losses = 0.0
        draws = 0
        updates = 0
        for i in order:
            result = step(*examples[i])
            if self.check_descent and result.updated and result.hinge_after >= result.hinge_before:
                self.descent_violations += 1
            draws += result.draws
            losses += result.loss
            updates += int(result.updated)
        n = max(len(examples), 1)
        self.report.append((epoch, phase, "warp_loss", float(losses) / n))
        self.report.append((epoch, phase, "mean_draws", draws / n))
        self.report.append((epoch, phase, "violation_rate", updates / n))
        if self.check_descent:
            self.report.append((epoch, phase, "descent_violations", float(self.descent_violations)))
        if not math.isfinite(losses) or not (self.keen.all_finite() and self.act.all_finite()):
            raise NumericalError(epoch, f"non-finite loss or parameters at epoch {epoch}")

    def run_rank_learning(self) -> None:
        """Phase 1: keen steps over the pairs, then act steps over the triples."""
        for epoch in range(self.config.epochs):
            self._run_phase(epoch, "keen_rank", self.store.keen_pairs, self.warp_step_keen)
            self._run_phase(epoch, "act_rank", self.store.triples, self.warp_step_act)

    # -- phase 2: threshold learning ---------------------------------------

    def _threshold_enum_items(self, u: int) -> np.ndarray:
        """Items a user contributes to threshold fitting: all training items,
        or positives plus a sampled negative subset when the ratio is finite."""
        ratio = self.config.threshold_negative_ratio
        if ratio == "full":
            return self.item_universe
        pos_set = self.store.positive_items(u)
        positives = sorted(pos_set)
        n_neg = math.ceil(float(ratio) * len(positives))
        negatives = np.array([v for v in self.item_universe if v not in pos_set], dtype=np.int64)
        if n_neg < len(negatives):
            chosen = self.rng.choice(len(negatives), size=n_neg, replace=False)
            negatives = negatives[np.sort(chosen)]
        return np.concatenate([np.array(positives, dtype=np.int64), negatives])

    def learn_thresholds_keen(self) -> tuple[np.ndarray, np.ndarray, list[float]]:
        """Fit per-item cutoffs on frozen keen scores.

        Returns (thresholds over the catalog, trained mask, CE trace).
        """
        scorer = Scorer(self.keen, self.keen_layout, self.user_feats, self.item_feats)
        users = self.store.users_with_interactions()
        scores_by_group, labels_by_group, coords_by_group = [], [], []
        trained = np.zeros(self.store.catalog.n_items, dtype=bool)
        for u in users:
            enum_items = self._threshold_enum_items(u)
            positives = self.store.positive_items(u)
            labels = np.array([1.0 if v in positives else 0.0 for v in enum_items])
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
            positives = self.store.positive_activities(u, v)
            labels = np.array([1.0 if z in positives else 0.0 for z in all_z])
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
    check_descent: bool = False,
) -> TrainedModel:
    """Run both phases and return the trained two-stage model."""
    trainer = Trainer(store, user_feats, item_feats, config, check_descent=check_descent)
    trainer.run_rank_learning()
    thresholds = trainer.run_threshold_learning()
    return trainer.finish(thresholds)


def write_training_report(report, path) -> None:
    """Line-delimited ``epoch<TAB>phase<TAB>metric<TAB>value`` records."""
    with open(path, "w", encoding="utf-8") as fh:
        for epoch, phase, metric, value in report:
            fh.write(f"{epoch}\t{phase}\t{metric}\t{value!r}\n")
