"""Two-phase learning: WARP rank learning, then decision-threshold fitting.

Phase 1 walks the item-level pairs and the activity-level triples once
per epoch in a seeded order, in batches of ``batch_size`` examples.  A
batch is one step with the parameters frozen: each example draws up to
``max_neg_samples`` negatives, all examples are scored together, and
each takes the first negative that violates the margin, weighted by the
harmonic transform of the estimated rank.  Their gradients are summed
into one sparse Adam update, so Adam's step count counts batches; one
example per batch is per-example SGD.  Phase 2 freezes both scorers and
fits per-item / per-activity decision thresholds with a cross-entropy
loss.  ``batch_step`` is that sampled update; the flat baselines in
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
    join_tables,
    pad_parts,
    user_part,
)
from keenact.fm import (
    AdamState,
    FMGradient,
    FMParameters,
    adam_moves,
    adam_update,
    init_params,
)
from keenact.scoring import Scorer, part_gradient, table_stats

# Not called here since the step computes its update from padded part
# tables; the traced benchmark (perfbench/layers.py) still wraps these
# names on this module, so they stay importable from it.
from keenact.features import assemble_act_input, assemble_keen_input  # noqa: F401
from keenact.fm import combine_gradients, fm_gradient  # noqa: F401
from keenact.scoring import part_stats  # noqa: F401

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
    top-ranked items.  ``batch_size`` is the number of examples per
    phase-1 step; 1 is per-example SGD.
    """

    epochs: int = 10
    batch_size: int = 16
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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and value != "full" and not math.isfinite(float(value)):
                raise ConfigError(f.name, f"{f.name} must be finite, got {value!r}")
            if type(f.default) is int and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
                raise ConfigError(f.name, f"{f.name} must be an integer, got {value!r}")
        checks = [
            ("epochs", self.epochs >= 1, "must be >= 1"),
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
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
            checks.append(("threshold_negative_ratio", float(self.threshold_negative_ratio) > 0, "must be 'full' or > 0"))
        for key, ok, rule in checks:
            if not ok:
                raise ConfigError(key, f"{key} {rule}, got {getattr(self, key)!r}")

    def adam_kwargs(self) -> dict:
        return {"alpha": self.lr, "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps}

    def to_dict(self) -> dict:
        return asdict(self)


# each key's type is its default's: int, float or bool
_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}


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
        if key not in _DEFAULTS:
            raise ConfigError(key, f"unknown config key {key!r}")
        text = str(value).strip().lower()
        try:
            if key == "threshold_negative_ratio" and text == "full":
                kwargs[key] = "full"
            elif isinstance(_DEFAULTS[key], bool):
                if text not in _BOOL_VALUES:
                    raise ValueError(f"not a boolean: {value!r}")
                kwargs[key] = _BOOL_VALUES[text]
            else:
                kwargs[key] = type(_DEFAULTS[key])(value)
        except ValueError as exc:
            raise ConfigError(key, f"bad value for {key!r}: {exc}") from None
    missing = [k for k in _DEFAULTS if k not in kwargs]
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
        if self.seen_items != frozenset(np.flatnonzero(self.thresholds.item_trained).tolist()):
            raise ValueError("seen_items differs from the items the cutoffs were trained on")

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
    """Outcome of one batched pairwise step, summed over its rows.

    ``updated`` counts the rows that took an update, ``draws`` and
    ``loss`` are summed over the rows, and ``skipped`` counts the rows
    with no negative to draw.
    """

    updated: int
    draws: int
    loss: float = 0.0
    skipped: int = 0


@dataclass
class CandidateSpace:
    """What one stage's pairwise steps rank a positive against.

    ``contexts`` is a padded (indices, values) table with one row per
    context id (a user, or a keen pair for the act stage): the part shared
    by every candidate of a step, padding last.  ``table`` is the padded
    table with one row per candidate id.  Negatives for context c are
    drawn from the sorted ``universe`` minus ``positives[c]``, the sorted
    positions of c's positive candidates in it.
    """

    contexts: tuple[np.ndarray, np.ndarray]
    table: tuple[np.ndarray, np.ndarray]
    universe: np.ndarray
    positives: list[np.ndarray]
    context_widths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # a batch gathers only the columns its widest context fills
        self.context_widths = np.maximum((self.contexts[1] != 0.0).sum(axis=1), 1)


def grouped_positions(universe: np.ndarray, ids: np.ndarray, groups: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Positions in the sorted ``universe`` of ``ids``, split by their sorted ``groups`` into one array per group id."""
    positions = np.searchsorted(universe, ids)
    bounds = np.searchsorted(groups, np.arange(n_groups + 1)).tolist()
    return [positions[a:b] for a, b in zip(bounds, bounds[1:])]


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


def _sum_rows(indices: np.ndarray, owners: np.ndarray, rows: np.ndarray, params: FMParameters, lam: float) -> FMGradient:
    """Sum gradient ``rows`` that share a parameter index, plus ``lam`` times
    that parameter row once per distinct ``owners`` entry touching it.

    ``owners`` (the batch row of each gradient row) is non-decreasing, so
    one stable sort by index keeps each index's rows in batch order.
    """
    order = np.argsort(indices, kind="stable")
    indices, owners = indices[order], owners[order]
    first = np.ones(indices.size, dtype=bool)
    first[1:] = indices[1:] != indices[:-1]
    starts = np.flatnonzero(first)
    new_owner = first.copy()
    new_owner[1:] |= owners[1:] != owners[:-1]
    summed = np.add.reduceat(rows[order], starts, axis=0)
    if lam:
        touched = np.add.reduceat(new_owner, starts).astype(np.float64)
        summed = summed + (lam * touched)[:, None] * params.table[indices[starts]]
    return FMGradient(w0=0.0, indices=indices[starts], rows=summed)


def batch_step(
    params: FMParameters,
    state: AdamState,
    lam: float,
    space: CandidateSpace,
    contexts: np.ndarray,
    positives: np.ndarray,
    rng: np.random.Generator,
    config: TrainConfig,
    bpr: bool = False,
) -> StepResult:
    """One sampled pairwise update of ``params`` over a batch of examples.

    Row r ranks candidate ``positives[r]`` for context ``contexts[r]``.
    The parameters stay frozen within the batch.  Each row draws up to
    ``max_neg_samples`` distinct negatives with ``draw_negatives``, in row
    order; a row whose context has no negative is skipped without a draw.
    Every row's context is scored with one ``table_stats`` call and every
    row's positive and negatives with one more, as one gather from the
    part table.  WARP updates a row on its first margin violator, found
    with one ``argmax``, weighted by phi of the estimated rank (WSABIE);
    its ``draws`` is that violator's 1-based position, or the number
    drawn when none violates.  BPR draws one negative and always updates,
    weighted by sigmoid(-(s_pos - s_neg)).  The updated rows' gradients
    are built as one block, with the L2 decay ``lam`` on each row's
    touched parameters, summed per parameter row, and applied as one Adam
    update, so Adam's ``t`` counts batches with an update.  The scores
    leave out w0, which cancels in every difference taken.  With one row
    per batch this is per-example SGD.
    """
    n_universe = space.universe.size
    width = 1 if bpr else config.max_neg_samples
    candidates = np.empty((len(contexts), 1 + width), dtype=np.int64)
    candidates[:, 0] = positives
    drawn = np.zeros(len(contexts), dtype=np.int64)
    total_neg = np.zeros(len(contexts), dtype=np.int64)
    for r, c in enumerate(contexts.tolist()):
        taken = space.positives[c]
        total = n_universe - taken.size
        if total > 0:
            cap = 1 if bpr else min(width, total)
            candidates[r, 1 : 1 + cap] = space.universe[draw_negatives(rng, n_universe, taken, cap)]
            drawn[r], total_neg[r] = cap, total
    live = drawn > 0
    skipped = len(contexts) - int(live.sum())
    if not live.any():
        return StepResult(updated=0, draws=0, skipped=skipped)
    contexts, drawn, total_neg = contexts[live], drawn[live], total_neg[live]
    drawn_negative = np.arange(1, int(drawn.max()) + 1) <= drawn[:, None]
    candidates = candidates[live, : 1 + drawn_negative.shape[1]]
    candidates[:, 1:] = np.where(drawn_negative, candidates[:, 1:], candidates[:, :1])

    n, n_cand = candidates.shape
    width = int(space.context_widths[contexts].max())
    cidx, cval = space.contexts[0][contexts, :width], space.contexts[1][contexts, :width]
    tidx, tval = space.table[0][candidates], space.table[1][candidates]
    cbase, s_ctx = table_stats(params, cidx, cval)
    base, s = table_stats(params, tidx.reshape(n * n_cand, -1), tval.reshape(n * n_cand, -1))
    s = s.reshape(n, n_cand, -1)
    scores = cbase[:, None] + base.reshape(n, n_cand) + (s @ s_ctx[:, :, None])[:, :, 0]

    rows = np.arange(n)
    if bpr:
        col = np.ones(n, dtype=np.int64)
        draws = col
        diff = scores[:, 1] - scores[:, 0]
        weight, losses = sigmoid(diff), np.logaddexp(0.0, diff)
    else:
        violates = (scores[:, :1] < config.margin + scores[:, 1:]) & drawn_negative
        first = violates.argmax(axis=1)
        hit = violates[rows, first]
        draws = np.where(hit, first + 1, drawn)
        rows, col = rows[hit], first[hit] + 1
        weight = np.array([phi(estimate_rank(t, d)) for t, d in zip(total_neg[rows].tolist(), col.tolist())])
        losses = weight * (config.margin - scores[rows, 0] + scores[rows, col])
    result = StepResult(updated=rows.size, draws=int(draws.sum()), loss=float(losses.sum()), skipped=skipped)
    if not rows.size:
        return result

    gradient = part_gradient(
        params, (cidx[rows], cval[rows]), (tidx[rows, 0], tval[rows, 0]), (tidx[rows, col], tval[rows, col]),
        s_ctx[rows], s[rows, 0], s[rows, col], weight,
    )
    adam_update(params, state, _sum_rows(*gradient, params, lam))
    return result


def run_phase(epoch: int, phase: str, n_examples: int, step, params: FMParameters, rng, report: list, batch_size: int) -> None:
    """One epoch of ``step`` over ``n_examples`` examples in a fresh random order.

    The order is cut into batches of ``batch_size`` example indices, and
    ``step`` takes one batch at a time.  Appends mean loss, draws and
    violation rate rows, per example, to ``report``; raises
    NumericalError on a non-finite loss sum or ``params``.
    """
    order = rng.permutation(n_examples)
    losses = 0.0
    draws = 0
    updates = 0
    for start in range(0, n_examples, batch_size):
        result = step(order[start : start + batch_size])
        draws += result.draws
        losses += result.loss
        updates += result.updated
    n = max(n_examples, 1)
    report.append((epoch, phase, "warp_loss", float(losses) / n))
    report.append((epoch, phase, "mean_draws", draws / n))
    report.append((epoch, phase, "violation_rate", updates / n))
    if not math.isfinite(losses) or not params.all_finite():
        raise NumericalError(epoch, f"non-finite loss or parameters at epoch {epoch}")


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

    A group holds each coordinate at most once and Adam is elementwise,
    so each cutoff is its own scalar recurrence over its (score, label)
    stream in group order, run ``epochs`` times in Python floats: cost is
    linear in observations x epochs.  An unobserved coordinate keeps 0.0.
    Returns (thresholds, mean CE per epoch).
    """
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
        # one part table per side serves keen and act
        user_table = pad_parts(user_part(u, self.act_layout, user_feats) for u in range(catalog.n_users))
        item_table = pad_parts(item_part(v, self.act_layout, item_feats) for v in range(catalog.n_items))
        activity_table = pad_parts(activity_part(z, self.act_layout) for z in self.activity_universe)
        # keen examples are the keen pairs; act examples are the triples,
        # each with the index of its keen pair as its context
        self.pair_users, self.pair_items = store.pair_columns
        self.triple_pairs = store.pair_ids
        self.keen_space = CandidateSpace(
            user_table, item_table, self.item_universe,
            grouped_positions(self.item_universe, self.pair_items, self.pair_users, catalog.n_users),
        )
        self.act_space = CandidateSpace(
            join_tables((user_table, self.pair_users), (item_table, self.pair_items)),
            activity_table, self.activity_universe,
            grouped_positions(self.activity_universe, store.columns[2], self.triple_pairs, self.pair_users.size),
        )
        for user in store.users_with_interactions():
            if self.keen_space.positives[user].size == self.item_universe.size:
                logger.warning("user %d is positive on every training item; its keen steps are skipped", user)
        self.report: list[tuple[int, str, str, float]] = []

    # -- phase 1: rank learning ------------------------------------------

    def warp_step_keen(self, rows: np.ndarray) -> StepResult:
        """One batched WARP step over the keen pairs ``rows``; negatives are training items."""
        return batch_step(
            self.keen, self.keen_state, self.config.lambda_keen, self.keen_space,
            self.pair_users[rows], self.pair_items[rows], self.rng, self.config,
        )

    def warp_step_act(self, rows: np.ndarray) -> StepResult:
        """One batched WARP step over the triples ``rows``; negatives are activities."""
        return batch_step(
            self.act, self.act_state, self.config.lambda_act, self.act_space,
            self.triple_pairs[rows], self.store.columns[2][rows], self.rng, self.config,
        )

    def run_rank_learning(self) -> None:
        """Phase 1: keen steps over the pairs, then act steps over the triples."""
        batch = self.config.batch_size
        for epoch in range(self.config.epochs):
            run_phase(epoch, "keen_rank", self.pair_users.size, self.warp_step_keen, self.keen, self.rng, self.report, batch)
            run_phase(epoch, "act_rank", self.store.n_triples, self.warp_step_act, self.act, self.rng, self.report, batch)

    # -- phase 2: threshold learning ---------------------------------------

    def _threshold_enum_items(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Items a user contributes to threshold fitting and their 0/1 labels:
        all training items, or positives plus a sampled negative subset when
        the ratio is finite."""
        positives = self.keen_space.positives[u]
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
        items, labels = zip(*(self._threshold_enum_items(u) for u in users))
        trained = np.zeros(self.store.catalog.n_items, dtype=bool)
        trained[np.concatenate(items)] = True
        delta, trace = fit_thresholds(
            [scorer.score_items(u, enum) for u, enum in zip(users, items)], labels, items, trained.size,
            self.config.threshold_epochs, **self.config.adam_kwargs(),
        )
        return delta, trained, trace

    def learn_thresholds_act(self) -> tuple[np.ndarray, list[float]]:
        """Fit per-activity cutoffs on frozen act scores over positive pairs."""
        scorer = Scorer(self.act, self.act_layout, self.user_feats, self.item_feats)
        pairs, all_z = self.store.keen_pairs, self.activity_universe
        labels = np.zeros((len(pairs), all_z.size))
        labels[self.triple_pairs, self.store.columns[2]] = 1.0
        return fit_thresholds(
            [scorer.score_activities(u, v) for u, v in pairs], list(labels), [all_z] * len(pairs), all_z.size,
            self.config.threshold_epochs, **self.config.adam_kwargs(),
        )

    def run_threshold_learning(self) -> ThresholdTable:
        item_delta, trained, keen_trace = self.learn_thresholds_keen()
        act_delta, act_trace = self.learn_thresholds_act()
        fits = (("keen_threshold", keen_trace, item_delta), ("act_threshold", act_trace, act_delta))
        for phase, trace, delta in fits:
            for epoch, ce in enumerate(trace):
                self.report.append((epoch, phase, "mean_ce", ce))
            if not (all(map(math.isfinite, trace)) and np.isfinite(delta).all()):
                raise NumericalError(len(trace) - 1, f"non-finite {phase} cross-entropy or cutoff")
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
