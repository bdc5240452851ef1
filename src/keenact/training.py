"""Two-phase learning: WARP rank learning, then decision-threshold fitting.

Phase 1 walks the item-level pairs and the activity-level triples once
per epoch in a seeded order, in batches of ``batch_size`` examples.
WARP's negatives do not depend on the parameters, so one
``sample_negatives`` call per stage and epoch draws up to
``max_neg_samples`` distinct negatives for every example, and each
batch takes a slice of that block; the draws therefore do not depend on
``batch_size``.  A batch is one step with the parameters frozen: all its
examples are scored together, and each takes the first negative that
violates the margin, weighted by the harmonic transform of the
estimated rank.  Their gradients are summed into one sparse Adam
update, so Adam's step count counts batches; one example per batch is
per-example SGD.  No part of a step loops over its examples in Python.
Phase 2 freezes both scorers and fits per-item / per-activity decision
thresholds with a cross-entropy loss.  ``batch_step`` is that sampled
update; the flat baselines in ``evaluation`` run it too.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from keenact.data import Catalog, InteractionStore
from keenact.features import FeatureLayout, FeatureMatrix, join_tables, part_tables
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


# what a key accepts, by its default's type; a bool is only ever a bool
_KEY_TYPES = {bool: (bool, np.bool_), int: (int, np.integer), float: (int, float, np.integer, np.floating)}


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
            if f.name == "threshold_negative_ratio" and isinstance(value, str) and value == "full":
                continue
            kind = type(f.default)
            if not isinstance(value, _KEY_TYPES[kind]) or (kind is not bool and isinstance(value, bool)):
                raise ConfigError(f.name, f"{f.name} takes {kind.__name__} values, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ConfigError(f.name, f"{f.name} must be finite, got {value!r}")
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
            checks.append(("threshold_negative_ratio", self.threshold_negative_ratio > 0, "must be 'full' or > 0"))
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


def scorer_pair(model, item_trained: np.ndarray) -> tuple[Scorer, Scorer]:
    """The (keen, act) batch scorers of a ``Trainer`` or ``TrainedModel``;
    items outside ``item_trained`` score feature-only."""
    return tuple(
        Scorer(params, layout, model.user_feats, model.item_feats, item_trained)
        for params, layout in ((model.keen, model.keen_layout), (model.act, model.act_layout))
    )


@dataclass
class TrainedModel:
    """Both scorers, their layouts and features, the threshold table and the id catalog."""

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
    catalog: Catalog
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
        """The (keen, act) batch scorers: the pair phase 2 scored with, or for a
        loaded model a pair built on first use over the cutoff table's trained mask."""
        if self._scorers is None:
            self._scorers = scorer_pair(self, self.thresholds.item_trained)
        return self._scorers


def harmonic_numbers(n: int) -> np.ndarray:
    """H_0 .. H_n as an array, H_m = sum_{i=1..m} 1/i summed in order."""
    return np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, n + 1))))


def phi(n: int) -> float:
    """Harmonic number H_n = sum_{i=1..n} 1/i; phi(0) = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(harmonic_numbers(n)[n])


def estimate_rank(total_negatives: int, draws_to_violation: int) -> int:
    """Sampled rank estimate floor((total - 1) / draws), clamped to >= 1."""
    if total_negatives < 1 or draws_to_violation < 1:
        raise ValueError("counts must be >= 1")
    return max(1, (total_negatives - 1) // draws_to_violation)


def warp_weights(total_negatives: np.ndarray, draws: np.ndarray, harmonic: np.ndarray) -> np.ndarray:
    """phi(estimate_rank(t, d)) elementwise for counts >= 1, looked up in
    ``harmonic = harmonic_numbers(n)`` with n >= max(t) - 1."""
    return harmonic[np.maximum(1, (total_negatives - 1) // draws)]


def sigmoid(x):
    """1 / (1 + exp(-x)) elementwise, overflow-free; a 0-d input gives a float."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))  # exp(-|x|), keeping a NaN's sign
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
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
    drawn from the sorted ``universe`` minus c's positives.  The positives
    are two aligned columns, ``positive_contexts`` and ``positive_ids``,
    sorted by (context, id) without repeats; every id is in ``universe``.
    Each positive is one training example of the stage.

    The derived arrays serve ``sample_negatives``: ``positions`` holds each
    positive's position in ``universe``, c's run of them starting at
    ``key_starts[c]``; ``n_negatives[c]`` counts c's negatives; and
    ``rank_keys`` holds, per positive, ``c * (|universe| + 1) +
    positions[j] - (j - key_starts[c])``.  The r-th negative of c
    (0-based, in universe order) sits at position r plus the number of
    c's keys at or below ``c * (|universe| + 1) + r``.  ``harmonic`` is
    phi(0) .. phi(|universe|).
    """

    contexts: tuple[np.ndarray, np.ndarray]
    table: tuple[np.ndarray, np.ndarray]
    universe: np.ndarray
    positive_contexts: np.ndarray
    positive_ids: np.ndarray
    context_widths: np.ndarray = field(init=False, repr=False)
    positions: np.ndarray = field(init=False, repr=False)
    key_starts: np.ndarray = field(init=False, repr=False)
    n_negatives: np.ndarray = field(init=False, repr=False)
    rank_keys: np.ndarray = field(init=False, repr=False)
    harmonic: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # a batch gathers only the columns its widest context fills
        self.context_widths = np.maximum((self.contexts[1] != 0.0).sum(axis=1), 1)
        self.positions = np.searchsorted(self.universe, self.positive_ids)
        self.key_starts = np.searchsorted(self.positive_contexts, np.arange(len(self.contexts[0]) + 1))
        self.n_negatives = self.universe.size - np.diff(self.key_starts)
        within = np.arange(self.positions.size) - self.key_starts[self.positive_contexts]
        self.rank_keys = self.positive_contexts * (self.universe.size + 1) + self.positions - within
        self.harmonic = harmonic_numbers(self.universe.size)


def trained_item_mask(store: InteractionStore) -> np.ndarray:
    """Which catalog items the store holds an interaction on: the items a
    model ranks against, fits cutoffs for and scores with their one-hot."""
    trained = np.zeros(store.catalog.n_items, dtype=bool)
    trained[store.columns[1]] = True
    return trained


# rows whose random keys sample_negatives sorts at once
SORT_CHUNK = 1024


def sample_negatives(
    rng: np.random.Generator, space: CandidateSpace, contexts: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct negatives for a batch of ``contexts``, uniform without replacement.

    Returns ``(positions, counts, total_neg)``: row r of the padded
    ``positions`` block starts with ``counts[r] = min(cap, total_neg[r])``
    distinct universe positions of negatives of ``contexts[r]``, the first
    ``counts[r]`` of a uniform random permutation of its negatives; the
    rest of the row is -1 padding.  A row with no negative gets 0 and takes
    no draw.  Negatives are drawn as ranks in universe order.  Dense rows
    (2 * cap >= total) sort random keys over their ranks.  Sparse rows
    draw 2 * cap ranks with replacement, drop repeats, and keep the
    distinct ranks with the ``cap`` smallest random keys, in key order;
    a row left with fewer than ``cap`` distinct ranks is redrawn whole.
    Both are symmetric in the ranks, so every ordered ``cap``-tuple is
    equally likely; sparse rows cost O(cap), not O(|universe|).  One
    ``searchsorted`` over ``space.rank_keys`` maps ranks to positions.
    """
    total_neg = space.n_negatives[contexts]
    counts = np.minimum(cap, total_neg)
    ranks = np.zeros((contexts.size, int(counts.max(initial=0))), dtype=np.int64)
    sparse = 2 * cap < total_neg
    dense = np.flatnonzero(~sparse & (total_neg > 0))
    if dense.size:
        top = total_neg[dense]
        keys = rng.random((dense.size, int(top.max())))
        keys[np.arange(keys.shape[1]) >= top[:, None]] = np.inf
        width = min(ranks.shape[1], keys.shape[1])
        ranks[dense, :width] = np.argsort(keys, axis=1)[:, :width]
    todo = np.flatnonzero(sparse)
    while todo.size:
        drawn = rng.integers(0, total_neg[todo, None], size=(todo.size, 2 * cap))
        drawn.sort(axis=1)
        repeat = drawn[:, 1:] == drawn[:, :-1]
        keys = rng.random(drawn.shape)
        keys[:, 1:][repeat] = np.inf
        short = repeat.sum(axis=1) > cap  # fewer than cap distinct of 2 * cap
        del repeat
        # a short row's ranks are overwritten when it is redrawn; rows go
        # SORT_CHUNK at a time, so only a chunk's key order is held
        for lo in range(0, todo.size, SORT_CHUNK):
            part = slice(lo, lo + SORT_CHUNK)
            ranks[todo[part]] = np.take_along_axis(drawn[part], np.argsort(keys[part], axis=1)[:, :cap], axis=1)
        del drawn, keys
        todo = todo[short]
    positions = np.searchsorted(space.rank_keys, contexts[:, None] * (space.universe.size + 1) + ranks, side="right")
    positions += ranks
    positions -= space.key_starts[contexts, None]
    if counts.min(initial=ranks.shape[1]) < ranks.shape[1]:
        positions[np.arange(ranks.shape[1]) >= counts[:, None]] = -1
    return positions, counts, total_neg


def draw_block(rng, space: CandidateSpace, examples: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``examples`` (indices into the space's positive columns), in their
    order, with up to ``cap`` negatives each from one ``sample_negatives`` call.

    Returns ``(contexts, candidates)``: row r ranks ``candidates[r, 0]``, a
    positive of context ``contexts[r]``, against the min(cap, negatives of
    that context) drawn after it; the rest of the row repeats the positive.
    """
    contexts, positives = space.positive_contexts[examples], space.positive_ids[examples, None]
    at, _, _ = sample_negatives(rng, space, contexts, cap)
    candidates = np.concatenate((positives, np.where(at >= 0, space.universe[at], positives)), axis=1)
    return contexts, candidates


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
    batch: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
    bpr: bool = False,
) -> StepResult:
    """One sampled pairwise update of ``params`` over a batch of examples.

    ``batch`` is ``(contexts, candidates)``, rows of a ``draw_block``
    result (``run_phase`` draws a whole epoch's with one call); the step
    only does the work that reads the parameters, which stay frozen within
    the batch.  The block is one column wider than its largest draw, so
    row r drew min(width - 1, its context's negatives) negatives, as
    ``sample_negatives`` counted; a row with none is skipped.  Every row's
    context is scored with one ``table_stats`` call and every row's
    positive and negatives with one more, as one gather from the part
    table.  WARP updates a row on its first margin violator, found with
    one ``argmax``, weighted by phi of the estimated rank (WSABIE), looked
    up for all rows in the space's harmonic table; its ``draws`` is that
    violator's 1-based position, or the number drawn when none violates.
    BPR takes a block drawn with ``cap`` 1 and always updates, weighted by
    sigmoid(-(s_pos - s_neg)).  The updated rows' gradients are built as
    one block, with the L2 decay ``lam`` on each row's touched parameters,
    summed per parameter row, and applied as one Adam update, so Adam's
    ``t`` counts batches with an update.  The scores leave out w0, which
    cancels in every difference taken.  With one row per batch this is
    per-example SGD.
    """
    contexts, candidates = batch
    total_neg = space.n_negatives[contexts]
    counts = np.minimum(candidates.shape[1] - 1, total_neg)
    live = counts > 0
    skipped = live.size - int(live.sum())
    if skipped == live.size:
        return StepResult(updated=0, draws=0, skipped=skipped)
    if skipped:
        contexts, candidates, total_neg, counts = contexts[live], candidates[live], total_neg[live], counts[live]

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
        drawn = np.arange(n_cand - 1) < counts[:, None]
        violates = (scores[:, :1] < config.margin + scores[:, 1:]) & drawn
        first = violates.argmax(axis=1)
        hit = violates[rows, first]
        draws = np.where(hit, first + 1, counts)
        rows, col = rows[hit], first[hit] + 1
        weight = warp_weights(total_neg[rows], col, space.harmonic)
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


def run_phase(
    epoch: int, phase: str, space: CandidateSpace, cap: int, step, params: FMParameters, rng, report: list, batch_size: int
) -> None:
    """One epoch of ``step`` over the space's examples (its positives) in a fresh random order.

    One ``draw_block`` call draws up to ``cap`` negatives for every
    example of the epoch, in that order, and ``step`` takes both of its
    arrays one slice of ``batch_size`` rows at a time, so the RNG's use
    does not depend on ``batch_size``.  Appends mean loss, draws and
    violation rate rows, per example, to ``report``; raises
    NumericalError on a non-finite loss sum or ``params``.
    """
    n_examples = space.positive_ids.size
    contexts, candidates = draw_block(rng, space, rng.permutation(n_examples), cap)
    losses = 0.0
    draws = 0
    updates = 0
    for start in range(0, n_examples, batch_size):
        rows = slice(start, start + batch_size)
        result = step((contexts[rows], candidates[rows]))
        draws += result.draws
        losses += result.loss
        updates += result.updated
    n = max(n_examples, 1)
    report.append((epoch, phase, "warp_loss", float(losses) / n))
    report.append((epoch, phase, "mean_draws", draws / n))
    report.append((epoch, phase, "violation_rate", updates / n))
    if not math.isfinite(losses) or not params.all_finite():
        raise NumericalError(epoch, f"non-finite loss or parameters at epoch {epoch}")


# One lockstep step costs about this many scalar observations: 22-45 us
# against 0.37-0.82 us, a ratio of 51-75 with median 60 (numpy 2.4, 2 cores).
LOCKSTEP_STEP_COST = 60


def split_streams(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(scalar, lockstep): the observed cutoffs, longest stream first, in
    the regime ``fit_thresholds`` runs each in.

    With the n stream lengths sorted so that l_1 >= ... >= l_n, running
    the s longest as scalar recurrences and the rest in lockstep costs
    l_1 + ... + l_s + LOCKSTEP_STEP_COST * l_{s+1} per epoch (l_{n+1} = 0):
    scalar observations, plus one array step per position of the longest
    lockstep stream.  The split takes the smallest s of least cost.
    """
    lengths = np.asarray(lengths)
    by_length = np.argsort(-lengths, kind="stable")[: np.count_nonzero(lengths)]
    sorted_lengths = lengths[by_length]
    cost = np.concatenate(([0], np.cumsum(sorted_lengths))) + LOCKSTEP_STEP_COST * np.append(sorted_lengths, 0)
    n_scalar = int(np.argmin(cost))
    return by_length[:n_scalar], by_length[n_scalar:]


def _bias_corrections(beta: float, n: int) -> list[float]:
    """1 - beta**t for t = 1 .. n.  Once that rounds to 1.0 it stays 1.0,
    so the rest of the list is filled without computing the power."""
    out = []
    for t in range(1, n + 1):
        out.append(1.0 - beta**t)
        if out[-1] == 1.0:
            break
    return out + [1.0] * (n - len(out))


def _scalar_fit(scores: list, labels: list, epochs: int, corrections: list, adam: tuple) -> tuple[float, list]:
    """One cutoff's Adam recurrence over its stream, in Python floats:
    (cutoff, CE sum per epoch).

    Each observation is ``adam_moves`` on floats, with the logistic and
    softplus of ``cross_entropy`` in their overflow-free branches and
    ``1 - beta**t`` read from ``corrections``, two lists indexed by t - 1.
    """
    alpha, beta1, beta2, eps = adam
    bias1, bias2 = corrections
    keep1, keep2 = 1.0 - beta1, 1.0 - beta2
    exp, log1p = math.exp, math.log1p  # locals: the loop runs once per observation
    cutoff = m = v = 0.0
    n = len(scores)
    ce = []
    for epoch in range(epochs):
        ce_sum = 0.0
        first = epoch * n
        for score, label, c1, c2 in zip(scores, labels, bias1[first : first + n], bias2[first : first + n]):
            x = score - cutoff
            if x >= 0.0:
                e = exp(-x)
                grad = label - 1.0 / (1.0 + e)
                ce_sum += x + log1p(e) - label * x
            else:
                e = exp(x)
                grad = label - e / (1.0 + e)
                ce_sum += log1p(e) - label * x
            m = beta1 * m + keep1 * grad
            v = beta2 * v + keep2 * grad * grad
            cutoff -= alpha * (m / c1) / ((v / c2) ** 0.5 + eps)
        ce.append(ce_sum)
    return cutoff, ce


def _lockstep_fit(
    scores: np.ndarray, labels: np.ndarray, starts: np.ndarray, lengths: np.ndarray, epochs: int, adam: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Adam recurrences of many cutoffs, one array step per stream position:
    (cutoffs, CE sums as a (cutoffs, epochs) array).

    Cutoff i's stream is ``scores``/``labels`` from ``starts[i]``, of
    ``lengths[i]`` observations, and ``lengths`` does not increase, so the
    n cutoffs still in their stream at position j are a prefix; their
    observations there are gathered once, before the first epoch.
    """
    n_live = np.searchsorted(-lengths, -np.arange(lengths[0])).tolist()
    at = [starts[:n] + j for j, n in enumerate(n_live)]
    positions = [(n, scores[i], labels[i]) for n, i in zip(n_live, at)]
    delta, m, v = np.zeros(lengths.size), np.zeros(lengths.size), np.zeros(lengths.size)
    ce = np.zeros((lengths.size, epochs))
    for epoch in range(epochs):
        ce_sum = np.zeros(lengths.size)
        t0 = epoch * lengths + 1
        for j, (n, score, y) in enumerate(positions):
            x = score - delta[:n]
            ce_sum[:n] += cross_entropy(x, y)
            m[:n], v[:n], step = adam_moves(m[:n], v[:n], y - sigmoid(x), t0[:n] + j, *adam)
            delta[:n] -= step
        ce[:, epoch] = ce_sum
    return delta, ce


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

    Adam is elementwise, so each cutoff is its own recurrence over its
    stream, its coordinate's (score, label) observations in the order of
    the groups concatenated, run ``epochs`` times; cost is linear in
    observations x epochs.  ``split_streams`` splits the cutoffs by
    stream length: the longest run as scalar recurrences in Python
    floats, and the rest in lockstep, one array step per stream
    position.  An unobserved coordinate keeps 0.0.  Returns (thresholds,
    mean CE per epoch), the CE sums added in coordinate order.
    """
    delta = np.zeros(n_coords)
    total = sum(len(s) for s in scores_by_group)
    if not total:
        return delta, [0.0] * epochs
    coords = np.concatenate(coords_by_group)
    order = np.argsort(coords, kind="stable")
    scores = np.concatenate(scores_by_group)[order]
    labels = np.concatenate(labels_by_group)[order]
    lengths = np.bincount(coords, minlength=n_coords)
    starts = np.cumsum(lengths) - lengths
    ce = np.zeros((n_coords, epochs))
    adam = (alpha, beta1, beta2, eps)
    scalar, lockstep = split_streams(lengths)
    if scalar.size:
        longest = epochs * int(lengths[scalar[0]])
        corrections = [_bias_corrections(beta, longest) for beta in (beta1, beta2)]
        for c in scalar.tolist():
            stream = slice(starts[c], starts[c] + lengths[c])
            delta[c], ce[c] = _scalar_fit(scores[stream].tolist(), labels[stream].tolist(), epochs, corrections, adam)
    if lockstep.size:
        delta[lockstep], ce[lockstep] = _lockstep_fit(scores, labels, starts[lockstep], lengths[lockstep], epochs, adam)
    # np.add.accumulate adds strictly in order, where a sum may pair terms
    return delta, [ce_sum / total for ce_sum in np.add.accumulate(ce, axis=0)[-1].tolist()]


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
        self.item_trained = trained_item_mask(store)
        self.item_universe = np.flatnonzero(self.item_trained)
        self.activity_universe = np.arange(catalog.n_activities, dtype=np.int64)
        # user and item blocks sit at the same offsets in both layouts, so
        # one part table per side serves keen and act
        user_table, item_table, activity_table = part_tables(self.act_layout, user_feats, item_feats)
        # keen examples are the keen pairs; act examples are the triples,
        # each with the index of its keen pair as its context
        pair_users, pair_items = store.pair_columns
        self.keen_space = CandidateSpace(user_table, item_table, self.item_universe, pair_users, pair_items)
        self.act_space = CandidateSpace(
            join_tables((user_table, pair_users), (item_table, pair_items)),
            activity_table, self.activity_universe, store.pair_ids, store.columns[2],
        )
        for user in np.flatnonzero(self.keen_space.n_negatives == 0):
            logger.warning("user %d is positive on every training item; its keen steps are skipped", user)
        self.report: list[tuple[int, str, str, float]] = []
        self.scorers: tuple[Scorer, Scorer] | None = None

    # -- phase 1: rank learning ------------------------------------------

    def warp_step_keen(self, batch: tuple[np.ndarray, np.ndarray]) -> StepResult:
        """One batched WARP step over drawn keen pairs; negatives are training items."""
        return batch_step(self.keen, self.keen_state, self.config.lambda_keen, self.keen_space, batch, self.config)

    def warp_step_act(self, batch: tuple[np.ndarray, np.ndarray]) -> StepResult:
        """One batched WARP step over drawn triples; negatives are activities."""
        return batch_step(self.act, self.act_state, self.config.lambda_act, self.act_space, batch, self.config)

    def run_rank_learning(self) -> None:
        """Phase 1: keen steps over the pairs, then act steps over the triples."""
        cap, batch = self.config.max_neg_samples, self.config.batch_size
        for epoch in range(self.config.epochs):
            run_phase(epoch, "keen_rank", self.keen_space, cap, self.warp_step_keen, self.keen, self.rng, self.report, batch)
            run_phase(epoch, "act_rank", self.act_space, cap, self.warp_step_act, self.act, self.rng, self.report, batch)

    # -- phase 2: threshold learning ---------------------------------------

    def _threshold_enum_items(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Items a user contributes to threshold fitting and their 0/1 labels:
        the positives, then all other training items or, when the ratio is
        finite, a sampled subset of them, in universe order."""
        space = self.keen_space
        positives = space.positions[space.key_starts[u] : space.key_starts[u + 1]]
        negatives = np.delete(self.item_universe, positives)
        ratio = self.config.threshold_negative_ratio
        if ratio != "full":
            n_neg = math.ceil(float(ratio) * positives.size)
            if n_neg < negatives.size:
                negatives = negatives[np.sort(self.rng.choice(negatives.size, size=n_neg, replace=False))]
        items = np.concatenate([self.item_universe[positives], negatives])
        labels = np.zeros(items.size)
        labels[: positives.size] = 1.0
        return items, labels

    def learn_thresholds_keen(self, scorer: Scorer) -> tuple[np.ndarray, list[float]]:
        """Fit per-item cutoffs on the frozen keen ``scorer``; returns (cutoffs over the catalog, CE trace).

        One group holds every user's items, user after user, so each item's stream runs in user order."""
        users = np.flatnonzero(np.diff(self.keen_space.key_starts)).tolist()
        items, labels = zip(*(self._threshold_enum_items(u) for u in users))
        scores = np.concatenate([scorer.score_items(u)[enum] for u, enum in zip(users, items)])
        return fit_thresholds(
            [scores], [np.concatenate(labels)], [np.concatenate(items)], self.item_trained.size,
            self.config.threshold_epochs, **self.config.adam_kwargs(),
        )

    def learn_thresholds_act(self, scorer: Scorer) -> tuple[np.ndarray, list[float]]:
        """Fit per-activity cutoffs on the frozen act ``scorer`` over positive pairs.

        The pairs are the keen space's positives, sorted by user, so each
        user's rows come from one ``score_pair_matrix`` call, which cuts
        them from the whole-catalog item terms.  One group holds the score
        matrix row by row, so each activity's stream runs in pair order.
        """
        keen, act = self.keen_space, self.act_space
        starts = keen.key_starts.tolist()
        users = np.flatnonzero(np.diff(keen.key_starts)).tolist()
        scores = np.concatenate([scorer.score_pair_matrix(u, keen.positive_ids[starts[u] : starts[u + 1]]) for u in users])
        labels = np.zeros(scores.shape)
        labels[act.positive_contexts, act.positive_ids] = 1.0
        return fit_thresholds(
            [scores.ravel()], [labels.ravel()], [np.tile(self.activity_universe, len(scores))], scores.shape[1],
            self.config.threshold_epochs, **self.config.adam_kwargs(),
        )

    def run_threshold_learning(self) -> ThresholdTable:
        """Phase 2: build the frozen (keen, act) scorers once, kept as ``scorers``, and fit both cutoff tables."""
        self.scorers = scorer_pair(self, self.item_trained)
        item_delta, keen_trace = self.learn_thresholds_keen(self.scorers[0])
        act_delta, act_trace = self.learn_thresholds_act(self.scorers[1])
        fits = (("keen_threshold", keen_trace, item_delta), ("act_threshold", act_trace, act_delta))
        for phase, trace, delta in fits:
            for epoch, ce in enumerate(trace):
                self.report.append((epoch, phase, "mean_ce", ce))
            if not (all(map(math.isfinite, trace)) and np.isfinite(delta).all()):
                raise NumericalError(len(trace) - 1, f"non-finite {phase} cross-entropy or cutoff")
        return ThresholdTable(
            item_thresholds=item_delta,
            activity_thresholds=act_delta,
            global_item_fallback=float(item_delta[self.item_trained].mean()),
            item_trained=self.item_trained,
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
            seen_items=frozenset(self.item_universe.tolist()),
            report=self.report,
            config=self.config,
            catalog=self.store.catalog,
            _scorers=self.scorers,
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
