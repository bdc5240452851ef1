"""Turning a trained two-stage model into recommendations.

Stage one keeps the items whose keen score clears the per-item cutoff;
stage two keeps, for those items only, the activities whose act score
clears the per-activity cutoff.  A recommendation is the pair of both
positive decisions, ordered by keen score and then by act score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from keenact.training import TrainedModel


class StageOrderError(RuntimeError):
    """Activity selection was asked for an item that stage one rejected."""


@dataclass(frozen=True)
class Recommendation:
    item: int
    activity: int
    keen_score: float
    act_score: float


@dataclass
class RecommendationList:
    """Ordered recommendations for one user.

    Entries are sorted by keen score descending, then act score
    descending within an item, with ascending ids breaking exact ties.
    """

    user: int
    entries: list[Recommendation]

    def pairs(self) -> set[tuple[int, int]]:
        return {(e.item, e.activity) for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def is_ordered(self) -> bool:
        keys = [(-e.keen_score, e.item, -e.act_score, e.activity) for e in self.entries]
        return keys == sorted(keys)


def _check_user(model: TrainedModel, u: int) -> None:
    if not 0 <= u < model.n_users:
        raise ValueError(f"unknown user index {u}")


def _item_order(scores: np.ndarray, items: np.ndarray) -> np.ndarray:
    # lexsort uses the last key as primary: score descending, id ascending
    return np.lexsort((items, -scores))


def select_items(model: TrainedModel, u: int, items: np.ndarray | None = None) -> np.ndarray:
    """Items whose keen score meets their cutoff, ascending ids.

    Items unseen at training time are scored without their identity
    one-hot and compared against the global fallback cutoff.
    """
    _check_user(model, u)
    keen_scorer, _ = model.scorers()
    if items is None:
        items = np.arange(model.n_items, dtype=np.int64)
    else:
        items = np.asarray(items, dtype=np.int64)
    scores = keen_scorer.score_items(u, items)
    cutoffs = model.thresholds.effective_item_thresholds()[items]
    return items[scores >= cutoffs]


def select_activities(model: TrainedModel, u: int, v: int, verify_item: bool = True) -> np.ndarray:
    """Activities on item ``v`` whose act score meets their cutoff.

    Stage two is only defined for items stage one selected; by default
    that contract is checked and violations raise StageOrderError.
    """
    _check_user(model, u)
    if not 0 <= v < model.n_items:
        raise ValueError(f"unknown item index {v}")
    if verify_item and len(select_items(model, u, np.array([v]))) == 0:
        raise StageOrderError(f"item {v} was not selected for user {u}")
    _, act_scorer = model.scorers()
    scores = act_scorer.score_activities(u, v)
    cutoffs = model.thresholds.activity_thresholds
    return np.flatnonzero(scores >= cutoffs).astype(np.int64)


def decide(model: TrainedModel, u: int, v: int, z: int) -> bool:
    """True when both stages accept: keen(u, v) and act(u, v, z)."""
    _check_user(model, u)
    if not 0 <= v < model.n_items:
        raise ValueError(f"unknown item index {v}")
    if not 0 <= z < model.n_activities:
        raise ValueError(f"unknown activity index {z}")
    if len(select_items(model, u, np.array([v]))) == 0:
        return False
    return z in select_activities(model, u, v, verify_item=False)


def recommend(model: TrainedModel, u: int, k: int | None = None) -> RecommendationList:
    """Ranked (item, activity) pairs accepted by both stages.

    Items with no accepted activity are dropped.  ``k`` truncates the
    flattened pair list; None keeps everything.
    """
    _check_user(model, u)
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    keen_scorer, act_scorer = model.scorers()
    items = np.arange(model.n_items, dtype=np.int64)
    keen_scores = keen_scorer.score_items(u, items)
    cutoffs = model.thresholds.effective_item_thresholds()
    selected = items[keen_scores >= cutoffs]
    act_cutoffs = model.thresholds.activity_thresholds
    entries: list[Recommendation] = []
    for v in selected[_item_order(keen_scores[selected], selected)]:
        act_scores = act_scorer.score_activities(u, int(v))
        kept = np.flatnonzero(act_scores >= act_cutoffs)
        if len(kept) == 0:
            continue
        for z in kept[_item_order(act_scores[kept], kept)]:
            entries.append(
                Recommendation(
                    item=int(v),
                    activity=int(z),
                    keen_score=float(keen_scores[v]),
                    act_score=float(act_scores[z]),
                )
            )
        if k is not None and len(entries) >= k:
            break
    if k is not None:
        entries = entries[:k]
    return RecommendationList(user=u, entries=entries)


def recommendation_lines(recs: list[RecommendationList], catalog):
    """``user_id<TAB>item_id<TAB>activity<TAB>keen_score<TAB>act_score<TAB>rank`` per pair."""
    for rec in recs:
        for rank, entry in enumerate(rec.entries, start=1):
            yield (
                f"{catalog.users[rec.user]}\t{catalog.items[entry.item]}\t"
                f"{catalog.activities[entry.activity]}\t{entry.keen_score!r}\t"
                f"{entry.act_score!r}\t{rank}"
            )


def write_recommendations(recs: list[RecommendationList], path, catalog) -> None:
    """Write ``recommendation_lines`` to ``path``, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in recommendation_lines(recs, catalog))
