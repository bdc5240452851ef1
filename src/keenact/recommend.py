"""Turning a trained two-stage model into recommendations.

Stage one keeps the items whose keen score clears the per-item cutoff;
stage two keeps, for those items only, the activities whose act score
clears the per-activity cutoff.  A recommendation is the pair of both
positive decisions, ordered by keen score and then by act score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from keenact.training import TrainedModel


class StageOrderError(RuntimeError):
    """Activity selection was asked for an item that stage one rejected."""


class Recommendation(NamedTuple):
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


def _check_item(model: TrainedModel, v: int) -> None:
    if not 0 <= v < model.n_items:
        raise ValueError(f"unknown item index {v}")


def keen_stage(model: TrainedModel, u: int, items: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Keen scores of ``items`` (default: every item) and which of them stage one accepts.

    An item is accepted when its score is at least its cutoff; items
    unseen at training time score without their identity one-hot and
    face the global fallback cutoff.  A subset is cut from the whole
    catalog's scores: a product over fewer rows can round differently in
    the last bit, and a score that ties its cutoff would then be decided
    differently here than in ``accepted_pairs``.
    """
    keen_scorer, _ = model.scorers()
    scores = keen_scorer.score_items(u)
    accepted = scores >= model.thresholds.effective_item_thresholds()
    return (scores, accepted) if items is None else (scores[items], accepted[items])


def act_stage(model: TrainedModel, u: int, items: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Act scores as an (items, activities) matrix and which pairs stage two accepts.

    A pair is accepted when its score is at least its activity's cutoff.
    Like ``keen_stage``, a subset is cut from the whole catalog's scores.
    """
    _, act_scorer = model.scorers()
    scores = act_scorer.score_pair_matrix(u)
    accepted = scores >= model.thresholds.activity_thresholds
    return (scores, accepted) if items is None else (scores[items], accepted[items])


def select_items(model: TrainedModel, u: int, items: np.ndarray | None = None) -> np.ndarray:
    """Items stage one accepts, in the order given (default: ascending ids)."""
    _check_user(model, u)
    if items is None:
        return np.flatnonzero(keen_stage(model, u)[1])
    items = np.asarray(items, dtype=np.int64)
    return items[keen_stage(model, u, items)[1]]


def select_activities(model: TrainedModel, u: int, v: int) -> np.ndarray:
    """Activities on item ``v`` that stage two accepts, ascending ids.

    Stage two is only defined for items stage one selected; asking about
    any other item raises StageOrderError.
    """
    _check_user(model, u)
    _check_item(model, v)
    if not keen_stage(model, u, np.array([v]))[1][0]:
        raise StageOrderError(f"item {v} was not selected for user {u}")
    return np.flatnonzero(act_stage(model, u, np.array([v]))[1][0])


def decide(model: TrainedModel, u: int, v: int, z: int) -> bool:
    """True when both stages accept: keen(u, v) and act(u, v, z)."""
    _check_user(model, u)
    _check_item(model, v)
    if not 0 <= z < model.n_activities:
        raise ValueError(f"unknown activity index {z}")
    item = np.array([v])
    return bool(keen_stage(model, u, item)[1][0] and act_stage(model, u, item)[1][0, z])


def accepted_pairs(model: TrainedModel, u: int, k: int | None = None) -> tuple[np.ndarray, ...]:
    """Items, activities, keen scores and act scores of the pairs both stages accept.

    The four arrays are in list order: keen score descending, then act
    score descending within an item, ascending ids breaking exact ties.
    ``k`` keeps the first k pairs; None keeps everything.
    """
    _check_user(model, u)
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    keen, keen_ok = keen_stage(model, u)
    act, act_ok = act_stage(model, u)
    items = np.flatnonzero(keen_ok)
    # lexsort's last key is primary: keen score descending, then item id
    items = items[np.lexsort((items, -keen[items]))]
    # a stable sort keeps ascending activity ids among equal act scores
    order = np.argsort(-act[items], axis=1, kind="stable")
    rows, cols = np.nonzero(np.take_along_axis(act_ok[items], order, axis=1))
    pair_items, pair_acts = items[rows[:k]], order[rows[:k], cols[:k]]
    return pair_items, pair_acts, keen[pair_items], act[pair_items, pair_acts]


def recommend(model: TrainedModel, u: int, k: int | None = None) -> RecommendationList:
    """The pairs of ``accepted_pairs`` as entries whose fields are Python ints and floats."""
    columns = accepted_pairs(model, u, k)
    return RecommendationList(user=u, entries=list(map(Recommendation, *(c.tolist() for c in columns))))


def recommendation_lines(user: str, columns: tuple[np.ndarray, ...], catalog) -> list[str]:
    """One user's ``user_id<TAB>item_id<TAB>activity<TAB>keen_score<TAB>act_score<TAB>rank`` lines, newline included.

    ``columns`` are the four arrays of ``accepted_pairs``; ``user`` is the
    raw user id.
    """
    items, activities, keen, act = (c.tolist() for c in columns)
    item_names, activity_names = catalog.items, catalog.activities
    return [
        f"{user}\t{item_names[v]}\t{activity_names[z]}\t{keen_score!r}\t{act_score!r}\t{rank}\n"
        for rank, (v, z, keen_score, act_score) in enumerate(zip(items, activities, keen, act), start=1)
    ]


def write_recommendations(model: TrainedModel, users, fh, k: int | None = None) -> list[int]:
    """Write each user's list to the text stream ``fh``, one user at a time; return the users whose list is empty.

    A user's lines are written before the next user is scored, so memory
    holds one user's list, not every user's.
    """
    catalog = model.catalog
    empty = []
    for u in users:
        columns = accepted_pairs(model, u, k)
        if len(columns[0]):
            fh.writelines(recommendation_lines(catalog.users[u], columns, catalog))
        else:
            empty.append(u)
    return empty
