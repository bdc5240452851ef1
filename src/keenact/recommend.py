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


def _check_item(model: TrainedModel, v: int) -> None:
    if not 0 <= v < model.n_items:
        raise ValueError(f"unknown item index {v}")


def keen_stage(model: TrainedModel, u: int) -> tuple[np.ndarray, np.ndarray]:
    """Keen scores of every catalog item and which of them stage one accepts.

    An item is accepted when its score is at least its cutoff; items
    unseen at training time score without their identity one-hot and
    face the global fallback cutoff.  An unknown user is a ValueError.
    """
    keen_scorer, _ = model.scorers()
    scores = keen_scorer.score_items(u)
    return scores, scores >= model.thresholds.effective_item_thresholds()


def act_stage(model: TrainedModel, u: int, items: np.ndarray | list[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Act scores as an (items, activities) matrix and which pairs stage two accepts.

    ``items`` picks the rows, every catalog item when None; a row's
    scores are the same bits whichever rows are asked for.  A pair is
    accepted when its score is at least its activity's cutoff.
    """
    _, act_scorer = model.scorers()
    scores = act_scorer.score_pair_matrix(u, items)
    return scores, scores >= model.thresholds.activity_thresholds


def select_items(model: TrainedModel, u: int) -> np.ndarray:
    """Items stage one accepts, ascending ids."""
    return np.flatnonzero(keen_stage(model, u)[1])


def select_activities(model: TrainedModel, u: int, v: int) -> np.ndarray:
    """Activities on item ``v`` that stage two accepts, ascending ids.

    Stage two is only defined for items stage one selected; asking about
    any other item raises StageOrderError.
    """
    _check_item(model, v)
    if not keen_stage(model, u)[1][v]:
        raise StageOrderError(f"item {v} was not selected for user {u}")
    return np.flatnonzero(act_stage(model, u, [v])[1][0])


def decide(model: TrainedModel, u: int, v: int, z: int) -> bool:
    """True when both stages accept: keen(u, v) and act(u, v, z)."""
    _check_item(model, v)
    if not 0 <= z < model.n_activities:
        raise ValueError(f"unknown activity index {z}")
    return bool(keen_stage(model, u)[1][v] and act_stage(model, u, [v])[1][0, z])


def accepted_pairs(model: TrainedModel, u: int, k: int | None = None) -> tuple[np.ndarray, ...]:
    """Items, activities, keen scores and act scores of the pairs both stages accept.

    The four arrays are in list order: keen score descending, then act
    score descending within an item, ascending ids breaking exact ties.
    ``k`` keeps the first k pairs; None keeps everything.

    Act rows are formed only for the leading accepted items: those whose
    keen score ties or beats the ``lead``-th best.  They head the list,
    so their pairs are its prefix; ``lead`` starts at ``k`` and doubles
    until that prefix holds k pairs or covers every accepted item.
    """
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    keen, keen_ok = keen_stage(model, u)
    accepted = np.flatnonzero(keen_ok)
    lead = accepted.size if k is None else k
    while True:
        items = accepted
        if lead < accepted.size:
            kth = -np.partition(-keen[accepted], lead - 1)[lead - 1]
            items = accepted[keen[accepted] >= kth]
        # a stable sort keeps ascending ids among equal scores
        items = items[np.argsort(-keen[items], kind="stable")]
        act, act_ok = act_stage(model, u, items)
        order = np.argsort(-act, axis=1, kind="stable")
        rows, cols = np.nonzero(act_ok[np.arange(len(order))[:, None], order])
        if k is None or rows.size >= k or items.size == accepted.size:
            break
        lead *= 2
    rows, cols = rows[:k], cols[:k]
    pair_items, pair_acts = items[rows], order[rows, cols]
    return pair_items, pair_acts, keen[pair_items], act[rows, pair_acts]


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
