"""Synthetic corpus with genuine two-stage structure.

Adoption and activity choice are generated by different mechanisms, so
the two decisions carry different signals:

* whether a user picks up an item depends on a low-rank user-item
  affinity (who you are times what the item is), and
* which activities they perform on it depends on per-user activity
  propensities that ignore the item entirely.

A scorer that ranks items well says nothing about activity choice, and
a per-item activity scorer never observes cross-item comparisons.  A
model has to get both right to place well on the joint pair task, which
is exactly the structure the two-stage decomposition exploits.
"""

from __future__ import annotations

import math

import numpy as np

from keenact.data import Catalog, InteractionStore
from keenact.training import sigmoid

LATENT_DIM = 8
AFFINITY_GAIN = 4.0
PROPENSITY_SHAPE = 0.4
#: relative gap between the target and a calibration sum that decides a
#: halving without evaluating it, far above the sum's rounding error
CALIBRATION_MARGIN = 1e-10
#: most Newton steps that look for sums on either side of the target
CALIBRATION_NEWTON_STEPS = 20


def _calibrate_offset(logits: np.ndarray, target: float) -> float:
    """Offset b with sum(sigmoid(logits + b)) = target: the float that 60
    halvings of [-60, 60] reach.

    The sum f rises with the offset and is computed to about 1e-14
    relative.  So once f(a) < target * (1 - CALIBRATION_MARGIN), every
    halving at or below a moves ``lo`` up, and once f(c) > target * (1 +
    CALIBRATION_MARGIN), every halving at or above c moves ``hi`` down,
    without evaluating f.  A few safeguarded Newton steps, aimed just
    below and then just above the target, find such a and c; the
    halvings evaluate f only between them.  Where Newton finds no a or c,
    that side stays infinite and every halving there evaluates f, as
    plain bisection does.
    """
    a, c = -math.inf, math.inf
    aim = target * (1.0 - 2.0 * CALIBRATION_MARGIN)
    lo, hi = -60.0, 60.0  # brackets the offset whose sum is the aim
    offset = 0.0
    for _ in range(CALIBRATION_NEWTON_STEPS):
        p = sigmoid(logits + offset)
        total = float(p.sum())
        slope = float((p * (1.0 - p)).sum())
        if total < target * (1.0 - CALIBRATION_MARGIN):
            a = max(a, offset)
            if aim < target and total >= target * (1.0 - 3.0 * CALIBRATION_MARGIN):
                # a sits just below the target: aim just above it for c
                aim, hi = target * (1.0 + 2.0 * CALIBRATION_MARGIN), 60.0
        elif total > target * (1.0 + CALIBRATION_MARGIN):
            c = min(c, offset)
        if (c - a) * slope <= 8.0 * CALIBRATION_MARGIN * target:
            break  # a and c are a few margins apart: few halvings fall between them
        if total < aim:
            lo = offset
        else:
            hi = offset
        step = (aim - total) / slope if slope > 0.0 else math.nan
        offset = offset + step if lo < offset + step < hi else 0.5 * (lo + hi)

    lo, hi = -60.0, 60.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < c and float(sigmoid(logits + mid).sum()) < target):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_two_stage(
    n_users: int = 200,
    n_items: int = 500,
    n_activities: int = 2,
    seed: int = 0,
    items_per_user: tuple[int, int] = (10, 30),
) -> tuple[Catalog, InteractionStore]:
    """Draw a corpus whose adoption and activity signals are separable.

    Each user adopts items with probability sigmoid(AFFINITY_GAIN *
    affinity + offset), the offset calibrated per user so expected
    adoption counts land uniformly inside ``items_per_user``.  Each
    adopted item then receives activity z with the user's propensity
    rho[u, z], drawn from a U-shaped Beta(PROPENSITY_SHAPE,
    PROPENSITY_SHAPE) that pushes most users toward all-or-nothing
    activity habits.  Every user adopts at least one item
    and every adopted item carries at least one activity.
    """
    if n_users < 1 or n_items < 2 or n_activities < 1:
        raise ValueError("need at least one user, two items, and one activity")
    lo, hi = items_per_user
    if not (0 < lo <= hi <= n_items):
        raise ValueError("items_per_user bounds must satisfy 0 < lo <= hi <= n_items")
    rng = np.random.Generator(np.random.PCG64(seed))

    user_latent = rng.standard_normal((n_users, LATENT_DIM))
    item_latent = rng.standard_normal((n_items, LATENT_DIM))
    affinity = (user_latent @ item_latent.T) / math.sqrt(LATENT_DIM)
    propensity = rng.beta(PROPENSITY_SHAPE, PROPENSITY_SHAPE, size=(n_users, n_activities))

    items, activities = [], []
    base_ts = 1_600_000_000
    for u in range(n_users):
        logits = AFFINITY_GAIN * affinity[u]
        target = float(rng.uniform(lo, hi))
        offset = _calibrate_offset(logits, target)
        adopted = np.flatnonzero(rng.random(n_items) < sigmoid(logits + offset))
        if len(adopted) == 0:
            adopted = np.array([int(np.argmax(logits))])
        # a row of draws per adopted item: the doubles that one call per item would take
        mask = rng.random((adopted.size, n_activities)) < propensity[u]
        mask[~mask.any(axis=1), int(np.argmax(propensity[u]))] = True
        rows, acts = np.nonzero(mask)
        items.append(adopted[rows])
        activities.append(acts)

    users = np.repeat(np.arange(n_users), [len(acts) for acts in activities])
    triples = np.column_stack((users, np.concatenate(items), np.concatenate(activities)))

    digits_u = max(4, len(str(n_users - 1)))
    digits_i = max(4, len(str(n_items - 1)))
    catalog = Catalog(
        users=[f"u{n:0{digits_u}d}" for n in range(n_users)],
        items=[f"i{n:0{digits_i}d}" for n in range(n_items)],
        activities=[f"a{z}" for z in range(n_activities)],
    )
    return catalog, InteractionStore(catalog, triples, range(base_ts + 1, base_ts + 1 + len(triples)))
