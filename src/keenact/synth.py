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


def _calibrate_offset(logits: np.ndarray, target: float) -> float:
    """Offset b with sum(sigmoid(logits + b)) = target, by bisection."""
    lo, hi = -60.0, 60.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(sigmoid(logits + mid).sum()) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_two_stage(
    n_users: int = 200,
    n_items: int = 500,
    n_activities: int = 2,
    seed: int = 0,
    latent_dim: int = 8,
    affinity_gain: float = 4.0,
    items_per_user: tuple[int, int] = (10, 30),
    propensity_shape: float = 0.4,
) -> tuple[Catalog, InteractionStore]:
    """Draw a corpus whose adoption and activity signals are separable.

    Each user adopts items with probability sigmoid(gain * affinity +
    offset), the offset calibrated per user so expected adoption counts
    land uniformly inside ``items_per_user``.  Each adopted item then
    receives activity z with the user's propensity rho[u, z], drawn from
    a Beta(shape, shape); the U-shaped default pushes most users toward
    all-or-nothing activity habits.  Every user adopts at least one item
    and every adopted item carries at least one activity.
    """
    if n_users < 1 or n_items < 2 or n_activities < 1:
        raise ValueError("need at least one user, two items, and one activity")
    lo, hi = items_per_user
    if not (0 < lo <= hi <= n_items):
        raise ValueError("items_per_user bounds must satisfy 0 < lo <= hi <= n_items")
    rng = np.random.Generator(np.random.PCG64(seed))

    user_latent = rng.standard_normal((n_users, latent_dim))
    item_latent = rng.standard_normal((n_items, latent_dim))
    affinity = (user_latent @ item_latent.T) / math.sqrt(latent_dim)
    propensity = rng.beta(propensity_shape, propensity_shape, size=(n_users, n_activities))

    triples: list[tuple[int, int, int]] = []
    timestamps: dict[tuple[int, int, int], int] = {}
    base_ts = 1_600_000_000
    for u in range(n_users):
        logits = affinity_gain * affinity[u]
        target = float(rng.uniform(lo, hi))
        offset = _calibrate_offset(logits, target)
        adopted = np.flatnonzero(rng.random(n_items) < sigmoid(logits + offset))
        if len(adopted) == 0:
            adopted = np.array([int(np.argmax(logits))])
        for v in adopted:
            mask = rng.random(n_activities) < propensity[u]
            if not mask.any():
                mask[int(np.argmax(propensity[u]))] = True
            for z in np.flatnonzero(mask):
                triple = (u, int(v), int(z))
                triples.append(triple)
                timestamps[triple] = base_ts + len(triples)

    digits_u = max(4, len(str(n_users - 1)))
    digits_i = max(4, len(str(n_items - 1)))
    catalog = Catalog(
        users=[f"u{n:0{digits_u}d}" for n in range(n_users)],
        items=[f"i{n:0{digits_i}d}" for n in range(n_items)],
        activities=[f"a{z}" for z in range(n_activities)],
    )
    return catalog, InteractionStore(catalog, triples, timestamps)
