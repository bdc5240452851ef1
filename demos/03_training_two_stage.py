"""Training both stages and reading what came out.

Phase one fits two rank-oriented scorers (items, then activities on
items) with weighted pairwise updates; phase two freezes the scores and
fits per-item and per-activity cutoffs by cross-entropy.  The report
records each phase per epoch.
"""

import numpy as np

from keenact.features import co_participation_features, empty_features, l2_normalize_rows
from keenact.synth import generate_two_stage
from keenact.training import TrainConfig, train

catalog, store = generate_two_stage(40, 80, 2, seed=11, items_per_user=(4, 10))
print("corpus:", catalog.n_users, "users,", catalog.n_items, "items,", store.n_triples, "records")

user_feats = l2_normalize_rows(co_participation_features(store))
item_feats = empty_features(catalog.n_items)

config = TrainConfig(epochs=6, k=8, threshold_epochs=8, seed=0)
model = train(store, user_feats, item_feats, config)

# The report is a flat list of (epoch, phase, metric, value).  The warp
# loss is the rank-weighted hinge summed over accepted updates; the
# violation rate tells you how often a sampled negative still outranks
# a positive, which falls as the scorer improves.
print("\nitem-stage progress:")
for epoch, phase, metric, value in model.report:
    if phase == "keen_rank" and metric in ("warp_loss", "violation_rate"):
        print(f"  epoch {epoch} {metric:>14}: {value:.4f}")

print("\nactivity-stage final epoch:")
for epoch, phase, metric, value in model.report:
    if phase == "act_rank" and epoch == config.epochs - 1:
        print(f"  {metric}: {value:.4f}")

# Phase two: cutoffs.  Mean cross-entropy per epoch should fall.
keen_ce = [v for (_, p, m, v) in model.report if p == "keen_threshold" and m == "mean_ce"]
print("\ncutoff fitting, first -> last mean CE:", round(keen_ce[0], 4), "->", round(keen_ce[-1], 4))

# The threshold table has one cutoff per item and per activity.  Items
# never seen in training fall back to the mean of the fitted cutoffs.
t = model.thresholds
print("\nitem cutoffs: mean", round(float(np.mean(t.item_thresholds)), 3),
      "| spread", round(float(np.std(t.item_thresholds)), 3))
print("activity cutoffs:", np.round(t.activity_thresholds, 3))
print("fallback for unseen items:", round(t.global_item_fallback, 3))
print("items with fitted cutoffs:", int(t.item_trained.sum()), "of", catalog.n_items)

# Determinism: the same seed reproduces the model bit for bit.
again = train(store, user_feats, item_feats, config)
print("\nsame seed, same factors:", bool(np.array_equal(model.keen.factors, again.keen.factors)))
