"""From a trained model to a ranked list of (item, activity) pairs.

Stage one admits items whose keen score clears the item's cutoff;
stage two admits activities on those items the same way.  The final
list orders pairs by item score first, activity score second, so a
well-liked item's pairs stay together even when some other item has a
single hotter activity.
"""

from keenact.features import co_participation_features, empty_features, l2_normalize_rows
from keenact.recommend import decide, recommend, select_activities, select_items
from keenact.synth import generate_two_stage
from keenact.training import TrainConfig, train

catalog, store = generate_two_stage(30, 60, 2, seed=5, items_per_user=(3, 8))
user_feats = l2_normalize_rows(co_participation_features(store))
model = train(store, user_feats, empty_features(catalog.n_items),
              TrainConfig(epochs=6, k=8, threshold_epochs=8, seed=0))

u = 0
print("user:", catalog.users[u])

# Stage one: which items pass their cutoff.
items = select_items(model, u)
print("items admitted by stage one:", len(items), "of", catalog.n_items)

# Stage two is only defined on admitted items; asking about a rejected
# item raises StageOrderError.
v = int(items[0])
acts = select_activities(model, u, v)
print(f"activities admitted on {catalog.items[v]}:", [catalog.activities[z] for z in acts])

# decide() is the scalar form: both stages must say yes.
z = int(acts[0])
print("decide on that pair:", decide(model, u, v, z))

# The aggregate list, truncated to ten pairs.
recs = recommend(model, u, k=10)
print("\ntop pairs:")
for rank, e in enumerate(recs.entries, start=1):
    print(f"  {rank:2d}. {catalog.items[e.item]:>6} {catalog.activities[e.activity]:<5}"
          f" keen={e.keen_score:+.3f} act={e.act_score:+.3f}")

# Item order dominates: scores within an item stay adjacent.
items_in_order = [e.item for e in recs.entries]
print("\nitem blocks stay contiguous:", items_in_order)
print("list is ordered:", recs.is_ordered())
