"""The factorization machine scorer, built up from its parts.

Shows the score identity on a tiny example you can check by hand, the
sparse gradient, one Adam step, and the batch scorer that assembles
inputs from a feature layout.
"""

import numpy as np

from keenact.data import Catalog
from keenact.features import FeatureLayout, SparseVector, empty_features
from keenact.fm import AdamState, FMParameters, adam_update, fm_gradient, fm_score
from keenact.scoring import Scorer

# Three coordinates, two latent factors.  The score is
#   w0 + sum_i w_i x_i + sum_{i<j} <v_i, v_j> x_i x_j
# and the implementation computes the interaction part in O(nnz * k)
# via the squared-sum identity instead of the double loop.
params = FMParameters(
    w0=0.5,
    w=np.array([1.0, -2.0, 0.25]),
    factors=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
)
x = SparseVector(np.array([0, 2]), np.array([2.0, 3.0]), dim=3)

# By hand: 0.5 + (1.0 * 2 + 0.25 * 3) + <v_0, v_2> * 2 * 3
#        = 0.5 + 2.75 + 1.0 * 6 = 9.25
print("score:", fm_score(params, x))

# The gradient touches only the input's coordinates.  A single-entry
# input has no interaction partner, so its factor gradient vanishes.
grad = fm_gradient(params, x, upstream=1.0)
print("touched indices:", [int(i) for i in grad.indices])
print("dw:", grad.w, "(equals the input values)")
single = SparseVector(np.array([1]), np.array([4.0]), dim=3)
print("lone-entry factor gradient:", fm_gradient(params, single, 1.0).factors.ravel())

# One Adam step.  From a fresh state the update is -lr * sign(grad),
# which makes the very first step easy to sanity-check.
state = AdamState.for_params(params, alpha=0.1)
before = params.w.copy()
adam_update(params, state, grad)
print("w moved by:", params.w - before)

# In the package the inputs are never written out by hand; a layout
# assembles them from id one-hots and optional side features.
catalog = Catalog(["ana", "ben"], ["repo-a", "repo-b", "repo-c"], ["fork", "watch"])
uf = empty_features(2)
itf = empty_features(3)
layout = FeatureLayout.for_act(catalog, uf, itf)
print("item ids start at", layout.item_id_offset, "and activities at", layout.activity_offset, "of", layout.dim)

act_params = FMParameters(w0=0.0, w=np.zeros(layout.dim), factors=np.ones((layout.dim, 2)) * 0.1)
scorer = Scorer(act_params, layout, uf, itf)
print("ana x repo-a x both activities:", scorer.score_activities(0, 0))
print("ana x all pairs:")
print(scorer.score_pair_matrix(0))
