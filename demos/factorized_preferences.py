"""Pooling users through a low-rank dictionary of cold-item profiles.

Per-user inference treats every user independently.  When many users
share a handful of taste archetypes, jointly factorizing all predicted
histograms as D @ lam (columns of D are archetype profiles over the
cold items, columns of lam mix them per user) denoises the predictions
and compresses the model.  Training alternates two convex dual blocks;
the traced objective never increases.
"""

import numpy as np

from wassrec import infer_cold, predict_user, train_wcf

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(11)

# -- synthetic population from two archetypes ----------------------------
# 12 users, each a noisy mixture of a "left" and a "right" preference
# profile over 6 interacted items; 4 cold items.

n, s, m = 6, 4, 12
M = rng.uniform(size=(n, s))
left = rng.dirichlet(np.ones(n) * 2)
right = rng.dirichlet(np.ones(n) * 2)

P = []
for u in range(m):
    w = rng.beta(0.5, 0.5)
    mix = w * left + (1 - w) * right
    noisy = np.maximum(mix + rng.normal(scale=0.01, size=n), 1e-6)
    P.append(noisy / noisy.sum())

# -- train a rank-2 model -------------------------------------------------

model = train_wcf(P, M, k=2, gamma=0.05)
trace = np.array(model.objective_trace)
print("outer iterations:", trace.size // 2)
print("objective trace head:", trace[:4])
print("objective trace tail:", trace[-3:])
print("max increase along trace: %.2e" % np.diff(trace).max())

print("\ndictionary columns (archetype profiles over cold items):")
print(model.dictionary)

# -- factorized vs independent predictions --------------------------------
# The rank-2 model cannot match every independent closed form exactly;
# the residual is the price of sharing structure.

worst = 0.0
for u in range(m):
    shared = predict_user(model, u)
    solo = infer_cold(P[u], M, gamma=0.05)
    worst = max(worst, float(np.abs(shared - solo).max()))
print("\nworst |factorized - independent| over users: %.4f" % worst)

# -- mixing weights recover the planted geometry ---------------------------
# Users built mostly from the same archetype get similar loading columns.

lam = model.loadings
print("\nloading columns (one per user):")
print(lam.T)
