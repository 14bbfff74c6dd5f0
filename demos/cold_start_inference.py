"""Guessing a user's taste for items nobody has rated yet.

New catalog items have no ratings, so collaborative signals are silent.
But if every item carries a content descriptor (tags, genres), a cost
matrix between old and new items lets us push a user's observed
preference histogram through the transport geometry: the inferred
cold-item histogram is the one that is cheapest to reach from what the
user already likes.  For the smoothed distance this inference is a
single closed-form expression, no solver loop.
"""

import numpy as np

from wassrec import GibbsKernel, infer_cold, rank_order

np.set_printoptions(precision=4, suppress=True)

# -- setup: three watched movies, two unreleased ones --------------------
# Rows: Spider-Man 3, Batman Returns, Titanic.
# Columns: Iron Man, Casablanca.  Costs come from tag dissimilarity, so
# the superhero movies sit close to Iron Man and far from Casablanca.

M = np.array([
    [0.15, 0.80],
    [0.10, 0.95],
    [0.90, 0.05],
])
watched = ["Spider-Man 3", "Batman Returns", "Titanic"]
cold = ["Iron Man", "Casablanca"]

# -- two viewers with opposite histories ---------------------------------

superhero_fan = np.array([0.4, 0.5, 0.1])
romance_fan = np.array([0.05, 0.05, 0.9])

for name, p in (("superhero fan", superhero_fan), ("romance fan", romance_fan)):
    q = infer_cold(p, M, gamma=0.05)
    order = rank_order(q[:, None], cold)[:, 0]  # one user: a one-column stack
    print("%s, history %s" % (name, dict(zip(watched, p.tolist()))))
    print("  inferred cold preferences:", dict(zip(cold, np.round(q, 4).tolist())))
    print("  recommendation order:", [cold[j] for j in order])
    print()

# -- gamma controls how literal the matching is --------------------------
# Large gamma blurs everything toward uniform; small gamma follows the
# cheapest column per unit of source mass almost deterministically.

kernel_costs = M
for gamma in (1.0, 0.1, 0.01):
    q = infer_cold(superhero_fan, kernel_costs, gamma=gamma)
    print("gamma = %-5g q =" % gamma, q)

# -- the kernel can be prebuilt and shared across users -------------------

kernel = GibbsKernel(M, 0.05)
q_a = infer_cold(superhero_fan, kernel)
q_b = infer_cold(romance_fan, kernel)
print("\nshared kernel, two users:", q_a, q_b)
