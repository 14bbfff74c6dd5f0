"""Moving probability mass at least cost, exactly and with smoothing.

A transport problem starts with two histograms and a table of pairwise
costs.  The exact optimum is the cheapest way to morph one histogram
into the other; entropic smoothing trades a little cost for a smooth,
fast, differentiable answer.  This script walks through both on a
3 x 2 instance small enough to solve by hand.  The package itself only
ever needs the smoothed problem's conjugate, so the smoothed plans are
computed here, in a few lines of NumPy, by log-domain Sinkhorn scaling.
"""

import numpy as np

np.set_printoptions(precision=4, suppress=True)

# -- the instance -------------------------------------------------------
# Three source bins, two target bins.  M[i, j] is the cost of moving one
# unit of mass from source i to target j.

M = np.array([
    [0.15, 0.80],
    [0.10, 0.95],
    [0.90, 0.05],
])
p = np.array([0.4, 0.5, 0.1])
q = np.array([0.8, 0.2])

print("cost matrix:")
print(M)
print("source histogram p =", p)
print("target histogram q =", q)

# -- exact solution -----------------------------------------------------
# The linear program has a vertex solution: at most n + s - 1 cells of
# the plan are nonzero.  Here it can be checked by hand: source 2 sends
# its 0.1 to target 1 at cost 0.05; target 1 needs 0.1 more, and source
# 0 pays less extra for it than source 1 (0.80 - 0.15 against 0.95 -
# 0.10); everything else goes to target 0.  Moving mass around any
# cycle of cells raises the cost, so this vertex is the unique optimum,
# at cost 0.18.

exact_plan = np.array([
    [0.3, 0.1],
    [0.5, 0.0],
    [0.0, 0.1],
])
exact_cost = float((exact_plan * M).sum())
print("\nexact plan:")
print(exact_plan)
print("exact cost: %.6f" % exact_cost)

# -- entropic smoothing -------------------------------------------------
# Penalizing the plan's negative entropy spreads mass over all cells.
# The smoothed plan is exp((f_i + g_j - M_ij) / gamma) for dual
# potentials f and g; Sinkhorn scaling sets f to match the row sums to
# p, then g to match the column sums to q, and repeats.  Each update is
# a log-sum-exp, so no exp(-M / gamma) underflows at small gamma.


def logsumexp(x, axis):
    top = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - top).sum(axis=axis, keepdims=True)) + top


def smoothed_plan(p, q, M, gamma, tol=1e-10, max_iter=100_000):
    f, g = np.zeros((len(p), 1)), np.zeros((1, len(q)))
    for _ in range(max_iter):
        f = gamma * (np.log(p)[:, None] - logsumexp((g - M) / gamma, axis=1))
        g = gamma * (np.log(q)[None, :] - logsumexp((f - M) / gamma, axis=0))
        plan = np.exp((f + g - M) / gamma)
        if np.abs(plan.sum(axis=1) - p).max() < tol:
            return plan
    raise RuntimeError("no convergence after %d iterations" % max_iter)


# As gamma shrinks the smoothed plan sharpens toward the vertex and the
# cost gap closes roughly linearly in gamma.

for gamma in (0.5, 0.05, 0.001):
    plan = smoothed_plan(p, q, M, gamma)
    cost = float((plan * M).sum())
    print("\ngamma = %-6g cost = %.6f (gap %+.2e)" % (gamma, cost, cost - exact_cost))
    print(plan)

# -- marginals are exact at convergence ---------------------------------

plan = smoothed_plan(p, q, M, gamma=0.05)
print("\nrow sums   ", plan.sum(axis=1), " (should be p)")
print("column sums", plan.sum(axis=0), " (should be q)")
