"""Per-user cold-start inference.

A user's history over interacted items becomes a preference histogram;
pushing it through the Gibbs kernel of the interacted-to-cold cost
matrix yields a histogram over the cold items in closed form, which is
then ranked.  That histogram is the conjugate gradient at a zero
potential, but needs none of the conjugate's log-domain machinery: a
whole stack of users goes through one kernel at any gamma, one product
per block of INFER_BLOCK users.
"""

from dataclasses import dataclass

import numpy as np

from .transport import GibbsKernel, _checked_columns, _histograms

__all__ = [
    "UserInteractions",
    "estimate_preference",
    "infer_cold",
    "rank_order",
]

# users per step of ``infer_cold``: each step holds one n x INFER_BLOCK
# quotient X / K1 instead of the whole stack's n x m one
INFER_BLOCK = 128


@dataclass(frozen=True)
class UserInteractions:
    """Sparse nonnegative interaction strengths over the interacted catalog.

    ``item_indices`` are positions in the experiment's interacted-item
    ordering (the rows of the cost matrix), not raw item ids.
    """

    user_id: object
    item_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.item_indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or val.shape != idx.shape:
            raise ValueError("item_indices and values must be 1-D and aligned")
        if idx.size == 0:
            raise ValueError("user %r has no interactions" % (self.user_id,))
        if len(np.unique(idx)) != idx.size:
            raise ValueError("duplicate item indices for user %r" % (self.user_id,))
        if np.any(idx < 0):
            raise ValueError("negative item index for user %r" % (self.user_id,))
        if np.any(val <= 0) or not np.all(np.isfinite(val)):
            raise ValueError("interaction values must be positive and finite")
        object.__setattr__(self, "item_indices", idx)
        object.__setattr__(self, "values", val)


def estimate_preference(interactions: UserInteractions, n_items: int) -> np.ndarray:
    """Dense preference histogram over the n interacted items.

    Interaction strengths are normalized to total mass 1; items the
    user never touched get exactly zero mass.
    """
    if n_items < 1:
        raise ValueError("n_items must be positive")
    if interactions.item_indices.max() >= n_items:
        raise ValueError(
            "interaction index %d out of range for %d items"
            % (int(interactions.item_indices.max()), n_items)
        )
    dense = np.zeros(n_items, dtype=np.float64)
    dense[interactions.item_indices] = interactions.values
    return _histograms(dense[:, None], n_items, "preference")[0][:, 0]


def infer_cold(p, M, gamma: float | None = None) -> np.ndarray:
    """Closed-form cold-start histogram K^T (p / K 1) over the cold items.

    ``p`` is one histogram over the interacted items, or an (n, m) stack
    of them, one user per column, giving an (s, m) stack of results;
    each column is scaled to mass 1.  ``M`` is a cost matrix (interacted
    rows, cold columns) with smoothing ``gamma``, or an already-built
    GibbsKernel, in which case ``gamma`` must match it or be omitted.
    Each interacted item's mass is softly assigned to its cheapest cold
    items and the assignments are mixed by p: the minimizer of the
    smoothed transport cost from p, which is the conjugate gradient at a
    zero potential.  K is taken row-shifted (``shifted_kernel``), which
    cancels in the ratio; its rows peak at 1, so K 1 >= 1 at any gamma.
    The quotient p / K 1 is formed for INFER_BLOCK users at a time.
    """
    if isinstance(M, GibbsKernel):
        if gamma is not None and gamma != M.gamma:
            raise ValueError("gamma %r conflicts with kernel gamma %r" % (gamma, M.gamma))
        kernel = M
    else:
        if gamma is None:
            raise ValueError("gamma is required when M is a cost matrix")
        kernel = GibbsKernel(M, gamma)
    p = np.asarray(p, dtype=np.float64)
    X, mass = _checked_columns(p if p.ndim == 2 else p[..., None], kernel.shape[0], "p")
    K = kernel.shifted_kernel
    row_mass = K.sum(axis=1)[:, None]
    Q = np.empty((K.shape[1], X.shape[1]))
    for start in range(0, X.shape[1], INFER_BLOCK):
        cols = slice(start, start + INFER_BLOCK)
        Q[:, cols] = K.T @ (X[:, cols] / row_mass)
    Q /= mass
    return Q if p.ndim == 2 else Q[:, 0]


def rank_order(Q, item_ids) -> np.ndarray:
    """Row indices that sort each column of an (s, m) score stack, best first.

    Exact ties go to the smaller of the rows' ``item_ids``, which may be
    any duplicate-free sortable values (numbers, strings).
    """
    Q = np.asarray(Q, dtype=np.float64)
    unique, tie = np.unique(np.fromiter(item_ids, dtype=object), return_inverse=True)
    if Q.ndim != 2 or Q.shape[0] != tie.size:
        raise ValueError("scores must be an (s, m) stack aligned with the s item_ids")
    if unique.size != tie.size:
        raise ValueError("item_ids must be duplicate-free")
    return np.lexsort((np.broadcast_to(tie[:, None], Q.shape), -Q), axis=0)

