"""Entropic optimal transport on the probability simplex.

The Gibbs kernel of a cost and the Legendre conjugate of the smoothed
transport cost in its second marginal (value and gradient), batched
over users sharing one kernel on one stabilized product that stays
batched at any gamma.  The package evaluates the smoothed distance
only through this conjugate: its gradient drives wcf's dual solves,
and at g = 0 it is wf's cold-start inference, which
``wfilter.infer_cold`` computes in closed form.  A cost is a plain
nonnegative array; the item ids of its axes stay with callers.
Histograms are checked in one place, ``_histograms``, whether one
user's or a whole stack.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["GibbsKernel", "batch_conjugate"]

_TINY = np.finfo(np.float64).tiny


def _xlogx(a):
    """a log a elementwise, 0 where a is 0."""
    out = np.log(a, where=a > 0, out=np.zeros_like(a))
    out *= a
    return out


def _logsumexp(x):
    """log sum exp along the rows of x, shifted by each row's maximum."""
    top = x.max(axis=1)
    return np.log(np.exp(x - top[:, None]).sum(axis=1)) + top


def _as_cost(M) -> np.ndarray:
    """The ground costs as a checked float64 matrix."""
    c = np.asarray(M, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("cost matrix must be 2-D, got shape %s" % (c.shape,))
    if not np.all(np.isfinite(c)) or np.any(c < 0):
        raise ValueError("cost matrix must be finite and nonnegative")
    return c


@dataclass(frozen=True)
class GibbsKernel:
    """Gibbs kernel exp(-cost / gamma) of a checked cost, row-shifted.

    Only ``shifted_kernel`` is held, each row divided by its maximum
    ``exp(row_shift)`` so no row underflows as a whole; cells that still
    do are recomputed from ``cost`` in the log domain where they matter.
    """

    cost: np.ndarray
    gamma: float

    def __post_init__(self):
        cost, gamma = _as_cost(self.cost), _positive("gamma", self.gamma)
        top = float(cost.max(initial=0.0))
        if top / gamma == np.inf:  # a subnormal gamma: the kernel would hold NaN
            raise ValueError("gamma %r is too small for the largest cost %r: "
                             "cost / gamma overflows" % (gamma, top))
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def from_cost(cls, M, gamma: float) -> "GibbsKernel":
        return cls(M, gamma)

    @cached_property
    def row_shift(self) -> np.ndarray:
        return -self.cost.min(axis=1) / self.gamma

    @cached_property
    def shifted_kernel(self) -> np.ndarray:
        """exp(-cost / gamma - row_shift): every row peaks at exactly 1.

        Built in one array, in place, in the order of that expression."""
        K = np.negative(self.cost)
        K /= self.gamma
        K -= self.row_shift[:, None]
        return np.exp(K, out=K)

    @property
    def shape(self):
        return self.cost.shape


def _shifted_log_product(kernel, G, weights):
    """b = G's column maxima, L = log(K exp(G / gamma)) - a - b / gamma and
    the weighted softmax A_hat * K_hat^T (W / C).

    a is the kernel's ``row_shift``: kernel rows and potential columns
    both peak at 1, so one product C = K_hat A_hat serves every column.
    Cells of C below the normal float range that carry weight are
    recomputed by log-sum-exp; other such cells read 0.
    """
    b = G.max(axis=0)
    log_A = (G - b) / kernel.gamma
    A = np.exp(log_A)
    C = kernel.shifted_kernel @ A
    low = C < _TINY
    C[low] = np.inf  # leaves these cells out of W / C and the gradient ...
    grads = A * (kernel.shifted_kernel.T @ (weights / C))
    C[low] = 1.0  # ... and out of L; the repair below fills them in
    L = np.log(C, out=C)
    if not low.any():
        return b, L, grads

    rows, cols = np.divmod(np.flatnonzero(low & (weights > 0)), weights.shape[1])
    step = max(1, (1 << 20) // G.shape[0])  # repair blocks of at most 8 MB
    for start in range(0, rows.size, step):
        i, u = rows[start:start + step], cols[start:start + step]
        logits = -kernel.cost[i] / kernel.gamma - kernel.row_shift[i, None] + log_A[:, u].T
        L[i, u] = lse = _logsumexp(logits)
        np.add.at(grads.T, u, weights[i, u][:, None] * np.exp(logits - lse[:, None]))
    return b, L, grads


def _checked_columns(X, rows, name):
    """X (rows x m) as float64, not copied, and its column masses.

    The one check of every batch of histograms: entries finite and
    nonnegative, every column of positive mass (zero entries allowed).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != rows or X.shape[1] < 1:
        raise ValueError("%s must have shape (%d, m >= 1), got %s" % (name, rows, X.shape))
    total = X.sum(axis=0)
    # a NaN fails both tests, an inf the mass test
    if not (np.all((total > 0) & (total < np.inf)) and X.min() >= 0):
        raise ValueError("%s columns must be finite, nonnegative and of positive mass" % name)
    return X, total


def _histograms(X, rows, name="P"):
    """Columns of X (rows x m) renormalized onto the simplex, and their entropies."""
    X, _ = _checked_columns(X, rows, name)
    H = np.ascontiguousarray(X.T)  # one histogram per row, so each sums pairwise
    H = H / H.sum(axis=1, keepdims=True)
    return np.ascontiguousarray(H.T), -_xlogx(H).sum(axis=1)


def _positive(name, value) -> float:
    """``value`` as a float; a ValueError naming it unless 0 < value < inf."""
    v = float(value)
    if not 0 < v < np.inf:
        raise ValueError("%s must be positive and finite, got %r" % (name, value))
    return v


def _check_budget(tol, count, name):
    """Check a solve's tolerance and its pass budget ``count``, named ``name`` in errors.

    A budget is an integer (a NumPy integer too) of at least 1.
    """
    _positive("tol", tol)
    try:
        count = operator.index(count)
    except TypeError:
        raise TypeError("%s must be an integer, got %r" % (name, count)) from None
    if count < 1:
        raise ValueError("%s must be at least 1" % name)


def batch_conjugate(P, G, kernel: GibbsKernel, entropies):
    """Conjugate values (m,) and gradients (s x m) of many users at once.

    For fixed first marginal p, the conjugate of q -> W_gamma(p, q) at
    the dual vector g is gamma (h(p) + <p, log K exp(g / gamma)>), and
    its gradient exp(g / gamma) * K^T (p / K exp(g / gamma)) is a point
    on the simplex.  Columns of P (n x m) are simplex histograms with
    entropies h(p_u), trusted here because callers validate P once per
    solve (``_histograms`` returns both); columns of G (s x m) are their
    potentials.  Only the shapes are checked, against the kernel's
    (n, s).  Values and gradients come from one stabilized product
    over all users (``_shifted_log_product``), so large spreads of
    g / gamma neither overflow nor underflow.
    """
    n, s = kernel.shape
    shapes = np.shape(P), np.shape(G), np.shape(entropies)
    m = shapes[0][-1] if shapes[0] else 0
    if shapes != ((n, m), (s, m), (m,)):
        raise ValueError("P, G and entropies must have shapes (%d, m), (%d, m) and (m,), "
                         "got %s, %s and %s" % (n, s, *shapes))
    b, L, grads = _shifted_log_product(kernel, G, P)
    values = kernel.gamma * (entropies + kernel.row_shift @ P
                             + np.einsum("ij,ij->j", P, L)) + b
    return values, grads
