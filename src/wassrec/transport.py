"""Entropic optimal transport on the probability simplex.

Smoothed transport cost between histograms, a matrix-scaling solver
with automatic log-domain fallback, an exact linear-programming
reference for test-scale instances, and the Legendre conjugate of the
smoothed cost in its second marginal (value and gradient), batched over
users.  The conjugate gradient is the workhorse of cold-start
inference: evaluated at g = 0 it pushes preference histograms through
the Gibbs kernel onto unseen items.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog
from scipy.special import logsumexp, xlogy

from .exceptions import ConvergenceError, SolverError

__all__ = [
    "CostMatrix",
    "GibbsKernel",
    "TransportPlan",
    "simplex",
    "entropy",
    "sinkhorn",
    "exact_ot",
    "batch_conjugate",
    "conjugate_value",
    "conjugate_grad",
]

# Below this regularization the plain scaling iteration is hopeless in
# float64, so the solver goes straight to the log domain.
LOG_DOMAIN_GAMMA = 1e-2
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000

# Refuse exact LP solves above this many plan cells; the oracle is a
# test dependency, not a production path.
MAX_EXACT_CELLS = 400

_TINY = np.finfo(np.float64).tiny


def simplex(weights, name: str = "weights") -> np.ndarray:
    """Validate and renormalize a histogram onto the probability simplex.

    Entries must be finite and nonnegative with positive total mass;
    the result is a fresh float64 vector summing to 1.  Zero entries
    are allowed (empty support is handled downstream by support
    restriction), an all-zero vector is not.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("%s must be a 1-D vector, got shape %s" % (name, (w.shape,)))
    if w.size == 0:
        raise ValueError("%s is empty" % name)
    if not np.all(np.isfinite(w)):
        raise ValueError("%s has non-finite entries" % name)
    if np.any(w < 0):
        raise ValueError("%s has negative entries" % name)
    total = float(w.sum())
    if total <= 0:
        raise ValueError("%s has zero total mass" % name)
    out = w / total
    if not np.all(np.isfinite(out)):
        raise ValueError("%s could not be normalized (total mass %g)" % (name, total))
    return out


def entropy(x) -> float:
    """Shannon entropy -sum x log x with the 0 log 0 = 0 convention.

    Accepts histograms or transport plans (any nonnegative array).
    """
    a = np.asarray(x, dtype=np.float64)
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("entropy requires finite nonnegative entries")
    return float(-xlogy(a, a).sum())


@dataclass(frozen=True)
class CostMatrix:
    """Ground costs between interacted items (rows) and cold items (columns).

    ``row_ids`` and ``col_ids`` name the items behind each axis; they
    must be duplicate-free and disjoint since an item cannot be both
    interacted and cold in one experiment.
    """

    costs: np.ndarray
    row_ids: tuple
    col_ids: tuple

    def __post_init__(self):
        c = np.asarray(self.costs, dtype=np.float64)
        if c.ndim != 2:
            raise ValueError("costs must be a 2-D array, got shape %s" % (c.shape,))
        if not np.all(np.isfinite(c)) or np.any(c < 0):
            raise ValueError("costs must be finite and nonnegative")
        rows = tuple(self.row_ids)
        cols = tuple(self.col_ids)
        if len(rows) != c.shape[0] or len(cols) != c.shape[1]:
            raise ValueError(
                "id lists (%d, %d) do not match cost shape %s"
                % (len(rows), len(cols), (c.shape,))
            )
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("item ids must be duplicate-free")
        if set(rows) & set(cols):
            raise ValueError("row and column ids must be disjoint")
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "row_ids", rows)
        object.__setattr__(self, "col_ids", cols)

    @property
    def shape(self):
        return self.costs.shape


def _as_cost(M) -> np.ndarray:
    """Accept a CostMatrix or a raw array of ground costs."""
    if isinstance(M, CostMatrix):
        return M.costs
    c = np.asarray(M, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("cost matrix must be 2-D, got shape %s" % (c.shape,))
    if not np.all(np.isfinite(c)) or np.any(c < 0):
        raise ValueError("cost matrix must be finite and nonnegative")
    return c


@dataclass(frozen=True)
class GibbsKernel:
    """Gibbs kernel exp(-cost / gamma) kept primarily in log form.

    The log-domain representation -cost / gamma is always exact;
    ``kernel`` materializes the elementwise exponential, which may
    underflow to zero for small gamma (consumers that cannot tolerate
    that check ``underflows`` and stay in the log domain).
    """

    cost: np.ndarray
    gamma: float

    def __post_init__(self):
        c = _as_cost(self.cost)
        g = float(self.gamma)
        if not np.isfinite(g) or g <= 0:
            raise ValueError("gamma must be positive and finite, got %r" % self.gamma)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "gamma", g)

    @classmethod
    def from_cost(cls, M, gamma: float) -> "GibbsKernel":
        return cls(_as_cost(M), gamma)

    @cached_property
    def log_kernel(self) -> np.ndarray:
        return -self.cost / self.gamma

    @cached_property
    def kernel(self) -> np.ndarray:
        return np.exp(self.log_kernel)

    @cached_property
    def row_shift(self) -> np.ndarray:
        return self.log_kernel.max(axis=1)

    @cached_property
    def shifted_kernel(self) -> np.ndarray:
        """exp(log_kernel - row_shift): every row peaks at exactly 1."""
        return np.exp(self.log_kernel - self.row_shift[:, None])

    @property
    def underflows(self) -> bool:
        return bool(self.log_kernel.min() < np.log(_TINY))

    @property
    def shape(self):
        return self.cost.shape


@dataclass(frozen=True)
class TransportPlan:
    """A coupling between two histograms together with its cost.

    ``transport_cost`` is the linear cost <plan, M>; for entropic
    solves ``regularized_value`` subtracts gamma times the plan entropy
    (for the exact LP reference the two coincide, there is no entropy
    term at gamma = 0).
    """

    plan: np.ndarray
    transport_cost: float
    regularized_value: float
    iterations: int
    marginal_violation: float


def _restrict_support(p, q, M):
    """Drop zero-mass rows and columns; return restricted arrays and index maps."""
    rows = np.flatnonzero(p > 0)
    cols = np.flatnonzero(q > 0)
    return p[rows], q[cols], M[np.ix_(rows, cols)], rows, cols


def _embed_plan(T_small, rows, cols, shape):
    T = np.zeros(shape, dtype=np.float64)
    T[np.ix_(rows, cols)] = T_small
    return T


def _scaling_iterations(p, q, K, tol, max_iter):
    """Plain Sinkhorn matrix scaling.

    Returns (plan, iterations, violation) or None if the iteration hits
    numeric trouble (zero or non-finite scalings) and the caller should
    fall back to the log domain.
    """
    v = np.ones_like(q)
    Kv = K @ v
    it = 0
    for it in range(1, max_iter + 1):
        if np.any(Kv <= _TINY) or not np.all(np.isfinite(Kv)):
            return None
        u = p / Kv
        KTu = K.T @ u
        if np.any(KTu <= _TINY) or not np.all(np.isfinite(KTu)):
            return None
        v = q / KTu
        Kv = K @ v
        # u is stale with respect to the new v, so the row residual is
        # the honest one; the column residual is zero up to rounding.
        row_err = np.max(np.abs(u * Kv - p))
        col_err = np.max(np.abs(v * KTu - q))
        viol = max(row_err, col_err)
        if viol < tol:
            T = u[:, None] * K * v[None, :]
            return T, it, float(viol)
    raise ConvergenceError(
        "matrix scaling did not reach tolerance %g in %d iterations "
        "(marginal violation %g)" % (tol, max_iter, viol),
        iterations=it,
        violation=float(viol),
    )


def _log_iterations(p, q, M, gamma, tol, max_iter):
    """Sinkhorn updates on the dual potentials, safe for small gamma."""
    logp = np.log(p)
    logq = np.log(q)
    f = np.zeros_like(p)
    g = np.zeros_like(q)
    viol = np.inf
    for it in range(1, max_iter + 1):
        f = gamma * (logp - logsumexp((g[None, :] - M) / gamma, axis=1))
        g = gamma * (logq - logsumexp((f[:, None] - M) / gamma, axis=0))
        logT = (f[:, None] + g[None, :] - M) / gamma
        row = np.exp(logsumexp(logT, axis=1))
        col = np.exp(logsumexp(logT, axis=0))
        viol = max(np.max(np.abs(row - p)), np.max(np.abs(col - q)))
        if viol < tol:
            return np.exp(logT), it, float(viol)
    raise ConvergenceError(
        "log-domain scaling did not reach tolerance %g in %d iterations "
        "(marginal violation %g)" % (tol, max_iter, viol),
        iterations=max_iter,
        violation=float(viol),
    )


def sinkhorn(p, q, M, gamma: float, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> TransportPlan:
    """Solve the entropy-smoothed transport problem between p and q.

    Minimizes <T, M> - gamma * h(T) over couplings of p (rows) and q
    (columns), h the Shannon entropy.  Stops when the worst L-infinity
    marginal violation of the current plan drops below ``tol``; raises
    ConvergenceError (carrying the final violation) if ``max_iter``
    passes are not enough.

    The plain scaling iteration is used when it is numerically safe;
    for gamma below 1e-2, or whenever the Gibbs kernel or a scaling
    vector underflows, the solver switches to log-domain updates
    instead of returning NaN.  Zero-mass entries of p and q are handled
    by support restriction and come back as zero rows/columns.
    """
    M_full = _as_cost(M)
    p = simplex(p, name="p")
    q = simplex(q, name="q")
    if M_full.shape != (p.size, q.size):
        raise ValueError(
            "cost shape %s does not match marginals (%d, %d)"
            % ((M_full.shape,), p.size, q.size)
        )
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma <= 0:
        raise ValueError("gamma must be positive and finite, got %r" % gamma)
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    ps, qs, Ms, rows, cols = _restrict_support(p, q, M_full)
    kernel = GibbsKernel(Ms, gamma)

    result = None
    if gamma >= LOG_DOMAIN_GAMMA and not kernel.underflows:
        result = _scaling_iterations(ps, qs, kernel.kernel, tol, max_iter)
    if result is None:
        result = _log_iterations(ps, qs, Ms, gamma, tol, max_iter)

    T_small, iterations, viol = result
    plan = _embed_plan(T_small, rows, cols, M_full.shape)
    cost = float((plan * M_full).sum())
    return TransportPlan(
        plan=plan,
        transport_cost=cost,
        regularized_value=cost - gamma * entropy(plan),
        iterations=iterations,
        marginal_violation=viol,
    )


def exact_ot(p, q, M, max_cells: int = MAX_EXACT_CELLS) -> TransportPlan:
    """Exact (unregularized) optimal transport via linear programming.

    A reference solver for small instances: refuses problems with more
    than ``max_cells`` plan entries.  ``regularized_value`` equals
    ``transport_cost`` since there is no entropy term at gamma = 0.
    """
    M_full = _as_cost(M)
    p = simplex(p, name="p")
    q = simplex(q, name="q")
    n, s = M_full.shape
    if (n, s) != (p.size, q.size):
        raise ValueError(
            "cost shape %s does not match marginals (%d, %d)"
            % ((M_full.shape,), p.size, q.size)
        )
    if n * s > max_cells:
        raise ValueError(
            "exact solve refused: %d plan cells exceed the cap of %d"
            % (n * s, max_cells)
        )

    A = np.zeros((n + s, n * s))
    for i in range(n):
        A[i, i * s:(i + 1) * s] = 1.0
    for j in range(s):
        A[n + j, j::s] = 1.0
    b = np.concatenate([p, q])
    res = linprog(M_full.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if not res.success:
        raise SolverError("exact transport LP failed: %s" % res.message)
    plan = res.x.reshape(n, s)
    viol = max(
        np.max(np.abs(plan.sum(axis=1) - p)), np.max(np.abs(plan.sum(axis=0) - q))
    )
    cost = float(res.fun)
    return TransportPlan(
        plan=plan,
        transport_cost=cost,
        regularized_value=cost,
        iterations=int(getattr(res, "nit", 0)),
        marginal_violation=float(viol),
    )


def _check_histograms(P, n):
    """Validated n x m matrix of the histograms in P (one per user) and their entropies."""
    cols = [simplex(p, name="p") for p in P]
    if not cols:
        raise ValueError("P must contain at least one user")
    if any(c.size != n for c in cols):
        raise ValueError("every preference histogram must have length %d" % n)
    return np.stack(cols, axis=1), np.array([entropy(c) for c in cols])


def batch_conjugate(P, G, kernel: GibbsKernel, entropies, need_grad: bool = True):
    """Conjugate values (m,) and gradients (s x m, or None) of many users at once.

    Columns of P (n x m) are simplex histograms with entropies h(p_u),
    trusted here because callers validate P once per solve; columns of G
    are their potentials.  Kernel rows are shifted by their maxima a_i
    and each potential column by its maximum, so one product
    C = K_hat A_hat serves every user and the shifts cancel in the
    gradient A_hat * K_hat^T (P / C).  Cells of C that fall below the
    normal float range (a potential's spread over gamma is large) and
    carry mass are recomputed by log-sum-exp.
    """
    gamma = kernel.gamma
    b = G.max(axis=0)
    log_A = (G - b) / gamma
    A = np.exp(log_A)
    C = kernel.shifted_kernel @ A
    low = C < _TINY
    C[low] = np.inf  # leaves these cells out of P / C and the gradient ...
    grads = A * (kernel.shifted_kernel.T @ (P / C)) if need_grad else None
    C[low] = 1.0  # ... and out of the values; the repair below adds them
    values = gamma * (entropies + kernel.row_shift @ P
                      + np.einsum("ij,ij->j", P, np.log(C, out=C))) + b

    rows, users = np.divmod(np.flatnonzero(low & (P > 0)), P.shape[1])
    step = max(1, (1 << 20) // G.shape[0])  # repair blocks of at most 8 MB
    for start in range(0, rows.size, step):
        i, u = rows[start:start + step], users[start:start + step]
        logits = kernel.log_kernel[i] - kernel.row_shift[i, None] + log_A[:, u].T
        lse = logsumexp(logits, axis=1)
        values += gamma * np.bincount(u, weights=P[i, u] * lse, minlength=values.size)
        if need_grad:
            np.add.at(grads.T, u, P[i, u][:, None] * np.exp(logits - lse[:, None]))
    return values, grads


def _one_user(p, g, kernel, need_grad):
    n, s = kernel.shape
    P, entropies = _check_histograms([p], n)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (s,):
        raise ValueError("potential must have shape (%d,), got %s" % (s, (g.shape,)))
    if not np.all(np.isfinite(g)):
        raise ValueError("potential has non-finite entries")
    values, grads = batch_conjugate(P, g[:, None], kernel, entropies, need_grad)
    if not (np.isfinite(values[0]) and (grads is None or np.all(np.isfinite(grads)))):
        raise SolverError("conjugate is not finite (gamma %g)" % kernel.gamma)
    return float(values[0]), grads


def conjugate_value(p, g, kernel: GibbsKernel) -> float:
    """Legendre conjugate of the smoothed transport cost in its second slot.

    For fixed first marginal p, the conjugate of q -> W_gamma(p, q) at
    the dual vector g is gamma * (h(p) + <p, log(K alpha)>) with
    alpha = exp(g / gamma); the one-user case of batch_conjugate, so
    large g / gamma ratios do not overflow.
    """
    return _one_user(p, g, kernel, need_grad=False)[0]


def conjugate_grad(p, g, kernel: GibbsKernel) -> np.ndarray:
    """Gradient of the conjugate: alpha * K^T (p / (K alpha)), a point on the simplex.

    The one-user case of batch_conjugate.
    """
    return _one_user(p, g, kernel, need_grad=True)[1][:, 0]
