"""Entropic optimal transport on the probability simplex.

Smoothed transport cost between histograms, an exact linear-programming
reference for test-scale instances, and the Legendre conjugate of the
smoothed cost in its second marginal (value and gradient).  Sinkhorn
and the conjugate are batched over users sharing one Gibbs kernel, on
one stabilized product that stays batched at any gamma.  The conjugate
gradient drives wcf's dual solves; at g = 0 it is wf's cold-start
inference, which ``wfilter.infer_cold`` computes in closed form.  A cost
is a plain nonnegative array; the item ids of its axes stay with callers.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConvergenceError, SolverError

__all__ = [
    "GibbsKernel",
    "TransportPlan",
    "simplex",
    "entropy",
    "sinkhorn",
    "batch_sinkhorn",
    "exact_ot",
    "batch_conjugate",
    "conjugate_value",
    "conjugate_grad",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000

# Refuse exact LP solves above this many plan cells; the oracle is a
# test dependency, not a production path.
MAX_EXACT_CELLS = 400

_TINY = np.finfo(np.float64).tiny

# Sinkhorn's linear rate degrades with the kernel's cross-ratio on a
# pair's support; pairs still open after _NEWTON_AFTER iterations get
# one damped Newton solve on their dual of at most _NEWTON_STEPS steps,
# each backtracking by halves from 1 down to _NEWTON_MIN_STEP
_NEWTON_AFTER = 1000
_NEWTON_STEPS = 50
_NEWTON_MIN_STEP = 1e-10
_NEWTON_ARMIJO_C = 1e-4


def simplex(weights, name: str = "weights") -> np.ndarray:
    """Validate and renormalize a histogram onto the probability simplex.

    Entries must be finite and nonnegative with positive total mass;
    the result is a fresh float64 vector summing to 1.  Zero entries
    are allowed, an all-zero vector is not.  The one-column case of the
    check every batch of histograms gets.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("%s must be a 1-D vector, got shape %s" % (name, (w.shape,)))
    return _histograms(w[:, None], w.size, name)[0][:, 0]


def _xlogx(a):
    """a log a elementwise, 0 where a is 0."""
    out = np.log(a, where=a > 0, out=np.zeros_like(a))
    out *= a
    return out


def entropy(x) -> float:
    """Shannon entropy -sum x log x with the 0 log 0 = 0 convention.

    Accepts histograms or transport plans (any nonnegative array).
    """
    a = np.asarray(x, dtype=np.float64)
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("entropy requires finite nonnegative entries")
    return float(-_xlogx(a).sum())


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
        c = _as_cost(self.cost)
        g = float(self.gamma)
        if not np.isfinite(g) or g <= 0:
            raise ValueError("gamma must be positive and finite, got %r" % self.gamma)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "gamma", g)

    @classmethod
    def from_cost(cls, M, gamma: float) -> "GibbsKernel":
        return cls(M, gamma)

    @cached_property
    def row_shift(self) -> np.ndarray:
        return -self.cost.min(axis=1) / self.gamma

    @cached_property
    def shifted_kernel(self) -> np.ndarray:
        """exp(-cost / gamma - row_shift): every row peaks at exactly 1."""
        return np.exp(-self.cost / self.gamma - self.row_shift[:, None])

    @cached_property
    def T(self) -> "GibbsKernel":
        """The kernel of the transposed cost: cold items become the rows."""
        return GibbsKernel(np.ascontiguousarray(self.cost.T), self.gamma)

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


def _check_pair(p, q, M):
    """Validated marginals p, q and the cost matrix between them."""
    M, p, q = _as_cost(M), simplex(p, name="p"), simplex(q, name="q")
    if M.shape != (p.size, q.size):
        raise ValueError("cost shape %s does not match marginals (%d, %d)"
                         % ((M.shape,), p.size, q.size))
    return p, q, M


def _shifted_log_product(kernel, G, weights, need_grad=False, support=None):
    """b = G's column maxima and L = log(K exp(G / gamma)) - a - b / gamma.

    a is the kernel's ``row_shift``: kernel rows and potential columns
    both peak at 1, so one product C = K_hat A_hat serves every column.
    Cells of C below the normal float range that carry weight are
    recomputed by log-sum-exp; other such cells read 0.  With
    ``need_grad`` also the weighted softmax A_hat * K_hat^T (W / C).
    ``support`` holds the flat indices of G's finite cells when the rest
    are -inf; only those are exponentiated (exp is slow on -inf).
    """
    b = G.max(axis=0)
    log_A = (G - b) / kernel.gamma
    if support is None:
        A = np.exp(log_A)
    else:
        A = np.zeros_like(log_A)
        A.put(support, np.exp(log_A.take(support)))
    C = kernel.shifted_kernel @ A
    low = C < _TINY
    C[low] = np.inf  # leaves these cells out of W / C and the gradient ...
    grads = A * (kernel.shifted_kernel.T @ (weights / C)) if need_grad else None
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
        if need_grad:
            np.add.at(grads.T, u, weights[i, u][:, None] * np.exp(logits - lse[:, None]))
    return b, L, grads


def _checked_columns(X, rows, name):
    """X (rows x m) as float64, not copied, and its column masses.

    The one check of every batch of histograms: entries finite and
    nonnegative, every column of positive mass (zero entries allowed).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != rows or X.shape[1] < 1:
        raise ValueError("%s must have shape (%d, m >= 1), got %s" % (name, rows, (X.shape,)))
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


def _check_budget(tol, max_iter):
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


def _newton(p, q, f, g, cost, gamma, tol):
    """Damped Newton ascent on one pair's entropic dual, over its supports.

    The dual <p, f> + <q, g> - gamma sum_ij exp((f_i + g_j - M_ij) / gamma)
    is concave; its unknowns are f on p's support and g on q's, all but
    the last g, which stays fixed (the dual is flat along f + c, g - c).
    Starts from (f, g) and updates g in place; every step backtracks by
    halves until the Armijo test holds.  Stops once both marginals are
    within a thousandth of ``tol``, or hands the pair back as it stands
    on a singular or non-finite step or a stalled search (Brauer,
    Clason, Lorenz & Wirth 2017).
    """
    rows, cols = np.flatnonzero(p), np.flatnonzero(q)
    p, q, M = p[rows], q[cols], cost[np.ix_(rows, cols)]
    n = rows.size
    x = np.concatenate([f[rows], g[cols]])
    T = np.exp((x[:n, None] + x[None, n:] - M) / gamma)
    for _ in range(_NEWTON_STEPS):
        r, c = T.sum(axis=1), T.sum(axis=0)
        grad = np.concatenate([p - r, q - c])
        if np.abs(grad).max() < 1e-3 * tol:
            break
        hess = np.block([[np.diag(r), T], [T.T, np.diag(c)]]) / gamma
        try:
            d = np.append(np.linalg.solve(hess[:-1, :-1], grad[:-1]), 0.0)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(d)):
            break
        slope, gain_rate = grad @ d, p @ d[:n] + q @ d[n:]
        t = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            while t >= _NEWTON_MIN_STEP:
                # the dual's gain along t d, free of cancellation against its value
                E = np.expm1(t * (d[:n, None] + d[None, n:]) / gamma)
                if t * gain_rate - gamma * (T * E).sum() >= _NEWTON_ARMIJO_C * t * slope:
                    break
                t *= 0.5
        if t < _NEWTON_MIN_STEP:
            break
        x += t * d
        T = np.exp((x[:n, None] + x[None, n:] - M) / gamma)
    g[cols] = x[n:]


def _scale(P, Q, kernel, tol, max_iter, G0=None):
    """Log-domain Sinkhorn on all pairs: f = gamma (log p - log K e^(g/gamma)), mirrored.

    Returns F, G, the row sums R of the plans e^((f_i + g_j - M_ij)/gamma)
    (their columns are Q), iterations and violation.  The column
    potentials start at ``G0`` (s x m, checked by the caller), zero when
    None.  Zero-mass entries hold potential -inf from the start, so they
    carry no plan mass.
    After _NEWTON_AFTER iterations each pair still open gets a damped
    Newton solve (``_newton``) from its current potentials, and the
    scaling loop carries on from there; pairs that close before then
    never see it.
    """
    gamma, flip = kernel.gamma, kernel.T
    with np.errstate(divide="ignore"):
        # log p - a and log q - a', a and a' the kernels' row shifts
        log_P = np.log(P) - kernel.row_shift[:, None]
        log_Q = np.log(Q) - flip.row_shift[:, None]
    cells = np.flatnonzero(P)  # rows are checked where they carry mass
    p, users = P.ravel()[cells], cells % P.shape[1]
    support = cells if cells.size < P.size else None  # F is -inf off P's support
    G = np.where(Q > 0, 0.0 if G0 is None else G0, -np.inf)
    b, L, _ = _shifted_log_product(kernel, G, P)
    for it in range(1, max_iter + 1):
        F = gamma * (log_P - L) - b
        b_flip, L_flip, _ = _shifted_log_product(flip, F, Q, support=support)
        G = gamma * (log_Q - L_flip) - b_flip
        b_next, L_next, _ = _shifted_log_product(kernel, G, P)
        # rows of the plan (F, G) are p exp(delta); the next F makes them p
        delta = L_next.take(cells) - L.take(cells) + ((b_next - b) / gamma)[users]
        with np.errstate(over="ignore"):
            deviation = np.abs(p * np.expm1(delta))
        viol = float(deviation.max())
        if viol < tol:
            R = np.zeros_like(P)
            R.flat[cells] = p * np.exp(delta)
            return F, G, R, it, viol
        if it == _NEWTON_AFTER < max_iter:
            pair_viol = np.zeros(P.shape[1])
            np.maximum.at(pair_viol, users, deviation)
            for u in np.flatnonzero(pair_viol >= tol):
                _newton(P[:, u], Q[:, u], F[:, u], G[:, u], kernel.cost, gamma, tol)
            b_next, L_next, _ = _shifted_log_product(kernel, G, P)
        b, L = b_next, L_next
    raise ConvergenceError("Sinkhorn scaling did not reach tolerance %g in %d iterations "
                           "(marginal violation %g)" % (tol, max_iter, viol),
                           iterations=max_iter, violation=viol)


def batch_sinkhorn(P, Q, kernel: GibbsKernel, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER, G0=None):
    """Smoothed transport values W_gamma(p_u, q_u) of many histogram pairs at once.

    Columns of P (n x m) and Q (s x m) are histograms (renormalized
    here; zero entries allowed).  Each Sinkhorn step is one stabilized
    product per side for every pair, at any gamma; a pair still open
    after _NEWTON_AFTER steps gets a damped Newton finish on its dual.
    ``G0`` (s x m) warm-starts the column potentials, which must be
    finite where Q has mass; None starts them at zero.  Potentials that
    already balance the pairs, such as a dual block solve's whose
    conjugate gradients are Q, close the scaling in a few steps.
    Returns the values <T_u, M> - gamma h(T_u) of the final plans, the
    iterations the slowest pair needed and the worst marginal violation;
    raises ConvergenceError if ``max_iter`` passes are not enough.
    """
    n, s = kernel.shape
    P, _ = _histograms(P, n, "P")
    Q, _ = _histograms(Q, s, "Q")
    if P.shape[1] != Q.shape[1]:
        raise ValueError("P has %d columns but Q has %d" % (P.shape[1], Q.shape[1]))
    _check_budget(tol, max_iter)
    if G0 is not None:
        G0 = np.asarray(G0, dtype=np.float64)
        if G0.shape != Q.shape:
            raise ValueError("warm-start potentials have shape %s, expected %s"
                             % (G0.shape, Q.shape))
        if not np.all(np.isfinite(G0[Q > 0])):
            raise ValueError("warm-start potentials must be finite where Q has mass")
    F, G, R, iterations, viol = _scale(P, Q, kernel, tol, max_iter, G0)
    # <T, M> - gamma h(T) = <f, rows of T> + <g, columns of T>
    values = (np.einsum("ij,ij->j", R, np.where(P > 0, F, 0.0))
              + np.einsum("ij,ij->j", Q, np.where(Q > 0, G, 0.0)))
    return values, iterations, viol


def sinkhorn(p, q, M, gamma: float, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> TransportPlan:
    """Solve the entropy-smoothed transport problem between p and q.

    Minimizes <T, M> - gamma * h(T) over couplings of p (rows) and q
    (columns), h the Shannon entropy.  Stops when the worst L-infinity
    marginal violation of the current plan drops below ``tol``; raises
    ConvergenceError (carrying the final violation) if ``max_iter``
    passes are not enough.

    The one-pair case of batch_sinkhorn: one stabilized loop on the
    dual potentials serves every gamma, without NaN where the Gibbs
    kernel underflows.  Zero-mass entries of p and q hold potential
    -inf, as in batch_sinkhorn, and come back as zero rows/columns.
    """
    p, q, M = _check_pair(p, q, M)
    _check_budget(tol, max_iter)
    kernel = GibbsKernel(M, gamma)
    F, G, _, iterations, viol = _scale(p[:, None], q[:, None], kernel, tol, max_iter)
    plan = np.exp((F + G.T - M) / kernel.gamma)
    cost = float((plan * M).sum())
    return TransportPlan(
        plan=plan,
        transport_cost=cost,
        regularized_value=cost - kernel.gamma * entropy(plan),
        iterations=iterations,
        marginal_violation=viol,
    )


def exact_ot(p, q, M) -> TransportPlan:
    """Exact (unregularized) optimal transport via linear programming.

    A reference solver for small instances: refuses problems with more
    than MAX_EXACT_CELLS plan entries.  ``regularized_value`` equals
    ``transport_cost`` since there is no entropy term at gamma = 0.
    """
    # imported here so that importing the package does not load SciPy
    from scipy.optimize import linprog

    p, q, M_full = _check_pair(p, q, M)
    n, s = M_full.shape
    if n * s > MAX_EXACT_CELLS:
        raise ValueError(
            "exact solve refused: %d plan cells exceed the cap of %d"
            % (n * s, MAX_EXACT_CELLS)
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


def batch_conjugate(P, G, kernel: GibbsKernel, entropies, need_grad: bool = True):
    """Conjugate values (m,) and gradients (s x m, or None) of many users at once.

    Columns of P (n x m) are simplex histograms with entropies h(p_u),
    trusted here because callers validate P once per solve; columns of G
    are their potentials.  The values gamma (h(p_u) + <p_u, log K
    exp(g_u / gamma)>) and the gradients come from one stabilized
    product over all users (``_shifted_log_product``), so large spreads
    of g / gamma neither overflow nor underflow.
    """
    b, L, grads = _shifted_log_product(kernel, G, P, need_grad)
    values = kernel.gamma * (entropies + kernel.row_shift @ P
                             + np.einsum("ij,ij->j", P, L)) + b
    return values, grads


def _one_user(p, g, kernel, need_grad):
    n, s = kernel.shape
    P, entropies = _histograms(np.asarray(p, dtype=np.float64)[..., None], n, "p")
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
