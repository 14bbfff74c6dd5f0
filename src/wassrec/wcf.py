"""Low-rank preference factorization under the smoothed transport loss.

Every user's cold-item histogram is constrained to a shared dictionary:
q_u = D lambda_u.  Training minimizes sum_u W_gamma(p_u, D lambda_u) by
block-coordinate descent, and each block is solved in the dual, where
the conjugate of the transport loss turns the coupling into a linear
subspace constraint on the potentials:

* loadings block: per user, minimize H*_{p_u}(g) subject to D^T g = 0;
  the optimal histogram is the conjugate gradient at the solution and
  the loadings are recovered by least squares against the dictionary.
* dictionary block: jointly over users, minimize sum_u H*_{p_u}(g_u)
  subject to G Lambda^T = 0, then recover D the same way.

Both solves are projected gradient descent with Armijo backtracking.
The projected gradient has a second life: its norm is exactly the
distance between the current conjugate-gradient histogram and the
span it must land in, which is what makes the early-stopping
tolerances meaningful.
"""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from .exceptions import RankDeficiencyError, SolverError, UnboundedDualError
from .transport import CostMatrix, GibbsKernel, _check_histograms, batch_conjugate, sinkhorn

__all__ = [
    "TrainOptions",
    "FactorModel",
    "DualState",
    "init_factors",
    "lambda_step",
    "d_step",
    "train_wcf",
    "predict_user",
    "save_model",
    "load_model",
]

_MIN_STEP = 1e-14
_STALL_FACTOR = 1e3
# how far the all-ones vector may fall outside the loading row space
# before the dictionary subproblem is declared unbounded
_MASS_TOL = 1e-3

MODEL_FORMAT = "wassrec-factor-model/1"


@dataclass(frozen=True)
class TrainOptions:
    """Knobs for the block-coordinate training loop.

    ``tol`` is the relative objective change across one outer pass that
    counts as converged; the inner dual solves stop once the projected
    gradient norm drops under ``inner_tol`` or after ``max_inner``
    passes.  Armijo backtracking restarts from ``step_init`` every
    iteration and shrinks by ``step_shrink`` until the sufficient
    decrease test with slope fraction ``armijo_c`` passes.  The
    objective trace is evaluated by a tight Sinkhorn solve by default;
    ``objective_eval="dual"`` reuses the (equal, by strong duality at
    block optima) negated dual value instead, which is free.
    """

    tol: float = 1e-5
    max_outer: int = 50
    inner_tol: float = 1e-7
    max_inner: int = 500
    step_init: float = 1.0
    step_shrink: float = 0.5
    armijo_c: float = 1e-4
    seed: int = 0
    objective_eval: str = "sinkhorn"
    objective_tol: float = 1e-7
    objective_max_iter: int = 100_000
    rank_retries: int = 3

    def __post_init__(self):
        if self.tol <= 0 or self.inner_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration budgets must be at least 1")
        if not 0 < self.step_shrink < 1 or self.step_init <= 0:
            raise ValueError("invalid line-search parameters")
        if not 0 < self.armijo_c < 1:
            raise ValueError("armijo_c must be in (0, 1)")
        if self.objective_eval not in ("sinkhorn", "dual"):
            raise ValueError("objective_eval must be 'sinkhorn' or 'dual'")


@dataclass(frozen=True)
class DualState:
    """Dual potentials (one column per user) plus the objective trace.

    The trace gains one entry per half-step; it starts at the objective
    of the initial factors when produced by train_wcf.
    """

    potentials: np.ndarray
    objective_trace: tuple


@dataclass(frozen=True)
class FactorModel:
    """Trained dictionary (s x k) and loadings (k x m) over cold items.

    ``item_ids`` name the dictionary rows, ``user_ids`` the loading
    columns.  Predictions are the cleaned columns of D Lambda.
    """

    dictionary: np.ndarray
    loadings: np.ndarray
    gamma: float
    item_ids: tuple
    user_ids: tuple
    objective_trace: tuple = ()

    def __post_init__(self):
        D = np.asarray(self.dictionary, dtype=np.float64)
        L = np.asarray(self.loadings, dtype=np.float64)
        if D.ndim != 2 or L.ndim != 2 or D.shape[1] != L.shape[0]:
            raise ValueError("dictionary %s and loadings %s are incompatible"
                             % ((D.shape,), (L.shape,)))
        if not (np.all(np.isfinite(D)) and np.all(np.isfinite(L))):
            raise ValueError("factors must be finite")
        if float(self.gamma) <= 0:
            raise ValueError("gamma must be positive")
        items = tuple(int(i) for i in self.item_ids)
        users = tuple(int(u) for u in self.user_ids)
        if len(items) != D.shape[0]:
            raise ValueError("item_ids must name the %d dictionary rows" % D.shape[0])
        if len(users) != L.shape[1]:
            raise ValueError("user_ids must name the %d loading columns" % L.shape[1])
        object.__setattr__(self, "dictionary", D)
        object.__setattr__(self, "loadings", L)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "item_ids", items)
        object.__setattr__(self, "user_ids", users)
        object.__setattr__(self, "objective_trace", tuple(float(v) for v in self.objective_trace))

    @property
    def k(self) -> int:
        return self.dictionary.shape[1]


def init_factors(n_cold: int, n_users: int, k: int, seed: int = 0):
    """Random positive dictionary plus least-squares loadings.

    Dictionary columns are iid uniform draws normalized onto the
    simplex; loadings start every user at the best approximation of
    the uniform histogram, so the first objective is finite and
    identical across users.
    """
    if not 1 <= k <= min(n_cold, n_users):
        raise ValueError(
            "k must satisfy 1 <= k <= min(%d items, %d users), got %d"
            % (n_cold, n_users, k)
        )
    rng = np.random.default_rng(seed)
    for _ in range(5):
        D = rng.uniform(size=(n_cold, k))
        D /= D.sum(axis=0, keepdims=True)
        if np.linalg.matrix_rank(D) == k:
            break
    else:
        raise SolverError("could not draw a full-rank dictionary")
    Q, R = np.linalg.qr(D)
    lam0 = solve_triangular(R, Q.T @ np.full(n_cold, 1.0 / n_cold))
    lam = np.tile(lam0[:, None], (1, n_users))
    return D, lam


def _clean_histogram(x) -> np.ndarray:
    """Clip negative coordinates to zero and renormalize each column."""
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, None)
    total = x.sum(axis=0)
    if not np.all((total > 0) & np.isfinite(total)):
        raise SolverError("factor column has no positive mass to normalize")
    return x / total


def _pgd_per_user(P, G0, kernel, entropies, project, opts):
    """Independent projected-gradient descents, one per user, vectorized.

    Every user keeps their own Armijo step and convergence flag; a user
    whose line search stalls at a negligible projected gradient is
    frozen, a stall far from optimality is an error.
    """
    G = project(np.array(G0, dtype=np.float64))
    vals, grads = batch_conjugate(P, G, kernel, entropies, True)
    for _ in range(opts.max_inner):
        PG = project(grads)
        norms2 = (PG * PG).sum(axis=0)
        idx = np.flatnonzero(norms2 >= opts.inner_tol ** 2)
        if idx.size == 0:
            break
        base = vals[idx]
        dirs = PG[:, idx]
        n2 = norms2[idx]
        Gact = G[:, idx]
        Pact = P[:, idx]
        Hact = entropies[idx]
        t = np.full(idx.size, opts.step_init)
        accepted = np.zeros(idx.size, dtype=bool)
        new_G = Gact.copy()
        while not accepted.all():
            rem = np.flatnonzero(~accepted)
            cand = Gact[:, rem] - t[rem][None, :] * dirs[:, rem]
            cvals, _ = batch_conjugate(Pact[:, rem], cand, kernel, Hact[rem], False)
            ok = cvals <= base[rem] - opts.armijo_c * t[rem] * n2[rem]
            new_G[:, rem[ok]] = cand[:, ok]
            accepted[rem[ok]] = True
            shrink = rem[~ok]
            t[shrink] *= opts.step_shrink
            stuck = shrink[t[shrink] < _MIN_STEP]
            if stuck.size:
                worst = float(np.sqrt(n2[stuck].max()))
                if worst > _STALL_FACTOR * opts.inner_tol:
                    raise SolverError(
                        "dual line search found no decrease for %d user(s); "
                        "projected gradient norm %g at step %g"
                        % (stuck.size, worst, _MIN_STEP)
                    )
                accepted[stuck] = True  # negligible gradient: keep the iterate
        G[:, idx] = new_G
        G = project(G)
        vals, grads = batch_conjugate(P, G, kernel, entropies, True)
    return G, vals, grads


def _pgd_joint(P, G0, kernel, entropies, project, opts):
    """Projected gradient descent on the summed conjugate objective."""
    G = project(np.array(G0, dtype=np.float64))
    vals, grads = batch_conjugate(P, G, kernel, entropies, True)
    total = float(vals.sum())
    for _ in range(opts.max_inner):
        PG = project(grads)
        n2 = float((PG * PG).sum())
        if np.sqrt(n2) < opts.inner_tol:
            break
        t = opts.step_init
        stalled = False
        while True:
            cand = G - t * PG
            cvals, _ = batch_conjugate(P, cand, kernel, entropies, False)
            if float(cvals.sum()) <= total - opts.armijo_c * t * n2:
                G = project(cand)
                break
            t *= opts.step_shrink
            if t < _MIN_STEP:
                if np.sqrt(n2) > _STALL_FACTOR * opts.inner_tol:
                    raise SolverError(
                        "dictionary line search found no decrease; "
                        "projected gradient norm %g at step %g"
                        % (float(np.sqrt(n2)), _MIN_STEP)
                    )
                stalled = True
                break
        if stalled:
            break
        vals, grads = batch_conjugate(P, G, kernel, entropies, True)
        total = float(vals.sum())
    return G, vals, grads


def _primal_objective(D, lam, P_mat, kernel, opts):
    total = 0.0
    cost = kernel.cost
    for u in range(P_mat.shape[1]):
        q = _clean_histogram(D @ lam[:, u])
        total += sinkhorn(P_mat[:, u], q, cost, kernel.gamma,
                          tol=opts.objective_tol,
                          max_iter=opts.objective_max_iter).regularized_value
    return total


def _trace_value(D, lam, P_mat, kernel, opts, dual_values):
    if opts.objective_eval == "dual":
        return float(-dual_values.sum())
    return float(_primal_objective(D, lam, P_mat, kernel, opts))


def lambda_step(D, P, kernel: GibbsKernel, opts: TrainOptions | None = None,
                state: DualState | None = None):
    """Optimal loadings for a fixed dictionary, solved in the dual.

    Each user's potential is descended over the subspace D^T g = 0;
    the user's optimal histogram is the conjugate gradient there, and
    the loadings are its least-squares coordinates in the dictionary
    (QR-based, exact at convergence because the projected gradient is
    precisely the out-of-span residual).  Returns the new loadings and
    a DualState whose trace gains this half-step's objective.
    """
    opts = opts or TrainOptions()
    D = np.asarray(D, dtype=np.float64)
    s, k = D.shape
    rank = np.linalg.matrix_rank(D)
    if rank < k:
        raise RankDeficiencyError("dictionary", int(rank), k)
    P_mat, ents = _check_histograms(P, kernel.shape[0])
    m = P_mat.shape[1]
    if kernel.shape[1] != s:
        raise ValueError("dictionary rows %d do not match kernel columns %d"
                         % (s, kernel.shape[1]))

    Q, R = np.linalg.qr(D)

    def project(G):
        return G - Q @ (Q.T @ G)

    G0 = state.potentials if state is not None else np.zeros((s, m))
    if G0.shape != (s, m):
        raise ValueError("warm-start potentials have shape %s, expected %s"
                         % ((G0.shape,), ((s, m),)))
    G, vals, grads = _pgd_per_user(P_mat, G0, kernel, ents, project, opts)

    lam = solve_triangular(R, Q.T @ grads)
    trace = state.objective_trace if state is not None else ()
    obj = _trace_value(D, lam, P_mat, kernel, opts, vals)
    return lam, DualState(potentials=G, objective_trace=trace + (obj,))


def d_step(lam, P, kernel: GibbsKernel, opts: TrainOptions | None = None,
           state: DualState | None = None):
    """Optimal dictionary for fixed loadings, solved in the dual.

    The stacked potentials are descended over {G : G Lambda^T = 0};
    the users' optimal histograms are the conjugate gradients there and
    the dictionary is recovered by QR least squares against the
    loadings.  Returns the new dictionary and the updated DualState.
    """
    opts = opts or TrainOptions()
    lam = np.asarray(lam, dtype=np.float64)
    k, m = lam.shape
    rank = np.linalg.matrix_rank(lam)
    if rank < k:
        raise RankDeficiencyError("loadings", int(rank), k)
    P_mat, ents = _check_histograms(P, kernel.shape[0])
    if P_mat.shape[1] != m:
        raise ValueError("loadings cover %d users but P has %d" % (m, P_mat.shape[1]))
    s = kernel.shape[1]

    QL, RL = np.linalg.qr(lam.T)
    # predictions D lam_u all carry unit mass only if the all-ones
    # vector lies in the loading row space; otherwise shifting the
    # potentials along 1 c^T with Lambda c = 0 decreases the objective
    # forever (conjugate shift covariance) and no dictionary exists
    ones = np.ones(m)
    mass_gap = float(np.abs(ones - QL @ (QL.T @ ones)).max())
    if mass_gap > _MASS_TOL:
        raise UnboundedDualError(
            "loadings cannot reproduce unit-mass predictions "
            "(residual %g); the dictionary subproblem is unbounded" % mass_gap
        )

    def project(G):
        return G - (G @ QL) @ QL.T

    G0 = state.potentials if state is not None else np.zeros((s, m))
    if G0.shape != (s, m):
        raise ValueError("warm-start potentials have shape %s, expected %s"
                         % ((G0.shape,), ((s, m),)))
    G, vals, grads = _pgd_joint(P_mat, G0, kernel, ents, project, opts)

    D = solve_triangular(RL, QL.T @ grads.T).T
    trace = state.objective_trace if state is not None else ()
    obj = _trace_value(D, lam, P_mat, kernel, opts, vals)
    return D, DualState(potentials=G, objective_trace=trace + (obj,))


def train_wcf(P, M, k: int, gamma: float = 0.05,
              opts: TrainOptions | None = None, user_ids=None) -> FactorModel:
    """Alternate loadings and dictionary updates until the objective settles.

    ``P`` is a sequence of per-user preference histograms over the
    interacted items; ``M`` the interacted-to-cold cost matrix (its
    column ids become the model's item ids).  Dual potentials are
    warm-started across outer iterations by projection onto each new
    constraint set.  If a factor goes rank deficient it is redrawn (a
    bounded number of times) and descent restarts from the redraw.
    Returns the model with the best traced objective.
    """
    opts = opts or TrainOptions()
    if isinstance(M, GibbsKernel):
        kernel = M
        item_ids = tuple(range(kernel.shape[1]))
    elif isinstance(M, CostMatrix):
        kernel = GibbsKernel.from_cost(M, gamma)
        item_ids = M.col_ids
    else:
        kernel = GibbsKernel.from_cost(M, gamma)
        item_ids = tuple(range(kernel.shape[1]))
    P_mat, _ = _check_histograms(P, kernel.shape[0])
    m = P_mat.shape[1]
    s = kernel.shape[1]
    if user_ids is None:
        user_ids = tuple(range(m))
    user_ids = tuple(user_ids)
    if len(user_ids) != m:
        raise ValueError("user_ids must name the %d histograms" % m)

    D, lam = init_factors(s, m, k, seed=opts.seed)
    # the first trace entry is always the primal objective: the dual
    # shortcut only equals the primal at block optima, and the initial
    # factors are not one
    trace = (float(_primal_objective(D, lam, P_mat, kernel, opts)),)
    state = DualState(potentials=np.zeros((s, m)), objective_trace=trace)

    best = (trace[0], D, lam)
    prev = trace[0]
    redraws = 0
    outer = 0
    rng = np.random.default_rng(opts.seed + 1)
    while outer < opts.max_outer:
        try:
            lam_new, state = lambda_step(D, P_mat.T, kernel, opts, state)
            lam = lam_new
            if state.objective_trace[-1] < best[0]:
                best = (state.objective_trace[-1], D.copy(), lam.copy())
            D_new, state = d_step(lam, P_mat.T, kernel, opts, state)
            D = D_new
        except RankDeficiencyError as err:
            redraws += 1
            if redraws > opts.rank_retries:
                raise
            warnings.warn("redrawing %s after rank deficiency (attempt %d)"
                          % (err.factor, redraws))
            fresh_seed = int(rng.integers(2 ** 31))
            D, lam = init_factors(s, m, k, seed=fresh_seed)
            state = DualState(potentials=np.zeros((s, m)),
                              objective_trace=state.objective_trace)
            continue
        cur = state.objective_trace[-1]
        if cur < best[0]:
            best = (cur, D.copy(), lam.copy())
        if abs(cur - prev) <= opts.tol * max(1.0, abs(prev)):
            break
        prev = cur
        outer += 1

    _, D_best, lam_best = best
    return FactorModel(
        dictionary=D_best,
        loadings=lam_best,
        gamma=kernel.gamma,
        item_ids=item_ids,
        user_ids=user_ids,
        objective_trace=state.objective_trace,
    )


def predict_user(model: FactorModel, user_id) -> np.ndarray:
    """Cleaned histogram D lambda_u for one user, aligned with item_ids."""
    try:
        u = model.user_ids.index(int(user_id))
    except ValueError:
        raise KeyError("unknown user %r" % (user_id,)) from None
    return _clean_histogram(model.dictionary @ model.loadings[:, u])


def save_model(model: FactorModel, path) -> None:
    """Write a model directory: two delimited matrices plus a manifest.

    Floats are serialized with 17 significant digits, so loading the
    directory reproduces the model bit for bit.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    np.savetxt(path / "dictionary.tsv", model.dictionary, fmt="%.17g", delimiter="\t")
    np.savetxt(path / "loadings.tsv", model.loadings, fmt="%.17g", delimiter="\t")
    manifest = {
        "format": MODEL_FORMAT,
        "gamma": model.gamma,
        "k": model.k,
        "item_ids": list(model.item_ids),
        "user_ids": list(model.user_ids),
        "objective_trace": list(model.objective_trace),
    }
    with open(path / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> FactorModel:
    """Load a directory written by save_model."""
    path = Path(path)
    with open(path / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != MODEL_FORMAT:
        raise ValueError("unrecognized model format %r" % manifest.get("format"))
    D = np.loadtxt(path / "dictionary.tsv", delimiter="\t", ndmin=2)
    lam = np.loadtxt(path / "loadings.tsv", delimiter="\t", ndmin=2)
    model = FactorModel(
        dictionary=D,
        loadings=lam,
        gamma=manifest["gamma"],
        item_ids=tuple(manifest["item_ids"]),
        user_ids=tuple(manifest["user_ids"]),
        objective_trace=tuple(manifest["objective_trace"]),
    )
    if model.k != manifest["k"]:
        raise ValueError("manifest k %d does not match dictionary" % manifest["k"])
    return model
