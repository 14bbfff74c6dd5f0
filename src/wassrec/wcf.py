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

Both blocks are solved by one projected Newton descent with a line
search over column groups: each user is a group of its own in the
loadings block, all users form one group in the dictionary block, and
every group keeps its own step length and convergence test.  The
direction is the gradient projected onto the constraint subspace in the
metric of the conjugate's Hessian diagonal, about q / gamma at the
current histogram q, which varies by orders of magnitude across items;
a plain gradient step ignores that scaling and stalls.  That diagonal
overstates the curvature along the direction, so a unit step falls
short: every trial's gradient gives the line's derivative there, the
secant between it and the derivative at zero locates the best step,
and the group's next pass starts at that length.  A rejected trial
backtracks to the same secant estimate, and where the trial's value
agrees with the base to rounding, the derivatives decide acceptance
(the approximate Wolfe test of Hager & Zhang 2005).  The orthogonally
projected gradient still decides convergence: its norm is exactly the
distance between the current conjugate-gradient histogram and the
span it must land in, which is what makes the early-stopping
tolerances meaningful.
"""

import json
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import _check_record, _write_json
from .exceptions import RankDeficiencyError, SolverError, UnboundedDualError
from .transport import GibbsKernel, _check_budget, _histograms, _positive, batch_conjugate

__all__ = [
    "FactorModel",
    "init_factors",
    "lambda_step",
    "d_step",
    "train_wcf",
    "predict_user",
    "save_model",
    "load_model",
]

# inner dual solves stop once every group's projected gradient norm is
# under _INNER_TOL, or with a warning after _MAX_INNER passes.  A group's
# first pass tries the step _STEP_INIT; each later pass starts at the
# secant minimizer its last accepted trial measured, clipped to
# _START_RANGE, and a rejected trial backtracks to its own secant
# minimizer clipped to _BACKTRACK_RANGE times the rejected step, until
# the sufficient-decrease test with slope fraction _ARMIJO_C passes (or,
# for a value equal to the base to rounding, its approximate Wolfe form)
_INNER_TOL = 1e-7
_MAX_INNER = 500
# the step's metric is the conjugate's Hessian diagonal, about q / gamma
# at the current histogram q; the floor keeps items q leaves empty in it
_CURVATURE_FLOOR = 1e-6
_STEP_INIT = 1.0
_START_RANGE = (0.5, 4.0)
_BACKTRACK_RANGE = (0.1, 0.5)
# a group's summed conjugate value is good to a few eps of the summed
# magnitudes of its columns' values (measured by the shift covariance
# H*(g + c) = H*(g) + c); this window separates rounding from a rise
_VALUE_ROUNDING = 64 * np.finfo(np.float64).eps
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-14
_STALL_FACTOR = 1e3
# rank-deficient factor redraws before train_wcf gives up
_RANK_RETRIES = 3
# how far the all-ones vector may fall outside the loading row space
# before the dictionary subproblem is declared unbounded
_MASS_TOL = 1e-3

MODEL_FORMAT = "wassrec-factor-model/1"


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
                             % (D.shape, L.shape))
        if not (np.all(np.isfinite(D)) and np.all(np.isfinite(L))):
            raise ValueError("factors must be finite")
        object.__setattr__(self, "gamma", _positive("gamma", self.gamma))
        object.__setattr__(self, "item_ids",
                           _ids("item_ids", self.item_ids, D.shape[0], "dictionary rows"))
        object.__setattr__(self, "user_ids",
                           _ids("user_ids", self.user_ids, L.shape[1], "loading columns"))
        object.__setattr__(self, "dictionary", D)
        object.__setattr__(self, "loadings", L)
        object.__setattr__(self, "objective_trace", tuple(float(v) for v in self.objective_trace))

    @property
    def k(self) -> int:
        return self.dictionary.shape[1]


def _ids(name, ids, count, what) -> tuple:
    """``ids`` as a tuple of ints, one for each of the ``count`` ``what``, none repeated."""
    try:
        ids = tuple(map(operator.index, ids))
    except TypeError:
        raise ValueError("%s must be integers" % name) from None
    if len(ids) != count or len(set(ids)) != count:
        raise ValueError("%s must name the %d %s, each once" % (name, count, what))
    return ids


def _full_rank_qr(A, factor):
    """Reduced QR of A (rows x k); RankDeficiencyError for ``factor`` below rank k."""
    _, k = A.shape
    rank = np.linalg.matrix_rank(A)
    if rank < k:
        raise RankDeficiencyError(factor, int(rank), k)
    return np.linalg.qr(A)


def init_factors(n_cold: int, n_users: int, k: int, seed: int = 0) -> np.ndarray:
    """Random dictionary (n_cold x k): iid uniform columns scaled onto the simplex.

    Training solves the loadings block first, so none are drawn.  A
    uniform draw is full rank with probability one; a deficient one is
    caught by lambda_step's rank check and redrawn by train_wcf.
    """
    if not 1 <= k <= min(n_cold, n_users):
        raise ValueError(
            "k must satisfy 1 <= k <= min(%d items, %d users), got %d"
            % (n_cold, n_users, k)
        )
    D = np.random.default_rng(seed).uniform(size=(n_cold, k))
    return D / D.sum(axis=0, keepdims=True)


def _clean_histogram(x) -> np.ndarray:
    """Clip negative coordinates to zero and renormalize each column."""
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, None)
    total = x.sum(axis=0)
    if not np.all((total > 0) & np.isfinite(total)):
        raise SolverError("factor column has no positive mass to normalize")
    return x / total


def _projector(B):
    """Projections onto {X : B^T X = 0}, B (s x k) with orthonormal columns.

    ``project(V)`` is the orthogonal projection V - B B^T V.  With a
    positive metric W shaped like V, ``project(V, W)`` is the projection
    of W^-1 V in the W-metric, column by column: W^-1 (V - B c) with
    each column's c solving the k x k system (B^T W^-1 B) c = B^T W^-1 V.
    Every system is one row of one product against the k^2-column table
    of B's row outer products.
    """
    s, k = B.shape
    table = (B[:, :, None] * B[:, None, :]).reshape(s, k * k)

    def project(V, W=None):
        if W is None:
            return V - B @ (B.T @ V)
        systems = ((1.0 / W).T @ table).reshape(-1, k, k)
        c = np.linalg.solve(systems, (B.T @ (V / W)).T[:, :, None])[:, :, 0]
        return (V - B @ c.T) / W

    return project


def _warm_start(G0, shape) -> np.ndarray:
    """Warm-start potentials ``G0`` as a float64 array of ``shape``, zeros when None."""
    if G0 is None:
        return np.zeros(shape)
    G0 = np.asarray(G0, dtype=np.float64)
    if G0.shape != shape:
        raise ValueError("warm-start potentials have shape %s, expected %s" % (G0.shape, shape))
    return G0


def _pgd(P, G0, kernel, entropies, project, groups, block):
    """Projected Newton descent on the summed conjugate, group by group.

    Column u belongs to group ``groups[u]``; each group sums its
    columns' conjugate values, has its own step length and stops on
    its own projected gradient norm.  The direction is the gradient
    projected in the metric of the conjugate's Hessian diagonal,
    (q + floor) / gamma at the current histograms q (a diagonally scaled
    projected Newton step, Bertsekas 1982), and the slope is each
    group's inner product of it with the projected gradient.
    Candidates come with their gradients, so an accepted step is
    evaluated once, and the same gradients give the line's derivative
    at the trial; its secant with the slope locates the line's minimum.
    The first pass tries t = 1, and each later pass starts at the
    minimum the group's last accepted trial measured (the diagonal
    metric overstates curvature, so that length is usually above 1); a
    rejected trial backtracks to the secant estimate, kept between a
    tenth and a half of the rejected step.  A trial passes the Armijo
    test or, when its value agrees with the base to rounding, the
    approximate Wolfe test (Hager & Zhang 2005) on the derivatives; a
    trial whose value rose beyond rounding never passes.  A group whose
    line search stalls at a negligible projected gradient is frozen for
    the rest of the solve, a stall far from optimality is an error, and
    groups open after _MAX_INNER passes are named in a warning about
    ``block``.
    ``G0`` warm-starts the potentials; None starts them at zero.
    """
    G = project(_warm_start(G0, (kernel.shape[1], P.shape[1])))
    n_groups = int(groups.max()) + 1
    frozen = np.zeros(n_groups, dtype=bool)
    t_start = np.full(n_groups, _STEP_INIT)
    vals, grads = batch_conjugate(P, G, kernel, entropies)
    for passes in range(_MAX_INNER + 1):
        PG = project(grads)
        n2 = np.bincount(groups, (PG * PG).sum(axis=0), n_groups)
        pending = ~frozen & (n2 >= _INNER_TOL ** 2)
        if not pending.any():
            break
        if passes == _MAX_INNER:
            warnings.warn("%s dual solve stopped after %d passes with %d group(s) unconverged; "
                          "largest projected gradient norm %g (tolerance %g)"
                          % (block, passes, pending.sum(), np.sqrt(n2[pending].max()), _INNER_TOL))
            break
        step = project(grads, (grads + _CURVATURE_FLOOR) / kernel.gamma)
        slope = np.bincount(groups, (PG * step).sum(axis=0), n_groups)
        base = np.bincount(groups, vals, n_groups)
        rounding = _VALUE_ROUNDING * np.bincount(groups, np.abs(vals), n_groups)
        t = t_start.copy()
        while pending.any():
            sel = pending[groups]
            # views, not copies, while every column is pending
            cols = slice(None) if sel.all() else np.flatnonzero(sel)
            cand = G[:, cols] - t[groups[cols]] * step[:, cols]
            cvals, cgrads = batch_conjugate(P[:, cols], cand, kernel, entropies[cols])
            value = np.bincount(groups[cols], cvals, n_groups)
            # along the line the derivative is -slope at 0 and -d1 at t
            d1 = np.bincount(groups[cols], (cgrads * step[:, cols]).sum(axis=0), n_groups)
            # where the values agree to rounding, the trapezoid estimate
            # t (slope + d1) / 2 of the decrease stands in for them
            ok = pending & ((value <= base - _ARMIJO_C * t * slope)
                            | ((np.abs(value - base) <= rounding)
                               & (slope + d1 >= 2 * _ARMIJO_C * slope)))
            # the secant through both derivatives is zero at ratio * t; a
            # line that looks flat or concave gets the largest allowed step
            denom = slope - d1
            ratio = np.divide(slope, denom, out=np.full(n_groups, np.inf), where=denom > 0)
            t_start[ok] = np.clip(ratio[ok] * t[ok], *_START_RANGE)
            take = ok[groups[cols]]
            G[:, cols] = np.where(take, cand, G[:, cols])
            vals[cols] = np.where(take, cvals, vals[cols])
            grads[:, cols] = np.where(take, cgrads, grads[:, cols])
            pending &= ~ok
            t[pending] *= np.clip(ratio[pending], *_BACKTRACK_RANGE)
            stuck = pending & (t < _MIN_STEP)
            if stuck.any():
                worst = float(np.sqrt(n2[stuck].max()))
                if worst > _STALL_FACTOR * _INNER_TOL:
                    raise SolverError("dual line search found no decrease for %d group(s); "
                                      "projected gradient norm %g at step %g"
                                      % (int(stuck.sum()), worst, _MIN_STEP))
                frozen |= stuck  # negligible gradient: keep the iterate
                pending &= ~stuck
        G = project(G)
    return G, grads


def lambda_step(D, P, kernel: GibbsKernel, G0=None):
    """Optimal loadings for a fixed dictionary, solved in the dual.

    Each user's potential is descended over the subspace D^T g = 0;
    the user's optimal histogram is the conjugate gradient there, and
    the loadings are its least-squares coordinates in the dictionary
    (QR-based, exact at convergence because the projected gradient is
    precisely the out-of-span residual).  ``G0`` warm-starts the
    potentials (s x m, zeros when None).  Returns the new loadings and
    the final potentials.
    """
    D = np.asarray(D, dtype=np.float64)
    P_mat, ents = _histograms(np.transpose(P), kernel.shape[0])
    Q, R = _full_rank_qr(D, "dictionary")
    m = P_mat.shape[1]
    if kernel.shape[1] != D.shape[0]:
        raise ValueError("dictionary rows %d do not match kernel columns %d"
                         % (D.shape[0], kernel.shape[1]))

    G, grads = _pgd(P_mat, G0, kernel, ents, _projector(Q), np.arange(m), "loadings")
    return np.linalg.solve(R, Q.T @ grads), G


def d_step(lam, P, kernel: GibbsKernel, G0=None):
    """Optimal dictionary for fixed loadings, solved in the dual.

    The stacked potentials are descended over {G : G Lambda^T = 0};
    the users' optimal histograms are the conjugate gradients there and
    the dictionary is recovered by QR least squares against the
    loadings.  ``G0`` warm-starts the potentials as in lambda_step.
    Returns the new dictionary and the final potentials.
    """
    lam = np.asarray(lam, dtype=np.float64)
    P_mat, ents = _histograms(np.transpose(P), kernel.shape[0])
    QL, RL = _full_rank_qr(lam.T, "loadings")
    m = lam.shape[1]
    if P_mat.shape[1] != m:
        raise ValueError("loadings cover %d users but P has %d" % (m, P_mat.shape[1]))

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

    # the constraint acts on the rows of G, each of them a column of G^T
    rows = _projector(QL)

    def project(G, W=None):
        return rows(G.T, None if W is None else W.T).T

    G, grads = _pgd(P_mat, G0, kernel, ents, project, np.zeros(m, dtype=np.intp), "dictionary")
    return np.linalg.solve(RL, QL.T @ grads.T).T, G


def train_wcf(P, M, k: int, gamma: float = 0.05, tol: float = 1e-5, max_outer: int = 50,
              seed: int = 0, user_ids=None, item_ids=None) -> FactorModel:
    """Alternate loadings and dictionary updates until the objective settles.

    ``P`` is a sequence of per-user preference histograms over the
    interacted items; ``M`` the interacted-to-cold cost, smoothed at
    ``gamma``.  ``user_ids`` name the histograms and distinct
    ``item_ids`` the cost columns, both by position if omitted.  ``tol``
    is the relative objective change across one outer pass that counts
    as converged, ``max_outer`` caps the outer passes, and ``seed``
    draws the initial dictionary.  Each half-step's dual potentials
    warm-start the next one, projected onto its constraint set.  The
    objective trace holds the block dual value -sum_u H*_{p_u}(g_u) at
    the potentials each half-step returns, two entries per outer pass.
    By strong duality it is the primal sum_u W_gamma(p_u, D lambda_u)
    of that half-step's factors where the block solve converged, and a
    lower bound on it where the solve stopped at its pass budget (and
    warned).  Convergence compares the ends of consecutive outer
    passes.  If a factor goes rank deficient the dictionary is redrawn
    (a bounded number of times), the potentials restart at zero and the
    trace carries on.  Returns the trained factors with the lowest
    traced objective.
    """
    _check_budget(tol, max_outer, "max_outer")
    kernel = GibbsKernel(M, gamma)
    P_mat, ents = _histograms(np.transpose(P), kernel.shape[0])
    m, s = P_mat.shape[1], kernel.shape[1]
    user_ids = _ids("user_ids", range(m) if user_ids is None else user_ids, m, "histograms")
    item_ids = _ids("item_ids", range(s) if item_ids is None else item_ids, s, "cost columns")

    trace, best = [], None

    def score(D, lam, G):
        nonlocal best
        trace.append(-batch_conjugate(P_mat, G, kernel, ents)[0].sum())
        if best is None or trace[-1] < best[0]:
            best = (trace[-1], D, lam)

    D = init_factors(s, m, k, seed=seed)
    G = prev = None
    redraws = 0
    outer = 0
    rng = np.random.default_rng(seed + 1)
    while outer < max_outer:
        try:
            lam, G = lambda_step(D, P_mat.T, kernel, G)
            score(D, lam, G)
            D, G = d_step(lam, P_mat.T, kernel, G)
        except RankDeficiencyError as err:
            redraws += 1
            if redraws > _RANK_RETRIES:
                raise
            warnings.warn("redrawing %s after rank deficiency (attempt %d)"
                          % (err.factor, redraws))
            D = init_factors(s, m, k, seed=int(rng.integers(2 ** 31)))
            G = None
            continue
        score(D, lam, G)
        if prev is not None and abs(trace[-1] - prev) <= tol * max(1.0, abs(prev)):
            break
        prev = trace[-1]
        outer += 1

    _, D_best, lam_best = best
    return FactorModel(
        dictionary=D_best,
        loadings=lam_best,
        gamma=kernel.gamma,
        item_ids=item_ids,
        user_ids=user_ids,
        objective_trace=trace,
    )


def predict_user(model: FactorModel, user_id) -> np.ndarray:
    """Cleaned histogram D lambda_u for one user, aligned with item_ids."""
    try:
        u = model.user_ids.index(operator.index(user_id))
    except (TypeError, ValueError):
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
    _write_json(path / "manifest.json", {
        "format": MODEL_FORMAT,
        "gamma": model.gamma,
        "k": model.k,
        "item_ids": list(model.item_ids),
        "user_ids": list(model.user_ids),
        "objective_trace": list(model.objective_trace),
    })


def load_model(path) -> FactorModel:
    """Load a directory written by save_model; a manifest key that is
    missing or of another JSON type is a DataError (a ValueError) naming it."""
    path = Path(path)
    with open(path / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if isinstance(manifest, dict) and manifest.get("format") != MODEL_FORMAT:
        raise ValueError("unrecognized model format %r" % manifest.get("format"))
    _check_record(manifest, "model manifest", {
        "gamma": "a number", "k": "an int", "item_ids": "a list of ints",
        "user_ids": "a list of ints", "objective_trace": "a list of numbers"})
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
