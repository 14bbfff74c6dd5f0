"""Brute-force oracles shared by the test suite.

Everything here is deliberately independent of the library's solver
internals: the exact transport linear program, textbook scaling
updates, dense simplex grids, exhaustive enumeration, ranking metrics
as their formulas read, line-by-line file parsing, a table writer that
formats every cell where it appears.  Slow and simple on purpose, so
that a bug in the library and a bug in the oracle are unlikely to
coincide.
"""

import math
import warnings
from itertools import chain

import numpy as np
from scipy.optimize import linprog
from scipy.special import logsumexp

from wassrec import DataError
from wassrec.cli import WRITE_BLOCK
from wassrec.dataio import GenomeTable


def simplex_grid(s, step, interior=False):
    """All points of the s-1 simplex with coordinates on a grid of ``step``.

    Returns an (s, N) array whose columns sum to 1.  With ``interior``
    every coordinate is at least ``step`` (no boundary points).
    """
    levels = int(round(1.0 / step))
    lo = 1 if interior else 0

    def compositions(total, parts):
        if parts == 1:
            if total >= lo:
                yield (total,)
            return
        for head in range(lo, total - lo * (parts - 1) + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head, *rest)

    if s == 3:
        # vectorized: enumerate (i, j), k is implied
        i = np.arange(lo, levels - 2 * lo + 1)
        counts = levels - 2 * lo + 1 - (i - lo)
        I = np.repeat(i, counts)
        J = np.concatenate([np.arange(lo, lo + c) for c in counts]) if len(counts) else np.array([], int)
        Kk = levels - I - J
        pts = np.stack([I, J, Kk])
    else:
        pts = np.array(list(compositions(levels, s)), dtype=np.int64).T
    return pts.astype(np.float64) / levels


def entropy(x):
    """Shannon entropy -sum x log x of a nonnegative array, 0 log 0 = 0."""
    a = np.asarray(x, dtype=np.float64)
    return float(-(a * np.log(np.where(a > 0, a, 1.0))).sum())


def exact_ot(p, q, M):
    """Exact (unregularized) optimal transport from p to q as a linear program.

    The plan's n x s cells are the unknowns, row sums p and column sums
    q the equality constraints.  Returns the optimal plan and its cost
    <plan, M>; asserts the LP solver succeeded.
    """
    p, q, M = (np.asarray(a, dtype=np.float64) for a in (p, q, M))
    n, s = M.shape
    sums = np.vstack([np.kron(np.eye(n), np.ones(s)),   # row i of the plan
                      np.kron(np.ones(n), np.eye(s))])  # column j of the plan
    res = linprog(M.ravel(), A_eq=sums, b_eq=np.concatenate([p, q]), bounds=(0, None),
                  method="highs")
    assert res.success, res.message
    return res.x.reshape(n, s), float(res.fun)


def entropic_value_many(p, Q, M, gamma, tol=1e-9, max_iter=100_000):
    """Entropy-smoothed transport value W_gamma(p, q) for every column q of Q.

    Plain scaling updates, one problem per column.  A column's value is
    recorded the iteration it converges; converged columns are dropped
    from the iteration once they make up half of it.  Requires a
    strictly positive first marginal; columns of Q may touch the simplex
    boundary.  The value is read off the optimal scalings as
    gamma * (<log u, p> + <log v, q>).
    """
    p = np.asarray(p, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    if np.any(p <= 0):
        raise ValueError("oracle requires a strictly positive first marginal")
    n, s = M.shape
    m = Q.shape[1]
    K = np.exp(-M / gamma)
    if K.min() <= 0:
        raise ValueError("oracle kernel underflow; use larger gamma at test scale")

    values = np.full(m, np.nan)
    active = np.arange(m)
    pending = np.ones(m, dtype=bool)  # per active column: value not yet recorded
    Qa = Q.copy()
    U = np.full((n, m), 1.0)
    KTU = K.T @ U
    for _ in range(max_iter):
        V = Qa / KTU
        KV = K @ V
        U = p[:, None] / KV
        KTU = K.T @ U
        colmass = V * KTU
        viol = np.abs(colmass - Qa).max(axis=0)
        done = pending & (viol < tol)
        if np.any(done):
            Ud, Vd, Cd = U[:, done], V[:, done], colmass[:, done]
            logv = np.log(np.where(Vd > 0, Vd, 1.0))
            values[active[done]] = gamma * (
                (np.log(Ud) * p[:, None]).sum(axis=0) + (logv * Cd).sum(axis=0)
            )
            pending &= ~done
            if not np.any(pending):
                return values
            if 2 * np.count_nonzero(pending) <= pending.size:
                active, Qa = active[pending], Qa[:, pending]
                U, V, KTU = U[:, pending], V[:, pending], KTU[:, pending]
                pending = pending[pending]
    raise RuntimeError(
        "oracle: %d of %d columns unconverged after %d iterations"
        % (np.count_nonzero(pending), m, max_iter)
    )


def sinkhorn_lse(p, q, M, gamma, tol=1e-10, max_iter=100_000):
    """Entropy-smoothed transport value W_gamma(p, q) and plan by log-domain Sinkhorn.

    One problem, restricted to the supports of p and q; each update of
    a dual potential is a direct log-sum-exp over the log kernel, so
    any gamma works.  Stops once the plan's row sums are within ``tol``
    (its columns are exact after each update) and returns
    <T, M> - gamma h(T) of that plan T, and T with zero rows and
    columns off the supports.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    rows, cols = p > 0, q > 0
    p, q, C = p[rows], q[cols], M[np.ix_(rows, cols)]
    f = np.zeros(p.size)
    g = np.zeros(q.size)
    for _ in range(max_iter):
        f = gamma * (np.log(p) - logsumexp((g[None, :] - C) / gamma, axis=1))
        g = gamma * (np.log(q) - logsumexp((f[:, None] - C) / gamma, axis=0))
        log_T = (f[:, None] + g[None, :] - C) / gamma
        T = np.exp(log_T)
        if np.abs(T.sum(axis=1) - p).max() < tol:
            plan = np.zeros(M.shape)
            plan[np.ix_(rows, cols)] = T
            return float((T * C).sum() + gamma * (T * log_T).sum()), plan
    raise RuntimeError("oracle: no convergence after %d iterations" % max_iter)


def semidual_value(p, q, M, gamma, tol=1e-10, max_steps=100):
    """Entropy-smoothed transport value W_gamma(p, q) by Newton ascent on the semi-dual.

    W_gamma(p, q) = max_g <g, q> - H*_p(g), where H*_p(g) = gamma (h(p)
    + sum_i p_i log sum_j exp((g_j - M_ij) / gamma)) is the conjugate
    written out by log-sum-exp.  The unknowns are g on q's support, all
    but the last, which stays at 0 (the objective is flat along g + c);
    rows outside p's support carry no weight.  Each step solves with the
    exact Hessian (1/gamma) sum_i p_i (diag pi_i - pi_i pi_i^T), pi_i
    row i's softmax, and backtracks by halves until the objective does
    not fall.  Stops once every entry of the gradient q - sum_i p_i pi_i
    is below ``tol``.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    rows, cols = p > 0, q > 0
    p, q, M = p[rows], q[cols], np.asarray(M, dtype=np.float64)[np.ix_(rows, cols)]
    h = entropy(p)

    def objective(g):
        logits = (g[None, :] - M) / gamma
        lse = logsumexp(logits, axis=1)
        return g @ q - gamma * (h + p @ lse), np.exp(logits - lse[:, None])

    g = np.zeros(q.size)
    value, pi = objective(g)
    for _ in range(max_steps):
        grad = q - p @ pi
        if np.abs(grad).max() < tol:
            return float(value)
        hess = (np.diag(p @ pi) - (p[:, None] * pi).T @ pi) / gamma
        step = np.append(np.linalg.solve(hess[:-1, :-1], grad[:-1]), 0.0)
        t = 1.0
        while True:
            trial, trial_pi = objective(g + t * step)
            if trial >= value:
                break
            t *= 0.5
            if t < 1e-12:
                raise RuntimeError("oracle: Newton line search stalled")
        g, value, pi = g + t * step, trial, trial_pi
    raise RuntimeError("oracle: no convergence after %d Newton steps" % max_steps)


def conjugate_lse(p, g, M, gamma):
    """Conjugate value and gradient for one user by direct log-sum-exp.

    value = gamma * (h(p) + <p, lse_j((g_j - M_ij) / gamma)>) and the
    gradient mixes the rows' softmax weights by p.  Also returns, per
    row, the log of the row's sum once the kernel row and the potential
    are each shifted to peak at 1: below log(tiny), a product of the
    shifted factors underflows.
    """
    logits = (g[None, :] - M) / gamma
    lse = logsumexp(logits, axis=1)
    h = float(-(p * np.log(np.where(p > 0, p, 1.0))).sum())
    value = gamma * (h + p @ lse)
    grad = np.exp(logits - lse[:, None]).T @ p
    log_K = -M / gamma
    shifted = logsumexp(log_K - log_K.max(axis=1, keepdims=True)
                        + (g - g.max())[None, :] / gamma, axis=1)
    return value, grad, shifted


def weighted_projection(V, W, A):
    """Each column v of V, w of W, mapped to the x with A^T x = 0 nearest w^-1 v in the w-metric.

    Minimizes sum_j w_j (x_j - v_j / w_j)^2 over the null space of A^T,
    spelled out by an orthonormal basis N of it: x = N y, with y the
    least-squares solution of (w^1/2 N) y = v / w^1/2, column by column.
    """
    from scipy.linalg import null_space

    N = null_space(np.asarray(A, dtype=np.float64).T)
    X = np.empty_like(np.asarray(V, dtype=np.float64))
    for u in range(X.shape[1]):
        root = np.sqrt(W[:, u])
        y = np.linalg.lstsq(root[:, None] * N, V[:, u] / root, rcond=None)[0]
        X[:, u] = N @ y
    return X


def oracle_ap(ids, pos):
    """Average precision as its formula reads: the mean over positives of
    the precision at their ranks, accumulated in ascending rank order."""
    total = 0.0
    for r in range(1, len(ids) + 1):
        if ids[r - 1] in pos:
            total += sum(1 for k in range(r) if ids[k] in pos) / r
    return total / len(pos)


def oracle_ndcg(ids, pos, scope):
    """Binary NDCG at ``scope``, discount 1/log2(rank + 1), in rank order."""
    dcg = 0.0
    for r in range(1, min(scope, len(ids)) + 1):
        if ids[r - 1] in pos:
            dcg += 1.0 / math.log2(r + 1)
    ideal = 0.0
    for r in range(1, min(scope, len(pos)) + 1):
        ideal += 1.0 / math.log2(r + 1)
    return dcg / ideal


def oracle_recall(ids, pos, scope):
    """Share of the positives among the top ``scope`` ranks."""
    return sum(1 for i in ids[:scope] if i in pos) / len(pos)


def rank_by_key(q, ids):
    """Positions of the scores q, best first, exact ties by ascending id.

    A plain key sort over (-score, id), one comparison at a time.
    """
    return sorted(range(len(ids)), key=lambda j: (-q[j], ids[j]))


def write_table(path, header, fmt, *columns) -> None:
    """The CLI's table writer as one ``%`` over whole lines.

    Writes ``header``, then aligned plain columns as lines of ``fmt``,
    one ``%`` per WRITE_BLOCK rows: every value is formatted where it
    appears, repeated or not.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for start in range(0, len(columns[0]), WRITE_BLOCK):
            rows = list(zip(*(col[start:start + WRITE_BLOCK].tolist() for col in columns)))
            fh.write(fmt * len(rows) % tuple(chain.from_iterable(rows)))


def cost_matrix(genome, row_ids, col_ids):
    """``build_cost_matrix``'s arithmetic as whole-array expressions.

    Each step makes a new array, in the order the library's in-place
    steps run, so their results must agree bit for bit.  Every id must
    have a genome row that is not all zero.
    """
    n = len(row_ids)
    ids = np.concatenate([np.asarray(row_ids, dtype=np.int64),
                          np.asarray(col_ids, dtype=np.int64)])
    pos = np.searchsorted(genome.item_ids, ids)
    norms = np.array([np.linalg.norm(genome.relevance[k]) for k in pos])
    vecs = genome.relevance[pos] / norms[:, None]
    return np.clip(1.0 - vecs[:n] @ vecs[n:].T, 0.0, 2.0)


def load_genome_lines(path):
    """``load_genome`` as a plain line-by-line parser.

    Reads each line in turn, rejects the first malformed (an id outside
    int64 included), out-of-range or repeated row by number, keeps the
    triples in a dict and pivots through two id -> position dicts.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n")
        if not header:
            raise DataError("empty genome file %s" % path)
        delim = "," if "," in header else "\t"
        names = [c.strip() for c in header.split(delim)]
        try:
            cols = (names.index("movieId"), names.index("tagId"),
                    names.index("relevance"))
        except ValueError:
            raise DataError(
                "genome header must name movieId, tagId and relevance; got %r"
                % (names,)
            ) from None
        triples = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split(delim)
            try:
                movie = int(parts[cols[0]])
                tag = int(parts[cols[1]])
                rel = float(parts[cols[2]])
                if not all(-2**63 <= v < 2**63 for v in (movie, tag)):
                    raise ValueError("id outside int64")
            except (ValueError, IndexError):
                raise DataError("%s line %d is malformed: %r"
                                % (path, lineno, line)) from None
            if not 0.0 <= rel <= 1.0:
                raise DataError("%s line %d: relevance %g outside [0, 1]"
                                % (path, lineno, rel))
            if (movie, tag) in triples:
                raise DataError("%s line %d: duplicate pair (%d, %d)"
                                % (path, lineno, movie, tag))
            triples[(movie, tag)] = rel
    if not triples:
        raise DataError("no genome records in %s" % path)

    items = np.unique(np.array([m for m, _ in triples], dtype=np.int64))
    tags = np.unique(np.array([t for _, t in triples], dtype=np.int64))
    rel = np.zeros((items.size, tags.size))
    item_pos = {int(m): k for k, m in enumerate(items)}
    tag_pos = {int(t): k for k, t in enumerate(tags)}
    for (m, t), v in triples.items():
        rel[item_pos[m], tag_pos[t]] = v
    missing = items.size * tags.size - len(triples)
    if missing:
        warnings.warn(
            "genome %s: %d (movie, tag) pair(s) absent, filled with relevance 0"
            % (path, missing)
        )
    return GenomeTable(items, tags, rel)
