import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wassrec.transport as transport
from wassrec import (
    ConvergenceError,
    GibbsKernel,
    batch_conjugate,
    batch_sinkhorn,
    infer_cold,
    lambda_step,
    sinkhorn,
)
from conftest import one_user_conjugate
from oracles import (conjugate_lse, entropic_value, entropic_value_many, entropy, exact_ot,
                     simplex_grid, sinkhorn_lse)


def _one_column(w):
    """The histogram and entropy of ``w`` checked as a one-column stack."""
    w = np.asarray(w, dtype=np.float64)
    H, entropies = transport._histograms(w[:, None], w.size)
    return H[:, 0], entropies[0]


class TestSimplex:
    # the one-column case of the check every batch of histograms gets
    def test_renormalizes(self):
        out, _ = _one_column([2.0, 6.0])
        np.testing.assert_allclose(out, [0.25, 0.75])
        assert out.sum() == 1.0

    def test_keeps_zero_entries(self):
        out, _ = _one_column([0.0, 1.0, 3.0])
        assert out[0] == 0.0
        assert out.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_input(self):
        for bad in ([1.0, -0.1], [0.0, 0.0], [np.nan, 1.0], []):
            with pytest.raises(ValueError, match="P columns must be finite"):
                _one_column(bad)
        with pytest.raises(ValueError, match=r"P must have shape \(2, m >= 1\), got \(1, 2\)$"):
            transport._histograms([[0.5, 0.5]], 2)

    def test_does_not_mutate_input(self):
        raw = np.array([1.0, 3.0])
        _one_column(raw)
        np.testing.assert_array_equal(raw, [1.0, 3.0])


class TestEntropy:
    # the entropies the one-column check returns with the histogram
    def test_uniform_is_log_n(self):
        assert _one_column(np.full(4, 0.25))[1] == pytest.approx(math.log(4), abs=1e-15)

    def test_point_mass_is_zero(self):
        assert _one_column([0.0, 1.0, 0.0])[1] == 0.0

    def test_frozen_value(self):
        # -0.4 log 0.4 - 0.5 log 0.5 - 0.1 log 0.1, computed by hand
        assert _one_column([0.4, 0.5, 0.1])[1] == pytest.approx(0.9433483923290392, abs=1e-15)

    def test_product_plan_adds(self):
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(3))
        assert _one_column(np.outer(p, q).ravel())[1] == pytest.approx(
            _one_column(p)[1] + _one_column(q)[1], abs=1e-12)


class TestExact:
    # the linear-programming oracle the worked example is checked against
    def test_movie_instance_cost_and_plan(self, movies):
        M, p0, q1, best = movies
        plan, cost = exact_ot(p0, q1, M)
        assert cost == pytest.approx(0.18, abs=1e-9)
        np.testing.assert_allclose(plan, best, atol=1e-9)

    def test_two_by_two_crossing(self):
        # mass that must cross pays 1, the rest rides the zero diagonal
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        _, cost = exact_ot([0.7, 0.3], [0.4, 0.6], M)
        assert cost == pytest.approx(0.3, abs=1e-12)

    def test_identity_when_diagonal_free(self):
        p = np.array([0.2, 0.5, 0.3])
        M = np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
        plan, cost = exact_ot(p, p, M)
        assert cost == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(plan, np.diag(p), atol=1e-10)

    def test_feasibility(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n, s = rng.integers(2, 7), rng.integers(2, 7)
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(s))
            plan, _ = exact_ot(p, q, rng.uniform(size=(n, s)))
            np.testing.assert_allclose(plan.sum(axis=1), p, atol=1e-8)
            np.testing.assert_allclose(plan.sum(axis=0), q, atol=1e-8)
            assert plan.min() >= -1e-12


class TestSinkhorn:
    def test_zero_cost_gives_product_plan(self):
        p = np.array([0.3, 0.7])
        q = np.array([0.2, 0.3, 0.5])
        res = sinkhorn(p, q, np.zeros((2, 3)), gamma=0.5)
        np.testing.assert_allclose(res.plan, np.outer(p, q), atol=1e-12)
        assert res.transport_cost == pytest.approx(0.0, abs=1e-12)

    def test_single_row(self):
        q = np.array([0.25, 0.75])
        res = sinkhorn([1.0], q, np.array([[0.4, 0.9]]), gamma=0.05)
        np.testing.assert_allclose(res.plan[0], q, atol=1e-9)

    def test_movie_instance_small_gamma_matches_exact(self, movies):
        M, p0, q1, best = movies
        res = sinkhorn(p0, q1, M, gamma=1e-3)
        assert abs(res.transport_cost - 0.18) <= 1e-3
        np.testing.assert_allclose(res.plan, best, atol=1e-3)

    @pytest.mark.parametrize("gamma", [1.0, 0.05, 0.005])
    def test_marginal_feasibility(self, gamma):
        rng = np.random.default_rng(23)
        for _ in range(3):
            n, s = rng.integers(2, 6), rng.integers(2, 6)
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(s))
            res = sinkhorn(p, q, rng.uniform(size=(n, s)), gamma=gamma)
            assert res.marginal_violation < 1e-8
            np.testing.assert_allclose(res.plan.sum(axis=1), p, atol=2e-8)
            np.testing.assert_allclose(res.plan.sum(axis=0), q, atol=2e-8)
            assert res.plan.min() >= 0

    def test_zero_mass_entries_restrict_support(self):
        p = np.array([0.5, 0.0, 0.5])
        q = np.array([0.0, 0.4, 0.6])
        rng = np.random.default_rng(3)
        res = sinkhorn(p, q, rng.uniform(size=(3, 3)), gamma=0.1)
        assert np.all(res.plan[1, :] == 0.0)
        assert np.all(res.plan[:, 0] == 0.0)
        np.testing.assert_allclose(res.plan.sum(axis=1), p, atol=1e-8)

    def test_value_matches_independent_evaluator(self):
        rng = np.random.default_rng(5)
        for gamma in (0.5, 0.05):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(3))
            M = rng.uniform(size=(4, 3))
            res = sinkhorn(p, q, M, gamma=gamma, tol=1e-10)
            ref = entropic_value(p, q, M, gamma, tol=1e-11)
            assert res.regularized_value == pytest.approx(ref, abs=1e-7)

    def test_cost_decreases_toward_exact_as_gamma_shrinks(self):
        rng = np.random.default_rng(42)
        for _ in range(3):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            M = rng.uniform(size=(4, 4))
            _, exact_cost = exact_ot(p, q, M)
            costs = [
                sinkhorn(p, q, M, gamma=g).transport_cost for g in (0.1, 0.01, 0.001)
            ]
            # the scaling plan is feasible only to the marginal tolerance,
            # so its linear cost may undershoot the LP optimum by a hair
            assert costs[0] >= costs[1] >= costs[2] >= exact_cost - 1e-7
            assert costs[2] - exact_cost <= 1e-2

    def test_log_domain_used_for_tiny_gamma(self, movies):
        # gamma = 1e-4 underflows exp(-M/gamma) completely; the plain
        # scaling iteration cannot even start, so this exercises the
        # log-domain path end to end.
        M, p0, q1, _ = movies
        assert (-M / 1e-4).min() < math.log(np.finfo(float).tiny)
        res = sinkhorn(p0, q1, M, gamma=1e-4, max_iter=200_000)
        assert res.marginal_violation < 1e-8
        assert abs(res.transport_cost - 0.18) <= 1e-3

    def test_peaked_two_by_two_converges_at_default_tolerance(self):
        # the kernel's cross-ratio on this support is eta = K11 K22 /
        # (K12 K21) ~ e^24, so Sinkhorn's rate ((sqrt eta - 1) / (sqrt eta
        # + 1))^2 is 1 - 2.5e-5 and scaling alone needs over 100,000
        # iterations; the Newton finish closes the pair at the switch.
        # The optimal plan is [[x, 1/2 - x], [1/2 - x, x]] with
        # x / (1/2 - x) = sqrt(eta)
        M = np.array([[0.060, 0.748], [0.911, 0.401]])
        res = sinkhorn([0.5, 0.5], [0.5, 0.5], M, gamma=0.05)
        assert res.iterations == transport._NEWTON_AFTER + 1
        assert res.marginal_violation < transport.DEFAULT_TOL
        root = math.exp((M[0, 1] + M[1, 0] - M[0, 0] - M[1, 1]) / 0.05 / 2)
        x = root / (2 * (1 + root))
        np.testing.assert_allclose(res.plan, [[x, 0.5 - x], [0.5 - x, x]], atol=1e-12)

    def test_singular_newton_step_leaves_the_pair_to_sinkhorn(self):
        # at gamma 0.01 the off-diagonal plan cells underflow to 0, so
        # the supports split into two blocks and the Newton system is
        # singular along the first block's shift
        p = np.array([0.5, 0.5])
        f, g = np.zeros(2), np.array([0.1, 0.0])
        transport._newton(p, p, f, g, np.array([[0.0, 50.0], [50.0, 0.0]]), 0.01, 1e-8)
        np.testing.assert_array_equal(g, [0.1, 0.0])

    def test_budget_exhaustion_raises_with_diagnostics(self, movies):
        M, p0, q1, _ = movies
        for budget in (1, np.int64(1)):
            with pytest.raises(ConvergenceError) as exc:
                sinkhorn(p0, q1, M, gamma=0.05, max_iter=budget)
            assert exc.value.iterations == 1
            assert exc.value.violation > 0

    def test_rejects_bad_parameters(self, movies):
        M, p0, q1, _ = movies
        with pytest.raises(ValueError):
            sinkhorn(p0, q1, M, gamma=0.0)
        with pytest.raises(ValueError):
            sinkhorn(p0, q1, M, gamma=0.1, tol=-1.0)
        with pytest.raises(ValueError, match=r"p must have shape \(%d, m >= 1\), got \(%d, 1\)$"
                                             % (M.shape[0], q1.size)):
            sinkhorn(q1, p0, M, gamma=0.1)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            sinkhorn(p0, q1, M, gamma=0.1, max_iter=0)
        for budget in (2.5, 2.0):  # not a bare TypeError from range()
            with pytest.raises(TypeError, match=r"max_iter must be an integer, got %r$" % budget):
                sinkhorn(p0, q1, M, gamma=0.1, max_iter=budget)

    @pytest.mark.parametrize("tol", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_tol(self, movies, tol):
        # NaN never converges and inf would stop after one pass
        M, p0, q1, _ = movies
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            sinkhorn(p0, q1, M, gamma=0.1, tol=tol)

    def test_deterministic(self, movies):
        M, p0, q1, _ = movies
        a = sinkhorn(p0, q1, M, gamma=0.05)
        b = sinkhorn(p0, q1, M, gamma=0.05)
        np.testing.assert_array_equal(a.plan, b.plan)
        assert a.regularized_value == b.regularized_value


class TestGibbsKernel:
    def test_matches_exponential(self):
        rng = np.random.default_rng(1)
        M = rng.uniform(size=(3, 4))
        k = GibbsKernel(M, 0.05)
        np.testing.assert_allclose(k.shifted_kernel * np.exp(k.row_shift)[:, None],
                                   np.exp(-M / 0.05), rtol=1e-12)
        assert k.shifted_kernel.max(axis=1).tolist() == [1.0] * 3
        assert not (-M / 0.05).min() < math.log(np.finfo(float).tiny)

    @pytest.mark.parametrize("gamma", [1.0, 0.37, 0.05, 1e-3, 1e-4])
    def test_shift_and_kernel_bit_identical_to_log_form(self, gamma):
        # the shift is taken from the cost's row minima, the kernel from
        # the cost directly; both must equal the log-kernel formulas bit
        # for bit, ties and zero costs included
        rng = np.random.default_rng(3)
        for _ in range(60):
            M = np.round(rng.uniform(0.0, 2.0, size=rng.integers(1, 9, size=2)), 2)
            M[rng.random(M.shape) < 0.2] = 0.0
            k = GibbsKernel(M, gamma)
            shift = (-M / gamma).max(axis=1)
            assert k.row_shift.tobytes() == shift.tobytes()
            assert k.shifted_kernel.tobytes() == np.exp(-M / gamma - shift[:, None]).tobytes()

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            GibbsKernel(np.zeros((2, 2)), 0.0)

    def test_rejects_gamma_at_which_cost_over_gamma_overflows(self):
        # a subnormal gamma made the kernel inf / inf, NaN in every score
        M = np.array([[0.0, 0.75], [0.5, 0.25]])
        with pytest.raises(ValueError, match=r"gamma 1e-310 .*largest cost 0\.75"):
            GibbsKernel(M, 1e-310)
        assert GibbsKernel(np.zeros((2, 2)), 1e-310).shifted_kernel.tolist() == [[1.0] * 2] * 2
        assert np.isfinite(GibbsKernel(M, 1e-300).shifted_kernel).all()

    @pytest.mark.parametrize("M, message", [
        ([[1.0, 1.0], [-1.0, 1.0]], "finite and nonnegative"),
        ([[1.0, 1.0], [np.nan, 1.0]], "finite and nonnegative"),
        ([[1.0, 1.0], [np.inf, 1.0]], "finite and nonnegative"),
        ([1.0, 1.0], r"cost matrix must be 2-D, got shape \(2,\)"),
    ], ids=["negative", "nan", "inf", "1-d"])
    def test_rejects_invalid_costs(self, M, message):
        with pytest.raises(ValueError, match=message):
            GibbsKernel(M, 0.5)

    def test_from_cost_takes_a_plain_array(self):
        k = GibbsKernel.from_cost(np.ones((2, 3)), 0.5)
        assert k.shape == (2, 3) and k.cost.dtype == np.float64


class TestConjugateValue:
    # one user's conjugate: batch_conjugate on one-column stacks
    def test_frozen_zero_cost_uniform(self):
        # h(p) = log 2, log K alpha = log 3 rowwise, value = 0.05 log 6
        k = GibbsKernel(np.zeros((2, 3)), 0.05)
        vals, _ = one_user_conjugate([0.5, 0.5], np.zeros((3, 1)), k)
        assert vals[0] == pytest.approx(0.05 * math.log(6.0), abs=1e-15)

    def test_point_mass_reduces_to_soft_max(self):
        # for p = delta_i the value is a gamma-scaled log-sum-exp of
        # (g - M_i) / gamma; check against a direct evaluation
        rng = np.random.default_rng(2)
        M = rng.uniform(size=(3, 4))
        g = rng.normal(scale=0.1, size=4)
        gamma = 0.2
        k = GibbsKernel(M, gamma)
        vals, _ = one_user_conjugate([0.0, 1.0, 0.0], g[:, None], k)
        direct = gamma * math.log(np.exp((g - M[1]) / gamma).sum())
        assert vals[0] == pytest.approx(direct, abs=1e-12)

    def test_shift_covariance(self):
        rng = np.random.default_rng(9)
        M = rng.uniform(size=(4, 3))
        p = rng.dirichlet(np.ones(4))
        g = rng.normal(scale=0.2, size=3)
        k = GibbsKernel(M, 0.1)
        shifts = np.array([0.0, -3.0, 0.7, 42.0])
        vals, _ = one_user_conjugate(p, g[:, None] + shifts, k)
        np.testing.assert_allclose(vals[1:], vals[0] + shifts[1:], rtol=0, atol=1e-9)

    def test_huge_potentials_stay_finite(self):
        k = GibbsKernel(np.ones((2, 2)), 0.01)
        vals, _ = one_user_conjugate([0.5, 0.5], np.array([[50.0], [-50.0]]), k)
        assert math.isfinite(vals[0])

    def test_matches_grid_search(self):
        # H*(g) = sup_q <g, q> - W(p, q); the sup is attained strictly
        # inside the simplex here (checked below), so an interior grid
        # bounds it from below within the grid's curvature gap.
        rng = np.random.default_rng(12)
        gamma = 0.1
        M = rng.uniform(0.2, 1.0, size=(3, 3))
        p = rng.dirichlet(np.ones(3))
        g = rng.normal(scale=0.05, size=3)
        k = GibbsKernel(M, gamma)
        vals, grads = one_user_conjugate(p, g[:, None], k)
        value, q_star = vals[0], grads[:, 0]
        assert q_star.min() > 0.04  # interior, grid bound is valid

        Q = simplex_grid(3, step=1 / 200, interior=True)
        scores = Q.T @ g - entropic_value_many(p, Q, M, gamma, tol=1e-10)
        grid_max = float(scores.max())
        assert grid_max - 1e-9 <= value <= grid_max + 1e-4


class TestConjugateGrad:
    def test_zero_cost_gives_uniform(self):
        k = GibbsKernel(np.zeros((2, 3)), 0.05)
        _, grads = one_user_conjugate([0.5, 0.5], np.zeros((3, 1)), k)
        np.testing.assert_allclose(grads[:, 0], np.full(3, 1 / 3), atol=1e-15)

    def test_matches_finite_differences(self):
        # one stack per instance: g, then g + h e_j and g - h e_j for every j
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(5):
            n, s = rng.integers(2, 6), rng.integers(2, 6)
            M = rng.uniform(size=(n, s))
            p = rng.dirichlet(np.ones(n))
            g = rng.normal(scale=0.1, size=s)
            k = GibbsKernel(M, 0.1)
            e = h * np.eye(s)
            vals, grads = one_user_conjugate(p, np.hstack([g[:, None], g[:, None] + e,
                                                           g[:, None] - e]), k)
            fd = (vals[1:s + 1] - vals[s + 1:]) / (2 * h)
            np.testing.assert_allclose(grads[:, 0], fd, rtol=0, atol=1e-8)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_lands_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        n, s = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        M = rng.uniform(0, 2, size=(n, s))
        p = rng.dirichlet(np.ones(n))
        g = rng.normal(scale=0.5, size=s)
        _, grads = one_user_conjugate(p, g[:, None], GibbsKernel(M, 0.05))
        assert grads.min() >= 0
        assert abs(grads.sum() - 1.0) < 1e-10

    def test_fenchel_young_equality_at_gradient(self):
        # H*(g) + W(p, grad) = <g, grad> must hold exactly at the
        # maximizer; ties value, gradient, and the scaling solver together.
        rng = np.random.default_rng(31)
        M = rng.uniform(size=(4, 3))
        p = rng.dirichlet(np.ones(4))
        g = rng.normal(scale=0.2, size=3)
        k = GibbsKernel(M, 0.1)
        vals, grads = one_user_conjugate(p, g[:, None], k)
        q_star = grads[:, 0]
        w = sinkhorn(p, q_star, M, gamma=0.1, tol=1e-12).regularized_value
        assert vals[0] + w == pytest.approx(float(g @ q_star), abs=1e-8)

    def test_zero_rows_of_p_do_not_contribute(self):
        rng = np.random.default_rng(6)
        M = rng.uniform(size=(3, 4))
        k = GibbsKernel(M, 0.1)
        _, full = one_user_conjugate([0.0, 0.3, 0.7], np.zeros((4, 1)), k)
        _, sub = one_user_conjugate([0.3, 0.7], np.zeros((4, 1)), GibbsKernel(M[1:], 0.1))
        np.testing.assert_allclose(full, sub, atol=1e-15)


class TestBatchConjugate:
    def test_matches_per_user_log_sum_exp(self):
        # gamma down to 1e-3, histograms with zero entries, and cost and
        # potential spreads up to 2000 gamma, wide enough that shifted
        # products underflow and the log-sum-exp repair has to run
        log_tiny = math.log(np.finfo(np.float64).tiny)
        repaired = []

        @given(st.integers(0, 2**32 - 1), st.floats(-3.0, 0.0))
        @settings(max_examples=200, deadline=None)
        def check(seed, log_gamma):
            rng = np.random.default_rng(seed)
            n, s, m = (int(v) for v in rng.integers(1, 7, size=3))
            gamma = 10.0 ** log_gamma
            cost_spread, potential_spread = rng.uniform(0.0, 2000.0, size=2) * gamma
            M = rng.uniform(size=(n, s)) * cost_spread
            G = rng.uniform(-0.5, 0.5, size=(s, m)) * potential_spread
            P = rng.dirichlet(np.ones(n), size=m).T
            P[rng.uniform(size=P.shape) < 0.3] = 0.0
            P[0, P.sum(axis=0) == 0] = 1.0
            P /= P.sum(axis=0)
            entropies = np.array([entropy(P[:, u]) for u in range(m)])
            values, grads = batch_conjugate(P, G, GibbsKernel(M, gamma), entropies)
            for u in range(m):
                value, grad, shifted = conjugate_lse(P[:, u], G[:, u], M, gamma)
                assert abs(values[u] - value) <= 1e-12 * max(1.0, abs(value))
                np.testing.assert_allclose(grads[:, u], grad, rtol=0, atol=1e-12)
                repaired.append(int(np.sum((shifted < log_tiny - 1) & (P[:, u] > 0))))

        check()
        assert sum(repaired) > 0

    @pytest.mark.parametrize("case", ["one-column-G", "one-column-P", "scalar-entropies",
                                      "length-1-entropies"])
    def test_rejects_mismatched_shapes(self, case):
        # each of these broadcast to finite values and gradients of the
        # wrong users before shapes were checked
        rng = np.random.default_rng(4)
        kernel = GibbsKernel(rng.uniform(size=(4, 3)), 0.1)
        P = _histograms(rng, 4, 5, zeros=False)
        G = rng.normal(size=(3, 5))
        entropies = -(P * np.log(P)).sum(axis=0)
        batch_conjugate(P, G, kernel, entropies)  # the matching shapes pass
        P, G, entropies = {
            "one-column-G": (P, G[:, :1], entropies),
            "one-column-P": (P[:, :1], G, entropies),
            "scalar-entropies": (P, G, entropies[0]),
            "length-1-entropies": (P, G, entropies[:1]),
        }[case]
        with pytest.raises(ValueError, match=r"must have shapes \(4, m\), \(3, m\) and \(m,\)"):
            batch_conjugate(P, G, kernel, entropies)


def _histograms(rng, k, m, zeros):
    """k x m random simplex columns; with ``zeros`` about 30% of entries are 0."""
    X = rng.dirichlet(np.ones(k), size=m).T
    if zeros:
        X[rng.uniform(size=X.shape) < 0.3] = 0.0
        X[0, X.sum(axis=0) == 0] = 1.0
    return X / X.sum(axis=0)


class TestBatchSinkhorn:
    @given(st.integers(0, 2**32 - 1), st.floats(math.log10(0.05), 0.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_scaling_oracle(self, seed, log_gamma):
        # a kernel that does not underflow: plain scaling, pair by pair
        rng = np.random.default_rng(seed)
        n, s, m = (int(v) for v in rng.integers(1, 7, size=3))
        gamma = 10.0 ** log_gamma
        M = rng.uniform(size=(n, s))
        P, Q = _histograms(rng, n, m, zeros=False), _histograms(rng, s, m, zeros=True)
        values, _, viol = batch_sinkhorn(P, Q, GibbsKernel(M, gamma), tol=1e-11)
        assert viol < 1e-11
        for u in range(m):
            ref = entropic_value_many(P[:, u], Q[:, [u]], M, gamma, tol=1e-12)[0]
            assert values[u] == pytest.approx(ref, abs=1e-9)

    def test_matches_log_domain_oracle_down_to_small_gamma(self, monkeypatch):
        # gamma down to 1e-3, zero entries in p and q, and row and column
        # cost offsets up to 2 (2000 gamma at the smallest): offsets leave
        # the plans as they are but push shifted products below the
        # normal float range, so at small gamma the repair has to run
        repairs = []
        real = transport._logsumexp

        def counting(*args, **kwargs):
            repairs[-1][1] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(transport, "_logsumexp", counting)

        @given(st.integers(0, 2**32 - 1), st.floats(-3.0, 0.0))
        @settings(max_examples=100, deadline=None)
        def check(seed, log_gamma):
            rng = np.random.default_rng(seed)
            n, s, m = (int(v) for v in rng.integers(1, 7, size=3))
            gamma = 10.0 ** log_gamma
            M = (rng.uniform(size=(n, s)) * rng.uniform(0.0, 10.0) * gamma
                 + rng.uniform(0.0, 2.0, size=(n, 1)) + rng.uniform(0.0, 2.0, size=(1, s)))
            P, Q = _histograms(rng, n, m, zeros=True), _histograms(rng, s, m, zeros=True)
            repairs.append([gamma, 0])
            values, _, viol = batch_sinkhorn(P, Q, GibbsKernel(M, gamma), tol=1e-11)
            assert viol < 1e-11
            for u in range(m):
                # each value is off by at most |f| times the violation summed over rows
                ref = sinkhorn_lse(P[:, u], Q[:, u], M, gamma, tol=1e-11)
                assert values[u] == pytest.approx(ref, rel=1e-9, abs=1e-9)

        check()
        assert sum(count for gamma, count in repairs if gamma <= 1e-2) > 0

    @pytest.mark.parametrize("gamma", [1.0, 0.05, 1e-3])
    def test_one_pair_is_sinkhorn(self, gamma):
        rng = np.random.default_rng(31)
        p = np.array([0.5, 0.0, 0.3, 0.2])
        q = np.array([0.1, 0.4, 0.0, 0.25, 0.25])
        M = rng.uniform(size=(4, 5))
        values, iterations, viol = batch_sinkhorn(p[:, None], q[:, None], GibbsKernel(M, gamma))
        res = sinkhorn(p, q, M, gamma)
        assert values[0] == res.regularized_value
        assert iterations == res.iterations
        assert viol == pytest.approx(res.marginal_violation, rel=1e-6)

    def test_newton_finish_only_for_pairs_still_open(self, monkeypatch):
        # pair 0 is the peaked 2 x 2 of TestSinkhorn; pair 1 puts all its
        # mass on one cold item and closes on the first iteration
        calls, real = [], transport._newton

        def counting(p, *args):
            calls.append(p.copy())
            return real(p, *args)

        monkeypatch.setattr(transport, "_newton", counting)
        kernel = GibbsKernel(np.array([[0.060, 0.748], [0.911, 0.401]]), 0.05)
        P, Q = np.full((2, 2), 0.5), np.array([[0.5, 1.0], [0.5, 0.0]])
        alone = batch_sinkhorn(P[:, [1]], Q[:, [1]], kernel)
        assert alone[1] < transport._NEWTON_AFTER and not calls
        values, iterations, viol = batch_sinkhorn(P, Q, kernel)
        assert iterations == transport._NEWTON_AFTER + 1 and viol < transport.DEFAULT_TOL
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], P[:, 0])
        assert values[1] == pytest.approx(alone[0][0], rel=1e-12)

    def test_budget_exhaustion_raises_with_diagnostics(self, movies):
        M, p0, q1, _ = movies
        for budget in (1, np.int32(1)):
            with pytest.raises(ConvergenceError) as exc:
                batch_sinkhorn(p0[:, None], q1[:, None], GibbsKernel(M, 0.05), max_iter=budget)
            assert exc.value.iterations == 1
            assert exc.value.violation > 0

    def test_rejects_bad_input(self):
        kernel = GibbsKernel(np.ones((2, 3)), 0.1)
        P, Q = np.full((2, 4), 0.5), np.full((3, 4), 1 / 3)
        with pytest.raises(ValueError, match=r"P must have shape \(2, m >= 1\), got \(1, 4\)$"):
            batch_sinkhorn(P[:1], Q, kernel)
        with pytest.raises(ValueError, match="columns"):
            batch_sinkhorn(P, Q[:, :2], kernel)
        with pytest.raises(ValueError, match="P columns must be finite"):
            batch_sinkhorn(-P, Q, kernel)
        with pytest.raises(ValueError, match="Q columns must be .* of positive mass"):
            batch_sinkhorn(P, Q * np.array([1, 1, 0, 1]), kernel)
        with pytest.raises(ValueError, match="tol"):
            batch_sinkhorn(P, Q, kernel, tol=np.nan)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            batch_sinkhorn(P, Q, kernel, max_iter=0)
        for budget in (2.5, 2.0):
            with pytest.raises(TypeError, match=r"max_iter must be an integer, got %r$" % budget):
                batch_sinkhorn(P, Q, kernel, max_iter=budget)


def _corrupt(case, P):
    """P with its column 1 made invalid as ``case`` says."""
    P = P.copy()
    if case == "negative":
        P[0, 1] = -0.1
    elif case == "nan":
        P[0, 1] = np.nan
    elif case == "inf":
        P[0, 1] = np.inf
    elif case == "zero-mass":
        P[:, 1] = 0.0
    else:  # wrong length
        P = P[:-1]
    return P


class TestHistogramValidation:
    # one validator checks every batch of preference histograms, whichever
    # entry point receives it
    CALLERS = {
        "infer_cold": lambda P, kernel: infer_cold(P, kernel),
        "lambda_step": lambda P, kernel: lambda_step(np.eye(3), P.T, kernel),
        "batch_sinkhorn": lambda P, kernel: batch_sinkhorn(P, np.full((3, 4), 1 / 3), kernel),
        "one_column": lambda P, kernel: transport._histograms(P[:, 1:2], kernel.shape[0]),
    }

    @pytest.mark.parametrize("case", ["negative", "nan", "inf", "zero-mass", "wrong-length"])
    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_bad_histogram_rejected(self, caller, case):
        rng = np.random.default_rng(3)
        kernel = GibbsKernel(rng.uniform(size=(5, 3)), 0.1)
        P = _histograms(rng, 5, 4, zeros=True)
        self.CALLERS[caller](P, kernel)  # the valid batch passes
        with pytest.raises(ValueError, match="columns must be finite|must have shape"):
            self.CALLERS[caller](_corrupt(case, P), kernel)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_entropies_match_per_column_entropy(self, seed):
        rng = np.random.default_rng(seed)
        n, m = (int(v) for v in rng.integers(1, 40, size=2))
        X = _histograms(rng, n, m, zeros=True) * rng.uniform(0.1, 10.0, size=m)
        H, ents = transport._histograms(X, n)
        assert H.shape == (n, m) and H.flags.c_contiguous
        for u in range(m):
            np.testing.assert_array_equal(H[:, u], _one_column(X[:, u])[0])
            assert ents[u] == pytest.approx(entropy(H[:, u]), rel=0, abs=1e-15)
