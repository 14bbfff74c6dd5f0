import json
import re
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

import wassrec.transport as transport
import wassrec.wcf as wcf
from wassrec import (
    GibbsKernel,
    RankDeficiencyError,
    SolverError,
    UnboundedDualError,
    batch_conjugate,
    infer_cold,
)
from wassrec.wcf import (
    FactorModel,
    d_step,
    init_factors,
    lambda_step,
    load_model,
    predict_user,
    save_model,
    train_wcf,
)
from oracles import entropy, semidual_value, weighted_projection


def conj_values_grid(p, G, M, gamma):
    """Independent conjugate evaluation for a batch of potentials (s x N)."""
    logK = -M / gamma
    lse = logsumexp(logK[:, :, None] + (G / gamma)[None, :, :], axis=1)
    h = float(-(p * np.log(np.where(p > 0, p, 1.0))).sum())
    return gamma * (h + p @ lse)


def primal_values(P, Q, M, gamma):
    """W_gamma(p_u, q_u) of each column pair of P and Q, by the semi-dual oracle."""
    return np.array([semidual_value(P[:, u], Q[:, u], M, gamma) for u in range(P.shape[1])])


def conj_grad_single(p, g, M, gamma):
    logits = -M / gamma + g[None, :] / gamma
    rows = np.exp(logits - logsumexp(logits, axis=1)[:, None])
    return rows.T @ p


class TestInitFactors:
    def test_columns_on_simplex_and_deterministic(self):
        D = init_factors(5, 8, 3, seed=4)
        assert D.shape == (5, 3)
        np.testing.assert_allclose(D.sum(axis=0), np.ones(3), atol=1e-12)
        assert D.min() > 0
        np.testing.assert_array_equal(D, init_factors(5, 8, 3, seed=4))

    def test_rank_validation(self):
        with pytest.raises(ValueError, match="k must satisfy"):
            init_factors(4, 10, 5)
        with pytest.raises(ValueError, match="k must satisfy"):
            init_factors(4, 2, 3)
        with pytest.raises(ValueError, match="k must satisfy"):
            init_factors(4, 4, 0)


class TestBatchConjugate:
    def test_matches_single_user_grad(self):
        rng = np.random.default_rng(10)
        M = rng.uniform(size=(4, 3))
        kernel = GibbsKernel(M, 0.1)
        P = np.stack([rng.dirichlet(np.ones(4)) for _ in range(6)], axis=1)
        G = rng.normal(scale=0.3, size=(3, 6))
        ents = np.array([entropy(P[:, u]) for u in range(6)])
        vals, grads = batch_conjugate(P, G, kernel, ents)
        for u in range(6):
            np.testing.assert_allclose(
                grads[:, u], conj_grad_single(P[:, u], G[:, u], M, 0.1), atol=1e-12
            )
            assert vals[u] == pytest.approx(
                float(conj_values_grid(P[:, u], G[:, u][:, None], M, 0.1)[0]), abs=1e-12
            )

    def test_underflowing_kernel_agrees(self):
        # exp(-M/gamma) underflows below the normal float range; the
        # row shift keeps the batched product exact, check it against
        # direct formulas
        rng = np.random.default_rng(11)
        M = rng.uniform(70, 80, size=(3, 3))
        gamma = 0.1
        kernel = GibbsKernel(M, gamma)
        assert (-M / gamma).min() < np.log(np.finfo(float).tiny)
        P = np.stack([rng.dirichlet(np.ones(3)) for _ in range(4)], axis=1)
        G = rng.normal(scale=0.5, size=(3, 4))
        ents = np.array([entropy(P[:, u]) for u in range(4)])
        vals, grads = batch_conjugate(P, G, kernel, ents)
        assert np.all(np.isfinite(vals))
        for u in range(4):
            np.testing.assert_allclose(
                grads[:, u], conj_grad_single(P[:, u], G[:, u], M, gamma), atol=1e-12
            )
            assert vals[u] == pytest.approx(
                float(conj_values_grid(P[:, u], G[:, u][:, None], M, gamma)[0]), abs=1e-10
            )


class TestLambdaStep:
    def test_square_dictionary_recovers_closed_form(self):
        # k = s: the constraint D^T g = 0 pins g = 0, so every user's
        # histogram is the closed-form cold-start inference
        rng = np.random.default_rng(0)
        s, m = 5, 6
        M = rng.uniform(size=(4, s))
        kernel = GibbsKernel(M, 0.05)
        P = [rng.dirichlet(np.ones(4)) for _ in range(m)]
        D = init_factors(s, m, s, seed=1)
        lam, _ = lambda_step(D, P, kernel)
        for u, p in enumerate(P):
            np.testing.assert_allclose(D @ lam[:, u], infer_cold(p, kernel), atol=1e-10)

    def test_matches_constrained_grid_search(self):
        # k = 1 and D uniform: the dual feasible set is {sum g = 0},
        # a plane spanned by an explicit orthonormal basis; refine a
        # dense grid on it (the conjugate is convex, so local
        # refinement is sound) and compare optima
        rng = np.random.default_rng(5)
        n, s = 3, 3
        gamma = 0.1
        M = rng.uniform(size=(n, s))
        kernel = GibbsKernel(M, gamma)
        p = rng.dirichlet(np.ones(n))
        D = np.full((s, 1), 1.0 / s)

        lam, G = lambda_step(D, [p], kernel)
        g_lib = G[:, 0]
        val_lib = float(conj_values_grid(p, g_lib[:, None], M, gamma)[0])

        B = np.stack([
            np.array([1.0, -1.0, 0.0]) / np.sqrt(2),
            np.array([1.0, 1.0, -2.0]) / np.sqrt(6),
        ], axis=1)
        center = np.zeros(2)
        radius = 1.0
        for _ in range(5):
            axes = [np.linspace(c - radius, c + radius, 51) for c in center]
            X, Y = np.meshgrid(*axes, indexing="ij")
            W = np.stack([X.ravel(), Y.ravel()])
            vals = conj_values_grid(p, B @ W, M, gamma)
            j = int(np.argmin(vals))
            center = W[:, j]
            radius *= 2 / 50 * 2  # keep a two-cell window each round

        g_grid = B @ center
        val_grid = float(conj_values_grid(p, g_grid[:, None], M, gamma)[0])
        assert abs(g_lib.sum()) < 1e-9  # feasibility
        assert val_lib == pytest.approx(val_grid, abs=1e-5)
        np.testing.assert_allclose(
            D @ lam[:, 0], conj_grad_single(p, g_grid, M, gamma), atol=1e-4
        )

    def test_rank_deficient_dictionary_rejected(self):
        kernel = GibbsKernel(np.ones((2, 3)), 0.1)
        D = np.ones((3, 2)) / 3  # duplicate columns
        with pytest.raises(RankDeficiencyError) as exc:
            lambda_step(D, [np.array([0.5, 0.5])], kernel)
        assert exc.value.factor == "dictionary"

    def test_dictionary_rows_must_match_kernel_columns(self):
        kernel = GibbsKernel(np.ones((2, 3)), 0.1)
        with pytest.raises(ValueError, match="dictionary rows 4 do not match kernel columns 3"):
            lambda_step(np.eye(4, 2), [np.array([0.5, 0.5])], kernel)

    def test_dual_and_sinkhorn_traces_agree_at_optimum(self):
        # by strong duality at the block optimum the primal value equals
        # the negated dual value at the potentials
        rng = np.random.default_rng(14)
        M = rng.uniform(size=(3, 4))
        kernel = GibbsKernel(M, 0.1)
        P = [rng.dirichlet(np.ones(3)) for _ in range(3)]
        D = init_factors(4, 3, 2, seed=2)
        lam, G = lambda_step(D, P, kernel)
        vals, _ = batch_conjugate(np.stack(P, axis=1), G, kernel,
                                  np.array([entropy(p) for p in P]))
        primal = primal_values(np.stack(P, axis=1), wcf._clean_histogram(D @ lam), M, 0.1)
        assert primal.sum() == pytest.approx(float(-vals.sum()), abs=1e-6)


class TestDStep:
    def test_invertible_loadings_pin_potentials_to_zero(self):
        # k = m: G Lambda^T = 0 forces G = 0, so the targets are the
        # closed-form inferences and D Lambda reproduces them exactly
        rng = np.random.default_rng(3)
        n, s, m = 3, 4, 2
        M = rng.uniform(size=(n, s))
        kernel = GibbsKernel(M, 0.05)
        P = [rng.dirichlet(np.ones(n)) for _ in range(m)]
        lam = rng.uniform(0.5, 1.5, size=(m, m))
        D, G = d_step(lam, P, kernel)
        np.testing.assert_allclose(G, np.zeros((s, m)), atol=1e-12)
        for u, p in enumerate(P):
            np.testing.assert_allclose(D @ lam[:, u], infer_cold(p, kernel), atol=1e-10)

    def test_matches_constrained_grid_search(self):
        # s = 2, m = 2, k = 1: the feasible set {G : G Lambda^T = 0}
        # has dimension s * (m - k) = 2; sweep it exhaustively through
        # g_2 = -(a / b) g_1 and refine around the minimum
        rng = np.random.default_rng(21)
        n, s = 2, 2
        gamma = 0.1
        M = rng.uniform(size=(n, s))
        kernel = GibbsKernel(M, gamma)
        P = [rng.dirichlet(np.ones(n)) for _ in range(2)]
        # k = 1 loadings must be constant across users or no dictionary
        # can give every user a unit-mass prediction
        lam = np.array([[2.0, 2.0]])

        D, G = d_step(lam, P, kernel)
        val_lib = float(sum(
            conj_values_grid(P[u], G[:, u][:, None], M, gamma)[0]
            for u in range(2)
        ))

        ratio = lam[0, 0] / lam[0, 1]
        center = np.zeros(2)
        radius = 1.0
        for _ in range(5):
            axes = [np.linspace(c - radius, c + radius, 51) for c in center]
            X, Y = np.meshgrid(*axes, indexing="ij")
            W = np.stack([X.ravel(), Y.ravel()])  # candidate g_1 columns
            vals = conj_values_grid(P[0], W, M, gamma) + conj_values_grid(
                P[1], -ratio * W, M, gamma
            )
            j = int(np.argmin(vals))
            center = W[:, j]
            radius *= 2 / 50 * 2

        g1 = center
        g2 = -ratio * g1
        val_grid = float(
            conj_values_grid(P[0], g1[:, None], M, gamma)[0]
            + conj_values_grid(P[1], g2[:, None], M, gamma)[0]
        )
        assert val_lib == pytest.approx(val_grid, abs=1e-5)
        np.testing.assert_allclose(
            D @ lam[:, 0], conj_grad_single(P[0], g1, M, gamma), atol=1e-4
        )
        np.testing.assert_allclose(
            D @ lam[:, 1], conj_grad_single(P[1], g2, M, gamma), atol=1e-4
        )

    def test_rank_deficient_loadings_rejected(self):
        kernel = GibbsKernel(np.ones((2, 3)), 0.1)
        lam = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        with pytest.raises(RankDeficiencyError) as exc:
            d_step(lam, [np.array([0.5, 0.5])] * 2, kernel)
        assert exc.value.factor == "loadings"

    def test_loadings_must_cover_every_user(self):
        kernel = GibbsKernel(np.ones((2, 3)), 0.1)
        with pytest.raises(ValueError, match="loadings cover 2 users but P has 3"):
            d_step(np.eye(2), [np.array([0.5, 0.5])] * 3, kernel)

    def test_mass_inconsistent_loadings_rejected(self):
        # lam = [[1, 2]] asks one dictionary column to have total mass
        # 1 and 1/2 at once; the dual is then unbounded along the
        # all-ones shift direction and must be refused up front
        kernel = GibbsKernel(np.ones((2, 2)), 0.1)
        lam = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match="unit-mass"):
            d_step(lam, [np.array([0.5, 0.5])] * 2, kernel)

    def test_unbounded_dictionary_is_a_solver_error(self):
        kernel = GibbsKernel(np.ones((2, 2)), 0.1)
        with pytest.raises(UnboundedDualError):
            d_step(np.array([[1.0, 2.0]]), [np.array([0.5, 0.5])] * 2, kernel)


class TestTrainWcf:
    def test_full_rank_matches_closed_form(self):
        # k = s leaves the factorization unconstrained, so the trained
        # model must reproduce the closed-form inference per user;
        # needs n >= s or the fitted loadings (a linear image of the
        # n-dimensional preference space) cannot reach rank s
        rng = np.random.default_rng(7)
        n, s, m = 6, 5, 10
        M = rng.uniform(size=(n, s))
        P = [rng.dirichlet(np.ones(n)) for _ in range(m)]
        model = train_wcf(P, M, k=s, gamma=0.05)
        kernel = GibbsKernel(M, 0.05)
        for u, p in enumerate(P):
            np.testing.assert_allclose(
                predict_user(model, u), infer_cold(p, kernel), atol=1e-8
            )

    def test_shared_preference_rank_one(self):
        # identical users compress into one dictionary atom equal to
        # their common closed-form inference
        rng = np.random.default_rng(9)
        n, s, m = 3, 4, 5
        M = rng.uniform(size=(n, s))
        p = rng.dirichlet(np.ones(n))
        model = train_wcf([p] * m, M, k=1, gamma=0.05)
        target = infer_cold(p, M, gamma=0.05)
        for u in range(m):
            np.testing.assert_allclose(predict_user(model, u), target, atol=1e-4)

    def test_trace_non_increasing_and_grows_per_half_step(self):
        rng = np.random.default_rng(13)
        n, s, m, k = 3, 5, 8, 2
        M = rng.uniform(size=(n, s))
        P = [rng.dirichlet(np.ones(n)) for _ in range(m)]
        model = train_wcf(P, M, k=k, gamma=0.05)
        trace = np.array(model.objective_trace)
        assert trace.size >= 2 and trace.size % 2 == 0
        assert np.all(np.diff(trace) <= 1e-6)

    @staticmethod
    def _scored(monkeypatch):
        """Record the factors and potentials of every half-step, in trace order."""
        entries, real_lambda, real_d = [], wcf.lambda_step, wcf.d_step

        def lambda_recording(D, P, kernel, G0=None):
            lam, G = real_lambda(D, P, kernel, G0)
            entries.append((D, lam, G))
            return lam, G

        def d_recording(lam, P, kernel, G0=None):
            D, G = real_d(lam, P, kernel, G0)
            entries.append((D, lam, G))
            return D, G

        monkeypatch.setattr(wcf, "lambda_step", lambda_recording)
        monkeypatch.setattr(wcf, "d_step", d_recording)
        return entries

    @staticmethod
    def _dual_values(P, kernel, entries):
        """-sum_u H*_{p_u}(g_u) at each entry's potentials, as train_wcf traces it."""
        P_mat, ents = transport._histograms(np.transpose(P), kernel.shape[0])
        return [-batch_conjugate(P_mat, G, kernel, ents)[0].sum() for _, _, G in entries]

    def test_returns_factors_of_lowest_traced_entry(self, monkeypatch):
        entries = self._scored(monkeypatch)
        rng = np.random.default_rng(13)
        n, s, m, k = 3, 5, 8, 2
        M = rng.uniform(size=(n, s))
        P = [rng.dirichlet(np.ones(n)) for _ in range(m)]
        model = train_wcf(P, M, k=k, gamma=0.05)
        values = self._dual_values(P, GibbsKernel(M, 0.05), entries)
        assert values == list(model.objective_trace)
        D, lam, _ = entries[int(np.argmin(values))]
        assert np.array_equal(model.dictionary, D)
        assert np.array_equal(model.loadings, lam)

    @pytest.mark.parametrize("seed, n, s, m, k, converged", [
        # this instance's dictionary solves stop at their pass budget,
        # which the two tests above already fail on under -W error; here
        # only the trace's values are checked
        pytest.param(13, 3, 5, 8, 2, False, id="rank-2", marks=pytest.mark.filterwarnings(
            "ignore:dictionary dual solve stopped:UserWarning")),
        pytest.param(7, 6, 5, 10, 5, True, id="k-equals-s"),
    ])
    def test_trace_matches_converged_reference(self, monkeypatch, seed, n, s, m, k, converged):
        # the trace is the block dual value: by weak duality never above
        # the primal of the half-step's factors, and by strong duality
        # equal to it where the block solves converge; a solve stopped
        # at its pass budget leaves its entry below, but the last entry
        # still lands on the cold solve's value
        entries = self._scored(monkeypatch)
        rng = np.random.default_rng(seed)
        M = rng.uniform(size=(n, s))
        P = np.stack([rng.dirichlet(np.ones(n)) for _ in range(m)], axis=1)
        model = train_wcf(P.T, M, k=k, gamma=0.05)
        trace = model.objective_trace
        references = [primal_values(P, wcf._clean_histogram(D @ lam), M, 0.05).sum()
                      for D, lam, _ in entries]
        assert len(references) == len(trace)
        for value, reference in zip(trace, references):
            assert value <= reference + 1e-8
        pinned = range(len(trace)) if converged else [-1]
        for i in pinned:
            assert trace[i] == pytest.approx(references[i], rel=1e-6)

    @pytest.mark.parametrize("deficient_draws", [0, 1], ids=["first-draw", "after-redraw"])
    def test_one_outer_pass_traces_two_trained_entries(self, monkeypatch, deficient_draws):
        # the trace starts after the first lambda_step: no entry scores
        # a random draw, and each is the dual value at its half-step's
        # potentials
        entries = self._scored(monkeypatch)
        draws, real_init = [], wcf.init_factors

        def drawing(s, m, k, seed=0):
            D = real_init(s, m, k, seed=seed)
            if len(draws) < deficient_draws:
                D[:, -1] = D[:, 0]  # duplicate column: rank deficient
            draws.append(D)
            return D

        monkeypatch.setattr(wcf, "init_factors", drawing)
        rng = np.random.default_rng(7)
        n, s, m, k = 6, 5, 10, 5
        M = rng.uniform(size=(n, s))
        P = [rng.dirichlet(np.ones(n)) for _ in range(m)]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            model = train_wcf(P, M, k=k, gamma=0.05, max_outer=1)
        assert len(draws) == deficient_draws + 1
        assert len([w for w in record if "redrawing" in str(w.message)]) == deficient_draws
        assert len(model.objective_trace) == len(entries) == 2
        assert self._dual_values(P, GibbsKernel(M, 0.05), entries) == list(model.objective_trace)

    def test_block_steps_solve_on_the_traced_histograms(self, monkeypatch):
        # the trace is scored on train_wcf's normalized stack, and each
        # block step normalizes the histograms it is given; given that
        # stack, it would normalize it a second time, which moves bits
        # on this instance
        rng = np.random.default_rng(3)
        n, s, m, k = 40, 12, 30, 3
        M = rng.uniform(size=(n, s))
        P = rng.uniform(size=(m, n))
        own, _ = transport._histograms(P.T, n)
        assert own.tobytes() != transport._histograms(own, n)[0].tobytes()
        given = []
        for name in ("lambda_step", "d_step"):
            def recording(factor, P, kernel, G0=None, step=getattr(wcf, name)):
                given.append(P)
                return step(factor, P, kernel, G0)
            monkeypatch.setattr(wcf, name, recording)
        train_wcf(P, M, k=k, gamma=0.05, max_outer=1)
        assert len(given) == 2
        for P_step in given:
            assert transport._histograms(np.transpose(P_step), n)[0].tobytes() == own.tobytes()

    def test_user_and_item_ids_attached(self):
        rng = np.random.default_rng(2)
        M = rng.uniform(size=(3, 4))
        P = [rng.dirichlet(np.ones(3)) for _ in range(4)]
        model = train_wcf(P, M, k=2, gamma=0.1, user_ids=(7, 8, 9, 10),
                          item_ids=(21, 23, 22, 20))
        assert model.user_ids == (7, 8, 9, 10)
        assert model.item_ids == (21, 23, 22, 20)
        assert train_wcf(P, M, k=2, gamma=0.1).item_ids == (0, 1, 2, 3)
        assert model.k == 2

    def test_ids_must_be_integers(self):
        # int() used to store 7.9 as user 7 and 2.5 as item 2
        rng = np.random.default_rng(2)
        M = rng.uniform(size=(3, 4))
        P = [rng.dirichlet(np.ones(3)) for _ in range(4)]
        with pytest.raises(ValueError, match="user_ids must be integers"):
            train_wcf(P, M, k=2, gamma=0.1, user_ids=(7.9, 8, 9, 10))
        with pytest.raises(ValueError, match="item_ids must be integers"):
            train_wcf(P, M, k=2, gamma=0.1, item_ids=(1, 2.5, 3, 4))
        # NumPy integers are stored as ints
        model = train_wcf(P, M, k=2, gamma=0.1, user_ids=np.arange(7, 11),
                          item_ids=np.array([21, 23, 22, 20], dtype=np.int32))
        assert model.user_ids == (7, 8, 9, 10) and model.item_ids == (21, 23, 22, 20)
        assert all(type(i) is int for i in model.user_ids + model.item_ids)

    def test_redraw_on_rank_deficiency(self, monkeypatch):
        calls = {"n": 0}
        real_init = wcf.init_factors

        def flaky_init(s, m, k, seed=0):
            calls["n"] += 1
            D = real_init(s, m, k, seed=seed)
            if calls["n"] == 1:
                D[:, -1] = D[:, 0]  # duplicate column: rank deficient
            return D

        monkeypatch.setattr(wcf, "init_factors", flaky_init)
        rng = np.random.default_rng(1)
        M = rng.uniform(size=(3, 4))
        P = [rng.dirichlet(np.ones(3)) for _ in range(4)]
        with pytest.warns(UserWarning, match="redrawing dictionary"):
            model = train_wcf(P, M, k=2, gamma=0.1)
        assert calls["n"] >= 2
        assert np.all(np.isfinite(model.dictionary))

    def test_redraw_budget_then_error(self, monkeypatch):
        real_init = wcf.init_factors

        def deficient_init(s, m, k, seed=0):
            D = real_init(s, m, k, seed=seed)
            D[:, -1] = D[:, 0]  # every draw rank deficient
            return D

        monkeypatch.setattr(wcf, "init_factors", deficient_init)
        rng = np.random.default_rng(1)
        M = rng.uniform(size=(3, 4))
        P = [rng.dirichlet(np.ones(3)) for _ in range(4)]
        with pytest.warns(UserWarning) as record, pytest.raises(RankDeficiencyError):
            train_wcf(P, M, k=2, gamma=0.1)
        assert [str(w.message) for w in record if "redrawing" in str(w.message)] == [
            "redrawing dictionary after rank deficiency (attempt %d)" % a for a in (1, 2, 3)]

    def test_rejects_bad_inputs(self):
        M = np.ones((2, 3))
        P = [np.array([0.5, 0.5])]
        with pytest.raises(ValueError):
            train_wcf(P, M, k=2, gamma=0.05)  # k > min(s, m)
        with pytest.raises(ValueError):
            train_wcf(P, M, k=1, gamma=0.05, user_ids=(1, 2))
        P2 = [np.array([0.5, 0.5]), np.array([0.25, 0.75])]
        with pytest.raises(ValueError, match="user_ids must name the 2 histograms, each once"):
            train_wcf(P2, M, k=1, gamma=0.05, user_ids=(7, 7))
        with pytest.raises(ValueError, match="item_ids must name the 3 cost columns"):
            train_wcf(P, M, k=1, gamma=0.05, item_ids=(4, 5))
        with pytest.raises(ValueError, match="item_ids must name the 3 cost columns"):
            train_wcf(P, M, k=1, gamma=0.05, item_ids=(4, 5, 4))
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            train_wcf(P, M, k=1, gamma=0.05, tol=-1.0)
        with pytest.raises(ValueError, match="max_outer must be at least 1"):
            train_wcf(P, M, k=1, gamma=0.05, max_outer=0)
        for budget in (1.5, 2.0):  # 1.5 used to run two outer passes
            with pytest.raises(TypeError, match=r"max_outer must be an integer, got %r$" % budget):
                train_wcf(P, M, k=1, gamma=0.05, max_outer=budget)

    def test_numpy_integer_max_outer_accepted(self):
        rng = np.random.default_rng(2)
        M = rng.uniform(size=(3, 4))
        P = [rng.dirichlet(np.ones(3)) for _ in range(4)]
        model = train_wcf(P, M, k=2, gamma=0.1, max_outer=np.int64(1))
        assert len(model.objective_trace) == 2  # one outer pass, two half-steps

    @pytest.mark.parametrize("tol", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            train_wcf([np.array([0.5, 0.5])], np.ones((2, 3)), k=1, gamma=0.05, tol=tol)

    def test_rejects_a_kernel_for_the_cost(self):
        # the kernel's own gamma would silently override ``gamma``
        rng = np.random.default_rng(2)
        M = rng.uniform(size=(3, 4))
        P = [rng.dirichlet(np.ones(3)) for _ in range(4)]
        with pytest.raises(TypeError, match="GibbsKernel"):
            train_wcf(P, GibbsKernel(M, 0.1), k=2, gamma=0.05)


MISSING = object()  # a manifest value that is deleted rather than replaced


def _set_key(key, value):
    """A manifest edit that sets ``key`` to ``value``, or deletes it for MISSING."""
    def edit(text):
        manifest = json.loads(text)
        if value is MISSING:
            del manifest[key]
        else:
            manifest[key] = value
        return json.dumps(manifest)
    return edit


class TestPredictAndPersistence:
    def _model(self):
        D = np.array([[0.6, 0.1], [0.3, 0.2], [0.1, 0.7]])
        lam = np.array([[1.2, -0.1], [-0.2, 1.1]])
        return FactorModel(dictionary=D, loadings=lam, gamma=0.05,
                           item_ids=(11, 12, 13), user_ids=(1, 2),
                           objective_trace=(0.5, 0.25))

    def test_predict_cleans_negatives(self):
        model = self._model()
        raw = model.dictionary @ model.loadings[:, 0]
        assert raw.min() < 0
        q = predict_user(model, 1)
        assert q.min() >= 0
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_user(self):
        with pytest.raises(KeyError):
            predict_user(self._model(), 99)

    def test_non_integer_user_is_unknown(self):
        model = self._model()
        for user in (1.99, 1.0, "1"):  # int() used to read 1.99 as user 1
            with pytest.raises(KeyError):
                predict_user(model, user)
        np.testing.assert_array_equal(predict_user(model, np.int64(1)), predict_user(model, 1))

    def test_prediction_without_positive_mass_is_a_solver_error(self):
        model = FactorModel(np.ones((2, 1)), -np.ones((1, 1)), 0.05, item_ids=(1, 2),
                            user_ids=(7,))
        with pytest.raises(SolverError, match="no positive mass"):
            predict_user(model, 7)

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(33)
        D = rng.uniform(size=(4, 2))
        lam = rng.normal(size=(2, 3))
        model = FactorModel(D, lam, 0.05, item_ids=(5, 6, 7, 8),
                            user_ids=(1, 2, 3), objective_trace=(1.0, 0.5, 0.25))
        save_model(model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        assert np.array_equal(loaded.dictionary, model.dictionary)
        assert np.array_equal(loaded.loadings, model.loadings)
        assert loaded.gamma == model.gamma
        assert loaded.item_ids == model.item_ids
        assert loaded.user_ids == model.user_ids
        assert loaded.objective_trace == model.objective_trace

    def test_save_is_deterministic(self, tmp_path):
        model = self._model()
        save_model(model, tmp_path / "a")
        save_model(model, tmp_path / "b")
        for name in ("dictionary.tsv", "loadings.tsv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("gamma", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_gamma_rejected(self, gamma):
        model = self._model()
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            FactorModel(model.dictionary, model.loadings, gamma,
                        item_ids=model.item_ids, user_ids=model.user_ids)

    def test_load_rejects_non_finite_gamma(self, tmp_path):
        save_model(self._model(), tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"gamma": 0.05', '"gamma": NaN'))
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("name, edit, message", [
        ("manifest.json", lambda text: text.replace('"k": 2', '"k": 3'),
         "manifest k 3 does not match dictionary"),
        ("manifest.json", lambda text: text.replace("    11,\n", "", 1),
         "item_ids must name the 3 dictionary rows"),
        ("manifest.json", lambda text: text.replace("    12,\n", "    11,\n", 1),
         "item_ids must name the 3 dictionary rows, each once"),
        ("manifest.json", lambda text: text.replace("    1,\n    2\n", "    1,\n    1\n", 1),
         "user_ids must name the 2 loading columns, each once"),
        ("dictionary.tsv", lambda text: "nan" + text[text.index("\t"):],
         "factors must be finite"),
        ("loadings.tsv", lambda text: text[:text.index("\n") + 1],
         re.escape("dictionary (3, 2) and loadings (1, 2) are incompatible")),
        *(("manifest.json", _set_key(key, MISSING), "model manifest: '%s' is missing" % key)
          for key in ("gamma", "k", "item_ids", "user_ids", "objective_trace")),
        ("manifest.json", _set_key("k", "2"), "model manifest: 'k' is missing or not an int"),
        ("manifest.json", _set_key("gamma", True), "model manifest: 'gamma' is missing or not a number"),
        ("manifest.json", _set_key("objective_trace", None),
         "model manifest: 'objective_trace' is missing or not a list of numbers"),
        ("manifest.json", _set_key("user_ids", [1, 10.7]),
         "model manifest: 'user_ids' is missing or not a list of ints"),
        ("manifest.json", lambda text: "[%s]" % text, "model manifest is not a JSON object"),
    ], ids=["k", "item-ids", "duplicate-item-ids", "duplicate-user-ids", "nan", "shape",
            "no-gamma", "no-k", "no-item-ids", "no-user-ids", "no-objective-trace",
            "k-str", "gamma-bool", "objective-trace-null", "user-id-float", "not-an-object"])
    def test_load_rejects_tampered_directory(self, tmp_path, name, edit, message):
        save_model(self._model(), tmp_path / "m")
        target = tmp_path / "m" / name
        target.write_text(edit(target.read_text()))
        with pytest.raises(ValueError, match=message):
            load_model(tmp_path / "m")

    def test_format_guard(self, tmp_path):
        model = self._model()
        save_model(model, tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.json"
        manifest.write_text(manifest.read_text().replace("factor-model/1", "factor-model/9"))
        with pytest.raises(ValueError, match="format"):
            load_model(tmp_path / "m")


class TestDualityEndToEnd:
    def test_primal_objective_matches_negated_dual(self):
        # after one full outer pass the traced primal equals the
        # negated dual value within inner-solve slack
        rng = np.random.default_rng(19)
        n, s, m, k = 3, 4, 6, 2
        M = rng.uniform(size=(n, s))
        kernel = GibbsKernel(M, 0.1)
        P = [rng.dirichlet(np.ones(n)) for _ in range(m)]
        D = init_factors(s, m, k, seed=0)
        lam, G = lambda_step(D, P, kernel)
        primal = primal_values(np.stack(P, axis=1), wcf._clean_histogram(D @ lam), M, 0.1).sum()
        vals, _ = batch_conjugate(np.stack(P, axis=1), G, kernel,
                                  np.array([entropy(p) for p in P]))
        assert primal == pytest.approx(float(-vals.sum()), abs=1e-6)


class TestLineSearchStall:
    """Candidate evaluations that never decrease make every search stall."""

    @staticmethod
    def _no_decrease(monkeypatch):
        real = wcf.batch_conjugate
        evaluated = []
        started = []

        def stubborn(P, G, kernel, entropies):
            values, grads = real(P, G, kernel, entropies)
            if not started:  # the start point; every later call is a candidate
                started.append(True)
                return values, grads
            evaluated.append(G.shape[1])
            return np.full(G.shape[1], np.inf), grads

        monkeypatch.setattr(wcf, "batch_conjugate", stubborn)
        return evaluated

    @staticmethod
    def _problem(m=5, k=2):
        rng = np.random.default_rng(8)
        kernel = GibbsKernel(rng.uniform(size=(4, 6)), 0.1)
        P = [rng.dirichlet(np.ones(4)) for _ in range(m)]
        D = init_factors(6, m, k, seed=3)
        lam = rng.uniform(0.5, 1.5, size=(k, m))
        lam[0] = 1.0  # unit-mass predictions stay reachable
        return P, kernel, D, lam

    def test_lambda_step_raises_far_from_optimum(self, monkeypatch):
        P, kernel, D, _ = self._problem()
        self._no_decrease(monkeypatch)
        with pytest.raises(SolverError, match="no decrease for 5 group"):
            lambda_step(D, P, kernel)

    def test_d_step_raises_far_from_optimum(self, monkeypatch):
        P, kernel, _, lam = self._problem()
        self._no_decrease(monkeypatch)
        with pytest.raises(SolverError, match="no decrease for 1 group"):
            d_step(lam, P, kernel)

    @pytest.mark.parametrize("rise, trial_grads, accepted", [
        # equal to rounding and descending at the trial: the approximate
        # Wolfe test accepts what the value test cannot resolve
        (0.5, "start", True),
        # equal to rounding but the trapezoid estimate shows no decrease
        (0.5, "reversed", False),
        # a rise beyond rounding is never accepted, whatever the slope
        (10.0, "start", False),
        (10.0, "zero", False),
    ])
    def test_values_equal_to_rounding_defer_to_derivatives(self, monkeypatch, rise,
                                                           trial_grads, accepted):
        P, kernel, D, _ = self._problem()
        real, start = wcf.batch_conjugate, []

        def flat(P, G, kernel, entropies):
            values, grads = real(P, G, kernel, entropies)
            if not start:  # every later call is a candidate
                start.append((values, grads))
                return values, grads
            base, base_grads = start[0]
            cgrads = {"start": base_grads, "reversed": -base_grads,
                      "zero": np.zeros_like(grads)}[trial_grads]
            return base + rise * wcf._VALUE_ROUNDING * np.abs(base), cgrads

        monkeypatch.setattr(wcf, "batch_conjugate", flat)
        monkeypatch.setattr(wcf, "_MAX_INNER", 1)
        if accepted:
            with pytest.warns(UserWarning, match="loadings dual solve stopped after 1 pass"):
                _, G = lambda_step(D, P, kernel)
            assert np.all(np.abs(G).max(axis=0) > 0)  # every user took its first trial
        else:
            with pytest.raises(SolverError, match="no decrease for 5 group"):
                lambda_step(D, P, kernel)

    def test_negligible_stall_freezes_each_user_once(self, monkeypatch):
        P, kernel, D, _ = self._problem()
        # projected gradient norms at the zero start, one per user
        Q, _ = np.linalg.qr(D)
        ents = np.array([entropy(p) for p in P])
        _, grads = batch_conjugate(np.stack(P, axis=1), np.zeros((6, len(P))), kernel, ents)
        norms = np.linalg.norm(grads - Q @ (Q.T @ grads), axis=0)
        tol = norms.min() / 2
        assert norms.max() < wcf._STALL_FACTOR * tol  # every stall is negligible
        monkeypatch.setattr(wcf, "_INNER_TOL", tol)
        evaluated = self._no_decrease(monkeypatch)

        lam, G = lambda_step(D, P, kernel)
        # one failed search, all users in each batch, and never again;
        # the stub keeps every trial's true gradient, which still shows
        # descent there, so each secant estimate lies past the trial and
        # the backtrack takes its largest cut: t = 1, 1/2, ... down to
        # the smallest step
        steps, t = 0, wcf._STEP_INIT
        while t >= wcf._MIN_STEP:
            steps, t = steps + 1, t * wcf._BACKTRACK_RANGE[1]
        assert evaluated == [len(P)] * steps
        np.testing.assert_allclose(G, 0.0, atol=1e-15)
        assert np.all(np.isfinite(lam))


class TestInnerSolve:
    """How the group-wise dual solver spends its evaluations and how it ends."""

    _problem = staticmethod(TestLineSearchStall._problem)

    @staticmethod
    def _count_calls(monkeypatch):
        real = wcf.batch_conjugate
        sizes = []

        def counting(P, G, kernel, entropies):
            sizes.append(G.shape[1])
            return real(P, G, kernel, entropies)

        monkeypatch.setattr(wcf, "batch_conjugate", counting)
        return sizes

    def test_accepted_steps_are_not_evaluated_twice(self, monkeypatch):
        # at gamma 0.5 every user of this problem accepts its first trial
        # on every pass (the solve converges after pass 5): one
        # evaluation at the start, then one per pass, each carrying its
        # gradients into the next pass (a rejected step would add a call
        # for the users still searching)
        P, kernel, D, _ = self._problem()
        kernel = GibbsKernel(kernel.cost, 0.5)
        passes = 4
        monkeypatch.setattr(wcf, "_MAX_INNER", passes)
        sizes = self._count_calls(monkeypatch)
        with pytest.warns(UserWarning, match="loadings dual solve"):
            lambda_step(D, P, kernel)
        assert sizes == [len(P)] * (1 + passes)

    def test_scaled_steps_converge_at_small_gamma(self, monkeypatch):
        # plain gradient steps need 1,129 evaluations here and still stop
        # at the loadings budget; steps in the Hessian-diagonal metric
        # converge both blocks, in 112 evaluations when every pass starts
        # at t = 1 and in 46 when it starts at the last secant estimate
        P, kernel, D, lam = self._problem()
        kernel = GibbsKernel(kernel.cost, 0.05)
        sizes = self._count_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lambda_step(D, P, kernel)
            d_step(lam, P, kernel)
        assert len(sizes) <= 60

    def test_pass_starts_at_last_secant_estimate(self, monkeypatch):
        # at gamma 0.5 every first trial is accepted, so call 1 is pass
        # 1's trial at t = 1 and call 2 is pass 2's first trial, which
        # must sit at the secant minimizer pass 1 measured, clipped
        P, kernel, D, _ = self._problem()
        kernel = GibbsKernel(kernel.cost, 0.5)
        real, calls = wcf.batch_conjugate, []

        def capturing(P, G, kernel, entropies):
            values, grads = real(P, G, kernel, entropies)
            calls.append((G.copy(), grads.copy()))  # the solve writes into grads
            return values, grads

        monkeypatch.setattr(wcf, "batch_conjugate", capturing)
        monkeypatch.setattr(wcf, "_MAX_INNER", 2)
        with pytest.warns(UserWarning, match="loadings dual solve stopped after 2 passes"):
            lambda_step(D, P, kernel)
        assert len(calls) == 3
        Q, _ = np.linalg.qr(D)

        def direction(grads):
            return weighted_projection(grads, (grads + wcf._CURVATURE_FLOOR) / kernel.gamma, D)

        (G0, grads0), (cand1, grads1), (cand2, _) = calls
        step1, step2 = direction(grads0), direction(grads1)
        np.testing.assert_allclose(cand1, G0 - step1, atol=1e-12)
        slope = ((grads0 - Q @ (Q.T @ grads0)) * step1).sum(axis=0)
        d1 = (grads1 * step1).sum(axis=0)
        tau = np.clip(slope / (slope - d1), *wcf._START_RANGE)
        assert np.abs(tau - 1.0).max() > 0.1  # a unit start would fail below
        G1 = cand1 - Q @ (Q.T @ cand1)
        t2 = ((G1 - cand2) * step2).sum(axis=0) / (step2 * step2).sum(axis=0)
        np.testing.assert_allclose(t2, tau, rtol=1e-8)

    @staticmethod
    def _projectors(monkeypatch):
        """The ``project`` each block step hands to the inner solver."""
        real, captured = wcf._pgd, {}

        def capture(P, G0, kernel, entropies, project, groups, block):
            captured[block] = project
            return real(P, G0, kernel, entropies, project, groups, block)

        monkeypatch.setattr(wcf, "_pgd", capture)
        return captured

    @pytest.mark.parametrize("block", ["loadings", "dictionary"])
    def test_metric_projection_is_weighted_least_squares(self, monkeypatch, block):
        P, kernel, D, lam = self._problem()
        projectors = self._projectors(monkeypatch)
        lambda_step(D, P, kernel)
        d_step(lam, P, kernel)
        project = projectors[block]
        rng = np.random.default_rng(4)
        V = rng.normal(size=(6, len(P)))
        W = rng.uniform(1e-3, 10.0, size=V.shape)
        X = project(V, W)
        if block == "loadings":
            residual = D.T @ X  # every user's column in D^T x = 0
            oracle = weighted_projection(V, W, D)
        else:
            residual = X @ lam.T  # every item's row in x Lambda^T = 0
            oracle = weighted_projection(V.T, W.T, lam.T).T
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)
        np.testing.assert_allclose(X, oracle, rtol=1e-9, atol=1e-9)
        # the unit metric is the orthogonal projection
        np.testing.assert_allclose(project(V, np.ones_like(V)), project(V), atol=1e-12)

    @staticmethod
    def _open_groups(grads, project, groups):
        PG = project(grads)
        norms = np.sqrt(np.bincount(groups, (PG * PG).sum(axis=0)))
        open_ = norms >= wcf._INNER_TOL
        return int(open_.sum()), float(norms[open_].max())

    @staticmethod
    def _reported(record, block):
        (warning,) = [w for w in record if "dual solve" in str(w.message)]
        text = str(warning.message)
        assert text.startswith("%s dual solve stopped after 3 passes" % block)
        groups = int(re.search(r"with (\d+) group", text).group(1))
        norm = float(re.search(r"gradient norm (\S+)", text).group(1))
        return groups, norm

    def test_budget_exhaustion_warns_for_loadings(self, monkeypatch):
        P, kernel, D, _ = self._problem()
        monkeypatch.setattr(wcf, "_MAX_INNER", 3)
        with pytest.warns(UserWarning) as record:
            _, G = lambda_step(D, P, kernel)
        Q, _ = np.linalg.qr(D)
        ents = np.array([entropy(p) for p in P])
        _, grads = batch_conjugate(np.stack(P, axis=1), G, kernel, ents)
        groups, norm = self._reported(record, "loadings")
        expected = self._open_groups(grads, lambda G: G - Q @ (Q.T @ G), np.arange(len(P)))
        assert groups == expected[0] > 0
        assert norm == pytest.approx(expected[1], rel=1e-4)

    def test_budget_exhaustion_warns_for_dictionary(self, monkeypatch):
        P, kernel, _, lam = self._problem()
        monkeypatch.setattr(wcf, "_MAX_INNER", 3)
        with pytest.warns(UserWarning) as record:
            _, G = d_step(lam, P, kernel)
        QL, _ = np.linalg.qr(lam.T)
        ents = np.array([entropy(p) for p in P])
        _, grads = batch_conjugate(np.stack(P, axis=1), G, kernel, ents)
        groups, norm = self._reported(record, "dictionary")
        expected = self._open_groups(grads, lambda G: G - (G @ QL) @ QL.T,
                                     np.zeros(len(P), dtype=np.intp))
        assert groups == expected[0] == 1
        assert norm == pytest.approx(expected[1], rel=1e-4)

    @pytest.mark.parametrize("step", ["lambda_step", "d_step"])
    def test_wrong_shape_warm_start_rejected(self, step):
        P, kernel, D, lam = self._problem()
        factor = D if step == "lambda_step" else lam
        with pytest.raises(ValueError, match=r"warm-start potentials have shape \(6, %d\), "
                                             r"expected \(6, %d\)$" % (len(P) + 1, len(P))):
            getattr(wcf, step)(factor, P, kernel, np.zeros((6, len(P) + 1)))

    def test_converged_solves_warn_nothing(self):
        P, kernel, D, lam = self._problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lambda_step(D, P, kernel)
            d_step(lam, P, kernel)
