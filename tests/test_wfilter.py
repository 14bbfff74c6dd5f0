import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wassrec.transport as transport
import wassrec.wfilter as wfilter
from wassrec import GibbsKernel, batch_conjugate
from wassrec.wfilter import UserInteractions, estimate_preference, infer_cold, rank_order
from conftest import one_user_conjugate, traced_peak
from oracles import entropic_value_many, entropy, rank_by_key


class TestUserInteractions:
    def test_valid(self):
        u = UserInteractions(7, [0, 2], [3.0, 1.0])
        assert u.item_indices.dtype == np.int64

    def test_rejects_empty_duplicate_nonpositive(self):
        with pytest.raises(ValueError):
            UserInteractions(1, [], [])
        with pytest.raises(ValueError):
            UserInteractions(1, [0, 0], [1.0, 1.0])
        with pytest.raises(ValueError):
            UserInteractions(1, [0, 1], [1.0, 0.0])
        with pytest.raises(ValueError):
            UserInteractions(1, [-1], [1.0])
        with pytest.raises(ValueError, match="1-D and aligned"):
            UserInteractions(1, [0, 1], [1.0])
        with pytest.raises(ValueError, match="1-D and aligned"):
            UserInteractions(1, [[0, 1]], [[1.0, 1.0]])


class TestEstimatePreference:
    def test_normalizes_strengths(self):
        u = UserInteractions("a", [0, 2], [3.0, 1.0])
        np.testing.assert_allclose(estimate_preference(u, 4), [0.75, 0.0, 0.25, 0.0])

    def test_rejects_out_of_range_index(self):
        u = UserInteractions("a", [5], [1.0])
        with pytest.raises(ValueError):
            estimate_preference(u, 3)
        with pytest.raises(ValueError, match="n_items must be positive"):
            estimate_preference(u, 0)


class TestInferCold:
    def test_single_interacted_item_soft_assignment(self):
        # one row: q_hat is the softmax of -M_1j / gamma, here a
        # near-certain vote for the cheap item with weight e^(-14)
        # leaking to the expensive one
        q = infer_cold([1.0], np.array([[0.2, 0.9]]), gamma=0.05)
        e = math.exp((0.2 - 0.9) / 0.05)
        np.testing.assert_allclose(q, [1 / (1 + e), e / (1 + e)], rtol=1e-12)
        assert q[1] == pytest.approx(8.315218e-07, rel=1e-5)

    def test_near_identity_cost_recovers_preference(self):
        p = np.array([0.5, 0.2, 0.3])
        M = 2.0 * (1.0 - np.eye(3))
        q = infer_cold(p, M, gamma=1e-3)
        np.testing.assert_allclose(q, p, atol=1e-3)

    def test_equals_a_one_column_conjugate_stack(self, movies):
        M, p0, _, _ = movies
        kernel = GibbsKernel(M, 0.05)
        direct = infer_cold(p0, kernel)
        _, via_grad = one_user_conjugate(p0, np.zeros((2, 1)), kernel)
        np.testing.assert_array_equal(direct, via_grad[:, 0])

    @pytest.mark.parametrize("gamma", [1.0, 0.05, 1e-3])
    def test_matches_batched_conjugate_at_zero_potential(self, gamma):
        # unnormalized stacks with zero entries against the conjugate
        # gradient at g = 0, down to a gamma where kernel cells underflow
        rng = np.random.default_rng(23)
        n, s, m = 40, 25, 30
        kernel = GibbsKernel(rng.uniform(size=(n, s)), gamma)
        X = rng.uniform(size=(n, m)) * (rng.uniform(size=(n, m)) < 0.3)
        X[rng.integers(n, size=m), np.arange(m)] += 1.0  # no empty column
        X *= rng.uniform(0.1, 10.0, size=m)
        P, ents = transport._histograms(X, n)
        expected = batch_conjugate(P, np.zeros((s, m)), kernel, ents)[1]
        np.testing.assert_allclose(infer_cold(X, kernel), expected, rtol=1e-14, atol=0)

    def test_peak_memory_one_stack_temporary(self):
        # with the kernel built, a stack needs one n x m temporary beside
        # its s x m result
        rng = np.random.default_rng(5)
        n, s, m = 400, 120, 300
        kernel = GibbsKernel(rng.uniform(size=(n, s)), 0.05)
        kernel.shifted_kernel  # built before tracing
        X = rng.uniform(size=(n, m))
        peak = traced_peak(lambda: infer_cold(X, kernel))
        assert peak <= 8 * (n * m + 2 * s * m)

    def test_peak_memory_one_column_block_plus_the_result(self):
        # the quotient X / K1 is formed INFER_BLOCK users at a time; beside
        # the s x m result a step holds its n x B quotient and s x B product
        rng = np.random.default_rng(6)
        n, s, m = 400, 120, 1000
        kernel = GibbsKernel(rng.uniform(size=(n, s)), 0.05)
        kernel.shifted_kernel  # built before tracing
        X = rng.uniform(size=(n, m))
        peak = traced_peak(lambda: infer_cold(X, kernel))
        assert m > 4 * wfilter.INFER_BLOCK
        assert peak <= 8 * ((n + s) * wfilter.INFER_BLOCK + s * m + n + m) + 2**15

    def test_minimizes_transport_cost_refined_grid(self, movies):
        # q_hat should minimize W_gamma(p, .) over the simplex; for
        # s = 2 sweep q = (t, 1 - t) on a coarse grid and refine around
        # the argmin three times (the objective is convex in q, so
        # local refinement is sound)
        M, p0, _, _ = movies
        gamma = 0.1
        q_hat = infer_cold(p0, M, gamma=gamma)

        lo, hi, steps = 0.001, 0.999, 800
        for _ in range(4):
            ts = np.linspace(lo, hi, steps + 1)
            Q = np.stack([ts, 1.0 - ts])
            vals = entropic_value_many(p0, Q, M, gamma, tol=1e-11)
            j = int(np.argmin(vals))
            width = (hi - lo) / steps
            lo, hi = max(ts[j] - 2 * width, 1e-9), min(ts[j] + 2 * width, 1 - 1e-9)
        t_best = (lo + hi) / 2
        assert q_hat[0] == pytest.approx(t_best, abs=1e-6)

    def test_entropy_sharpens_as_gamma_shrinks(self, movies):
        M, p0, _, _ = movies
        ents = [entropy(infer_cold(p0, M, gamma=g)) for g in (1.0, 0.1, 0.01)]
        assert ents[0] >= ents[1] >= ents[2]

    def test_mass_conserved(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n, s = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            p = rng.dirichlet(np.ones(n))
            q = infer_cold(p, rng.uniform(0, 2, size=(n, s)), gamma=0.05)
            assert abs(q.sum() - 1.0) < 1e-10
            assert q.min() >= 0

    def test_gamma_handling(self, movies):
        M, p0, _, _ = movies
        kernel = GibbsKernel(M, 0.05)
        with pytest.raises(ValueError):
            infer_cold(p0, M)  # cost matrix without gamma
        with pytest.raises(ValueError):
            infer_cold(p0, kernel, gamma=0.1)  # conflicting gamma
        np.testing.assert_array_equal(infer_cold(p0, kernel, gamma=0.05),
                                      infer_cold(p0, kernel))


class TestRankItems:
    # one user's ranking: rank_order on a one-column stack
    def test_sorts_descending(self):
        order = rank_order(np.array([[0.1], [0.5], [0.4]]), [7, 3, 9])[:, 0]
        assert order.tolist() == [1, 2, 0]  # items 3, 9, 7

    def test_ties_break_by_ascending_id(self):
        order = rank_order(np.array([[0.25], [0.5], [0.25]]), [30, 10, 20])[:, 0]
        assert order.tolist() == [1, 2, 0]  # items 10, 20, 30

    def test_rejects_duplicates_and_misalignment(self):
        with pytest.raises(ValueError, match="duplicate-free"):
            rank_order(np.array([[0.5], [0.5]]), [1, 1])
        with pytest.raises(ValueError, match="aligned with the s item_ids"):
            rank_order(np.array([[0.5], [0.5]]), [1, 2, 3])


@st.composite
def scored_items(draw):
    """An (s, m) score stack with many exact ties, and s unsorted distinct ids."""
    s = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    ids = st.integers(-1000, 1000) if draw(st.booleans()) else st.text(max_size=3)
    item_ids = draw(st.lists(ids, min_size=s, max_size=s, unique=True))
    scores = st.sampled_from([0.0, 0.125, 0.5, 1.0])
    Q = draw(st.lists(st.lists(scores, min_size=m, max_size=m), min_size=s, max_size=s))
    return np.array(Q), item_ids


class TestRankOrder:
    @settings(max_examples=200, deadline=None)
    @given(scored_items())
    def test_matches_key_sort(self, case):
        Q, ids = case
        order = rank_order(Q, ids)
        for u in range(Q.shape[1]):
            q = Q[:, u]
            assert order[:, u].tolist() == rank_by_key(q, ids)
            np.testing.assert_array_equal(rank_order(q[:, None], ids)[:, 0], order[:, u])

    def test_rejects_bad_shapes_and_duplicates(self):
        with pytest.raises(ValueError):
            rank_order(np.zeros(3), [1, 2, 3])  # one column must be (s, 1)
        with pytest.raises(ValueError):
            rank_order(np.zeros((3, 2)), [1, 2])
        with pytest.raises(ValueError):
            rank_order(np.zeros((2, 2)), ["a", "a"])
