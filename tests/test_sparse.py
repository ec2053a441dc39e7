"""Sparse weights: soft threshold, budgeted unit solve, penalised rank-1
decomposition, and the primal-dual basis-matching variant."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cancorr import (
    KernelSpec,
    NumericalError,
    PairedDataset,
    build_gram_pair,
    fit_pmd,
    fit_primal_dual,
    generate_synthetic,
    get_recipe,
    median_heuristic,
    scan_basis,
    soft_threshold,
    sparse_unit_solve,
    standardize,
)
from cancorr import sparse as sparse_module
from cancorr.dataset import covariance_blocks
from cancorr.kernel import center_gram, gram
from cancorr.numerics import unit_images
from cancorr.sparse import PrimalDualResult

PLANTED_PAIRS = {(2, 0), (0, 1), (3, 2)}


def max_entry_pairs(result) -> set:
    return {
        (int(np.argmax(np.abs(result.w_a[:, k]))), int(np.argmax(np.abs(result.w_b[:, k]))))
        for k in range(result.r)
    }


class TestSoftThreshold:
    def test_hand_values(self):
        out = soft_threshold(np.array([3.0, -3.0, 0.5]), 1.0)
        assert np.array_equal(out, np.array([2.0, -2.0, 0.0]))

    def test_zero_threshold_is_identity(self):
        a = np.array([1.5, -2.0, 0.0, 7.0])
        assert np.array_equal(soft_threshold(a, 0.0), a)

    def test_large_threshold_zeroes_everything(self):
        a = np.array([1.5, -2.0, 0.3])
        assert np.array_equal(soft_threshold(a, 2.0), np.zeros(3))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(np.ones(3), -0.1)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_threshold_rejected(self, c):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            soft_threshold(np.ones(3), c)

    @given(st.integers(0, 500))
    def test_non_expansive(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 30))
        a = rng.standard_normal(dim) * rng.uniform(0.1, 10)
        b = rng.standard_normal(dim) * rng.uniform(0.1, 10)
        c = float(rng.uniform(0, 3))
        lhs = np.linalg.norm(soft_threshold(a, c) - soft_threshold(b, c))
        assert lhs <= np.linalg.norm(a - b) + 1e-12


def grid_oracle(a: np.ndarray, budget: float) -> np.ndarray:
    """Dense search over the threshold delta; reference for the exact solve."""
    best, best_gap = None, np.inf
    for delta in np.arange(0.0, np.abs(a).max(), 1e-4):
        s = soft_threshold(a, delta)
        norm = np.linalg.norm(s)
        if norm == 0:
            continue
        u = s / norm
        l1 = np.abs(u).sum()
        if l1 <= budget + 1e-12 and budget - l1 < best_gap:
            best, best_gap = u, budget - l1
    return best


def bisection_unit_solve(a: np.ndarray, budget: float) -> np.ndarray:
    """The former solve, kept as the reference: bisect on the threshold in
    [0, max|a|] for at most 100 halvings, until the 1-norm is within 1e-6 of
    the budget."""
    a = np.asarray(a, dtype=float).ravel()
    u = a / np.linalg.norm(a)
    if np.abs(u).sum() <= budget:
        return u
    lo, hi = 0.0, float(np.abs(a).max())
    for _ in range(100):
        mid = (lo + hi) / 2.0
        s = soft_threshold(a, mid)
        s_norm = np.linalg.norm(s)
        if s_norm == 0:
            hi = mid
            continue
        u = s / s_norm
        l1 = float(np.abs(u).sum())
        if abs(l1 - budget) <= 1e-6:
            return u
        if l1 > budget:
            lo = mid
        else:
            hi = mid
    raise NumericalError(f"bisection stopped at 1-norm {l1:.6g} above the budget {budget:g}")


def unit_solve_draw(seed: int):
    """A random coefficient vector of dimension 2-24 and a budget in [1, sqrt(dim)]."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 25))
    a = rng.standard_normal(dim)
    return rng, a, float(rng.uniform(1.0, np.sqrt(dim)))


class TestSparseUnitSolve:
    def test_budget_one_picks_largest_axis(self):
        assert np.array_equal(sparse_unit_solve(np.array([3.0, 1.0]), 1.0), np.array([1.0, 0.0]))

    def test_inactive_budget_returns_unit_vector(self):
        u = sparse_unit_solve(np.array([3.0, 4.0]), np.sqrt(2.0))
        assert np.abs(u - np.array([0.6, 0.8])).max() <= 1e-12

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            a = rng.standard_normal(20)
            u = sparse_unit_solve(a, 2.5)
            ref = grid_oracle(a, 2.5)
            assert np.abs(u - ref).max() <= 1e-3

    def test_infeasible_and_zero_inputs(self):
        with pytest.raises(ValueError, match="infeasible"):
            sparse_unit_solve(np.ones(4), 0.9)
        with pytest.raises(ValueError, match="zero coefficient"):
            sparse_unit_solve(np.zeros(4), 1.5)

    @pytest.mark.parametrize("budget", [np.nan, np.inf])
    def test_non_finite_budget_rejected(self, budget):
        # an inactive budget is any value from sqrt(dim) up, so none needs to be infinite
        with pytest.raises(ValueError, match="finite and at least 1"):
            sparse_unit_solve(np.array([3.0, -1.0, 0.5, 0.2]), budget)

    def test_tied_largest_entries_below_their_floor_raise(self):
        # two tied leading entries keep every thresholded unit vector's
        # 1-norm at sqrt(2) or more
        with pytest.raises(NumericalError, match=r"budget 1\.2: .* 1-norm 1\.41421"):
            sparse_unit_solve(np.array([1.0, 1.0, 0.5]), 1.2)
        u = sparse_unit_solve(np.array([1.0, 1.0, 0.5]), 1.5)
        assert abs(np.abs(u).sum() - 1.5) <= 1e-12 * 1.5

    def test_budget_at_the_tie_floor_keeps_the_tied_entries(self):
        # budget sqrt(t) is met exactly by the t tied entries alone; one step
        # below it nothing is
        for t in range(2, 7):
            a = np.concatenate([np.tile([1.0, -1.0], t)[:t], [0.5, -0.25]])
            u = sparse_unit_solve(a, np.sqrt(t))
            assert np.array_equal(u != 0, np.abs(a) == 1.0)
            assert np.abs(u[:t] - a[:t] / np.sqrt(t)).max() <= 1e-15
            assert abs(np.abs(u).sum() - np.sqrt(t)) <= 1e-12 * np.sqrt(t)
            with pytest.raises(NumericalError, match=f"{t} entries tie"):
                sparse_unit_solve(a, np.nextafter(np.sqrt(t), 0.0))

    def test_budgets_at_a_segment_end_to_roundoff(self):
        # a budget one step below the plain unit vector's 1-norm puts the
        # threshold at 0 up to roundoff, and a near tie at budget sqrt(2)
        # leaves the segment ratio within roundoff of the budget
        for seed in range(200):
            a = np.random.default_rng(seed).standard_normal(5)
            budget = np.nextafter(np.abs(a).sum() / np.linalg.norm(a), 0.0)
            u = sparse_unit_solve(a, budget)
            assert np.abs(u - a / np.linalg.norm(a)).max() <= 1e-12
            assert abs(np.abs(u).sum() - budget) <= 1e-12 * budget
        u = sparse_unit_solve(np.array([1.0, 1.0 - 2.0**-53, 0.5]), np.sqrt(2.0))
        assert np.abs(u - np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)).max() <= 1e-15

    def test_binding_budget_is_met_to_roundoff(self):
        for seed in range(501):
            _, a, budget = unit_solve_draw(seed)
            if np.abs(a).sum() > budget * np.linalg.norm(a):
                u = sparse_unit_solve(a, budget)
                assert abs(np.abs(u).sum() - budget) <= 1e-12 * budget

    @given(st.integers(0, 500))
    def test_constraints_and_scale_covariance(self, seed):
        rng, a, budget = unit_solve_draw(seed)
        u = sparse_unit_solve(a, budget)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        assert np.abs(u).sum() <= budget * (1 + 1e-12)
        scaled = sparse_unit_solve(rng.uniform(0.5, 10.0) * a, budget)
        assert np.abs(u - scaled).max() <= 1e-9

    @given(st.integers(0, 500))
    def test_matches_the_bisection_reference(self, seed):
        _, a, budget = unit_solve_draw(seed)
        u, ref = sparse_unit_solve(a, budget), bisection_unit_solve(a, budget)
        assert np.array_equal(u != 0, ref != 0)
        assert np.abs(u - ref).max() <= 1e-5


class TestFitPmd:
    def test_axis_matrix_recovered_exactly(self):
        c = np.zeros((4, 5))
        c[0, 0] = 1.0
        res = fit_pmd(c, 1.5, 1.5, 1)
        assert np.array_equal(res.w_a[:, 0], np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(res.w_b[:, 0], np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        assert res.sigmas[0] == 1.0

    def test_inactive_budgets_match_svd(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((6, 4))
        res = fit_pmd(c, np.sqrt(6.0), np.sqrt(4.0), 1)
        u, s, vt = np.linalg.svd(c)
        assert abs(res.sigmas[0] - s[0]) <= 1e-4
        # the pair is defined up to a joint sign flip
        dev = min(
            max(np.abs(res.w_a[:, 0] - f * u[:, 0]).max(), np.abs(res.w_b[:, 0] - f * vt[0]).max())
            for f in (1.0, -1.0)
        )
        assert dev <= 1e-4

    def test_planted_pairs_recovered(self):
        data = generate_synthetic(get_recipe("example9", seed=0))
        res = fit_pmd(covariance_blocks(data).c_ab, 1.2, 1.2, 3)
        assert max_entry_pairs(res) == PLANTED_PAIRS
        for k in range(3):
            z_a = data.view_a @ res.w_a[:, k]
            z_b = data.view_b @ res.w_b[:, k]
            cosine = abs(z_a @ z_b) / (np.linalg.norm(z_a) * np.linalg.norm(z_b))
            assert cosine >= 0.85

    def test_weight_constraints_and_nonnegative_scales(self):
        data = generate_synthetic(get_recipe("example9", seed=1))
        res = fit_pmd(covariance_blocks(data).c_ab, 1.3, 1.6, 3)
        for w, budget in ((res.w_a, 1.3), (res.w_b, 1.6)):
            norms = np.linalg.norm(w, axis=0)
            assert np.abs(norms - 1.0).max() <= 1e-8
            assert np.abs(w).sum(axis=0).max() <= budget * (1 + 1e-12)
        assert np.all(res.sigmas >= 0.0)

    def test_deflation_shrinks_residual(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((8, 6))
        res = fit_pmd(c, 1.5, 1.5, 4)
        resid = c.copy()
        norms = [np.linalg.norm(resid)]
        for k in range(res.r):
            resid = resid - res.sigmas[k] * np.outer(res.w_a[:, k], res.w_b[:, k])
            norms.append(np.linalg.norm(resid))
        assert all(b <= a + 1e-8 for a, b in zip(norms, norms[1:]))

    def test_objective_history_non_decreasing(self):
        # each half-step is an exact maximiser: monotone up to roundoff
        data = generate_synthetic(get_recipe("example9", seed=2))
        res = fit_pmd(covariance_blocks(data).c_ab, 1.2, 1.2, 2)
        assert type(res.iterations) is tuple and all(type(i) is int for i in res.iterations)
        assert type(res.converged) is tuple and all(type(c) is bool for c in res.converged)
        assert type(res.objective_histories) is tuple and len(res.objective_histories) == res.r
        for history, iterations in zip(res.objective_histories, res.iterations):
            assert history.dtype == float and history.shape == (iterations,)
            assert np.all(np.diff(history) >= -1e-12)

    def test_residual_exhaustion_truncates_ranks(self):
        c = np.zeros((3, 3))
        c[0, 0] = 2.0
        res = fit_pmd(c, 1.0, 1.0, 3)
        assert res.r == 1
        assert res.sigmas[0] == 2.0

    def test_non_convergence_is_flagged(self, monkeypatch):
        monkeypatch.setattr(sparse_module, "PMD_MAX_ITER", 1)
        rng = np.random.default_rng(4)
        res = fit_pmd(rng.standard_normal((10, 8)), 1.4, 1.4, 1)
        assert res.converged == (False,)
        assert res.iterations == (1,)

    def test_validation(self):
        c = np.ones((3, 3))
        with pytest.raises(ValueError, match="infeasible"):
            fit_pmd(c, 0.5, 1.5, 1)
        with pytest.raises(ValueError, match="ranks"):
            fit_pmd(c, 1.5, 1.5, 4)
        with pytest.raises(NumericalError, match="numerically zero"):
            fit_pmd(np.zeros((3, 3)), 1.5, 1.5, 1)
        with pytest.raises(ValueError, match="non-finite"):
            fit_pmd(np.full((3, 3), np.nan), 1.5, 1.5, 1)
        with pytest.raises(ValueError, match="must be 2-d"):
            fit_pmd(np.ones(3), 1.5, 1.5, 1)
        with pytest.raises(ValueError, match="must be 2-d"):
            fit_pmd(np.ones((3, 3, 3)), 1.5, 1.5, 1)

    @pytest.mark.parametrize("budgets", [(np.nan, 1.2), (1.2, np.nan), (np.inf, 1.2),
                                         (1.2, np.inf)])
    def test_non_finite_budgets_rejected(self, budgets):
        with pytest.raises(ValueError, match="finite and at least 1"):
            fit_pmd(np.eye(3) + 0.1, *budgets, 1)


def noise_fixture(seed: int = 0):
    data = generate_synthetic(get_recipe("example10", seed=seed))
    pair = build_gram_pair(
        data,
        KernelSpec("linear"),
        KernelSpec("gaussian", median_heuristic(data.view_b)),
    )
    penalty = 0.45 * float(np.abs(data.view_a.T @ pair.k_b).max())
    return data, pair.k_b, penalty


class TestFitPrimalDual:
    def test_unpenalised_consistent_system_fits_exactly(self):
        rng = np.random.default_rng(5)
        x_a = rng.standard_normal((20, 30))
        k_b = rng.standard_normal((20, 20))
        k_b = k_b @ k_b.T
        res = fit_primal_dual(x_a, k_b, 0.0, 0.0, 4)
        assert res.objective <= 1e-6
        assert not res.degenerate

    def test_crushing_penalty_flags_degenerate(self):
        rng = np.random.default_rng(6)
        x_a = rng.standard_normal((15, 10))
        k_b = rng.standard_normal((15, 15))
        k_b = k_b @ k_b.T
        res = fit_primal_dual(x_a, k_b, 1e6, 1e6, 0)
        assert res.degenerate
        assert np.array_equal(res.w_a, np.zeros(10))
        assert res.correlation == 0.0

    def test_objective_monotone_and_constraints(self):
        data, k_b, penalty = noise_fixture()
        res = fit_primal_dual(data.view_a, k_b, penalty, penalty, 7)
        assert np.all(np.diff(res.objective_history) <= 1e-12)
        assert res.objective >= 0.0
        assert np.abs(res.beta).max() == 1.0
        assert res.beta[res.basis_index] == 1.0

    @pytest.mark.parametrize("case", ["9x1-gaussian-unpenalised", "12x5-linear-rank-deficient"])
    def test_tiny_inputs_converge_in_few_steps(self, case):
        """Views paired with themselves on which the coordinate-descent
        alternation crawled: hundreds of outer rounds, each inner lasso capped."""
        if case.startswith("9x1"):
            data, basis = paired_views(26, 9, 1, 1, True), 8
            k_b = center_gram(gram(data.view_b, KernelSpec("gaussian", median_heuristic(data.view_b))))
            mu = 0.0
        else:
            data, basis = paired_views(2, 12, 5, 5, True), 11
            k_b = center_gram(gram(data.view_b, KernelSpec("linear")))
            mu = 0.1 * float(np.abs(data.view_a.T @ k_b).max())
        for res in (fit_primal_dual(data.view_a, k_b, mu, mu, basis),
                    scan_basis(data.view_a, k_b, mu, mu)):
            assert res.converged
            assert kkt_violation(data.view_a, k_b, mu, mu, res) <= 1e-9
            assert res.n_iterations <= 30

    def test_validation(self):
        rng = np.random.default_rng(7)
        x_a = rng.standard_normal((10, 4))
        k_b = np.eye(10)
        with pytest.raises(ValueError, match="basis_index"):
            fit_primal_dual(x_a, k_b, 0.1, 0.1, 10)
        with pytest.raises(ValueError, match="nonnegative"):
            fit_primal_dual(x_a, k_b, -0.1, 0.1, 0)
        with pytest.raises(ValueError, match="row counts differ"):
            fit_primal_dual(x_a, np.eye(8), 0.1, 0.1, 0)
        shape_error = "expected a 2-d view and a square kernel matrix"
        with pytest.raises(ValueError, match=shape_error):
            fit_primal_dual(x_a[:, 0], k_b, 0.1, 0.1, 0)
        with pytest.raises(ValueError, match=shape_error):
            scan_basis(x_a, np.ones((10, 9)), 0.1, 0.1)
        with pytest.raises(ValueError, match=shape_error):
            scan_basis(x_a, np.ones(10), 0.1, 0.1)

    @pytest.mark.parametrize("mu, gamma", [(np.nan, 0.1), (0.1, np.nan), (np.inf, 0.1),
                                           (0.1, np.inf)])
    def test_non_finite_penalties_rejected(self, mu, gamma):
        rng = np.random.default_rng(7)
        x_a = rng.standard_normal((10, 4))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fit_primal_dual(x_a, np.eye(10), mu, gamma, 0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            scan_basis(x_a, np.eye(10), mu, gamma)


class TestScanBasis:
    def test_matches_exhaustive_scan_on_toy_instance(self):
        rng = np.random.default_rng(8)
        x_a = rng.standard_normal((3, 2))
        k_b = rng.standard_normal((3, 3))
        k_b = k_b @ k_b.T
        best = scan_basis(x_a, k_b, 0.05, 0.05)
        manual = [fit_primal_dual(x_a, k_b, 0.05, 0.05, k) for k in range(3)]
        objectives = [m.objective for m in manual]
        # a column's fit does not depend on how many columns run beside it
        assert best.objective == min(objectives)
        assert best.basis_index == int(np.argmin(objectives))
        assert_same_bits(best, manual[best.basis_index])

    def test_duplicated_observations_give_equal_objectives(self):
        rng = np.random.default_rng(9)
        view_a = rng.standard_normal((6, 4))
        view_a[1] = view_a[0]
        view_b = rng.standard_normal((6, 3))
        view_b[1] = view_b[0]
        pair = build_gram_pair(
            PairedDataset(view_a, view_b),
            KernelSpec("gaussian", 2.0),
            KernelSpec("gaussian", 2.0),
        )
        first = fit_primal_dual(view_a, pair.k_b, 0.1, 0.1, 0)
        second = fit_primal_dual(view_a, pair.k_b, 0.1, 0.1, 1)
        assert abs(first.objective - second.objective) <= 1e-8

    def test_noise_data_best_basis_properties(self):
        data, k_b, penalty = noise_fixture()
        best = scan_basis(data.view_a, k_b, penalty, penalty)
        assert 0.5 <= best.correlation < 1.0
        assert np.count_nonzero(best.w_a) <= 0.2 * data.p
        assert best.objective >= 0.0
        # self-consistency: re-running the winning basis alone reproduces its bits
        rerun = fit_primal_dual(data.view_a, k_b, penalty, penalty, best.basis_index)
        assert rerun.objective == best.objective
        assert np.array_equal(rerun.w_a, best.w_a)
        assert_same_bits(rerun, best)

    def test_all_failures_raise(self):
        # the objective overflows to NaN for every basis column
        x_a = np.random.default_rng(11).standard_normal((6, 3))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="every basis column failed"):
                scan_basis(x_a, 1e200 * np.eye(6), 0.1, 0.1)
            with pytest.raises(NumericalError, match="not finite"):
                fit_primal_dual(x_a, 1e200 * np.eye(6), 0.1, 0.1, 2)
        with pytest.raises(NumericalError, match="every basis column failed"):
            scan_basis(np.zeros((0, 3)), np.zeros((0, 0)), 0.1, 0.1)

    def test_empty_batch_runs_no_round(self):
        """A batch of no columns returns empty results without evaluating a
        round, and a scan of no columns has no finite objective."""
        x_a, k_b = np.zeros((0, 2)), np.zeros((0, 0))
        problem = sparse_module._stacked_problem(x_a, k_b, 0.1, 0.1)
        rounds = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "evaluate":
                rounds.append(frame.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            z, histories, violations, tols = sparse_module._fit_batch(*problem, [])
        finally:
            sys.setprofile(previous)
        assert rounds == []
        assert z.shape == (0, 2) and histories == []
        assert violations.shape == (0,) and tols.shape == (0,)
        with pytest.raises(NumericalError, match="every basis column failed"):
            scan_basis(x_a, k_b, 0.1, 0.1)

    def test_no_finite_step_stops_unconverged(self):
        """The entering column's squared norm, 1e-328, underflows to 0, so the
        line minimum is infinite, and a primal entry has no box to stop it."""
        x_a, k_b = np.array([[1e-164]]), np.array([[1e153]])
        reference, stop = scalar_active_set(x_a, k_b, 0.0, 0.0, 0)
        assert stop == "no finite step"
        for res in (fit_primal_dual(x_a, k_b, 0.0, 0.0, 0), scan_basis(x_a, k_b, 0.0, 0.0)):
            assert_same_bits(res, reference)
            assert not res.converged and res.n_iterations == 0
            assert res.kkt_violation == pytest.approx(2e-11, rel=1e-12)
            assert res.kkt_violation == pytest.approx(kkt_violation(x_a, k_b, 0.0, 0.0, res),
                                                      rel=1e-12)

    def test_no_descent_direction_stops_unconverged(self):
        """Two primal columns 1e-9 apart: once both are free their Gram block is
        singular at this precision, a step lands far uphill, and the next
        direction is no descent direction."""
        rng = np.random.default_rng(52)
        v = rng.standard_normal(5)
        x_a = np.column_stack([v, v + 1e-9 * rng.standard_normal(5)])
        k_b = center_gram(gram(rng.standard_normal((5, 2)), KernelSpec("linear")))
        reference, stop = scalar_active_set(x_a, k_b, 0.0, 1e6, 0)
        assert stop == "no descent"
        res = fit_primal_dual(x_a, k_b, 0.0, 1e6, 0)
        assert_same_bits(res, reference)
        assert not res.converged and res.n_iterations < sparse_module.PD_MAX_STEPS
        assert res.kkt_violation > 1.0
        assert res.kkt_violation == pytest.approx(kkt_violation(x_a, k_b, 0.0, 1e6, res),
                                                  rel=1e-6)

    def test_exactly_singular_free_block_stops_unconverged(self):
        """Two primal columns 1e-9 apart whose free block is exactly singular in
        floating point: a column whose solve is singular stops with no finite
        step instead of aborting the fit or the scan."""
        rng = np.random.default_rng(0)
        v, u = rng.standard_normal(8), rng.standard_normal(8)
        x_a = np.column_stack([v, v + 1e-9 * u])
        k_b = center_gram(gram(rng.standard_normal((8, 2)), KernelSpec("linear")))
        reference, stop = scalar_active_set(x_a, k_b, 0.0, 1e6, 0)
        assert stop == "no finite step"
        res = fit_primal_dual(x_a, k_b, 0.0, 1e6, 0)
        assert_same_bits(res, reference)
        assert not res.converged
        assert_batch_matches_scalar_solve(x_a, k_b, 0.0, 1e6)

    def test_singular_solve_in_a_group_stops_only_its_column(self, monkeypatch):
        """Here stacked solves hold singular blocks beside regular ones: each
        singular column stops with no finite step, and the others keep the
        bits of their own solves."""
        stacks_raised = []
        solve = np.linalg.solve

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                if a.ndim == 3 and a.shape[0] > 1:
                    stacks_raised.append(a.shape[0])
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        rng = np.random.default_rng(0)
        n = int(rng.integers(5, 12))
        v, u = rng.standard_normal(n), rng.standard_normal(n)
        x_a = np.column_stack([v, v + 1e-9 * u, rng.standard_normal((n, int(rng.integers(0, 3))))])
        k_b = center_gram(gram(rng.standard_normal((n, 2)), KernelSpec("linear")))
        stops = [scalar_active_set(x_a, k_b, 0.0, 1.0, j)[1] for j in range(n)]
        assert {"no finite step", "no descent"} <= set(stops)
        assert_batch_matches_scalar_solve(x_a, k_b, 0.0, 1.0)
        assert stacks_raised

    def test_step_cap_is_flagged(self, monkeypatch):
        data, k_b, penalty = noise_fixture()
        monkeypatch.setattr(sparse_module, "PD_MAX_STEPS", 3)
        capped = fit_primal_dual(data.view_a, k_b, penalty, penalty, 7)
        assert capped.n_iterations == 3 and len(capped.objective_history) == 4
        assert not capped.converged
        assert capped.kkt_violation == pytest.approx(kkt_violation(data.view_a, k_b, penalty,
                                                                   penalty, capped), rel=1e-9)
        assert capped.kkt_violation > 1e-3


def scalar_primal_dual(x_a, k_b, mu, gamma, basis_index, max_outer=1000, tol=1e-8):
    """The per-basis alternation in scalar coordinate loops, from its definition.

    A w-lasso on ``x_a``, then a lasso on the free dual entries of ``k_b``
    clipped to [-1, 1], with ``beta[basis_index]`` held at 1; each lasso runs
    cyclic sweeps until no coordinate moves by more than 1e-10 or 100 sweeps
    pass, and the rounds stop once the objective decreases by at most ``tol``.
    Returns ``(w, objective, correlation, rounds)``.
    """
    n, p = x_a.shape
    free = np.arange(n) != basis_index
    k_free, k_pinned = k_b[:, free], k_b[:, basis_index]

    def lasso(design, response, penalty, coef, box=None):
        coef = coef.copy()
        col_sq = np.einsum("ij,ij->j", design, design)
        resid = response - design @ coef
        for _ in range(100):
            max_delta = 0.0
            for j in range(coef.size):
                if col_sq[j] <= 0:
                    continue
                rho = design[:, j] @ resid + col_sq[j] * coef[j]
                new = np.sign(rho) * max(abs(rho) - penalty / 2.0, 0.0) / col_sq[j]
                if box is not None:
                    new = min(max(new, -box), box)
                if new != coef[j]:
                    resid += design[:, j] * (coef[j] - new)
                    max_delta = max(max_delta, abs(new - coef[j]))
                    coef[j] = new
            if max_delta <= 1e-10:
                break
        return coef

    def objective(w, b_free):
        fit = x_a @ w - (k_pinned + k_free @ b_free)
        return float(fit @ fit + mu * np.abs(w).sum() + gamma * np.abs(b_free).sum())

    w, b_free = np.zeros(p), np.zeros(n - 1)
    history = [objective(w, b_free)]
    for _ in range(max_outer):
        w = lasso(x_a, k_pinned + k_free @ b_free, mu, w)
        b_free = lasso(k_free, x_a @ w - k_pinned, gamma, b_free, box=1.0)
        history.append(objective(w, b_free))
        if history[-2] - history[-1] <= tol:
            break
    z_a, z_b = x_a @ w, k_pinned + k_free @ b_free
    norm_a, norm_b = np.linalg.norm(z_a), np.linalg.norm(z_b)
    correlation = float(z_a @ z_b / (norm_a * norm_b)) if norm_a > 0 and norm_b > 0 else 0.0
    return w, history[-1], correlation, len(history) - 1


def kkt_violation(x_a, k_b, mu, gamma, res) -> float:
    """Largest KKT violation of a primal-dual fit, from the definition.

    With ``g`` the gradient of ``||x_a w - k_b beta||^2`` in ``(w, beta)``:
    ``|g| - pen`` off the support, ``|g + pen sign|`` on it and ``g sign + pen``
    for a dual entry at the box; the pinned entry is exempt.
    """
    p = x_a.shape[1]
    fit = x_a @ res.w_a - k_b @ res.beta
    grad = 2.0 * np.concatenate([x_a.T @ fit, -(k_b.T @ fit)])
    z = np.concatenate([res.w_a, res.beta])
    pen, sign = np.repeat([mu, gamma], [p, k_b.shape[0]]), np.sign(z)
    viol = np.where(z == 0.0, np.abs(grad) - pen, np.abs(grad + pen * sign))
    viol[p:] = np.where(np.abs(res.beta) == 1.0, (grad * sign + pen)[p:], viol[p:])
    viol[p + res.basis_index] = -np.inf
    return max(float(viol.max()), 0.0)


def scalar_active_set(x_a, k_b, mu, gamma, basis_index):
    """The active-set solve of one basis column, one numpy call per product
    and per solve: the bit-for-bit reference of the lockstep solver.

    Returns the fit and the rule that stopped it: ``"kkt"``, ``"objective"``
    (not finite), ``"cap"`` (``PD_MAX_STEPS`` steps), ``"no descent"`` or
    ``"no finite step"``.
    """
    n, p = x_a.shape
    design = np.hstack([x_a, -k_b])
    gram_ = design.T @ design
    dim = design.shape[1]
    pin = p + basis_index
    lam = np.repeat([float(mu), float(gamma)], [p, n])
    lam[pin] = 0.0
    z, sign, free, at_box = np.zeros(dim), np.zeros(dim), [], np.zeros(dim, dtype=bool)
    z[pin] = 1.0
    tol = sparse_module.PD_KKT_RTOL * max(1.0, float(np.abs(np.delete(gram_[:, pin], pin)).max()))

    def evaluate():
        fit = design @ z
        grad = 2.0 * (design.T @ fit)
        viol = np.abs(grad) - lam
        viol[free] = np.abs(grad[free] + lam[free] * sign[free])
        viol[at_box] = grad[at_box] * sign[at_box] + lam[at_box]
        viol[pin] = -np.inf
        return float(fit @ fit + lam @ np.abs(z)), grad, viol

    objective, grad, viol = evaluate()
    history, stop = [objective], None
    while np.isfinite(objective) and len(history) <= sparse_module.PD_MAX_STEPS:
        enter = int(np.argmax(viol))
        if viol[enter] <= tol:
            stop = "kkt"
            break
        idx = np.array(free, dtype=int)
        try:
            if free and viol[idx].max() > tol:
                enter, sub = None, gram_[idx[:, None], idx]
                step = np.linalg.solve(sub, -0.5 * (grad[idx] + lam[idx] * sign[idx]))
            else:
                if at_box[enter]:
                    at_box[enter], direction = False, -sign[enter]
                else:
                    direction = sign[enter] = -np.sign(grad[enter])
                idx = np.append(idx, enter)
                sub = gram_[idx[:, None], idx]
                step = np.append(-direction * np.linalg.solve(sub[:-1, :-1], sub[:-1, -1]),
                                 direction)
        except np.linalg.LinAlgError:  # an exactly singular free block
            stop = "no finite step"
            break
        slope = float((grad[idx] + lam[idx] * sign[idx]) @ step)
        curvature = float(step @ sub @ step)
        if not slope < 0.0:
            stop = "no descent"
            break
        length = -slope / (2.0 * curvature) if curvature > 0.0 else np.inf
        z_idx = z[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            limits = np.concatenate([
                np.where(z_idx * step < 0.0, -z_idx / step, np.inf),
                np.where((idx >= p) & (z_idx * step >= 0.0) & (step != 0.0),
                         (1.0 - np.abs(z_idx)) / np.abs(step), np.inf),
            ])
        blocked = int(np.argmin(limits))
        length = min(length, float(limits[blocked]))
        if not np.isfinite(length):
            stop = "no finite step"
            break
        z[idx] += length * step
        if enter is not None:
            free.append(enter)
        if length == limits[blocked]:
            k = int(idx[blocked % idx.size])
            free.remove(k)
            z[k] = 0.0 if blocked < idx.size else sign[k]
            at_box[k] = blocked >= idx.size
        objective, grad, viol = evaluate()
        history.append(objective)
    if stop is None:
        stop = "cap" if np.isfinite(objective) else "objective"
    violation = max(float(viol.max()), 0.0)
    w, beta = z[:p].copy(), z[p:].copy()
    (correlation,) = unit_images(x_a @ w[:, None], k_b @ beta[:, None])[2]
    return PrimalDualResult(
        w_a=w, beta=beta, objective=objective, correlation=float(correlation),
        basis_index=int(basis_index), degenerate=not np.any(w),
        converged=bool(violation <= tol), n_iterations=len(history) - 1,
        objective_history=np.asarray(history), kkt_violation=violation,
    ), stop


def assert_same_bits(result, reference):
    """Every field of two primal-dual fits has the same type, shape and bits."""
    for field in dataclasses.fields(PrimalDualResult):
        got, want = getattr(result, field.name), getattr(reference, field.name)
        assert type(got) is type(want), field.name
        assert np.shape(got) == np.shape(want), field.name
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name


def assert_batch_matches_scalar_solve(x_a, k_b, mu, gamma):
    """Every column of the lockstep batch, the scan's winner and the pinned fit
    of the winning column carry the bits of the per-column reference."""
    references = [scalar_active_set(x_a, k_b, mu, gamma, j)[0] for j in range(k_b.shape[0])]
    problem = sparse_module._stacked_problem(x_a, k_b, mu, gamma)
    z, histories, violations, tols = sparse_module._fit_batch(*problem, range(k_b.shape[0]))
    for j, reference in enumerate(references):
        assert_same_bits(sparse_module._result(x_a, k_b, j, z[j], histories[j], violations[j],
                                               tols[j]), reference)
    best = scan_basis(x_a, k_b, mu, gamma)
    assert_same_bits(best, references[best.basis_index])
    assert_same_bits(fit_primal_dual(x_a, k_b, mu, gamma, best.basis_index),
                     references[best.basis_index])


def random_instance():
    rng = np.random.default_rng(1)
    x_a = rng.standard_normal((30, 20))
    view_b = rng.standard_normal((30, 4))
    k_b = build_gram_pair(
        PairedDataset(x_a, view_b),
        KernelSpec("linear"),
        KernelSpec("gaussian", median_heuristic(view_b)),
    ).k_b
    return x_a, k_b, 0.3 * float(np.abs(x_a.T @ k_b).max())


class TestMatchesScalarAlternation:
    """The exact active-set solve against the scalar coordinate-descent
    alternation it replaced.  The alternation stops short of the optimum, so
    each objective may lie below the reference, never above it beyond
    roundoff, and the exact solve carries its own KKT certificate."""

    @pytest.mark.parametrize("instance", ["example10", "random"])
    def test_every_basis_and_the_scan(self, instance):
        if instance == "example10":
            data, k_b, penalty = noise_fixture()
            x_a = data.view_a
        else:
            x_a, k_b, penalty = random_instance()
        reference = [
            scalar_primal_dual(x_a, k_b, penalty, penalty, k) for k in range(k_b.shape[0])
        ]
        for k, (_, objective, _, _) in enumerate(reference):
            res = fit_primal_dual(x_a, k_b, penalty, penalty, k)
            assert objective - 1e-7 <= res.objective <= objective + 1e-12
            assert res.converged
            assert kkt_violation(x_a, k_b, penalty, penalty, res) <= 1e-9
        best = scan_basis(x_a, k_b, penalty, penalty)
        assert best.basis_index == int(np.argmin([ref[1] for ref in reference]))
        assert best.converged and kkt_violation(x_a, k_b, penalty, penalty, best) <= 1e-9


def cli_default_problem(seed: int):
    """``pdscca --recipe example10`` inputs: standardized views, the centred
    median-width gaussian Gram of view b and the default penalty."""
    data = standardize(generate_synthetic(get_recipe("example10", seed=seed)))
    k_b = center_gram(gram(data.view_b, KernelSpec("gaussian", median_heuristic(data.view_b))))
    return data.view_a, k_b, 0.1 * float(np.abs(data.view_a.T @ k_b).max())


def test_default_penalty_scan_keeps_its_basis_on_example10():
    """The basis the coordinate-descent scan chose on data seeds 0-15."""
    chosen = []
    for seed in range(16):
        x_a, k_b, penalty = cli_default_problem(seed)
        chosen.append(scan_basis(x_a, k_b, penalty, penalty).basis_index)
    assert chosen == [23, 34, 43, 31, 5, 2, 15, 5, 37, 36, 45, 20, 43, 36, 8, 41]


@pytest.mark.parametrize("seed", range(16))
def test_lockstep_scan_matches_the_scalar_solve_on_example10(seed):
    x_a, k_b, penalty = cli_default_problem(seed)
    assert_batch_matches_scalar_solve(x_a, k_b, penalty, penalty)


def paired_views(seed: int, n: int, p: int, q: int, duplicate: bool) -> PairedDataset:
    """Standardized random views; with ``duplicate`` view b is a copy of view a
    (and has p columns)."""
    rng = np.random.default_rng(seed)
    view_a = rng.standard_normal((n, p))
    view_b = view_a.copy() if duplicate else rng.standard_normal((n, q))
    return standardize(PairedDataset(view_a, view_b))


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(4, 30),
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    duplicate=st.booleans(),
    budgets=st.tuples(st.floats(1.0, 3.0), st.floats(1.0, 3.0)),
    r=st.integers(1, 3),
)
@example(seed=0, n=20, dims=(3, 3), duplicate=True, budgets=(1.0, 1.0), r=3)
def test_pmd_fits_keep_their_invariants(seed, n, dims, duplicate, budgets, r):
    """Unit-norm weights within their 1-norm budgets, nonnegative scales, and
    image cosines in [-1, 1], also for a view paired with itself."""
    data = paired_views(seed, n, *dims, duplicate)
    try:
        res = fit_pmd(covariance_blocks(data).c_ab, *budgets, min(r, data.p, data.q))
    except NumericalError:  # tied largest entries above the budget, or nothing left
        return
    for w, budget in zip((res.w_a, res.w_b), budgets):
        assert np.abs(np.linalg.norm(w, axis=0) - 1.0).max() <= 1e-8
        assert np.abs(w).sum(axis=0).max() <= budget * (1 + 1e-12)
    assert np.all(res.sigmas >= 0.0)
    cosines = unit_images(data.view_a @ res.w_a, data.view_b @ res.w_b)[2]
    assert np.all(np.abs(cosines) <= 1.0)


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(4, 12),
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    duplicate=st.booleans(),
    gaussian=st.booleans(),
    penalties=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.01, 1.0))] * 2),
)
@example(seed=0, n=9, dims=(5, 5), duplicate=True, gaussian=False, penalties=(0.0, 0.0))
def test_primal_dual_fits_keep_their_invariants(seed, n, dims, duplicate, gaussian, penalties):
    """The pinned dual entry is 1 and no entry exceeds it, the objective is finite,
    nonnegative and never increases, the correlation lies in [-1, 1], and a fit is
    degenerate exactly when its primal weights are zero; the fit converges and
    its KKT certificate holds.  Every column, batched or alone, carries the bits
    of the per-column reference.
    """
    data = paired_views(seed, n, *dims, duplicate)
    spec = KernelSpec("gaussian", median_heuristic(data.view_b)) if gaussian else KernelSpec("linear")
    k_b = center_gram(gram(data.view_b, spec))
    scale = float(np.abs(data.view_a.T @ k_b).max())
    mu, gamma = (factor * scale for factor in penalties)
    for res in (scan_basis(data.view_a, k_b, mu, gamma),
                fit_primal_dual(data.view_a, k_b, mu, gamma, seed % n)):
        assert res.beta[res.basis_index] == 1.0 and np.abs(res.beta).max() <= 1.0
        history = res.objective_history
        assert np.all(np.isfinite(history)) and np.all(history >= 0.0)
        assert history[-1] == res.objective
        assert np.all(np.diff(history) <= 1e-12 * history[0])
        assert -1.0 <= res.correlation <= 1.0
        assert res.degenerate == (not np.any(res.w_a))
        assert res.converged and res.kkt_violation <= 1e-9
        assert kkt_violation(data.view_a, k_b, mu, gamma, res) <= 1e-9
    # every column's first step enters with an empty free set (a 0 x 0
    # solve) and a second entry solves k = 1 systems
    assert_batch_matches_scalar_solve(data.view_a, k_b, mu, gamma)
    pinned = fit_primal_dual(data.view_a, k_b, mu, gamma, seed % n)
    assert_same_bits(pinned, scalar_active_set(data.view_a, k_b, mu, gamma, seed % n)[0])
