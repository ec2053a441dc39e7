"""Acceptance gate: every headline behaviour of the library pinned at its
stated tolerance.

Each test here is an end-to-end check of one promise: solver agreement,
synthetic-recipe reproduction, oracle comparisons, statistical thresholds,
regularised and kernel and sparse variants, and the cross-cutting invariant
suite.  Timing bounds are asserted where a behaviour is only useful if it is
also cheap.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from cancorr import (
    KernelSpec,
    PairedDataset,
    RegularizationConfig,
    bartlett_lawley,
    build_gram_pair,
    center_gram,
    chi2_quantile,
    covariance_blocks,
    cross_validate,
    fit_generalized_eig,
    fit_kernel_cca,
    fit_kernel_cca_pgso,
    fit_pmd,
    fit_primal_dual,
    fit_regularized,
    fit_standard_eig,
    fit_svd,
    gen_eig_sym,
    generate_synthetic,
    get_recipe,
    gram,
    image_relation_table,
    median_heuristic,
    project,
    relation_signals,
    scan_basis,
    sequential_test,
    soft_threshold,
    sparse_unit_solve,
    standardize,
    take_rows,
)
from cancorr.numerics import NumericalError
from tests.conftest import one_dominant


def random_standardized(seed: int, n: int, p: int, q: int) -> PairedDataset:
    rng = np.random.default_rng(seed)
    return standardize(
        PairedDataset(rng.standard_normal((n, p)), rng.standard_normal((n, q)))
    )


def sign_tolerant_dev(w: np.ndarray, ref: np.ndarray) -> float:
    return max(
        min(np.abs(w[:, j] - f * ref[:, j]).max() for f in (1.0, -1.0))
        for j in range(ref.shape[1])
    )


def pair_relation_table(model, signals: dict[str, np.ndarray]) -> np.ndarray:
    """|corr| of each planted signal with each image pair (summed pair image)."""
    return image_relation_table(model.z_a + model.z_b, signals).absolute


class TestSolverTriangle:
    def test_three_solvers_agree_on_random_data(self):
        started = time.perf_counter()
        for i in range(50):
            data = random_standardized(1000 + i, 200, 6, 4)
            reference = fit_svd(data)
            for fit in (fit_standard_eig, fit_generalized_eig):
                model = fit(data)
                assert np.abs(model.correlations - reference.correlations).max() <= 1e-6
                assert sign_tolerant_dev(model.w_a, reference.w_a) <= 1e-5
                assert sign_tolerant_dev(model.w_b, reference.w_b) <= 1e-5
        assert time.perf_counter() - started < 5.0


class TestPlantedRecipeReproduction:
    def test_mean_correlations_match_published_values(self):
        started = time.perf_counter()
        corrs = []
        for seed in range(20):
            data = standardize(generate_synthetic(get_recipe("example1", seed=seed)))
            corrs.append(fit_svd(data).correlations)
        mean = np.mean(corrs, axis=0)
        assert np.abs(mean - (0.99, 0.94, 0.92)).max() <= 0.03
        assert time.perf_counter() - started < 5.0


class TestGridSearchOracle:
    def test_first_correlation_matches_dense_angle_grid(self):
        started = time.perf_counter()
        for i in range(10):
            data = random_standardized(2000 + i, 20, 2, 2)
            rho = fit_svd(data).correlations[0]
            thetas = np.arange(0.0, np.pi, 0.001)
            dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
            z_a = data.view_a @ dirs.T
            z_b = data.view_b @ dirs.T
            z_a /= np.linalg.norm(z_a, axis=0)
            z_b /= np.linalg.norm(z_b, axis=0)
            assert abs(rho - np.abs(z_a.T @ z_b).max()) <= 1e-3
        assert time.perf_counter() - started < 30.0


class TestPencilSpectrum:
    def test_sign_symmetric_spectrum_with_zero_padding(self):
        data = standardize(generate_synthetic(get_recipe("example1", seed=0)))
        blocks = covariance_blocks(data)
        p, q = blocks.p, blocks.q
        a = np.zeros((p + q, p + q))
        a[:p, p:] = blocks.c_ab
        a[p:, :p] = blocks.c_ba
        b = np.zeros((p + q, p + q))
        b[:p, :p] = blocks.c_aa
        b[p:, p:] = blocks.c_bb
        values = gen_eig_sym(a, b).values
        assert np.abs(values + values[::-1]).max() <= 1e-6
        assert np.abs(values[min(p, q):max(p, q)]).max() <= 1e-6
        rho = fit_standard_eig(data).correlations
        assert np.abs(values[:3] - rho).max() <= 1e-6


class TestSequentialSignificance:
    def test_chi_squared_thresholds(self):
        for df, expected in ((12, 26.22), (6, 16.81), (2, 9.21)):
            assert abs(chi2_quantile(0.99, df) - expected) <= 0.05

    def test_three_components_detected_on_almost_all_seeds(self):
        count = 0
        for seed in range(20):
            data = standardize(generate_synthetic(get_recipe("example1", seed=seed)))
            model = fit_svd(data)
            report = sequential_test(
                model.correlations, n=data.n, p=4, q=3, alpha=0.01, clamp_perfect=True
            )
            count += report.n_significant == 3
        assert count >= 19

    def test_statistic_matches_hand_evaluation(self):
        stat0 = bartlett_lawley([0.99, 0.94, 0.92], 60, 4, 3, 0)
        expected0 = -56.0 * np.log((1 - 0.99**2) * (1 - 0.94**2) * (1 - 0.92**2))
        assert abs(stat0 - expected0) <= 1e-6
        stat1 = bartlett_lawley([0.99, 0.94, 0.92], 60, 4, 3, 1)
        expected1 = -(60 - 1 - 4 + 0.99**-2) * np.log((1 - 0.94**2) * (1 - 0.92**2))
        assert abs(stat1 - expected1) <= 1e-6
        # the once-published value 296.82 for this configuration is not what the
        # formula yields; the hand evaluation above is the authority
        assert abs(stat0 - 296.82) > 100.0


class TestHeldOutGeneralization:
    @staticmethod
    def _split_correlations(seed: int) -> np.ndarray:
        data = generate_synthetic(get_recipe("example1", seed=seed, n=100))
        train = standardize(take_rows(data, np.arange(60)))
        test = train.scaler.apply(take_rows(data, np.arange(60, 100)))
        return project(fit_svd(train), test).correlations

    def test_all_three_test_correlations_reach_095_on_most_seeds(self):
        # example1 plants b = +-a + noise_std * xi with unit-variance a and xi,
        # so its population canonical correlations are 1/sqrt(1 + noise_std^2)
        # = 0.981, 0.958, 0.928: the third lies below 0.95 however well the
        # model is fit, and the true directions themselves reach min >= 0.95
        # on only 1/20 of these seeds.  Each component is therefore held to
        # the 99% Fisher-z lower bound of its own population value on 40 test
        # rows, tanh(atanh(rho_j) - 2.576 / sqrt(40 - 3)) = 0.955, 0.904,
        # 0.841; the first is still held above 0.95.
        relations = get_recipe("example1").relations
        assert all(rel.transform in ("identity", "negate") for rel in relations)
        rho = np.sort([1.0 / np.hypot(1.0, rel.noise_std) for rel in relations])[::-1]
        lower = np.tanh(np.arctanh(rho) - 2.576 / np.sqrt(40 - 3))
        count = sum(
            (self._split_correlations(seed) >= lower).all() for seed in range(20)
        )
        assert count >= 18

    def test_all_three_test_correlations_reach_09_on_most_seeds(self):
        count = sum(
            self._split_correlations(seed).min() >= 0.9 for seed in range(20)
        )
        assert count >= 16


class TestRidgeRegularization:
    def test_wide_view_requires_ridge_and_cv_selects_moderate_one(self):
        started = time.perf_counter()
        data = standardize(generate_synthetic(get_recipe("example6", seed=0)))
        with pytest.raises(NumericalError, match="singular"):
            fit_standard_eig(data)
        for seed in range(20):
            d = standardize(generate_synthetic(get_recipe("example6", seed=seed)))
            model = fit_regularized(d, 0.09, 0.0, r=3)
            assert model.correlations[:3].min() >= 0.98
        grid = tuple(np.logspace(-3.0, 3.0, 15))
        config = RegularizationConfig(
            c1_grid=grid, c2_grid=grid, n_folds=5, repetitions=10, seed=7
        )
        surface = cross_validate(data, config)
        assert 0.01 <= surface.selected_c1 <= 0.5
        assert time.perf_counter() - started < 180.0


class TestKernelFit:
    def test_widths_correlations_and_relation_pattern(self):
        started = time.perf_counter()
        widths_a, widths_b, corrs, pattern_hits = [], [], [], 0
        for seed in range(20):
            recipe = get_recipe("example7", seed=seed)
            data = standardize(generate_synthetic(recipe))
            w_a = median_heuristic(data.view_a)
            w_b = median_heuristic(data.view_b)
            widths_a.append(w_a)
            widths_b.append(w_b)
            pair = build_gram_pair(
                data, KernelSpec("gaussian", w_a), KernelSpec("gaussian", w_b)
            )
            model = fit_kernel_cca(pair, 1.5, 0.6, 3)
            corrs.append(model.correlations)
            table = pair_relation_table(model, relation_signals(recipe, data))
            pattern_hits += one_dominant(table, 0.7)
        assert abs(np.mean(widths_a) - 3.53) <= 0.15
        assert abs(np.mean(widths_b) - 3.62) <= 0.15
        assert np.abs(np.mean(corrs, axis=0) - (0.95, 0.89, 0.87)).max() <= 0.05
        assert pattern_hits >= 16
        assert time.perf_counter() - started < 60.0


class TestReducedKernelRoute:
    def test_large_sample_fit_recovers_planted_relations(self):
        started = time.perf_counter()
        for seed in (0, 1, 2):
            recipe = get_recipe("example8", seed=seed, n=2000)
            data = standardize(generate_synthetic(recipe))
            pair = build_gram_pair(
                data,
                KernelSpec("gaussian", median_heuristic(data.view_a)),
                KernelSpec("gaussian", median_heuristic(data.view_b)),
            )
            model = fit_kernel_cca_pgso(pair, kappa=0.5, r=3)
            assert model.correlations.min() >= 0.9
            table = pair_relation_table(model, relation_signals(recipe, data))
            assert one_dominant(table, 0.7)
        assert time.perf_counter() - started < 180.0

    def test_reduced_route_matches_direct_solve(self):
        for seed in (0, 1):
            data = standardize(generate_synthetic(get_recipe("example8", seed=seed, n=100)))
            pair = build_gram_pair(
                data,
                KernelSpec("gaussian", median_heuristic(data.view_a)),
                KernelSpec("gaussian", median_heuristic(data.view_b)),
            )
            direct = fit_kernel_cca(pair, 0.05, 0.05, 3)
            reduced = fit_kernel_cca_pgso(pair, kappa=0.1, eta=0.0, r=3)
            assert np.abs(direct.correlations - reduced.correlations).max() <= 0.05


class TestSparseDecomposition:
    def test_planted_pairs_recovered_on_most_seeds(self):
        hits = 0
        for seed in range(20):
            data = standardize(generate_synthetic(get_recipe("example9", seed=seed)))
            result = fit_pmd(covariance_blocks(data).c_ab, 1.2, 1.2, 3)
            pairs = {
                (int(np.abs(result.w_a[:, j]).argmax()), int(np.abs(result.w_b[:, j]).argmax()))
                for j in range(3)
            }
            corrs = []
            for j in range(3):
                z_a = data.view_a @ result.w_a[:, j]
                z_b = data.view_b @ result.w_b[:, j]
                corrs.append(abs(z_a @ z_b) / (np.linalg.norm(z_a) * np.linalg.norm(z_b)))
            hits += pairs == {(2, 0), (0, 1), (3, 2)} and min(corrs) >= 0.85
        assert hits >= 16

    def test_sparse_unit_solve_matches_dense_delta_grid(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal(20)
            u = sparse_unit_solve(a, 2.5)
            best, best_gap = None, np.inf
            for delta in np.arange(0.0, np.abs(a).max(), 1e-4):
                s = soft_threshold(a, delta)
                norm = np.linalg.norm(s)
                if norm == 0:
                    continue
                cand = s / norm
                l1 = np.abs(cand).sum()
                if l1 <= 2.5 + 1e-12 and 2.5 - l1 < best_gap:
                    best, best_gap = cand, 2.5 - l1
            assert np.abs(u - best).max() <= 1e-3


class TestPrimalDualSparse:
    @staticmethod
    def _fixture():
        data = generate_synthetic(get_recipe("example10", seed=0))
        pair = build_gram_pair(
            data,
            KernelSpec("linear"),
            KernelSpec("gaussian", median_heuristic(data.view_b)),
        )
        penalty = 0.45 * float(np.abs(data.view_a.T @ pair.k_b).max())
        return data, pair.k_b, penalty

    def test_objective_and_constraints(self):
        data, k_b, penalty = self._fixture()
        best = scan_basis(data.view_a, k_b, penalty, penalty)
        result = fit_primal_dual(data.view_a, k_b, penalty, penalty, best.basis_index)
        history = np.asarray(result.objective_history)
        assert np.all(np.diff(history) <= 1e-9)
        assert result.objective >= -1e-12
        assert abs(np.abs(result.beta).max() - 1.0) <= 1e-12
        assert abs(result.beta[result.basis_index]) == pytest.approx(1.0, abs=1e-12)

    def test_scan_returns_verified_minimum(self):
        data, k_b, penalty = self._fixture()
        best = scan_basis(data.view_a, k_b, penalty, penalty)
        serial_best = None
        for k in range(k_b.shape[0]):
            try:
                cand = fit_primal_dual(data.view_a, k_b, penalty, penalty, k)
            except NumericalError:
                continue
            if serial_best is None or cand.objective < serial_best.objective:
                serial_best = cand
        assert best.basis_index == serial_best.basis_index
        assert best.objective == pytest.approx(serial_best.objective, abs=1e-12)

    def test_best_basis_is_sparse_and_correlated(self):
        data, k_b, penalty = self._fixture()
        best = scan_basis(data.view_a, k_b, penalty, penalty)
        assert 0.5 <= best.correlation < 1.0
        assert np.count_nonzero(best.w_a) <= 0.2 * data.p


class TestInvariantSuite:
    def test_centered_gram_rows_sum_to_zero(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((40, 5))
            k = center_gram(gram(x, KernelSpec("gaussian", 2.0)))
            assert np.abs(k.sum(axis=0)).max() <= 1e-8
            assert np.abs(k.sum(axis=1)).max() <= 1e-8

    def test_soft_threshold_is_non_expansive(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal(1000) * 3
        b = rng.standard_normal(1000) * 3
        c = np.abs(rng.standard_normal(1000))
        for ai, bi, ci in zip(a, b, c):
            lhs = abs(soft_threshold(np.array([ai]), ci)[0]
                      - soft_threshold(np.array([bi]), ci)[0])
            assert lhs <= abs(ai - bi) + 1e-15

    def test_linear_images_are_orthogonal(self):
        for seed in (0, 1, 2, 3, 4):
            data = random_standardized(3000 + seed, 80, 5, 4)
            model = fit_svd(data)
            for z in (model.z_a, model.z_b):
                off = z.T @ z - np.eye(z.shape[1])
                assert np.abs(off).max() <= 1e-6

    def test_kernel_images_are_orthogonal(self):
        data = random_standardized(7, 60, 4, 3)
        pair = build_gram_pair(data, KernelSpec("linear"), KernelSpec("linear"))
        model = fit_kernel_cca(pair, 1e-3, 1e-3, 3)
        for z in (model.z_a, model.z_b):
            off = z.T @ z - np.eye(z.shape[1])
            assert np.abs(off).max() <= 1e-4

    def test_correlations_invariant_under_affine_maps(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(4000 + seed)
            raw_a = rng.standard_normal((60, 4))
            raw_b = 0.5 * raw_a[:, :3] + 0.5 * rng.standard_normal((60, 3))
            base = standardize(PairedDataset(raw_a, raw_b))
            rho = fit_svd(base).correlations
            m_a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
            m_b = rng.standard_normal((3, 3)) + 4 * np.eye(3)
            mapped = standardize(
                PairedDataset(raw_a @ m_a + rng.standard_normal(4),
                              raw_b @ m_b + rng.standard_normal(3))
            )
            assert np.abs(fit_svd(mapped).correlations - rho).max() <= 1e-6

    def test_cli_reports_are_byte_identical_per_seed(self, tmp_path):
        from cancorr.cli import main

        argv = ["fit", "--recipe", "example1", "--seed", "11", "--out", str(tmp_path)]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
        assert first == second
