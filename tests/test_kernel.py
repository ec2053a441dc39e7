"""Kernel CCA: Gram construction, centering, widths, both solver routes, relation tables."""

import csv
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh
from scipy.spatial.distance import cdist, pdist, squareform

from cancorr import (
    GramPair,
    KernelSpec,
    NumericalError,
    PairedDataset,
    build_gram_pair,
    center_gram,
    fit_kernel_cca,
    fit_kernel_cca_pgso,
    fit_regularized,
    fit_svd,
    gen_eig_sym,
    generate_synthetic,
    get_recipe,
    gram,
    image_relation_table,
    median_heuristic,
    standardize,
)
from cancorr import kernel as kernel_module
from cancorr.dataset import relation_signals
from cancorr.kernel import KernelCcaModel, _assemble_kernel_model, _ridged_inverse
from cancorr.numerics import (
    LANCZOS_MIN_ROWS, SYM_RTOL, SvdResult, check_symmetric, fix_signs, lead_signs,
    partial_gram_schmidt, top_svd, well_conditioned,
)
from tests.conftest import one_dominant, traced_peak, weak_second_relation
from tests.test_numerics import dense_top_svd, scalar_partial_gram_schmidt


# Every recipe at desk scale (example8 cut to 1500 rows), for the distance gates.
EVERY_RECIPE = [("example1", None), ("example6", None), ("example7", None),
                ("example8", 1500), ("example9", None), ("example10", None)]


def gaussian_pair(data: PairedDataset) -> GramPair:
    return build_gram_pair(
        data,
        KernelSpec("gaussian", median_heuristic(data.view_a)),
        KernelSpec("gaussian", median_heuristic(data.view_b)),
    )


def pencil_kernel_fit(pair: GramPair, c1: float, c2: float, r: int):
    """Reference solve: the symmetric 2n pencil ``A v = rho B v`` with
    ``A = [[0, Ka Kb], [Kb Ka, 0]]``, ``B = blkdiag((Ka + c1 I)^2, (Kb + c2 I)^2)``.

    Returns the sorted image cosines and the signed unit-norm images, with the
    duals taken from the pencil's sign-fixed eigenvectors.
    """
    n = pair.n
    cross = pair.k_a @ pair.k_b
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = cross
    a[n:, :n] = cross.T
    b = np.zeros((2 * n, 2 * n))
    for block, k, c in ((slice(0, n), pair.k_a, c1), (slice(n, 2 * n), pair.k_b, c2)):
        ridged = k + c * np.eye(n)
        square = ridged @ ridged
        b[block, block] = (square + square.T) / 2.0
    vectors = gen_eig_sym(a, b).vectors[:, :r]
    z_a = pair.k_a @ vectors[:n]
    z_b = pair.k_b @ vectors[n:]
    z_a = z_a / np.linalg.norm(z_a, axis=0)
    z_b = z_b / np.linalg.norm(z_b, axis=0)
    corr = np.einsum("ij,ij->j", z_a, z_b)
    z_b = z_b * np.sign(corr)
    order = np.argsort(-np.abs(corr), kind="stable")
    return np.abs(corr)[order], z_a[:, order], z_b[:, order]


def eigenbasis_kernel_fit(pair: GramPair, c1: float, c2: float, r: int) -> KernelCcaModel:
    """Reference direct solve through both Grams' full eigendecompositions.

    With ``K = U diag(l) U.T`` per view, the pencil's positive eigenvalues are
    the singular values ``S`` of
    ``diag(l_a / (l_a + c1)) U_a.T U_b diag(l_b / (l_b + c2)) = P S Q^T``, and
    ``alpha = U_a diag(1 / (l_a + c1)) P``, ``beta = U_b diag(1 / (l_b + c2)) Q``
    are signed as the pencil's stacked eigenvectors.
    """
    values_a, vectors_a = scipy.linalg.eigh(pair.k_a)
    values_b, vectors_b = scipy.linalg.eigh(pair.k_b)
    ridged_a = values_a + c1
    ridged_b = values_b + c2
    res = top_svd(
        (values_a / ridged_a)[:, None] * (vectors_a.T @ vectors_b) * (values_b / ridged_b), r
    )
    alpha = vectors_a @ (res.u / ridged_a[:, None])
    beta = vectors_b @ (res.v / ridged_b[:, None])
    duals = fix_signs(np.vstack([alpha, beta]))
    return _assemble_kernel_model(
        pair, duals[: pair.n], duals[pair.n:], "kernel_pencil", {"c1": c1, "c2": c2}
    )


def pgso_loop_fit(pair: GramPair, kappa: float, r: int):
    """Reference reduced route: factors from the per-pivot loop at the default
    ``eta`` and a full eigendecomposition of the reduced problem
    ``h = inv(S) D_ab inv(D_bb + kappa I) D_ba inv(S).T``.

    Returns the sorted image cosines and the signed unit-norm images, with the
    duals taken from the sign-fixed eigenvectors of ``h``.
    """
    r_a, _ = scalar_partial_gram_schmidt(pair.k_a, 1e-6 * np.trace(pair.k_a))
    r_b, _ = scalar_partial_gram_schmidt(pair.k_b, 1e-6 * np.trace(pair.k_b))
    d_ab = r_a.T @ r_b
    d_bb = r_b.T @ r_b
    s = scipy.linalg.cholesky(r_a.T @ r_a, lower=True)
    bb_ridged = scipy.linalg.cho_factor(d_bb + kappa * np.eye(d_bb.shape[0]), lower=True)
    bb_plain = scipy.linalg.cho_factor(d_bb, lower=True)
    t = scipy.linalg.solve_triangular(s, d_ab, lower=True)
    h = t @ scipy.linalg.cho_solve(bb_ridged, t.T)
    _, vectors = scipy.linalg.eigh((h + h.T) / 2.0)
    alpha_red = scipy.linalg.solve_triangular(
        s, fix_signs(vectors[:, ::-1][:, :r]), lower=True, trans="T"
    )
    alpha = r_a @ scipy.linalg.cho_solve((s, True), alpha_red)
    beta_red = scipy.linalg.cho_solve(bb_plain, d_ab.T @ alpha_red)
    beta = r_b @ scipy.linalg.cho_solve(bb_plain, beta_red)
    z_a = pair.k_a @ alpha
    z_b = pair.k_b @ beta
    z_a = z_a / np.linalg.norm(z_a, axis=0)
    z_b = z_b / np.linalg.norm(z_b, axis=0)
    corr = np.einsum("ij,ij->j", z_a, z_b)
    z_b = z_b * np.sign(corr)
    order = np.argsort(-np.abs(corr), kind="stable")
    return np.abs(corr)[order], z_a[:, order], z_b[:, order]


def condensed_gram(x, spec: KernelSpec) -> np.ndarray:
    """Reference gaussian Gram: the condensed ``pdist`` vector negated, divided
    and exponentiated in place, expanded by ``squareform``, diagonal set to 1."""
    d = pdist(np.asarray(x, dtype=float), "sqeuclidean")
    np.negative(d, out=d)
    d /= 2.0 * spec.width**2
    k = squareform(np.exp(d, out=d))
    np.fill_diagonal(k, 1.0)
    return k


def example8_pair(seed: int, n: int) -> GramPair:
    return gaussian_pair(standardize(generate_synthetic(get_recipe("example8", seed=seed, n=n))))


def three_temporary_center_gram(k: np.ndarray) -> np.ndarray:
    """Reference centering: column, row and grand means through full-size temporaries."""
    return k - k.mean(axis=0)[None, :] - k.mean(axis=1)[:, None] + k.mean()


def tril_partial_gram_schmidt(k: np.ndarray, eta: float) -> np.ndarray:
    """Reference factorisation: ``dpstrf`` with its leftover upper triangle
    cleared by an ``np.tril`` copy of the kept columns."""
    n = k.shape[0]
    d = np.diag(k).copy()
    c, piv, rank, _ = scipy.linalg.lapack.dpstrf(
        np.array(k, order="F"), tol=1e-12 * max(float(d.max()), 1.0), lower=1, overwrite_a=1
    )
    factor = np.tril(c[:, :rank])
    residual_trace = float(d.sum()) - np.concatenate(
        [[0.0], np.cumsum(np.einsum("ij,ij->j", factor, factor))]
    )
    cols = int(np.argmax(residual_trace <= eta)) if residual_trace[-1] <= eta else rank
    r = np.empty((n, cols))
    r[piv - 1] = factor[:, :cols]
    return r


def copying_top_svd(m: np.ndarray, r: int) -> SvdResult:
    """Reference ``top_svd``: the same eigensolve works on a copy of ``m @ m.T``.

    The Lanczos solve gets an F-order copy, the layout ``top_svd`` passes it:
    ARPACK's products with the Gram round differently in each layout.
    """
    rows = m.shape[0]
    if rows >= LANCZOS_MIN_ROWS and 8 * r <= rows:
        start = np.random.default_rng(0).standard_normal(rows)
        _, q = eigsh(np.array(m @ m.T, order="F"), k=r, which="LA", tol=0, v0=start)
    else:
        _, q = scipy.linalg.eigh(m @ m.T, subset_by_index=[rows - r, rows - 1])
    p, s, vh = np.linalg.svd(q.T @ m, full_matrices=False)
    signs = lead_signs(q @ p)
    return SvdResult(q @ p * signs, s, vh.T * signs)


def copying_kernel_fit(pair: GramPair, c1: float, c2: float, r: int) -> KernelCcaModel:
    """Reference direct solve with full-size temporaries: the inverses mirrored
    through ``np.tril``, and ``I - c inv`` formed from ``np.eye``."""

    def ridged_inverse(k, c):
        work = np.array(k, order="F")
        work[np.diag_indices_from(work)] += c
        factor, _ = scipy.linalg.lapack.dpotrf(work, lower=1, overwrite_a=1)
        inverse, _ = scipy.linalg.lapack.dpotri(factor, lower=1, overwrite_c=1)
        inverse += np.tril(inverse, -1).T
        return inverse

    inverse_a = ridged_inverse(pair.k_a, c1)
    inverse_b = ridged_inverse(pair.k_b, c2)
    eye = np.eye(pair.n)
    res = copying_top_svd((eye - c1 * inverse_a) @ (eye - c2 * inverse_b), r)
    duals = fix_signs(np.vstack([inverse_a @ res.u, inverse_b @ res.v]))
    return _assemble_kernel_model(
        pair, duals[: pair.n], duals[pair.n:], "kernel_pencil", {"c1": c1, "c2": c2}
    )


def copying_pgso_fit(pair: GramPair, kappa: float, r: int) -> KernelCcaModel:
    """Reference reduced solve at the default ``eta`` with every reduced block
    kept: ``D_ab``, ``D_bb``, a ridged copy from ``np.eye``, three Cholesky
    copies and the whitening solves' intermediates."""
    r_a = partial_gram_schmidt(pair.k_a, 1e-6 * np.trace(pair.k_a))
    r_b = partial_gram_schmidt(pair.k_b, 1e-6 * np.trace(pair.k_b))
    d_ab = r_a.T @ r_b
    d_bb = r_b.T @ r_b
    s = scipy.linalg.cholesky(r_a.T @ r_a, lower=True)
    l_b = scipy.linalg.cholesky(d_bb + kappa * np.eye(d_bb.shape[0]), lower=True)
    bb_plain = scipy.linalg.cho_factor(d_bb, lower=True)
    t = scipy.linalg.solve_triangular(s, d_ab, lower=True)
    res = copying_top_svd(scipy.linalg.solve_triangular(l_b, t.T, lower=True).T, r)
    alpha_red = scipy.linalg.solve_triangular(s, res.u, lower=True, trans="T")
    beta_red = scipy.linalg.cho_solve(bb_plain, d_ab.T @ alpha_red) / res.s
    alpha = r_a @ scipy.linalg.cho_solve((s, True), alpha_red)
    beta = r_b @ scipy.linalg.cho_solve(bb_plain, beta_red)
    return _assemble_kernel_model(pair, alpha, beta, "kernel_pgso", {"kappa": kappa})


def linear_pair_60x3() -> tuple[PairedDataset, GramPair]:
    """Three standardized variables per view, one planted relation; its linear
    Grams have rank 3 in n = 60."""
    rng = np.random.default_rng(3)
    view_a = rng.standard_normal((60, 3))
    view_b = rng.standard_normal((60, 3))
    view_b[:, 0] = view_a[:, 1] + 0.4 * rng.standard_normal(60)
    data = standardize(PairedDataset(view_a, view_b))
    return data, build_gram_pair(data, KernelSpec("linear"), KernelSpec("linear"))


def linear_pair_rank3(n: int) -> GramPair:
    """Linear Grams of three standardized variables per view, rank 3 in n rows."""
    rng = np.random.default_rng(12)
    view_a = rng.standard_normal((n, 3))
    view_b = view_a + rng.standard_normal((n, 3))
    data = standardize(PairedDataset(view_a, view_b))
    return build_gram_pair(data, KernelSpec("linear"), KernelSpec("linear"))


def linear_pair_sharing_three(n: int, width: int) -> GramPair:
    """Linear Grams of two ``width``-dimensional orthonormal views of n centred
    rows that share exactly three directions: their reduced cross block has
    rank 3 while each factor keeps ``width`` columns."""
    rng = np.random.default_rng(13)
    draws = rng.standard_normal((n, 2 * width - 3))
    basis, _ = np.linalg.qr(draws - draws.mean(axis=0))
    view_a = basis[:, :width]
    view_b = np.hstack([basis[:, :3], basis[:, width:]])
    return GramPair(view_a @ view_a.T, view_b @ view_b.T,
                    KernelSpec("linear"), KernelSpec("linear"))


class TestKernelSpec:
    def test_rejects_unknown_kind_and_bad_width(self):
        with pytest.raises(ValueError, match="unknown kernel kind"):
            KernelSpec("polynomial", 2.0)
        for width in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive finite width"):
                KernelSpec("gaussian", width)
        KernelSpec("linear")  # no width needed

    def test_none_resolves_to_the_median_width(self):
        x = standardize(generate_synthetic(get_recipe("example7", seed=0))).view_a
        k, spec = kernel_module._gram(x, KernelSpec("gaussian"))
        assert spec == KernelSpec("gaussian", median_heuristic(x))
        assert np.array_equal(k, gram(x, spec))
        assert np.array_equal(gram(x, KernelSpec("gaussian")), k)
        # the median heuristic's refusals, raised before any Gram is built
        for bad, message in ((np.ones((1, 2)), "at least two rows"),
                             (np.array([[0.0], [np.nan], [1.0]]), "finite observations"),
                             (np.ones((4, 2)), "identical")):
            with pytest.raises(ValueError, match=message):
                gram(bad, KernelSpec("gaussian"))

    def test_rejects_a_width_whose_square_underflows(self):
        # 2 width^2 would be 0, and the gram's diagonal 0 / 0
        for width in (1e-162, 1e-200, 5e-324):
            with pytest.raises(ValueError, match=r"positive finite width \(2 width\^2 > 0\)"):
                KernelSpec("gaussian", width)
        k = gram(np.ones((3, 2)), KernelSpec("gaussian", 1e-161))
        assert np.array_equal(k, np.ones((3, 3)))


class TestGram:
    def test_gaussian_unit_diagonal(self):
        rng = np.random.default_rng(0)
        k = gram(rng.standard_normal((15, 3)), KernelSpec("gaussian", 2.0))
        assert np.array_equal(np.diag(k), np.ones(15))
        assert np.all(k <= 1.0)
        assert np.all(k > 0.0)

    def test_gaussian_wide_width_saturates(self):
        rng = np.random.default_rng(1)
        k = gram(rng.standard_normal((10, 3)), KernelSpec("gaussian", 1e6))
        assert np.abs(k - 1.0).max() <= 1e-6

    def test_gaussian_hand_value(self):
        x = np.array([[0.0], [2.0]])
        k = gram(x, KernelSpec("gaussian", 1.0))
        assert abs(k[0, 1] - np.exp(-2.0)) <= 1e-15

    def test_gaussian_matches_the_full_square_formula(self):
        for name, n in (("example7", None), ("example8", 500)):
            data = standardize(generate_synthetic(get_recipe(name, seed=0, n=n)))
            for x in (data.view_a, data.view_b):
                width = median_heuristic(x)
                k = gram(x, KernelSpec("gaussian", width))
                expected = np.exp(-squareform(pdist(x, "sqeuclidean")) / (2.0 * width**2))
                assert np.array_equal(k, expected)
                assert np.array_equal(np.diag(k), np.ones(x.shape[0]))

    @pytest.mark.parametrize("recipe, n", [("example7", None), ("example8", 1500),
                                           ("example8", 3000)])
    def test_bit_equal_to_the_condensed_reference(self, recipe, n):
        for seed in range(4):
            data = standardize(generate_synthetic(get_recipe(recipe, seed=seed, n=n)))
            for x in (data.view_a, data.view_b):
                spec = KernelSpec("gaussian", median_heuristic(x))
                k = gram(x, spec)
                assert np.array_equal(k, condensed_gram(x, spec))
                assert np.array_equal(k, k.T)

    @settings(max_examples=400)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 89), p=st.integers(1, 40),
           duplicate=st.booleans(), log_width=st.floats(-3.0, 3.0))
    def test_bit_equal_to_the_condensed_reference_on_random_inputs(self, seed, n, p, duplicate,
                                                                    log_width):
        x = np.random.default_rng(seed).standard_normal((n, p))
        if duplicate:
            x[-1] = x[0]
        spec = KernelSpec("gaussian", 10.0**log_width)
        k = gram(x, spec)
        assert np.array_equal(k, condensed_gram(x, spec))
        assert np.array_equal(k, k.T)

    def test_linear_is_inner_products(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((12, 4))
        k = gram(x, KernelSpec("linear"))
        expected = np.array([[xi @ xj for xj in x] for xi in x])
        assert np.abs(k - expected).max() <= 1e-12

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            gram(np.ones(5), KernelSpec("linear"))


class TestCenterGram:
    def test_idempotent(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 3))
        k = center_gram(gram(x, KernelSpec("gaussian", 1.5)))
        again = center_gram(k)
        assert np.abs(again - k).max() <= 1e-10

    def test_all_ones_maps_to_zero(self):
        k = center_gram(np.ones((6, 6)))
        assert np.abs(k).max() <= 1e-15

    @given(st.integers(0, 200))
    def test_row_sums_vanish_and_psd_survives(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 25))
        x = rng.standard_normal((n, 2))
        k = center_gram(gram(x, KernelSpec("gaussian", 1.0)))
        assert np.abs(k.sum(axis=0)).max() <= 1e-8
        assert np.abs(k.sum(axis=1)).max() <= 1e-8
        assert np.abs(k - k.T).max() <= 1e-12
        assert np.linalg.eigvalsh(k).min() >= -1e-8

    @pytest.mark.parametrize("recipe, n", [("example7", None), ("example8", 1500)])
    def test_exactly_symmetric_and_matches_the_three_temporary_formula(self, recipe, n):
        data = standardize(generate_synthetic(get_recipe(recipe, seed=0, n=n)))
        for view in (data.view_a, data.view_b):
            k = gram(view, KernelSpec("gaussian", median_heuristic(view)))
            before = k.copy()
            centered = center_gram(k)
            assert np.array_equal(k, before)
            assert np.array_equal(centered, centered.T)
            tol = 4e-15 * max(1.0, float(np.abs(k).max()))
            assert np.abs(centered - three_temporary_center_gram(k)).max() <= tol
        # build_gram_pair centres each new Gram in place, to the same bits
        pair = gaussian_pair(data)
        assert np.array_equal(pair.k_b, centered)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            center_gram(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestMedianHeuristic:
    def test_two_points(self):
        assert median_heuristic(np.array([[0.0], [3.0]])) == 3.0

    def test_three_collinear_points(self):
        # pairwise distances {1, 2, 3}; the median is 2
        assert median_heuristic(np.array([[0.0], [1.0], [3.0]])) == 2.0

    def test_even_pair_count_averages_central_values(self):
        # distances {1, 2, 9, 10, 11, 12} -> (9 + 10) / 2
        sigma = median_heuristic(np.array([[0.0], [1.0], [10.0], [12.0]]))
        assert sigma == 9.5

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            median_heuristic(np.ones((4, 2)))
        with pytest.raises(ValueError, match="at least two rows"):
            median_heuristic(np.ones((1, 2)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 150, 152])
    def test_equals_numpy_median_of_pdist(self, n):
        # pair counts 1, 3, 6, 10, 11175 and 11476: odd and even, with and without ties
        rng = np.random.default_rng(n)
        for p in (1, 3, 8):
            x = rng.standard_normal((n, p))
            for y in (x, np.round(x, 1), np.vstack([x, x])):
                assert median_heuristic(y) == float(np.median(pdist(y)))

    def test_nonfinite_rows_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            median_heuristic(np.array([[0.0], [np.nan], [1.0], [3.0]]))

    def test_nonlinear_recipe_widths(self):
        sig_a = np.mean(
            [
                median_heuristic(generate_synthetic(get_recipe("example7", seed=s)).view_a)
                for s in range(20)
            ]
        )
        sig_b = np.mean(
            [
                median_heuristic(generate_synthetic(get_recipe("example7", seed=s)).view_b)
                for s in range(20)
            ]
        )
        assert abs(sig_a - 3.53) <= 0.15
        assert abs(sig_b - 3.62) <= 0.15


class TestSquaredDistances:
    """The numpy distance loop against scipy's ``cdist`` and ``pdist``: the
    square bit for bit, and its pairs i < j as ``pdist``'s values in order."""

    @staticmethod
    def assert_scipy_bits(x: np.ndarray) -> None:
        square = kernel_module._distance_square(x)
        assert np.array_equal(square, cdist(x, x, "sqeuclidean"))
        # the strict upper triangle, read row by row, is pdist's condensed vector
        upper = square[np.triu_indices(x.shape[0], 1)]
        assert np.array_equal(upper, pdist(x, "sqeuclidean"))

    @pytest.mark.parametrize("recipe, n", EVERY_RECIPE)
    def test_recipes_at_sixteen_data_seeds(self, recipe, n):
        for seed in range(16):
            data = standardize(generate_synthetic(get_recipe(recipe, seed=seed, n=n)))
            for x in (data.view_a, data.view_b):
                self.assert_scipy_bits(x)

    def test_example8_at_three_thousand_rows(self):
        data = standardize(generate_synthetic(get_recipe("example8", seed=0, n=3000)))
        for x in (data.view_a, data.view_b):
            self.assert_scipy_bits(x)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 40),
        p=st.sampled_from([1, 2, 3, 7, 8, 9, 31, 150]),
        log_scale=st.floats(-200.0, 200.0),
        duplicates=st.booleans(),
        block=st.sampled_from([1, 7, 64, 2**16]),
    )
    def test_random_draws(self, seed, n, p, log_scale, duplicates, block):
        """Scales whose squares underflow or overflow; blocks down to one row."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p)) * 10.0**log_scale
        if duplicates:
            x[n // 2:] = x[: n - n // 2]
        saved, kernel_module.DIST_BLOCK = kernel_module.DIST_BLOCK, block
        try:
            self.assert_scipy_bits(x)
        finally:
            kernel_module.DIST_BLOCK = saved

    def test_two_rows_and_one_feature(self):
        x = np.array([[0.5], [-2.0]])
        assert np.array_equal(kernel_module._distance_square(x), [[0.0, 6.25], [6.25, 0.0]])
        assert median_heuristic(x) == 2.5

    def test_no_features(self):
        self.assert_scipy_bits(np.zeros((4, 0)))

    def test_overflow_is_silent(self):
        """Squares past the float range are inf, with no warning, as in scipy."""
        x = np.array([[1e200, 0.0], [-1e200, 1.0], [0.0, 2.0]])
        assert np.array_equal(gram(x, KernelSpec("gaussian", 1.0)),
                              np.exp(-cdist(x, x, "sqeuclidean") / 2.0))
        assert median_heuristic(x) == np.median(pdist(x))


class TestGramPair:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="square"):
            GramPair(np.ones((3, 3)), np.ones((4, 4)), KernelSpec("linear"), KernelSpec("linear"))

    def test_asymmetric_or_nonfinite_gram_rejected(self):
        # the direct route's Cholesky reads one triangle, so only the pair's
        # own check stands between this skewed Gram and a fit
        data = generate_synthetic(get_recipe("example7", seed=0))
        k_a = center_gram(gram(data.view_a, KernelSpec("gaussian", 3.5)))
        k_b = center_gram(gram(data.view_b, KernelSpec("gaussian", 3.6)))
        specs = (KernelSpec("gaussian", 3.5), KernelSpec("gaussian", 3.6))
        skewed = k_a.copy()
        skewed[5, 0] += 0.3
        with pytest.raises(ValueError, match="gram matrix is not symmetric"):
            GramPair(skewed, k_b, *specs)
        holed = k_b.copy()
        holed[3, 3] = np.nan
        with pytest.raises(ValueError, match="gram matrix contains non-finite entries"):
            GramPair(k_a, holed, *specs)
        assert fit_kernel_cca(GramPair(k_a, k_b, *specs), 1.5, 0.6, 3).r == 3

    def test_build_centers_both(self):
        data = generate_synthetic(get_recipe("example7", seed=0, n=40))
        pair = gaussian_pair(data)
        for k in (pair.k_a, pair.k_b):
            assert np.abs(k.sum(axis=0)).max() <= 1e-8
        assert pair.n == 40

    @pytest.mark.parametrize("recipe, n", EVERY_RECIPE)
    def test_resolved_widths_are_the_median_heuristic(self, recipe, n):
        """Widths taken from the Gram's own square keep ``median_heuristic``'s bits."""
        median = KernelSpec("gaussian")
        for seed in range(16):
            data = standardize(generate_synthetic(get_recipe(recipe, seed=seed, n=n)))
            pair = build_gram_pair(data, median, median)
            for x, spec in ((data.view_a, pair.spec_a), (data.view_b, pair.spec_b)):
                assert spec.width == median_heuristic(x) == np.median(pdist(x))
            explicit = build_gram_pair(data, pair.spec_a, pair.spec_b)
            assert np.array_equal(pair.k_a, explicit.k_a)
            assert np.array_equal(pair.k_b, explicit.k_b)


class TestFitKernelCca:
    def test_identical_views_small_ridge(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 3))
        data = standardize(PairedDataset(x, x.copy()))
        spec = KernelSpec("gaussian", median_heuristic(data.view_a))
        model = fit_kernel_cca(build_gram_pair(data, spec, spec), 0.01, 0.01, 1)
        assert model.correlations[0] >= 0.99

    def test_zero_ridge_rejected_as_degenerate(self):
        data = generate_synthetic(get_recipe("example7", seed=0, n=30))
        pair = gaussian_pair(data)
        with pytest.raises(ValueError, match="degenerate"):
            fit_kernel_cca(pair, 0.0, 0.1, 1)

    @pytest.mark.parametrize("c1, c2", [(np.nan, 0.1), (0.1, np.inf), (np.inf, np.nan)])
    def test_non_finite_ridge_rejected(self, c1, c2):
        pair = gaussian_pair(generate_synthetic(get_recipe("example7", seed=0, n=30)))
        with pytest.raises(ValueError, match="finite ridges"):
            fit_kernel_cca(pair, c1, c2, 1)

    def test_rank_shortage_reported_above_the_crossover(self, eigen_calls):
        pair = linear_pair_rank3(LANCZOS_MIN_ROWS + 100)
        with pytest.raises(NumericalError, match="supports only 3 components"):
            fit_kernel_cca(pair, 0.1, 0.1, 5)
        assert ("eigsh", False) in eigen_calls

    def test_component_bounds(self):
        data = generate_synthetic(get_recipe("example7", seed=0, n=30))
        pair = gaussian_pair(data)
        with pytest.raises(ValueError, match="components"):
            fit_kernel_cca(pair, 0.1, 0.1, 0)
        with pytest.raises(ValueError, match="components"):
            fit_kernel_cca(pair, 0.1, 0.1, 31)

    def test_rank_shortage_reported(self):
        rng = np.random.default_rng(0)
        tiny = standardize(
            PairedDataset(rng.standard_normal((8, 1)), rng.standard_normal((8, 1)))
        )
        pair = build_gram_pair(tiny, KernelSpec("linear"), KernelSpec("linear"))
        for r in (2, 3):
            with pytest.raises(NumericalError, match="supports only 1 components"):
                fit_kernel_cca(pair, 0.1, 0.1, r)

    def test_each_view_conditioned_on_its_own_ridged_spectrum(self):
        # rank-3 linear Grams: the ridged spectra span [1e-8, 71], inside the
        # condition limit, although their squares would not be
        data, pair = linear_pair_60x3()
        model = fit_kernel_cca(pair, 1e-8, 1e-8, 3)
        assert np.abs(model.correlations - fit_svd(data).correlations).max() <= 1e-6
        with pytest.raises(NumericalError, match="B is not positive definite"):
            fit_kernel_cca(pair, 1e-10, 1e-10, 3)

    def test_matches_the_2n_pencil_with_its_signs(self):
        for seed in (0, 1):
            pair = gaussian_pair(generate_synthetic(get_recipe("example7", seed=seed)))
            for c in (0.05, 0.6, 1.5):
                corr, z_a, z_b = pencil_kernel_fit(pair, c, c, 3)
                model = fit_kernel_cca(pair, c, c, 3)
                assert np.abs(model.correlations - corr).max() <= 1e-10
                assert np.abs(model.z_a - z_a).max() <= 1e-8
                assert np.abs(model.z_b - z_b).max() <= 1e-8

    def test_matches_the_eigenbasis_solve(self):
        for seed in (0, 1):
            pair = gaussian_pair(generate_synthetic(get_recipe("example7", seed=seed)))
            for c in (0.05, 0.6, 1.5):
                reference = eigenbasis_kernel_fit(pair, c, c, 3)
                model = fit_kernel_cca(pair, c, c, 3)
                assert np.abs(model.correlations - reference.correlations).max() <= 1e-12
                assert np.abs(model.z_a - reference.z_a).max() <= 1e-10
                assert np.abs(model.z_b - reference.z_b).max() <= 1e-10

    def test_matches_the_eigenbasis_solve_at_desk_scale(self, eigen_calls):
        data = standardize(generate_synthetic(get_recipe("example8", seed=0, n=1500)))
        pair = gaussian_pair(data)
        model = fit_kernel_cca(pair, 1.5, 0.6, 3)
        # well conditioned: the only eigensolve is top_svd's Lanczos solve,
        # and no dense eigh runs
        assert eigen_calls == [("eigsh", False)]
        reference = eigenbasis_kernel_fit(pair, 1.5, 0.6, 3)
        assert np.abs(model.correlations - reference.correlations).max() <= 1e-12
        assert np.abs(model.z_a - reference.z_a).max() <= 1e-10
        assert np.abs(model.z_b - reference.z_b).max() <= 1e-10

    @pytest.mark.parametrize(
        "recipe, n, seed, ridges",
        [
            ("example7", None, 0, [(0.05, 0.6), (1.5, 0.6)]),
            ("example7", None, 1, [(0.05, 0.6), (1.5, 0.6)]),
            ("example8", 1500, 0, [(1.5, 0.6)]),
        ],
    )
    def test_bit_equal_to_the_copying_solve(self, recipe, n, seed, ridges):
        pair = gaussian_pair(standardize(generate_synthetic(get_recipe(recipe, seed=seed, n=n))))
        for c1, c2 in ridges:
            model = fit_kernel_cca(pair, c1, c2, 3)
            ref = copying_kernel_fit(pair, c1, c2, 3)
            assert np.array_equal(model.correlations, ref.correlations)
            assert np.array_equal(model.alpha, ref.alpha)
            assert np.array_equal(model.beta, ref.beta)

    def test_raises_exactly_when_a_ridged_spectrum_fails(self, eigen_calls):
        _, pair = linear_pair_60x3()
        spectra = [scipy.linalg.eigvalsh(k) for k in (pair.k_a, pair.k_b)]
        exact_tests = []
        for c in np.logspace(-11.0, -7.0, 9):
            eigen_calls.clear()
            expected = all(well_conditioned(values + c) for values in spectra)
            try:
                fit_kernel_cca(pair, c, c, 3)
                fitted = True
            except NumericalError as exc:
                assert "B is not positive definite" in str(exc)
                fitted = False
            assert fitted == expected, c
            exact_tests.append(eigen_calls.count(("eigvalsh", True)))
        # the inf-norm bound settles the largest ridge; the smaller ones need
        # the exact test
        assert exact_tests[-1] == 0
        assert min(exact_tests[:-1]) >= 1

    def test_indefinite_gram_reported_with_its_spectrum(self):
        q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((20, 20)))
        k_a = (q * np.linspace(-1.0, 5.0, 20)) @ q.T
        k_b = (q * np.linspace(0.5, 5.0, 20)) @ q.T
        pair = GramPair(
            (k_a + k_a.T) / 2.0, (k_b + k_b.T) / 2.0, KernelSpec("linear"), KernelSpec("linear")
        )
        with pytest.raises(
            NumericalError,
            match=r"B is not positive definite .*eigenvalue range \[-9\.000e-01, 5\.100e\+00\]",
        ):
            fit_kernel_cca(pair, 0.1, 0.1, 1)

    def test_failed_factorisation_always_raises(self, monkeypatch):
        pair = gaussian_pair(generate_synthetic(get_recipe("example7", seed=0, n=30)))

        def failing_inverse(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(scipy.linalg, "inv", failing_inverse)
        with pytest.raises(NumericalError, match="Cholesky factorisation of a ridged gram failed"):
            fit_kernel_cca(pair, 0.6, 0.6, 1)

    def test_near_singular_inverse_refused_without_a_warning(self):
        # at c = 1e-14 the rank-3 Grams' SPD inverse estimates a reciprocal
        # condition below eps and warns; the COND_LIMIT test refuses the block
        _, pair = linear_pair_60x3()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="B is not positive definite"):
                fit_kernel_cca(pair, 1e-14, 1e-14, 3)

    def test_model_geometry(self):
        data = generate_synthetic(get_recipe("example7", seed=2))
        pair = gaussian_pair(data)
        model = fit_kernel_cca(pair, 1.5, 0.6, 3)
        assert np.all(model.correlations >= 0.0)
        assert np.all(model.correlations <= 1.0)
        assert np.all(np.diff(model.correlations) <= 1e-12)
        for z in (model.z_a, model.z_b):
            assert np.abs(np.linalg.norm(z, axis=0) - 1.0).max() <= 1e-6
        realized = np.einsum("ij,ij->j", model.z_a, model.z_b)
        assert np.abs(realized - model.correlations).max() <= 1e-6
        # components are orthogonal in the constraint metric (K + cI)^2
        eye = np.eye(pair.n)
        for dual, k, c in ((model.alpha, pair.k_a, 1.5), (model.beta, pair.k_b, 0.6)):
            metric = (k + c * eye) @ (k + c * eye)
            g = dual.T @ metric @ dual
            scaled = g / np.sqrt(np.outer(np.diag(g), np.diag(g)))
            assert np.abs(scaled - np.diag(np.diag(scaled))).max() <= 1e-8

    def test_linear_kernel_images_orthogonal(self):
        # with linear kernels the duals span the primal space, so the image
        # columns themselves come out orthogonal
        data, pair = linear_pair_60x3()
        model = fit_kernel_cca(pair, 1e-3, 1e-3, 3)
        for z in (model.z_a, model.z_b):
            g = z.T @ z
            assert np.abs(g - np.eye(3)).max() <= 1e-4

    def test_nonlinear_relations_recovered(self):
        corrs = np.array(
            [
                fit_kernel_cca(
                    gaussian_pair(generate_synthetic(get_recipe("example7", seed=s))),
                    1.5,
                    0.6,
                    3,
                ).correlations
                for s in range(20)
            ]
        )
        assert np.abs(corrs.mean(axis=0) - np.array([0.95, 0.89, 0.87])).max() <= 0.05

    def test_monotone_shrinkage(self):
        pair = gaussian_pair(generate_synthetic(get_recipe("example7", seed=1)))
        previous = None
        for c in np.logspace(-2.0, 2.0, 9):
            rho = fit_kernel_cca(pair, c, c, 1).correlations[0]
            if previous is not None:
                assert rho <= previous + 1e-6
            previous = rho

    def test_linear_kernel_matches_primal_ridge(self):
        # dual ridge c maps to primal ridge 2c/(n-1) to first order
        data, pair = linear_pair_60x3()
        for c in (0.5, 2.0):
            dual = fit_kernel_cca(pair, c, c, 3)
            primal = fit_regularized(data, 2 * c / 59, 2 * c / 59, r=3)
            assert np.abs(dual.correlations - primal.correlations).max() <= 1e-4

    def test_oversized_problem_redirected(self):
        rng = np.random.default_rng(4)
        data = standardize(
            PairedDataset(rng.standard_normal((2001, 2)), rng.standard_normal((2001, 2)))
        )
        pair = build_gram_pair(data, KernelSpec("linear"), KernelSpec("linear"))
        with pytest.raises(ValueError, match="fit_kernel_cca_pgso"):
            fit_kernel_cca(pair, 0.1, 0.1, 1)


class TestFitKernelCcaPgso:
    def test_full_factorisation_matches_direct(self):
        for seed in (0, 1):
            data = generate_synthetic(get_recipe("example8", seed=seed, n=100))
            pair = gaussian_pair(data)
            direct = fit_kernel_cca(pair, 0.05, 0.05, 3)
            reduced = fit_kernel_cca_pgso(pair, kappa=0.1, eta=0.0, r=3)
            assert np.abs(direct.correlations - reduced.correlations).max() <= 0.05

    @pytest.mark.parametrize("n", [600, 2000])
    def test_matches_the_pivot_loop_route(self, n):
        pair = gaussian_pair(standardize(generate_synthetic(get_recipe("example8", seed=0, n=n))))
        model = fit_kernel_cca_pgso(pair, kappa=0.5, r=3)
        corr, z_a, z_b = pgso_loop_fit(pair, 0.5, 3)
        assert np.abs(model.correlations - corr).max() <= 1e-10
        # the dual back-map has condition ~1e8 at the default eta, so the
        # images carry more roundoff than the correlations
        assert np.abs(model.z_a - z_a).max() <= 1e-9
        assert np.abs(model.z_b - z_b).max() <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_copying_solve(self, seed):
        pair = example8_pair(seed, 2000)
        model = fit_kernel_cca_pgso(pair, kappa=0.5, r=3)
        ref = copying_pgso_fit(pair, 0.5, 3)
        assert np.abs(model.correlations - ref.correlations).max() <= 1e-9
        assert np.abs(model.z_a - ref.z_a).max() <= 1e-9
        assert np.abs(model.z_b - ref.z_b).max() <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_factors_bit_equal_to_the_tril_copy(self, seed):
        pair = example8_pair(seed, 1500)
        for k in (pair.k_a, pair.k_b):
            eta = 1e-6 * np.trace(k)
            assert np.array_equal(partial_gram_schmidt(k, eta), tril_partial_gram_schmidt(k, eta))

    @pytest.mark.parametrize("recipe, n, seeds, fractions", [
        ("example7", None, range(4), (0.0, 1e-6, 1e-4, 1e-2, 1.0, 2.0)),
        ("example8", 1500, range(2), (0.0, 1e-6, 1e-4, 1e-2, 1.0, 2.0)),
        ("example8", 3000, (0,), (1e-6, 1e-2)),
    ])
    def test_eta_stop_keeps_the_pivot_floor_factor(self, recipe, n, seeds, fractions):
        """``dpstrf`` stopped at eta / (2n) keeps the bits of the factor run to
        the pivot floor and cut at eta; so does an eta just above the roundoff
        allowance, the smallest eta that stops early."""
        for seed in seeds:
            data = standardize(generate_synthetic(get_recipe(recipe, seed=seed, n=n)))
            pair = gaussian_pair(data)
            for k in (pair.k_a, pair.k_b):
                size, trace = k.shape[0], float(np.trace(k))
                allowance = 8.0 * size**2 * np.finfo(float).eps * float(np.diag(k).max())
                for eta in (*(f * trace for f in fractions), 1.01 * allowance):
                    assert np.array_equal(partial_gram_schmidt(k, eta),
                                          tril_partial_gram_schmidt(k, eta)), (seed, eta / trace)

    def test_eta_stop_ends_the_factorisation_early(self, monkeypatch):
        ranks = []
        dpstrf = scipy.linalg.lapack.dpstrf

        def spy(*args, **kwargs):
            out = dpstrf(*args, **kwargs)
            ranks.append((kwargs["tol"], out[2]))
            return out

        monkeypatch.setattr(scipy.linalg.lapack, "dpstrf", spy)
        k = example8_pair(0, 600).k_a
        trace = float(np.trace(k))
        partial_gram_schmidt(k, 0.0)
        partial_gram_schmidt(k, 1e-2 * trace)
        (floor, floor_rank), (tol, rank) = ranks
        assert floor == 1e-12 * max(float(np.diag(k).max()), 1.0)
        assert tol == 1e-2 * trace / (2 * 600)
        assert rank < floor_rank

    @given(seed=st.integers(0, 2**16), n=st.integers(1, 60), rank=st.integers(1, 60),
           log_scale=st.floats(-3.0, 3.0), log_eta=st.floats(-14.0, 0.5))
    def test_eta_stop_keeps_the_bits_on_random_psd_draws(self, seed, n, rank, log_scale, log_eta):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, min(rank, n))) * 10.0**log_scale
        k = g @ g.T
        k = np.triu(k) + np.triu(k, 1).T  # exactly symmetric
        size, trace = n, float(np.trace(k))
        allowance = 8.0 * size**2 * np.finfo(float).eps * float(np.diag(k).max())
        for eta in (0.0, 1.01 * allowance, 10.0**log_eta * trace):
            assert np.array_equal(partial_gram_schmidt(k, eta), tril_partial_gram_schmidt(k, eta))

    def test_upper_triangle_read_matches_the_lower_within_sym_rtol(self):
        # LAPACK reads the upper triangle of the Gram; on one that is symmetric
        # only within SYM_RTOL the factored matrix and the ridged inverse stay
        # within 1e-10 of the lower triangle's (the trailing factor columns,
        # on pivots near eta, amplify the 1e-13 skew to ~5e-10)
        k = example8_pair(0, 400).k_b
        rng = np.random.default_rng(0)
        skew = rng.standard_normal(k.shape)
        skew -= skew.T
        k = k + 0.4 * SYM_RTOL * max(float(np.abs(k).max()), 1.0) * skew / np.abs(skew).max()
        check_symmetric(k)
        assert not np.array_equal(k, k.T)
        eta = 1e-6 * np.trace(k)
        upper, lower_factor = partial_gram_schmidt(k, eta), tril_partial_gram_schmidt(k, eta)
        assert upper.shape == lower_factor.shape
        assert np.abs(upper @ upper.T - lower_factor @ lower_factor.T).max() <= 1e-10
        lower = np.tril(k) + np.tril(k, -1).T
        assert np.abs(_ridged_inverse(k, 0.1) - _ridged_inverse(lower, 0.1)).max() <= 1e-10

    def test_records_factor_columns_and_residual_traces(self):
        pair = gaussian_pair(standardize(generate_synthetic(get_recipe("example8", seed=0, n=600))))
        model = fit_kernel_cca_pgso(pair, kappa=0.5, r=2)
        for k, columns, residual in zip(
            (pair.k_a, pair.k_b), model.factor_columns, model.residual_traces
        ):
            trace = np.trace(k)
            factor = partial_gram_schmidt(k, 1e-6 * trace)
            assert columns == factor.shape[1] < pair.n
            assert abs(residual - (trace - np.sum(factor**2))) <= 1e-12 * trace
            assert 0.0 < residual <= 1e-6 * trace
        direct = fit_kernel_cca(pair, 0.5, 0.5, 2)
        assert direct.factor_columns == () and direct.residual_traces == ()

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_traces_are_never_negative(self, seed):
        # example7's factors are nearly full, so trace(K) - ||R||_F^2 is
        # roundoff of either sign: it reads below zero on data seeds 2-4
        data = standardize(generate_synthetic(get_recipe("example7", seed=seed)))
        for standardized in (data, standardize(data)):
            pair = gaussian_pair(standardized)
            model = fit_kernel_cca_pgso(pair, kappa=0.5, r=3)
            for k, residual in zip((pair.k_a, pair.k_b), model.residual_traces):
                trace = np.trace(k)
                factor = partial_gram_schmidt(k, 1e-6 * trace)
                assert residual >= 0.0
                assert abs(residual - (trace - np.sum(factor**2))) <= 1e-9 * trace

    def test_each_gram_checked_and_factored_once(self, monkeypatch):
        # GramPair checks both Grams when it is built; the fit trusts that
        # check and factors each Gram in one pass, which also gives the default
        # eta and the residual trace the fit used to recompute
        import cancorr.numerics as numerics_module

        checked, factored = [], []
        check, factor = numerics_module.check_symmetric, numerics_module._pivoted_factor

        def counted_check(a, name="matrix"):
            checked.append(sys._getframe(1).f_code.co_name)
            return check(a, name)

        def counted_factor(k, eta):
            factored.append(k)
            return factor(k, eta)

        for module in (kernel_module, numerics_module):
            monkeypatch.setattr(module, "check_symmetric", counted_check)
        monkeypatch.setattr(kernel_module, "_pivoted_factor", counted_factor)
        data = standardize(generate_synthetic(get_recipe("example7", seed=0)))
        pair = build_gram_pair(data, KernelSpec("gaussian"), KernelSpec("gaussian"))
        model = fit_kernel_cca_pgso(pair, kappa=0.5, r=3)
        assert checked == ["__post_init__", "__post_init__"]
        assert len(factored) == 2
        assert factored[0] is pair.k_a and factored[1] is pair.k_b
        reg = dict(model.regularization)
        for k, view, residual in zip(factored, "ab", model.residual_traces):
            r = partial_gram_schmidt(k, 1e-6 * float(np.trace(k)))
            assert reg[f"eta_{view}"] == 1e-6 * float(np.trace(k))
            diagonal = np.diag(k) - np.einsum("ij,ij->i", r, r)
            assert residual == float(np.maximum(diagonal, 0.0).sum())

    def test_duplicated_observations_reduce_rank(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal((12, 3))
        view_a = np.vstack([base, base, base[:6]])  # 30 rows, 12 distinct
        view_b = view_a[:, :2] + 0.05 * rng.standard_normal((30, 2))
        data = PairedDataset(view_a, view_b)
        pair = build_gram_pair(
            data, KernelSpec("gaussian", 2.0), KernelSpec("gaussian", 2.0)
        )
        factor = partial_gram_schmidt(pair.k_a, 1e-8 * np.trace(pair.k_a))
        assert factor.shape[1] < 30
        model = fit_kernel_cca_pgso(pair, kappa=0.1, r=1)
        assert 0.0 <= model.correlations[0] <= 1.0

    def test_parameter_validation(self):
        data = generate_synthetic(get_recipe("example7", seed=0, n=30))
        pair = gaussian_pair(data)
        with pytest.raises(ValueError, match="kappa"):
            fit_kernel_cca_pgso(pair, kappa=0.0)
        with pytest.raises(ValueError, match="components"):
            fit_kernel_cca_pgso(pair, kappa=0.1, r=0)

    @pytest.mark.parametrize("kappa, eta", [(np.nan, None), (np.inf, None), (0.5, np.nan),
                                            (0.5, np.inf), (0.5, -1.0)])
    def test_bad_kappa_or_eta_rejected_before_factoring(self, monkeypatch, kappa, eta):
        import cancorr.kernel as kernel_module

        def unreachable(*args, **kwargs):
            raise AssertionError("a Gram factored for a fit that cannot run")

        monkeypatch.setattr(kernel_module, "_pivoted_factor", unreachable)
        pair = gaussian_pair(generate_synthetic(get_recipe("example7", seed=0, n=30)))
        with pytest.raises(ValueError, match="kappa must be positive and finite"
                           if eta is None else "eta must be finite and nonnegative"):
            fit_kernel_cca_pgso(pair, kappa=kappa, eta=eta, r=1)

    def test_component_shortage_reported_above_the_crossover(self, eigen_calls):
        pair = linear_pair_sharing_three(2 * LANCZOS_MIN_ROWS, LANCZOS_MIN_ROWS + 10)
        with pytest.raises(NumericalError, match="supports only 3 components"):
            fit_kernel_cca_pgso(pair, kappa=0.1, r=5)
        assert ("eigsh", False) in eigen_calls

    def test_component_shortage_reported(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((20, 1))
        data = standardize(PairedDataset(x, x.copy()))
        pair = build_gram_pair(data, KernelSpec("linear"), KernelSpec("linear"))
        with pytest.raises(NumericalError, match="supports only"):
            fit_kernel_cca_pgso(pair, kappa=0.1, r=5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weak_component_kept_at_the_shared_floor(self, seed):
        # a second correlation near 1e-8 lies above the 1e-12 floor every
        # component-counting fit applies, so PGSO keeps it as fit_svd does
        data = weak_second_relation(1e-8, seed)
        pair = build_gram_pair(data, KernelSpec("linear"), KernelSpec("linear"))
        model = fit_kernel_cca_pgso(pair, kappa=1e-3, eta=0.0, r=2)
        assert model.correlations.shape == (2,)
        assert model.correlations[1] == pytest.approx(fit_svd(data).correlations[1], rel=1e-3)

    def test_empty_factor_reported_as_shortage(self):
        # eta at the trace stops both factorisations before their first column
        pair = gaussian_pair(generate_synthetic(get_recipe("example7", seed=0, n=30)))
        eta = float(max(np.trace(pair.k_a), np.trace(pair.k_b)))
        with pytest.raises(NumericalError, match="supports only 0 components"):
            fit_kernel_cca_pgso(pair, kappa=0.1, eta=eta, r=1)

    def test_singular_reduced_block_reported(self, monkeypatch):
        import cancorr.kernel as kernel_module

        data = generate_synthetic(get_recipe("example7", seed=0, n=25))
        pair = gaussian_pair(data)

        def degenerate_factor(k, eta):
            col = k[:, :1]
            return np.hstack([col, col]), eta, 0.0  # exactly dependent columns

        monkeypatch.setattr(kernel_module, "_pivoted_factor", degenerate_factor)
        with pytest.raises(NumericalError, match="decrease eta or increase kappa"):
            fit_kernel_cca_pgso(pair, kappa=0.1, r=1)


class TestLanczosMatchesTheDenseSolve:
    """Both routes with ``top_svd``'s Lanczos solve against the same fits with
    the subset-``eigh`` reference, on example8 data seeds 0-3."""

    @staticmethod
    def _fits(monkeypatch, eigen_calls, fit):
        import cancorr.kernel as kernel_module

        model = fit()
        assert ("eigsh", False) in eigen_calls
        monkeypatch.setattr(kernel_module, "top_svd", dense_top_svd)
        return model, fit()

    @pytest.mark.parametrize("seed", range(4))
    def test_direct_route(self, monkeypatch, eigen_calls, seed):
        pair = example8_pair(seed, 1500)
        model, ref = self._fits(monkeypatch, eigen_calls,
                                lambda: fit_kernel_cca(pair, 1.5, 0.6, 3))
        assert np.abs(model.correlations - ref.correlations).max() <= 1e-13
        assert np.abs(model.z_a - ref.z_a).max() <= 1e-12
        assert np.abs(model.z_b - ref.z_b).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_pgso_route(self, monkeypatch, eigen_calls, seed):
        # the dual back-map has condition ~1e8 at the default eta, so the
        # images carry more of the eigenvectors' roundoff than the correlations
        pair = example8_pair(seed, 2000)
        model, ref = self._fits(monkeypatch, eigen_calls,
                                lambda: fit_kernel_cca_pgso(pair, kappa=0.5, r=3))
        assert np.abs(model.correlations - ref.correlations).max() <= 1e-10
        assert np.abs(model.z_a - ref.z_a).max() <= 1e-8
        assert np.abs(model.z_b - ref.z_b).max() <= 1e-8


class TestWorkingSet:
    """Peak memory allocated by each kernel stage, in doubles, above its inputs
    (example8, n = 1500, data seed 0, gaussian widths 3.0)."""

    n = 1500

    @pytest.fixture(scope="class")
    def data(self):
        return standardize(generate_synthetic(get_recipe("example8", seed=0, n=self.n)))

    @pytest.fixture(scope="class")
    def pair(self, data):
        spec = KernelSpec("gaussian", 3.0)
        return build_gram_pair(data, spec, spec)

    def test_gram_allocates_only_its_output(self, data):
        _, peak = traced_peak(gram, data.view_a, KernelSpec("gaussian", 3.0))
        assert peak <= 1.05 * self.n**2

    def test_median_heuristic_allocates_only_the_pair_vector(self):
        # n(n - 1)/2 pairs, about 0.5 n^2, and two distance-block temporaries,
        # which at n = 3000 are 1.5% of n^2; the n x n square would be 1.0 n^2
        n = 3000
        view = generate_synthetic(get_recipe("example8", seed=0, n=n)).view_a
        width, peak = traced_peak(median_heuristic, view)
        assert width == float(np.median(pdist(view)))
        assert peak <= 0.55 * n**2

    def test_center_gram_allocates_only_its_output(self, data):
        k = gram(data.view_a, KernelSpec("gaussian", 3.0))
        _, peak = traced_peak(center_gram, k)
        assert peak <= 1.05 * self.n**2

    def test_partial_gram_schmidt_keeps_one_work_array(self, pair):
        factor, peak = traced_peak(partial_gram_schmidt, pair.k_a, 1e-6 * np.trace(pair.k_a))
        assert peak <= self.n**2 + factor.size + 0.05 * self.n**2

    def test_reduced_fit_keeps_the_factors_and_four_blocks(self, pair):
        model, peak = traced_peak(fit_kernel_cca_pgso, pair, kappa=0.5, r=3)
        m_a, m_b = model.factor_columns
        assert peak <= self.n * (m_a + m_b) + 4.25 * max(m_a, m_b) ** 2

    def test_direct_fit_keeps_five_square_arrays(self, pair):
        _, peak = traced_peak(fit_kernel_cca, pair, 0.5, 0.5, 3)
        assert peak <= 5.05 * self.n**2


def degenerate_view(rng, n: int, dim: int) -> np.ndarray:
    """A view with a near-duplicate column (when it has two) and near-duplicate rows."""
    view = rng.standard_normal((n, dim))
    if dim > 1:
        view[:, -1] = view[:, 0] + 1e-9 * rng.standard_normal(n)
    view[n // 2:] = view[: n - n // 2] + 1e-9 * rng.standard_normal((n - n // 2, dim))
    return view


@settings(max_examples=400)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(4, 40),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    kinds=st.tuples(st.sampled_from(["linear", "gaussian"]), st.sampled_from(["linear", "gaussian"])),
    log_widths=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    log_ridge=st.floats(-4.0, 1.0),
    r=st.integers(1, 3),
    pgso=st.booleans(),
)
def test_kernel_fits_are_valid_or_raise(seed, n, dims, kinds, log_widths, log_ridge, r, pgso):
    """Degenerate inputs either raise or give finite duals, unit-norm images and
    descending correlations in [0, 1] equal to the image cosines."""
    rng = np.random.default_rng(seed)
    data = PairedDataset(degenerate_view(rng, n, dims[0]), degenerate_view(rng, n, dims[1]))
    specs = [
        KernelSpec(kind, 10.0**log_width if kind == "gaussian" else None)
        for kind, log_width in zip(kinds, log_widths)
    ]
    pair = build_gram_pair(data, *specs)
    ridge = 10.0**log_ridge
    try:
        if pgso:
            model = fit_kernel_cca_pgso(pair, kappa=ridge, r=r)
        else:
            model = fit_kernel_cca(pair, ridge, ridge, r)
    except ValueError:  # NumericalError included
        return
    for values in (model.alpha, model.beta, model.correlations, model.z_a, model.z_b):
        assert np.all(np.isfinite(values))
    for z in (model.z_a, model.z_b):
        assert np.abs(np.linalg.norm(z, axis=0) - 1.0).max() <= 1e-10
    corr = model.correlations
    assert np.all((corr >= 0.0) & (corr <= 1.0))
    assert np.all(np.diff(corr) <= 0.0)
    assert np.abs(np.einsum("ij,ij->j", model.z_a, model.z_b) - corr).max() <= 1e-10


class TestImageRelationTable:
    def test_rejects_non_2d_images(self):
        with pytest.raises(ValueError, match="images must be a 2-d array"):
            image_relation_table(np.ones(5), {"s": np.arange(5.0)})

    def test_signal_equal_to_image(self):
        data = generate_synthetic(get_recipe("example7", seed=0, n=60))
        model = fit_kernel_cca(gaussian_pair(data), 1.5, 0.6, 2)
        table = image_relation_table(model.z_a, {"own": model.z_a[:, 0]})
        assert abs(table.correlations[0, 0] - 1.0) <= 1e-10
        assert table.image_names == ("z1", "z2")

    def test_orthogonal_signal_gives_zeros(self):
        data = generate_synthetic(get_recipe("example7", seed=1, n=50))
        model = fit_kernel_cca(gaussian_pair(data), 1.5, 0.6, 2)
        rng = np.random.default_rng(0)
        sig = rng.standard_normal(50)
        sig -= sig.mean()
        centered = model.z_a - model.z_a.mean(axis=0)
        coeffs = np.linalg.lstsq(centered, sig, rcond=None)[0]
        sig = sig - centered @ coeffs
        table = image_relation_table(model.z_a, {"noise": sig})
        assert np.abs(table.correlations).max() <= 1e-8

    def test_validation(self):
        images = np.random.default_rng(1).standard_normal((10, 2))
        with pytest.raises(ValueError, match="constant"):
            image_relation_table(images, {"flat": np.ones(10)})
        with pytest.raises(ValueError, match="shape"):
            image_relation_table(images, {"short": np.ones(4)})
        with pytest.raises(ValueError, match="constant"):
            image_relation_table(np.ones((10, 1)), {"sig": np.arange(10.0)})

    def test_planted_transforms_dominate_distinct_images(self):
        recipe = get_recipe("example7", seed=0)
        data = generate_synthetic(recipe)
        model = fit_kernel_cca(gaussian_pair(data), 1.5, 0.6, 3)
        table_a = image_relation_table(model.z_a, relation_signals(recipe, data))
        assert one_dominant(table_a.absolute, 0.7)
        table_b = image_relation_table(
            model.z_b, {f"b{j + 1}": data.view_b[:, j] for j in range(3)}
        )
        assert one_dominant(table_b.absolute, 0.7)

    def test_csv_layout(self, tmp_path):
        images = np.random.default_rng(2).standard_normal((12, 2))
        table = image_relation_table(
            images, {"first": images[:, 0], "second": images[:, 1]}
        )
        path = tmp_path / "relations.csv"
        table.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["signal", "z1", "z2"]
        assert [r[0] for r in rows[1:]] == ["first", "second"]
        parsed = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert np.array_equal(parsed, table.correlations)
