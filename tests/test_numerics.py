"""Decomposition helpers: hand-checked values, reconstruction oracles, properties."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given
from hypothesis import strategies as st

from cancorr.numerics import (
    LANCZOS_MIN_ROWS,
    NumericalError,
    SvdResult,
    chi2_quantile,
    check_symmetric,
    fix_signs,
    gen_eig_sym,
    inv_sqrt_spd,
    lead_signs,
    partial_gram_schmidt,
    pearson_columns,
    ranked_pairs,
    svd,
    sym_eig,
    top_svd,
    unit_images,
    well_conditioned,
)


def random_symmetric(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


def random_spd(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n + 3, n))
    return m.T @ m / (n + 3) + 0.1 * np.eye(n)


class TestSymEig:
    def test_diagonal(self):
        res = sym_eig([[2.0, 0.0], [0.0, 1.0]])
        assert np.allclose(res.values, [2.0, 1.0])

    def test_exchange_matrix(self):
        res = sym_eig([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(res.values, [1.0, -1.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(res.vectors), [[s, s], [s, s]], atol=1e-12)
        # characteristic equation roots of [[2,1],[1,2]]: lambda^2 - 4 lambda + 3
        res2 = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(res2.values, [3.0, 1.0])

    @given(st.integers(0, 500), st.integers(2, 8))
    def test_residual_and_unit_columns(self, seed, n):
        a = random_symmetric(seed, n)
        res = sym_eig(a)
        scale = max(np.abs(a).max(), 1.0)
        resid = a @ res.vectors - res.vectors * res.values
        assert np.abs(resid).max() <= 1e-8 * scale
        assert np.allclose(np.linalg.norm(res.vectors, axis=0), 1.0, atol=1e-8)
        assert np.all(np.diff(res.values) <= 1e-12)

    def test_sign_convention_deterministic(self):
        a = random_symmetric(7, 5)
        v1 = sym_eig(a).vectors
        v2 = sym_eig(a.copy()).vectors
        assert np.array_equal(v1, v2)
        for j in range(v1.shape[1]):
            assert v1[np.argmax(np.abs(v1[:, j])), j] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])


class TestGenEigSym:
    def test_identity_constraint_reduces_to_sym_eig(self):
        res = gen_eig_sym([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
        assert np.allclose(res.values, [1.0, -1.0])
        res = gen_eig_sym([[0.0, 0.5], [0.5, 0.0]], np.eye(2))
        assert np.allclose(res.values, [0.5, -0.5])

    def test_identity_pencil(self):
        b = random_spd(3, 5)
        res = gen_eig_sym(b, b)
        assert np.allclose(res.values, 1.0, atol=1e-10)

    @given(st.integers(0, 300), st.integers(2, 7))
    def test_b_normalisation_and_residual(self, seed, n):
        a = random_symmetric(seed, n)
        b = random_spd(seed + 1000, n)
        res = gen_eig_sym(a, b)
        scale = max(np.abs(a).max(), 1.0)
        resid = a @ res.vectors - b @ res.vectors * res.values
        assert np.abs(resid).max() <= 1e-7 * scale
        gram = res.vectors.T @ b @ res.vectors
        assert np.allclose(gram, np.eye(n), atol=1e-8)

    def test_singular_b_raises_with_hint(self):
        b = np.zeros((3, 3))
        with pytest.raises(NumericalError, match="ridge"):
            gen_eig_sym(np.eye(3), b)


class TestSvd:
    def test_diagonal_and_rank_one(self):
        res = svd(np.diag([3.0, -2.0]))
        assert np.allclose(res.s, [3.0, 2.0])
        assert np.allclose(svd(np.zeros((3, 2))).s, 0.0)
        u = np.array([0.6, 0.8])
        v = np.array([1.0, 0.0, 0.0])
        res = svd(np.outer(u, v))
        assert np.allclose(res.s, [1.0, 0.0], atol=1e-12)

    @given(st.integers(0, 300), st.integers(1, 6), st.integers(1, 6))
    def test_reconstruction_and_orthonormal(self, seed, m, n):
        a = np.random.default_rng(seed).standard_normal((m, n))
        res = svd(a)
        k = min(m, n)
        assert np.allclose(res.u.T @ res.u, np.eye(k), atol=1e-8)
        assert np.allclose(res.v.T @ res.v, np.eye(k), atol=1e-8)
        scale = max(np.abs(a).max(), 1.0)
        assert np.abs(res.u @ np.diag(res.s) @ res.v.T - a).max() <= 1e-8 * scale


class TestTopSvd:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(30, 30), (40, 25), (25, 40)])
    def test_matches_full_svd(self, seed, shape):
        a = np.random.default_rng(seed).standard_normal(shape)
        full = svd(a)
        for r in (1, 3, min(shape)):
            top = top_svd(a, r)
            assert top.u.shape == (shape[0], r) and top.v.shape == (shape[1], r)
            assert np.abs(top.s - full.s[:r]).max() <= 1e-12 * full.s[0]
            assert np.abs(top.u - full.u[:, :r]).max() <= 1e-8
            assert np.abs(top.v - full.v[:, :r]).max() <= 1e-8

    def test_rank_deficient_input(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 20))
        full = svd(a)
        top = top_svd(a, 4)
        assert np.abs(top.s - full.s[:4]).max() <= 1e-12 * full.s[0]
        assert np.abs(top.u - full.u[:, :4]).max() <= 1e-8
        assert np.abs(top.v - full.v[:, :4]).max() <= 1e-8
        beyond = top_svd(a, 7)
        assert np.abs(beyond.s[:4] - full.s[:4]).max() <= 1e-12 * full.s[0]
        assert beyond.s[4:].max() <= 1e-12

    def test_rank_one_asked_for_two(self):
        a = np.outer([0.6, 0.8, 0.0], [1.0, 0.0, 2.0])
        res = top_svd(a, 2)
        assert abs(res.s[0] - np.sqrt(5.0)) <= 1e-12
        assert res.s[1] <= 1e-12
        assert np.abs(res.u[:, 0] - [0.6, 0.8, 0.0]).max() <= 1e-12

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="r must satisfy"):
            top_svd(np.eye(3), 0)
        with pytest.raises(ValueError, match="r must satisfy"):
            top_svd(np.ones((3, 2)), 3)


def dense_top_svd(m: np.ndarray, r: int) -> SvdResult:
    """Reference ``top_svd``: the top-``r`` eigenvectors of ``m @ m.T`` from a
    subset ``eigh`` at every size, then the small SVD of ``q.T @ m``."""
    rows = m.shape[0]
    _, q = scipy.linalg.eigh(
        (m @ m.T).T, subset_by_index=[rows - r, rows - 1], overwrite_a=True
    )
    p, s, vh = np.linalg.svd(q.T @ m, full_matrices=False)
    signs = lead_signs(q @ p)
    return SvdResult(q @ p * signs, s, vh.T * signs)


def planted(seed: int, rows: int, cols: int, values) -> np.ndarray:
    """A ``rows x cols`` matrix with the given singular values and random singular vectors."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, len(values))))
    v, _ = np.linalg.qr(rng.standard_normal((cols, len(values))))
    return (u * np.asarray(values, dtype=float)) @ v.T


class TestLanczosTopSvd:
    """From ``LANCZOS_MIN_ROWS`` rows on, ``top_svd`` takes its eigenvectors from
    Lanczos and must match the subset-``eigh`` reference."""

    @staticmethod
    def _assert_matches_dense(m, r):
        top, ref = top_svd(m, r), dense_top_svd(m, r)
        spectrum = np.linalg.svd(m, compute_uv=False)
        assert np.abs(top.s - ref.s).max() <= 1e-12 * spectrum[0]
        # vectors are defined up to sign only where the singular value is isolated
        gaps = np.abs(np.diff(spectrum))
        for j in range(r):
            if (j == 0 or gaps[j - 1] > 1e-6) and (j == len(gaps) or gaps[j] > 1e-6):
                sign = np.sign(top.u[:, j] @ ref.u[:, j])
                assert np.abs(top.u[:, j] - sign * ref.u[:, j]).max() <= 1e-9, j
                assert np.abs(top.v[:, j] - sign * ref.v[:, j]).max() <= 1e-9, j
        return top, ref

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("shape", [(600, 600), (900, 120), (600, 900)],
                             ids=["square", "tall", "wide"])
    def test_matches_the_dense_solve(self, eigen_calls, seed, shape):
        m = np.random.default_rng(seed).standard_normal(shape)
        for r in (1, 3, shape[0] // 8):
            self._assert_matches_dense(m, r)
        assert eigen_calls.count(("eigsh", False)) == 3

    def test_repeated_leading_values(self, eigen_calls):
        values = [5.0, 5.0, 5.0, 3.0, 3.0, *np.linspace(2.0, 0.1, 60)]
        m = planted(7, 700, 650, values)
        for r in (3, 5, 8):
            top, ref = self._assert_matches_dense(m, r)
            # the repeated values' vectors span the same subspaces
            for block in (slice(0, 3), slice(3, 5)):
                if block.stop <= r:
                    assert np.abs(top.u[:, block] @ top.u[:, block].T
                                  - ref.u[:, block] @ ref.u[:, block].T).max() <= 1e-9
        assert eigen_calls.count(("eigsh", False)) == 3

    def test_rank_shortage(self, eigen_calls):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((700, 3)) @ rng.standard_normal((3, 650))
        top, ref = self._assert_matches_dense(m, 5)
        assert top.s[3:].max() <= 1e-12 * top.s[0]
        assert eigen_calls.count(("eigsh", False)) == 1

    def test_two_calls_bit_equal(self):
        m = np.random.default_rng(3).standard_normal((640, 700))
        first, second = top_svd(m, 4), top_svd(m, 4)
        for a, b in zip((first.u, first.s, first.v), (second.u, second.s, second.v)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape, r", [((LANCZOS_MIN_ROWS - 1, 650), 3),
                                          ((LANCZOS_MIN_ROWS, 650), LANCZOS_MIN_ROWS // 8 + 1)],
                             ids=["few-rows", "large-r"])
    def test_dense_solve_below_the_crossover(self, eigen_calls, shape, r):
        top_svd(np.random.default_rng(0).standard_normal(shape), r)
        assert eigen_calls == [("eigh", False)]

    @pytest.mark.parametrize("error", [
        scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0))),
        scipy.sparse.linalg.ArpackError(-9999),
    ], ids=["no-convergence", "arpack-error"])
    def test_lanczos_failure_raises_without_fallback(self, monkeypatch, eigen_calls, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
        m = np.random.default_rng(0).standard_normal((LANCZOS_MIN_ROWS, 650))
        with pytest.raises(NumericalError, match=rf"no 3 leading .* {LANCZOS_MIN_ROWS} x "):
            top_svd(m, 3)
        assert eigen_calls == []


class TestInvSqrtSpd:
    def test_diagonal(self):
        assert np.allclose(inv_sqrt_spd(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]))
        assert np.allclose(inv_sqrt_spd(np.eye(3)), np.eye(3))

    def test_reconstruction_oracle(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = inv_sqrt_spd(a)
        assert np.allclose(x @ a @ x, np.eye(2), atol=1e-12)

    @given(st.integers(0, 300), st.integers(1, 7))
    def test_xax_identity(self, seed, n):
        a = random_spd(seed, n)
        x = inv_sqrt_spd(a)
        assert np.allclose(x @ a @ x, np.eye(n), atol=1e-8)
        assert np.allclose(x, x.T)

    def test_singular_raises(self):
        with pytest.raises(NumericalError, match="singular"):
            inv_sqrt_spd(np.diag([1.0, 0.0]))


class TestPartialGramSchmidt:
    def test_identity_full_rank(self):
        r = partial_gram_schmidt(np.eye(3), eta=0.0)
        assert r.shape == (3, 3)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)

    def test_empty_gram_gives_empty_factor(self):
        assert partial_gram_schmidt(np.zeros((0, 0)), 0.0).shape == (0, 0)

    def test_rank_one_stops_after_one_column(self):
        u = np.array([1.0, 2.0, -1.0, 0.5])
        k = np.outer(u, u)
        r = partial_gram_schmidt(k, eta=1e-12)
        assert r.shape[1] == 1
        assert np.allclose(r @ r.T, k, atol=1e-10)

    def test_low_rank_against_full_reconstruction(self):
        # rank-5 PSD in n=50: the greedy factor must stop near the true rank
        rng = np.random.default_rng(11)
        m = rng.standard_normal((50, 5))
        k = m @ m.T
        r = partial_gram_schmidt(k, eta=1e-10)
        assert r.shape[1] <= 6
        assert float(np.trace(k - r @ r.T)) <= 1e-10 + 1e-8 * np.trace(k)
        assert np.abs(k - r @ r.T).max() <= 1e-6

    def test_trace_cutoff_monotone(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((20, 20))
        k = m @ m.T
        cols = [partial_gram_schmidt(k, eta).shape[1] for eta in (0.0, 1.0, 10.0, 100.0)]
        assert cols == sorted(cols, reverse=True)

    def test_rejects_negative_eta_and_indefinite(self):
        with pytest.raises(ValueError, match="eta"):
            partial_gram_schmidt(np.eye(2), eta=-1.0)
        for eta in (np.nan, np.inf):
            with pytest.raises(ValueError, match="eta must be finite and nonnegative"):
                partial_gram_schmidt(np.eye(2), eta=eta)
        with pytest.raises(NumericalError, match="diagonal entry"):
            partial_gram_schmidt(np.diag([1.0, -1.0]), eta=0.0)
        # nonnegative diagonal, but one eigenvalue of -1: the residual of the
        # unpicked row goes negative after the first pivot
        with pytest.raises(NumericalError, match="residual diagonal"):
            partial_gram_schmidt(np.array([[1.0, 1.0], [1.0, 0.5]]), eta=0.0)
        with pytest.raises(ValueError, match="symmetric"):
            partial_gram_schmidt(np.array([[1.0, 0.5], [0.0, 1.0]]), eta=0.0)

    def test_psd_to_roundoff_gram_factors_at_eta_zero_in_any_units(self):
        # example8, n = 1500, data seed 0, view b is positive semi-definite to
        # roundoff, and its full factor leaves residual diagonal entries down
        # to about -1.2e-10: roundoff the check must not take for indefiniteness
        k = _gaussian_grams(1500)[1][0]
        r = partial_gram_schmidt(k, 0.0)
        assert r.shape[1] >= k.shape[0] - 1
        # in other units (a power-of-four scale, so the bits scale exactly)
        # the same factor passes the same check
        assert np.array_equal(partial_gram_schmidt(k * 4.0**6, 0.0), r * 2.0**6)

    def test_returns_its_own_contiguous_array(self):
        k = np.eye(4)
        r = partial_gram_schmidt(k, eta=0.0)
        assert r.flags.c_contiguous and r.base is None
        assert np.array_equal(k, np.eye(4))


def scalar_partial_gram_schmidt(k, eta):
    """The greedy pivoted Cholesky as a per-pivot loop over an n x n buffer.

    Before each step it stops when the residual trace is at most ``eta``, or
    when the largest residual diagonal entry is at most
    ``1e-12 * max(max diag, 1)``; otherwise that entry becomes the next pivot.
    Returns ``(factor, pivots)`` with the factor in the original row order.
    """
    n = k.shape[0]
    d = np.diag(k).astype(float).copy()
    r = np.zeros((n, n))
    picked = np.zeros(n, dtype=bool)
    pivot_floor = 1e-12 * max(float(d.max()), 1.0)
    pivots = []
    for cols in range(n):
        if float(d[~picked].sum()) <= eta:
            break
        pivot_idx = int(np.argmax(np.where(picked, -np.inf, d)))
        pivot = float(d[pivot_idx])
        if pivot <= pivot_floor:
            break
        col = (k[:, pivot_idx] - r[:, :cols] @ r[pivot_idx, :cols]) / np.sqrt(pivot)
        col[picked] = 0.0
        col[pivot_idx] = np.sqrt(pivot)
        r[:, cols] = col
        d -= col * col
        d[pivot_idx] = 0.0
        picked[pivot_idx] = True
        pivots.append(pivot_idx)
    return r[:, :len(pivots)], pivots


def pivot_order(factor):
    """Pivot rows read off a factor: the pivot of column j is zero after column j
    and, by the greedy rule, holds the largest entry among such rows."""
    trailing_zero = np.flip(np.cumsum(np.flip(factor != 0, axis=1), axis=1), axis=1) == 0
    order = []
    for j in range(factor.shape[1]):
        ends_here = ~trailing_zero[:, j] & (
            trailing_zero[:, j + 1] if j + 1 < factor.shape[1] else True
        )
        ends_here[order] = False
        order.append(int(np.argmax(np.where(ends_here, factor[:, j], -np.inf))))
    return order


def _gaussian_grams(n):
    from cancorr import (
        KernelSpec, build_gram_pair, generate_synthetic, get_recipe, median_heuristic, standardize,
    )

    data = standardize(generate_synthetic(get_recipe("example8", seed=0, n=n)))
    pair = build_gram_pair(
        data,
        KernelSpec("gaussian", median_heuristic(data.view_a)),
        KernelSpec("gaussian", median_heuristic(data.view_b)),
    )
    return [(pair.k_a, 1e-6 * np.trace(pair.k_a)), (pair.k_b, 1e-6 * np.trace(pair.k_b))]


def _small_cases():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((50, 5))
    u = np.array([1.0, 2.0, -1.0, 0.5])
    base = np.random.default_rng(9).standard_normal((12, 3))
    rows = np.vstack([base, base, base[:6]])
    sq = ((rows[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2)
    duplicated = np.exp(-sq / 8.0)
    return [
        (np.outer(u, u), 1e-12),
        (m @ m.T, 1e-10),
        (np.eye(3), 0.0),
        (duplicated, 1e-8 * np.trace(duplicated)),
    ]


class TestMatchesScalarPivotLoop:
    @pytest.mark.parametrize("case", range(4))
    def test_small_cases(self, case):
        k, eta = _small_cases()[case]
        self._assert_same(k, eta)

    @pytest.mark.parametrize("n", [100, 500, 2000])
    def test_example8_both_views(self, n):
        for k, eta in _gaussian_grams(n):
            self._assert_same(k, eta)

    @staticmethod
    def _assert_same(k, eta):
        ref, ref_pivots = scalar_partial_gram_schmidt(k, eta)
        new = partial_gram_schmidt(k, eta)
        assert new.shape == ref.shape
        # exactly duplicated rows of k tie under the greedy rule, so pivots are
        # compared as the rows of k they select
        assert np.array_equal(k[pivot_order(new)], k[ref_pivots])
        assert np.abs(new - ref).max() <= 1e-10




class TestChi2Quantile:
    def test_critical_values_table(self):
        # 0.99 quantiles at df 12, 6, 2
        assert abs(chi2_quantile(0.99, 12) - 26.217) <= 0.05
        assert abs(chi2_quantile(0.99, 6) - 16.812) <= 0.05
        assert abs(chi2_quantile(0.99, 2) - 9.2103) <= 0.05

    def test_median_of_df2_is_2ln2(self):
        # chi2(2) is exponential with mean 2, median 2 ln 2
        assert abs(chi2_quantile(0.5, 2) - 2.0 * np.log(2.0)) <= 1e-8

    def test_against_scipy(self):
        from scipy.stats import chi2

        for p in (0.01, 0.5, 0.95, 0.999):
            for df in (1, 3, 10, 40):
                assert abs(chi2_quantile(p, df) - chi2.ppf(p, df)) <= 1e-6

    @given(st.floats(0.001, 0.999), st.integers(1, 60))
    def test_roundtrip_through_cdf(self, p, df):
        from scipy.special import gammainc

        x = chi2_quantile(p, df)
        assert abs(gammainc(df / 2.0, x / 2.0) - p) <= 1e-6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chi2_quantile(0.0, 2)
        with pytest.raises(ValueError):
            chi2_quantile(1.0, 2)
        with pytest.raises(ValueError):
            chi2_quantile(0.5, 0)

    def test_package_import_leaves_out_scipy_optimize(self):
        # scipy.optimize costs about a tenth of a second of every CLI start-up
        # that loads it; the package itself loads no scipy and no layer until
        # a name is used, and the CLI module leaves out the kernel layer and
        # its scipy.spatial
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import json, sys\n"
            "import cancorr\n"
            "package = sorted(sys.modules)\n"
            "import cancorr.cli\n"
            "with_cli = sorted(sys.modules)\n"
            "[getattr(cancorr, name) for name in cancorr.__all__]\n"
            "print(json.dumps([package, with_cli, sorted(sys.modules)]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        )
        package, with_cli, every_layer = json.loads(out.stdout)
        assert "scipy.optimize" not in every_layer
        assert "cancorr.kernel" in every_layer
        assert not [m for m in package if m == "scipy" or m.startswith("scipy.")]
        assert [m for m in package if m.startswith("cancorr")] == ["cancorr"]
        assert "scipy.spatial" not in with_cli and "cancorr.kernel" not in with_cli


class TestHelpers:
    def test_fix_signs_flips_to_positive_lead(self):
        v = np.array([[0.1, -0.9], [-0.8, 0.2]])
        fixed = fix_signs(v)
        assert np.allclose(fixed, [[-0.1, 0.9], [0.8, -0.2]])

    def test_lead_signs_over_a_stack(self):
        stack = np.random.default_rng(0).standard_normal((3, 2, 5, 4))
        stack[0, 0, :, 0] = [-0.5, 0.5, 0.1, 0.0, 0.2]  # tie: the lower row leads
        signs = lead_signs(stack)
        assert signs.shape == (3, 2, 4)
        assert signs[0, 0, 0] == -1.0
        for idx in np.ndindex(3, 2):
            m = stack[idx]
            lead = m[np.argmax(np.abs(m), axis=0), np.arange(4)]
            assert np.array_equal(signs[idx], np.where(lead < 0, -1.0, 1.0))
            assert np.array_equal(fix_signs(m), m * signs[idx])
        assert np.array_equal(fix_signs(stack), stack * signs[..., None, :])
        assert lead_signs(np.zeros((2, 0, 3))).tolist() == [[1.0] * 3] * 2
        assert fix_signs(np.zeros((0, 0))).shape == (0, 0)

    def test_unit_images_over_a_stack(self):
        rng = np.random.default_rng(1)
        z_a, z_b = rng.standard_normal((2, 3, 6, 2)), rng.standard_normal((2, 3, 6, 2))
        z_b[1, 2, :, 1] = 0.0
        u_a, u_b, cos, norm_a, norm_b = unit_images(z_a, z_b)
        assert cos.shape == norm_a.shape == (2, 3, 2)
        assert norm_b[1, 2, 1] == 0.0 and cos[1, 2, 1] == 0.0
        for idx in np.ndindex(2, 3, 2):
            a, b = z_a[idx[:2]][:, idx[2]], z_b[idx[:2]][:, idx[2]]
            assert abs(norm_a[idx] - np.linalg.norm(a)) <= 1e-15 * norm_a[idx]
            if norm_b[idx] > 0:
                assert np.allclose(u_b[idx[:2]][:, idx[2]], b / np.linalg.norm(b))
                assert abs(cos[idx] - a @ b / (np.linalg.norm(a) * np.linalg.norm(b))) <= 1e-15

    def test_ranked_pairs_orients_and_sorts(self):
        rng = np.random.default_rng(2)
        z_a = rng.standard_normal((8, 4))
        z_a[:, 3] = z_a[:, 1]
        z_b = np.column_stack([z_a[:, 0] + 3.0 * rng.standard_normal(8), -z_a[:, 1],
                               z_a[:, 2] + rng.standard_normal(8), -z_a[:, 1]])
        coef_a, coef_b = rng.standard_normal((2, 5, 4))
        c_a, c_b, cos, u_a, u_b, n_a, n_b = ranked_pairs(coef_a, coef_b, z_a, z_b, 1e-300, "x")
        raw = unit_images(z_a, z_b)[2]
        order = np.argsort(-np.abs(raw), kind="stable")
        assert order[:2].tolist() == [1, 3]  # a tie keeps column order
        signs = np.where(raw < 0, -1.0, 1.0)[order]
        assert np.array_equal(cos, np.abs(raw)[order])
        assert np.array_equal(c_a, coef_a[:, order])
        assert np.array_equal(c_b, coef_b[:, order] * signs)
        assert np.allclose(np.einsum("ij,ij->j", u_a, u_b), cos)
        assert np.array_equal(n_b, np.linalg.norm(z_b, axis=0)[order])
        z_b[:, 2] = 0.0
        with pytest.raises(NumericalError, match="collapsed"):
            ranked_pairs(coef_a, coef_b, z_a, z_b, 1e-300, "collapsed")

    def test_pearson_columns_of_scaled_copies_stay_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            v = rng.standard_normal(int(rng.integers(3, 40)))
            r = pearson_columns(np.column_stack([v, 3.0 * v, -v]), v, "m", "v")
            assert np.abs(r).max() <= 1.0 and np.allclose(r, [1.0, 1.0, -1.0])

    def test_well_conditioned_on_ascending_spectra(self):
        spectra = np.array([[1.0, 2.0], [1e-11, 1.0], [2e-10, 1.0], [-1.0, 1.0], [0.0, 0.0]])
        assert well_conditioned(spectra).tolist() == [True, False, True, False, False]
        assert not well_conditioned(spectra[1])

    def test_check_symmetric_accepts_roundoff(self):
        a = random_spd(0, 4)
        jittered = a + 1e-15 * np.triu(np.ones_like(a))
        check_symmetric(jittered)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_check_symmetric_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match=r"must be square, got shape"):
            check_symmetric(np.zeros(shape))

    def test_check_symmetric_rejects_nonfinite(self):
        a = np.eye(2)
        a[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            check_symmetric(a)

    @pytest.mark.parametrize("n", [257, 600])
    def test_check_symmetric_rejects_skew_in_the_last_partial_block(self, n):
        # blocks of SYM_BLOCK = 256 rows: the pair (n - 1, 3) lies in the last,
        # partial row block and in the first column block, off the diagonal blocks
        a = random_symmetric(n, n)
        check_symmetric(a)
        a[n - 1, 3] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric(a)

    def test_check_symmetric_scale_set_outside_the_first_block(self):
        # the largest entry sits in the third row block; it alone lets a skew
        # of 1e-7 pass the relative tolerance
        a = random_symmetric(5, 600)
        a[10, 300] += 1e-7
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric(a)
        a[550, 550] = 1e6
        check_symmetric(a)
