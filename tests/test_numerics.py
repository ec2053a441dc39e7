"""Decomposition helpers: hand-checked values, reconstruction oracles, properties."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cancorr.numerics import (
    NumericalError,
    chi2_quantile,
    check_symmetric,
    fix_signs,
    gen_eig_sym,
    inv_sqrt_spd,
    partial_gram_schmidt,
    svd,
    sym_eig,
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
        with pytest.raises(NumericalError):
            partial_gram_schmidt(np.diag([1.0, -1.0]), eta=0.0)


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
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, cancorr; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"


class TestHelpers:
    def test_fix_signs_flips_to_positive_lead(self):
        v = np.array([[0.1, -0.9], [-0.8, 0.2]])
        fixed = fix_signs(v)
        assert np.allclose(fixed, [[-0.1, 0.9], [0.8, -0.2]])

    def test_check_symmetric_accepts_roundoff(self):
        a = random_spd(0, 4)
        jittered = a + 1e-15 * np.triu(np.ones_like(a))
        check_symmetric(jittered)

    def test_check_symmetric_rejects_nonfinite(self):
        a = np.eye(2)
        a[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            check_symmetric(a)
