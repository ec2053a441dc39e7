"""Linear canonical correlation analysis via three equivalent decompositions.

All solvers consume a standardized :class:`~cancorr.dataset.PairedDataset`,
maximise the cosine between unit-norm images ``z_a = X_a w_a`` and
``z_b = X_b w_b``, and agree with each other up to sign and roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dataset import CovarianceBlocks, PairedDataset, covariance_blocks
from .numerics import (
    COND_LIMIT, NumericalError, fix_signs, gen_eig_sym, ranked_pairs, unit_images,
    well_conditioned,
)

# Eigenvalues may stray this far outside [0, 1] before being treated as errors.
CLIP_TOL = 1e-8


@dataclass(frozen=True)
class CcaModel:
    """Fitted canonical weight pairs with their correlations and training images.

    Weight columns are scaled to the unit-variance constraint
    ``w.T @ C @ w = 1`` (with the ridge included when one was used); image
    columns are rescaled to unit Euclidean norm so that
    ``correlations[i] == z_a[:, i] @ z_b[:, i]``.
    """

    w_a: np.ndarray
    w_b: np.ndarray
    correlations: np.ndarray
    z_a: np.ndarray
    z_b: np.ndarray
    solver: str

    @property
    def r(self) -> int:
        return self.w_a.shape[1]

    @property
    def p(self) -> int:
        return self.w_a.shape[0]

    @property
    def q(self) -> int:
        return self.w_b.shape[0]


@dataclass(frozen=True)
class ProjectionResult:
    """Held-out images and their per-component cosines."""

    z_a: np.ndarray
    z_b: np.ndarray
    correlations: np.ndarray


def _clip_unit_interval(values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.size and (values.min() < -CLIP_TOL or values.max() > 1.0 + CLIP_TOL):
        raise NumericalError(
            f"{what} outside [0, 1] beyond tolerance: range "
            f"[{values.min():.6e}, {values.max():.6e}]"
        )
    return np.clip(values, 0.0, 1.0)


def _check_conditioning(eigs: np.ndarray, name: str, ridge: float | None = None) -> None:
    """Reject a singular block from its ascending (ridged) eigenvalues ``eigs``."""
    if well_conditioned(eigs):
        return
    needed = max(eigs[-1] / COND_LIMIT - eigs[0], 0.0)
    if ridge is None:
        raise NumericalError(
            f"covariance block {name} is numerically singular "
            f"(condition estimate above {COND_LIMIT:.0e}); "
            f"use fit_regularized with a ridge of at least {needed:.3e} on this block"
        )
    raise NumericalError(
        f"covariance block {name} stays numerically singular at ridge {ridge:g}; "
        f"increase the ridge by at least {needed:.3e}"
    )


class _SpectralCore:
    """Whiten-then-SVD solver over one eigendecomposition per within-view block.

    With ``C_aa = U_a diag(l_a) U_a.T`` (likewise for view b), the whitened
    cross block is ``diag((l_a + c1)**-1/2) U_a.T C_ab U_b diag((l_b + c2)**-1/2)
    = U S V^T`` and ``w_a = U_a diag((l_a + c1)**-1/2) u`` meets the ridged
    constraint ``w.T (C + c I) w = 1``; a ridge only shifts the eigenvalues,
    so one core serves a whole ridge grid.
    """

    def __init__(self, blocks: CovarianceBlocks):
        self.values_a, self.vectors_a = scipy.linalg.eigh(blocks.c_aa)
        self.values_b, self.vectors_b = scipy.linalg.eigh(blocks.c_bb)
        self.cross = self.vectors_a.T @ blocks.c_ab @ self.vectors_b

    def solve(self, c1_grid, c2_grid, r: int):
        """Top ``r`` weight pairs for every cell of the ridge grid ``c1_grid x c2_grid``.

        Builds the (G1, G2, p, q) stack of whitened cross blocks, takes one
        stacked SVD and maps the leading ``r`` columns back.  Returns
        ``(w_a, w_b, s, ok)``: weights of shape (G1, G2, p, r) and
        (G1, G2, q, r), the singular values (G1, G2, min(p, q)), and the
        (G1, G2) mask of cells whose ridged blocks pass the ``COND_LIMIT``
        test and whose leading singular value is at most ``1 + CLIP_TOL``.
        Cells outside the mask hold finite values of no meaning.
        """
        ridged_a = self.values_a + np.asarray(c1_grid, dtype=float)[:, None]
        ridged_b = self.values_b + np.asarray(c2_grid, dtype=float)[:, None]
        ok_a, ok_b = well_conditioned(ridged_a), well_conditioned(ridged_b)
        # a failed block is whitened by ones instead, which keeps the stack finite
        scale_a = 1.0 / np.sqrt(np.where(ok_a[:, None], ridged_a, 1.0))
        scale_b = 1.0 / np.sqrt(np.where(ok_b[:, None], ridged_b, 1.0))
        u, s, vh = np.linalg.svd(
            scale_a[:, None, :, None] * self.cross * scale_b[None, :, None, :],
            full_matrices=False,
        )
        w_a = self.vectors_a @ (scale_a[:, None, :, None] * u[..., :r])
        w_b = self.vectors_b @ (scale_b[None, :, :, None] * vh[..., :r, :].swapaxes(-1, -2))
        ok = ok_a[:, None] & ok_b[None, :] & (s[..., 0] <= 1.0 + CLIP_TOL)
        return w_a, w_b, s, ok

    def weights(self, c1: float, c2: float, r: int, ridged: bool) -> tuple[np.ndarray, np.ndarray]:
        """Top ``r`` weight pairs at one ridge pair, the 1 x 1 grid of ``solve``.

        A failed cell raises; ``ridged`` words the errors for fit_regularized.
        """
        w_a, w_b, s, ok = self.solve([c1], [c2], r)
        if not ok[0, 0]:
            _check_conditioning(self.values_a + c1, "C_aa", c1 if ridged else None)
            _check_conditioning(self.values_b + c2, "C_bb", c2 if ridged else None)
            _clip_unit_interval(s[0, 0, :r], "singular values")
        return w_a[0, 0], w_b[0, 0]


def _unit_variance_columns(w: np.ndarray, metric: np.ndarray) -> np.ndarray:
    scale = np.einsum("ij,jk,ki->i", w.T, metric, w)
    if np.any(scale <= 0):
        raise NumericalError("weight normalisation failed: nonpositive variance under the metric")
    return w / np.sqrt(scale)


def _resolve_r(r: int | None, blocks: CovarianceBlocks) -> int:
    limit = min(blocks.p, blocks.q)
    if r is None:
        return limit
    if not 1 <= r <= limit:
        raise ValueError(f"components must satisfy 1 <= r <= min(p, q) = {limit}, got {r}")
    return int(r)


def _finalize(data: PairedDataset, w_a: np.ndarray, w_b: np.ndarray, solver: str) -> CcaModel:
    """Fix signs, then orient the pairs and sort them by image cosine (``ranked_pairs``)."""
    w_a = fix_signs(w_a)
    w_a, w_b, corr, z_a, z_b, _, _ = ranked_pairs(
        w_a, w_b, data.view_a @ w_a, data.view_b @ w_b, 1e-300,
        "an image collapsed to the zero vector; data is degenerate",
    )
    return CcaModel(w_a=w_a, w_b=w_b, correlations=corr, z_a=z_a, z_b=z_b, solver=solver)


def _eig_core(c_first: np.ndarray, c_second: np.ndarray, c_fs: np.ndarray, r: int):
    """Solve the one-view eigenproblem on the ``second`` (smaller) side.

    Returns unit-metric-scaled weights for both sides given the within-view
    blocks ``c_first``, ``c_second`` and the cross block ``c_fs`` (first rows,
    second columns).
    """
    m = np.linalg.solve(c_second, c_fs.T @ np.linalg.solve(c_first, c_fs))
    values, vectors = np.linalg.eig(m)
    scale = 1.0 + float(np.abs(values).max(initial=0.0))
    if float(np.abs(values.imag).max(initial=0.0)) > 1e-8 * scale:
        raise NumericalError("one-view eigenproblem produced a complex spectrum")
    values = values.real
    vectors = vectors.real
    order = np.argsort(-values, kind="stable")[:r]
    rho2 = _clip_unit_interval(values[order], "squared correlations")
    rho = np.sqrt(rho2)
    if np.any(rho < 1e-12):
        raise NumericalError(
            "requested components exceed the numerical rank of the cross-covariance"
        )
    w_second = _unit_variance_columns(vectors[:, order], c_second)
    w_first = np.linalg.solve(c_first, c_fs @ w_second) / rho
    w_first = _unit_variance_columns(w_first, c_first)
    return w_first, w_second


def fit_standard_eig(data: PairedDataset, r: int | None = None) -> CcaModel:
    """Fit by the one-view standard eigenvalue problem.

    The squared correlations are the eigenvalues of
    ``inv(C_bb) @ C_ba @ inv(C_aa) @ C_ab`` (clipped to [0, 1]); the problem
    is posed on whichever view has fewer variables and the other view's
    weights are recovered as ``w_a = inv(C_aa) @ C_ab @ w_b / rho``.

    Parameters
    ----------
    data : PairedDataset
        Standardized training data.
    r : int, optional
        Number of components; defaults to ``min(p, q)``.
    """
    blocks = covariance_blocks(data)
    r = _resolve_r(r, blocks)
    _check_conditioning(scipy.linalg.eigvalsh(blocks.c_aa), "C_aa")
    _check_conditioning(scipy.linalg.eigvalsh(blocks.c_bb), "C_bb")
    if blocks.q <= blocks.p:
        w_a, w_b = _eig_core(blocks.c_aa, blocks.c_bb, blocks.c_ab, r)
    else:
        w_b, w_a = _eig_core(blocks.c_bb, blocks.c_aa, blocks.c_ba, r)
    return _finalize(data, w_a, w_b, "standard_eig")


def fit_generalized_eig(data: PairedDataset, r: int | None = None) -> CcaModel:
    """Fit via the symmetric (p + q) pencil.

    Solves ``A v = rho B v`` with ``A = [[0, C_ab], [C_ba, 0]]`` and
    ``B = blkdiag(C_aa, C_bb)``; the spectrum comes in (rho, -rho) pairs plus
    ``|p - q|`` zeros, and the top ``r`` eigenvectors are split into the two
    weight blocks and renormalised to the unit-variance constraint.
    """
    blocks = covariance_blocks(data)
    r = _resolve_r(r, blocks)
    _check_conditioning(scipy.linalg.eigvalsh(blocks.c_aa), "C_aa")
    _check_conditioning(scipy.linalg.eigvalsh(blocks.c_bb), "C_bb")
    p, q = blocks.p, blocks.q
    a = np.zeros((p + q, p + q))
    a[:p, p:] = blocks.c_ab
    a[p:, :p] = blocks.c_ba
    b = np.zeros((p + q, p + q))
    b[:p, :p] = blocks.c_aa
    b[p:, p:] = blocks.c_bb
    res = gen_eig_sym(a, b)
    _clip_unit_interval(res.values[:r], "leading pencil eigenvalues")
    w_a = _unit_variance_columns(res.vectors[:p, :r], blocks.c_aa)
    w_b = _unit_variance_columns(res.vectors[p:, :r], blocks.c_bb)
    return _finalize(data, w_a, w_b, "generalized_eig")


def fit_svd(data: PairedDataset, r: int | None = None) -> CcaModel:
    """Fit from the singular value decomposition of the whitened cross block.

    With ``M = C_aa**-1/2 @ C_ab @ C_bb**-1/2 = U S V^T`` the correlations
    are the singular values and the weights are the back-transformed singular
    vectors ``w_a = C_aa**-1/2 u``, ``w_b = C_bb**-1/2 v``.  Each block is
    eigendecomposed once: the inverse square roots are applied in its
    eigenbasis by the spectral core that the ridge fit and ridge CV share.
    """
    blocks = covariance_blocks(data)
    w_a, w_b = _SpectralCore(blocks).weights(0.0, 0.0, _resolve_r(r, blocks), ridged=False)
    return _finalize(data, w_a, w_b, "svd")


SOLVERS = {
    "eig": fit_standard_eig,
    "geneig": fit_generalized_eig,
    "svd": fit_svd,
}


def project(model: CcaModel, test: PairedDataset) -> ProjectionResult:
    """Project held-out data through fitted weights and report image cosines.

    The test dataset must be standardized (with the training parameters) and
    have the same column counts as the training views.  Images are rescaled
    to unit norm before the cosine, so the result is comparable with the
    training correlations.
    """
    if not test.standardized:
        raise ValueError("test data must be standardized with the training parameters")
    if test.p != model.p or test.q != model.q:
        raise ValueError(
            f"test column counts ({test.p}, {test.q}) do not match "
            f"the model ({model.p}, {model.q})"
        )
    z_a, z_b, corr, norm_a, norm_b = unit_images(test.view_a @ model.w_a, test.view_b @ model.w_b)
    if np.any(norm_a < 1e-300) or np.any(norm_b < 1e-300):
        raise NumericalError("a projected test image collapsed to the zero vector")
    return ProjectionResult(z_a=z_a, z_b=z_b, correlations=corr)
