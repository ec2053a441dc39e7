"""Linear canonical correlation analysis via three equivalent decompositions.

All solvers consume a standardized :class:`~cancorr.dataset.PairedDataset`,
maximise the cosine between unit-norm images ``z_a = X_a w_a`` and
``z_b = X_b w_b``, and agree with each other up to sign and roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CovarianceBlocks, PairedDataset, covariance_blocks
from .numerics import (
    COND_LIMIT, NumericalError, fix_signs, ranked_pairs, unit_images, well_conditioned,
)

# numpy's linalg serves every solver but the generalized pencil, whose
# scipy.linalg import sits inside fit_generalized_eig: the fit, test, biplot
# and cv commands start without scipy.linalg unless they run that solver.


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


def _check_conditioning(eigs: np.ndarray, name: str, ridge: float = 0.0) -> None:
    """Reject a singular block from its ascending eigenvalues ``eigs`` at ridge ``ridge``.

    The refusal names the increase ``d`` the ridge needs: the test passes once
    ``eigs[0] + d > (eigs[-1] + d) / COND_LIMIT``, and the amount shown is
    rounded up to four digits, so that it passes.
    """
    if not well_conditioned(eigs):
        needed = max(eigs[-1] / COND_LIMIT - eigs[0], 0.0) / (1.0 - 1.0 / COND_LIMIT)
        shown = f"{needed:.3e}"
        if float(shown) <= needed:
            mantissa, exponent = shown.split("e")
            shown = f"{(float(mantissa) + 1e-3) * 10.0 ** int(exponent):.3e}"
        raise NumericalError(
            f"covariance block {name} is numerically singular at ridge {ridge:g} "
            f"(condition estimate above {COND_LIMIT:.0e}); "
            f"refit with fit_regularized and increase the ridge by at least {shown}"
        )


def _tall_grid_svd(cross: np.ndarray, scale_rows: np.ndarray, scale_cols: np.ndarray, r: int):
    """SVDs of ``diag(scale_rows[i]) cross diag(scale_cols[j])`` for every (i, j).

    ``cross`` is tall (p >= q).  A row scaling is reduced once per ``i`` by the
    QR ``diag(scale_rows[i]) cross = Q_i T_i``; the q x q blocks
    ``T_i diag(scale_cols[j]) = P S V^T`` then give ``u = Q_i P``, ``s = S`` and
    ``v = V`` (Björck & Golub 1973).  Returns the leading ``r`` left vectors
    (G1, G2, p, r), the singular values (G1, G2, q) and the leading ``r``
    right vectors (G1, G2, q, r).
    """
    orth, tri = np.linalg.qr(scale_rows[:, :, None] * cross)
    left, s, vh = np.linalg.svd(tri[:, None] * scale_cols[None, :, None, :])
    return orth[:, None] @ left[..., :r], s, vh[..., :r, :].swapaxes(-1, -2)


class _SpectralCore:
    """Whiten-then-SVD solver over one eigendecomposition per within-view block.

    With ``C_aa = U_a diag(l_a) U_a.T`` (likewise for view b), the whitened
    cross block is ``diag((l_a + c1)**-1/2) U_a.T C_ab U_b diag((l_b + c2)**-1/2)
    = U S V^T`` and ``w_a = U_a diag((l_a + c1)**-1/2) u`` meets the ridged
    constraint ``w.T (C + c I) w = 1``.  A ridge only shifts the eigenvalues,
    so one core serves a whole ridge grid, and a ridge on the taller view only
    rescales the rows of the cross block: that side is reduced by one QR per
    ridge value, and each grid cell takes the SVD of a small square block.
    """

    def __init__(self, blocks: CovarianceBlocks):
        self.values_a, self.vectors_a = np.linalg.eigh(blocks.c_aa)
        self.values_b, self.vectors_b = np.linalg.eigh(blocks.c_bb)
        self.cross = self.vectors_a.T @ blocks.c_ab @ self.vectors_b

    def solve(self, c1_grid, c2_grid, r: int):
        """Top ``r`` weight pairs for every cell of the ridge grid ``c1_grid x c2_grid``.

        Solves the (G1, G2) stack of whitened cross blocks by ``_tall_grid_svd``
        on the taller view (the transposed block when p < q) and maps the
        leading ``r`` columns back.  Returns ``(w_a, w_b, s, ok)``: weights of
        shape (G1, G2, p, r) and (G1, G2, q, r), the singular values
        (G1, G2, min(p, q)), and the (G1, G2) mask of cells whose ridged
        blocks pass the ``COND_LIMIT`` test.  Cells outside the mask hold
        finite values of no meaning.
        """
        ridged_a = self.values_a + np.asarray(c1_grid, dtype=float)[:, None]
        ridged_b = self.values_b + np.asarray(c2_grid, dtype=float)[:, None]
        ok_a, ok_b = well_conditioned(ridged_a), well_conditioned(ridged_b)
        # a failed block is whitened by ones instead, which keeps the stack finite
        scale_a = 1.0 / np.sqrt(np.where(ok_a[:, None], ridged_a, 1.0))
        scale_b = 1.0 / np.sqrt(np.where(ok_b[:, None], ridged_b, 1.0))
        if self.cross.shape[0] >= self.cross.shape[1]:
            u, s, v = _tall_grid_svd(self.cross, scale_a, scale_b, r)
        else:
            v, s, u = (x.swapaxes(0, 1) for x in _tall_grid_svd(self.cross.T, scale_b, scale_a, r))
        w_a = self.vectors_a @ (scale_a[:, None, :, None] * u)
        w_b = self.vectors_b @ (scale_b[None, :, :, None] * v)
        ok = ok_a[:, None] & ok_b[None, :]
        return w_a, w_b, s, ok

    def weights(self, c1: float, c2: float, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Top ``r`` weight pairs at one ridge pair, the 1 x 1 grid of ``solve``;
        a failed cell raises."""
        w_a, w_b, _, ok = self.solve([c1], [c2], r)
        if not ok[0, 0]:
            _check_conditioning(self.values_a + c1, "C_aa", c1)
            _check_conditioning(self.values_b + c2, "C_bb", c2)
        return w_a[0, 0], w_b[0, 0]


def _unit_variance_columns(w: np.ndarray, metric: np.ndarray) -> np.ndarray:
    scale = np.einsum("ij,jk,ki->i", w.T, metric, w)
    if np.any(scale <= 0):
        raise NumericalError(
            "weight normalisation failed: a canonical correlation is exactly 0, "
            "so that weight is undefined; fit with svd"
        )
    return w / np.sqrt(scale)


def _resolve_r(r: int | None, blocks: CovarianceBlocks | PairedDataset) -> int:
    limit = min(blocks.p, blocks.q)
    if r is None:
        return limit
    if not 1 <= r <= limit:
        raise ValueError(f"components must satisfy 1 <= r <= min(p, q) = {limit}, got {r}")
    return int(r)


def _gated_blocks(data: PairedDataset, r: int | None) -> tuple[CovarianceBlocks, int]:
    """The eigen solvers' prologue: the covariance blocks and the resolved ``r``,
    once both within-view blocks pass the ``COND_LIMIT`` gate."""
    blocks = covariance_blocks(data)
    r = _resolve_r(r, blocks)
    _check_conditioning(np.linalg.eigvalsh(blocks.c_aa), "C_aa")
    _check_conditioning(np.linalg.eigvalsh(blocks.c_bb), "C_bb")
    return blocks, r


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
    w_second = _unit_variance_columns(vectors[:, order], c_second)
    w_first = _unit_variance_columns(np.linalg.solve(c_first, c_fs @ w_second), c_first)
    return w_first, w_second


def fit_standard_eig(data: PairedDataset, r: int | None = None) -> CcaModel:
    """Fit by the one-view standard eigenvalue problem.

    The squared correlations are the eigenvalues of
    ``inv(C_bb) @ C_ba @ inv(C_aa) @ C_ab``; the problem is posed on whichever
    view has fewer variables and the other view's weights are recovered as
    ``w_a = inv(C_aa) @ C_ab @ w_b`` scaled to unit variance, with no division
    by ``rho``, so a zero correlation fits unless ``C_ab @ w_b`` is exactly 0.

    Parameters
    ----------
    data : PairedDataset
        Standardized training data.
    r : int, optional
        Number of components; defaults to ``min(p, q)``.
    """
    blocks, r = _gated_blocks(data, r)
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
    import scipy.linalg

    blocks, r = _gated_blocks(data, r)
    p, q = blocks.p, blocks.q
    a = np.block([[np.zeros((p, p)), blocks.c_ab], [blocks.c_ba, np.zeros((q, q))]])
    b = np.block([[blocks.c_aa, np.zeros((p, q))], [np.zeros((q, p)), blocks.c_bb]])
    values, vectors = scipy.linalg.eigh(a, b)
    top = np.argsort(-values, kind="stable")[:r]
    w_a = _unit_variance_columns(vectors[:p, top], blocks.c_aa)
    w_b = _unit_variance_columns(vectors[p:, top], blocks.c_bb)
    return _finalize(data, w_a, w_b, "generalized_eig")


def fit_svd(data: PairedDataset, r: int | None = None) -> CcaModel:
    """Fit from the singular value decomposition of the whitened cross block.

    With ``M = C_aa**-1/2 @ C_ab @ C_bb**-1/2 = U S V^T`` the correlations
    are the singular values and the weights are the back-transformed singular
    vectors ``w_a = C_aa**-1/2 u``, ``w_b = C_bb**-1/2 v``.  Each block is
    eigendecomposed once: the inverse square roots are applied in its
    eigenbasis by the spectral core that the ridge fit and ridge CV share,
    which takes the SVD of ``M`` through the QR of its taller orientation.
    """
    blocks = covariance_blocks(data)
    w_a, w_b = _SpectralCore(blocks).weights(0.0, 0.0, _resolve_r(r, blocks))
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
