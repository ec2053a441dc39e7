"""Dense symmetric decompositions and distribution helpers shared by the fitting routines.

Everything here works on plain float ndarrays.  Eigenvalues and singular
values are always returned in descending order, and eigenvector signs are
fixed deterministically (largest-magnitude entry positive) so repeated runs
and different solvers produce comparable weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import chdtri

# Relative symmetry tolerance for inputs that must be symmetric.
SYM_RTOL = 1e-12
# Rows per block of the symmetry check.
SYM_BLOCK = 256
# Condition-number ceiling; blocks beyond this are treated as singular.
COND_LIMIT = 1e10


class NumericalError(ValueError):
    """A matrix failed the conditioning or definiteness a solver requires."""


def as_checked_array(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def check_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is square and symmetric within relative tolerance ``SYM_RTOL``.

    The largest ``|a_ij - a_ji|`` must not exceed ``SYM_RTOL * max(max |a|, 1)``.
    Both maxima are taken in one pass over ``SYM_BLOCK``-row blocks, so the
    temporaries stay a block in size.
    """
    a = as_checked_array(a, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale, skew = 1.0, 0.0
    for start in range(0, a.shape[0], SYM_BLOCK):
        stop = start + SYM_BLOCK
        rows = a[start:stop]
        scale = max(scale, float(np.abs(rows).max()))
        # |a - a.T| is symmetric: the columns from the diagonal on cover every pair
        skew = max(skew, float(np.abs(rows[:, start:] - a[start:, start:stop].T).max()))
    if skew > SYM_RTOL * scale:
        raise ValueError(f"{name} is not symmetric within relative tolerance {SYM_RTOL:g}")
    return a


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry of each column is positive.

    Ties in magnitude are broken by the lowest row index (argmax picks the
    first maximiser), which keeps the convention deterministic.
    """
    v = np.asarray(vectors, dtype=float)
    return v * lead_signs(v)


def lead_signs(m: np.ndarray) -> np.ndarray:
    """Column signs, ``-1.0`` or ``1.0``, that make each column's largest-magnitude entry positive.

    Works on stacks of shape (..., rows, cols) and returns shape (..., cols).
    Ties in magnitude go to the lowest row index.  Multiplying by a sign is
    exact, so a flipped column keeps its bits up to the sign.
    """
    if m.shape[-2] == 0:  # empty columns have no lead entry to flip
        return np.ones(m.shape[:-2] + m.shape[-1:])
    lead = np.argmax(np.abs(m), axis=-2)
    values = np.take_along_axis(m, lead[..., None, :], axis=-2)[..., 0, :]
    return np.where(values < 0, -1.0, 1.0)


def well_conditioned(values: np.ndarray) -> np.ndarray:
    """Whether ascending spectra (along the last axis) are positive within ``COND_LIMIT``.

    A spectrum passes when its largest value is positive and its smallest
    exceeds the largest divided by ``COND_LIMIT``.
    """
    return (values[..., -1] > 0) & (values[..., 0] > values[..., -1] / COND_LIMIT)


def unit_images(z_a: np.ndarray, z_b: np.ndarray):
    """Unit-normalise paired image columns and take their cosines.

    Works on stacks of shape (..., n, r).  Returns ``(u_a, u_b, cosines,
    norm_a, norm_b)``: the unit images, the per-column cosines
    ``sum(u_a * u_b)`` of shape (..., r), and the image norms, so each caller
    applies its own rule to collapsed images (a zero column gives NaN).
    """
    norm_a = np.linalg.norm(z_a, axis=-2)
    norm_b = np.linalg.norm(z_b, axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_a = z_a / norm_a[..., None, :]
        u_b = z_b / norm_b[..., None, :]
    return u_a, u_b, np.einsum("...ij,...ij->...j", u_a, u_b), norm_a, norm_b


def pearson_columns(mat: np.ndarray, vec: np.ndarray, mat_name: str, vec_name: str) -> np.ndarray:
    """Pearson correlation of every column of ``mat`` (n, k) with ``vec`` (n,).

    A constant ``vec`` or column raises ``ValueError`` naming it by
    ``vec_name`` or ``mat_name``.
    """
    centered = mat - mat.mean(axis=0)
    v = vec - vec.mean()
    v_norm = np.linalg.norm(v)
    col_norms = np.linalg.norm(centered, axis=0)
    if v_norm < 1e-300:
        raise ValueError(f"{vec_name} is constant; correlation undefined")
    if np.any(col_norms < 1e-300):
        raise ValueError(f"{mat_name} is constant; correlation undefined")
    return (centered.T @ v) / (col_norms * v_norm)


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues in descending order with sign-fixed eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = u @ diag(s) @ v.T`` with deterministic column signs."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def sym_eig(a) -> EigenResult:
    """Eigendecomposition of a symmetric matrix.

    Returns eigenvalues descending and orthonormal eigenvectors with the
    largest-magnitude entry of each column positive.
    """
    a = check_symmetric(a)
    values, vectors = scipy.linalg.eigh(a)
    order = np.argsort(-values, kind="stable")
    return EigenResult(values[order], fix_signs(vectors[:, order]))


def gen_eig_sym(a, b) -> EigenResult:
    """Solve ``a v = lam b v`` for symmetric ``a`` and symmetric positive-definite ``b``.

    Eigenvectors are B-normalised (``v.T @ b @ v = 1``) and eigenvalues are
    returned in descending order.
    """
    a = check_symmetric(a, name="A")
    b = check_symmetric(b, name="B")
    if a.shape != b.shape:
        raise ValueError(f"A and B must have equal shapes, got {a.shape} and {b.shape}")
    beigs = scipy.linalg.eigvalsh(b)
    if not well_conditioned(beigs):
        raise NumericalError(
            "B is not positive definite within working precision "
            f"(eigenvalue range [{beigs[0]:.3e}, {beigs[-1]:.3e}]); "
            "add ridge regularisation to the constraint blocks"
        )
    values, vectors = scipy.linalg.eigh(a, b)
    order = np.argsort(-values, kind="stable")
    return EigenResult(values[order], fix_signs(vectors[:, order]))


def svd(m) -> SvdResult:
    """Thin singular value decomposition with deterministic signs.

    Column ``j`` of ``u`` has its largest-magnitude entry positive; the
    matching column of ``v`` is flipped together with it so that
    ``m = u @ diag(s) @ v.T`` always holds.
    """
    m = as_checked_array(m)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return _signed_svd(u, s, vh.T)


def _signed_svd(u: np.ndarray, s: np.ndarray, v: np.ndarray) -> SvdResult:
    """Flip each ``u`` column to a positive largest-magnitude entry, ``v`` with it."""
    signs = lead_signs(u)
    return SvdResult(u * signs, s, v * signs)


def inv_sqrt_spd(a) -> np.ndarray:
    """Inverse matrix square root of a symmetric positive-definite matrix."""
    a = check_symmetric(a)
    values, vectors = scipy.linalg.eigh(a)
    if not well_conditioned(values):
        raise NumericalError(
            "matrix is numerically singular "
            f"(eigenvalue range [{values[0]:.3e}, {values[-1]:.3e}]); "
            "use the ridge-regularised fit instead"
        )
    x = (vectors / np.sqrt(values)) @ vectors.T
    # symmetrise away the last bits of roundoff
    return (x + x.T) / 2.0


def top_svd(m, r: int) -> SvdResult:
    """The ``r`` leading singular triplets of ``m``, with ``svd``'s sign convention.

    Takes the top-``r`` eigenvectors ``q`` of ``m @ m.T`` through a subset
    ``eigh`` and then the small SVD ``q.T @ m = P S V^T``, so ``u = q P``,
    ``s = S`` and ``v = V``.  The singular values come from that last SVD
    rather than from the squared eigenvalues, so a rank shortage still shows
    as singular values at roundoff level.
    """
    m = as_checked_array(m)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    rows = m.shape[0]
    if not 1 <= r <= min(m.shape):
        raise ValueError(f"r must satisfy 1 <= r <= {min(m.shape)}, got {r}")
    # ``m @ m.T`` is exactly symmetric, so its transpose is an F-order view
    # of the same matrix that ``eigh`` overwrites instead of copying
    _, q = scipy.linalg.eigh(
        (m @ m.T).T, subset_by_index=[rows - r, rows - 1], overwrite_a=True
    )
    p, s, vh = np.linalg.svd(q.T @ m, full_matrices=False)
    return _signed_svd(q @ p, s, vh.T)


def partial_gram_schmidt(k, eta: float) -> np.ndarray:
    """Pivoted incomplete Cholesky factorisation of a positive semi-definite matrix.

    Greedily eliminates the largest remaining diagonal entry until the trace
    of the residual ``k - r @ r.T`` drops to ``eta`` or below, or the next
    pivot is a numerical zero (at most ``1e-12 * max(max diag, 1)``).  Returns
    the factor ``r`` with one column per elimination step, in the original row
    order (permuting rows by pivot order gives a lower-trapezoidal matrix).

    LAPACK's blocked ``dpstrf`` does the elimination with the same pivot rule
    and stops at the same pivot floor; the trace cutoff is applied afterwards
    from the column norms, since the residual trace after ``j`` columns is
    ``trace(k) - sum of the first j squared column norms``.

    Parameters
    ----------
    k : array_like
        Symmetric positive semi-definite matrix, shape (n, n).
    eta : float
        Nonnegative trace cutoff for the residual.

    Returns
    -------
    ndarray of shape (n, m) with m <= n such that ``k ~= r @ r.T``.
    """
    k = check_symmetric(k, name="gram matrix")
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    n = k.shape[0]
    d = np.diag(k).copy()
    if d.size and float(d.min()) < -1e-10:
        raise NumericalError(
            f"diagonal entry {d.min():.3e} is negative; input is not positive semi-definite"
        )
    if n == 0:
        return np.zeros((0, 0))
    # pivots below this are numerical zeros: extending would only add noise
    pivot_floor = 1e-12 * max(float(d.max()), 1.0)
    work = np.array(k, order="F")
    c, piv, rank, info = scipy.linalg.lapack.dpstrf(
        work, tol=pivot_floor, lower=1, overwrite_a=1
    )
    if info < 0:
        raise NumericalError(f"dpstrf rejected argument {-info}")
    # dpstrf leaves the input's strict upper triangle behind; each column of
    # the F-order work array is contiguous, so it is zeroed in place
    for j in range(1, rank):
        c[:j, j] = 0.0
    factor = c[:, :rank]
    residual_trace = float(d.sum()) - np.concatenate(
        [[0.0], np.cumsum(np.einsum("ij,ij->j", factor, factor))]
    )
    cols = int(np.argmax(residual_trace <= eta)) if residual_trace[-1] <= eta else rank
    factor = factor[:, :cols]
    unpicked = piv[cols:] - 1
    residual = d[unpicked] - np.einsum("ij,ij->i", factor[cols:], factor[cols:])
    if residual.size and float(residual.min()) < -1e-10:
        raise NumericalError(
            "residual diagonal went negative during pivoting; "
            "input is not positive semi-definite"
        )
    r = np.empty((n, cols))
    r[piv - 1] = factor
    return r


def chi2_quantile(p: float, df: int) -> float:
    """Quantile of the chi-squared distribution: the ``x`` with ``P(X <= x) = p``."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    if int(df) != df or df < 1:
        raise ValueError(f"df must be a positive integer, got {df}")
    return float(chdtri(df, 1.0 - p))
