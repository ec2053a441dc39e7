"""Dense symmetric decompositions and distribution helpers shared by the fitting routines.

Everything here works on plain float ndarrays.  Eigenvalues and singular
values are always returned in descending order, and eigenvector signs are
fixed deterministically (largest-magnitude entry positive) so repeated runs
and different solvers produce comparable weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtri

# scipy.linalg is imported inside the functions that call it: the pmd and
# simulate commands use none of them and start faster without it.

# Relative symmetry tolerance for inputs that must be symmetric.
SYM_RTOL = 1e-12
# Rows per block of the symmetry check.
SYM_BLOCK = 256
# Condition-number ceiling; blocks beyond this are treated as singular.
COND_LIMIT = 1e10
# Row count from which ``top_svd`` takes its eigenvectors from Lanczos
# (``eigsh``) instead of a subset ``eigh``; see ``top_svd``.
LANCZOS_MIN_ROWS = 600


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

    Works on stacks of shape (..., rows, cols).  Ties in magnitude are broken
    by the lowest row index (argmax picks the first maximiser), which keeps
    the convention deterministic.
    """
    v = np.asarray(vectors, dtype=float)
    return v * lead_signs(v)[..., None, :]


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


def require_components(correlations, r: int) -> None:
    """Raise ``NumericalError`` unless at least ``r`` of ``correlations`` exceed 1e-12."""
    usable = int(np.count_nonzero(np.asarray(correlations) > 1e-12))
    if usable < r:
        raise NumericalError(
            f"the fit supports only {usable} components, fewer than the requested {r}"
        )


def unit_images(z_a: np.ndarray, z_b: np.ndarray):
    """Unit-normalise paired image columns and take their cosines.

    Works on stacks of shape (..., n, r).  Returns ``(u_a, u_b, cosines,
    norm_a, norm_b)``: the unit images, the per-column cosines
    ``sum(u_a * u_b)`` of shape (..., r) clipped to [-1, 1] (0 for a pair
    with a zero image), and the image norms, so each caller applies its own
    rule to collapsed images.
    """
    norm_a = np.linalg.norm(z_a, axis=-2)
    norm_b = np.linalg.norm(z_b, axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_a = z_a / norm_a[..., None, :]
        u_b = z_b / norm_b[..., None, :]
    cosines = np.clip(np.einsum("...ij,...ij->...j", u_a, u_b), -1.0, 1.0)
    return u_a, u_b, np.where((norm_a > 0) & (norm_b > 0), cosines, 0.0), norm_a, norm_b


def ranked_pairs(coef_a, coef_b, z_a, z_b, floor: float, message: str):
    """Orient paired columns and rank them by the cosine of their images.

    Takes the ``unit_images`` of ``z_a`` and ``z_b`` (n, r), raises
    ``NumericalError(message)`` when an image norm is below ``floor``, flips
    each b column (coefficients and image) whose cosine is negative, and
    orders the pairs by ``|cosine|``, descending, ties in column order.
    Returns ``(coef_a, coef_b, |cosines|, u_a, u_b, norm_a, norm_b)``, all so ordered.
    """
    u_a, u_b, cosines, norm_a, norm_b = unit_images(z_a, z_b)
    if np.any(norm_a < floor) or np.any(norm_b < floor):
        raise NumericalError(message)
    flip, cosines = cosines < 0, np.abs(cosines)
    coef_b, u_b = np.where(flip, -coef_b, coef_b), np.where(flip, -u_b, u_b)
    order = np.argsort(-cosines, kind="stable")
    return tuple(m[..., order] for m in (coef_a, coef_b, cosines, u_a, u_b, norm_a, norm_b))


def pearson_columns(mat: np.ndarray, vec: np.ndarray, mat_name: str, vec_name: str) -> np.ndarray:
    """Pearson correlation of every column of ``mat`` (n, k) with ``vec`` (n,),
    clipped to [-1, 1].

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
    return np.clip((centered.T @ v) / (col_norms * v_norm), -1.0, 1.0)


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
    import scipy.linalg

    a = check_symmetric(a)
    values, vectors = scipy.linalg.eigh(a)
    order = np.argsort(-values, kind="stable")
    return EigenResult(values[order], fix_signs(vectors[:, order]))


def gen_eig_sym(a, b) -> EigenResult:
    """Solve ``a v = lam b v`` for symmetric ``a`` and symmetric positive-definite ``b``.

    Eigenvectors are B-normalised (``v.T @ b @ v = 1``) and eigenvalues are
    returned in descending order.
    """
    import scipy.linalg

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
    import scipy.linalg

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

    Takes the top-``r`` eigenvectors ``q`` of the Gram ``m @ m.T`` and then the
    small SVD ``q.T @ m = P S V^T``, so ``u = q P``, ``s = S`` and ``v = V``.
    The singular values come from that last SVD rather than from the squared
    eigenvalues, so a rank shortage still shows as singular values at
    roundoff level.

    The eigenvectors come from one of two solves, chosen by ``m``'s row count
    and ``r`` alone:

    - below ``LANCZOS_MIN_ROWS`` rows, or when ``8 * r`` exceeds the rows, a
      subset ``scipy.linalg.eigh``, which tridiagonalises the whole Gram;
    - otherwise ARPACK's implicitly restarted Lanczos
      (``scipy.sparse.linalg.eigsh``, ``which="LA"``, ``tol=0``), which works
      through products with the Gram and finds only the ``r`` eigenpairs asked
      for.  A Lanczos failure raises ``NumericalError``; there is no fallback.

    On the direct kernel route's products (scipy 1.17.1, one BLAS thread,
    2 shared x86_64 cores) Lanczos is faster per call from about 200 rows
    (0.8 ms against 1.4 ms; at 500 rows 3.4 ms against 13 ms, at 700 rows
    8 ms against 26 ms).  But ``scipy.sparse.linalg`` costs 10-16 ms and
    1.9 MB to import into a ``kcca`` process, and a single call saves that
    much only from about 600 rows, so smaller inputs keep the subset solve
    and never import it.

    Lanczos starts from ``default_rng(0).standard_normal(rows)``, so two calls
    give the same bits.  The start is random rather than constant because a
    constant vector can lie in the Gram's null space: the direct kernel
    route's product of centred Grams sends the ones vector to zero.
    """
    import scipy.linalg

    m = as_checked_array(m)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    rows = m.shape[0]
    if not 1 <= r <= min(m.shape):
        raise ValueError(f"r must satisfy 1 <= r <= {min(m.shape)}, got {r}")
    # ``m @ m.T`` is exactly symmetric, so its transpose is an F-order view
    # of the same matrix that ``eigh`` overwrites instead of copying
    gram = (m @ m.T).T
    if rows >= LANCZOS_MIN_ROWS and 8 * r <= rows:
        from scipy.sparse.linalg import ArpackError, eigsh

        try:
            _, q = eigsh(
                gram, k=r, which="LA", tol=0, v0=np.random.default_rng(0).standard_normal(rows)
            )
        except ArpackError as exc:
            raise NumericalError(
                f"Lanczos found no {r} leading eigenvectors of the {rows} x {rows} Gram: {exc}"
            ) from None
    else:
        _, q = scipy.linalg.eigh(gram, subset_by_index=[rows - r, rows - 1], overwrite_a=True)
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
    ``trace(k) - sum of the first j squared column norms``.  It works on a
    Fortran-order copy of ``k.T``, a plain copy of the buffer, and so reads
    the upper triangle of ``k``, which ``check_symmetric`` holds to the lower
    one within ``SYM_RTOL``.

    ``k`` passes as positive semi-definite while its diagonal and every row's
    ``residual_diagonal`` stay at or above ``-1e-9 * sum |diag k|``, a floor that
    scales with ``k`` as the residual's roundoff (at most ~``2.2e-10 * trace``) does.

    Parameters
    ----------
    k : array_like
        Symmetric positive semi-definite matrix, shape (n, n).
    eta : float
        Finite nonnegative trace cutoff for the residual.

    Returns
    -------
    ndarray of shape (n, m) with m <= n such that ``k ~= r @ r.T``.
    """
    import scipy.linalg

    k = check_symmetric(k, name="gram matrix")
    if not (np.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and nonnegative, got {eta}")
    n = k.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    d = np.diag(k)
    floor = -1e-9 * float(np.abs(d).sum())
    if float(d.min()) < floor:
        raise NumericalError(
            f"diagonal entry {d.min():.3e} is negative; input is not positive semi-definite"
        )
    # pivots below this are numerical zeros: extending would only add noise
    pivot_floor = 1e-12 * max(float(d.max()), 1.0)
    work = np.array(k.T, order="F")
    # info > 0 only reports a rank below n; these fixed arguments are all valid
    c, piv, rank, _ = scipy.linalg.lapack.dpstrf(
        work, tol=pivot_floor, lower=1, overwrite_a=1
    )
    # dpstrf leaves the input's strict upper triangle behind; each column of
    # the F-order work array is contiguous, so it is zeroed in place
    for j in range(1, rank):
        c[:j, j] = 0.0
    factor = c[:, :rank]
    residual_trace = float(d.sum()) - np.concatenate(
        [[0.0], np.cumsum(np.einsum("ij,ij->j", factor, factor))]
    )
    cols = int(np.argmax(residual_trace <= eta)) if residual_trace[-1] <= eta else rank
    r = np.empty((n, cols))
    r[piv - 1] = factor[:, :cols]
    if float(residual_diagonal(k, r).min()) < floor:
        raise NumericalError(
            "residual diagonal went negative during pivoting; "
            "input is not positive semi-definite"
        )
    return r


def residual_diagonal(k: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Diagonal of ``k - factor @ factor.T``, from the row norms of ``factor``."""
    return np.diag(k) - np.einsum("ij,ij->i", factor, factor)


def chi2_quantile(p: float, df: int) -> float:
    """Quantile of the chi-squared distribution: the ``x`` with ``P(X <= x) = p``."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    if int(df) != df or df < 1:
        raise ValueError(f"df must be a positive integer, got {df}")
    return float(chdtri(df, 1.0 - p))
