"""Kernel canonical correlation: Gram construction, the direct pencil, and the
reduced-rank route through pivoted incomplete Cholesky factors."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
import scipy.linalg
from scipy.spatial.distance import pdist, squareform

from .dataset import PairedDataset, write_csv_rows
from .numerics import (
    COND_LIMIT, SYM_BLOCK, NumericalError, check_symmetric, fix_signs, partial_gram_schmidt,
    pearson_columns, top_svd, unit_images, well_conditioned,
)

# The direct fit inverts two ridged n x n Grams and takes the top singular
# triplets of an n x n product, which is only sensible at desk scale; larger
# problems go through the reduced route.
DIRECT_N_LIMIT = 2000


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and parameters for one view."""

    kind: str
    width: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "gaussian"):
            raise ValueError(f"unknown kernel kind '{self.kind}'; expected linear or gaussian")
        if self.kind == "gaussian":
            if self.width is None or not np.isfinite(self.width) or self.width <= 0:
                raise ValueError(f"gaussian kernel needs a positive finite width, got {self.width}")


def median_heuristic(x) -> float:
    """Median pairwise Euclidean distance between observations (rows of ``x``).

    With an even number of pairs the mean of the two central order statistics
    is returned, which is plain ``numpy.median`` behaviour.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("median heuristic needs a 2-d array with at least two rows")
    med = float(np.median(pdist(x)))
    if med <= 0:
        raise ValueError("median pairwise distance is zero; all observations are identical")
    return med


def gram(x, spec: KernelSpec) -> np.ndarray:
    """Gram matrix of the rows of ``x`` under ``spec``.

    The gaussian kernel is ``exp(-||xi - xj||^2 / (2 width^2))`` with an
    exactly unit diagonal; it is evaluated once per pair, on the condensed
    distance vector.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {x.shape}")
    if spec.kind == "linear":
        return x @ x.T
    k = squareform(np.exp(-pdist(x, "sqeuclidean") / (2.0 * spec.width**2)))
    np.fill_diagonal(k, 1.0)
    return k


def center_gram(k) -> np.ndarray:
    """Center a Gram matrix in feature space.

    Implements ``K - (1/n) J K - (1/n) K J + (1/n^2) (1'K1) J`` through the
    row means, which are the column means of a symmetric ``K``, and their
    mean; centering is idempotent and the result has row and column sums of
    zero.  The argument is not changed, and an exactly symmetric one gives an
    exactly symmetric result.
    """
    return _center_in_place(check_symmetric(k, name="gram matrix").copy())


def _center_in_place(k: np.ndarray) -> np.ndarray:
    """Center a checked symmetric Gram matrix in place as ``K - (m_i + m_j) + grand``.

    ``m`` holds the row means and ``grand`` their mean.  The sum ``m_i + m_j``
    is formed before it is subtracted, so an exactly symmetric input stays
    exactly symmetric.  Rows are updated in blocks of about ``SYM_BLOCK**2``
    entries, which bounds the temporaries.
    """
    means = k.mean(axis=1)
    grand = means.mean()
    step = max(1, SYM_BLOCK**2 // max(means.size, 1))
    for start in range(0, means.size, step):
        k[start:start + step] -= means[start:start + step, None] + means
    k += grand
    return k


@dataclass(frozen=True)
class GramPair:
    """Centered Gram matrices of the two views with the specs that built them."""

    k_a: np.ndarray
    k_b: np.ndarray
    spec_a: KernelSpec
    spec_b: KernelSpec

    def __post_init__(self):
        ka = np.asarray(self.k_a, dtype=float)
        kb = np.asarray(self.k_b, dtype=float)
        if ka.shape != kb.shape or ka.ndim != 2 or ka.shape[0] != ka.shape[1]:
            raise ValueError(
                f"gram matrices must be square with equal shapes, got {ka.shape} and {kb.shape}"
            )
        object.__setattr__(self, "k_a", ka)
        object.__setattr__(self, "k_b", kb)

    @property
    def n(self) -> int:
        return self.k_a.shape[0]


def build_gram_pair(
    data: PairedDataset, spec_a: KernelSpec, spec_b: KernelSpec
) -> GramPair:
    """Build and center both views' Gram matrices."""
    return GramPair(
        k_a=_center_in_place(check_symmetric(gram(data.view_a, spec_a), name="gram matrix")),
        k_b=_center_in_place(check_symmetric(gram(data.view_b, spec_b), name="gram matrix")),
        spec_a=spec_a,
        spec_b=spec_b,
    )


@dataclass(frozen=True)
class KernelCcaModel:
    """Dual weight pairs with their correlations and unit-norm training images.

    The reduced route also records, per view, the column count of the Gram's
    factor and the residual trace ``trace(K) - ||R||_F^2`` it leaves; the
    direct route leaves both empty.
    """

    alpha: np.ndarray
    beta: np.ndarray
    correlations: np.ndarray
    z_a: np.ndarray
    z_b: np.ndarray
    solver: str
    regularization: tuple[tuple[str, float], ...]
    factor_columns: tuple[int, ...] = ()
    residual_traces: tuple[float, ...] = ()

    @property
    def r(self) -> int:
        return self.alpha.shape[1]


def _assemble_kernel_model(
    grams: GramPair, alpha: np.ndarray, beta: np.ndarray, solver: str, reg: dict
) -> KernelCcaModel:
    """Rescale duals to unit-norm images, orient, and sort by realized cosine (at most 1)."""
    z_a, z_b, corr, norm_a, norm_b = unit_images(grams.k_a @ alpha, grams.k_b @ beta)
    if np.any(norm_a < 1e-12) or np.any(norm_b < 1e-12):
        raise NumericalError(
            "a kernel image collapsed to the zero vector; "
            "reduce the component count or the regularisation"
        )
    alpha = alpha / norm_a
    beta = beta / norm_b
    flip = corr < 0
    beta = np.where(flip, -beta, beta)
    z_b = np.where(flip, -z_b, z_b)
    # the cosine of two unit vectors can exceed 1 by an ulp
    corr = np.minimum(np.abs(corr), 1.0)
    order = np.argsort(-corr, kind="stable")
    return KernelCcaModel(
        alpha=alpha[:, order],
        beta=beta[:, order],
        correlations=corr[order],
        z_a=z_a[:, order],
        z_b=z_b[:, order],
        solver=solver,
        regularization=tuple(sorted((k, float(v)) for k, v in reg.items())),
    )


def _ridged_inverse(k: np.ndarray, c: float) -> np.ndarray:
    """``(K + c I)^-1`` through LAPACK's Cholesky, once ``K + c I`` passes the
    ``COND_LIMIT`` test the linear spectral core applies to ``C + c I``.

    For a symmetric matrix the 2-norm is at most the inf-norm, so
    ``(||K||_inf + c) ||(K + c I)^-1||_inf < COND_LIMIT`` proves the test
    without the spectrum.  When that bound does not hold, or the factorisation
    fails, the ridged eigenvalues decide.
    """
    lapack = scipy.linalg.lapack
    work = np.array(k, order="F")
    norm = lapack.dlange("I", work) + c
    work[np.diag_indices_from(work)] += c
    factor, info = lapack.dpotrf(work, lower=1, overwrite_a=1)
    if info == 0:
        inverse, info = lapack.dpotri(factor, lower=1, overwrite_c=1)
    if info == 0:
        _mirror_lower(inverse)
        if norm * lapack.dlange("I", inverse) < COND_LIMIT:
            return inverse
    ridged = scipy.linalg.eigvalsh(k) + c
    if not well_conditioned(ridged):
        raise NumericalError(
            "B is not positive definite within working precision "
            f"(ridged gram eigenvalue range [{ridged[0]:.3e}, {ridged[-1]:.3e}]); "
            "add ridge regularisation to the constraint blocks"
        )
    if info != 0:
        raise NumericalError(
            f"the Cholesky factorisation of a ridged gram failed (LAPACK info {info})"
        )
    return inverse


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the lower triangle of a square matrix onto its upper one, in place,
    one ``SYM_BLOCK``-column panel at a time."""
    n = a.shape[0]
    for start in range(0, n, SYM_BLOCK):
        stop = min(start + SYM_BLOCK, n)
        diagonal = a[start:stop, start:stop]
        upper = np.triu_indices(stop - start, 1)
        diagonal[upper] = diagonal.T[upper]
        a[start:stop, stop:] = a[stop:, start:stop].T


def fit_kernel_cca(grams: GramPair, c1: float, c2: float, r: int) -> KernelCcaModel:
    """Kernel CCA through the symmetric 2n-dimensional pencil.

    Solves ``A v = rho B v`` with ``A = [[0, Ka Kb], [Kb Ka, 0]]`` and
    ``B = blkdiag((Ka + c1 I)^2, (Kb + c2 I)^2)``; the squared-ridge blocks
    are the regularised dual constraints.  Both ridges must be positive: at
    zero the problem is degenerate and every correlation is trivially 1.

    The pencil is never formed: its positive eigenvalues are the singular
    values ``S`` of ``Ka (Ka + c1 I)^-1 Kb (Kb + c2 I)^-1 = P S Q^T``, with
    ``K (K + c I)^-1 = I - c (K + c I)^-1``, and ``alpha = (Ka + c1 I)^-1 P``,
    ``beta = (Kb + c2 I)^-1 Q`` are signed as the pencil's stacked
    eigenvectors.  Each view's ridged Gram is inverted through its Cholesky
    factor and must stay within ``COND_LIMIT`` (``_ridged_inverse``); only the
    ``r`` leading singular triplets are computed (``top_svd``).  At most five
    n x n arrays are alive at once besides the Grams: the two inverses, the
    two factors of the product, and the product.
    """
    if c1 <= 0 or c2 <= 0:
        raise ValueError(
            "kernel CCA requires positive ridges c1, c2: the unregularised dual "
            "problem is degenerate (all correlations 1)"
        )
    n = grams.n
    if n > DIRECT_N_LIMIT:
        raise ValueError(
            f"direct kernel CCA is limited to n <= {DIRECT_N_LIMIT} (got n = {n}); "
            "use fit_kernel_cca_pgso"
        )
    if not 1 <= r <= n:
        raise ValueError(f"components must satisfy 1 <= r <= n = {n}, got {r}")
    inverse_a = _ridged_inverse(grams.k_a, c1)
    inverse_b = _ridged_inverse(grams.k_b, c2)
    # I - c inv, as -c inv with 1 added on the diagonal; the inverses are
    # exactly symmetric, so their transposes are the same matrices in C order
    shrunk_a = inverse_a.T * -c1
    shrunk_a.flat[:: n + 1] += 1.0
    shrunk_b = inverse_b.T * -c2
    shrunk_b.flat[:: n + 1] += 1.0
    product = shrunk_a @ shrunk_b
    del shrunk_a, shrunk_b
    res = top_svd(product, r)
    if res.s[r - 1] <= 1e-12:
        raise NumericalError(
            f"only {int(np.sum(res.s > 1e-12))} positive pencil eigenvalues available, "
            f"fewer than the requested {r} components"
        )
    duals = fix_signs(np.vstack([inverse_a @ res.u, inverse_b @ res.v]))
    return _assemble_kernel_model(
        grams, duals[:n], duals[n:], "kernel_pencil", {"c1": c1, "c2": c2}
    )


def _reduced_cholesky(block: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a reduced gram block, computed in place when
    ``block`` is in F order."""
    factor, info = scipy.linalg.lapack.dpotrf(block, lower=1, overwrite_a=1)
    if info != 0:
        raise NumericalError(
            "a reduced gram block is singular; decrease eta or increase kappa"
        )
    return factor


def fit_kernel_cca_pgso(
    grams: GramPair,
    kappa: float,
    eta: float | None = None,
    r: int = 1,
) -> KernelCcaModel:
    """Kernel CCA on incomplete Cholesky factors of both Grams.

    Factorises ``K ~= R R.T`` per view with ``partial_gram_schmidt`` (greedy
    pivoting, trace cutoff ``eta``, defaulting to ``1e-6 * trace(K)``), forms
    the reduced blocks ``D_xy = R_x.T R_y``, and takes the top ``r`` singular
    triplets ``(u, rho, v)`` of the whitened cross block
    ``inv(S) D_ab inv(L_b).T``, with ``D_aa = S S.T`` and
    ``D_bb + kappa I = L_b L_b.T``, through ``top_svd``.  The reduced duals
    ``alpha_red = inv(S).T u`` and ``inv(D_bb) D_ab.T alpha_red / rho`` are
    mapped back through the factors and reported against the true Grams.  The
    model records each factor's column count and residual trace.

    Besides the factors, at most four reduced blocks are alive at once: each
    Cholesky factor overwrites its block, ``D_ab`` is whitened in place by
    two triangular solves, and ``D_ab.T alpha_red`` is applied through the
    factors.

    Parameters
    ----------
    grams : GramPair
        Centered Gram matrices.
    kappa : float
        Positive ridge on the reduced view-b block.
    eta : float, optional
        Residual-trace cutoff for the factorisation, shared by both views
        when given explicitly.
    r : int
        Number of components.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if r < 1:
        raise ValueError(f"components must be at least 1, got {r}")
    eta_a = 1e-6 * float(np.trace(grams.k_a)) if eta is None else float(eta)
    eta_b = 1e-6 * float(np.trace(grams.k_b)) if eta is None else float(eta)
    r_a = partial_gram_schmidt(grams.k_a, eta_a)
    r_b = partial_gram_schmidt(grams.k_b, eta_b)
    # R.T @ R is exactly symmetric, so its transpose is an F-order view of the
    # same block, which is factored in place
    s = _reduced_cholesky((r_a.T @ r_a).T)
    d_bb = r_b.T @ r_b
    l_b = d_bb.copy()
    l_b.flat[:: l_b.shape[0] + 1] += kappa
    l_b = _reduced_cholesky(l_b.T)
    bb_plain = _reduced_cholesky(d_bb.T)
    # D_ab in F order, whitened in place by both triangular solves
    blas = scipy.linalg.blas
    whitened = blas.dtrsm(1.0, s, (r_b.T @ r_a).T, lower=1, overwrite_b=1)
    whitened = blas.dtrsm(1.0, l_b, whitened, side=1, lower=1, trans_a=1, overwrite_b=1)
    del l_b
    # a factor without columns (eta >= trace) leaves nothing to decompose
    usable = 0
    if min(whitened.shape):
        res = top_svd(whitened, min(r, *whitened.shape))
        usable = int(np.sum(res.s**2 > 1e-12))
    if usable < r:
        raise NumericalError(
            f"reduced problem supports only {usable} components, fewer than the requested {r}"
        )
    alpha_red = scipy.linalg.solve_triangular(s, res.u, lower=True, trans="T")
    beta_red = scipy.linalg.cho_solve((bb_plain, True), r_b.T @ (r_a @ alpha_red)) / res.s
    # minimum-norm duals in the full space
    alpha = r_a @ scipy.linalg.cho_solve((s, True), alpha_red)
    beta = r_b @ scipy.linalg.cho_solve((bb_plain, True), beta_red)
    model = _assemble_kernel_model(
        grams, alpha, beta, "kernel_pgso", {"kappa": kappa, "eta_a": eta_a, "eta_b": eta_b}
    )
    return replace(
        model,
        factor_columns=(r_a.shape[1], r_b.shape[1]),
        residual_traces=(
            float(np.trace(grams.k_a) - np.einsum("ij,ij->", r_a, r_a)),
            float(np.trace(grams.k_b) - np.einsum("ij,ij->", r_b, r_b)),
        ),
    )


@dataclass(frozen=True)
class RelationTable:
    """Pearson correlations of candidate signals against image columns."""

    signal_names: tuple[str, ...]
    image_names: tuple[str, ...]
    correlations: np.ndarray

    @property
    def absolute(self) -> np.ndarray:
        return np.abs(self.correlations)

    def write_csv(self, path) -> None:
        write_csv_rows(
            path,
            ["signal", *self.image_names],
            ([name, *row] for name, row in zip(self.signal_names, self.correlations)),
        )


def image_relation_table(images: np.ndarray, signals: Mapping[str, np.ndarray]) -> RelationTable:
    """Correlate every named signal with every image column (``pearson_columns``).

    ``images`` is (n, r), its columns named ``z1 ... zr``; each signal is a
    length-n vector.  Constant signals and image columns have no defined
    correlation and are rejected.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim != 2:
        raise ValueError("images must be a 2-d array with one column per component")
    rows = []
    names = []
    for name, sig in signals.items():
        sig = np.asarray(sig, dtype=float)
        if sig.shape != (images.shape[0],):
            raise ValueError(f"signal '{name}' has shape {sig.shape}, expected ({images.shape[0]},)")
        rows.append(pearson_columns(images, sig, "an image column", f"signal '{name}'"))
        names.append(name)
    return RelationTable(
        signal_names=tuple(names),
        image_names=tuple(f"z{i + 1}" for i in range(images.shape[1])),
        correlations=np.asarray(rows, dtype=float),
    )
