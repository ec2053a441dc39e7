"""Kernel canonical correlation: Gram construction, the direct pencil, and the
reduced-rank route through pivoted incomplete Cholesky factors."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dataset import PairedDataset, write_csv_rows
from .numerics import (
    COND_LIMIT, NumericalError, _pivoted_factor, check_symmetric, fix_signs, pearson_columns,
    ranked_pairs, require_components, top_svd, well_conditioned,
)

# scipy.linalg is imported inside the functions that call it: the pdscca
# command uses none of them and starts faster without it.

# The direct fit inverts two ridged n x n Grams and forms an n x n product
# and its n x n Gram; even with Lanczos taking only the top singular triplets
# (``top_svd``), that is only sensible at desk scale, and larger problems go
# through the reduced route.
DIRECT_N_LIMIT = 2000
# Entries per row block of the distance loop and of the centering, which
# bounds their temporaries (0.5 MB each).
DIST_BLOCK = 2**16


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and parameters for one view; a gaussian spec without a
    width takes the median heuristic's (``median_heuristic``) when its Gram is built."""

    kind: str
    width: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "gaussian"):
            raise ValueError(f"unknown kernel kind '{self.kind}'; expected linear or gaussian")
        w = self.width
        if self.kind == "gaussian" and w is not None:
            if not (np.isfinite(w) and w > 0 and 2.0 * w**2 > 0):
                raise ValueError(f"gaussian kernel needs a positive finite width (2 width^2 > 0), got {w}")


def _squared_distances(xt: np.ndarray, rows: slice, cols: slice, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the squared Euclidean distances from the ``rows`` of
    ``x`` to its ``cols``, given ``xt``, the C-order transpose of ``x``.

    Each feature's squared difference is added left to right, the order in
    which scipy's ``cdist`` and ``pdist`` (``"sqeuclidean"``) sum, so every
    entry has their bits.  Entries (i, j) and (j, i) add the same squares in
    the same order, and (i, i) is 0.  One temporary of ``out``'s size holds
    a feature's differences.  A square that overflows is inf without a
    warning, as in scipy.
    """
    if not xt.shape[0]:
        out.fill(0.0)
        return out
    with np.errstate(over="ignore"):
        np.subtract(xt[0, rows, None], xt[0, None, cols], out=out)
        np.multiply(out, out, out=out)
        if xt.shape[0] > 1:
            diff = np.empty_like(out)
            for col in xt[1:]:
                np.subtract(col[rows, None], col[None, cols], out=diff)
                np.multiply(diff, diff, out=diff)
                out += diff
    return out


def _row_blocks(n: int):
    """Slices of the ``n`` rows into blocks of ``DIST_BLOCK // n`` rows (at least one)."""
    step = max(1, DIST_BLOCK // max(n, 1))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _distance_square(x: np.ndarray) -> np.ndarray:
    """The squared distances of the rows of ``x`` by row blocks: ``cdist(x, x,
    "sqeuclidean")``'s bits, whose strict upper triangle by rows is ``pdist``'s."""
    n = x.shape[0]
    xt = np.ascontiguousarray(x.T)
    square = np.empty((n, n))
    for block in _row_blocks(n):
        _squared_distances(xt, block, slice(0, n), square[block])
    return square


def _check_median_rows(x: np.ndarray) -> None:
    """Refuse what has no median pairwise distance: under two rows, or a non-finite entry."""
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("median heuristic needs a 2-d array with at least two rows")
    if not np.isfinite(x).all():
        raise ValueError("median heuristic needs finite observations")


def _condensed_squares(x: np.ndarray) -> np.ndarray:
    """The squared distances of the pairs of rows of ``x``, in ``pdist``'s
    order and with its bits: the strict upper triangle of ``_distance_square``
    by rows, written by row blocks so that no n x n array is made."""
    n = x.shape[0]
    xt = np.ascontiguousarray(x.T)
    d = np.empty(n * (n - 1) // 2)
    buf = np.empty(DIST_BLOCK)
    end = 0
    for block in _row_blocks(n):
        shape = (block.stop - block.start, n - block.start - 1)
        rect = buf[: shape[0] * shape[1]].reshape(shape)
        _squared_distances(xt, block, slice(block.start + 1, n), rect)
        for i, row in enumerate(rect):
            d[end:end + row.size - i] = row[i:]
            end += row.size - i
    return d


def _median_width(d: np.ndarray) -> float:
    """Median distance of the pairs whose squared distances are ``d``, which
    the selection reorders in place.

    With an even number of pairs the mean of the two central order statistics
    is returned, as ``numpy.median`` does.  Only the central values are
    square-rooted; ``pdist``'s distance is the root of its squared one, so the
    result equals ``np.median(pdist(x))`` bit for bit.
    """
    half = d.size // 2
    d.partition(half)
    upper = np.sqrt(d[half])
    med = float(upper if d.size % 2 else (np.sqrt(d[:half].max()) + upper) / 2.0)
    if med <= 0:
        raise ValueError("median pairwise distance is zero; all observations are identical")
    return med


def median_heuristic(x) -> float:
    """Median pairwise Euclidean distance between observations (rows of ``x``),
    selected from the condensed pair vector (``_condensed_squares``)."""
    x = np.asarray(x, dtype=float)
    _check_median_rows(x)
    return _median_width(_condensed_squares(x))


def _gram(x, spec: KernelSpec) -> tuple[np.ndarray, KernelSpec]:
    """The Gram matrix of ``gram`` and the spec it used, whose width is the
    median heuristic's when ``spec`` is gaussian without one."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {x.shape}")
    if spec.kind == "linear":
        return x @ x.T, spec
    if spec.width is None:
        _check_median_rows(x)
    k = _distance_square(x)
    if spec.width is None:
        upper = np.concatenate([k[i, i + 1:] for i in range(k.shape[0] - 1)])
        spec = KernelSpec("gaussian", _median_width(upper))
    np.negative(k, out=k)
    k /= 2.0 * spec.width**2
    np.exp(k, out=k)
    return k, spec


def gram(x, spec: KernelSpec) -> np.ndarray:
    """Gram matrix of the rows of ``x`` under ``spec``.

    The gaussian kernel ``exp(-||xi - xj||^2 / (2 width^2))`` is taken in place
    on ``_distance_square``, which has ``cdist``'s bits: entry (i, j) equals
    (j, i) and (i, i) is 0, so the Gram is exactly symmetric with a unit
    diagonal.  Without a width, the median of the same square
    (``median_heuristic``'s bits) is taken first, so no distance is computed
    twice.  Besides the output only a block-sized temporary is allocated, and
    for the median a copy of the triangle.
    """
    return _gram(x, spec)[0]


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
    """Center a symmetric Gram matrix in place as ``K - (m_i + m_j) + grand``.

    ``m`` holds the row means and ``grand`` their mean.  The sum ``m_i + m_j``
    is formed before it is subtracted, so an exactly symmetric input stays
    exactly symmetric.  Rows are updated in the distance loop's row blocks
    (``_row_blocks``), which bounds the temporaries.
    """
    means = k.mean(axis=1)
    grand = means.mean()
    for block in _row_blocks(means.size):
        k[block] -= means[block, None] + means
    k += grand
    return k


@dataclass(frozen=True)
class GramPair:
    """Centered Gram matrices of the two views, checked by ``check_symmetric``, and their specs."""

    k_a: np.ndarray
    k_b: np.ndarray
    spec_a: KernelSpec
    spec_b: KernelSpec

    def __post_init__(self):
        ka = check_symmetric(self.k_a, name="gram matrix")
        kb = check_symmetric(self.k_b, name="gram matrix")
        if ka.shape != kb.shape:
            raise ValueError("gram matrices must be square with equal shapes, "
                             f"got {ka.shape} and {kb.shape}")
        object.__setattr__(self, "k_a", ka)
        object.__setattr__(self, "k_b", kb)

    @property
    def n(self) -> int:
        return self.k_a.shape[0]


def build_gram_pair(
    data: PairedDataset, spec_a: KernelSpec, spec_b: KernelSpec
) -> GramPair:
    """Build and center both views' Gram matrices; ``GramPair`` checks them
    and holds the specs with the widths used, median widths resolved."""
    k_a, spec_a = _gram(data.view_a, spec_a)
    k_b, spec_b = _gram(data.view_b, spec_b)
    return GramPair(_center_in_place(k_a), _center_in_place(k_b), spec_a, spec_b)


@dataclass(frozen=True)
class KernelCcaModel:
    """Dual weight pairs with their correlations and unit-norm training images.

    The reduced route also records, per view, the column count of the Gram's
    factor and the residual trace ``trace(K - R R.T)`` it leaves, summed from
    the residual diagonal clipped at zero by the factorisation itself (so,
    unlike ``trace(K) - ||R||_F^2``, never negative); the direct route leaves
    both empty.
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
    grams: GramPair, alpha: np.ndarray, beta: np.ndarray, solver: str, reg: dict,
    *, factor_columns: tuple[int, ...] = (), residual_traces: tuple[float, ...] = (),
) -> KernelCcaModel:
    """Orient and rank the pairs (``ranked_pairs``), then rescale the duals to unit-norm images."""
    alpha, beta, corr, z_a, z_b, norm_a, norm_b = ranked_pairs(
        alpha, beta, grams.k_a @ alpha, grams.k_b @ beta, 1e-12,
        "a kernel image collapsed to the zero vector; "
        "reduce the component count or the regularisation",
    )
    return KernelCcaModel(
        alpha=alpha / norm_a,
        beta=beta / norm_b,
        correlations=corr,
        z_a=z_a,
        z_b=z_b,
        solver=solver,
        regularization=tuple(sorted((k, float(v)) for k, v in reg.items())),
        factor_columns=factor_columns,
        residual_traces=residual_traces,
    )


def _ridged_inverse(k: np.ndarray, c: float) -> np.ndarray:
    """``(K + c I)^-1`` through its Cholesky factor (scipy's SPD inverse), once
    ``K + c I`` passes the ``COND_LIMIT`` test the linear spectral core applies
    to ``C + c I``.

    For a symmetric matrix the 2-norm is at most the inf-norm, so
    ``(||K||_inf + c) ||(K + c I)^-1||_inf < COND_LIMIT`` proves the test
    without the spectrum.  When that bound does not hold, or the factorisation
    fails, the ridged eigenvalues decide.  The inverse overwrites a
    Fortran-order copy of ``k.T``, a plain copy of the buffer, and so reads
    the upper triangle of ``k``; ``GramPair`` holds the two triangles within
    ``SYM_RTOL``.
    """
    import scipy.linalg

    work = np.array(k.T, order="F")
    norm = scipy.linalg.norm(work, np.inf, check_finite=False) + c
    work[np.diag_indices_from(work)] += c
    # a tiny reciprocal condition estimate warns; the COND_LIMIT test decides instead
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        try:
            inverse = scipy.linalg.inv(
                work, assume_a="pos", lower=True, overwrite_a=True, check_finite=False
            )
        except np.linalg.LinAlgError:
            inverse = None
    if inverse is not None:
        if norm * scipy.linalg.norm(inverse, np.inf, check_finite=False) < COND_LIMIT:
            return inverse
    ridged = scipy.linalg.eigvalsh(k, lower=False) + c
    if not well_conditioned(ridged):
        raise NumericalError(
            "B is not positive definite within working precision "
            f"(ridged gram eigenvalue range [{ridged[0]:.3e}, {ridged[-1]:.3e}]); "
            "add ridge regularisation to the constraint blocks"
        )
    if inverse is None:
        raise NumericalError("the Cholesky factorisation of a ridged gram failed")
    return inverse


def _check_direct(n: int, c1: float, c2: float, r: int) -> None:
    """Reject arguments the direct route cannot fit, before any Gram is built."""
    if not (np.isfinite(c1) and np.isfinite(c2)):
        raise ValueError(f"kernel CCA requires finite ridges c1, c2, got {c1} and {c2}")
    if c1 <= 0 or c2 <= 0:
        raise ValueError("kernel CCA requires positive ridges c1, c2: the unregularised dual "
                         "problem is degenerate (all correlations 1)")
    if n > DIRECT_N_LIMIT:
        raise ValueError(f"direct kernel CCA is limited to n <= {DIRECT_N_LIMIT} (got n = {n}); "
                         "use fit_kernel_cca_pgso")
    if not 1 <= r <= n:
        raise ValueError(f"components must satisfy 1 <= r <= n = {n}, got {r}")


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
    ``r`` leading singular triplets are computed (``top_svd``: from
    ``LANCZOS_MIN_ROWS`` rows on by Lanczos, below it by a subset ``eigh``).
    At most five n x n arrays are alive at once besides the Grams: the two
    inverses, the two factors of the product, and the product.
    """
    n = grams.n
    _check_direct(n, c1, c2, r)
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
    require_components(res.s, r)
    duals = fix_signs(np.vstack([inverse_a @ res.u, inverse_b @ res.v]))
    return _assemble_kernel_model(
        grams, duals[:n], duals[n:], "kernel_pencil", {"c1": c1, "c2": c2}
    )


def _reduced_cholesky(block: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a reduced gram block, computed in place when
    ``block`` is in F order."""
    import scipy.linalg

    try:
        return scipy.linalg.cholesky(block, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise NumericalError(
            "a reduced gram block is singular; decrease eta or increase kappa"
        ) from None


def _check_pgso(kappa: float, eta: float | None, r: int) -> None:
    """Reject arguments the reduced route cannot fit, before any Gram is built."""
    if not (np.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if eta is not None and not (np.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and nonnegative, got {eta}")
    if r < 1:
        raise ValueError(f"components must be at least 1, got {r}")


def fit_kernel_cca_pgso(
    grams: GramPair, kappa: float, eta: float | None = None, r: int = 1
) -> KernelCcaModel:
    """Kernel CCA on incomplete Cholesky factors of both Grams.

    Factorises ``K ~= R R.T`` per view in one pass of ``partial_gram_schmidt``'s
    body (greedy pivoting, trace cutoff ``eta``, defaulting to ``1e-6 *
    trace(K)``), which also gives the residual trace; both Grams were checked
    by ``GramPair`` when it was built, and ``eta`` by ``_check_pgso``.  It forms
    the reduced blocks ``D_xy = R_x.T R_y``, and takes the top ``r`` singular
    triplets ``(u, rho, v)`` of the whitened cross block
    ``inv(S) D_ab inv(L_b).T``, with ``D_aa = S S.T`` and
    ``D_bb + kappa I = L_b L_b.T``, through ``top_svd`` (Lanczos once the
    block has ``LANCZOS_MIN_ROWS`` rows, as on example8 at n=3000 with about
    1730 x 1940; a subset ``eigh`` below).  The reduced duals
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
        Positive finite ridge on the reduced view-b block.
    eta : float, optional
        Finite nonnegative residual-trace cutoff for the factorisation, shared
        by both views when given explicitly.
    r : int
        Number of components.
    """
    import scipy.linalg

    _check_pgso(kappa, eta, r)
    r_a, eta_a, trace_a = _pivoted_factor(grams.k_a, eta)
    r_b, eta_b, trace_b = _pivoted_factor(grams.k_b, eta)
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
    res = top_svd(whitened, min(r, *whitened.shape)) if min(whitened.shape) else None
    require_components(res.s if res else (), r)
    alpha_red = scipy.linalg.solve_triangular(s, res.u, lower=True, trans="T")
    beta_red = scipy.linalg.cho_solve((bb_plain, True), r_b.T @ (r_a @ alpha_red)) / res.s
    # minimum-norm duals in the full space
    alpha = r_a @ scipy.linalg.cho_solve((s, True), alpha_red)
    beta = r_b @ scipy.linalg.cho_solve((bb_plain, True), beta_red)
    return _assemble_kernel_model(
        grams, alpha, beta, "kernel_pgso", {"kappa": kappa, "eta_a": eta_a, "eta_b": eta_b},
        factor_columns=(r_a.shape[1], r_b.shape[1]), residual_traces=(trace_a, trace_b),
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
