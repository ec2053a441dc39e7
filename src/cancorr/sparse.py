"""Sparse canonical weights: penalised rank-1 decomposition of the cross block
and a primal-dual formulation that matches a primal view against one kernel
basis column."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericalError, as_checked_array, unit_images

PMD_L1_TOL = 1e-6
PMD_MAX_BISECT = 100
PMD_CONVERGENCE_TOL = 1e-6
PMD_MAX_ITER = 500

PD_TOL = 1e-8
PD_MAX_OUTER = 1000
PD_MAX_SWEEPS = 100
PD_SWEEP_TOL = 1e-10


def soft_threshold(a, c: float) -> np.ndarray:
    """Elementwise shrinkage ``sign(a) * max(|a| - c, 0)``."""
    if c < 0:
        raise ValueError(f"threshold must be nonnegative, got {c}")
    a = np.asarray(a, dtype=float)
    return np.sign(a) * np.maximum(np.abs(a) - c, 0.0)


def sparse_unit_solve(a, budget: float) -> np.ndarray:
    """Maximise ``u . a`` subject to ``||u||_2 <= 1`` and ``||u||_1 <= budget``.

    The solution is ``soft_threshold(a, delta)`` rescaled to unit 2-norm,
    with ``delta = 0`` when the plain unit vector already satisfies the
    1-norm budget and otherwise found by bisection on
    ``delta in [0, max|a|]`` until the 1-norm matches the budget within 1e-6.
    Budgets below 1 are infeasible (a unit 2-norm vector has 1-norm >= 1).
    ``k`` entries tied for the largest magnitude hold the 1-norm at ``sqrt(k)``
    or more; a budget below that raises ``NumericalError``.
    """
    a = np.asarray(a, dtype=float).ravel()
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("cannot solve for a zero coefficient vector")
    if budget < 1:
        raise ValueError(f"budget below 1 is infeasible for a unit vector, got {budget}")
    u = a / norm
    if np.abs(u).sum() <= budget:
        return u
    lo, hi = 0.0, float(np.abs(a).max())
    for _ in range(PMD_MAX_BISECT):
        mid = (lo + hi) / 2.0
        s = soft_threshold(a, mid)
        s_norm = np.linalg.norm(s)
        if s_norm == 0:
            hi = mid
            continue
        u = s / s_norm
        l1 = float(np.abs(u).sum())
        if abs(l1 - budget) <= PMD_L1_TOL:
            return u
        if l1 > budget:
            lo = mid
        else:
            hi = mid
    raise NumericalError(
        f"no soft threshold meets the 1-norm budget {budget:g}: bisection stopped at "
        f"1-norm {l1:.6g}; tied largest-magnitude entries keep it above the budget"
    )


@dataclass(frozen=True)
class PmdResult:
    """Sparse rank-1 weight pairs with their scales, one column per rank."""

    w_a: np.ndarray
    w_b: np.ndarray
    sigmas: np.ndarray
    budget_a: float
    budget_b: float
    iterations: tuple[int, ...]
    converged: tuple[bool, ...]
    objective_histories: tuple[np.ndarray, ...]

    @property
    def r(self) -> int:
        return self.w_a.shape[1]


def fit_pmd(c_ab, budget_a: float, budget_b: float, r: int) -> PmdResult:
    """Penalised rank-1 decomposition of a cross-covariance matrix.

    Each rank alternates ``w_a = sparse_unit_solve(C w_b, budget_a)`` and
    ``w_b = sparse_unit_solve(C.T w_a, budget_b)``, stops when the max-abs
    change of both weights drops to 1e-6 (or after 500 alternations), records
    the scale ``sigma = w_a.T C w_b``, and deflates
    ``C <- C - sigma w_a w_b.T``.

    The alternation starts from the axis vector of the column holding the
    residual's largest-magnitude entry. When p*q >> n^2 the leading singular
    vector of an empirical cross-covariance aggregates noise (its scale grows
    like (sqrt(p) + sqrt(q))/sqrt(n)) and traps the alternation in an
    uninformative basin, whereas the largest single entry concentrates near
    sqrt(2 log(p q) / n) under independence, so an entry that clears that
    level flags a genuinely related pair. On signal-dominated matrices the
    two starts agree.

    Budgets live in ``[1, sqrt(dim)]``; above the upper end the 1-norm
    constraint is simply inactive.
    """
    c_ab = as_checked_array(c_ab, "cross-covariance")
    if c_ab.ndim != 2:
        raise ValueError(f"cross-covariance must be 2-d, got shape {c_ab.shape}")
    p, q = c_ab.shape
    if budget_a < 1 or budget_b < 1:
        raise ValueError(
            f"budgets below 1 are infeasible, got ({budget_a}, {budget_b})"
        )
    if not 1 <= r <= min(p, q):
        raise ValueError(f"ranks must satisfy 1 <= r <= min(p, q) = {min(p, q)}, got {r}")
    resid = c_ab.copy()
    base_scale = max(float(np.abs(c_ab).max()), 1.0)
    w_a_cols, w_b_cols, sigmas = [], [], []
    iterations, converged, histories = [], [], []
    for _ in range(r):
        if float(np.abs(resid).max()) <= 1e-12 * base_scale:
            # residual exhausted: no structure left for further ranks
            break
        w_b = np.zeros(q)
        w_b[int(np.argmax(np.abs(resid).max(axis=0)))] = 1.0
        w_a = np.zeros(p)
        history = []
        done = False
        iters = 0
        for iters in range(1, PMD_MAX_ITER + 1):
            w_a_new = sparse_unit_solve(resid @ w_b, budget_a)
            w_b_new = sparse_unit_solve(resid.T @ w_a_new, budget_b)
            history.append(float(w_a_new @ resid @ w_b_new))
            delta = max(
                float(np.abs(w_a_new - w_a).max()),
                float(np.abs(w_b_new - w_b).max()),
            )
            w_a, w_b = w_a_new, w_b_new
            if delta <= PMD_CONVERGENCE_TOL:
                done = True
                break
        sigma = float(w_a @ resid @ w_b)
        resid = resid - sigma * np.outer(w_a, w_b)
        w_a_cols.append(w_a)
        w_b_cols.append(w_b)
        sigmas.append(sigma)
        iterations.append(iters)
        converged.append(done)
        histories.append(np.asarray(history))
    if not w_a_cols:
        raise NumericalError("cross-covariance is numerically zero; nothing to decompose")
    return PmdResult(
        w_a=np.column_stack(w_a_cols),
        w_b=np.column_stack(w_b_cols),
        sigmas=np.asarray(sigmas),
        budget_a=float(budget_a),
        budget_b=float(budget_b),
        iterations=tuple(iterations),
        converged=tuple(converged),
        objective_histories=tuple(histories),
    )


# ---------------------------------------------------------------------------
# primal-dual formulation


@dataclass(frozen=True)
class PrimalDualResult:
    """Sparse primal weights matched to one kernel basis column.  ``inner_capped``
    counts the inner lasso solves that stopped at ``PD_MAX_SWEEPS`` sweeps."""

    w_a: np.ndarray
    beta: np.ndarray
    objective: float
    correlation: float
    basis_index: int
    degenerate: bool
    converged: bool
    n_iterations: int
    objective_history: np.ndarray
    inner_capped: int = 0


def _batched_lasso(design, response, penalty, coef, box=None, pinned=None) -> np.ndarray:
    """Exact coordinate descent for ``||response - design @ coef||^2 + penalty ||coef||_1``,
    one problem per column of ``coef`` (updated in place), all in lockstep.

    With ``box`` set, each coordinate is additionally clipped to
    ``[-box, box]`` (still the exact coordinate-wise minimiser of the convex
    objective, so every update decreases it); problem ``b`` holds coordinate
    ``pinned[b]`` fixed.  A problem leaves the live columns after a sweep that
    moves no coordinate by more than ``PD_SWEEP_TOL``.  Returns the mask of
    problems still moving after ``PD_MAX_SWEEPS`` sweeps.
    """
    col_sq = np.einsum("ij,ij->j", design, design)
    steps = [(j, design[:, j].copy(), design[:, j, None], col_sq[j])
             for j in np.flatnonzero(col_sq > 0)]
    half = penalty / 2.0
    live, c = np.arange(coef.shape[1]), coef.copy()
    resid = response - design @ c
    for _ in range(PD_MAX_SWEEPS):
        start = c.copy()
        for j, x, x_col, sq in steps:
            c_j = c[j]
            rho = x @ resid
            rho += sq * c_j
            # sign(rho) * max(|rho| - half, 0), bit for bit
            new = rho - np.minimum(np.maximum(rho, -half), half)
            new /= sq
            if box is not None:
                np.minimum(np.maximum(new, -box, out=new), box, out=new)
            if pinned is not None:
                np.copyto(new, c_j, where=pinned == j)
            c_j -= new
            resid += x_col * c_j
            c_j[...] = new
        # each coordinate moves once per sweep; fmax ignores NaN moves
        moving = np.fmax.reduce(np.abs(c - start), axis=0, initial=0.0) > PD_SWEEP_TOL
        if not moving.all():
            coef[:, live] = c
            live, c, resid = live[moving], c[:, moving], resid[:, moving]
            pinned = None if pinned is None else pinned[moving]
            if not live.size:
                break
    coef[:, live] = c
    return np.isin(np.arange(coef.shape[1]), live)


def _primal_dual_batch(x_a, k_b, mu, gamma, basis_index) -> list[PrimalDualResult]:
    """Run the primal-dual alternation in lockstep for one basis column, or for
    all of them when ``basis_index`` is None.  A problem leaves the outer rounds
    once its objective decreases by at most ``PD_TOL`` or stops being finite, and
    takes no further arithmetic, so it keeps its one-column iterates up to rounding."""
    x_a = as_checked_array(x_a, "view a")
    k_b = as_checked_array(k_b, "kernel matrix")
    if x_a.ndim != 2 or k_b.ndim != 2 or k_b.shape[0] != k_b.shape[1]:
        raise ValueError("expected a 2-d view and a square kernel matrix")
    n, p = x_a.shape
    if k_b.shape[0] != n:
        raise ValueError(f"row counts differ: view a has {n}, kernel matrix has {k_b.shape[0]}")
    if mu < 0 or gamma < 0:
        raise ValueError(f"penalties must be nonnegative, got mu={mu}, gamma={gamma}")
    if basis_index is not None and not 0 <= basis_index < n:
        raise ValueError(f"basis_index must lie in [0, {n}), got {basis_index}")
    basis = np.arange(n) if basis_index is None else np.array([basis_index])
    cols = np.arange(basis.size)
    w, beta = np.zeros((p, basis.size)), np.zeros((n, basis.size))
    beta[basis, cols] = 1.0
    free = beta == 0.0

    def objective(live):
        fit = x_a @ w[:, live] - k_b @ beta[:, live]
        return (np.einsum("ij,ij->j", fit, fit) + mu * np.abs(w[:, live]).sum(axis=0)
                + gamma * np.abs(np.where(free[:, live], beta[:, live], 0.0)).sum(axis=0))

    last = objective(cols)
    histories = [[float(f)] for f in last]
    converged = np.zeros(basis.size, dtype=bool)
    rounds, capped = np.zeros(basis.size, dtype=int), np.zeros(basis.size, dtype=int)
    live = cols
    for outer in range(1, PD_MAX_OUTER + 1):
        w_live, beta_live = w[:, live], beta[:, live]
        capped[live] += _batched_lasso(x_a, k_b @ beta_live, mu, w_live)
        capped[live] += _batched_lasso(k_b, x_a @ w_live, gamma, beta_live,
                                       box=1.0, pinned=basis[live])
        w[:, live], beta[:, live] = w_live, beta_live
        f = objective(live)
        for b, f_b in zip(live, f):
            histories[b].append(float(f_b))
        rounds[live] = outer
        finite = np.isfinite(f)
        converged[live] = finite & (last[live] - f <= PD_TOL)
        last[live] = f
        live = live[finite & ~converged[live]]
        if not live.size:
            break
    *_, corr, norm_a, norm_b = unit_images(x_a @ w, k_b @ beta)
    corr = np.where((norm_a > 0) & (norm_b > 0), corr, 0.0)
    results = []
    for b in cols:
        w_b, beta_b = w[:, b].copy(), beta[:, b].copy()
        results.append(PrimalDualResult(
            w_a=w_b, beta=beta_b, objective=histories[b][-1], correlation=float(corr[b]),
            basis_index=int(basis[b]), degenerate=not np.any(w_b),
            converged=bool(converged[b]), n_iterations=int(rounds[b]),
            objective_history=np.asarray(histories[b]), inner_capped=int(capped[b]),
        ))
    return results


def fit_primal_dual(x_a, k_b, mu: float, gamma: float, basis_index: int) -> PrimalDualResult:
    """Match sparse primal weights against one kernel basis column.

    Minimises ``||X_a w - K_b beta||^2 + mu ||w||_1 + gamma ||beta_rest||_1``
    where ``beta[basis_index]`` is pinned to 1 and the remaining dual entries
    are box-limited to [-1, 1] so the sup norm is attained at the pinned
    entry.  Alternates exact coordinate descent on ``w`` and on the free dual
    entries; the objective is monotone non-increasing and iteration stops
    when it decreases by at most ``PD_TOL`` (or after ``PD_MAX_OUTER`` rounds).
    This is the one-column run of the batched core behind ``scan_basis``.
    Raises ``NumericalError`` when the objective is not finite.
    """
    (result,) = _primal_dual_batch(x_a, k_b, mu, gamma, basis_index)
    if not np.isfinite(result.objective):
        raise NumericalError(f"objective for basis {basis_index} is not finite: {result.objective}")
    return result


def scan_basis(x_a, k_b, mu: float, gamma: float) -> PrimalDualResult:
    """Fit every kernel basis column and keep the lowest-objective solution.

    The n problems of ``fit_primal_dual`` run in lockstep, vectorised across
    basis columns, each with its one-column iterates up to rounding.  A column
    whose objective is not finite counts as failed; ties in the objective go
    to the smaller basis index.  Raises ``NumericalError`` if every column fails.
    """
    results = _primal_dual_batch(x_a, k_b, mu, gamma, None)
    finite = [res for res in results if np.isfinite(res.objective)]
    if not finite:
        raise NumericalError("every basis column failed to fit: no objective is finite")
    return min(finite, key=lambda res: res.objective)
