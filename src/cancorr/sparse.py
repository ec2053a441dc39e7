"""Sparse canonical weights: penalised rank-1 decomposition of the cross block
and a primal-dual formulation that matches a primal view against one kernel
basis column."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericalError, as_checked_array, unit_images

PMD_CONVERGENCE_TOL = 1e-6
PMD_MAX_ITER = 500

PD_KKT_RTOL = 1e-12
PD_MAX_STEPS = 2000


def soft_threshold(a, c: float) -> np.ndarray:
    """Elementwise shrinkage ``sign(a) * max(|a| - c, 0)``."""
    if c < 0:
        raise ValueError(f"threshold must be nonnegative, got {c}")
    a = np.asarray(a, dtype=float)
    return np.sign(a) * np.maximum(np.abs(a) - c, 0.0)


def sparse_unit_solve(a, budget: float) -> np.ndarray:
    """Maximise ``u . a`` subject to ``||u||_2 <= 1`` and ``||u||_1 <= budget``.

    The solution is ``soft_threshold(a, delta)`` rescaled to unit 2-norm, with
    ``delta = 0`` when the plain unit vector already satisfies the 1-norm budget
    and otherwise the exact threshold that meets it: if ``delta`` keeps the
    ``k`` largest magnitudes, with mean ``mean`` and sum of squared deviations
    ``V``, then ``delta = mean - budget * sqrt(V / (k (k - budget^2)))``.
    Budgets below 1 are infeasible (a unit 2-norm vector has 1-norm >= 1).
    ``t`` entries tied for the largest magnitude hold the 1-norm at ``sqrt(t)``
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
    m = np.sort(np.abs(a))[::-1]
    ties = int(np.count_nonzero(m == m[0]))
    if np.sqrt(ties) > budget:
        raise NumericalError(
            f"no soft threshold meets the 1-norm budget {budget:g}: {ties} entries tie for the "
            f"largest magnitude, so every unit vector left has 1-norm {np.sqrt(ties):.6g} or more"
        )
    # delta in [lower[j], m[j]) keeps the j + 1 largest magnitudes, and the ratio
    # 1-norm / 2-norm falls as delta grows: the first segment whose lower end
    # reaches the budget holds delta (delta = 0 does; the ties' ratio is sqrt(ties))
    lower, k, s1 = np.append(m[1:], 0.0), np.arange(1.0, m.size + 1.0), np.cumsum(m)
    l1 = s1 - k * lower
    reach = l1 * l1 >= budget**2 * (np.cumsum(m * m) - 2.0 * s1 * lower + k * lower**2)
    reach[-1] = True
    reach[ties - 1] = np.sqrt(ties) == budget
    j = ties - 1 + int(np.argmax(reach[ties - 1:]))
    delta = lower[j]
    if j >= ties and k[j] > budget**2:  # off the flat segment of the ties
        top = m[: j + 1]
        spread = float(((top - top.mean()) ** 2).sum())
        delta = max(delta, top.mean() - budget * np.sqrt(spread / (k[j] * (k[j] - budget**2))))
    s = soft_threshold(a, delta)
    return s / np.linalg.norm(s)


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
    ``w_b = sparse_unit_solve(C.T w_a, budget_b)``, each an exact maximiser,
    so the objective ``w_a.T C w_b`` never falls; it stops when the max-abs
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
    """Sparse primal weights matched to one kernel basis column.  ``n_iterations``
    counts active-set steps; ``kkt_violation`` is the largest KKT violation at
    the returned point, and ``converged`` says it met the stopping rule."""

    w_a: np.ndarray
    beta: np.ndarray
    objective: float
    correlation: float
    basis_index: int
    degenerate: bool
    converged: bool
    n_iterations: int
    objective_history: np.ndarray
    kkt_violation: float


def _stacked_problem(x_a, k_b, mu, gamma):
    """Checked inputs, ``design = [x_a, -k_b]``, its Gram and the column penalties."""
    x_a = as_checked_array(x_a, "view a")
    k_b = as_checked_array(k_b, "kernel matrix")
    if x_a.ndim != 2 or k_b.ndim != 2 or k_b.shape[0] != k_b.shape[1]:
        raise ValueError("expected a 2-d view and a square kernel matrix")
    n, p = x_a.shape
    if k_b.shape[0] != n:
        raise ValueError(f"row counts differ: view a has {n}, kernel matrix has {k_b.shape[0]}")
    if mu < 0 or gamma < 0:
        raise ValueError(f"penalties must be nonnegative, got mu={mu}, gamma={gamma}")
    design = np.hstack([x_a, -k_b])
    return x_a, k_b, design, design.T @ design, np.repeat([float(mu), float(gamma)], [p, n])


def _fit_basis(x_a, k_b, design, gram, penalty, basis_index) -> PrimalDualResult:
    """Active-set solve for one basis column: the fit is ``design @ z`` with
    ``z = (w, beta)`` and the pinned entry held at 1.  ``free`` lists the
    nonzero entries that move on their sign, ``at_box`` marks dual entries held
    at ``sign = +-1``, and the rest are 0.  While a free stationarity condition
    is violated, a step follows the Newton direction of the sign-fixed problem
    on ``free``; otherwise the worst violator enters along the direction that
    keeps the free conditions, which needs only the free block of ``gram`` to
    be nonsingular.  Each step stops at its line minimum or at the first zero
    crossing or box hit, so the objective never increases.
    """
    p, dim = x_a.shape[1], design.shape[1]
    pin = p + basis_index
    lam = penalty.copy()
    lam[pin] = 0.0
    z, sign, free, at_box = np.zeros(dim), np.zeros(dim), [], np.zeros(dim, dtype=bool)
    z[pin] = 1.0
    tol = PD_KKT_RTOL * max(1.0, float(np.abs(np.delete(gram[:, pin], pin)).max()))

    def evaluate():
        fit = design @ z
        grad = 2.0 * (design.T @ fit)
        viol = np.abs(grad) - lam
        viol[free] = np.abs(grad[free] + lam[free] * sign[free])
        viol[at_box] = grad[at_box] * sign[at_box] + lam[at_box]
        viol[pin] = -np.inf
        return float(fit @ fit + lam @ np.abs(z)), grad, viol

    objective, grad, viol = evaluate()
    history = [objective]
    while np.isfinite(objective) and len(history) <= PD_MAX_STEPS:
        enter = int(np.argmax(viol))
        if viol[enter] <= tol:
            break
        idx = np.array(free, dtype=int)
        if free and viol[idx].max() > tol:
            enter, sub = None, gram[idx[:, None], idx]
            step = np.linalg.solve(sub, -0.5 * (grad[idx] + lam[idx] * sign[idx]))
        else:
            if at_box[enter]:
                at_box[enter], direction = False, -sign[enter]
            else:
                direction = sign[enter] = -np.sign(grad[enter])
            idx = np.append(idx, enter)
            sub = gram[idx[:, None], idx]
            step = np.append(-direction * np.linalg.solve(sub[:-1, :-1], sub[:-1, -1]), direction)
        slope = float((grad[idx] + lam[idx] * sign[idx]) @ step)
        curvature = float(step @ sub @ step)
        if not slope < 0.0:
            break  # no descent direction left at this precision: stop unconverged
        length = -slope / (2.0 * curvature) if curvature > 0.0 else np.inf
        z_idx = z[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            limits = np.concatenate([
                np.where(z_idx * step < 0.0, -z_idx / step, np.inf),
                np.where((idx >= p) & (z_idx * step >= 0.0) & (step != 0.0),
                         (1.0 - np.abs(z_idx)) / np.abs(step), np.inf),
            ])
        blocked = int(np.argmin(limits))
        length = min(length, float(limits[blocked]))
        if not np.isfinite(length):
            break
        z[idx] += length * step
        if enter is not None:
            free.append(enter)
        if length == limits[blocked]:
            k = int(idx[blocked % idx.size])
            free.remove(k)
            z[k] = 0.0 if blocked < idx.size else sign[k]
            at_box[k] = blocked >= idx.size
        objective, grad, viol = evaluate()
        history.append(objective)
    violation = max(float(viol.max()), 0.0)
    w, beta = z[:p].copy(), z[p:].copy()
    (correlation,) = unit_images(x_a @ w[:, None], k_b @ beta[:, None])[2]
    return PrimalDualResult(
        w_a=w, beta=beta, objective=objective, correlation=float(correlation),
        basis_index=int(basis_index), degenerate=not np.any(w),
        converged=bool(violation <= tol), n_iterations=len(history) - 1,
        objective_history=np.asarray(history), kkt_violation=violation,
    )


def fit_primal_dual(x_a, k_b, mu: float, gamma: float, basis_index: int) -> PrimalDualResult:
    """Match sparse primal weights against one kernel basis column.

    Minimises ``||X_a w - K_b beta||^2 + mu ||w||_1 + gamma ||beta_rest||_1``
    with ``beta[basis_index]`` pinned to 1 and the other dual entries held in
    [-1, 1], so the sup norm is attained at the pinned entry.  That is one
    box-constrained lasso in ``(w, beta_rest)``, solved exactly by an
    active-set method (Osborne, Presnell & Turlach 2000) whose steps never
    raise the objective.  With ``g`` the gradient of the squared fit and
    ``c = [X_a, -K_b].T K_b[:, basis_index]`` off the pinned entry, it stops
    once every KKT violation (``|g_i| - pen_i`` off the support, ``|g_i +
    pen_i sign_i|`` on it, ``g_i sign_i + pen_i`` at the box) is at most
    ``PD_KKT_RTOL * max(1, max|c|)``, or with ``converged=False`` after
    ``PD_MAX_STEPS`` steps.  Raises ``NumericalError`` when the objective is
    not finite.
    """
    x_a, k_b, design, gram, penalty = _stacked_problem(x_a, k_b, mu, gamma)
    if not 0 <= basis_index < k_b.shape[0]:
        raise ValueError(f"basis_index must lie in [0, {k_b.shape[0]}), got {basis_index}")
    result = _fit_basis(x_a, k_b, design, gram, penalty, basis_index)
    if not np.isfinite(result.objective):
        raise NumericalError(f"objective for basis {basis_index} is not finite: {result.objective}")
    return result


def scan_basis(x_a, k_b, mu: float, gamma: float) -> PrimalDualResult:
    """Fit every kernel basis column and keep the lowest-objective solution.

    Every column runs the solve of ``fit_primal_dual`` on one shared Gram
    matrix of ``[X_a, -K_b]``, so the winner is bit-equal to the pinned fit of
    its column.  A column whose objective is not finite counts as failed; ties
    in the objective go to the smaller basis index.  Raises ``NumericalError``
    if every column fails.
    """
    x_a, k_b, design, gram, penalty = _stacked_problem(x_a, k_b, mu, gamma)
    results = [_fit_basis(x_a, k_b, design, gram, penalty, j) for j in range(k_b.shape[0])]
    finite = [res for res in results if np.isfinite(res.objective)]
    if not finite:
        raise NumericalError("every basis column failed to fit: no objective is finite")
    return min(finite, key=lambda res: res.objective)
