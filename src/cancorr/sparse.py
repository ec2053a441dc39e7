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
    if not (np.isfinite(c) and c >= 0):
        raise ValueError(f"threshold must be finite and nonnegative, got {c}")
    a = np.asarray(a, dtype=float)
    return np.sign(a) * np.maximum(np.abs(a) - c, 0.0)


def sparse_unit_solve(a, budget: float) -> np.ndarray:
    """Maximise ``u . a`` subject to ``||u||_2 <= 1`` and ``||u||_1 <= budget``.

    The solution is ``soft_threshold(a, delta)`` rescaled to unit 2-norm, with
    ``delta = 0`` when the plain unit vector already satisfies the 1-norm budget
    and otherwise the exact threshold that meets it: if ``delta`` keeps the
    ``k`` largest magnitudes, with mean ``mean`` and sum of squared deviations
    ``V``, then ``delta = mean - budget * sqrt(V / (k (k - budget^2)))``.
    A budget must be finite; below 1 it is infeasible (a unit 2-norm vector
    has 1-norm >= 1).
    ``t`` entries tied for the largest magnitude hold the 1-norm at ``sqrt(t)``
    or more; a budget below that raises ``NumericalError``.
    """
    a = np.asarray(a, dtype=float).ravel()
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("cannot solve for a zero coefficient vector")
    if not (np.isfinite(budget) and budget >= 1):
        raise ValueError("budget must be finite and at least 1 (below 1 is infeasible "
                         f"for a unit vector), got {budget}")
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

    Budgets must be finite and at least 1; from ``sqrt(dim)`` up the 1-norm
    constraint is simply inactive, so an infinite budget would add nothing.
    """
    c_ab = as_checked_array(c_ab, "cross-covariance")
    if c_ab.ndim != 2:
        raise ValueError(f"cross-covariance must be 2-d, got shape {c_ab.shape}")
    p, q = c_ab.shape
    if not (np.isfinite(budget_a) and np.isfinite(budget_b) and min(budget_a, budget_b) >= 1):
        raise ValueError(
            "budgets must be finite and at least 1 (below 1 is infeasible), "
            f"got ({budget_a}, {budget_b})"
        )
    if not 1 <= r <= min(p, q):
        raise ValueError(f"ranks must satisfy 1 <= r <= min(p, q) = {min(p, q)}, got {r}")
    resid = c_ab.copy()
    base_scale = max(float(np.abs(c_ab).max()), 1.0)
    ranks = []
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
        ranks.append((w_a, w_b, sigma, iters, done, np.asarray(history)))
    if not ranks:
        raise NumericalError("cross-covariance is numerically zero; nothing to decompose")
    w_a_cols, w_b_cols, sigmas, iterations, converged, histories = zip(*ranks)
    return PmdResult(
        w_a=np.column_stack(w_a_cols),
        w_b=np.column_stack(w_b_cols),
        sigmas=np.asarray(sigmas),
        budget_a=float(budget_a),
        budget_b=float(budget_b),
        iterations=iterations,
        converged=converged,
        objective_histories=histories,
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
    if not (np.isfinite(mu) and np.isfinite(gamma) and min(mu, gamma) >= 0):
        raise ValueError(f"penalties must be finite and nonnegative, got mu={mu}, gamma={gamma}")
    design = np.hstack([x_a, -k_b])
    return x_a, k_b, design, design.T @ design, np.repeat([float(mu), float(gamma)], [p, n])


def _stacked_solve(a, b):
    """``np.linalg.solve`` of a stack of systems, with NaN solutions for the
    exactly singular ones instead of an error.

    Only a stack that raises is solved again system by system; a lone
    ``dgesv`` gives the bits of the same system inside a stack.
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(a.shape[0]):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _newton_steps(sub, lin):
    """Newton directions ``-sub^-1 lin / 2`` of sign-fixed problems, one per row."""
    return _stacked_solve(sub, -0.5 * lin[:, :, None])[:, :, 0]


def _entering_steps(sub, direction):
    """Directions that move each row's last entry by ``direction`` and keep
    the stationarity of the others: ``-direction sub[:-1, :-1]^-1 sub[:-1, -1]``."""
    d = direction[:, None]
    sol = _stacked_solve(sub[:, :-1, :-1], sub[:, :-1, -1:])[:, :, 0]
    return np.concatenate([-d * sol, d], axis=1)


def _fit_batch(x_a, k_b, design, gram, penalty, columns):
    """Active-set solves for the basis ``columns``, run in lockstep.

    Column ``j`` fits ``design @ z`` with ``z = (w, beta)`` and its pinned entry
    ``p + j`` held at 1.  Free entries are nonzero and move on their sign;
    ``order[:n_free]`` lists them in the order they entered.  ``at_box`` marks
    dual entries held at ``sign = +-1``, and the rest are 0.  While a free
    stationarity condition is violated, a step follows the Newton direction of
    the sign-fixed problem on the free set; otherwise the worst violator enters
    along the direction that keeps the free conditions, which needs only the
    free block of ``gram`` to be nonsingular.  Each step stops at its line
    minimum or at the first zero crossing or box hit, so in exact arithmetic
    the objective never increases.

    Every live column takes one step per round, and the columns whose steps
    span the same number of entries move together.  Their solves are stacked
    by size and their products are stacked row products, which give each
    column the bits of its own ``dgesv``, ``gemv`` and ``ddot`` calls, so a
    column's fit does not depend on the batch it runs in.  A column leaves the
    batch once it meets its KKT tolerance, its objective is not finite, it has
    taken ``PD_MAX_STEPS`` steps, or it finds no descent direction or no
    finite step; an exactly singular free block gives a NaN step, which is
    no finite step.  Returns ``(z, histories, violations, tols)``, one entry
    per column.
    """
    p, dim = x_a.shape[1], design.shape[1]
    ids = np.arange(len(columns))
    pin = p + np.asarray(columns, dtype=int)
    z, sign = np.zeros((ids.size, dim)), np.zeros((ids.size, dim))
    z[ids, pin] = 1.0
    free, at_box = np.zeros((ids.size, dim), dtype=bool), np.zeros((ids.size, dim), dtype=bool)
    order, n_free = np.zeros((ids.size, dim), dtype=int), np.zeros(ids.size, dtype=int)
    cross = np.abs(gram[:, pin].T)  # |c|, each column's cross terms
    cross[ids, pin] = -np.inf
    cross = cross.max(axis=1)
    tol = tols = PD_KKT_RTOL * np.where(cross > 1.0, cross, 1.0)
    out_z, out_viol = np.empty_like(z), np.empty(ids.size)
    logs = [[] for _ in ids]  # each column's objective, one entry per round
    base = ids * dim  # flat offset of each live row

    def evaluate():
        fit = (z[:, None, :] @ design.T)[:, 0]
        grad = 2.0 * (fit[:, None, :] @ design)[:, 0]
        viol = np.where(free, np.abs(grad + penalty * sign), np.abs(grad) - penalty)
        viol = np.where(at_box, grad * sign + penalty, viol)
        at_pin = base + pin
        viol.put(at_pin, -np.inf)
        size = np.abs(z)
        size.put(at_pin, 0.0)  # the pinned entry carries no penalty
        objective = ((fit[:, None, :] @ fit[:, :, None])
                     + (size[:, None, :] @ penalty[:, None]))[:, 0, 0]
        for j, value in zip(ids.tolist(), objective.tolist()):
            logs[j].append(value)
        return objective, grad, viol

    # overflow and 0/0 show up as a non-finite objective or step, which stop
    # the column, rather than as warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for steps in range(PD_MAX_STEPS + 1):
            if not ids.size:
                break
            objective, grad, viol = evaluate()
            enter = viol.argmax(axis=1)
            at = base + enter
            stop = (steps == PD_MAX_STEPS) | ~np.isfinite(objective) | (viol.take(at) <= tol)
            newton = np.where(free, viol, -np.inf).max(axis=1) > tol
            # an entering entry moves off the box towards 0, or off 0 downhill
            entering = ~(stop | newton)
            boxed, sign_at = at_box.take(at), sign.take(at)
            direction = np.where(boxed, -sign_at, -np.sign(grad.take(at)))
            at_box.put(at, boxed & ~entering)
            sign.put(at, np.where(entering & ~boxed, direction, sign_at))
            width = n_free + entering
            moving = (~stop).nonzero()[0]
            for m in sorted(set(width[moving].tolist())):
                group = moving[width[moving] == m]
                nt = newton[group]
                idx = order[group, :m]
                idx[:, -1] = np.where(nt, idx[:, -1], enter[group])
                flat = base[group, None] + idx
                sub = gram.take(idx[:, :, None] * dim + idx[:, None, :])
                lin = grad.take(flat) + penalty.take(idx) * sign.take(flat)
                if not nt.any():
                    step = _entering_steps(sub, direction[group])
                else:
                    step = np.empty((group.size, m))
                    step[nt] = _newton_steps(sub[nt], lin[nt])
                    step[~nt] = _entering_steps(sub[~nt], direction[group[~nt]])
                slope = (lin[:, None, :] @ step[:, :, None])[:, 0, 0]
                curvature = ((step[:, None, :] @ sub) @ step[:, :, None])[:, 0, 0]
                length = np.where(curvature > 0.0, -slope / (2.0 * curvature), np.inf)
                z_idx = z.take(flat)
                z_step = z_idx * step
                limits = np.concatenate([
                    np.where(z_step < 0.0, -z_idx / step, np.inf),
                    np.where((idx >= p) & (z_step >= 0.0) & (step != 0.0),
                             (1.0 - np.abs(z_idx)) / np.abs(step), np.inf),
                ], axis=1)
                blocked = limits.argmin(axis=1)
                bound = limits.min(axis=1)
                length = np.where(bound < length, bound, length)
                # no descent direction or no finite step: stop unconverged
                ok = (slope < 0.0) & np.isfinite(length)
                if not ok.all():
                    stop[group[~ok]] = True
                    group, idx, flat, step, z_idx = (a[ok] for a in (group, idx, flat, step, z_idx))
                    length, blocked, bound = length[ok], blocked[ok], bound[ok]
                z.put(flat, z_idx + length[:, None] * step)
                free.put(flat[:, -1], True)
                order[group, m - 1] = idx[:, -1]
                n_free[group] = m
                hit = length == bound
                if hit.any():
                    # a blocked entry leaves the free list, at 0 or at the box,
                    # and the later entries move up one place
                    group, idx, flat, blocked = group[hit], idx[hit], flat[hit], blocked[hit]
                    gone = blocked % m
                    order[group, :m] = np.where(np.arange(m) < gone[:, None], idx,
                                                np.concatenate([idx[:, 1:], idx[:, :1]], axis=1))
                    n_free[group] = m - 1
                    left = flat[np.arange(group.size), gone]
                    at_zero = blocked < m
                    free.put(left, False)
                    z.put(left, np.where(at_zero, 0.0, sign.take(left)))
                    at_box.put(left, ~at_zero)
            if stop.any():
                worst = viol[stop].max(axis=1)
                out_z[ids[stop]] = z[stop]
                out_viol[ids[stop]] = np.where(0.0 > worst, 0.0, worst)
                keep = ~stop
                z, sign, free, at_box, order, n_free, pin, tol, ids = (
                    a[keep] for a in (z, sign, free, at_box, order, n_free, pin, tol, ids))
                base = np.arange(ids.size) * dim
    return out_z, [np.asarray(log) for log in logs], out_viol, tols


def _result(x_a, k_b, basis_index, z, history, violation, tol) -> PrimalDualResult:
    """One column of ``_fit_batch`` as a ``PrimalDualResult``, with its image correlation."""
    p = x_a.shape[1]
    w, beta = z[:p].copy(), z[p:].copy()
    (correlation,) = unit_images(x_a @ w[:, None], k_b @ beta[:, None])[2]
    return PrimalDualResult(
        w_a=w, beta=beta, objective=float(history[-1]), correlation=float(correlation),
        basis_index=int(basis_index), degenerate=not np.any(w),
        converged=bool(violation <= tol), n_iterations=history.size - 1,
        objective_history=history, kkt_violation=float(violation),
    )


def fit_primal_dual(x_a, k_b, mu: float, gamma: float, basis_index: int) -> PrimalDualResult:
    """Match sparse primal weights against one kernel basis column.

    Minimises ``||X_a w - K_b beta||^2 + mu ||w||_1 + gamma ||beta_rest||_1``
    with ``beta[basis_index]`` pinned to 1 and the other dual entries held in
    [-1, 1], so the sup norm is attained at the pinned entry.  That is one
    box-constrained lasso in ``(w, beta_rest)``, solved by an active-set
    method (Osborne, Presnell & Turlach 2000) whose steps never raise the
    objective in exact arithmetic.  In floating point a nearly singular free
    block can give a step that raises it by orders of magnitude, and an
    exactly singular one gives no finite step.  With ``g`` the gradient of
    the squared fit and ``c = [X_a, -K_b].T K_b[:, basis_index]`` off the
    pinned entry, it stops once every KKT violation (``|g_i| - pen_i`` off
    the support, ``|g_i + pen_i sign_i|`` on it, ``g_i sign_i + pen_i`` at
    the box) is at most ``PD_KKT_RTOL * max(1, max|c|)``, or with
    ``converged=False`` after ``PD_MAX_STEPS`` steps (read at call time) or
    when no descent direction or no finite step is left at working
    precision.  The fit is the lockstep
    solve of ``scan_basis`` run as a batch of one column, and has the bits of
    that column in the scan.  Raises ``NumericalError`` when the objective is
    not finite.
    """
    x_a, k_b, design, gram, penalty = _stacked_problem(x_a, k_b, mu, gamma)
    if not 0 <= basis_index < k_b.shape[0]:
        raise ValueError(f"basis_index must lie in [0, {k_b.shape[0]}), got {basis_index}")
    z, (history,), violation, tol = _fit_batch(x_a, k_b, design, gram, penalty, [basis_index])
    if not np.isfinite(history[-1]):
        raise NumericalError(f"objective for basis {basis_index} is not finite: {history[-1]}")
    return _result(x_a, k_b, basis_index, z[0], history, violation[0], tol[0])


def scan_basis(x_a, k_b, mu: float, gamma: float) -> PrimalDualResult:
    """Fit every kernel basis column and keep the lowest-objective solution.

    All columns run the active-set solve of ``fit_primal_dual`` in lockstep
    on one shared Gram matrix of ``[X_a, -K_b]``: each round moves every
    unfinished column by one step, with the solves stacked by size.  A
    column's bits do not depend on the columns beside it, so the winner is
    bit-equal to the pinned fit of its column; only the winner's image
    correlation is computed.  A column whose objective is not finite counts as
    failed; ties in the objective go to the smaller basis index.  Raises
    ``NumericalError`` if every column fails.
    """
    x_a, k_b, design, gram, penalty = _stacked_problem(x_a, k_b, mu, gamma)
    z, histories, violations, tols = _fit_batch(x_a, k_b, design, gram, penalty,
                                                range(k_b.shape[0]))
    objectives = np.array([history[-1] for history in histories])
    if not np.isfinite(objectives).any():
        raise NumericalError("every basis column failed to fit: no objective is finite")
    j = int(np.argmin(np.where(np.isfinite(objectives), objectives, np.inf)))
    return _result(x_a, k_b, j, z[j], histories[j], violations[j], tols[j])
