"""Ridge-regularised canonical correlation and cross-validated ridge selection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    PairedDataset, covariance_blocks, split_folds, standardize, take_rows, write_csv_rows
)
from .linear import CcaModel, _finalize, _resolve_r, _SpectralCore
from .numerics import NumericalError, unit_images


def default_grid() -> np.ndarray:
    """15 log-spaced ridge candidates spanning 1e-3 .. 1e3."""
    return np.logspace(-3.0, 3.0, 15)


@dataclass(frozen=True)
class RegularizationConfig:
    """Grid and fold settings for cross-validated ridge selection."""

    c1_grid: tuple[float, ...] = field(default_factory=lambda: tuple(default_grid()))
    c2_grid: tuple[float, ...] = field(default_factory=lambda: tuple(default_grid()))
    n_folds: int = 5
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "c1_grid", tuple(float(c) for c in self.c1_grid))
        object.__setattr__(self, "c2_grid", tuple(float(c) for c in self.c2_grid))
        if not self.c1_grid or not self.c2_grid:
            raise ValueError("ridge grids must be non-empty")
        if not all(0.0 <= c < np.inf for c in self.c1_grid + self.c2_grid):
            raise ValueError("ridge values must be finite and nonnegative")
        if self.n_folds < 2:
            raise ValueError(f"need at least 2 folds, got {self.n_folds}")
        if self.repetitions < 1:
            raise ValueError(f"need at least 1 repetition, got {self.repetitions}")


@dataclass(frozen=True)
class CvSurface:
    """Mean held-out cosine and failed-fold count for every (c1, c2) grid cell,
    plus the selected pair."""

    c1_grid: tuple[float, ...]
    c2_grid: tuple[float, ...]
    scores: np.ndarray
    failed_folds: np.ndarray
    selected_c1: float
    selected_c2: float

    @property
    def selected_score(self) -> float:
        """Mean held-out cosine of the selected cell."""
        i = self.c1_grid.index(self.selected_c1)
        return float(self.scores[i, self.c2_grid.index(self.selected_c2)])

    def write_csv(self, path) -> None:
        write_csv_rows(
            path,
            ["c1", "c2", "mean_test_correlation", "failed_folds"],
            (
                [c1, c2, float(self.scores[i, j]), int(self.failed_folds[i, j])]
                for i, c1 in enumerate(self.c1_grid)
                for j, c2 in enumerate(self.c2_grid)
            ),
        )


def fit_regularized(data: PairedDataset, c1: float, c2: float, r: int | None = None) -> CcaModel:
    """Canonical correlation with ridge terms added to the within-view blocks.

    Solves ``inv(C_bb + c2 I) C_ba inv(C_aa + c1 I) C_ab w_b = rho^2 w_b``
    with weights scaled to the ridged constraint ``w.T (C + c I) w = 1``, as
    the SVD of ``(C_aa + c1 I)**-1/2 C_ab (C_bb + c2 I)**-1/2`` taken in the
    blocks' eigenbases.  With ``c1 = c2 = 0`` this reduces to the unregularised fit.

    Reported correlations are the cosines of the unit-norm images, which with
    a ridge sit above the ridged eigenvalues.
    """
    if not (0.0 <= c1 < np.inf and 0.0 <= c2 < np.inf):
        raise ValueError(f"ridge constants must be finite and nonnegative, got c1={c1}, c2={c2}")
    blocks = covariance_blocks(data)
    w_a, w_b = _SpectralCore(blocks).weights(c1, c2, _resolve_r(r, blocks))
    return _finalize(data, w_a, w_b, f"ridge(c1={c1:g},c2={c2:g})")


def cross_validate(data: PairedDataset, config: RegularizationConfig) -> CvSurface:
    """Repeated k-fold search over the ridge grid.

    For every repetition a fresh fold split is drawn (seed + repetition
    index); each train and test fold is standardized with its own statistics;
    the first canonical component is fitted on the train folds and scored by
    the cosine of the held-out images.  Each training fold's whole grid is
    solved at once by the spectral solve that :func:`fit_regularized` runs as
    a 1 x 1 grid: one QR per ridge on the taller view, then one SVD of a
    small square block per cell.  The held-out cosine takes the sign that
    orients the training images.

    A cell fails on a fold when a ridged block is outside ``COND_LIMIT`` or a
    training or held-out image has norm below 1e-300; it then scores -1 there
    and adds one to its ``failed_folds`` count.  Scores are averaged over folds, then over
    repetitions.  The selected cell maximises the mean score among the cells
    with no failed fold; exact ties go to the smallest c1 + c2 (then smallest
    c1).  Raises NumericalError when every cell failed on some fold.
    """
    if data.n < 2 * config.n_folds:
        raise ValueError(
            f"too few observations ({data.n}) for {config.n_folds} folds of at least 2 rows"
        )
    shape = (len(config.c1_grid), len(config.c2_grid))
    total = np.zeros(shape)
    failed_folds = np.zeros(shape, dtype=int)
    for rep in range(config.repetitions):
        folds = split_folds(data.n, config.n_folds, config.seed + rep)
        fold_scores = np.empty((config.n_folds, *shape))
        for f in range(config.n_folds):
            train = standardize(take_rows(data, folds.train_indices(f)))
            test = standardize(take_rows(data, folds.test_indices(f)))
            core = _SpectralCore(covariance_blocks(train))
            w_a, w_b, _, ok = core.solve(config.c1_grid, config.c2_grid, 1)
            *_, fit_corr, fit_a, fit_b = unit_images(train.view_a @ w_a, train.view_b @ w_b)
            *_, test_corr, test_a, test_b = unit_images(test.view_a @ w_a, test.view_b @ w_b)
            norms = np.concatenate([fit_a, fit_b, test_a, test_b], axis=-1)
            ok &= norms.min(axis=-1) >= 1e-300
            score = np.where(fit_corr < 0, -test_corr, test_corr)[..., 0]
            fold_scores[f] = np.where(ok, score, -1.0)
            failed_folds += ~ok
        total += fold_scores.mean(axis=0)
    scores = total / config.repetitions
    keys = [
        (-scores[i, j], c1 + c2, c1, c2)
        for i, c1 in enumerate(config.c1_grid)
        for j, c2 in enumerate(config.c2_grid)
        if failed_folds[i, j] == 0
    ]
    if not keys:
        raise NumericalError(
            "no ridge pair on the grid fitted on every fold; increase the ridges on the grid"
        )
    _, _, best_c1, best_c2 = min(keys)
    return CvSurface(
        c1_grid=config.c1_grid,
        c2_grid=config.c2_grid,
        scores=scores,
        failed_folds=failed_folds,
        selected_c1=best_c1,
        selected_c2=best_c2,
    )
