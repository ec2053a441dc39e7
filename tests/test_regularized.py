"""Ridge fits and repeated k-fold ridge selection."""

import csv

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cancorr import (
    NumericalError,
    PairedDataset,
    RegularizationConfig,
    covariance_blocks,
    cross_validate,
    fit_regularized,
    fit_standard_eig,
    fit_svd,
    gen_eig_sym,
    generate_synthetic,
    get_recipe,
    split_folds,
    standardize,
    take_rows,
)
from cancorr.linear import _finalize, _SpectralCore, project

ACCEPT_GRID = tuple(np.logspace(-3.0, 0.0, 15))
FULL_GRID = tuple(np.logspace(-3.0, 3.0, 15))


def example6(seed: int) -> PairedDataset:
    return generate_synthetic(get_recipe("example6", seed=seed))


def pencil_ridge_fit(data: PairedDataset, c1: float, c2: float, r: int):
    """Reference solve: the ridged (p + q) pencil ``A v = rho B v`` with
    ``A = [[0, C_ab], [C_ba, 0]]``, ``B = blkdiag(C_aa + c1 I, C_bb + c2 I)``.

    Returns the image cosines and unit-norm images, sorted as fit_regularized
    sorts them.
    """
    blocks = covariance_blocks(data)
    p, q = blocks.p, blocks.q
    a = np.zeros((p + q, p + q))
    a[:p, p:] = blocks.c_ab
    a[p:, :p] = blocks.c_ba
    b = scipy.linalg.block_diag(blocks.c_aa + c1 * np.eye(p), blocks.c_bb + c2 * np.eye(q))
    vectors = gen_eig_sym(a, b).vectors[:, :r]
    z_a = data.view_a @ vectors[:p]
    z_b = data.view_b @ vectors[p:]
    z_a = z_a / np.linalg.norm(z_a, axis=0)
    z_b = z_b / np.linalg.norm(z_b, axis=0)
    corr = np.einsum("ij,ij->j", z_a, z_b)
    z_b = z_b * np.sign(corr)
    order = np.argsort(-np.abs(corr), kind="stable")
    return np.abs(corr)[order], z_a[:, order], z_b[:, order]


def scalar_cross_validate(data: PairedDataset, config: RegularizationConfig):
    """Reference: the serial per-cell CV loop.

    Every fold and grid cell runs the scalar fit (``weights``, ``_finalize``)
    and scores the held-out cosine through ``project``; a cell that raises
    scores -1 and counts one failed fold.  Returns the scores, the failed-fold
    counts and the selected (c1, c2), or None when no cell fitted everywhere.
    """
    shape = (len(config.c1_grid), len(config.c2_grid))
    total = np.zeros(shape)
    failed = np.zeros(shape, dtype=int)
    for rep in range(config.repetitions):
        folds = split_folds(data.n, config.n_folds, config.seed + rep)
        fold_scores = np.empty((config.n_folds, *shape))
        for f in range(config.n_folds):
            train = standardize(take_rows(data, folds.train_indices(f)))
            test = standardize(take_rows(data, folds.test_indices(f)))
            core = _SpectralCore(covariance_blocks(train))
            for i, c1 in enumerate(config.c1_grid):
                for j, c2 in enumerate(config.c2_grid):
                    try:
                        w_a, w_b = core.weights(c1, c2, 1, ridged=True)
                        model = _finalize(train, w_a, w_b, "cv")
                        fold_scores[f, i, j] = project(model, test).correlations[0]
                    except NumericalError:
                        fold_scores[f, i, j] = -1.0
                        failed[i, j] += 1
        total += fold_scores.mean(axis=0)
    scores = total / config.repetitions
    keys = [
        (-scores[i, j], c1 + c2, c1, c2)
        for i, c1 in enumerate(config.c1_grid)
        for j, c2 in enumerate(config.c2_grid)
        if failed[i, j] == 0
    ]
    return scores, failed, (min(keys)[2:] if keys else None)


def assert_matches_scalar_loop(data: PairedDataset, config: RegularizationConfig):
    scores, failed, selected = scalar_cross_validate(data, config)
    surface = cross_validate(data, config)
    assert np.abs(surface.scores - scores).max() <= 1e-12
    assert np.array_equal(surface.failed_folds, failed)
    assert (surface.selected_c1, surface.selected_c2) == selected
    return surface


class TestFitRegularized:
    def test_zero_ridge_matches_standard_fit(self):
        rng = np.random.default_rng(4)
        data = standardize(
            PairedDataset(rng.standard_normal((40, 4)), rng.standard_normal((40, 3)))
        )
        plain = fit_standard_eig(data)
        ridged = fit_regularized(data, 0.0, 0.0)
        assert np.abs(plain.correlations - ridged.correlations).max() <= 1e-8
        assert np.abs(plain.w_a - ridged.w_a).max() <= 1e-6
        assert np.abs(plain.w_b - ridged.w_b).max() <= 1e-6

    @pytest.mark.parametrize(
        "recipe, ridges",
        [
            ("example1", [(0.0, 0.0), (0.09, 0.0), (1.0, 0.5)]),
            ("example6", [(0.09, 0.0), (0.5, 0.1), (10.0, 1.0)]),
            ("example9", [(0.1, 0.1), (1.0, 1.0), (10.0, 0.5)]),
        ],
    )
    def test_matches_the_ridged_pencil(self, recipe, ridges):
        for seed in (0, 1):
            data = generate_synthetic(get_recipe(recipe, seed=seed))
            r = min(data.p, data.q, 10)
            for c1, c2 in ridges:
                corr, z_a, z_b = pencil_ridge_fit(data, c1, c2, r)
                model = fit_regularized(data, c1, c2, r=r)
                assert np.abs(model.correlations - corr).max() <= 1e-10
                sign = np.sign(np.einsum("ij,ij->j", z_a, model.z_a))
                assert np.abs(model.z_a - sign * z_a).max() <= 1e-8
                assert np.abs(model.z_b - sign * z_b).max() <= 1e-8

    def test_wide_view_needs_the_ridge(self):
        data = example6(0)
        for solver in (fit_standard_eig, fit_svd):
            with pytest.raises(NumericalError):
                solver(data)
        model = fit_regularized(data, 0.09, 0.0, r=3)
        assert model.correlations[0] > 0.99

    def test_strong_relations_survive_moderate_ridge(self):
        acc = np.zeros(3)
        for seed in range(20):
            acc += fit_regularized(example6(seed), 0.09, 0.0, r=3).correlations
        mean = acc / 20
        assert mean[0] >= 0.99
        assert mean[1] >= 0.99
        assert mean[2] >= 0.98

    def test_over_regularisation_shrinks_the_leading_correlation(self):
        data = example6(0)
        moderate = fit_regularized(data, 0.09, 0.0, r=1).correlations[0]
        crushed = fit_regularized(data, 1e6, 0.0, r=1).correlations[0]
        assert crushed < moderate

    def test_insufficient_ridge_reports_needed_increase(self):
        with pytest.raises(NumericalError, match="increase the ridge"):
            fit_regularized(example6(0), 1e-13, 0.0)

    def test_negative_ridge_rejected(self):
        data = example6(0)
        with pytest.raises(ValueError, match="nonnegative"):
            fit_regularized(data, -0.1, 0.0)

    def test_component_bound(self):
        with pytest.raises(ValueError, match="components"):
            fit_regularized(example6(0), 0.09, 0.0, r=11)


class TestConfigValidation:
    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError, match="non-empty"):
            RegularizationConfig(c1_grid=(), c2_grid=(0.1,))
        with pytest.raises(ValueError, match="nonnegative"):
            RegularizationConfig(c1_grid=(-0.5,), c2_grid=(0.1,))
        with pytest.raises(ValueError, match="folds"):
            RegularizationConfig(c1_grid=(0.1,), c2_grid=(0.1,), n_folds=1)
        with pytest.raises(ValueError, match="repetition"):
            RegularizationConfig(c1_grid=(0.1,), c2_grid=(0.1,), repetitions=0)

    def test_too_few_rows_for_folds(self):
        rng = np.random.default_rng(0)
        data = standardize(
            PairedDataset(rng.standard_normal((8, 2)), rng.standard_normal((8, 2)))
        )
        cfg = RegularizationConfig(c1_grid=(0.1,), c2_grid=(0.1,), n_folds=5)
        with pytest.raises(ValueError, match="too few observations"):
            cross_validate(data, cfg)


class TestCrossValidate:
    def test_single_cell_is_selected(self):
        data = example6(0)
        cfg = RegularizationConfig(
            c1_grid=(0.09,), c2_grid=(0.0,), n_folds=5, repetitions=1
        )
        surface = cross_validate(data, cfg)
        assert surface.selected_c1 == 0.09
        assert surface.selected_c2 == 0.0
        assert surface.scores.shape == (1, 1)

    def test_duplicated_views_score_high_everywhere(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 3))
        data = standardize(PairedDataset(x, x.copy()))
        cfg = RegularizationConfig(
            c1_grid=(1e-3, 1.0, 1e3),
            c2_grid=(1e-3, 1e3),
            n_folds=5,
            repetitions=2,
        )
        surface = cross_validate(data, cfg)
        assert surface.scores.min() >= 0.99

    def test_failed_cells_record_sentinel(self):
        data = example6(0)  # p=70 > any training fold size, so c1=0 cannot fit
        cfg = RegularizationConfig(
            c1_grid=(0.0, 0.09), c2_grid=(0.0,), n_folds=5, repetitions=1
        )
        surface = cross_validate(data, cfg)
        assert surface.scores[0, 0] == -1.0
        assert surface.failed_folds.tolist() == [[5], [0]]
        assert surface.selected_c1 == 0.09
        assert surface.selected_score == surface.scores[1, 0]

    def test_no_cell_fitting_every_fold_is_an_error(self):
        rng = np.random.default_rng(5)
        data = standardize(
            PairedDataset(rng.standard_normal((20, 30)), rng.standard_normal((20, 2)))
        )
        cfg = RegularizationConfig(c1_grid=(0.0,), c2_grid=(0.0,), n_folds=5, repetitions=1)
        with pytest.raises(NumericalError, match="every fold"):
            cross_validate(data, cfg)

    def test_scores_bounded(self):
        data = example6(1)
        cfg = RegularizationConfig(
            c1_grid=(0.01, 0.1, 1.0), c2_grid=(0.0,), n_folds=5, repetitions=2
        )
        surface = cross_validate(data, cfg)
        assert np.all(surface.scores >= -1.0)
        assert np.all(surface.scores <= 1.0)

    def test_deterministic_given_seed(self):
        data = example6(2)
        cfg = RegularizationConfig(
            c1_grid=(0.01, 0.1), c2_grid=(0.0, 0.1), n_folds=5, repetitions=2
        )
        first = cross_validate(data, cfg)
        second = cross_validate(data, cfg)
        assert np.array_equal(first.scores, second.scores)
        assert first.selected_c1 == second.selected_c1
        assert first.selected_c2 == second.selected_c2

    def test_fold_scores_unaffected_by_test_row_order(self):
        # reordering rows inside one held-out fold must not move any score
        from cancorr.dataset import split_folds

        rng = np.random.default_rng(21)
        view_a = rng.standard_normal((30, 3))
        view_b = rng.standard_normal((30, 2))
        view_b[:, 0] = view_a[:, 0] + 0.3 * rng.standard_normal(30)
        cfg = RegularizationConfig(
            c1_grid=(0.01, 0.3), c2_grid=(0.0,), n_folds=5, repetitions=1, seed=0
        )
        test_rows = split_folds(30, 5, cfg.seed).test_indices(0)
        shuffled = np.arange(30)
        shuffled[test_rows] = test_rows[::-1]
        base = cross_validate(PairedDataset(view_a, view_b), cfg)
        moved = cross_validate(PairedDataset(view_a[shuffled], view_b[shuffled]), cfg)
        assert np.abs(base.scores - moved.scores).max() <= 1e-12

    def test_selection_lands_in_the_plateau(self):
        surface = cross_validate(
            example6(0),
            RegularizationConfig(
                c1_grid=ACCEPT_GRID, c2_grid=(0.0,), n_folds=5, repetitions=10, seed=0
            ),
        )
        assert 0.01 <= surface.selected_c1 <= 0.5

    def test_over_regularised_endpoint_never_wins(self):
        for seed in range(10):
            surface = cross_validate(
                example6(seed),
                RegularizationConfig(
                    c1_grid=FULL_GRID, c2_grid=(0.0,), n_folds=5, repetitions=2, seed=0
                ),
            )
            assert surface.selected_c1 != FULL_GRID[-1]
            assert surface.scores[-1, 0] < surface.scores.max()

    def test_csv_export_roundtrip(self, tmp_path):
        data = example6(3)
        cfg = RegularizationConfig(
            c1_grid=(0.01, 0.1), c2_grid=(0.0, 0.2), n_folds=5, repetitions=1
        )
        surface = cross_validate(data, cfg)
        path = tmp_path / "surface.csv"
        surface.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c1", "c2", "mean_test_correlation", "failed_folds"]
        assert len(rows) == 1 + 4
        parsed = np.array([float(r[2]) for r in rows[1:]]).reshape(2, 2)
        assert np.array_equal(parsed, surface.scores)


class TestMatchesScalarLoop:
    """The stacked grid solve against the serial per-cell loop it replaced."""

    @pytest.mark.parametrize("recipe", ["example1", "example9"])
    def test_recipes(self, recipe):
        data = generate_synthetic(get_recipe(recipe, seed=0))
        grid = (0.0, 1e-3, 0.05, 1e3)
        assert_matches_scalar_loop(
            data, RegularizationConfig(c1_grid=grid, c2_grid=grid, repetitions=1)
        )

    def test_example6_over_data_seeds(self):
        for seed in range(16):
            assert_matches_scalar_loop(
                example6(seed), RegularizationConfig(repetitions=1, seed=seed)
            )

    def test_failure_pattern_at_zero_ridge(self):
        surface = assert_matches_scalar_loop(
            example6(0),
            RegularizationConfig(c1_grid=(0.0, 0.09), c2_grid=(0.0,), repetitions=2),
        )
        assert surface.failed_folds.tolist() == [[10], [0]]

    def test_singular_second_view(self):
        # a duplicated view-b column makes C_bb singular at c2 = 0, while the
        # weakly related views keep every singular value below 1
        rng = np.random.default_rng(8)
        a = rng.standard_normal((40, 3))
        b = rng.standard_normal((40, 2))
        surface = assert_matches_scalar_loop(
            standardize(PairedDataset(a, np.column_stack([b, b[:, 0]]))),
            RegularizationConfig(c1_grid=(0.0, 0.1), c2_grid=(0.0, 0.1), repetitions=1),
        )
        assert surface.failed_folds.tolist() == [[5, 0], [5, 0]]

    def test_partial_failures_counted_per_fold(self):
        # 22 rows in 5 folds train on 17 or 18 rows, so the 17-column view is
        # singular at c1 = 0 on the 17-row folds only
        rng = np.random.default_rng(3)
        a = rng.standard_normal((22, 17))
        b = rng.standard_normal((22, 2))
        b[:, 0] += 0.5 * a[:, 0]
        surface = assert_matches_scalar_loop(
            standardize(PairedDataset(a, b)),
            RegularizationConfig(c1_grid=(0.0, 1000.0), c2_grid=(0.0,), repetitions=3, seed=3),
        )
        assert 0 < surface.failed_folds[0, 0] < 15


def degenerate_linear_view(rng, n: int, dim: int, rank: int) -> np.ndarray:
    """A view of at most ``rank`` independent columns, with a near-duplicate
    column (when it has two) and near-duplicate rows."""
    view = rng.standard_normal((n, min(rank, dim))) @ rng.standard_normal((min(rank, dim), dim))
    if dim > 1:
        view[:, -1] = view[:, 0] + 1e-9 * rng.standard_normal(n)
    view[n // 2:] = view[: n - n // 2] + 1e-9 * rng.standard_normal((n - n // 2, dim))
    return view


@settings(max_examples=400)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(4, 40),
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    ranks=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    ridges=st.tuples(
        st.one_of(st.just(0.0), st.floats(-6.0, 2.0).map(lambda e: 10.0**e)),
        st.one_of(st.just(0.0), st.floats(-6.0, 2.0).map(lambda e: 10.0**e)),
    ),
    svd=st.booleans(),
)
# two rows repeated: the image cosines round to 1 + 2.2e-16
@example(seed=6405, n=4, dims=(1, 1), ranks=(5, 3), ridges=(0.0, 0.0), svd=True)
@example(seed=8672, n=4, dims=(4, 4), ranks=(4, 4), ridges=(1e-6, 1e-6), svd=False)
def test_linear_fits_are_valid_or_raise(seed, n, dims, ranks, ridges, svd):
    """Degenerate inputs either raise or give finite weights, unit-norm images
    and descending correlations in [0, 1] equal to the image cosines."""
    rng = np.random.default_rng(seed)
    data = standardize(PairedDataset(
        degenerate_linear_view(rng, n, dims[0], ranks[0]),
        degenerate_linear_view(rng, n, dims[1], ranks[1]),
    ))
    try:
        model = fit_svd(data) if svd else fit_regularized(data, *ridges)
    except ValueError:  # NumericalError included
        return
    for values in (model.w_a, model.w_b, model.correlations, model.z_a, model.z_b):
        assert np.all(np.isfinite(values))
    for z in (model.z_a, model.z_b):
        assert np.abs(np.linalg.norm(z, axis=0) - 1.0).max() <= 1e-12
    corr = model.correlations
    assert np.all((corr >= 0.0) & (corr <= 1.0))
    assert np.all(np.diff(corr) <= 0.0)
    assert np.abs(np.einsum("ij,ij->j", model.z_a, model.z_b) - corr).max() <= 1e-12
