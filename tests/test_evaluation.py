"""Sequential significance testing, structure correlations, biplots,
held-out generalisation."""

import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cancorr import (
    PairedDataset,
    bartlett_lawley,
    biplot_export,
    fit_svd,
    generalization_test,
    generate_synthetic,
    get_recipe,
    project,
    sequential_test,
    standardize,
    structure_correlations,
    take_rows,
)


class TestBartlettLawley:
    def test_zero_correlations_give_zero(self):
        assert bartlett_lawley(np.zeros(3), 60, 4, 3, 0) == 0.0

    def test_hand_evaluation_k0(self):
        stat = bartlett_lawley([0.99, 0.94, 0.92], 60, 4, 3, 0)
        expected = -56.0 * np.log((1 - 0.99**2) * (1 - 0.94**2) * (1 - 0.92**2))
        assert abs(stat - expected) <= 1e-6

    def test_hand_evaluation_k1_uses_inverse_square_sum(self):
        stat = bartlett_lawley([0.99, 0.94, 0.92], 60, 4, 3, 1)
        factor = 60 - 1 - 4 + 0.99**-2
        expected = -factor * np.log((1 - 0.94**2) * (1 - 0.92**2))
        assert abs(stat - expected) <= 1e-6

    def test_hand_evaluation_single_correlation(self):
        stat = bartlett_lawley([0.5], 100, 1, 1, 0)
        assert abs(stat - (-98.5 * np.log(0.75))) <= 1e-6

    def test_perfect_correlation_rejected_unless_clamped(self):
        with pytest.raises(ValueError, match="clamp_perfect"):
            bartlett_lawley([1.0, 0.5], 50, 2, 2, 0)
        clamped = bartlett_lawley([1.0, 0.5], 50, 2, 2, 0, clamp_perfect=True)
        assert np.isfinite(clamped)
        assert clamped > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="k must satisfy"):
            bartlett_lawley([0.5, 0.3], 50, 2, 2, 2)
        with pytest.raises(ValueError, match="min\\(p, q\\)"):
            bartlett_lawley([0.5], 50, 2, 2, 0)
        with pytest.raises(ValueError, match="lie in"):
            bartlett_lawley([-0.1, 0.5], 50, 2, 2, 0)
        with pytest.raises(ValueError, match="at least two"):
            bartlett_lawley([0.5, 0.3], 1, 2, 2, 0)
        # the leading k correlations enter as r^-2
        with pytest.raises(ValueError, match="must be positive"):
            bartlett_lawley([0.0, 0.0, 0.0], 60, 4, 3, 1)

    @given(st.integers(0, 300))
    def test_nonnegative_for_valid_inputs(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        r = np.sort(rng.uniform(0.0, 0.99, m))[::-1]
        p = m + int(rng.integers(0, 4))
        q = m
        n = int(rng.integers(20, 200))
        k = int(rng.integers(0, m))
        if k > 0 and r[k - 1] <= 0:
            r[: k] = np.maximum(r[: k], 0.01)
        assert bartlett_lawley(r, n, p, q, k) >= 0.0

    def test_monotone_in_each_trailing_correlation(self):
        base = np.array([0.8, 0.5, 0.2])
        grid = np.linspace(0.05, 0.45, 9)
        previous = None
        for value in grid:
            r = base.copy()
            r[2] = value
            stat = bartlett_lawley(np.sort(r)[::-1], 100, 4, 3, 1)
            if previous is not None:
                assert stat > previous
            previous = stat


class TestSequentialTest:
    def test_planted_relations_all_significant(self):
        for seed in range(5):
            data = generate_synthetic(get_recipe("example1", seed=seed))
            model = fit_svd(data)
            report = sequential_test(model.correlations, data.n, data.p, data.q, alpha=0.01)
            assert report.n_significant == 3

    def test_independent_views_accept_immediately(self):
        zero_count = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            data = standardize(
                PairedDataset(rng.standard_normal((200, 4)), rng.standard_normal((200, 3)))
            )
            report = sequential_test(fit_svd(data).correlations, 200, 4, 3, alpha=0.01)
            zero_count += report.n_significant == 0
        assert zero_count >= 45

    def test_one_strong_two_weak(self):
        report = sequential_test([0.95, 0.05, 0.03], 500, 3, 3)
        assert report.n_significant == 1
        assert report.records[0].reject
        assert not report.records[1].reject

    def test_df_strictly_decreasing_and_bounded_count(self):
        report = sequential_test([0.9, 0.8, 0.7], 100, 5, 3, alpha=0.01)
        dfs = [rec.df for rec in report.records]
        assert dfs == [15, 8, 3]
        assert all(a > b for a, b in zip(dfs, dfs[1:]))
        assert report.n_significant <= 3

    def test_count_monotone_in_alpha(self):
        r = [0.6, 0.3, 0.1]
        strict = sequential_test(r, 80, 4, 3, alpha=0.001).n_significant
        loose = sequential_test(r, 80, 4, 3, alpha=0.05).n_significant
        assert strict <= loose

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            sequential_test([0.5, 0.3], 50, 2, 2, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            sequential_test([0.5, 0.3], 50, 2, 2, alpha=1.0)

    def test_csv_export(self, tmp_path):
        report = sequential_test([0.9, 0.4], 100, 2, 2, alpha=0.01)
        path = tmp_path / "significance.csv"
        report.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "statistic", "df", "critical", "reject"]
        assert len(rows) == 1 + len(report.records)
        assert float(rows[1][1]) == report.records[0].statistic


class TestStructureCorrelations:
    def test_image_equal_to_column(self):
        data = generate_synthetic(get_recipe("example1", seed=0))
        column = data.view_a[:, 2]
        result = structure_correlations(data, column / np.linalg.norm(column))
        assert abs(result.corr_a[2] - 1.0) <= 1e-10

    def test_orthogonal_image_gives_zeros(self):
        data = generate_synthetic(get_recipe("example1", seed=1))
        rng = np.random.default_rng(0)
        image = rng.standard_normal(data.n)
        image -= image.mean()
        stacked = np.hstack([data.view_a, data.view_b])
        coeffs = np.linalg.lstsq(stacked, image, rcond=None)[0]
        image = image - stacked @ coeffs
        result = structure_correlations(data, image)
        assert np.abs(result.corr_a).max() <= 1e-8
        assert np.abs(result.corr_b).max() <= 1e-8

    def test_planted_pair_dominates_first_image(self):
        for seed in range(5):
            data = generate_synthetic(get_recipe("example1", seed=seed))
            model = fit_svd(data)
            result = structure_correlations(data, model.z_a[:, 0])
            assert result.names_a[int(np.argmax(np.abs(result.corr_a)))] == "a3"
            assert result.names_b[int(np.argmax(np.abs(result.corr_b)))] == "b1"

    def test_magnitudes_bounded(self):
        data = generate_synthetic(get_recipe("example1", seed=2))
        model = fit_svd(data)
        result = structure_correlations(data, model.z_b[:, 1])
        assert np.abs(result.corr_a).max() <= 1.0 + 1e-12
        assert np.abs(result.corr_b).max() <= 1.0 + 1e-12

    def test_length_mismatch(self):
        data = generate_synthetic(get_recipe("example1", seed=0))
        with pytest.raises(ValueError, match="does not match"):
            structure_correlations(data, np.ones(10))


class TestBiplotExport:
    def test_related_variables_subtend_small_angle(self):
        data = generate_synthetic(get_recipe("example1", seed=0))
        table = biplot_export(data, fit_svd(data), pair=(0, 1), view="a")
        coords = {(view, name): np.array([ci, cj]) for view, name, ci, cj in table.rows}
        a3 = coords[("a", "a3")]
        b1 = coords[("b", "b1")]
        cosine = a3 @ b1 / (np.linalg.norm(a3) * np.linalg.norm(b1))
        assert np.degrees(np.arccos(cosine)) < 30.0

    def test_unrelated_variable_sits_near_origin(self):
        data = generate_synthetic(get_recipe("example1", seed=0))
        table = biplot_export(data, fit_svd(data), pair=(0, 1), view="a")
        coords = {(view, name): (ci, cj) for view, name, ci, cj in table.rows}
        ci, cj = coords[("a", "a2")]
        assert abs(ci) <= 0.2
        assert abs(cj) <= 0.2

    def test_row_layout_covers_both_views(self):
        data = generate_synthetic(get_recipe("example1", seed=1))
        table = biplot_export(data, fit_svd(data), pair=(0, 2), view="b")
        assert len(table.rows) == data.p + data.q
        assert [r[0] for r in table.rows] == ["a"] * data.p + ["b"] * data.q
        assert table.component_i == 0
        assert table.component_j == 2

    def test_validation(self):
        data = generate_synthetic(get_recipe("example1", seed=0))
        model = fit_svd(data)
        with pytest.raises(ValueError, match="distinct"):
            biplot_export(data, model, pair=(1, 1))
        with pytest.raises(ValueError, match="component indices"):
            biplot_export(data, model, pair=(0, 3))
        with pytest.raises(ValueError, match="view"):
            biplot_export(data, model, pair=(0, 1), view="c")

    def test_csv_export(self, tmp_path):
        data = generate_synthetic(get_recipe("example1", seed=0))
        table = biplot_export(data, fit_svd(data), pair=(0, 1))
        path = tmp_path / "biplot.csv"
        table.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["view", "variable", "corr_z1", "corr_z2"]
        assert len(rows) == 1 + len(table.rows)


class TestGeneralizationTest:
    def test_training_data_reproduces_training_correlations(self, example1_data):
        model = fit_svd(example1_data)
        scores = generalization_test(model, example1_data)
        assert np.abs(scores - model.correlations).max() <= 1e-8

    def test_delegates_to_projection(self):
        data = generate_synthetic(get_recipe("example1", seed=3, n=100))
        train = standardize(take_rows(data, np.arange(60)))
        test = standardize(take_rows(data, np.arange(60, 100)))
        model = fit_svd(train)
        assert np.array_equal(
            generalization_test(model, test), project(model, test).correlations
        )

    def test_fresh_rows_keep_planted_relations(self):
        data = generate_synthetic(get_recipe("example1", seed=0, n=100))
        train = standardize(take_rows(data, np.arange(60)))
        test = standardize(take_rows(data, np.arange(60, 100)))
        scores = generalization_test(fit_svd(train), test)
        assert np.all(scores >= 0.9)

    def test_shuffled_rows_collapse(self):
        rng = np.random.default_rng(0)
        raw_a = rng.standard_normal((2000, 3))
        raw_b = rng.standard_normal((2000, 3))
        raw_b[:, 0] = raw_a[:, 2] + 0.3 * rng.standard_normal(2000)
        train = standardize(PairedDataset(raw_a[:1000], raw_b[:1000]))
        model = fit_svd(train)
        perm = rng.permutation(1000)
        test = standardize(PairedDataset(raw_a[1000:], raw_b[1000:][perm]))
        assert generalization_test(model, test)[0] <= 0.3
