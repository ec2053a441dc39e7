"""Paired data handling: standardization, covariance blocks, recipes, folds, CSV."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

from cancorr import (
    PairedDataset,
    Relation,
    SyntheticRecipe,
    covariance_blocks,
    generate_synthetic,
    get_recipe,
    read_view_csv,
    relation_signals,
    split_folds,
    standardize,
    take_rows,
    write_view_csv,
)
from cancorr.dataset import TRANSFORMS, _ndtri


class TestPairedDataset:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="3 rows.*2 rows"):
            PairedDataset(np.zeros((3, 2)), np.zeros((2, 2)))

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="two observations"):
            PairedDataset(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_rejects_nonfinite(self):
        bad = np.ones((3, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            PairedDataset(bad, np.ones((3, 2)))

    def test_auto_names(self):
        d = PairedDataset(np.ones((2, 2)) * [[0], [1]], np.ones((2, 3)) * [[0], [1]])
        assert d.names_a == ("a1", "a2")
        assert d.names_b == ("b1", "b2", "b3")

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError, match="name counts"):
            PairedDataset(np.zeros((2, 2)), np.zeros((2, 2)), names_a=("x",))

    @pytest.mark.parametrize("shape_a, shape_b", [((5,), (5, 1)), ((5, 1), (5, 1, 1))])
    def test_rejects_non_2d_views(self, shape_a, shape_b):
        with pytest.raises(ValueError, match="views must be 2-d"):
            PairedDataset(np.ones(shape_a), np.ones(shape_b))


class TestStandardize:
    def test_hand_values(self):
        d = standardize(
            PairedDataset(np.array([[1.0], [2.0], [3.0]]), np.array([[10.0], [20.0], [30.0]]))
        )
        # sample std of (1,2,3) is exactly 1
        assert np.allclose(d.view_a[:, 0], [-1.0, 0.0, 1.0])

    def test_two_point_column(self):
        d = standardize(PairedDataset(np.array([[10.0], [20.0]]), np.array([[0.0], [1.0]])))
        # (x - 15) / 7.0711
        assert np.allclose(d.view_a[:, 0], [-0.70710678, 0.70710678])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        d = standardize(PairedDataset(rng.standard_normal((20, 3)), rng.standard_normal((20, 2))))
        again = standardize(d)
        assert np.abs(again.view_a - d.view_a).max() <= 1e-12
        assert np.abs(again.view_b - d.view_b).max() <= 1e-12

    def test_constant_column_is_an_error(self):
        x = np.ones((5, 2))
        x[:, 0] = np.arange(5)
        with pytest.raises(ValueError, match="'a2' is constant"):
            standardize(PairedDataset(x, np.random.default_rng(0).standard_normal((5, 1))))

    @pytest.mark.parametrize("value", [0.0, 3.0, 1e-150, 1e150])
    def test_constant_column_in_any_units_is_an_error(self, value):
        x = np.full((5, 2), value)
        x[:, 0] = np.arange(5)
        with pytest.raises(ValueError, match="'a2' is constant"):
            standardize(PairedDataset(x, np.random.default_rng(0).standard_normal((5, 1))))

    @pytest.mark.parametrize("scale", [1e-150, 1e-12, 1e12, 1e150])
    def test_column_in_any_units_standardizes(self, scale):
        # the floor is relative to the column's magnitude, so units do not matter
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((30, 2)), rng.standard_normal((30, 1))
        plain = standardize(PairedDataset(x, y)).view_a
        scaled = standardize(PairedDataset(x * [1.0, scale], y)).view_a
        assert np.abs(scaled - plain).max() <= 1e-15

    def test_spread_below_the_relative_floor_is_constant(self):
        # 1e6 + 1e-7 noise keeps fewer than four significant digits once centred
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.standard_normal(30), 1e6 + 1e-7 * rng.standard_normal(30)])
        with pytest.raises(ValueError, match="'a2' is constant"):
            standardize(PairedDataset(x, rng.standard_normal((30, 1))))

    @given(st.integers(0, 200), st.integers(3, 30), st.integers(1, 5), st.integers(1, 5))
    def test_column_statistics(self, seed, n, p, q):
        rng = np.random.default_rng(seed)
        d = standardize(
            PairedDataset(
                rng.standard_normal((n, p)) * 3.0 + 5.0, rng.standard_normal((n, q)) - 2.0
            )
        )
        for view in (d.view_a, d.view_b):
            assert np.abs(view.mean(axis=0)).max() <= 1e-10
            assert np.abs(view.std(axis=0, ddof=1) - 1.0).max() <= 1e-8
        assert d.standardized
        assert d.scaler is not None

    def test_scaler_applies_training_parameters(self):
        rng = np.random.default_rng(1)
        train = standardize(
            PairedDataset(rng.standard_normal((30, 2)) * 2 + 1, rng.standard_normal((30, 2)))
        )
        fresh = PairedDataset(rng.standard_normal((10, 2)) * 2 + 1, rng.standard_normal((10, 2)))
        applied = train.scaler.apply(fresh)
        expected_a = (fresh.view_a - train.scaler.mean_a) / train.scaler.std_a
        assert np.allclose(applied.view_a, expected_a)
        with pytest.raises(ValueError, match="column counts"):
            train.scaler.apply(PairedDataset(np.zeros((4, 3)), np.zeros((4, 2))))

    def test_take_rows_clears_standardized_flag(self):
        d = generate_synthetic(get_recipe("example1", seed=0))
        sub = take_rows(d, np.arange(10))
        assert not sub.standardized
        assert sub.n == 10


class TestCovarianceBlocks:
    def test_requires_standardized(self):
        with pytest.raises(ValueError, match="standardize"):
            covariance_blocks(PairedDataset(np.eye(3), np.eye(3)))

    def test_identical_single_columns(self):
        x = np.array([[1.0], [2.0], [3.0], [7.0]])
        d = standardize(PairedDataset(x, x.copy()))
        blocks = covariance_blocks(d)
        assert np.allclose(blocks.c_ab, [[1.0]])
        assert np.allclose(blocks.c_aa, [[1.0]])

    def test_orthogonal_columns(self):
        a = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        b = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        blocks = covariance_blocks(standardize(PairedDataset(a, b)))
        assert abs(blocks.c_ab[0, 0]) <= 1e-12

    def test_c_ba_is_transpose_view(self):
        d = generate_synthetic(get_recipe("example1", seed=0))
        blocks = covariance_blocks(d)
        assert np.array_equal(blocks.c_ba, blocks.c_ab.T)

    def test_example1_population_structure(self):
        """Seed-averaged joint covariance matches the generator's population matrix.

        Population: a-block identity, b-block identity, and cross entries
        corr(a_s, b_t) = +-1/sqrt(1 + noise^2) at the three planted pairs.
        """
        pop_cross = np.zeros((4, 3))
        pop_cross[2, 0] = 1.0 / np.sqrt(1.0 + 0.2**2)
        pop_cross[0, 1] = 1.0 / np.sqrt(1.0 + 0.4**2)
        pop_cross[3, 2] = -1.0 / np.sqrt(1.0 + 0.3**2)
        acc_aa = np.zeros((4, 4))
        acc_ab = np.zeros((4, 3))
        acc_bb = np.zeros((3, 3))
        seeds = 20
        for s in range(seeds):
            blocks = covariance_blocks(generate_synthetic(get_recipe("example1", seed=s)))
            acc_aa += blocks.c_aa
            acc_ab += blocks.c_ab
            acc_bb += blocks.c_bb
        assert np.abs(acc_aa / seeds - np.eye(4)).max() <= 0.15
        assert np.abs(acc_bb / seeds - np.eye(3)).max() <= 0.15
        assert np.abs(acc_ab / seeds - pop_cross).max() <= 0.15
        # the three planted entries match their nominal strengths tightly
        mean_ab = acc_ab / seeds
        assert abs(mean_ab[2, 0] - 0.98) <= 0.05
        assert abs(mean_ab[0, 1] - 0.92) <= 0.05
        assert abs(mean_ab[3, 2] + 0.94) <= 0.05


class TestRecipes:
    def test_registry_shapes(self):
        r = get_recipe("example1")
        assert (r.n, r.p, r.q) == (60, 4, 3)
        r7 = get_recipe("example7")
        assert (r7.n, r7.p, r7.q) == (150, 7, 8)
        assert [rel.transform for rel in r7.relations] == ["exp", "cube", "negate"]
        r9 = get_recipe("example9")
        assert (r9.n, r9.p, r9.q) == (50, 100, 150)

    def test_overrides(self):
        r = get_recipe("example8", seed=5, n=2000)
        assert r.seed == 5 and r.n == 2000
        assert get_recipe("example8").n == 10000

    def test_unknown_recipe(self):
        with pytest.raises(ValueError, match="unknown recipe"):
            get_recipe("nope")

    def test_generation_is_deterministic(self):
        d1 = generate_synthetic(get_recipe("example1", seed=3))
        d2 = generate_synthetic(get_recipe("example1", seed=3))
        assert np.array_equal(d1.view_a, d2.view_a)
        assert np.array_equal(d1.view_b, d2.view_b)
        d3 = generate_synthetic(get_recipe("example1", seed=4))
        assert not np.array_equal(d1.view_a, d3.view_a)

    def test_noise_free_identity_duplicates_column(self):
        recipe = SyntheticRecipe(
            "dup", n=40, p=2, q=2, relations=(Relation(source=0, target=0),), seed=1
        )
        d = generate_synthetic(recipe)
        corr = float(d.view_a[:, 0] @ d.view_b[:, 0]) / (d.n - 1)
        assert abs(corr - 1.0) <= 1e-12

    def test_noise_calibration(self):
        # noise_std 0.2 puts the planted correlation at 1/sqrt(1.04) ~ 0.9806
        recipe = SyntheticRecipe(
            "calib", n=20000, p=1, q=1,
            relations=(Relation(source=0, target=0, noise_std=0.2),), seed=0,
        )
        d = generate_synthetic(recipe)
        corr = float(d.view_a[:, 0] @ d.view_b[:, 0]) / (d.n - 1)
        assert abs(corr - 0.98058) <= 0.01

    @pytest.mark.parametrize("n, p, q", [(1, 1, 1), (10, 0, 1), (10, 1, 0)])
    def test_recipe_dimensions_checked(self, n, p, q):
        with pytest.raises(ValueError, match="recipe dimensions"):
            SyntheticRecipe("bad", n=n, p=p, q=q)

    def test_relation_bounds_checked(self):
        with pytest.raises(ValueError, match="source"):
            SyntheticRecipe("bad", n=10, p=2, q=2, relations=(Relation(source=5, target=0),))
        with pytest.raises(ValueError, match="target"):
            SyntheticRecipe("bad", n=10, p=2, q=2, relations=(Relation(source=0, target=7),))
        with pytest.raises(ValueError, match="transform"):
            Relation(source=0, target=0, transform="sin")
        with pytest.raises(ValueError, match="noise_std"):
            Relation(source=0, target=0, noise_std=-0.1)

    def test_relation_labels(self):
        labels = [rel.label() for rel in get_recipe("example7").relations]
        assert labels == ["exp(a3)", "a1^3", "-a4"]
        signals = relation_signals(
            get_recipe("example7"), generate_synthetic(get_recipe("example7", seed=0))
        )
        assert set(signals) == {"exp(a3)", "a1^3", "-a4"}
        assert all(v.shape == (150,) for v in signals.values())


def scipy_draw(recipe: SyntheticRecipe) -> PairedDataset:
    """``generate_synthetic`` as it read with ``scipy.special.ndtri``: one
    integer draw per view and per relation's noise, in that order."""
    rng = np.random.default_rng(recipe.seed)

    def normal(size):
        return ndtri(rng.integers(1, 1 << 53, size=size) / float(1 << 53))

    view_a = normal((recipe.n, recipe.p))
    view_b = normal((recipe.n, recipe.q))
    for rel in recipe.relations:
        noise = rel.noise_std * normal(recipe.n)
        view_b[:, rel.target] = TRANSFORMS[rel.transform][0](view_a[:, rel.source]) + noise
    return standardize(PairedDataset(view_a, view_b))


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestNormalVariates:
    """The recipes' inverse-CDF variates equal ``scipy.special.ndtri``'s bit for bit."""

    def test_grid_of_53_bit_uniforms(self):
        # every (2**33 - 1)-th 53-bit uniform, then a geometric grid that
        # fills both tails down to 2**-53, where the linear one is sparse
        linear = np.arange(1, 1 << 53, (1 << 33) - 1, dtype=np.int64)
        geometric = np.unique(np.geomspace(1, 1 << 52, 400_000).astype(np.int64))
        k = np.concatenate([linear, geometric, (1 << 53) - geometric])
        u = k / float(1 << 53)
        assert_same_bits(_ndtri(u), ndtri(u))

    def test_branch_edges(self):
        exp_m2, exp_m32 = math.exp(-2.0), math.exp(-32.0)
        edges = [2.0**-53, 1.0 - 2.0**-53, 0.5, exp_m2, 1.0 - exp_m2, 0.13533528323661269189,
                 exp_m32, 1.0 - exp_m32]
        near = [np.nextafter(v, toward) for v in edges for toward in (0.0, 1.0)]
        # steps of 2**-53, the recipes' uniform spacing, around both x = 8 edges
        step = 2.0**-53
        grid = ([exp_m32 + i * step for i in range(-4, 5)]
                + [1.0 - exp_m32 + i * step for i in (-1, 0, 1)])
        # deep in the P2/Q2 tail: every power of two from 2**-53 to 2**-47, and far below
        deep = [2.0**-j for j in range(47, 54)] + [1e-20, 1e-100, 1e-300, 5e-324]
        u = np.array(edges + near + grid + deep)
        u = u[(0.0 < u) & (u < 1.0)]  # the neighbours of 1 - 2**-53 include 1
        assert (u < exp_m32).sum() >= 10 and (1.0 - u < exp_m32).sum() >= 3
        assert_same_bits(_ndtri(u), ndtri(u))

    @pytest.mark.parametrize("recipe_id, n", [("example1", None), ("example8", 3000),
                                              ("example9", None)])
    def test_recipes_equal_the_scipy_draw(self, recipe_id, n):
        for seed in (0, 1, 7):
            recipe = get_recipe(recipe_id, seed=seed, n=n)
            got, want = generate_synthetic(recipe), scipy_draw(recipe)
            assert_same_bits(got.view_a, want.view_a)
            assert_same_bits(got.view_b, want.view_b)


class TestSplitFolds:
    def test_even_split(self):
        folds = split_folds(10, 5, seed=0)
        sizes = [folds.test_indices(f).size for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_uneven_split(self):
        folds = split_folds(7, 3, seed=1)
        sizes = sorted(folds.test_indices(f).size for f in range(3))
        assert sizes == [2, 2, 3]

    def test_deterministic(self):
        f1 = split_folds(23, 4, seed=9)
        f2 = split_folds(23, 4, seed=9)
        assert np.array_equal(f1.fold_of, f2.fold_of)
        assert not np.array_equal(f1.fold_of, split_folds(23, 4, seed=10).fold_of)

    @given(st.integers(4, 60), st.integers(2, 6), st.integers(0, 100))
    def test_partition_properties(self, n, n_folds, seed):
        if n_folds > n:
            n_folds = n
        folds = split_folds(n, n_folds, seed)
        all_test = np.concatenate([folds.test_indices(f) for f in range(n_folds)])
        assert sorted(all_test.tolist()) == list(range(n))
        sizes = [folds.test_indices(f).size for f in range(n_folds)]
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 1
        for f in range(n_folds):
            train = set(folds.train_indices(f).tolist())
            test = set(folds.test_indices(f).tolist())
            assert not train & test
            assert train | test == set(range(n))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            split_folds(5, 1, seed=0)
        with pytest.raises(ValueError):
            split_folds(3, 4, seed=0)


class TestCsvRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((7, 3)) * np.array([1e-8, 1.0, 1e12])
        path = tmp_path / "view.csv"
        write_view_csv(path, mat, ["x", "y", "z"])
        back, names = read_view_csv(path)
        assert names == ("x", "y", "z")
        assert np.array_equal(back, mat)

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a leading byte-order mark
        mat = np.array([[1.5, -2.0], [0.25, 3.0], [-1.0, 0.5]])
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_view_csv(plain, mat, ["a1", "a2"])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        back, names = read_view_csv(marked)
        assert names == read_view_csv(plain)[1] == ("a1", "a2")
        assert np.array_equal(back, mat)

    def test_write_rejects_mismatched_names(self, tmp_path):
        with pytest.raises(ValueError, match="names"):
            write_view_csv(tmp_path / "v.csv", np.zeros((2, 2)), ["only_one"])

    def test_read_diagnostics(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("x,y\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="line 3 has 1 cells"):
            read_view_csv(ragged)

        textual = tmp_path / "text.csv"
        textual.write_text("x\nhello\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_view_csv(textual)

        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_view_csv(empty)

        headeronly = tmp_path / "header.csv"
        headeronly.write_text("x,y\n")
        with pytest.raises(ValueError, match="no observation rows"):
            read_view_csv(headeronly)

        nonfinite = tmp_path / "inf.csv"
        nonfinite.write_text("x\ninf\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_view_csv(nonfinite)
