"""Linear fits: solver agreement, brute-force oracle, model invariants, projection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cancorr import (
    NumericalError,
    PairedDataset,
    fit_generalized_eig,
    fit_regularized,
    fit_standard_eig,
    fit_svd,
    generate_synthetic,
    get_recipe,
    project,
    standardize,
    take_rows,
)
from cancorr.dataset import covariance_blocks
from cancorr.linear import _SpectralCore
from cancorr.numerics import gen_eig_sym, well_conditioned
from tests.conftest import conjugate_pair_eig, weak_second_relation

ALL_SOLVERS = (fit_standard_eig, fit_generalized_eig, fit_svd)


def random_dataset(seed: int, n: int, p: int, q: int) -> PairedDataset:
    rng = np.random.default_rng(seed)
    return standardize(
        PairedDataset(rng.standard_normal((n, p)), rng.standard_normal((n, q)))
    )


def brute_force_rho1(data: PairedDataset, step: float = 0.001) -> float:
    """Grid search over unit directions in two 2-d views; [0, pi) covers signs."""
    thetas = np.arange(0.0, np.pi, step)
    directions = np.stack([np.cos(thetas), np.sin(thetas)])
    z_a = data.view_a @ directions
    z_b = data.view_b @ directions
    z_a /= np.linalg.norm(z_a, axis=0)
    z_b /= np.linalg.norm(z_b, axis=0)
    return float(np.abs(z_a.T @ z_b).max())


class TestSolverAgreement:
    @given(st.integers(0, 400))
    def test_three_solvers_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(25, 60))
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        data = random_dataset(seed + 12345, n, p, q)
        models = [solver(data) for solver in ALL_SOLVERS]
        for other in models[1:]:
            assert np.abs(models[0].correlations - other.correlations).max() <= 1e-6
            for w_ref, w_other in ((models[0].w_a, other.w_a), (models[0].w_b, other.w_b)):
                # agreement up to a per-column sign
                for j in range(w_ref.shape[1]):
                    dev = min(
                        np.abs(w_ref[:, j] - w_other[:, j]).max(),
                        np.abs(w_ref[:, j] + w_other[:, j]).max(),
                    )
                    assert dev <= 1e-5

    def test_brute_force_oracle(self):
        for seed in (0, 1):
            data = random_dataset(seed, 20, 2, 2)
            rho = fit_svd(data).correlations[0]
            assert abs(rho - brute_force_rho1(data)) <= 1e-3


class TestModelInvariants:
    @given(st.integers(0, 400))
    def test_fit_svd_geometry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 40))
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        data = random_dataset(seed + 999, n, p, q)
        model = fit_svd(data)
        r = min(p, q)
        assert model.r == r
        assert np.all(model.correlations >= -1e-12)
        assert np.all(np.diff(model.correlations) <= 1e-12)
        for z in (model.z_a, model.z_b):
            assert np.abs(np.linalg.norm(z, axis=0) - 1.0).max() <= 1e-6
            # image columns are mutually orthogonal
            gram = z.T @ z
            assert np.abs(gram - np.eye(r)).max() <= 1e-6
        realized = np.einsum("ij,ij->j", model.z_a, model.z_b)
        assert np.abs(realized - model.correlations).max() <= 1e-6
        # images reproduce X w up to the unit-norm rescale
        raw = data.view_a @ model.w_a
        ratio = np.linalg.norm(raw, axis=0)
        assert np.abs(raw / ratio - model.z_a).max() <= 1e-8

    def test_eig_solvers_image_orthogonality_on_separated_spectrum(self):
        for seed in range(5):
            data = generate_synthetic(get_recipe("example1", seed=seed))
            for solver in (fit_standard_eig, fit_generalized_eig):
                model = solver(data)
                for z in (model.z_a, model.z_b):
                    gram = z.T @ z
                    assert np.abs(gram - np.eye(model.r)).max() <= 1e-6

    def test_duplicated_views_all_correlations_one(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 3))
        data = standardize(PairedDataset(x, x.copy()))
        for solver in ALL_SOLVERS:
            model = solver(data)
            assert np.abs(model.correlations - 1.0).max() <= 1e-8

    def test_duplicated_views_whitened_cross_is_identity(self):
        from cancorr.numerics import inv_sqrt_spd

        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 3))
        data = standardize(PairedDataset(x, x.copy()))
        blocks = covariance_blocks(data)
        isa = inv_sqrt_spd(blocks.c_aa)
        m = isa @ blocks.c_ab @ isa
        assert np.abs(m - np.eye(3)).max() <= 1e-10

    def test_independent_views_null(self):
        # at n=10000 the top sample canonical correlation of unrelated views is tiny
        for seed in range(20):
            data = random_dataset(seed, 10000, 2, 2)
            assert fit_svd(data).correlations[0] <= 0.05

    def test_affine_invariance(self):
        rng = np.random.default_rng(12)
        raw_a = rng.standard_normal((50, 3))
        raw_b = rng.standard_normal((50, 2))
        raw_b[:, 0] = raw_a[:, 1] + 0.3 * rng.standard_normal(50)
        base = fit_svd(standardize(PairedDataset(raw_a, raw_b)))
        scale_a = rng.uniform(0.1, 5.0, 3)
        shift_a = rng.uniform(-4.0, 4.0, 3)
        scale_b = rng.uniform(0.1, 5.0, 2)
        shift_b = rng.uniform(-4.0, 4.0, 2)
        mapped = fit_svd(
            standardize(PairedDataset(raw_a * scale_a + shift_a, raw_b * scale_b + shift_b))
        )
        assert np.abs(base.correlations - mapped.correlations).max() <= 1e-6

    def test_component_count_validation(self):
        data = random_dataset(0, 30, 3, 2)
        with pytest.raises(ValueError, match="components"):
            fit_svd(data, r=3)
        with pytest.raises(ValueError, match="components"):
            fit_standard_eig(data, r=0)
        assert fit_svd(data, r=1).r == 1

    def test_singular_block_error_names_ridge(self):
        data = random_dataset(0, 20, 30, 2)  # p > n makes C_aa singular
        messages = set()
        for solver in ALL_SOLVERS:
            with pytest.raises(NumericalError, match="fit_regularized") as info:
                solver(data)
            messages.add(str(info.value))
        # one gate words every solver's refusal alike
        assert len(messages) == 1
        message = messages.pop()
        assert message.startswith("covariance block C_aa is numerically singular at ridge 0 ")
        assert "increase the ridge by at least" in message

    def test_solver_labels(self):
        data = random_dataset(3, 25, 2, 2)
        assert fit_standard_eig(data).solver == "standard_eig"
        assert fit_generalized_eig(data).solver == "generalized_eig"
        assert fit_svd(data).solver == "svd"


def near_collinear(eps: float, seed: int, n: int = 200) -> PairedDataset:
    """View a holds ``a0`` and ``a0 + eps * xi``, so cond(C_aa) grows as
    eps**-2 and crosses COND_LIMIT near eps = 2e-5; view b holds five noisy
    copies of one signal that also carries ``0.3 * a0``."""
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal(n)
    xi = rng.standard_normal(n)
    z = rng.standard_normal(n)
    xi_k = rng.standard_normal((n, 5))
    view_a = np.column_stack([a0, a0 + eps * xi])
    view_b = z[:, None] + 0.05 * xi_k + 0.3 * a0[:, None]
    return standardize(PairedDataset(view_a, view_b))


class TestOneConditioningGate:
    @pytest.mark.parametrize("eps", [2e-5, 5e-5, 1e-4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solvers_fit_or_refuse_together(self, eps, seed):
        # the pencil's B spans both blocks' spectra, so a test on B alone
        # refuses blocks that pass one by one (eps = 2e-5, seeds 0 and 2)
        data = near_collinear(eps, seed)
        outcomes = []
        for solver in ALL_SOLVERS:
            try:
                outcomes.append(solver(data).correlations)
            except NumericalError as exc:
                assert "C_aa is numerically singular at ridge 0" in str(exc)
                outcomes.append(None)
        if outcomes[0] is None:
            assert outcomes == [None] * 3
        else:
            assert all(o is not None for o in outcomes)
            for other in outcomes[1:]:
                assert np.abs(other - outcomes[0]).max() <= 1e-10

    def test_refusal_asks_for_a_sufficient_ridge(self):
        # the amount is printed to four digits; parsed back, it must fit
        for seed in range(16):
            data = standardize(generate_synthetic(get_recipe("example6", seed=seed)))
            with pytest.raises(NumericalError, match="increase the ridge by at least") as exc:
                fit_svd(data)
            amount = float(str(exc.value).rsplit(" ", 1)[1])
            fit_regularized(data, amount, 0.0)

    @pytest.mark.parametrize("seed", [1, 6, 7])
    def test_ill_conditioned_duplicated_views_fit_by_every_solver(self, seed):
        # cond(C_aa) near 1e9 passes the gate, and the correlations, all 1,
        # carry roundoff far above 1e-8: at these seeds svd, eig and geneig
        # used to refuse on a [0, 1] tolerance that the gate does not imply
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 3))
        view = np.column_stack([x, x[:, 0] + 1e-4 * rng.standard_normal(30)])
        data = standardize(PairedDataset(view, view.copy()))
        assert well_conditioned(np.linalg.eigvalsh(covariance_blocks(data).c_aa))
        fits = [solver(data).correlations for solver in ALL_SOLVERS]
        for corr in fits:
            assert corr.shape == (4,)
            assert np.abs(corr - fits[0]).max() <= 1e-12


class TestComponentFloor:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_correlation_fitted_by_every_solver(self, seed):
        # no solver divides by rho: each stays defined at rho = 0 and returns
        # the full min(p, q) spectrum
        data = weak_second_relation(0.0, seed)
        blocks = covariance_blocks(data)
        first = fit_svd(data).correlations[0]
        for solver in ALL_SOLVERS:
            model = solver(data)
            assert model.correlations.shape == (2,)
            assert model.correlations[1] < 1e-12
            assert abs(model.correlations[0] - first) <= 1e-12
            for w, c in ((model.w_a, blocks.c_aa), (model.w_b, blocks.c_bb)):
                assert np.allclose(np.einsum("ij,jk,ki->i", w.T, c, w), 1.0, atol=1e-12)

    def test_exactly_uncorrelated_views(self):
        # C_ab is exactly 0: svd fits rho = 0, while the eigen routes leave the
        # partner weight of that pair undefined and refuse with the cause
        data = standardize(PairedDataset(
            np.array([[1.0], [-1.0], [1.0], [-1.0], [0.0]]),
            np.array([[1.0], [1.0], [-1.0], [-1.0], [0.0]]),
        ))
        assert not covariance_blocks(data).c_ab.any()
        assert fit_svd(data).correlations.tolist() == [0.0]
        for solver in (fit_standard_eig, fit_generalized_eig):
            with pytest.raises(NumericalError, match="a canonical correlation is exactly 0, "
                               "so that weight is undefined; fit with svd"):
                solver(data)


class TestComplexSpectrum:
    def test_conjugate_pair_above_the_threshold_refused(self, example1_data, monkeypatch):
        monkeypatch.setattr(np.linalg, "eig", conjugate_pair_eig(1e-6))
        with pytest.raises(NumericalError,
                           match="one-view eigenproblem produced a complex spectrum"):
            fit_standard_eig(example1_data)

    def test_conjugate_pair_below_the_threshold_fits(self, example1_data, monkeypatch):
        # the eigenvalues only rank the eigenvectors, which are unchanged
        plain = fit_standard_eig(example1_data)
        monkeypatch.setattr(np.linalg, "eig", conjugate_pair_eig(1e-10))
        model = fit_standard_eig(example1_data)
        for got, want in ((model.correlations, plain.correlations), (model.w_a, plain.w_a),
                          (model.w_b, plain.w_b)):
            assert np.array_equal(got, want)


class TestPencilSpectrum:
    def test_paired_eigenvalues_with_zero_padding(self, example1_data):
        blocks = covariance_blocks(example1_data)
        p, q = blocks.p, blocks.q
        a = np.zeros((p + q, p + q))
        a[:p, p:] = blocks.c_ab
        a[p:, :p] = blocks.c_ba
        b = np.zeros((p + q, p + q))
        b[:p, :p] = blocks.c_aa
        b[p:, p:] = blocks.c_bb
        values = gen_eig_sym(a, b).values
        # spectrum mirrors around zero with |p - q| exact zeros in the middle
        assert np.abs(values + values[::-1]).max() <= 1e-6
        middle = values[min(p, q):max(p, q)]
        assert np.abs(middle).max() <= 1e-6
        rho = fit_standard_eig(example1_data).correlations
        assert np.abs(values[:3] - rho).max() <= 1e-6

    def test_duplicated_views_positive_eigenvalues_one(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((30, 3))
        data = standardize(PairedDataset(x, x.copy()))
        blocks = covariance_blocks(data)
        a = np.zeros((6, 6))
        a[:3, 3:] = blocks.c_ab
        a[3:, :3] = blocks.c_ba
        b = np.zeros((6, 6))
        b[:3, :3] = blocks.c_aa
        b[3:, 3:] = blocks.c_bb
        values = gen_eig_sym(a, b).values
        assert np.abs(values[:3] - 1.0).max() <= 1e-8


def stacked_svd_solve(core: _SpectralCore, c1_grid, c2_grid, r: int):
    """Reference grid solve: one stacked SVD of every whitened p x q cross block."""
    ridged_a = core.values_a + np.asarray(c1_grid, dtype=float)[:, None]
    ridged_b = core.values_b + np.asarray(c2_grid, dtype=float)[:, None]
    ok_a, ok_b = well_conditioned(ridged_a), well_conditioned(ridged_b)
    scale_a = 1.0 / np.sqrt(np.where(ok_a[:, None], ridged_a, 1.0))
    scale_b = 1.0 / np.sqrt(np.where(ok_b[:, None], ridged_b, 1.0))
    u, s, vh = np.linalg.svd(
        scale_a[:, None, :, None] * core.cross * scale_b[None, :, None, :],
        full_matrices=False,
    )
    w_a = core.vectors_a @ (scale_a[:, None, :, None] * u[..., :r])
    w_b = core.vectors_b @ (scale_b[None, :, :, None] * vh[..., :r, :].swapaxes(-1, -2))
    ok = ok_a[:, None] & ok_b[None, :]
    return w_a, w_b, s, ok


class TestTallReduction:
    """The grid solve through one QR per ridge on the taller view, against
    the stacked SVD of the full whitened blocks."""

    GRID = (0.0, 1e-6, 1e-3, 0.1, 10.0, 1e3)

    @pytest.mark.parametrize("n, p, q", [
        (60, 70, 10), (60, 10, 70), (30, 4, 3), (30, 3, 4), (30, 5, 5), (12, 8, 2), (8, 9, 9),
    ])
    def test_matches_the_stacked_svd(self, n, p, q):
        data = random_dataset(n * p + q, n, p, q)
        core = _SpectralCore(covariance_blocks(data))
        r = min(p, q)
        w_a, w_b, s, ok = core.solve(self.GRID, self.GRID, r)
        ref_a, ref_b, ref_s, ref_ok = stacked_svd_solve(core, self.GRID, self.GRID, r)
        assert np.array_equal(ok, ref_ok)
        # a view at least as wide as the rows is singular at ridge 0
        assert ok.all() == (max(p, q) < n - 1)
        assert np.all(np.abs(s - ref_s) <= 1e-12 * np.maximum(1.0, ref_s))
        # weights are compared where the singular value is apart from its
        # neighbours, the null space's zero included when p != q
        edge = ref_s.shape[:2] + (1,)
        below = np.concatenate([ref_s[..., 1:], np.full(edge, -np.inf if p == q else 0.0)], -1)
        above = np.concatenate([np.full(edge, np.inf), ref_s[..., :-1]], -1)
        apart = (np.minimum(above - ref_s, ref_s - below) > 1e-6)[..., :r] & ok[..., None]
        assert apart.any()
        sign = np.sign(np.einsum("...ik,...ik->...k", w_a, ref_a))[..., None, :]
        for new, ref in ((w_a, ref_a), (w_b, ref_b)):
            assert np.abs(new * sign - ref).max(axis=-2)[apart].max() <= 1e-9


class TestProject:
    def test_training_data_reproduces_training_correlations(self, example1_data):
        model = fit_svd(example1_data)
        res = project(model, example1_data)
        assert np.abs(res.correlations - model.correlations).max() <= 1e-8

    def test_held_out_strong_relations_generalize(self):
        # fresh rows beyond the training draw, scaled with the training
        # statistics, keep all three correlations high
        data = generate_synthetic(get_recipe("example1", seed=0, n=100))
        train = standardize(take_rows(data, np.arange(60)))
        test = train.scaler.apply(take_rows(data, np.arange(60, 100)))
        model = fit_svd(train)
        res = project(model, test)
        assert np.all(res.correlations >= 0.9)

    def test_shuffled_rows_destroy_pairing(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            raw_a = rng.standard_normal((2000, 2))
            raw_b = rng.standard_normal((2000, 2))
            raw_b[:, 0] = raw_a[:, 0] + 0.2 * rng.standard_normal(2000)
            train = standardize(PairedDataset(raw_a[:1000], raw_b[:1000]))
            model = fit_svd(train)
            perm = rng.permutation(1000)
            test = standardize(PairedDataset(raw_a[1000:], raw_b[1000:][perm]))
            assert project(model, test).correlations[0] <= 0.3

    def test_rejects_unstandardized_or_mismatched(self, example1_data):
        model = fit_svd(example1_data)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="standardized"):
            project(model, PairedDataset(rng.standard_normal((10, 4)), rng.standard_normal((10, 3))))
        with pytest.raises(ValueError, match="column counts"):
            project(model, random_dataset(0, 10, 4, 2))

    def test_rows_at_the_training_means_refused(self, example1_data):
        # held-out rows at the training means standardize to zero rows, whose
        # images have no direction
        model = fit_svd(example1_data)
        scaler = example1_data.scaler
        test = scaler.apply(PairedDataset(np.tile(scaler.mean_a, (2, 1)),
                                          np.tile(scaler.mean_b, (2, 1))))
        with pytest.raises(NumericalError, match="collapsed to the zero vector"):
            project(model, test)


class TestExample1Reproduction:
    def test_mean_correlations_match_reference(self):
        acc = np.zeros(3)
        seeds = 20
        for s in range(seeds):
            acc += fit_svd(generate_synthetic(get_recipe("example1", seed=s))).correlations
        assert np.abs(acc / seeds - np.array([0.99, 0.94, 0.92])).max() <= 0.03
