"""End-to-end checks of the command line front end.

Commands run in-process through ``cancorr.cli.main`` with ``--out`` pointed
at a per-test directory; assertions read the JSON report and the CSV side
files exactly as a scripted pipeline would.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cancorr.cli as cli
import cancorr.linear
import cancorr.regularized
from cancorr import __version__
from cancorr.cli import _parse_grid, main
from cancorr.dataset import (
    generate_synthetic,
    get_recipe,
    read_view_csv,
    relation_signals,
    standardize,
    write_view_csv,
)
from cancorr.kernel import (
    KernelSpec, build_gram_pair, center_gram, fit_kernel_cca, fit_kernel_cca_pgso, gram,
    image_relation_table, median_heuristic,
)
from cancorr.numerics import NumericalError
from tests.conftest import conjugate_pair_eig, weak_second_relation


def run(*argv) -> int:
    return main([str(a) for a in argv])


def report_of(out_dir) -> dict:
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def csv_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def snapshot(out_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.fixture
def distance_entries(monkeypatch) -> list[int]:
    """The sizes of the blocks the kernel distance loop writes, call by call."""
    import cancorr.kernel

    loop = cancorr.kernel._squared_distances
    written = []

    def counted(xt, rows, cols, out):
        written.append(out.size)
        return loop(xt, rows, cols, out)

    monkeypatch.setattr(cancorr.kernel, "_squared_distances", counted)
    return written


class TestGridGrammar:
    def test_log_grid_points(self):
        grid = _parse_grid("log:1e-3:1e3:15")
        assert len(grid) == 15
        assert grid[0] == pytest.approx(1e-3, rel=1e-12)
        assert grid[-1] == pytest.approx(1e3, rel=1e-12)
        ratios = np.diff(np.log10(grid))
        assert np.allclose(ratios, ratios[0])

    def test_lin_grid_points(self):
        assert _parse_grid("lin:0:1:5") == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0))

    def test_comma_list(self):
        assert _parse_grid("0.05,0.9,2") == (0.05, 0.9, 2.0)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("log:0:1:5", "positive"),
            ("log:1e-3:1e3", "must look like"),
            ("lin:a:b:3", "non-numeric"),
            ("log:1:2:0", "at least one point"),
            ("x,y", "could not parse"),
        ],
    )
    def test_rejected_grids(self, text, match):
        with pytest.raises(ValueError, match=match):
            _parse_grid(text)


class TestJsonDefault:
    def test_numpy_scalars_become_python_values(self):
        for value, expected in ((np.float64(0.25), 0.25), (np.int64(3), 3), (np.bool_(True), True)):
            converted = cli._json_default(value)
            assert converted == expected and type(converted) is type(expected)

    def test_unknown_type_refused(self):
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            cli._json_default(object())


def unreachable_solver(*args, **kwargs):
    raise AssertionError("the solver ran before --components was checked")


class TestFitCommand:
    def test_planted_recipe_matches_expected_band(self, tmp_path):
        rc = run("fit", "--recipe", "example1", "--seed", "7", "--solver", "svd",
                 "--components", "3", "--out", tmp_path)
        assert rc == 0
        rep = report_of(tmp_path)
        assert rep["command"] == "fit"
        assert rep["seed"] == 7
        assert rep["solver"] == "svd"
        assert np.allclose(rep["correlations"], (0.99, 0.94, 0.92), atol=0.03)
        assert rep["significance"]["n_significant"] == 3

    def test_report_and_side_files_layout(self, tmp_path):
        run("fit", "--recipe", "example1", "--seed", "0", "--out", tmp_path)
        rep = report_of(tmp_path)
        assert {"command", "config", "seed", "n_train", "solver", "correlations",
                "significance", "files", "version"} <= set(rep)
        assert rep["version"] == __version__
        assert rep["config"]["recipe"] == "example1"
        for name in rep["files"].values():
            assert (tmp_path / name).is_file()
        weights = csv_rows(tmp_path / "weights_a.csv")
        assert weights[0] == ["variable", "comp1", "comp2", "comp3"]
        assert len(weights) == 1 + 4
        steps = rep["significance"]["steps"]
        assert [s["k"] for s in steps] == [0, 1, 2]
        assert all({"statistic", "df", "critical", "reject"} <= set(s) for s in steps)
        sig = csv_rows(tmp_path / "significance.csv")
        assert sig[0] == ["k", "statistic", "df", "critical", "reject"]
        assert len(sig) == 1 + 3

    def test_held_out_split_reports_test_correlations(self, tmp_path):
        rc = run("fit", "--recipe", "example1", "--seed", "0", "--recipe-n", "100",
                 "--test-split", "0.4", "--out", tmp_path)
        assert rc == 0
        rep = report_of(tmp_path)
        assert rep["n_train"] == 60
        gen = rep["generalization"]
        assert gen["n_test"] == 40
        assert len(gen["test_correlations"]) == 3
        assert min(gen["test_correlations"]) >= 0.9

    def test_component_bound_is_validated(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cancorr.linear.SOLVERS, "svd", unreachable_solver)
        rc = run("fit", "--recipe", "example1", "--seed", "0", "--components", "9",
                 "--out", tmp_path)
        assert rc == 2
        assert "components must satisfy 1 <= r <= min(p, q) = 3, got 9" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_zero_components_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cancorr.linear.SOLVERS, "svd", unreachable_solver)
        rc = run("fit", "--recipe", "example1", "--seed", "0", "--components", "0",
                 "--out", tmp_path)
        assert rc == 2
        assert "components must satisfy 1 <= r <= min(p, q) = 3, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_eig_fits_data_with_a_zero_canonical_correlation(self, tmp_path, capsys):
        # the second canonical correlation is zero up to roundoff; eig fits it
        # as svd does, and reports the leading one
        data = weak_second_relation(0.0, 0)
        write_view_csv(tmp_path / "a.csv", data.view_a, data.names_a)
        write_view_csv(tmp_path / "b.csv", data.view_b, data.names_b)
        source = ("--view-a", tmp_path / "a.csv", "--view-b", tmp_path / "b.csv")
        for solver in ("eig", "svd"):
            assert run("fit", *source, "--solver", solver, "--components", "1",
                       "--out", tmp_path / solver) == 0
        assert "correlations: 0.959220\n" in capsys.readouterr().out
        eig, svd = (report_of(tmp_path / solver)["correlations"] for solver in ("eig", "svd"))
        assert len(eig) == 1
        assert eig[0] == pytest.approx(svd[0], abs=1e-12)

    @pytest.mark.parametrize("solver", ["eig", "geneig"])
    def test_exactly_uncorrelated_views_refused_by_the_eigen_routes(self, tmp_path, capsys,
                                                                   solver):
        # C_ab is exactly 0, so the partner weight of the eigen routes is
        # undefined; svd fits the same files and reports 0
        write_view_csv(tmp_path / "a.csv", np.array([[1.0], [-1.0], [1.0], [-1.0], [0.0]]),
                       ("x",))
        write_view_csv(tmp_path / "b.csv", np.array([[1.0], [1.0], [-1.0], [-1.0], [0.0]]),
                       ("y",))
        source = ("--view-a", tmp_path / "a.csv", "--view-b", tmp_path / "b.csv")
        assert run("fit", *source, "--solver", "svd", "--out", tmp_path / "svd") == 0
        assert "correlations: 0.000000\n" in capsys.readouterr().out
        out = tmp_path / solver
        assert run("fit", *source, "--solver", solver, "--out", out) == 3
        assert ("error: weight normalisation failed: a canonical correlation is exactly 0, "
                "so that weight is undefined; fit with svd") in capsys.readouterr().err
        assert not out.exists()

    def test_fewer_components_are_the_leading_ones_of_the_full_fit(self, tmp_path):
        argv = ("fit", "--recipe", "example1", "--recipe-n", "100", "--seed", "0",
                "--test-split", "0.4")
        assert run(*argv, "--out", tmp_path / "full") == 0
        assert run(*argv, "--components", "2", "--out", tmp_path / "two") == 0
        full, two = report_of(tmp_path / "full"), report_of(tmp_path / "two")
        assert two["correlations"] == full["correlations"][:2]
        for name in ("weights_a.csv", "weights_b.csv"):
            assert csv_rows(tmp_path / "two" / name)[0] == ["variable", "comp1", "comp2"]
        assert len(two["generalization"]["test_correlations"]) == 2
        # the significance test still runs on the full spectrum
        assert len(two["significance"]["steps"]) == 3

    def test_too_small_test_split_refused(self, tmp_path, capsys):
        rc = run("fit", "--recipe", "example1", "--recipe-n", "4", "--seed", "0",
                 "--test-split", "0.4", "--out", tmp_path)
        assert rc == 2
        assert ("test split of 2 rows leaves too little data (n = 4)"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_solver_choice_echoed(self, tmp_path):
        out_eig = tmp_path / "eig"
        out_svd = tmp_path / "svd"
        run("fit", "--recipe", "example1", "--seed", "4", "--solver", "eig",
            "--out", out_eig)
        run("fit", "--recipe", "example1", "--seed", "4", "--solver", "svd",
            "--out", out_svd)
        rep_eig = report_of(out_eig)
        assert rep_eig["solver"] == "eig"
        assert np.allclose(rep_eig["correlations"], report_of(out_svd)["correlations"],
                           atol=1e-8)

    def test_solver_choices_are_the_linear_solvers(self):
        # the parser spells the names out so that building it does not import linear
        subs = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        for command in ("fit", "test", "biplot"):
            solver = next(a for a in subs.choices[command]._actions if a.dest == "solver")
            assert list(solver.choices) == sorted(cancorr.linear.SOLVERS)
        assert sorted(cancorr.linear.SOLVERS) == ["eig", "geneig", "svd"]
        assert cli.SOLVER_NAMES == tuple(cancorr.linear.SOLVERS)

    def test_column_in_small_units_fits(self, tmp_path):
        # standardization does not depend on units, so a column scaled by
        # 1e-150 fits as the same column in plain units does
        rng = np.random.default_rng(0)
        view_a, view_b = rng.standard_normal((30, 3)), rng.standard_normal((30, 2))
        view_b[:, 0] += view_a[:, 1]
        correlations = []
        for scale in (1.0, 1e-150):
            out = tmp_path / f"scale{scale:g}"
            out.mkdir()
            write_view_csv(out / "a.csv", view_a * [1.0, scale, 1.0], ["a1", "a2", "a3"])
            write_view_csv(out / "b.csv", view_b, ["b1", "b2"])
            assert run("fit", "--view-a", out / "a.csv", "--view-b", out / "b.csv",
                       "--out", out) == 0
            correlations.append(report_of(out)["correlations"])
        assert np.allclose(correlations[1], correlations[0], rtol=1e-12, atol=0.0)


class TestCvCommand:
    def test_ridge_selection_on_noisy_recipe(self, tmp_path):
        rc = run("cv", "--recipe", "example6", "--seed", "7",
                 "--grid-c1", "log:1e-3:1e3:15", "--threads", "4", "--out", tmp_path)
        assert rc == 0
        rep = report_of(tmp_path)
        assert 0.01 <= rep["selected_c1"] <= 0.5
        assert rep["refit_correlations"][0] >= 0.99
        surface = csv_rows(tmp_path / "cv_surface.csv")
        assert surface[0] == ["c1", "c2", "mean_test_correlation", "failed_folds"]
        assert len(surface) == 1 + 15 * 15

    def test_best_score_is_the_selected_cells(self, tmp_path):
        # c1 = 0 scores highest but fails on the 17-row training folds, so
        # c1 = 1000 is selected and its score is the one reported
        rng = np.random.default_rng(3)
        a = rng.standard_normal((22, 17))
        b = rng.standard_normal((22, 2))
        b[:, 0] += 0.5 * a[:, 0]
        write_view_csv(tmp_path / "a.csv", a, [f"a{i}" for i in range(17)])
        write_view_csv(tmp_path / "b.csv", b, ["b0", "b1"])
        out = tmp_path / "out"
        rc = run("cv", "--view-a", tmp_path / "a.csv", "--view-b", tmp_path / "b.csv",
                 "--grid-c1", "0,1000", "--grid-c2", "0", "--folds", "5", "--reps", "1",
                 "--seed", "3", "--out", out)
        assert rc == 0
        rep = report_of(out)
        rows = csv_rows(out / "cv_surface.csv")[1:]
        assert [int(row[3]) for row in rows] == [2, 0]
        assert float(rows[0][2]) > float(rows[1][2])
        assert rep["selected_c1"] == 1000.0
        assert rep["best_mean_test_correlation"] == float(rows[1][2])

    def test_grid_without_a_working_ridge_exits_with_numerical_code(self, tmp_path):
        rc = run("cv", "--recipe", "example6", "--seed", "0", "--grid-c1", "0",
                 "--grid-c2", "0", "--reps", "1", "--out", tmp_path)
        assert rc == 3
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "cv_surface.csv").exists()

    def test_refit_failure_reported_in_the_report(self, tmp_path, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise NumericalError("refit refused")

        monkeypatch.setattr(cancorr.regularized, "fit_regularized", refused)
        rc = run("cv", "--recipe", "example6", "--seed", "0", "--grid-c1", "0.1,1",
                 "--grid-c2", "0.1,1", "--folds", "2", "--reps", "1", "--out", tmp_path)
        assert rc == 0
        rep = report_of(tmp_path)
        assert rep["refit_correlations"] is None
        assert rep["refit_error"] == "refit refused"
        assert "refit correlations" not in capsys.readouterr().out

    def test_thread_count_does_not_change_results(self, tmp_path):
        outs = {}
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            run("cv", "--recipe", "example6", "--seed", "2",
                "--grid-c1", "log:1e-2:1:4", "--grid-c2", "0.1", "--reps", "2",
                "--threads", threads, "--out", out)
            outs[threads] = out
        assert (outs["1"] / "cv_surface.csv").read_bytes() == \
            (outs["4"] / "cv_surface.csv").read_bytes()
        rep1, rep4 = report_of(outs["1"]), report_of(outs["4"])
        assert rep1["selected_c1"] == rep4["selected_c1"]
        assert rep1["selected_c2"] == rep4["selected_c2"]

    @pytest.mark.parametrize("flag, grid", [("--grid-c1", "nan,1"), ("--grid-c2", "1,inf")])
    def test_non_finite_ridge_rejected(self, tmp_path, capsys, flag, grid):
        rc = run("cv", "--recipe", "example6", "--seed", "0", "--reps", "1", flag, grid,
                 "--out", tmp_path)
        assert rc == 2
        assert "finite and nonnegative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("components", [11, 0])
    def test_components_refused_before_the_search(self, tmp_path, capsys, monkeypatch,
                                                  components):
        def unreachable(*args, **kwargs):
            raise AssertionError("the ridge grid was searched before --components was checked")

        monkeypatch.setattr(cancorr.regularized, "cross_validate", unreachable)
        rc = run("cv", "--recipe", "example6", "--seed", "0", "--components", components,
                 "--out", tmp_path)
        assert rc == 2
        assert (f"components must satisfy 1 <= r <= min(p, q) = 10, got {components}"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []


class TestSimulateCommand:
    def test_wide_recipe_shapes_and_determinism(self, tmp_path):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            rc = run("simulate", "--recipe", "example9", "--seed", "1", "--out", out)
            assert rc == 0
            outs.append(out)
        mat_a, _ = read_view_csv(outs[0] / "view_a.csv")
        mat_b, _ = read_view_csv(outs[0] / "view_b.csv")
        assert mat_a.shape == (50, 100)
        assert mat_b.shape == (50, 150)
        for name in ("view_a.csv", "view_b.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_three_relation_recipe_shapes(self, tmp_path):
        run("simulate", "--recipe", "example7", "--seed", "3", "--out", tmp_path)
        mat_a, _ = read_view_csv(tmp_path / "view_a.csv")
        mat_b, _ = read_view_csv(tmp_path / "view_b.csv")
        assert mat_a.shape == (150, 7)
        assert mat_b.shape == (150, 8)
        rep = report_of(tmp_path)
        assert (rep["n"], rep["p"], rep["q"]) == (150, 7, 8)

    def test_row_count_override(self, tmp_path):
        run("simulate", "--recipe", "example1", "--seed", "0", "--recipe-n", "30",
            "--out", tmp_path)
        mat_a, _ = read_view_csv(tmp_path / "view_a.csv")
        assert mat_a.shape == (30, 4)

    def test_roundtrip_fit_matches_recipe_fit(self, tmp_path):
        sim = tmp_path / "sim"
        run("simulate", "--recipe", "example1", "--seed", "5", "--out", sim)
        out_files = tmp_path / "from_files"
        out_recipe = tmp_path / "from_recipe"
        run("fit", "--view-a", sim / "view_a.csv", "--view-b", sim / "view_b.csv",
            "--out", out_files)
        run("fit", "--recipe", "example1", "--seed", "5", "--out", out_recipe)
        corr_files = report_of(out_files)["correlations"]
        corr_recipe = report_of(out_recipe)["correlations"]
        assert np.allclose(corr_files, corr_recipe, atol=1e-12)
        # copies that start with a UTF-8 byte-order mark fit to the same weights
        for name in ("view_a.csv", "view_b.csv"):
            (tmp_path / f"bom_{name}").write_bytes(b"\xef\xbb\xbf" + (sim / name).read_bytes())
        out_bom = tmp_path / "from_bom_files"
        assert run("fit", "--view-a", tmp_path / "bom_view_a.csv",
                   "--view-b", tmp_path / "bom_view_b.csv", "--out", out_bom) == 0
        for name in ("weights_a.csv", "weights_b.csv"):
            assert (out_bom / name).read_bytes() == (out_files / name).read_bytes()


class TestKccaCommand:
    @pytest.fixture
    def no_kernel_work(self, monkeypatch):
        """Make building a Gram, and so resolving a median width, fail the test."""
        import cancorr.kernel

        def unreachable(*args, **kwargs):
            raise AssertionError("kernel widths or Grams computed for a fit that cannot run")

        monkeypatch.setattr(cancorr.kernel, "_gram", unreachable)
        monkeypatch.setattr(cancorr.kernel, "build_gram_pair", unreachable)

    def test_median_width_gaussian_fit(self, tmp_path):
        rc = run("kcca", "--recipe", "example7", "--seed", "0", "--out", tmp_path)
        assert rc == 0
        rep = report_of(tmp_path)
        assert rep["solver"] == "kernel_pencil"
        assert rep["regularization"] == {"c1": 0.1, "c2": 0.1}
        assert 2.0 < rep["kernel_width_a"] < 6.0
        assert 2.0 < rep["kernel_width_b"] < 6.0
        corr = rep["correlations"]
        assert len(corr) == 3
        assert all(0.8 < c < 1.0 for c in corr)
        assert sorted(corr, reverse=True) == corr
        table = rep["relation_table"]
        assert len(table["signals"]) == 3
        assert len(table["images"]) == 3
        assert (tmp_path / "relations.csv").is_file()

    def test_explicit_widths_and_linear_kernel(self, tmp_path):
        rc = run("kcca", "--recipe", "example7", "--seed", "0",
                 "--kernel-a", "linear", "--sigma-b", "2.5", "--out", tmp_path)
        assert rc == 0
        rep = report_of(tmp_path)
        assert rep["kernel_width_a"] is None
        assert rep["kernel_width_b"] == 2.5

    def test_pgso_route_reported(self, tmp_path):
        rc = run("kcca", "--recipe", "example7", "--seed", "0", "--pgso",
                 "--kappa", "0.5", "--out", tmp_path)
        assert rc == 0
        rep = report_of(tmp_path)
        assert rep["solver"] == "kernel_pgso"
        assert rep["regularization"]["kappa"] == 0.5
        assert len(rep["correlations"]) == 3

    def test_pgso_diagnostics_reported(self, tmp_path):
        source = ("--recipe", "example8", "--recipe-n", "400", "--seed", "0")
        out_pgso, out_direct = tmp_path / "pgso", tmp_path / "direct"
        assert run("kcca", *source, "--pgso", "--out", out_pgso) == 0
        assert run("kcca", *source, "--out", out_direct) == 0
        rep = report_of(out_pgso)
        data = generate_synthetic(get_recipe("example8", seed=0, n=400))
        data = data if data.standardized else standardize(data)
        model = fit_kernel_cca_pgso(
            build_gram_pair(
                data,
                KernelSpec("gaussian", rep["kernel_width_a"]),
                KernelSpec("gaussian", rep["kernel_width_b"]),
            ),
            kappa=0.5,
            r=3,
        )
        assert rep["factor_columns"] == list(model.factor_columns)
        assert rep["residual_traces"] == list(model.residual_traces)
        assert all(0 < columns < data.n for columns in rep["factor_columns"])
        direct = report_of(out_direct)
        assert "factor_columns" not in direct and "residual_traces" not in direct

    @pytest.mark.parametrize("argv, message", [
        ((), "use fit_kernel_cca_pgso"),  # example8's recipe n = 10000
        (("--recipe-n", "300", "--c1", "0"), "positive ridges"),
        (("--recipe-n", "300", "--pgso", "--kappa", "0"), "kappa must be positive"),
    ], ids=["direct-n", "direct-ridge", "pgso-kappa"])
    def test_fit_arguments_rejected_before_any_gram(self, tmp_path, capsys, no_kernel_work,
                                                    argv, message):
        assert run("kcca", "--recipe", "example8", "--seed", "0", *argv,
                   "--out", tmp_path) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("--c1", "nan"), "--c1 must be finite"),
        (("--c2", "inf"), "--c2 must be finite"),
        (("--pgso", "--kappa", "nan"), "--kappa must be finite"),
        (("--pgso", "--eta", "nan"), "--eta must be finite"),
        (("--pgso", "--eta", "inf"), "--eta must be finite"),
        (("--pgso", "--eta", "-1"), "eta must be finite and nonnegative"),
    ], ids=["c1-nan", "c2-inf", "kappa-nan", "eta-nan", "eta-inf", "eta-negative"])
    def test_non_finite_arguments_rejected_before_any_width(self, tmp_path, capsys,
                                                            no_kernel_work, argv, message):
        assert run("kcca", "--recipe", "example7", "--seed", "0", *argv,
                   "--out", tmp_path) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (("--eta=nan",), "--eta"),
        (("--kappa=inf",), "--kappa"),
        (("--pgso", "--c1=inf"), "--c1"),
        (("--pgso", "--c2=nan"), "--c2"),
    ], ids=["direct-eta", "direct-kappa", "pgso-c1", "pgso-c2"])
    def test_off_route_non_finite_argument_rejected(self, tmp_path, capsys, no_kernel_work,
                                                    argv, flag):
        # the route ignores the argument, but the report echoes it, and JSON
        # has no NaN: the echo refuses it before any width, Gram or fit
        assert run("kcca", "--recipe", "example7", "--seed", "0", *argv,
                   "--out", tmp_path) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be finite" in captured.err
        assert "correlations" not in captured.out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, gaussian_views", [
        ((), 2),
        (("--kernel-a", "linear"), 1),
        (("--sigma-a", "2.0", "--pgso"), 2),
    ], ids=["median", "linear-a", "explicit-a-pgso"])
    def test_each_gaussian_view_distances_computed_once(self, tmp_path, distance_entries,
                                                        argv, gaussian_views):
        assert run("kcca", "--recipe", "example7", "--seed", "0", *argv,
                   "--out", tmp_path) == 0
        n = generate_synthetic(get_recipe("example7", seed=0)).n
        assert sum(distance_entries) == gaussian_views * n * n

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("argv", [("--c1", "1.5", "--c2", "0.6"), ("--pgso",)],
                             ids=["direct", "pgso"])
    def test_relation_table_correlates_the_pair_image(self, tmp_path, argv, seed):
        # relations.csv and the report hold the table the acceptance tests
        # judge: the planted signals against z_a + z_b of the library fit
        assert run("kcca", "--recipe", "example7", "--seed", seed, *argv,
                   "--out", tmp_path) == 0
        recipe = get_recipe("example7", seed=seed)
        data = generate_synthetic(recipe)
        data = data if data.standardized else standardize(data)
        grams = build_gram_pair(data, KernelSpec("gaussian"), KernelSpec("gaussian"))
        model = (fit_kernel_cca_pgso(grams, kappa=0.5, r=3) if "--pgso" in argv
                 else fit_kernel_cca(grams, 1.5, 0.6, 3))
        expected = image_relation_table(model.z_a + model.z_b, relation_signals(recipe, data))
        table = report_of(tmp_path)["relation_table"]
        assert table["images"] == ["z1", "z2", "z3"]
        assert table["correlations"] == expected.correlations.tolist()
        rows = csv_rows(tmp_path / "relations.csv")
        assert rows[0] == ["signal", "z1", "z2", "z3"]
        assert [row[0] for row in rows[1:]] == table["signals"]
        assert np.array_equal([[float(v) for v in row[1:]] for row in rows[1:]],
                              expected.correlations)

    def test_bad_sigma_rejected(self, tmp_path):
        rc = run("kcca", "--recipe", "example7", "--sigma-a", "wide", "--out", tmp_path)
        assert rc == 2

    def test_non_positive_sigma_keeps_the_kernel_message(self, tmp_path, capsys):
        rc = run("kcca", "--recipe", "example7", "--sigma-a", "-1", "--out", tmp_path)
        assert rc == 2
        assert "gaussian kernel needs a positive finite width" in capsys.readouterr().err


class TestPmdCommand:
    def test_planted_pairs_recovered_with_tight_budgets(self, tmp_path):
        rc = run("pmd", "--recipe", "example9", "--seed", "0", "--budget-a", "1.2",
                 "--budget-b", "1.2", "--components", "3", "--out", tmp_path)
        assert rc == 0
        rep = report_of(tmp_path)
        assert len(rep["image_correlations"]) == 3
        assert min(rep["image_correlations"]) >= 0.9
        assert all(rep["converged"])
        rows = csv_rows(tmp_path / "sparse_weights_a.csv")
        assert rows[0] == ["component", "index", "variable", "value"]
        assert len(rows) == 1 + sum(rep["nonzeros_a"])
        assert all(float(r[3]) != 0.0 for r in rows[1:])

    @pytest.mark.parametrize("argv", [("--budget-a=nan",), ("--budget-b=inf",)])
    def test_non_finite_budget_rejected(self, tmp_path, capsys, argv):
        assert run("pmd", "--recipe", "example9", "--seed", "0", *argv, "--out", tmp_path) == 2
        flag = argv[0].split("=")[0]
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestPdsccaCommand:
    @pytest.mark.parametrize("argv, gaussian_views", [
        ((), 1), (("--sigma-b", "3.0"), 1), (("--kernel-b", "linear"), 0),
    ], ids=["median", "explicit", "linear"])
    def test_view_b_distances_computed_once(self, tmp_path, distance_entries, argv,
                                            gaussian_views):
        assert run("pdscca", "--recipe", "example10", "--seed", "0", "--basis", "0", *argv,
                   "--out", tmp_path) == 0
        n = generate_synthetic(get_recipe("example10", seed=0)).n
        assert sum(distance_entries) == gaussian_views * n * n

    def test_view_b_centred_in_place(self, tmp_path, monkeypatch):
        # the freshly built Gram is centred in place, as build_gram_pair does;
        # center_gram's symmetry check and copy are for library callers
        import cancorr.kernel

        def unreachable(*args, **kwargs):
            raise AssertionError("pdscca centred its Gram through center_gram")

        monkeypatch.setattr(cancorr.kernel, "center_gram", unreachable)
        for argv in ((), ("--kernel-b", "linear")):
            assert run("pdscca", "--recipe", "example10", "--seed", "0", "--basis", "0", *argv,
                       "--out", tmp_path) == 0

    def test_scan_and_pinned_basis_agree(self, tmp_path):
        out_scan = tmp_path / "scan"
        rc = run("pdscca", "--recipe", "example10", "--seed", "0", "--threads", "4",
                 "--out", out_scan)
        assert rc == 0
        rep = report_of(out_scan)
        assert rep["degenerate"] is False
        assert rep["converged"] is True
        assert rep["correlation"] >= 0.9
        assert 0 < rep["nonzeros_a"] <= 60

        # the default penalty is a fixed fraction of the data-dependent scale
        data = standardize(generate_synthetic(get_recipe("example10", seed=0)))
        k_b = center_gram(gram(data.view_b, KernelSpec("gaussian", median_heuristic(data.view_b))))
        expected = 0.1 * float(np.abs(data.view_a.T @ k_b).max())
        assert rep["mu"] == pytest.approx(expected, rel=1e-12)
        assert rep["gamma"] == pytest.approx(expected, rel=1e-12)

        out_pin = tmp_path / "pinned"
        rc = run("pdscca", "--recipe", "example10", "--seed", "0",
                 "--basis", rep["basis_index"], "--out", out_pin)
        assert rc == 0
        pinned = report_of(out_pin)
        # both fits run the same per-basis solve on the same Gram matrix
        for key in ("basis_index", "objective", "correlation", "nonzeros_a", "converged",
                    "kkt_violation", "n_iterations"):
            assert pinned[key] == rep[key]
        assert 0.0 <= rep["kkt_violation"] <= 1e-9
        assert (out_pin / "sparse_weights_a.csv").read_bytes() == (
            out_scan / "sparse_weights_a.csv").read_bytes()

    @pytest.mark.parametrize("argv", [("--mu=nan",), ("--mu=inf",),
                                      ("--gamma=inf", "--basis", "0")])
    def test_non_finite_penalty_rejected(self, tmp_path, capsys, argv):
        assert run("pdscca", "--recipe", "example10", "--seed", "0", *argv,
                   "--out", tmp_path) == 2
        flag = argv[0].split("=")[0]
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestReportedCorrelationsStayBounded:
    """A view paired with itself gives cosines of 1 up to roundoff; none is
    reported above 1."""

    @staticmethod
    def self_paired(tmp_path, seed: int) -> list:
        data = generate_synthetic(get_recipe("example1", seed=seed))
        path = tmp_path / f"view_a_{seed}.csv"
        write_view_csv(path, data.view_a, data.names_a)
        return ["--view-a", path, "--view-b", path, "--seed", seed]

    def test_pmd_image_correlations(self, tmp_path):
        for seed in range(8):
            out = tmp_path / f"pmd{seed}"
            assert run("pmd", *self.self_paired(tmp_path, seed), "--budget-a", "1",
                       "--budget-b", "1", "--components", "3", "--out", out) == 0
            assert max(np.abs(report_of(out)["image_correlations"])) <= 1.0

    def test_held_out_test_correlations(self, tmp_path):
        for seed in range(3):
            out = tmp_path / f"fit{seed}"
            assert run("fit", *self.self_paired(tmp_path, seed), "--test-split", "0.4",
                       "--out", out) == 0
            gen = report_of(out)["generalization"]["test_correlations"]
            assert max(np.abs(gen)) <= 1.0

    def test_pdscca_correlation(self, tmp_path):
        assert run("pdscca", *self.self_paired(tmp_path, 2), "--kernel-b", "linear",
                   "--mu", "0", "--gamma", "0", "--out", tmp_path) == 0
        assert abs(report_of(tmp_path)["correlation"]) <= 1.0


class TestTestAndBiplotCommands:
    def test_sequential_significance_command(self, tmp_path):
        rc = run("test", "--recipe", "example1", "--seed", "0", "--out", tmp_path)
        assert rc == 0
        rep = report_of(tmp_path)
        assert rep["n_significant"] == 3
        assert [s["df"] for s in rep["steps"]] == [12, 6, 2]
        assert (tmp_path / "significance.csv").is_file()

    def test_biplot_table_layout(self, tmp_path):
        rc = run("biplot", "--recipe", "example1", "--seed", "0", "--pair", "1,2",
                 "--view", "a", "--out", tmp_path)
        assert rc == 0
        rep = report_of(tmp_path)
        assert rep["pair"] == [1, 2]
        assert rep["view"] == "a"
        rows = csv_rows(tmp_path / "biplot.csv")
        assert rows[0] == ["view", "variable", "corr_z1", "corr_z2"]
        assert len(rows) == 1 + 4 + 3
        assert {r[0] for r in rows[1:]} == {"a", "b"}

    @pytest.mark.parametrize("pair", ["1", "0,2", "1,2,3", "one,two"])
    def test_biplot_pair_validated(self, tmp_path, pair):
        rc = run("biplot", "--recipe", "example1", "--pair", pair, "--out", tmp_path)
        assert rc == 2


class TestSideFiles:
    """``report.json``'s ``files`` maps a key to every side file the command
    wrote, and to no other file."""

    @pytest.mark.parametrize("argv, files", [
        (("fit", "--recipe", "example1"),
         {"weights_a": "weights_a.csv", "weights_b": "weights_b.csv",
          "significance": "significance.csv"}),
        (("test", "--recipe", "example1"), {"significance": "significance.csv"}),
        (("biplot", "--recipe", "example1"), {"biplot": "biplot.csv"}),
        (("cv", "--recipe", "example1", "--grid-c1", "0.1,1", "--grid-c2", "0.1",
          "--reps", "1"), {"cv_surface": "cv_surface.csv"}),
        (("kcca", "--recipe", "example7"), {"relations": "relations.csv"}),
        (("kcca", "--view-a", "a.csv", "--view-b", "b.csv"), {}),
        (("pmd", "--recipe", "example9"),
         {"weights_a": "sparse_weights_a.csv", "weights_b": "sparse_weights_b.csv"}),
        (("pdscca", "--recipe", "example10", "--basis", "0"),
         {"weights_a": "sparse_weights_a.csv"}),
        (("simulate", "--recipe", "example1"), {"view_a": "view_a.csv", "view_b": "view_b.csv"}),
    ], ids=["fit", "test", "biplot", "cv", "kcca", "kcca-csv", "pmd", "pdscca", "simulate"])
    def test_files_lists_every_side_file(self, tmp_path, monkeypatch, argv, files):
        # the CSV source is example7 without its recipe, so kcca writes no side file
        monkeypatch.chdir(tmp_path)
        data = generate_synthetic(get_recipe("example7", seed=0))
        write_view_csv(tmp_path / "a.csv", data.view_a, data.names_a)
        write_view_csv(tmp_path / "b.csv", data.view_b, data.names_b)
        out = tmp_path / "out"
        assert run(*argv, "--seed", "0", "--out", out) == 0
        rep = report_of(out)
        written = {p.name for p in out.iterdir()} - {"report.json"}
        assert set(rep["files"].values()) == written
        assert rep["files"] == files


class TestErrorExits:
    @pytest.mark.parametrize("argv, message", [
        (("biplot", "--pair", "1,x"), "--pair must be two"),
        (("biplot", "--pair", "0,2"), "1-based"),
        (("cv", "--grid-c1", "log:1e-3:1e3"), "must look like"),
        (("cv", "--folds", "1"), "at least 2 folds"),
        (("fit", "--test-split", "1.5"), "strictly between 0 and 1"),
        (("fit", "--alpha=nan"), "--alpha must be finite"),
        (("test", "--alpha=inf"), "--alpha must be finite"),
        (("pmd", "--budget-a=nan"), "--budget-a must be finite"),
        (("pdscca", "--mu=inf"), "--mu must be finite"),
        (("kcca", "--c1=nan"), "--c1 must be finite"),
        (("kcca", "--sigma-a", "wide"), "--sigma-a must be 'median' or a number"),
        (("pdscca", "--sigma-b", "-1"), "gaussian kernel needs a positive finite width"),
    ], ids=["biplot-pair", "biplot-zero", "cv-grid", "cv-folds", "fit-split", "fit-alpha",
            "test-alpha", "pmd-budget", "pdscca-mu", "kcca-c1", "kcca-sigma", "pdscca-sigma"])
    def test_data_free_flags_refused_before_loading(self, tmp_path, monkeypatch, capsys,
                                                    argv, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("data loaded for a config that is refused")

        monkeypatch.setattr(cli, "_prepare", unreachable)
        command, *flags = argv
        assert run(command, "--recipe", "example1", "--seed", "0", *flags,
                   "--out", tmp_path) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_row_count_mismatch_names_both_files(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_view_csv(path_a, rng.normal(size=(8, 2)), ("x1", "x2"))
        write_view_csv(path_b, rng.normal(size=(6, 2)), ("y1", "y2"))
        rc = run("fit", "--view-a", path_a, "--view-b", path_b, "--out", tmp_path / "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert "8 rows" in err and "6 rows" in err
        assert "a.csv" in err and "b.csv" in err

    def test_unknown_recipe_lists_available(self, tmp_path, capsys):
        rc = run("fit", "--recipe", "nosuch", "--out", tmp_path)
        assert rc == 2
        err = capsys.readouterr().err
        for recipe_id in ("example1", "example6", "example7", "example8",
                          "example9", "example10"):
            assert recipe_id in err

    def test_two_sources_rejected(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        write_view_csv(path, np.random.default_rng(0).normal(size=(5, 2)), ("x1", "x2"))
        rc = run("fit", "--recipe", "example1", "--view-a", path, "--view-b", path,
                 "--out", tmp_path / "out")
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_missing_second_view_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        write_view_csv(path, np.random.default_rng(0).normal(size=(5, 2)), ("x1", "x2"))
        rc = run("fit", "--view-a", path, "--out", tmp_path / "out")
        assert rc == 2

    def test_complex_spectrum_exits_with_numerical_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(np.linalg, "eig", conjugate_pair_eig(1e-6))
        rc = run("fit", "--recipe", "example1", "--seed", "0", "--solver", "eig",
                 "--out", tmp_path)
        assert rc == 3
        assert "one-view eigenproblem produced a complex spectrum" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_singular_data_exits_with_numerical_code(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        col = rng.normal(size=8)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_view_csv(path_a, np.column_stack([col, col]), ("x1", "x2"))
        write_view_csv(path_b, rng.normal(size=(8, 1)), ("y1",))
        out = tmp_path / "out"
        rc = run("fit", "--view-a", path_a, "--view-b", path_b, "--out", out)
        assert rc == 3
        assert "singular" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_partial_outputs_removed_on_late_failure(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("forced failure after side files were written")

        # the fit command looks ``project`` up in the linear layer when it runs
        monkeypatch.setattr(cancorr.linear, "project", boom)
        rc = run("fit", "--recipe", "example1", "--seed", "0", "--recipe-n", "100",
                 "--test-split", "0.4", "--out", tmp_path)
        assert rc == 3
        assert list(tmp_path.iterdir()) == []

    def test_failed_report_write_leaves_nothing(self, tmp_path, monkeypatch):
        argv = ("fit", "--recipe", "example1", "--seed", "0", "--out", tmp_path)
        assert run(*argv) == 0

        def broken_dump(obj, fh, **kwargs):
            fh.write('{"correlations": [0.9')
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.json, "dump", broken_dump)
        assert run(*argv) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_unserialisable_report_leaves_nothing(self, tmp_path, monkeypatch, capsys, value):
        simulate = cli._cmd_simulate

        def with_a_non_finite_entry(args, seed, tracker):
            return {**simulate(args, seed, tracker), "spoiled": value}

        monkeypatch.setattr(cli, "_cmd_simulate", with_a_non_finite_entry)
        assert run("simulate", "--recipe", "example1", "--seed", "0", "--out", tmp_path) == 2
        assert "JSON" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, code", [
        (("kcca", "--recipe", "example7", "--pgso", "--eta", "-1"), 2),
        # example6 is wider than it is long: the plain fit fails numerically
        (("fit", "--recipe", "example6"), 3),
    ], ids=["kcca-exit2", "fit-exit3"])
    def test_failed_run_removes_the_directories_it_made(self, tmp_path, argv, code):
        assert run(*argv, "--seed", "0", "--out", tmp_path / "new" / "out") == code
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_a_made_directory_holding_other_files(self, tmp_path,
                                                                   monkeypatch):
        simulate = cli._cmd_simulate

        def fails_beside_a_foreign_file(args, seed, tracker):
            simulate(args, seed, tracker)
            (args.out / "notes.txt").write_text("not the run's", encoding="utf-8")
            raise ValueError("forced failure after the side files were written")

        monkeypatch.setattr(cli, "_cmd_simulate", fails_beside_a_foreign_file)
        out = tmp_path / "new" / "out"
        assert run("simulate", "--recipe", "example1", "--seed", "0", "--out", out) == 2
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_failed_run_keeps_an_existing_out_directory(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert run("fit", "--recipe", "example6", "--seed", "0", "--out", out) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list(out.iterdir()) == []

    def test_report_path_taken_by_a_directory(self, tmp_path, capsys):
        # the report cannot replace a directory, and removing the path in
        # cleanup fails too; the side files go and the directory stays
        (tmp_path / "report.json").mkdir()
        assert run("fit", "--recipe", "example1", "--seed", "0", "--out", tmp_path) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert (tmp_path / "report.json").is_dir()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# A source that each subcommand with a float option runs on.
NON_FINITE_SWEEP_SOURCES = {
    "fit": ("--recipe", "example1"),
    "test": ("--recipe", "example1"),
    "kcca": ("--recipe", "example7"),
    "pmd": ("--recipe", "example9"),
    "pdscca": ("--recipe", "example10"),
}


def float_flag_cases() -> list:
    """(command, route, flag, value) for every option the parser reads with
    ``type=float``, on both kcca routes, and each non-finite spelling."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    cases = []
    for command, sub in commands.choices.items():
        routes = ((), ("--pgso",)) if command == "kcca" else ((),)
        for flag in (a.option_strings[0] for a in sub._actions if a.type is float):
            for route in routes:
                for value in ("nan", "inf", "-inf"):
                    cases.append(pytest.param(
                        command, route, flag, value,
                        id="-".join([command, *(r.strip("-") for r in route), flag[2:], value]),
                    ))
    return cases


class TestNonFiniteFloatFlags:
    @pytest.mark.parametrize("command, route, flag, value", float_flag_cases())
    def test_rejected_with_no_files(self, tmp_path, capsys, command, route, flag, value):
        source = NON_FINITE_SWEEP_SOURCES.get(command)
        assert source is not None, f"give '{command}' a source in NON_FINITE_SWEEP_SOURCES"
        # --flag=value, since argparse reads a bare -inf as an option
        assert main([command, *source, "--seed", "0", *route, f"{flag}={value}",
                     "--out", str(tmp_path)]) == 2
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_refused_flag_removes_an_earlier_report(self, tmp_path):
        argv = ("fit", "--recipe", "example1", "--seed", "0", "--out", tmp_path)
        assert run(*argv) == 0
        assert run(*argv, "--alpha=nan") == 2
        assert not (tmp_path / "report.json").exists()


class TestReproducibility:
    def test_reports_byte_identical_across_reruns(self, tmp_path):
        argv = ("fit", "--recipe", "example1", "--seed", "3", "--out", tmp_path)
        assert run(*argv) == 0
        first = snapshot(tmp_path)
        assert run(*argv) == 0
        assert snapshot(tmp_path) == first
        assert set(first) == {"report.json", "significance.csv",
                              "weights_a.csv", "weights_b.csv"}

    def test_report_does_not_depend_on_the_core_count(self, tmp_path, monkeypatch):
        reports = []
        for cores in (1, 8):
            monkeypatch.setattr(cli.os, "cpu_count", lambda cores=cores: cores)
            assert run("fit", "--recipe", "example1", "--seed", "0", "--out", tmp_path) == 0
            reports.append((tmp_path / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["threads"] is None

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out_env = tmp_path / "env"
        out_flag = tmp_path / "flag"
        monkeypatch.setenv("CCA_SEED", "7")
        run("fit", "--recipe", "example1", "--out", out_env)
        monkeypatch.delenv("CCA_SEED")
        run("fit", "--recipe", "example1", "--seed", "7", "--out", out_flag)
        rep_env = report_of(out_env)
        assert rep_env["seed"] == 7
        assert rep_env["correlations"] == report_of(out_flag)["correlations"]

    def test_default_seed_is_zero(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CCA_SEED", raising=False)
        run("fit", "--recipe", "example1", "--out", tmp_path)
        assert report_of(tmp_path)["seed"] == 0

    def test_bad_env_seed_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CCA_SEED", "notanint")
        rc = run("fit", "--recipe", "example1", "--out", tmp_path)
        assert rc == 2
        assert "CCA_SEED" in capsys.readouterr().err

    def test_timing_goes_to_stderr_only(self, tmp_path, capsys):
        rc = run("fit", "--recipe", "example1", "--seed", "0", "--out", tmp_path)
        assert rc == 0
        captured = capsys.readouterr()
        assert "elapsed:" in captured.err
        assert "elapsed" not in captured.out
        assert "report.json" in captured.out
        assert b"elapsed" not in (tmp_path / "report.json").read_bytes()

    def test_elapsed_printed_to_the_microsecond(self, tmp_path, capsys):
        assert run("test", "--recipe", "example1", "--seed", "0", "--out", tmp_path) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if "elapsed" in line]
        assert len(lines) == 1 and re.fullmatch(r"elapsed: \d+\.\d{6}s", lines[0])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


# The column kinds of the generated CSV views: a fresh normal draw, a copy or a
# random combination of an earlier column of either view, a draw rounded to
# halves, a draw shrunk onto a constant, and draws scaled by 1e150 and 1e-150.
COLUMN_KINDS = ("plain", "duplicated", "collinear", "rounded", "near_constant", "huge", "tiny")
# plain at least half the time: a near-constant column whose spread is at most
# 1e-12 of its magnitude fails the whole draw with exit 2
COLUMN = st.one_of(st.just("plain"), st.sampled_from(COLUMN_KINDS))

# Every command but simulate, with the flags that choose its other routes;
# small grids keep the cv runs short.
CONTRACT_COMMANDS = (
    ("fit",),
    ("fit", "--solver", "eig", "--components", "1"),
    ("fit", "--solver", "geneig", "--test-split", "0.3"),
    ("test", "--solver", "eig"),
    ("biplot", "--solver", "geneig"),
    ("cv", "--grid-c1", "1e-3,1", "--grid-c2", "1e-3,1", "--folds", "2", "--reps", "1"),
    ("kcca",),
    ("kcca", "--kernel-a", "linear", "--sigma-b", "0.5", "--components", "1"),
    ("kcca", "--pgso"),
    ("pmd", "--budget-a", "1.5", "--components", "1"),
    ("pdscca",),
    ("pdscca", "--kernel-b", "linear", "--basis", "0"),
)


def generated_views(seed: int, n: int, kinds_a, kinds_b) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    columns = []
    for kind in (*kinds_a, *kinds_b):
        x = rng.standard_normal(n)
        if kind == "duplicated" and columns:
            x = columns[rng.integers(len(columns))].copy()
        elif kind == "collinear" and columns:
            weights = rng.standard_normal(2)
            x = weights[0] * columns[rng.integers(len(columns))] + weights[1] * columns[-1]
        elif kind == "rounded":
            x = np.round(2.0 * x) / 2.0
        elif kind == "near_constant":
            x = 3.0 + 10.0 ** -float(rng.integers(6, 14)) * x
        elif kind in ("huge", "tiny"):
            x = x * (1e150 if kind == "huge" else 1e-150)
        columns.append(x)
    return (np.column_stack(columns[:len(kinds_a)]), np.column_stack(columns[len(kinds_a):]))


class TestGeneratedExitContract:
    """Small generated CSV pairs through every data command, each run twice
    in-process into one ``--out``: the exit code is 0, 2 or 3 and nothing else
    escapes, a failed run leaves no file, a numerical failure never exits 2, the
    report lists every side file, both runs write the same bytes, and no warning
    escapes."""

    @staticmethod
    def run_quietly(argv, failures: list) -> int:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("always")
            failures.clear()
            code = main([str(a) for a in argv])
        assert [str(w.message) for w in caught] == [], argv
        assert code in (0, 2, 3), argv
        if code == 2:
            assert not isinstance(failures[-1], (NumericalError, np.linalg.LinAlgError)), (
                argv, failures[-1])
        return code

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(2, 15),
        kinds_a=st.lists(COLUMN, min_size=1, max_size=11),
        kinds_b=st.lists(COLUMN, min_size=1, max_size=11),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exit_contract_on_generated_views(self, n, kinds_a, kinds_b, seed):
        view_a, view_b = generated_views(seed, n, kinds_a, kinds_b)
        # the exception each failed run is handling when it removes its files
        failures = []
        cleanup = cli.OutputTracker.cleanup

        def recorded_cleanup(tracker):
            failures.append(sys.exc_info()[1])
            cleanup(tracker)

        with tempfile.TemporaryDirectory() as scratch, \
                mock.patch.object(cli.OutputTracker, "cleanup", recorded_cleanup):
            root = Path(scratch)
            write_view_csv(root / "a.csv", view_a, [f"a{i}" for i in range(view_a.shape[1])])
            write_view_csv(root / "b.csv", view_b, [f"b{i}" for i in range(view_b.shape[1])])
            for index, command in enumerate(CONTRACT_COMMANDS):
                out = root / f"out{index}"
                argv = (*command, "--view-a", root / "a.csv", "--view-b", root / "b.csv",
                        "--out", out)
                codes, written = [], []
                for _ in range(2):
                    codes.append(self.run_quietly(argv, failures))
                    written.append(snapshot(out) if out.exists() else {})
                assert codes[0] == codes[1], argv
                assert written[0] == written[1], argv
                if codes[0] != 0:
                    assert written[0] == {}, argv
                else:
                    listed = json.loads(written[0]["report.json"])["files"].values()
                    assert sorted(listed) == sorted(set(written[0]) - {"report.json"}), argv


# Runs ``python -m cancorr ARGV`` in this interpreter and writes, as JSON, its
# exit code, every module loaded by the end of the run, the public scipy
# subpackages among them, and the modules loaded after the CLI first read its clock (the
# start of the timed region).
START_UP_PROBE = """
import json, runpy, sys, time

out_path, argv = sys.argv[1], sys.argv[2:]
marks = []
perf_counter = time.perf_counter


def probed_perf_counter():
    if sys._getframe(1).f_globals.get("__name__") == "cancorr.cli":
        marks.append(set(sys.modules))
    return perf_counter()


time.perf_counter = probed_perf_counter
sys.argv = ["cancorr", *argv]
code = 0
try:
    runpy.run_module("cancorr", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = set(sys.modules)
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump({"exit": code, "marks": len(marks), "loaded": sorted(loaded),
               "scipy": sorted(m for m in loaded if m.startswith("scipy.") and m.count(".") == 1
                               and not m.startswith("scipy._")
                               and hasattr(sys.modules[m], "__path__")),
               "timed": sorted(loaded - marks[0]) if marks else None}, fh)
"""


def start_up_probe(tmp_path, *argv) -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out_path = tmp_path / "probe.json"
    subprocess.run(
        [sys.executable, "-c", START_UP_PROBE, str(out_path), *argv,
         "--seed", "0", "--out", str(tmp_path / "out")],
        env=env, check=True, capture_output=True, timeout=120,
    )
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


class TestStartUp:
    """Each command, in a fresh interpreter, imports its layers before the
    timer starts, and loads only the scipy modules it computes with: the
    kernel command and the generalized-eigenvalue solver scipy.linalg.  The
    significance test of fit and test loads none."""

    @pytest.mark.parametrize("argv, expect_exit, scipy_packages", [
        (("fit", "--recipe", "example1", "--test-split", "0.4"), 0, ()),
        (("fit", "--recipe", "example1", "--solver", "geneig"), 0, ("scipy.linalg",)),
        (("test", "--recipe", "example1"), 0, ()),
        (("biplot", "--recipe", "example1"), 0, ()),
        (("biplot", "--recipe", "example1", "--solver", "geneig"), 0, ("scipy.linalg",)),
        (("cv", "--recipe", "example6", "--grid-c1", "0.1,10", "--grid-c2", "0.1,10",
          "--folds", "2", "--reps", "1"), 0, ()),
        # example7's n = 150 is below top_svd's Lanczos crossover
        (("kcca", "--recipe", "example7", "--c1", "1.5", "--c2", "0.6"), 0, ("scipy.linalg",)),
        (("kcca", "--recipe", "example7", "--pgso"), 0, ("scipy.linalg",)),
        (("pdscca", "--recipe", "example10", "--basis", "0"), 0, ()),
        # example10's views, read from CSV
        (("pdscca", "--basis", "0"), 0, ()),
        (("pmd", "--recipe", "example9", "--budget-a", "1.2", "--budget-b", "1.2",
          "--components", "3"), 0, ()),
        (("simulate", "--recipe", "example1"), 0, ()),
        # example6 is wider than it is long: the plain fit fails numerically
        (("fit", "--recipe", "example6"), 3, ()),
    ], ids=["fit", "fit-geneig", "test", "biplot", "biplot-geneig", "cv", "kcca", "kcca-pgso",
            "pdscca", "pdscca-csv", "pmd", "simulate", "fit-exit3"])
    def test_timed_region_loads_no_module(self, tmp_path, argv, expect_exit, scipy_packages):
        if "--recipe" not in argv:
            data = generate_synthetic(get_recipe("example10", seed=0))
            write_view_csv(tmp_path / "a.csv", data.view_a, data.names_a)
            write_view_csv(tmp_path / "b.csv", data.view_b, data.names_b)
            argv += ("--view-a", str(tmp_path / "a.csv"), "--view-b", str(tmp_path / "b.csv"))
        probe = start_up_probe(tmp_path, *argv)
        assert probe["exit"] == expect_exit
        assert probe["marks"] == (2 if expect_exit == 0 else 1)
        assert probe["timed"] == []
        assert probe["scipy"] == list(scipy_packages)
        if not scipy_packages:
            assert not [m for m in probe["loaded"] if m.split(".")[0] == "scipy"]

    def test_no_source_file_imports_scipy_spatial(self):
        # kernel distances come from a numpy loop; scipy.spatial's package
        # init alone costs a kcca or pdscca launch about 0.1 s
        src = Path(cli.__file__).resolve().parent
        for path in sorted(src.glob("*.py")):
            assert "scipy.spatial" not in path.read_text(encoding="utf-8"), path.name

    def test_no_source_file_imports_scipy_special(self):
        # scipy.special costs a launch about 0.24 s next to numpy alone; the
        # normal variates and the chi-square quantile come from numpy and math
        src = Path(cli.__file__).resolve().parent
        for path in sorted(src.glob("*.py")):
            assert "scipy.special" not in path.read_text(encoding="utf-8"), path.name
