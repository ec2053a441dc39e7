"""End-to-end checks of the command line front end.

Commands run in-process through ``cancorr.cli.main`` with ``--out`` pointed
at a per-test directory; assertions read the JSON report and the CSV side
files exactly as a scripted pipeline would.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

import cancorr.cli as cli
from cancorr import __version__
from cancorr.cli import _parse_grid, main
from cancorr.dataset import (
    generate_synthetic,
    get_recipe,
    read_view_csv,
    standardize,
    write_view_csv,
)
from cancorr.kernel import (
    KernelSpec, build_gram_pair, center_gram, fit_kernel_cca_pgso, gram, median_heuristic,
)
from cancorr.numerics import NumericalError


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

    def test_component_bound_is_validated(self, tmp_path):
        rc = run("fit", "--recipe", "example1", "--seed", "0", "--components", "9",
                 "--out", tmp_path)
        assert rc == 2
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


class TestKccaCommand:
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

    def test_bad_sigma_rejected(self, tmp_path):
        rc = run("kcca", "--recipe", "example7", "--sigma-a", "wide", "--out", tmp_path)
        assert rc == 2


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


class TestPdsccaCommand:
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
        assert pinned["objective"] == pytest.approx(rep["objective"], abs=1e-12)
        assert pinned["correlation"] == pytest.approx(rep["correlation"], abs=1e-12)
        assert pinned["nonzeros_a"] == rep["nonzeros_a"]
        # the pinned fit repeats the scan's iterates for that basis, caps included
        assert isinstance(rep["inner_sweep_cap_hits"], int)
        assert pinned["inner_sweep_cap_hits"] == rep["inner_sweep_cap_hits"]


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


class TestErrorExits:
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

        monkeypatch.setattr(cli, "project", boom)
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

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestReproducibility:
    def test_reports_byte_identical_across_reruns(self, tmp_path):
        argv = ("fit", "--recipe", "example1", "--seed", "3", "--out", tmp_path)
        assert run(*argv) == 0
        first = snapshot(tmp_path)
        assert run(*argv) == 0
        assert snapshot(tmp_path) == first
        assert set(first) == {"report.json", "significance.csv",
                              "weights_a.csv", "weights_b.csv"}

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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out
