"""Workload definitions and output checks for the cancorr benchmark.

A workload is a list of CLI invocations.  Each invocation names the argv
after ``python -m cancorr``, the data seed it passes, and the exit code it
must give; ``checked_values`` picks the report fields compared with the
stored reference values.  The workload seed, modulo ``DATA_SEEDS``, is the
data seed (sparse_scan also takes the next two); the reference holds values
for every data seed, so every run is checked against it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

# Reference values are stored for data seeds 0 .. DATA_SEEDS-1; the workload
# seed is reduced modulo this count.
DATA_SEEDS = 16

# Largest deviation from a reference value (relative to max(1, |ref|)) that
# still counts as correct.  Index-valued outputs must match exactly.
ACCURACY_TOL = 1e-5

# One pdscca scan took 6.6-8.5 s over data seeds 0-15, so a sparse_scan pass
# sums this many consecutive data seeds and the work of a pass hardly depends
# on the workload seed.
SPARSE_DATA_SEEDS = 3

# A timed run makes at least this many passes.  A cli_quick pass lasts about
# 6 s of start-ups, so one or two would leave its median to a few seconds of
# host speed.
MIN_PASSES = {"cli_quick": 3}

OUT_ROOT = ".bench_out"
THREADS = "2"

# The default ridge grid of ``cancorr cv``: log:1e-3:1e3:15.
CV_GRID = [10.0 ** (-3.0 + 6.0 * i / 14.0) for i in range(15)]


@dataclass(frozen=True)
class Invocation:
    label: str
    data_seed: int
    argv: tuple[str, ...]
    expect_exit: int = 0

    @property
    def name(self) -> str:
        return f"{self.label}-s{self.data_seed}"

    @property
    def out_dir(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


def _out_dir(workload: str, label: str, seed: int) -> str:
    return os.path.join(OUT_ROOT, workload, f"{label}-s{seed}")


def _inv(workload: str, label: str, *args: str, seed: int, expect_exit: int = 0) -> Invocation:
    argv = (*args, "--seed", str(seed), "--threads", THREADS,
            "--out", _out_dir(workload, label, seed))
    return Invocation(label, seed, argv, expect_exit)


def _cli_quick(seed: int) -> list[Invocation]:
    sim_dir = _out_dir("cli_quick", "simulate", seed)
    w = "cli_quick"
    return [
        _inv(w, "fit", "fit", "--recipe", "example1", "--test-split", "0.4", seed=seed),
        _inv(w, "test", "test", "--recipe", "example1", seed=seed),
        _inv(w, "biplot", "biplot", "--recipe", "example1", seed=seed),
        _inv(w, "pmd", "pmd", "--recipe", "example9", "--budget-a", "1.2",
             "--budget-b", "1.2", "--components", "3", seed=seed),
        _inv(w, "kcca", "kcca", "--recipe", "example7", "--c1", "1.5", "--c2", "0.6",
             seed=seed),
        _inv(w, "simulate", "simulate", "--recipe", "example1", seed=seed),
        _inv(w, "fit_csv", "fit", "--view-a", os.path.join(sim_dir, "view_a.csv"),
             "--view-b", os.path.join(sim_dir, "view_b.csv"), seed=seed),
        # example6 has more variables than rows: the plain fit must refuse.
        _inv(w, "fit_wide", "fit", "--recipe", "example6", seed=seed, expect_exit=3),
    ]


def _ridge_cv(seed: int) -> list[Invocation]:
    return [_inv("ridge_cv", "cv", "cv", "--recipe", "example6", seed=seed)]


def _kernel_fit(seed: int) -> list[Invocation]:
    w = "kernel_fit"
    return [
        _inv(w, "direct", "kcca", "--recipe", "example8", "--recipe-n", "1500",
             "--c1", "1.5", "--c2", "0.6", seed=seed),
        _inv(w, "pgso", "kcca", "--recipe", "example8", "--recipe-n", "3000", "--pgso",
             seed=seed),
    ]


def _sparse_scan(seed: int) -> list[Invocation]:
    return [_inv("sparse_scan", "pdscca", "pdscca", "--recipe", "example10",
                 seed=(seed + i) % DATA_SEEDS) for i in range(SPARSE_DATA_SEEDS)]


WORKLOADS = {
    "cli_quick": _cli_quick,
    "ridge_cv": _ridge_cv,
    "kernel_fit": _kernel_fit,
    "sparse_scan": _sparse_scan,
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    return WORKLOADS[workload](seed % DATA_SEEDS)


# ---------------------------------------------------------------------------
# output checks


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _unit_interval_descending(values, what: str) -> None:
    _require(isinstance(values, list) and len(values) > 0, f"{what} missing")
    _require(all(0.0 <= v <= 1.0 for v in values), f"{what} outside [0, 1]: {values}")
    _require(all(a >= b for a, b in zip(values, values[1:])), f"{what} not descending: {values}")


def checked_values(inv: Invocation, out_files: list[str]) -> dict[str, list[float]]:
    """Check one invocation's outputs for invariants that hold for any seed.

    Returns the values that are compared with the reference.  Raises
    ``CheckFailed`` when an invariant does not hold.
    """
    if inv.expect_exit != 0:
        _require(out_files == [], f"error path left files behind: {out_files}")
        return {}
    _require("report.json" in out_files, "report.json missing")
    with open(os.path.join(inv.out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    for name in report.get("files", {}).values():
        _require(name in out_files, f"side file {name} missing")
    command = report["command"]
    if command in ("fit", "test", "biplot", "kcca"):
        _unit_interval_descending(report["correlations"], "correlations")
        values = {"correlations": report["correlations"]}
        if "generalization" in report:
            gen = report["generalization"]["test_correlations"]
            _require(all(-1.0 <= v <= 1.0 for v in gen), f"test correlations: {gen}")
            values["test_correlations"] = gen
        return values
    if command == "pmd":
        corr = report["image_correlations"]
        _require(len(corr) == 3 and all(-1.0 <= v <= 1.0 for v in corr),
                 f"image correlations: {corr}")
        return {"image_correlations": corr, "sigmas": report["sigmas"]}
    if command == "cv":
        for key in ("selected_c1", "selected_c2"):
            _require(any(abs(report[key] - g) <= 1e-9 * g for g in CV_GRID),
                     f"{key} {report[key]} is not on the grid")
        best = report["best_mean_test_correlation"]
        _require(-1.0 <= best <= 1.0, f"best score {best}")
        _unit_interval_descending(report["refit_correlations"], "refit correlations")
        return {
            "selected_c1": [report["selected_c1"]],
            "selected_c2": [report["selected_c2"]],
            "best_mean_test_correlation": [best],
            "refit_correlations": report["refit_correlations"],
        }
    if command == "pdscca":
        idx = report["basis_index"]
        _require(isinstance(idx, int) and 0 <= idx < 50, f"basis_index {idx}")
        _require(math.isfinite(report["objective"]) and report["objective"] >= 0,
                 f"objective {report['objective']}")
        _require(-1.0 <= report["correlation"] <= 1.0, f"correlation {report['correlation']}")
        return {
            "basis_index": [idx],
            "objective": [report["objective"]],
            "correlation": [report["correlation"]],
        }
    if command == "simulate":
        _require((report["n"], report["p"], report["q"]) == (60, 4, 3), "simulate shape")
        return {}
    raise CheckFailed(f"unexpected command {command}")


def deviation(values: dict[str, list[float]], reference: dict[str, list[float]]) -> float:
    """Largest deviation of checked values from the reference.

    Index-valued entries (``basis_index``) count any mismatch in full; the
    rest are relative to ``max(1, |ref|)``.
    """
    worst = 0.0
    _require(set(values) == set(reference), f"checked fields {sorted(values)} "
             f"differ from reference fields {sorted(reference)}")
    for key, got in values.items():
        ref = reference[key]
        _require(len(got) == len(ref), f"{key}: {len(got)} values, reference has {len(ref)}")
        for g, r in zip(got, ref):
            worst = max(worst, abs(g - r) / max(1.0, abs(r)))
    return worst


REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
