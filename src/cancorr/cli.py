"""Command line front end.

Every run consumes exactly one data source (a pair of CSV files or a named
synthetic recipe), writes a JSON report plus CSV side files into --out, and
is fully reproducible from (config, seed): repeat runs produce byte-identical
reports.  Wall-clock timing goes to stderr so it never perturbs the report.
Exit codes: 0 success, 2 for configuration or data errors, 3 for numerical
failures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .dataset import (
    PairedDataset,
    covariance_blocks,
    generate_synthetic,
    get_recipe,
    read_view_csv,
    relation_signals,
    standardize,
    take_rows,
    write_csv_rows,
    write_view_csv,
)
from .numerics import NumericalError, unit_images

if TYPE_CHECKING:
    from .kernel import KernelSpec
    from .linear import CcaModel

SIGNIFICANCE_CSV = "significance.csv"
# The keys of ``linear.SOLVERS``, spelled out so that building the parser
# does not import the linear layer.
SOLVER_NAMES = ("eig", "geneig", "svd")
# The layer modules each command computes with.  Commands import layer
# functions when they run; ``main`` imports these modules before it starts
# the timer, so the reported elapsed time never includes an import.
COMMAND_LAYERS = {
    "fit": ("linear", "evaluation"),
    "test": ("linear", "evaluation"),
    "biplot": ("linear", "evaluation"),
    "cv": ("regularized",),
    "kcca": ("kernel",),
    "pdscca": ("kernel", "sparse"),
    "pmd": ("sparse",),
    "simulate": (),
}


# ---------------------------------------------------------------------------
# small helpers


class OutputTracker:
    """Records files written by a command so partial outputs can be removed on error."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.paths.append(p)
        return p

    def cleanup(self) -> None:
        for p in self.paths:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def _jsonify(value):
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, Path):
        return str(value)
    return value


def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid grammar: ``log:lo:hi:count``, ``lin:lo:hi:count``, or comma-separated values."""
    if text.startswith(("log:", "lin:")):
        kind, *rest = text.split(":")
        if len(rest) != 3:
            raise ValueError(f"grid '{text}' must look like {kind}:lo:hi:count")
        try:
            lo, hi, count = float(rest[0]), float(rest[1]), int(rest[2])
        except ValueError:
            raise ValueError(f"grid '{text}' has non-numeric parts") from None
        if count < 1:
            raise ValueError(f"grid '{text}' needs at least one point")
        if kind == "log":
            if lo <= 0 or hi <= 0:
                raise ValueError(f"log grid bounds must be positive in '{text}'")
            return tuple(np.logspace(np.log10(lo), np.log10(hi), count))
        return tuple(np.linspace(lo, hi, count))
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"could not parse grid '{text}'") from None


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CCA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"CCA_SEED must be an integer, got {env!r}") from None
    return 0


def _load_data(args, seed: int):
    """Return (dataset, recipe-or-None) from exactly one configured source."""
    has_files = args.view_a is not None or args.view_b is not None
    has_recipe = args.recipe is not None
    if has_files and has_recipe:
        raise ValueError("pass either --view-a/--view-b or --recipe, not both")
    if has_recipe:
        recipe = get_recipe(args.recipe, seed=seed, n=getattr(args, "recipe_n", None))
        return generate_synthetic(recipe), recipe
    if args.view_a is None or args.view_b is None:
        raise ValueError("need both --view-a and --view-b, or a --recipe")
    mat_a, names_a = read_view_csv(args.view_a)
    mat_b, names_b = read_view_csv(args.view_b)
    if mat_a.shape[0] != mat_b.shape[0]:
        raise ValueError(
            f"row counts differ: {args.view_a} has {mat_a.shape[0]} rows, "
            f"{args.view_b} has {mat_b.shape[0]} rows"
        )
    return PairedDataset(mat_a, mat_b, names_a=names_a, names_b=names_b), None


def _split_train_test(data: PairedDataset, fraction: float | None, seed: int):
    """Seeded row split; the split stream is decoupled from the generation stream."""
    if fraction is None:
        return data, None
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"--test-split must lie strictly between 0 and 1, got {fraction}")
    m = int(round(data.n * fraction))
    if m < 2 or data.n - m < 3:
        raise ValueError(f"test split of {m} rows leaves too little data (n = {data.n})")
    rng = np.random.default_rng([seed, 7919])
    perm = rng.permutation(data.n)
    test_idx = np.sort(perm[:m])
    train_idx = np.sort(perm[m:])
    return take_rows(data, train_idx), take_rows(data, test_idx)


def _prepare(args, seed: int):
    """The prologue of the fitting commands: load the configured source, set
    aside the ``--test-split`` rows (fit only), and standardize the rest.

    Returns ``(data, recipe, test)``: the standardized (training) data, the
    recipe or None, and the raw held-out rows or None.
    """
    data, recipe = _load_data(args, seed)
    train, test = _split_train_test(data, getattr(args, "test_split", None), seed)
    return (train if train.standardized else standardize(train)), recipe, test


def _significance(args, model: CcaModel, n: int, tracker: OutputTracker) -> dict:
    """Sequential test of ``model``'s correlations, written to significance.csv;
    returns the report fields that fit and test share."""
    from .evaluation import sequential_test

    significance = sequential_test(
        model.correlations, n=n, p=model.p, q=model.q, alpha=args.alpha, clamp_perfect=True,
    )
    significance.write_csv(tracker.path(SIGNIFICANCE_CSV))
    return {
        "alpha": significance.alpha,
        "n_significant": significance.n_significant,
        "steps": [asdict(rec) for rec in significance.records],
    }


def _slice_model(model: CcaModel, r: int) -> CcaModel:
    if r >= model.r:
        return model
    return replace(
        model,
        w_a=model.w_a[:, :r],
        w_b=model.w_b[:, :r],
        correlations=model.correlations[:r],
        z_a=model.z_a[:, :r],
        z_b=model.z_b[:, :r],
    )


def _write_weights_csv(path: Path, names, weights: np.ndarray) -> None:
    write_csv_rows(
        path,
        ["variable", *(f"comp{i + 1}" for i in range(weights.shape[1]))],
        ([name, *row] for name, row in zip(names, weights)),
    )


def _write_sparse_weights_csv(path: Path, names, weights: np.ndarray) -> None:
    """Sparse weights as explicit (component, index, variable, value) rows."""
    write_csv_rows(
        path,
        ["component", "index", "variable", "value"],
        (
            [j + 1, int(i), names[i], weights[i, j]]
            for j in range(weights.shape[1])
            for i in np.flatnonzero(weights[:, j])
        ),
    )


def _config_echo(args) -> dict:
    skip = {"func"}
    return {k: _jsonify(v) for k, v in vars(args).items() if k not in skip}


def _kernel_spec(kind: str, sigma: str, view: np.ndarray, label: str) -> tuple[KernelSpec, float | None]:
    from .kernel import KernelSpec, median_heuristic

    if kind == "linear":
        return KernelSpec("linear"), None
    if sigma == "median":
        width = median_heuristic(view)
    else:
        try:
            width = float(sigma)
        except ValueError:
            raise ValueError(f"--sigma-{label} must be 'median' or a number, got {sigma!r}") from None
    return KernelSpec("gaussian", width=width), width


# ---------------------------------------------------------------------------
# commands


def _cmd_fit(args, seed: int, tracker: OutputTracker) -> dict:
    from .linear import SOLVERS, project

    train_std, _, test = _prepare(args, seed)
    model = SOLVERS[args.solver](train_std)
    r = model.r if args.components is None else args.components
    if not 1 <= r <= model.r:
        raise ValueError(f"--components must lie in [1, {model.r}], got {r}")
    sliced = _slice_model(model, r)
    significance = _significance(args, model, train_std.n, tracker)
    wa_path = tracker.path("weights_a.csv")
    wb_path = tracker.path("weights_b.csv")
    _write_weights_csv(wa_path, train_std.names_a, sliced.w_a)
    _write_weights_csv(wb_path, train_std.names_b, sliced.w_b)
    report = {
        "n_train": train_std.n,
        "solver": args.solver,
        "correlations": sliced.correlations,
        "significance": significance,
        "files": {
            "weights_a": wa_path.name,
            "weights_b": wb_path.name,
            "significance": SIGNIFICANCE_CSV,
        },
    }
    if test is not None:
        test_std = train_std.scaler.apply(test)
        gen = project(sliced, test_std).correlations
        report["generalization"] = {"n_test": test_std.n, "test_correlations": gen}
    print("correlations:", " ".join("%.6f" % c for c in sliced.correlations))
    print("significant components at alpha=%g: %d" % (args.alpha, significance["n_significant"]))
    return report


def _cmd_cv(args, seed: int, tracker: OutputTracker) -> dict:
    from .regularized import RegularizationConfig, cross_validate, fit_regularized

    data_std, _, _ = _prepare(args, seed)
    config = RegularizationConfig(
        c1_grid=_parse_grid(args.grid_c1),
        c2_grid=_parse_grid(args.grid_c2),
        n_folds=args.folds,
        repetitions=args.reps,
        seed=seed,
    )
    surface = cross_validate(data_std, config)
    surface_path = tracker.path("cv_surface.csv")
    surface.write_csv(surface_path)
    report = {
        "selected_c1": surface.selected_c1,
        "selected_c2": surface.selected_c2,
        "best_mean_test_correlation": surface.selected_score,
        "files": {"cv_surface": surface_path.name},
    }
    try:
        refit = fit_regularized(
            data_std, surface.selected_c1, surface.selected_c2, r=args.components
        )
        report["refit_correlations"] = refit.correlations
    except NumericalError as exc:
        report["refit_correlations"] = None
        report["refit_error"] = str(exc)
    print("selected c1=%g c2=%g" % (surface.selected_c1, surface.selected_c2))
    if report["refit_correlations"] is not None:
        print("refit correlations:", " ".join("%.6f" % c for c in refit.correlations))
    return report


def _cmd_kcca(args, seed: int, tracker: OutputTracker) -> dict:
    from .kernel import (
        build_gram_pair, fit_kernel_cca, fit_kernel_cca_pgso, image_relation_table,
    )

    data_std, recipe, _ = _prepare(args, seed)
    spec_a, width_a = _kernel_spec(args.kernel_a, args.sigma_a, data_std.view_a, "a")
    spec_b, width_b = _kernel_spec(args.kernel_b, args.sigma_b, data_std.view_b, "b")
    grams = build_gram_pair(data_std, spec_a, spec_b)
    if args.pgso:
        model = fit_kernel_cca_pgso(grams, kappa=args.kappa, eta=args.eta, r=args.components)
    else:
        model = fit_kernel_cca(grams, c1=args.c1, c2=args.c2, r=args.components)
    report = {
        "solver": model.solver,
        "kernel_width_a": width_a,
        "kernel_width_b": width_b,
        "correlations": model.correlations,
        "regularization": dict(model.regularization),
        "files": {},
    }
    if args.pgso:
        report["factor_columns"] = model.factor_columns
        report["residual_traces"] = model.residual_traces
    if recipe is not None and recipe.relations:
        signals = relation_signals(recipe, data_std)
        table = image_relation_table(model.z_a, signals)
        rel_path = tracker.path("relations.csv")
        table.write_csv(rel_path)
        report["files"]["relations"] = rel_path.name
        report["relation_table"] = {
            "signals": list(table.signal_names),
            "images": list(table.image_names),
            "correlations": table.correlations,
        }
    print("correlations:", " ".join("%.6f" % c for c in model.correlations))
    if width_a is not None:
        print("sigma_a=%.6f" % width_a, end=" ")
    if width_b is not None:
        print("sigma_b=%.6f" % width_b, end="")
    if width_a is not None or width_b is not None:
        print()
    return report


def _cmd_pmd(args, seed: int, tracker: OutputTracker) -> dict:
    from .sparse import fit_pmd

    data_std, _, _ = _prepare(args, seed)
    blocks = covariance_blocks(data_std)
    result = fit_pmd(blocks.c_ab, args.budget_a, args.budget_b, args.components)
    corr = unit_images(data_std.view_a @ result.w_a, data_std.view_b @ result.w_b)[2]
    wa_path = tracker.path("sparse_weights_a.csv")
    wb_path = tracker.path("sparse_weights_b.csv")
    _write_sparse_weights_csv(wa_path, data_std.names_a, result.w_a)
    _write_sparse_weights_csv(wb_path, data_std.names_b, result.w_b)
    report = {
        "sigmas": result.sigmas,
        "image_correlations": corr,
        "nonzeros_a": [int(np.count_nonzero(result.w_a[:, j])) for j in range(result.r)],
        "nonzeros_b": [int(np.count_nonzero(result.w_b[:, j])) for j in range(result.r)],
        "iterations": list(result.iterations),
        "converged": list(result.converged),
        "files": {"weights_a": wa_path.name, "weights_b": wb_path.name},
    }
    print("image correlations:", " ".join("%.6f" % c for c in corr))
    return report


def _cmd_pdscca(args, seed: int, tracker: OutputTracker) -> dict:
    from .kernel import center_gram, gram
    from .sparse import fit_primal_dual, scan_basis

    data_std, _, _ = _prepare(args, seed)
    spec_b, width_b = _kernel_spec(args.kernel_b, args.sigma_b, data_std.view_b, "b")
    k_b = center_gram(gram(data_std.view_b, spec_b))
    x_a = data_std.view_a
    default_pen = 0.1 * float(np.abs(x_a.T @ k_b).max())
    mu = default_pen if args.mu is None else args.mu
    gamma = default_pen if args.gamma is None else args.gamma
    if args.basis is not None:
        result = fit_primal_dual(x_a, k_b, mu, gamma, args.basis)
    else:
        result = scan_basis(x_a, k_b, mu, gamma)
    wa_path = tracker.path("sparse_weights_a.csv")
    _write_sparse_weights_csv(wa_path, data_std.names_a, result.w_a[:, None])
    report = {
        "mu": mu,
        "gamma": gamma,
        "kernel_width_b": width_b,
        "basis_index": result.basis_index,
        "objective": result.objective,
        "correlation": result.correlation,
        "degenerate": result.degenerate,
        "converged": result.converged,
        "kkt_violation": result.kkt_violation,
        "nonzeros_a": int(np.count_nonzero(result.w_a)),
        "files": {"weights_a": wa_path.name},
    }
    print(
        "basis=%d objective=%.6f correlation=%.6f nonzeros=%d"
        % (result.basis_index, result.objective, result.correlation,
           int(np.count_nonzero(result.w_a)))
    )
    return report


def _cmd_test(args, seed: int, tracker: OutputTracker) -> dict:
    from .linear import SOLVERS

    data_std, _, _ = _prepare(args, seed)
    model = SOLVERS[args.solver](data_std)
    significance = _significance(args, model, data_std.n, tracker)
    report = {
        "correlations": model.correlations,
        **significance,
        "files": {"significance": SIGNIFICANCE_CSV},
    }
    print("significant components at alpha=%g: %d" % (args.alpha, significance["n_significant"]))
    return report


def _cmd_biplot(args, seed: int, tracker: OutputTracker) -> dict:
    from .evaluation import biplot_export
    from .linear import SOLVERS

    data_std, _, _ = _prepare(args, seed)
    model = SOLVERS[args.solver](data_std)
    try:
        parts = [int(x) for x in args.pair.split(",")]
    except ValueError:
        raise ValueError(f"--pair must be two comma-separated component numbers, got {args.pair!r}") from None
    if len(parts) != 2:
        raise ValueError(f"--pair must have exactly two components, got {args.pair!r}")
    if min(parts) < 1:
        raise ValueError("--pair uses 1-based component numbers")
    table = biplot_export(data_std, model, pair=(parts[0] - 1, parts[1] - 1), view=args.view)
    bi_path = tracker.path("biplot.csv")
    table.write_csv(bi_path)
    report = {
        "correlations": model.correlations,
        "pair": parts,
        "view": args.view,
        "files": {"biplot": bi_path.name},
    }
    print("biplot table written for components %d,%d of view %s" % (parts[0], parts[1], args.view))
    return report


def _cmd_simulate(args, seed: int, tracker: OutputTracker) -> dict:
    if args.recipe is None:
        raise ValueError("simulate requires --recipe")
    recipe = get_recipe(args.recipe, seed=seed, n=args.recipe_n)
    data = generate_synthetic(recipe)
    a_path = tracker.path("view_a.csv")
    b_path = tracker.path("view_b.csv")
    write_view_csv(a_path, data.view_a, data.names_a)
    write_view_csv(b_path, data.view_b, data.names_b)
    report = {
        "recipe": recipe.recipe_id,
        "n": data.n,
        "p": data.p,
        "q": data.q,
        "files": {"view_a": a_path.name, "view_b": b_path.name},
    }
    print("wrote %s (%d x %d) and %s (%d x %d)"
          % (a_path, data.n, data.p, b_path, data.n, data.q))
    return report


# ---------------------------------------------------------------------------
# parser


def _add_source_args(sub, with_split: bool = False):
    sub.add_argument("--view-a", type=Path, help="CSV file for view a")
    sub.add_argument("--view-b", type=Path, help="CSV file for view b")
    sub.add_argument("--recipe", help="built-in synthetic recipe id (example1, example6, ...)")
    sub.add_argument("--recipe-n", type=int, default=None,
                     help="override the recipe's observation count")
    if with_split:
        sub.add_argument("--test-split", type=float, default=None,
                         help="hold out this fraction of rows for generalisation testing")


def _add_common_args(sub):
    sub.add_argument("--seed", type=int, default=None,
                     help="random seed (falls back to the CCA_SEED environment variable, then 0)")
    sub.add_argument("--out", type=Path, default=Path("."),
                     help="directory for the report and CSV side files")
    sub.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="accepted and echoed in report.json; no command uses it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cancorr",
        description="Canonical correlation fits: linear, ridge-regularised, kernel, sparse.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="linear fit with significance and optional held-out scoring")
    _add_source_args(fit, with_split=True)
    _add_common_args(fit)
    fit.add_argument("--solver", choices=SOLVER_NAMES, default="svd")
    fit.add_argument("--components", type=int, default=None)
    fit.add_argument("--alpha", type=float, default=0.01)
    fit.set_defaults(func=_cmd_fit)

    cv = subs.add_parser("cv", help="cross-validated ridge selection")
    _add_source_args(cv)
    _add_common_args(cv)
    cv.add_argument("--grid-c1", default="log:1e-3:1e3:15",
                    help="ridge grid: log:lo:hi:count, lin:lo:hi:count, or comma list")
    cv.add_argument("--grid-c2", default="log:1e-3:1e3:15")
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--reps", type=int, default=10)
    cv.add_argument("--components", type=int, default=1,
                    help="components for the final refit at the selected ridges")
    cv.set_defaults(func=_cmd_cv)

    kcca = subs.add_parser("kcca", help="kernel fit (direct pencil or reduced route)")
    _add_source_args(kcca)
    _add_common_args(kcca)
    kcca.add_argument("--kernel-a", choices=("gaussian", "linear"), default="gaussian")
    kcca.add_argument("--kernel-b", choices=("gaussian", "linear"), default="gaussian")
    kcca.add_argument("--sigma-a", default="median",
                      help="gaussian width for view a: 'median' or a number")
    kcca.add_argument("--sigma-b", default="median")
    kcca.add_argument("--c1", type=float, default=0.1)
    kcca.add_argument("--c2", type=float, default=0.1)
    kcca.add_argument("--components", type=int, default=3)
    kcca.add_argument("--pgso", action="store_true",
                      help="use the reduced incomplete-Cholesky route")
    kcca.add_argument("--kappa", type=float, default=0.5,
                      help="reduced-route ridge (with --pgso)")
    kcca.add_argument("--eta", type=float, default=None,
                      help="factorisation trace cutoff (default 1e-6 of the gram trace)")
    kcca.set_defaults(func=_cmd_kcca)

    pmd = subs.add_parser("pmd", help="sparse rank-1 decomposition of the cross block")
    _add_source_args(pmd)
    _add_common_args(pmd)
    pmd.add_argument("--budget-a", type=float, default=2.0, help="1-norm budget for view a")
    pmd.add_argument("--budget-b", type=float, default=2.0)
    pmd.add_argument("--components", type=int, default=1)
    pmd.set_defaults(func=_cmd_pmd)

    pd = subs.add_parser("pdscca", help="sparse primal weights against one kernel basis column")
    _add_source_args(pd)
    _add_common_args(pd)
    pd.add_argument("--kernel-b", choices=("gaussian", "linear"), default="gaussian")
    pd.add_argument("--sigma-b", default="median")
    pd.add_argument("--mu", type=float, default=None,
                    help="1-norm penalty on the primal weights (default 0.1 max|X'K|)")
    pd.add_argument("--gamma", type=float, default=None,
                    help="1-norm penalty on the free dual entries (same default)")
    pd.add_argument("--basis", type=int, default=None,
                    help="fix the pinned basis column (0-based); default scans all")
    pd.set_defaults(func=_cmd_pdscca)

    test = subs.add_parser("test", help="sequential significance test of the correlations")
    _add_source_args(test)
    _add_common_args(test)
    test.add_argument("--solver", choices=SOLVER_NAMES, default="svd")
    test.add_argument("--alpha", type=float, default=0.01)
    test.set_defaults(func=_cmd_test)

    biplot = subs.add_parser("biplot", help="structure-correlation table for an image pair")
    _add_source_args(biplot)
    _add_common_args(biplot)
    biplot.add_argument("--solver", choices=SOLVER_NAMES, default="svd")
    biplot.add_argument("--pair", default="1,2", help="two 1-based component numbers, e.g. 1,2")
    biplot.add_argument("--view", choices=("a", "b"), default="a")
    biplot.set_defaults(func=_cmd_biplot)

    sim = subs.add_parser("simulate", help="write a synthetic recipe to CSV files")
    sim.add_argument("--recipe", required=True)
    sim.add_argument("--recipe-n", type=int, default=None)
    _add_common_args(sim)
    sim.set_defaults(func=_cmd_simulate)

    return parser


def _write_report(path: Path, report: dict, tracker: OutputTracker) -> None:
    """Write ``report`` to a temp file beside ``path``, then rename it over
    ``path``, so a failed write never leaves a partial report."""
    tmp = tracker.path(f".{path.name}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for layer in COMMAND_LAYERS[args.command]:
        importlib.import_module(f".{layer}", __package__)
    out_dir: Path = args.out
    tracker = OutputTracker(out_dir)
    # registered first, so a failed run also removes a report left by an earlier one
    report_path = tracker.path("report.json")
    started = time.perf_counter()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = _resolve_seed(args)
        report = args.func(args, seed, tracker)
    except NumericalError as exc:
        tracker.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        tracker.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.update(command=args.command, config=_config_echo(args), seed=seed, version=__version__)
    try:
        _write_report(report_path, report, tracker)
    except OSError as exc:
        tracker.cleanup()
        print(f"error: could not write {report_path}: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.perf_counter() - started:.6f}s", file=sys.stderr)
    print(f"report: {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
