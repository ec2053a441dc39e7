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
from functools import partial
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

# The keys of ``linear.SOLVERS``, spelled out so that building the parser
# does not import the linear layer.
SOLVER_NAMES = ("eig", "geneig", "svd")
# The modules each command computes with: layer modules by relative name and
# any scipy module a layer imports only inside its functions.  Commands import
# layer functions when they run; ``main`` imports these modules before it
# starts the timer, so the reported elapsed time never includes an import.
COMMAND_LAYERS = {
    "fit": (".linear", ".evaluation", "scipy.special"),
    "test": (".linear", ".evaluation", "scipy.special"),
    "biplot": (".linear", ".evaluation"),
    "cv": (".regularized",),
    "kcca": (".kernel", "scipy.linalg"),
    "pdscca": (".kernel", ".sparse"),
    "pmd": (".sparse",),
    "simulate": (),
}


# ---------------------------------------------------------------------------
# small helpers


class OutputTracker:
    """Records the files a command writes, so that a failed run removes them.

    ``files`` maps a report key to each side file and is the report's
    ``files`` entry; ``report.json`` and its temp file are written unkeyed.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []
        self.files: dict[str, str] = {}

    def path(self, name: str, key: str | None = None) -> Path:
        p = self.out_dir / name
        self.paths.append(p)
        if key is not None:
            self.files[key] = name
        return p

    def cleanup(self) -> None:
        for p in self.paths:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def _json_default(value):
    """``json.dump`` hook for the values reports hold beyond JSON's own types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


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
    significance.write_csv(tracker.path("significance.csv", "significance"))
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
    """The parsed arguments, for the report; a non-finite float has no JSON form
    and is refused with its flag's name."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    for key, value in config.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"--{key.replace('_', '-')} must be finite, got {value}")
    return config


def _kernel_spec(kind: str, sigma: str, label: str) -> KernelSpec:
    """One view's kernel flags; the Gram build resolves a ``median`` width."""
    from .kernel import KernelSpec

    if kind == "linear" or sigma == "median":
        return KernelSpec(kind)
    try:
        width = float(sigma)
    except ValueError:
        raise ValueError(f"--sigma-{label} must be 'median' or a number, got {sigma!r}") from None
    return KernelSpec("gaussian", width=width)


# ---------------------------------------------------------------------------
# commands


def _cmd_fit(args, seed: int, tracker: OutputTracker) -> dict:
    from .linear import SOLVERS, _resolve_r, project

    if args.test_split is not None and not 0.0 < args.test_split < 1.0:
        raise ValueError(
            f"--test-split must lie strictly between 0 and 1, got {args.test_split}"
        )
    train_std, _, test = _prepare(args, seed)
    r = _resolve_r(args.components, train_std)
    model = SOLVERS[args.solver](train_std)
    sliced = _slice_model(model, r)
    significance = _significance(args, model, train_std.n, tracker)
    _write_weights_csv(tracker.path("weights_a.csv", "weights_a"), train_std.names_a, sliced.w_a)
    _write_weights_csv(tracker.path("weights_b.csv", "weights_b"), train_std.names_b, sliced.w_b)
    report = {
        "n_train": train_std.n,
        "solver": args.solver,
        "correlations": sliced.correlations,
        "significance": significance,
    }
    if test is not None:
        test_std = train_std.scaler.apply(test)
        gen = project(sliced, test_std).correlations
        report["generalization"] = {"n_test": test_std.n, "test_correlations": gen}
    print("correlations:", " ".join("%.6f" % c for c in sliced.correlations))
    print("significant components at alpha=%g: %d" % (args.alpha, significance["n_significant"]))
    return report


def _cmd_cv(args, seed: int, tracker: OutputTracker) -> dict:
    from .linear import _resolve_r
    from .regularized import RegularizationConfig, cross_validate, fit_regularized

    config = RegularizationConfig(
        c1_grid=_parse_grid(args.grid_c1),
        c2_grid=_parse_grid(args.grid_c2),
        n_folds=args.folds,
        repetitions=args.reps,
        seed=seed,
    )
    data_std, _, _ = _prepare(args, seed)
    # the refit's component count is refused before the grid is searched
    _resolve_r(args.components, data_std)
    surface = cross_validate(data_std, config)
    surface.write_csv(tracker.path("cv_surface.csv", "cv_surface"))
    report = {
        "selected_c1": surface.selected_c1,
        "selected_c2": surface.selected_c2,
        "best_mean_test_correlation": surface.selected_score,
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
        _check_direct, _check_pgso, build_gram_pair, fit_kernel_cca, fit_kernel_cca_pgso,
        image_relation_table,
    )

    spec_a = _kernel_spec(args.kernel_a, args.sigma_a, "a")
    spec_b = _kernel_spec(args.kernel_b, args.sigma_b, "b")
    data_std, recipe, _ = _prepare(args, seed)
    # reject the fit's arguments before the Grams are built
    if args.pgso:
        _check_pgso(args.kappa, args.eta, args.components)
        fit = partial(fit_kernel_cca_pgso, kappa=args.kappa, eta=args.eta, r=args.components)
    else:
        _check_direct(data_std.n, args.c1, args.c2, args.components)
        fit = partial(fit_kernel_cca, c1=args.c1, c2=args.c2, r=args.components)
    grams = build_gram_pair(data_std, spec_a, spec_b)
    spec_a, spec_b = grams.spec_a, grams.spec_b
    model = fit(grams)
    report = {
        "solver": model.solver,
        "kernel_width_a": spec_a.width,
        "kernel_width_b": spec_b.width,
        "correlations": model.correlations,
        "regularization": dict(model.regularization),
    }
    if args.pgso:
        report["factor_columns"] = model.factor_columns
        report["residual_traces"] = model.residual_traces
    if recipe is not None and recipe.relations:
        signals = relation_signals(recipe, data_std)
        # the pair image z_a + z_b, the rule the acceptance tests judge
        table = image_relation_table(model.z_a + model.z_b, signals)
        table.write_csv(tracker.path("relations.csv", "relations"))
        report["relation_table"] = {
            "signals": list(table.signal_names),
            "images": list(table.image_names),
            "correlations": table.correlations,
        }
    print("correlations:", " ".join("%.6f" % c for c in model.correlations))
    gaussian = [(v, s.width) for v, s in zip("ab", (spec_a, spec_b)) if s.kind == "gaussian"]
    if gaussian:
        print(" ".join("sigma_%s=%.6f" % width for width in gaussian))
    return report


def _cmd_pmd(args, seed: int, tracker: OutputTracker) -> dict:
    from .sparse import fit_pmd

    data_std, _, _ = _prepare(args, seed)
    blocks = covariance_blocks(data_std)
    result = fit_pmd(blocks.c_ab, args.budget_a, args.budget_b, args.components)
    corr = unit_images(data_std.view_a @ result.w_a, data_std.view_b @ result.w_b)[2]
    _write_sparse_weights_csv(tracker.path("sparse_weights_a.csv", "weights_a"),
                              data_std.names_a, result.w_a)
    _write_sparse_weights_csv(tracker.path("sparse_weights_b.csv", "weights_b"),
                              data_std.names_b, result.w_b)
    report = {
        "sigmas": result.sigmas,
        "image_correlations": corr,
        "nonzeros_a": np.count_nonzero(result.w_a, axis=0),
        "nonzeros_b": np.count_nonzero(result.w_b, axis=0),
        "iterations": list(result.iterations),
        "converged": list(result.converged),
    }
    print("image correlations:", " ".join("%.6f" % c for c in corr))
    return report


def _cmd_pdscca(args, seed: int, tracker: OutputTracker) -> dict:
    from .kernel import _center_in_place, _gram
    from .sparse import fit_primal_dual, scan_basis

    spec_b = _kernel_spec(args.kernel_b, args.sigma_b, "b")
    data_std, _, _ = _prepare(args, seed)
    k_b, spec_b = _gram(data_std.view_b, spec_b)
    k_b = _center_in_place(k_b)
    x_a = data_std.view_a
    default_pen = 0.1 * float(np.abs(x_a.T @ k_b).max())
    mu = default_pen if args.mu is None else args.mu
    gamma = default_pen if args.gamma is None else args.gamma
    if args.basis is not None:
        result = fit_primal_dual(x_a, k_b, mu, gamma, args.basis)
    else:
        result = scan_basis(x_a, k_b, mu, gamma)
    _write_sparse_weights_csv(tracker.path("sparse_weights_a.csv", "weights_a"),
                              data_std.names_a, result.w_a[:, None])
    report = {
        "mu": mu,
        "gamma": gamma,
        "kernel_width_b": spec_b.width,
        "basis_index": result.basis_index,
        "objective": result.objective,
        "correlation": result.correlation,
        "degenerate": result.degenerate,
        "converged": result.converged,
        "kkt_violation": result.kkt_violation,
        "n_iterations": result.n_iterations,
        "nonzeros_a": int(np.count_nonzero(result.w_a)),
    }
    print(
        "basis=%d objective=%.6f correlation=%.6f nonzeros=%d"
        % (result.basis_index, result.objective, result.correlation, report["nonzeros_a"])
    )
    return report


def _cmd_test(args, seed: int, tracker: OutputTracker) -> dict:
    from .linear import SOLVERS

    data_std, _, _ = _prepare(args, seed)
    model = SOLVERS[args.solver](data_std)
    significance = _significance(args, model, data_std.n, tracker)
    print("significant components at alpha=%g: %d" % (args.alpha, significance["n_significant"]))
    return {"correlations": model.correlations, **significance}


def _cmd_biplot(args, seed: int, tracker: OutputTracker) -> dict:
    from .evaluation import biplot_export
    from .linear import SOLVERS

    try:
        parts = [int(x) for x in args.pair.split(",")]
    except ValueError:
        raise ValueError(f"--pair must be two comma-separated component numbers, got {args.pair!r}") from None
    if len(parts) != 2:
        raise ValueError(f"--pair must have exactly two components, got {args.pair!r}")
    if min(parts) < 1:
        raise ValueError("--pair uses 1-based component numbers")
    data_std, _, _ = _prepare(args, seed)
    model = SOLVERS[args.solver](data_std)
    table = biplot_export(data_std, model, pair=(parts[0] - 1, parts[1] - 1), view=args.view)
    table.write_csv(tracker.path("biplot.csv", "biplot"))
    print("biplot table written for components %d,%d of view %s" % (parts[0], parts[1], args.view))
    return {"correlations": model.correlations, "pair": parts, "view": args.view}


def _cmd_simulate(args, seed: int, tracker: OutputTracker) -> dict:
    recipe = get_recipe(args.recipe, seed=seed, n=args.recipe_n)
    data = generate_synthetic(recipe)
    a_path = tracker.path("view_a.csv", "view_a")
    b_path = tracker.path("view_b.csv", "view_b")
    write_view_csv(a_path, data.view_a, data.names_a)
    write_view_csv(b_path, data.view_b, data.names_b)
    print("wrote %s (%d x %d) and %s (%d x %d)"
          % (a_path, data.n, data.p, b_path, data.n, data.q))
    return {"recipe": recipe.recipe_id, "n": data.n, "p": data.p, "q": data.q}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cancorr",
        description="Canonical correlation fits: linear, ridge-regularised, kernel, sparse.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    # the source flags of the seven data commands, and the flags every command takes
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--view-a", type=Path, help="CSV file for view a")
    source.add_argument("--view-b", type=Path, help="CSV file for view b")
    source.add_argument("--recipe", help="built-in synthetic recipe id (example1, example6, ...)")
    source.add_argument("--recipe-n", type=int, default=None,
                        help="override the recipe's observation count")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=None,
        help="random seed (falls back to the CCA_SEED environment variable, then 0)",
    )
    common.add_argument("--out", type=Path, default=Path("."),
                        help="directory for the report and CSV side files")
    common.add_argument("--threads", type=int, default=None,
                        help="accepted and echoed in report.json; no command uses it")
    # the flags that two or three commands share, each declared once
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--solver", choices=SOLVER_NAMES, default="svd")
    alpha = argparse.ArgumentParser(add_help=False)
    alpha.add_argument("--alpha", type=float, default=0.01)
    kernel_b = argparse.ArgumentParser(add_help=False)
    kernel_b.add_argument("--kernel-b", choices=("gaussian", "linear"), default="gaussian")
    kernel_b.add_argument("--sigma-b", default="median")

    fit = subs.add_parser("fit", parents=[source, common, solver, alpha],
                          help="linear fit with significance and optional held-out scoring")
    fit.add_argument("--test-split", type=float, default=None,
                     help="hold out this fraction of rows for generalisation testing")
    fit.add_argument("--components", type=int, default=None)
    fit.set_defaults(func=_cmd_fit)

    cv = subs.add_parser("cv", parents=[source, common],
                         help="cross-validated ridge selection")
    cv.add_argument("--grid-c1", default="log:1e-3:1e3:15",
                    help="ridge grid: log:lo:hi:count, lin:lo:hi:count, or comma list")
    cv.add_argument("--grid-c2", default="log:1e-3:1e3:15")
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--reps", type=int, default=10)
    cv.add_argument("--components", type=int, default=1,
                    help="components for the final refit at the selected ridges")
    cv.set_defaults(func=_cmd_cv)

    kcca = subs.add_parser("kcca", parents=[source, common, kernel_b],
                           help="kernel fit (direct pencil or reduced route)")
    kcca.add_argument("--kernel-a", choices=("gaussian", "linear"), default="gaussian")
    kcca.add_argument("--sigma-a", default="median",
                      help="gaussian width for view a: 'median' or a number")
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

    pmd = subs.add_parser("pmd", parents=[source, common],
                          help="sparse rank-1 decomposition of the cross block")
    pmd.add_argument("--budget-a", type=float, default=2.0, help="1-norm budget for view a")
    pmd.add_argument("--budget-b", type=float, default=2.0)
    pmd.add_argument("--components", type=int, default=1)
    pmd.set_defaults(func=_cmd_pmd)

    pd = subs.add_parser("pdscca", parents=[source, common, kernel_b],
                         help="sparse primal weights against one kernel basis column")
    pd.add_argument("--mu", type=float, default=None,
                    help="1-norm penalty on the primal weights (default 0.1 max|X'K|)")
    pd.add_argument("--gamma", type=float, default=None,
                    help="1-norm penalty on the free dual entries (same default)")
    pd.add_argument("--basis", type=int, default=None,
                    help="fix the pinned basis column (0-based); default scans all")
    pd.set_defaults(func=_cmd_pdscca)

    test = subs.add_parser("test", parents=[source, common, solver, alpha],
                           help="sequential significance test of the correlations")
    test.set_defaults(func=_cmd_test)

    biplot = subs.add_parser("biplot", parents=[source, common, solver],
                             help="structure-correlation table for an image pair")
    biplot.add_argument("--pair", default="1,2", help="two 1-based component numbers, e.g. 1,2")
    biplot.add_argument("--view", choices=("a", "b"), default="a")
    biplot.set_defaults(func=_cmd_biplot)

    sim = subs.add_parser("simulate", parents=[common],
                          help="write a synthetic recipe to CSV files")
    sim.add_argument("--recipe", required=True)
    sim.add_argument("--recipe-n", type=int, default=None)
    sim.set_defaults(func=_cmd_simulate)

    return parser


def _write_report(path: Path, report: dict, tracker: OutputTracker) -> None:
    """Write ``report`` to a temp file beside ``path``, then rename it over
    ``path``, so a failed write never leaves a partial report.  A NaN or
    infinity, which JSON cannot hold, fails the write with ``ValueError``."""
    tmp = tracker.path(f".{path.name}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False, default=_json_default)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for module in COMMAND_LAYERS[args.command]:
        importlib.import_module(module, __package__)
    out_dir: Path = args.out
    tracker = OutputTracker(out_dir)
    # registered first, so a failed run also removes a report left by an earlier one
    report_path = tracker.path("report.json")
    started = time.perf_counter()
    try:
        # a non-finite flag is refused before any command runs
        config = _config_echo(args)
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
    try:
        report.update(
            command=args.command, config=config, seed=seed, version=__version__,
            files=tracker.files,
        )
        _write_report(report_path, report, tracker)
    except (ValueError, OSError) as exc:
        tracker.cleanup()
        print(f"error: could not write {report_path}: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.perf_counter() - started:.6f}s", file=sys.stderr)
    print(f"report: {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
