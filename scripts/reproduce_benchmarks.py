#!/usr/bin/env python3
"""Reproduce the library's headline numbers from the built-in synthetic recipes.

Runs every major fitting route end to end and prints the observed values next
to the reference ones the test suite pins.  Useful as a quick health check on
a new machine and as a worked example of the library API.

Usage:
    python scripts/reproduce_benchmarks.py [--seeds N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from cancorr import (
    KernelSpec,
    PairedDataset,
    RegularizationConfig,
    build_gram_pair,
    center_gram,
    chi2_quantile,
    covariance_blocks,
    cross_validate,
    fit_kernel_cca,
    fit_kernel_cca_pgso,
    fit_pmd,
    fit_regularized,
    fit_svd,
    generate_synthetic,
    get_recipe,
    gram,
    image_relation_table,
    project,
    relation_signals,
    scan_basis,
    sequential_test,
    standardize,
    take_rows,
)
from cancorr.numerics import unit_images


def one_dominant(table: np.ndarray, thresh: float = 0.7) -> bool:
    table = np.abs(np.asarray(table, dtype=float))
    hits = table >= thresh
    if not np.all(hits.sum(axis=1) == 1):
        return False
    cols = hits.argmax(axis=1)
    return len(set(cols.tolist())) == table.shape[0]


class Section:
    def __init__(self, title: str):
        self.title = title

    def __enter__(self):
        print(f"\n== {self.title}")
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        print(f"   [{time.perf_counter() - self.started:.1f}s]")
        return False


def fmt(values) -> str:
    return " ".join(f"{v:.3f}" for v in np.atleast_1d(values))


def run_linear(seeds: int) -> None:
    with Section("linear fit on the three-relation recipe (example1)"):
        corrs = [
            fit_svd(standardize(generate_synthetic(get_recipe("example1", seed=s)))).correlations
            for s in range(seeds)
        ]
        print(f"   mean correlations over {seeds} seeds: {fmt(np.mean(corrs, axis=0))}"
              f"   (reference 0.990 0.940 0.920, tolerance 0.03)")


def run_significance(seeds: int) -> None:
    with Section("sequential significance testing"):
        print(f"   chi-squared 0.99 quantiles at df 12/6/2: "
              f"{fmt([chi2_quantile(0.99, d) for d in (12, 6, 2)])}"
              f"   (reference 26.22 16.81 9.21)")
        detected = 0
        for s in range(seeds):
            data = standardize(generate_synthetic(get_recipe("example1", seed=s)))
            model = fit_svd(data)
            rep = sequential_test(model.correlations, n=data.n, p=4, q=3,
                                  alpha=0.01, clamp_perfect=True)
            detected += rep.n_significant == 3
        print(f"   3 components detected at alpha=0.01: {detected}/{seeds} seeds")


def run_held_out(seeds: int) -> None:
    with Section("held-out generalisation (60 train / 40 test rows)"):
        # population correlations of the planted linear relations, and their
        # 99% Fisher-z lower bounds on 40 test rows
        relations = get_recipe("example1").relations
        rho = np.sort([1.0 / np.hypot(1.0, rel.noise_std) for rel in relations])[::-1]
        lower = np.tanh(np.arctanh(rho) - 2.576 / np.sqrt(40 - 3))
        corrs = []
        for s in range(seeds):
            data = generate_synthetic(get_recipe("example1", seed=s, n=100))
            train = standardize(take_rows(data, np.arange(60)))
            test = train.scaler.apply(take_rows(data, np.arange(60, 100)))
            corrs.append(project(fit_svd(train), test).correlations)
        corrs = np.asarray(corrs)
        mins = corrs.min(axis=1)
        bounded = np.all(corrs >= lower, axis=1).sum()
        print(f"   mean test correlations: {fmt(corrs.mean(axis=0))}"
              f"   (population {fmt(rho)})")
        print(f"   every component >= its bound {fmt(lower)} on {bounded}/{seeds} seeds"
              f"   (reference >= 18/20)")
        print(f"   worst test correlation per seed: mean {mins.mean():.3f}, "
              f"min {mins.min():.3f}; >=0.9 on {(mins >= 0.9).sum()}/{seeds} seeds"
              f"   (reference >= 16/20)")


def run_regularized(seeds: int) -> None:
    with Section("ridge-regularised fit on the wide recipe (example6)"):
        firsts = []
        for s in range(seeds):
            d = standardize(generate_synthetic(get_recipe("example6", seed=s)))
            firsts.append(fit_regularized(d, 0.09, 0.0, r=3).correlations[:3])
        print(f"   mean first three correlations at c1=0.09: {fmt(np.mean(firsts, axis=0))}"
              f"   (reference >= 0.98 each)")
        data = standardize(generate_synthetic(get_recipe("example6", seed=7)))
        grid = tuple(np.logspace(-3.0, 3.0, 15))
        surface = cross_validate(
            data,
            RegularizationConfig(c1_grid=grid, c2_grid=grid, n_folds=5,
                                 repetitions=10, seed=7),
        )
        print(f"   cross-validated selection: c1={surface.selected_c1:.4f} "
              f"c2={surface.selected_c2:.4f}   (reference c1 in [0.01, 0.5])")
        print(f"   grid cells that failed on some fold: "
              f"{int((surface.failed_folds > 0).sum())}/{surface.scores.size}")


def run_kernel(seeds: int) -> None:
    with Section("gaussian kernel fit on the nonlinear recipe (example7)"):
        widths_a, widths_b, corrs, hits = [], [], [], 0
        for s in range(seeds):
            recipe = get_recipe("example7", seed=s)
            data = standardize(generate_synthetic(recipe))
            # no width: each Gram build takes its median-heuristic width
            pair = build_gram_pair(data, KernelSpec("gaussian"), KernelSpec("gaussian"))
            widths_a.append(pair.spec_a.width)
            widths_b.append(pair.spec_b.width)
            model = fit_kernel_cca(pair, 1.5, 0.6, 3)
            corrs.append(model.correlations)
            signals = relation_signals(recipe, data)
            hits += one_dominant(image_relation_table(model.z_a + model.z_b, signals).absolute)
        print(f"   mean median-heuristic widths: {np.mean(widths_a):.3f} {np.mean(widths_b):.3f}"
              f"   (reference 3.53 3.62)")
        print(f"   mean correlations: {fmt(np.mean(corrs, axis=0))}"
              f"   (reference 0.950 0.890 0.870)")
        print(f"   planted signal <-> image pair alignment: {hits}/{seeds} seeds")


def run_reduced_kernel(seeds: int) -> None:
    with Section("reduced kernel route on the large-sample recipe (example8, n=2000)"):
        for s in range(seeds):
            recipe = get_recipe("example8", seed=s, n=2000)
            data = standardize(generate_synthetic(recipe))
            pair = build_gram_pair(data, KernelSpec("gaussian"), KernelSpec("gaussian"))
            model = fit_kernel_cca_pgso(pair, kappa=0.5, r=3)
            signals = relation_signals(recipe, data)
            aligned = one_dominant(image_relation_table(model.z_a + model.z_b, signals).absolute)
            # the fit's factors (default eta = 1e-6 trace): accuracy against rank
            ranks = [
                f"{columns} (residual {residual / np.trace(k):.1e} of the trace)"
                for k, columns, residual in zip(
                    (pair.k_a, pair.k_b), model.factor_columns, model.residual_traces
                )
            ]
            print(f"   seed {s}: correlations {fmt(model.correlations)}, "
                  f"signals aligned: {aligned}, m_a {ranks[0]}, m_b {ranks[1]}")


def run_sparse(seeds: int) -> None:
    with Section("sparse rank-1 decomposition on the wide sparse recipe (example9)"):
        hits, budget_gap = 0, 0.0
        for s in range(seeds):
            data = standardize(generate_synthetic(get_recipe("example9", seed=s)))
            result = fit_pmd(covariance_blocks(data).c_ab, 1.2, 1.2, 3)
            for w in (result.w_a, result.w_b):
                budget_gap = max(budget_gap, float(np.abs(np.abs(w).sum(axis=0) - 1.2).max()))
            pairs = {
                (int(np.abs(result.w_a[:, j]).argmax()),
                 int(np.abs(result.w_b[:, j]).argmax()))
                for j in range(3)
            }
            corrs = np.abs(unit_images(data.view_a @ result.w_a, data.view_b @ result.w_b)[2])
            hits += pairs == {(2, 0), (0, 1), (3, 2)} and corrs.min() >= 0.85
        print(f"   planted variable pairs recovered with correlations >= 0.85: "
              f"{hits}/{seeds} seeds")
        print(f"   worst |1-norm - budget| over the weights: {budget_gap:.1e}")


def run_primal_dual() -> None:
    with Section("primal-dual sparse fit on the unstructured recipe (example10)"):
        data = generate_synthetic(get_recipe("example10", seed=0))
        k_b = center_gram(gram(data.view_b, KernelSpec("gaussian")))
        penalty = 0.45 * float(np.abs(data.view_a.T @ k_b).max())
        best = scan_basis(data.view_a, k_b, penalty, penalty)
        nnz = int(np.count_nonzero(best.w_a))
        print(f"   best basis column {best.basis_index}: objective {best.objective:.4f}, "
              f"correlation {best.correlation:.3f}, {nnz}/{data.p} nonzero weights")
        print(f"   {best.n_iterations} active-set steps, KKT violation "
              f"{best.kkt_violation:.1e} ({'' if best.converged else 'not '}converged)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20,
                        help="seeds per multi-seed summary (default 20)")
    args = parser.parse_args()

    started = time.perf_counter()
    run_linear(args.seeds)
    run_significance(args.seeds)
    run_held_out(args.seeds)
    run_regularized(args.seeds)
    run_kernel(args.seeds)
    # three seeds at most: each fits n = 2000
    run_reduced_kernel(min(args.seeds, 3))
    run_sparse(args.seeds)
    run_primal_dual()
    print(f"\ntotal: {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()
