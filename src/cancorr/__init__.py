"""Canonical correlation toolkit.

Linear fits via three equivalent decompositions, ridge-regularised fits with
cross-validated ridge selection, kernel fits (direct pencil and reduced-rank
incomplete-Cholesky route), sparse fits (penalised rank-1 decomposition and a
primal-dual basis scan), plus significance and generalisation testing and a
set of deterministic synthetic benchmark recipes.

The public names below are imported from their layer module on first use
(PEP 562), so ``import cancorr`` loads neither scipy nor any layer, and a
command line run pays only for the layers its command uses.
"""

import importlib

__version__ = "0.1.0"

# The layer module that defines each public name.
_EXPORTS = {
    "dataset": (
        "RECIPES",
        "CovarianceBlocks",
        "FoldAssignment",
        "PairedDataset",
        "Relation",
        "Standardizer",
        "SyntheticRecipe",
        "covariance_blocks",
        "generate_synthetic",
        "get_recipe",
        "read_view_csv",
        "relation_signals",
        "split_folds",
        "standardize",
        "take_rows",
        "write_view_csv",
    ),
    "evaluation": (
        "BiplotTable",
        "SignificanceReport",
        "StructureCorrelations",
        "bartlett_lawley",
        "biplot_export",
        "generalization_test",
        "sequential_test",
        "structure_correlations",
    ),
    "kernel": (
        "GramPair",
        "KernelCcaModel",
        "KernelSpec",
        "RelationTable",
        "build_gram_pair",
        "center_gram",
        "fit_kernel_cca",
        "fit_kernel_cca_pgso",
        "gram",
        "image_relation_table",
        "median_heuristic",
    ),
    "linear": (
        "CcaModel",
        "ProjectionResult",
        "fit_generalized_eig",
        "fit_standard_eig",
        "fit_svd",
        "project",
    ),
    "numerics": (
        "EigenResult",
        "NumericalError",
        "SvdResult",
        "chi2_quantile",
        "gen_eig_sym",
        "inv_sqrt_spd",
        "partial_gram_schmidt",
        "svd",
        "sym_eig",
    ),
    "regularized": (
        "CvSurface",
        "RegularizationConfig",
        "cross_validate",
        "default_grid",
        "fit_regularized",
    ),
    "sparse": (
        "PmdResult",
        "PrimalDualResult",
        "fit_pmd",
        "fit_primal_dual",
        "scan_basis",
        "soft_threshold",
        "sparse_unit_solve",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {"cli", *_EXPORTS}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
