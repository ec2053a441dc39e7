"""Paired two-view data: standardization, covariance blocks, folds, synthetic recipes, CSV I/O."""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import ndtri

# Columns with sample standard deviation below this cannot be standardized.
STD_FLOOR = 1e-12

# How floats are written to CSV; 17 significant digits round-trip float64 exactly.
CSV_FLOAT_FORMAT = "%.17g"


def _auto_names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


@dataclass(frozen=True)
class Standardizer:
    """Per-column centering and scaling parameters learned from one dataset."""

    mean_a: np.ndarray
    std_a: np.ndarray
    mean_b: np.ndarray
    std_b: np.ndarray

    def apply(self, data: "PairedDataset") -> "PairedDataset":
        """Standardize ``data`` with these (training) parameters."""
        if data.p != self.mean_a.size or data.q != self.mean_b.size:
            raise ValueError(
                f"column counts ({data.p}, {data.q}) do not match the "
                f"standardizer ({self.mean_a.size}, {self.mean_b.size})"
            )
        return PairedDataset(
            view_a=(data.view_a - self.mean_a) / self.std_a,
            view_b=(data.view_b - self.mean_b) / self.std_b,
            names_a=data.names_a,
            names_b=data.names_b,
            standardized=True,
            scaler=self,
        )


@dataclass(frozen=True)
class PairedDataset:
    """Two views of the same observations, one row per observation."""

    view_a: np.ndarray
    view_b: np.ndarray
    names_a: tuple[str, ...] = ()
    names_b: tuple[str, ...] = ()
    standardized: bool = False
    scaler: Standardizer | None = None

    def __post_init__(self):
        a = np.asarray(self.view_a, dtype=float)
        b = np.asarray(self.view_b, dtype=float)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(f"views must be 2-d, got shapes {a.shape} and {b.shape}")
        if a.shape[0] != b.shape[0]:
            raise ValueError(
                f"views must share the observation axis: view a has {a.shape[0]} rows, "
                f"view b has {b.shape[0]} rows"
            )
        if a.shape[0] < 2:
            raise ValueError("need at least two observations")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("views contain non-finite entries")
        object.__setattr__(self, "view_a", a)
        object.__setattr__(self, "view_b", b)
        names_a = tuple(self.names_a) or _auto_names("a", a.shape[1])
        names_b = tuple(self.names_b) or _auto_names("b", b.shape[1])
        if len(names_a) != a.shape[1] or len(names_b) != b.shape[1]:
            raise ValueError("variable name counts do not match column counts")
        object.__setattr__(self, "names_a", names_a)
        object.__setattr__(self, "names_b", names_b)

    @property
    def n(self) -> int:
        return self.view_a.shape[0]

    @property
    def p(self) -> int:
        return self.view_a.shape[1]

    @property
    def q(self) -> int:
        return self.view_b.shape[1]


def _column_stats(x: np.ndarray, names: tuple[str, ...]):
    mean = x.mean(axis=0)
    std = x.std(axis=0, ddof=1)
    bad = np.flatnonzero(std < STD_FLOOR)
    if bad.size:
        raise ValueError(f"column '{names[bad[0]]}' is constant and cannot be standardized")
    return mean, std


def standardize(data: PairedDataset) -> PairedDataset:
    """Center each column to mean zero and scale to unit sample standard deviation.

    The returned dataset keeps the fitted :class:`Standardizer` so the same
    transform can later be applied to held-out data.
    """
    mean_a, std_a = _column_stats(data.view_a, data.names_a)
    mean_b, std_b = _column_stats(data.view_b, data.names_b)
    scaler = Standardizer(mean_a=mean_a, std_a=std_a, mean_b=mean_b, std_b=std_b)
    return scaler.apply(data)


def take_rows(data: PairedDataset, indices) -> PairedDataset:
    """Row subset of both views; the result is treated as unstandardized."""
    idx = np.asarray(indices, dtype=int)
    return PairedDataset(
        view_a=data.view_a[idx],
        view_b=data.view_b[idx],
        names_a=data.names_a,
        names_b=data.names_b,
    )


@dataclass(frozen=True)
class CovarianceBlocks:
    """Sample covariance blocks of a standardized paired dataset (divisor n - 1)."""

    c_aa: np.ndarray
    c_ab: np.ndarray
    c_bb: np.ndarray

    @property
    def p(self) -> int:
        return self.c_aa.shape[0]

    @property
    def q(self) -> int:
        return self.c_bb.shape[0]

    @property
    def c_ba(self) -> np.ndarray:
        return self.c_ab.T


def covariance_blocks(data: PairedDataset) -> CovarianceBlocks:
    """Within- and between-view covariance blocks of standardized data."""
    if not data.standardized:
        raise ValueError("covariance blocks require standardized data; call standardize() first")
    a, b = data.view_a, data.view_b
    denom = data.n - 1
    return CovarianceBlocks(
        c_aa=(a.T @ a) / denom,
        c_ab=(a.T @ b) / denom,
        c_bb=(b.T @ b) / denom,
    )


# ---------------------------------------------------------------------------
# synthetic recipes


TRANSFORMS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda x: x,
    "negate": lambda x: -x,
    "cube": lambda x: x**3,
    "exp": np.exp,
}


@dataclass(frozen=True)
class Relation:
    """One planted dependency: view-b column ``target`` is a transform of view-a column ``source``."""

    source: int
    target: int
    transform: str = "identity"
    noise_std: float = 0.0

    def __post_init__(self):
        if self.transform not in TRANSFORMS:
            raise ValueError(
                f"unknown transform '{self.transform}'; expected one of {sorted(TRANSFORMS)}"
            )
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be nonnegative, got {self.noise_std}")

    def label(self) -> str:
        """Human-readable signal name, e.g. ``exp(a3)`` or ``-a4``."""
        var = f"a{self.source + 1}"
        return {
            "identity": var,
            "negate": f"-{var}",
            "cube": f"{var}^3",
            "exp": f"exp({var})",
        }[self.transform]


@dataclass(frozen=True)
class SyntheticRecipe:
    """Deterministic generator settings for a paired benchmark dataset."""

    recipe_id: str
    n: int
    p: int
    q: int
    relations: tuple[Relation, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(self.relations))
        if self.n < 2 or self.p < 1 or self.q < 1:
            raise ValueError("recipe dimensions must satisfy n >= 2, p >= 1, q >= 1")
        for rel in self.relations:
            if not 0 <= rel.source < self.p:
                raise ValueError(f"relation source {rel.source} out of range for p={self.p}")
            if not 0 <= rel.target < self.q:
                raise ValueError(f"relation target {rel.target} out of range for q={self.q}")


RECIPES: dict[str, SyntheticRecipe] = {
    "example1": SyntheticRecipe(
        "example1", n=60, p=4, q=3,
        relations=(
            Relation(source=2, target=0, transform="identity", noise_std=0.2),
            Relation(source=0, target=1, transform="identity", noise_std=0.4),
            Relation(source=3, target=2, transform="negate", noise_std=0.3),
        ),
    ),
    "example6": SyntheticRecipe(
        "example6", n=60, p=70, q=10,
        relations=(
            Relation(source=2, target=0, transform="identity", noise_std=0.01),
            Relation(source=0, target=1, transform="identity", noise_std=0.03),
            Relation(source=3, target=2, transform="negate", noise_std=0.02),
        ),
    ),
    "example7": SyntheticRecipe(
        "example7", n=150, p=7, q=8,
        relations=(
            Relation(source=2, target=0, transform="exp", noise_std=0.4),
            Relation(source=0, target=1, transform="cube", noise_std=0.2),
            Relation(source=3, target=2, transform="negate", noise_std=0.3),
        ),
    ),
    "example8": SyntheticRecipe(
        "example8", n=10000, p=7, q=8,
        relations=(
            Relation(source=2, target=0, transform="exp", noise_std=0.4),
            Relation(source=0, target=1, transform="cube", noise_std=0.2),
            Relation(source=3, target=2, transform="negate", noise_std=0.3),
        ),
    ),
    "example9": SyntheticRecipe(
        "example9", n=50, p=100, q=150,
        relations=(
            Relation(source=2, target=0, transform="identity", noise_std=0.08),
            Relation(source=0, target=1, transform="identity", noise_std=0.07),
            Relation(source=3, target=2, transform="negate", noise_std=0.05),
        ),
    ),
    "example10": SyntheticRecipe("example10", n=50, p=100, q=150, relations=()),
}


def _standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    # 53-bit uniforms strictly inside (0, 1) pushed through the normal inverse CDF;
    # keeps the variate method independent of generator internals.
    u = rng.integers(1, 1 << 53, size=size) / float(1 << 53)
    return ndtri(u)


def generate_synthetic(recipe: SyntheticRecipe) -> PairedDataset:
    """Draw a paired dataset from a recipe and standardize the result.

    View a is an (n, p) standard normal draw; view b starts as an (n, q)
    standard normal draw and each relation overwrites its target column with
    ``transform(a[:, source]) + noise_std * xi``.  Fully deterministic given
    ``recipe.seed`` (PCG64 stream, inverse-CDF normal variates).
    """
    rng = np.random.default_rng(recipe.seed)
    view_a = _standard_normal(rng, (recipe.n, recipe.p))
    view_b = _standard_normal(rng, (recipe.n, recipe.q))
    for rel in recipe.relations:
        noise = rel.noise_std * _standard_normal(rng, recipe.n)
        view_b[:, rel.target] = TRANSFORMS[rel.transform](view_a[:, rel.source]) + noise
    return standardize(PairedDataset(view_a, view_b))


def relation_signals(recipe: SyntheticRecipe, data: PairedDataset) -> dict[str, np.ndarray]:
    """Named candidate signals (transformed view-a columns) for relation tables."""
    return {
        rel.label(): TRANSFORMS[rel.transform](data.view_a[:, rel.source])
        for rel in recipe.relations
    }


def get_recipe(recipe_id: str, seed: int | None = None, n: int | None = None) -> SyntheticRecipe:
    """Look up a built-in recipe, optionally overriding its seed or sample count."""
    if recipe_id not in RECIPES:
        raise ValueError(f"unknown recipe '{recipe_id}'; available: {', '.join(sorted(RECIPES))}")
    recipe = RECIPES[recipe_id]
    if seed is not None:
        recipe = replace(recipe, seed=seed)
    if n is not None:
        recipe = replace(recipe, n=n)
    return recipe


# ---------------------------------------------------------------------------
# fold splitting


@dataclass(frozen=True)
class FoldAssignment:
    """Deterministic assignment of observation indices to cross-validation folds."""

    fold_of: np.ndarray
    n_folds: int
    seed: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


def split_folds(n: int, n_folds: int, seed: int) -> FoldAssignment:
    """Shuffle indices with a seeded permutation and deal them round-robin into folds.

    Fold sizes differ by at most one.
    """
    if not 2 <= n_folds <= n:
        raise ValueError(f"need 2 <= n_folds <= n, got n_folds={n_folds}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    fold_of = np.empty(n, dtype=int)
    fold_of[perm] = np.arange(n) % n_folds
    return FoldAssignment(fold_of=fold_of, n_folds=n_folds, seed=seed)


# ---------------------------------------------------------------------------
# CSV I/O


def write_csv_rows(path, header, rows) -> None:
    """Write a UTF-8 CSV file: the ``header`` row, then ``rows``, floats as ``CSV_FLOAT_FORMAT``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([CSV_FLOAT_FORMAT % v if isinstance(v, float) else v for v in row])


def write_view_csv(path, matrix, names) -> None:
    """Write one view as UTF-8 CSV: header row of names, one row per observation."""
    matrix = np.asarray(matrix, dtype=float)
    names = list(names)
    if matrix.ndim != 2 or matrix.shape[1] != len(names):
        raise ValueError("matrix shape does not match the variable names")
    write_csv_rows(path, names, matrix)


def read_view_csv(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """Read one view from CSV; every cell must be a finite decimal number."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = tuple(next(reader))
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(names):
                raise ValueError(
                    f"{path}: line {lineno} has {len(row)} cells, expected {len(names)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ValueError(f"{path}: line {lineno} contains a non-numeric cell") from None
    if not rows:
        raise ValueError(f"{path}: no observation rows")
    matrix = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{path}: contains non-finite values")
    return matrix, names
