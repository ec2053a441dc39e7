"""Paired two-view data: standardization, covariance blocks, folds, synthetic recipes, CSV I/O."""

from __future__ import annotations

import csv
# read_view_csv's codec, loaded with this module so that a CSV-source command
# imports nothing inside its timed region
import encodings.utf_8_sig  # noqa: F401
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
# numpy loads its random module on first use; load it with this module, before
# a command's timed region
import numpy.random

# Columns whose sample standard deviation is at most this fraction of their
# largest magnitude cannot be standardized; the rule does not depend on units.
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
            scaler=self,
        )


@dataclass(frozen=True)
class PairedDataset:
    """Two views of the same observations, one row per observation.

    ``scaler`` holds the :class:`Standardizer` that produced the views, if any.
    """

    view_a: np.ndarray
    view_b: np.ndarray
    names_a: tuple[str, ...] = ()
    names_b: tuple[str, ...] = ()
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
    def standardized(self) -> bool:
        return self.scaler is not None

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
    bad = np.flatnonzero(std <= STD_FLOOR * np.abs(x).max(axis=0))
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


# Each transform's function and the format of its signal's label, ``{}`` standing
# for the source column's name.
TRANSFORMS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], str]] = {
    "identity": (lambda x: x, "{}"),
    "negate": (lambda x: -x, "-{}"),
    "cube": (lambda x: x**3, "{}^3"),
    "exp": (np.exp, "exp({})"),
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
        return TRANSFORMS[self.transform][1].format(f"a{self.source + 1}")


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


def _planted(noise_stds, transforms=("identity", "identity", "negate")) -> tuple[Relation, ...]:
    """The relations that examples 1 and 6-9 plant, b1 from a3, b2 from a1 and b3
    from a4, with one noise level and one transform per relation."""
    pairs = zip(((2, 0), (0, 1), (3, 2)), transforms, noise_stds)
    return tuple(Relation(source, target, transform, noise_std)
                 for (source, target), transform, noise_std in pairs)


_EXAMPLE7 = SyntheticRecipe(
    "example7", n=150, p=7, q=8, relations=_planted((0.4, 0.2, 0.3), ("exp", "cube", "negate")),
)

RECIPES: dict[str, SyntheticRecipe] = {
    "example1": SyntheticRecipe(
        "example1", n=60, p=4, q=3, relations=_planted((0.2, 0.4, 0.3)),
    ),
    "example6": SyntheticRecipe(
        "example6", n=60, p=70, q=10, relations=_planted((0.01, 0.03, 0.02)),
    ),
    "example7": _EXAMPLE7,
    "example8": replace(_EXAMPLE7, recipe_id="example8", n=10000),
    "example9": SyntheticRecipe(
        "example9", n=50, p=100, q=150, relations=_planted((0.08, 0.07, 0.05)),
    ),
    "example10": SyntheticRecipe("example10", n=50, p=100, q=150, relations=()),
}


# Cephes ``ndtri`` (S. L. Moshier, *Methods and Programs for Mathematical
# Functions*, 1989), the code behind scipy's ``ndtri``: rational
# approximations in y - 1/2 on the centre, y in (exp(-2), 1 - exp(-2)), and in
# 1/x with x = sqrt(-2 log y) on the tails, split at x = 8 (y = exp(-32)).
# Leading coefficient first, as ``np.polyval`` takes them; its Horner step
# ``y = y * x + c``, from ``y = 0``, is Cephes' ``polevl`` step for step, and
# the denominators start with the 1 that Cephes' ``p1evl`` implies.
_NDTRI_EXP_M2 = 0.13533528323661269189
_NDTRI_S2PI = 2.50662827463100050242
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _libm_log(v: np.ndarray) -> np.ndarray:
    # the C library's log, which Cephes calls; numpy's vectorised log can
    # differ from it in the last bit
    return np.fromiter(map(math.log, v.tolist()), dtype=float, count=v.size)


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """The bits of scipy's ``ndtri`` for 1-d ``y0`` strictly inside (0, 1):
    Cephes' branches, each evaluated on the entries it owns.  The centre and
    the tails are gathered and scattered by index, which numpy does several
    times faster than by a boolean mask of mixed entries."""
    out = np.empty_like(y0)
    upper = y0 > 1.0 - _NDTRI_EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    centre = y > _NDTRI_EXP_M2
    owned = np.flatnonzero(centre)
    c = y[owned] - 0.5
    c2 = c * c
    out[owned] = (c + c * (c2 * np.polyval(_NDTRI_P0, c2) / np.polyval(_NDTRI_Q0, c2))) \
        * _NDTRI_S2PI
    owned = np.flatnonzero(~centre)
    x = np.sqrt(-2.0 * _libm_log(y[owned]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    near = x < 8.0
    x1 = np.empty_like(x)
    for rows, p, q in ((near, _NDTRI_P1, _NDTRI_Q1), (~near, _NDTRI_P2, _NDTRI_Q2)):
        if rows.any():  # below exp(-32) lie 2.5e-14 of the recipes' draws
            zr = z[rows]
            x1[rows] = zr * np.polyval(p, zr) / np.polyval(q, zr)
    x = x0 - x1
    out[owned] = np.where(upper[owned], x, -x)
    return out


def generate_synthetic(recipe: SyntheticRecipe) -> PairedDataset:
    """Draw a paired dataset from a recipe and standardize the result.

    View a is an (n, p) standard normal draw; view b starts as an (n, q)
    standard normal draw and each relation overwrites its target column with
    ``transform(a[:, source]) + noise_std * xi``.  Fully deterministic given
    ``recipe.seed`` (PCG64 stream, inverse-CDF normal variates).  All variates
    come from one draw, in that order: view a, view b, each relation's noise.
    """
    n, p, q = recipe.n, recipe.p, recipe.q
    rng = np.random.default_rng(recipe.seed)
    # 53-bit uniforms strictly inside (0, 1) pushed through the normal inverse CDF;
    # keeps the variate method independent of generator internals.
    u = rng.integers(1, 1 << 53, size=n * (p + q + len(recipe.relations))) / float(1 << 53)
    z = _ndtri(u)
    view_a = z[: n * p].reshape(n, p)
    view_b = z[n * p: n * (p + q)].reshape(n, q)
    noises = z[n * (p + q):].reshape(-1, n)
    for rel, xi in zip(recipe.relations, noises):
        noise = rel.noise_std * xi
        view_b[:, rel.target] = TRANSFORMS[rel.transform][0](view_a[:, rel.source]) + noise
    return standardize(PairedDataset(view_a, view_b))


def relation_signals(recipe: SyntheticRecipe, data: PairedDataset) -> dict[str, np.ndarray]:
    """Named candidate signals (transformed view-a columns) for relation tables."""
    return {
        rel.label(): TRANSFORMS[rel.transform][0](data.view_a[:, rel.source])
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
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
