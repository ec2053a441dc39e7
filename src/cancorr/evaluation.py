"""Significance and interpretation tools: sequential dimensionality testing,
structure correlations, biplot tables, and held-out generalisation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PairedDataset, write_csv_rows
from .linear import CcaModel, project
from .numerics import chi2_quantile, pearson_columns

# Correlations this close to 1 make the log-statistic blow up.
PERFECT_TOL = 1e-10


def _validated_correlations(
    correlations, p: int, q: int, clamp_perfect: bool
) -> np.ndarray:
    r = np.asarray(correlations, dtype=float).ravel()
    m = min(p, q)
    if r.size != m:
        raise ValueError(
            f"need all min(p, q) = {m} sample correlations, got {r.size}"
        )
    if np.any(r < 0) or np.any(r > 1):
        raise ValueError("correlations must lie in [0, 1]")
    perfect = r >= 1.0 - PERFECT_TOL
    if np.any(perfect):
        if not clamp_perfect:
            raise ValueError(
                "a correlation is numerically 1, which makes the statistic infinite; "
                "pass clamp_perfect=True to clamp it just below 1"
            )
        r = np.where(perfect, 1.0 - PERFECT_TOL, r)
    return r


def bartlett_lawley(
    correlations, n: int, p: int, q: int, k: int, clamp_perfect: bool = False
) -> float:
    """Lawley-corrected log-likelihood statistic for testing the hypothesis
    that at most ``k`` canonical correlations are nonzero.

    ``L_k = -(n - k - (p + q + 1)/2 + sum_{j<=k} r_j^-2)
    * ln(prod_{j>k} (1 - r_j^2))`` with the product over the remaining
    ``min(p, q) - k`` sample correlations; under the null it is
    asymptotically chi-squared with ``(p - k)(q - k)`` degrees of freedom.
    """
    m = min(p, q)
    if not 0 <= k < m:
        raise ValueError(f"k must satisfy 0 <= k < min(p, q) = {m}, got {k}")
    if n < 2:
        raise ValueError(f"need at least two observations, got n={n}")
    r = _validated_correlations(correlations, p, q, clamp_perfect)
    lead = r[:k]
    rest = r[k:]
    if np.any(lead <= 0):
        raise ValueError(
            "the leading k correlations enter the statistic as r^-2 and must be positive"
        )
    factor = n - k - (p + q + 1) / 2.0 + float(np.sum(lead**-2.0))
    log_prod = float(np.sum(np.log1p(-(rest**2))))
    return float(-factor * log_prod)


@dataclass(frozen=True)
class SignificanceRecord:
    """One step of the sequential test."""

    k: int
    statistic: float
    df: int
    critical: float
    reject: bool


@dataclass(frozen=True)
class SignificanceReport:
    """Sequential-test outcome with the exact inputs used, for auditability."""

    records: tuple[SignificanceRecord, ...]
    n_significant: int
    alpha: float
    n: int
    p: int
    q: int
    correlations: tuple[float, ...]

    def write_csv(self, path) -> None:
        write_csv_rows(
            path,
            ["k", "statistic", "df", "critical", "reject"],
            ([rec.k, rec.statistic, rec.df, rec.critical, int(rec.reject)] for rec in self.records),
        )


def sequential_test(
    correlations,
    n: int,
    p: int,
    q: int,
    alpha: float = 0.01,
    clamp_perfect: bool = False,
) -> SignificanceReport:
    """Count significant canonical correlations by stepwise elimination.

    Starting at ``k = 0``, the hypothesis "at most k correlations are
    nonzero" is rejected while the statistic exceeds the upper
    ``chi2(1 - alpha, (p - k)(q - k))`` quantile; testing stops at the first
    acceptance and the number of rejections is the estimated dimensionality.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    m = min(p, q)
    r = _validated_correlations(correlations, p, q, clamp_perfect)
    records = []
    n_significant = m
    for k in range(m):
        stat = bartlett_lawley(r, n, p, q, k, clamp_perfect=clamp_perfect)
        df = (p - k) * (q - k)
        critical = chi2_quantile(1.0 - alpha, df)
        reject = stat > critical
        records.append(
            SignificanceRecord(k=k, statistic=stat, df=df, critical=critical, reject=reject)
        )
        if not reject:
            n_significant = k
            break
    return SignificanceReport(
        records=tuple(records),
        n_significant=n_significant,
        alpha=alpha,
        n=n,
        p=p,
        q=q,
        correlations=tuple(float(x) for x in r),
    )


@dataclass(frozen=True)
class StructureCorrelations:
    """Pearson correlation of every variable in both views with one image."""

    names_a: tuple[str, ...]
    corr_a: np.ndarray
    names_b: tuple[str, ...]
    corr_b: np.ndarray


def structure_correlations(data: PairedDataset, image) -> StructureCorrelations:
    """Correlate all variables of both views with one image vector."""
    image = np.asarray(image, dtype=float).ravel()
    if image.size != data.n:
        raise ValueError(f"image length {image.size} does not match n = {data.n}")
    return StructureCorrelations(
        names_a=data.names_a,
        corr_a=pearson_columns(data.view_a, image, "a variable column", "image"),
        names_b=data.names_b,
        corr_b=pearson_columns(data.view_b, image, "a variable column", "image"),
    )


@dataclass(frozen=True)
class BiplotTable:
    """Structure correlations of all variables against a chosen image pair."""

    view: str
    component_i: int
    component_j: int
    rows: tuple[tuple[str, str, float, float], ...]

    def write_csv(self, path) -> None:
        write_csv_rows(
            path,
            ["view", "variable", f"corr_z{self.component_i + 1}", f"corr_z{self.component_j + 1}"],
            self.rows,
        )


def biplot_export(
    data: PairedDataset,
    model: CcaModel,
    pair: tuple[int, int] = (0, 1),
    view: str = "a",
) -> BiplotTable:
    """Tabulate structure correlations against two images of one view.

    ``pair`` selects two distinct component indices (0-based); ``view``
    chooses whose images (a or b) span the plane.
    """
    i, j = pair
    if i == j:
        raise ValueError("the two biplot components must be distinct")
    if not (0 <= i < model.r and 0 <= j < model.r):
        raise ValueError(f"component indices must lie in [0, {model.r}), got {pair}")
    if view not in ("a", "b"):
        raise ValueError(f"view must be 'a' or 'b', got {view!r}")
    images = model.z_a if view == "a" else model.z_b
    first = structure_correlations(data, images[:, i])
    second = structure_correlations(data, images[:, j])
    rows = [
        ("a", name, float(ci), float(cj))
        for name, ci, cj in zip(data.names_a, first.corr_a, second.corr_a)
    ] + [
        ("b", name, float(ci), float(cj))
        for name, ci, cj in zip(data.names_b, first.corr_b, second.corr_b)
    ]
    return BiplotTable(view=view, component_i=i, component_j=j, rows=tuple(rows))


def generalization_test(model: CcaModel, test: PairedDataset) -> np.ndarray:
    """Per-component cosines of the model's images on held-out data."""
    return project(model, test).correlations
