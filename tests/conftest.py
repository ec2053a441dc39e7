import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import HealthCheck, settings

from cancorr import generate_synthetic, get_recipe

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def example1_data():
    return generate_synthetic(get_recipe("example1", seed=0))


@pytest.fixture(scope="session")
def example7_data():
    return generate_synthetic(get_recipe("example7", seed=0))


@pytest.fixture
def eigen_calls(monkeypatch):
    """Records each ``scipy.linalg.eigh``/``eigvalsh``, ``scipy.sparse.linalg.eigsh``
    and ``numpy.linalg.eigh``/``eigvalsh`` call as (name, full), where ``full``
    is False for a subset or Lanczos solve; numpy's are named ``np.eigh`` and
    ``np.eigvalsh``."""
    calls = []
    for module, name, label in ((scipy.linalg, "eigh", "eigh"),
                                (scipy.linalg, "eigvalsh", "eigvalsh"),
                                (scipy.sparse.linalg, "eigsh", "eigsh"),
                                (np.linalg, "eigh", "np.eigh"),
                                (np.linalg, "eigvalsh", "np.eigvalsh")):
        def spy(*args, _original=getattr(module, name), _label=label, **kwargs):
            calls.append((_label, _label != "eigsh" and "subset_by_index" not in kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


def random_standardized(seed: int, n: int, p: int, q: int):
    """Independent-views dataset, standardized, for null checks."""
    from cancorr import PairedDataset, standardize

    rng = np.random.default_rng(seed)
    return standardize(
        PairedDataset(rng.standard_normal((n, p)), rng.standard_normal((n, q)))
    )


def weak_second_relation(eps: float, seed: int, n: int = 40):
    """Standardized two-column views whose second canonical correlation is about ``eps``.

    View a is two standard-normal columns; ``b1 = a1 + 0.3 noise`` carries the
    first relation, and ``b2 = e + eps a2``, with ``e`` noise projected off
    ``[1, a1, a2, b1]`` and scaled to norm ``sqrt(n)``, carries the second.  At
    ``eps = 0`` the second correlation is zero up to roundoff.
    """
    from cancorr import PairedDataset, standardize

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 2))
    b1 = a[:, 0] + 0.3 * rng.standard_normal(n)
    e = rng.standard_normal(n)
    basis, _ = np.linalg.qr(np.column_stack([np.ones(n), a, b1]))
    e -= basis @ (basis.T @ e)
    e *= np.sqrt(n) / np.linalg.norm(e)
    return standardize(PairedDataset(a, np.column_stack([b1, e + eps * a[:, 1]])))


def one_dominant(table: np.ndarray, thresh: float = 0.7) -> bool:
    """Every row has exactly one |entry| >= thresh and the hit columns are distinct."""
    table = np.abs(np.asarray(table, dtype=float))
    hits = table >= thresh
    if not np.all(hits.sum(axis=1) == 1):
        return False
    cols = hits.argmax(axis=1)
    return len(set(cols.tolist())) == table.shape[0]


def traced_peak(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` under tracemalloc, which also traces numpy's
    array buffers.  Returns the result and the peak of the memory allocated
    during the call, in doubles; the arguments, allocated before, do not count."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, (peak - before) / 8


def conjugate_pair_eig(imag_fraction: float):
    """A stand-in for ``numpy.linalg.eig`` that turns the two smallest eigenvalues
    into the conjugate pair ``m ± i imag_fraction (1 + max|value|)``, where ``m``
    is their mean, and returns the eigenvectors unchanged."""
    original = np.linalg.eig

    def eig(matrix):
        values, vectors = original(matrix)
        low = np.argsort(values.real, kind="stable")[:2]
        imag = imag_fraction * (1.0 + float(np.abs(values).max()))
        values = values.astype(complex)
        values[low] = values.real[low].mean() + 1j * imag * np.array([1.0, -1.0])
        return values, vectors.astype(complex)

    return eig
