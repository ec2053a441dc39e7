import tracemalloc

import numpy as np
import pytest
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


def random_standardized(seed: int, n: int, p: int, q: int):
    """Independent-views dataset, standardized, for null checks."""
    from cancorr import PairedDataset, standardize

    rng = np.random.default_rng(seed)
    return standardize(
        PairedDataset(rng.standard_normal((n, p)), rng.standard_normal((n, q)))
    )


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
