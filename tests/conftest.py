import os
import shutil
import tracemalloc

import pytest

# Keep the on-disk sieve cache inside the test session unless the caller
# already pinned a location; a directory made here is removed at the end.
_CACHE_DIR = None


def pytest_configure(config):
    global _CACHE_DIR
    if "FRACZETA_CACHE_DIR" not in os.environ:
        import tempfile

        _CACHE_DIR = tempfile.mkdtemp(prefix="fraczeta-cache-")
        os.environ["FRACZETA_CACHE_DIR"] = _CACHE_DIR


def pytest_unconfigure(config):
    if _CACHE_DIR is not None:
        shutil.rmtree(_CACHE_DIR, ignore_errors=True)


@pytest.fixture(scope="session")
def table_small():
    from fraczeta.cli import get_table

    return get_table(10**4)


@pytest.fixture(scope="session")
def table_1e6():
    from fraczeta.cli import get_table

    return get_table(10**6)


@pytest.fixture(scope="session")
def table_1e7():
    from fraczeta.cli import get_table

    return get_table(10**7)


@pytest.fixture(scope="session")
def zeros100():
    from fraczeta.cli import get_refined_zeros

    return get_refined_zeros(100)


@pytest.fixture
def traced_peak_bytes():
    """Call fn() and return the peak of memory traced by tracemalloc during it."""

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def theorem1_caches():
    """explicit's three caches of theorem 1's x-independent values, emptied
    before and after the test."""
    from fraczeta import explicit

    caches = (explicit._circle, explicit._zero_values, explicit._trivial_run)
    for c in caches:
        c.cache_clear()
    yield caches
    for c in caches:
        c.cache_clear()


@pytest.fixture
def hk_batch_sizes(monkeypatch, theorem1_caches):
    """Empty theorem 1's caches in explicit and record the size of every
    H_k batch explicit evaluates while the test runs."""
    from fraczeta import explicit

    sizes = []
    closed = explicit.Hk_closed

    def counting(k, s):
        sizes.append(len(s))
        return closed(k, s)

    monkeypatch.setattr(explicit, "Hk_closed", counting)
    return sizes


@pytest.fixture
def weighted_sums_calls(monkeypatch):
    """Record the arguments (points, coef, factor, xs, factor_max) of every
    weighted_sums call the sums in fourier and explicit make during the test."""
    from fraczeta import explicit, fourier

    calls = []
    kernel = explicit.weighted_sums

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    for module in (explicit, fourier):
        monkeypatch.setattr(module, "weighted_sums", recording)
    return calls
