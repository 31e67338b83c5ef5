import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from loire import linalg

# CI runs the property tests with HYPOTHESIS_PROFILE=ci: the same examples on
# every run and no per-example deadline on a shared runner
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes of the matrices passed to numpy.linalg.eigh."""
    shapes = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda g, *args, **kw: shapes.append(np.shape(g)) or real(g, *args, **kw))
    return shapes


@pytest.fixture
def clean_factorizations(monkeypatch):
    """The shapes of the matrices factored by `linalg.range_factors` as
    linalg itself calls it: the clean rows `clean_solve` factors afresh, and
    the A of `least_squares_solve`.  A solve's own factorization of A, which
    its module imported, is not counted."""
    shapes = []
    real = linalg.range_factors
    monkeypatch.setattr(linalg, "range_factors", lambda a: shapes.append(np.shape(a)) or real(a))
    return shapes


@pytest.fixture
def traced_peak():
    """traced_peak(fn) calls fn() and returns its result and the peak of the
    bytes tracemalloc traced meanwhile (numpy buffers included)."""
    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run
