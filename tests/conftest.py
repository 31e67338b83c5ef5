import os

import numpy as np
import pytest
from hypothesis import settings

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
