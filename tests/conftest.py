import os

from hypothesis import settings

# CI runs the property tests with HYPOTHESIS_PROFILE=ci: the same examples on
# every run and no per-example deadline on a shared runner
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
