"""Shared test settings.

Property tests run under one registered hypothesis profile: examples are
derived from the test source instead of a random seed, with no example
database and no per-example deadline, so every run draws the same examples
and a slow host cannot fail a test on timing.
"""

from hypothesis import settings

settings.register_profile("capgraph", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("capgraph")
