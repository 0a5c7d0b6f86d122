"""Hypothesis settings for the property tests: the examples are derived from
each test's source, not drawn at random, and no example database is kept, so
a Tier-1 run is the same on every machine and every repetition."""

from hypothesis import settings

settings.register_profile("hypercalc", derandomize=True, deadline=None,
                          max_examples=200, database=None)
settings.load_profile("hypercalc")
