"""Test-suite settings.

Hypothesis runs derandomized (examples follow from each test's source, so a
run is repeatable) with no per-example deadline (the timing of a shared
machine varies, and a slow example is not a failure) and no example
database (nothing is written next to the tests).
"""

from hypothesis import settings

settings.register_profile("mfhxa", derandomize=True, deadline=None, database=None)
settings.load_profile("mfhxa")
