"""Test-suite wide settings.

Every hypothesis test runs derandomized, with no example database and no
deadline, so a run is reproducible and does not depend on the host's speed.
Tests set only their own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("heleshaw", derandomize=True, deadline=None, database=None)
settings.load_profile("heleshaw")
