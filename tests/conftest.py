"""Hypothesis profiles. `HYPOTHESIS_PROFILE=ci` derandomizes the property
tests, so a failure in continuous integration replays the same examples
locally."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
