"""Session-wide test settings: a reproducible hypothesis profile for CI.

``HYPOTHESIS_PROFILE=ci`` derandomizes every property test: each draws the
examples that its own source determines, so two runs of one commit test the
same inputs.  Without the variable, runs draw fresh random examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
