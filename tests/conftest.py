"""Hypothesis profiles.  ``--hypothesis-profile eo-long`` runs each
property at 2,000 examples, as the CI's long exact-oracle job does:

    python -m pytest tests/test_eo.py -k exact -q --hypothesis-profile eo-long
    python -m pytest tests/test_metrics.py::TestGroupedCounts -q --hypothesis-profile eo-long
"""

from hypothesis import settings

settings.register_profile("eo-long", max_examples=2000, derandomize=True, deadline=None)
