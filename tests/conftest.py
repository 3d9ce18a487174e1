"""Shared test settings: one hypothesis profile for every property.

Examples are derived from each test's source (``derandomize``), so a run is
reproducible, and no deadline applies, because example times on a shared host
vary more than any fixed limit.  Each test sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("ucdis", deadline=None, derandomize=True)
settings.load_profile("ucdis")
