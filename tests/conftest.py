"""Shared test settings.

Hypothesis draws the same examples on every run (``derandomize``), so a
tier-1 run is reproducible; ``deadline=None`` keeps slow first calls (cached
term tables, matching tables) from failing a property test on timing.
"""

from hypothesis import settings

settings.register_profile("qma", derandomize=True, deadline=None)
settings.load_profile("qma")
