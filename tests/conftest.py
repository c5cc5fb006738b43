"""Shared test settings.

Hypothesis draws the same examples on every run (``derandomize``), so a
tier-1 run is reproducible; ``deadline=None`` keeps slow first calls (cached
term tables, matching tables) from failing a property test on timing.

Hypothesis also mixes the literals of every loaded local module into its
draws, so a derandomized draw would change whenever any module of the
package gains or loses a number or a string.  The local-constant pool is
pinned to empty, so the draws depend on the tests alone.
"""

from hypothesis import settings
from hypothesis.internal.conjecture import providers

for _name in ("_get_local_constants", "Constants"):
    if not hasattr(providers, _name):
        raise ImportError(f"hypothesis.internal.conjecture.providers.{_name} is gone; "
                          "tests/conftest.py uses it to keep derandomized draws "
                          "independent of the package's literals")
_NO_LOCAL_CONSTANTS = providers.Constants()
providers._get_local_constants = lambda: _NO_LOCAL_CONSTANTS

settings.register_profile("qma", derandomize=True, deadline=None)
settings.load_profile("qma")
