"""Run every hypothesis property on a fixed example sequence.

derandomize seeds each test's examples from the test itself (and implies no
example database), so every run of the suite draws the same inputs; the
deadline is off because example times vary with the host, not the code.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
