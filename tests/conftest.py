"""Settings shared by the test modules.

The hypothesis profile is derandomized, so every run of the suite draws the
same examples and a pass or a failure repeats; a slow example is no failure.
"""

try:
    from hypothesis import settings
except ImportError:  # the property modules skip themselves
    pass
else:
    settings.register_profile("rvar", derandomize=True, deadline=None)
    settings.load_profile("rvar")
