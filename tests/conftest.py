"""Hypothesis profiles, registered before pytest loads one.

Tier-1 runs under `cli-fuzz`: derandomized, so a run is repeatable, and small
enough for the CLI fuzz of `test_cli_fuzz.py` to take a few seconds. The CI
step `python -m pytest tests/test_cli_fuzz.py --hypothesis-profile=ci` runs
the larger `ci` profile, which replaces Hypothesis's own profile of that name
(the one Hypothesis loads by itself under CI), with more examples. A test's
own `@settings` still wins over either profile.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "cli-fuzz", derandomize=True, max_examples=60, deadline=None,
    database=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("ci", settings.get_profile("cli-fuzz"),
                          max_examples=1500)
# the pytest plugin loads a --hypothesis-profile after this file runs
settings.load_profile("cli-fuzz")
