"""Hypothesis budgets for the stateful model checkers.

``stateful`` is the tier-1 budget.  ``stateful-nightly`` is the larger
budget of the scheduled CI job; a checker runs under the profile that
``REPRO_STATEFUL_PROFILE`` names (default ``stateful``).  Every other
property test keeps its own settings.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "stateful", max_examples=25, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "stateful-nightly", parent=settings.get_profile("stateful"),
    max_examples=400)
