"""Hypothesis profiles.

Tier-1 runs every property test at hypothesis' default budget.  The
``rk4-deep`` profile, selected with ``--hypothesis-profile rk4-deep``, gives
each test 3,000 examples; CI runs the two RK4 property tests under it.
"""
from hypothesis import settings

settings.register_profile("rk4-deep", max_examples=3000)
