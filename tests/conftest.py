"""Hypothesis profiles: `pytest --hypothesis-profile=ci` runs 2000 examples
per property test; a test with its own @settings keeps them."""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000)
