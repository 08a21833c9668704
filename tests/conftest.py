"""Hypothesis settings profiles for the test suite.

``ci`` prints the reproduction blob of a failing property, so that a
failure seen only on a CI runner can be replayed locally with
``@reproduce_failure``.  It changes no example generation.  Select it with
``pytest --hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
