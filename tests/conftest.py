"""Shared pytest setup: a deterministic hypothesis profile.

Property tests draw the same examples on every run (``derandomize``),
so a failure reproduces and tier-1 stays stable on a loaded machine;
``deadline=None`` keeps slow shared CPUs from failing an example on
time alone.
"""

from hypothesis import settings

settings.register_profile(
    "rectilib", derandomize=True, max_examples=40, deadline=None
)
settings.load_profile("rectilib")
