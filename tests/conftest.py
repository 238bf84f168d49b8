"""Shared pytest setup: a deterministic hypothesis profile and a row counter.

Property tests draw the same examples on every run (``derandomize``),
so a failure reproduces and tier-1 stays stable on a loaded machine;
``deadline=None`` keeps slow shared CPUs from failing an example on
time alone.
"""

import sys
from collections import Counter

import pytest
from hypothesis import settings

from rectilib.space import MetricMeasureSpace

settings.register_profile(
    "rectilib", derandomize=True, max_examples=40, deadline=None
)
settings.load_profile("rectilib")


@pytest.fixture
def row_calls(monkeypatch) -> Counter:
    """Full distance rows computed during the test, counted by caller.

    Wraps :meth:`MetricMeasureSpace.dists_from` on the class, so every
    space sees it; keys are the calling function's name, prefixed with
    its ``self``'s class name in a method, such as
    ``"MetricMeasureSpace.summary"``.
    """
    calls: Counter = Counter()
    original = MetricMeasureSpace.dists_from

    def counted(self, index):
        caller = sys._getframe(1)
        key = caller.f_code.co_name
        if "self" in caller.f_locals:
            key = f"{type(caller.f_locals['self']).__name__}.{key}"
        calls[key] += 1
        return original(self, index)

    monkeypatch.setattr(MetricMeasureSpace, "dists_from", counted)
    return calls
