"""Shared pytest setup: a deterministic hypothesis profile, a matrix
cache of each test's own, a row counter, a pair counter and a walk
counter.

Property tests draw the same examples on every run (``derandomize``),
so a failure reproduces and tier-1 stays stable on a loaded machine;
``deadline=None`` keeps slow shared CPUs from failing an example on
time alone.
"""

import sys
from collections import Counter, defaultdict

import numpy as np

import pytest
from hypothesis import settings

from rectilib.space import MetricMeasureSpace, _CellTree

settings.register_profile(
    "rectilib", derandomize=True, max_examples=40, deadline=None
)
settings.load_profile("rectilib")


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path_factory, monkeypatch):
    """Points ``XDG_CACHE_HOME`` at a new empty folder, so no test reads
    the user's matrix cache or one another's, and the first load of a
    matrix in a test parses it.  Calling the returned function points it
    at another new folder, so the next load parses again; it returns the
    ``rectilib`` folder the cache will use.
    """

    def fresh():
        home = tmp_path_factory.mktemp("cache-home")
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        return home / "rectilib"

    fresh()
    return fresh


def _caller_key(frame) -> str:
    """The calling function's name, prefixed with its ``self``'s class
    name in a method, such as ``"MetricMeasureSpace.summary"``."""
    key = frame.f_code.co_name
    if "self" in frame.f_locals:
        key = f"{type(frame.f_locals['self']).__name__}.{key}"
    return key


@pytest.fixture
def row_calls(monkeypatch) -> Counter:
    """Full distance rows computed during the test, counted by caller.

    Wraps :meth:`MetricMeasureSpace.dists_from` on the class, so every
    space sees it; keys name the caller as :func:`_caller_key` does.
    """
    calls: Counter = Counter()
    original = MetricMeasureSpace.dists_from

    def counted(self, index):
        calls[_caller_key(sys._getframe(1))] += 1
        return original(self, index)

    monkeypatch.setattr(MetricMeasureSpace, "dists_from", counted)
    return calls


@pytest.fixture
def pair_evals(monkeypatch) -> defaultdict:
    """Distance blocks computed by the row formula during the test.

    Wraps :meth:`MetricMeasureSpace._pair_dists` on the class; maps each
    caller, keyed by :func:`_caller_key`, to the list of its calls'
    pair counts, so ``len`` counts the calls and ``sum`` the pairs.
    """
    evals: defaultdict = defaultdict(list)
    original = MetricMeasureSpace._pair_dists

    def counted(self, rows, cols):
        pairs = np.broadcast(rows, cols).size
        evals[_caller_key(sys._getframe(1))].append(pairs)
        return original(self, rows, cols)

    monkeypatch.setattr(MetricMeasureSpace, "_pair_dists", counted)
    return evals


@pytest.fixture
def walks(monkeypatch) -> Counter:
    """Cell-tree descents made during the test, counted by caller.

    Wraps :meth:`rectilib.space._CellTree.walk` on the class, so every
    tree sees it; keys name the caller as :func:`_caller_key` does.
    """
    calls: Counter = Counter()
    original = _CellTree.walk

    def counted(self, *args, **kwargs):
        calls[_caller_key(sys._getframe(1))] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(_CellTree, "walk", counted)
    return calls
