"""Nested maximal separated nets.

Level ``n`` of a hierarchy is a maximal subset of points that is
pairwise ``rho^n``-separated; maximality makes it a ``rho^n``-cover.
Levels are nested: every coarser net is contained in every finer one
(coarser separation implies finer separation, so seeding each level
with the previous one preserves both axioms).

Strictness convention: separation is ``dist >= rho^n``; covering is
``dist < rho^n``.

A level is a read-only array of point indices in the order the scan
admitted them; point ids appear only in the witnesses of
:func:`verify_nets`.

The scan asks the balls of its lookahead chunks through
:meth:`~rectilib.space.MetricMeasureSpace.neighbors`, which walks the
cell tree once per radius and keeps the candidate lists of that walk,
so a level's chunks, :func:`verify_nets` and the cubes at the same
scale share one walk (greedy nets over a tree: Har-Peled & Mendel,
"Fast construction of nets in low-dimensional metrics and their
applications", SIAM J. Comput. 35(5), 2006).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .space import MetricMeasureSpace

_ROUND_PAIRS = 1 << 12  # build_nets asks balls of about this many pairs at once


@dataclass(frozen=True, eq=False)
class NetHierarchy:
    rho: float
    levels: dict[int, np.ndarray]  # level -> member point indices, scan order

    def __post_init__(self):
        levels = {n: np.array(k, dtype=np.intp) for n, k in self.levels.items()}
        for idx in levels.values():
            idx.flags.writeable = False
        object.__setattr__(self, "levels", levels)

    def scale(self, n: int) -> float:
        return self.rho**n


def _check_rho(rho: float) -> None:
    if not (0.0 < rho < 1.0):
        raise ParameterError(f"rho must be in (0, 1), got {rho}")


def build_nets(
    space: MetricMeasureSpace,
    rho: float,
    n_min: int,
    n_max: int,
    *,
    seed_ids: Sequence[int] | None = None,
) -> NetHierarchy:
    """Greedy nested nets for levels ``n_min..n_max``.

    Each level starts from the previous level's members (the coarsest
    from ``seed_ids``, which lets a caller force a particular root
    point), then scans the remaining points in ascending id order,
    admitting any point at distance >= ``rho^n`` from all current
    members.  The scan asks the balls of a chunk of its next candidates
    at once and admits the chunk's points in turn, a point only while
    no member and no point admitted before it in the chunk lies in its
    ball.
    """
    _check_rho(rho)
    if n_max < n_min:
        raise ParameterError(f"n_max must be >= n_min, got {n_min}..{n_max}")
    if rho**n_min < space.diameter():
        import warnings

        warnings.warn(
            "coarsest net scale rho^n_min is below the diameter; "
            "the top level will hold several roots",
            stacklevel=2,
        )

    order_ids = np.argsort(np.array(space.ids, dtype=np.int64), kind="stable")
    # mindist[k]: distance from point k to the current net members, or
    # inf when every member was at least its admission scale away; scales
    # only shrink, so the comparison with the current scale is exact
    mindist = np.full(len(space), math.inf)
    slot = np.full(len(space), -1)  # a chunk point's position in its chunk
    members: list[int] = []
    levels: dict[int, list[int]] = {}
    for n in range(n_min, n_max + 1):
        scale = rho**n
        todo = order_ids
        if n == n_min and seed_ids:
            todo = np.concatenate([space.indices_of(seed_ids), order_ids])
            # each point once, at its first place: a chunk holds no point twice
            todo = todo[np.sort(np.unique(todo, return_index=True)[1])]
        todo = todo[mindist[todo] >= scale]
        size = 1
        while len(todo):
            # ask the balls of the next points apart from every member
            chunk, todo = todo[:size], todo[size:]
            q, j, d = space.neighbors(chunk, scale)
            slot[chunk] = np.arange(len(chunk))
            took = _admit(slot[j], mindist[chunk] >= scale, q)
            slot[chunk] = -1
            members += chunk[took].tolist()
            near = np.zeros(len(chunk), dtype=bool)
            near[took] = True
            near = near[q]  # the pairs of the balls admitted
            np.minimum.at(mindist, j[near], d[near])
            todo = todo[mindist[todo] >= scale]
            # the lookahead grows while the balls are small
            size = max(1, min(4 * size, _ROUND_PAIRS * len(chunk) // max(1, len(j))))
        levels[n] = members.copy()
    return NetHierarchy(rho=rho, levels=levels)


def _admit(pos: np.ndarray, open_: np.ndarray, q: np.ndarray) -> list[int]:
    """The chunk positions the scan admits, in turn: a point still at
    least the scale from every member (``open_``) and from each point
    admitted before it in the chunk.  ``(q, pos)`` are the chunk's balls:
    each query's position, ascending, and the chunk position of a point
    in its ball, or -1 for a point outside the chunk."""
    later = np.flatnonzero(pos > q)
    ends = np.searchsorted(q[later], np.arange(len(open_) + 1)).tolist()
    later = pos[later].tolist()
    open_ = open_.tolist()
    took = []
    for p in range(len(open_)):
        if open_[p]:
            took.append(p)
            for t in later[ends[p] : ends[p + 1]]:
                open_[t] = False
    return took


def auto_levels(space: MetricMeasureSpace, rho: float) -> tuple[int, int]:
    """Default level range: one root above the diameter, floor near the
    sample's smallest gap."""
    _check_rho(rho)
    diam = space.diameter()
    if diam == 0.0:
        return 0, 0
    n_min = math.floor(math.log(diam) / math.log(rho))
    while rho**n_min <= diam:
        n_min -= 1
    gap = space.min_gap()
    n_max = n_min + 1
    while rho ** (n_max + 1) >= gap and n_max - n_min < 64:
        n_max += 1
    return n_min, max(n_max, n_min + 1)


def _position_pairs(
    idx: np.ndarray, q: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each (position q, point index j) pair as (q, b) for every position
    b of the level that holds j; the order of q is kept."""
    order = np.argsort(idx, kind="stable")
    lo = np.searchsorted(idx[order], j, "left")
    counts = np.searchsorted(idx[order], j, "right") - lo
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return np.repeat(q, counts), order[starts + np.arange(counts.sum())]


@dataclass(frozen=True)
class NetCheck:
    ok: bool
    separation_ok: bool
    covering_ok: bool
    nesting_ok: bool
    witness: tuple | None  # (axiom, level, point ids...) for the first failure


def verify_nets(space: MetricMeasureSpace, h: NetHierarchy) -> NetCheck:
    """Exact re-verification of separation, covering, and nesting."""
    sep_ok = cov_ok = nest_ok = True
    witness = None
    ids = np.asarray(space.ids)
    previous = None
    for n in sorted(h.levels):
        idx = h.levels[n]
        scale = h.rho**n
        if previous is not None and nest_ok:
            missing = np.setdiff1d(previous, idx, assume_unique=True)
            if missing.size:
                nest_ok = False
                witness = witness or ("nesting", n, int(ids[missing].min()))
        previous = idx
        if not (sep_ok or cov_ok):
            continue
        # separation and covering from the pairs closer than the scale
        q, j, _ = space.neighbors(idx, scale)
        if sep_ok:
            a, b = _position_pairs(idx, q, j)
            bad = b > a
            if bad.any():
                sep_ok = False
                first = a[bad][0]  # a ascends: the smallest offending position
                other = b[bad & (a == first)].min()
                witness = witness or (
                    "separation", n, int(ids[idx[first]]), int(ids[idx[other]])
                )
        if cov_ok:
            covered = np.zeros(len(space), dtype=bool)
            covered[j] = True
            bad = np.flatnonzero(~covered)
            if bad.size:
                cov_ok = False
                witness = witness or ("covering", n, space.ids[int(bad[0])])
    return NetCheck(
        ok=sep_ok and cov_ok and nest_ok,
        separation_ok=sep_ok,
        covering_ok=cov_ok,
        nesting_ok=nest_ok,
        witness=witness,
    )
