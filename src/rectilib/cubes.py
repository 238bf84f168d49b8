"""Metric dyadic cubes over a net hierarchy.

Cubes at level ``n`` are indexed by the level-``n`` net points.  Every
point is assigned to its nearest finest-level net point (ties to the
smaller id) and each net point to its nearest parent one level up, so
the cubes at each level partition the space exactly and children nest
inside parents by construction.

The tree is read-only arrays.  Cube ids run level by level, coarsest
first, each level in the order of its net.  ``level``, ``center`` (the
point index of the net point), ``parent`` (-1 on the top level),
``sidelength`` and ``mass`` are indexed by cube id; ``start`` holds
each level's first cube id; row ``k`` of ``cube_of`` gives, at the
``k``-th level from the top, the cube id of every point by index.  A
cube's members are the points whose ``cube_of`` entry is its id, and
its children are the cubes whose ``parent`` it is.

The sidelength convention is ``l(cube) = 5 * rho^n``.  Members always
sit inside the open outer ball ``B(center, l)`` once ``rho <= 1/4``
(the chain of nearest-parent hops has total length below ``2.4 *
rho^(n+1)``), and the achieved inner-ball constant -- the largest ``c``
with ``B(center, c*l)`` containing only members, over all cubes -- is
reported rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .nets import NetHierarchy
from .space import MetricMeasureSpace

SIDELENGTH_FACTOR = 5.0


@dataclass(frozen=True, eq=False)
class CubeTree:
    level: np.ndarray  # (C,) int64
    center: np.ndarray  # (C,) point index of the net point indexing the cube
    parent: np.ndarray  # (C,) int64 cube id, -1 on the top level
    sidelength: np.ndarray  # (C,) float64
    mass: np.ndarray  # (C,) float64
    start: np.ndarray  # (L,) each level's first cube id, coarsest first
    cube_of: np.ndarray  # (L, n) each point's cube id at each level
    c0_target: float
    c0_achieved: float  # +inf when no cube has a non-member

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def build_cubes(
    space: MetricMeasureSpace,
    hierarchy: NetHierarchy,
    c0_target: float = 1.0 / 500.0,
) -> CubeTree:
    """Partition tree over the hierarchy's levels."""
    if not (0 < c0_target < 1):
        raise ParameterError("c0_target must be in (0, 1)")
    levels = sorted(hierarchy.levels)
    if not levels:
        raise ParameterError("hierarchy has no levels")

    level_idx = [hierarchy.levels[n] for n in levels]
    sizes = [len(idx) for idx in level_idx]
    # point -> position of its cube center within each level's net
    cube_of = np.empty((len(levels), len(space)), dtype=np.int64)
    cube_of[-1] = space.nearest(
        np.arange(len(space)), level_idx[-1], hierarchy.scale(levels[-1])
    )[0]
    for k in range(len(levels) - 2, -1, -1):
        # map each net point one level down to its nearest net point
        # here, then compose with the existing point assignment
        up = space.nearest(
            level_idx[k + 1], level_idx[k], hierarchy.scale(levels[k])
        )[0]
        cube_of[k] = up[cube_of[k + 1]]

    # a cube's id is its level's first id plus its net point's position;
    # a cube's parent holds its centre
    start = np.cumsum([0] + sizes[:-1])
    cube_of += start[:, None]
    center = np.concatenate(level_idx)
    parent = np.concatenate(
        [np.full(sizes[0], -1)]
        + [cube_of[k - 1, level_idx[k]] for k in range(1, len(levels))]
    )
    # Python's ** per level: numpy's power need not round the same way
    sides = [SIDELENGTH_FACTOR * hierarchy.rho**n for n in levels]

    # c0: the nearest non-member of each cube, relative to its sidelength;
    # one within a sidelength comes from a neighbour query per level
    c0 = math.inf
    far_cubes: list[tuple[int, int]] = []  # (level row, cube id) of the rest
    for k, size in enumerate(sizes):
        q, j, d = space.neighbors(level_idx[k], sides[k])
        outside = cube_of[k, j] != start[k] + q
        nearest_out = np.full(size, math.inf)
        np.minimum.at(nearest_out, q[outside], d[outside])
        found = np.isfinite(nearest_out)
        if found.any():
            c0 = min(c0, float((nearest_out[found] / sides[k]).min()))
        far = start[k] + np.flatnonzero(~found)
        far_cubes.extend((k, c) for c in far.tolist())
    if not c0 < 1.0:
        # every ratio found is below 1 and a far cube's is at least 1, so
        # far cubes need their rows only when nothing was found
        for k, c in far_cubes:
            outside = np.flatnonzero(cube_of[k] != c)
            if len(outside):
                row = space.dists_between(int(center[c]), outside)
                c0 = min(c0, float(row.min()) / sides[k])

    return CubeTree(
        level=np.repeat(levels, sizes),
        center=center,
        parent=parent,
        sidelength=np.repeat(sides, sizes),
        mass=space.group_masses(cube_of, len(center)),
        start=start,
        cube_of=cube_of,
        c0_target=c0_target,
        c0_achieved=c0,
    )


@dataclass(frozen=True)
class CubeCheck:
    ok: bool
    partition_ok: bool
    nesting_ok: bool
    outer_ok: bool
    inner_ok: bool
    centers_ok: bool
    witness: tuple | None


def verify_cube_axioms(
    space: MetricMeasureSpace,
    hierarchy: NetHierarchy,
    tree: CubeTree,
) -> CubeCheck:
    """Re-verify the cube axioms from scratch.

    Checks, per level: the cubes partition the point set, that is every
    point's ``cube_of`` entry is a cube of that level; every member
    sits inside the open outer ball of radius one sidelength; centers
    are exactly the net points.  Across levels: every member of a cube
    is a member of its parent.  The inner-ball axiom is the reported
    ``c0_achieved`` being at least ``c0_target``.  The witness is the
    first failure scanning levels from the top, within a level the
    cubes by id (outer ball before nesting), then the partition, then
    the centers.
    """
    ok = {"partition": True, "nesting": True, "outer": True, "centers": True}
    witness = None
    ids = np.asarray(space.ids)
    by_level = np.split(np.arange(len(tree.level)), tree.start[1:])
    for row, cids in zip(tree.cube_of, by_level):
        n = int(tree.level[cids[0]])
        held = (cids[0] <= row) & (row <= cids[-1])
        pts = np.flatnonzero(held)
        cube = row[pts]
        parent = tree.parent[cube]
        parent_row = np.searchsorted(tree.start, parent, side="right") - 1
        failed = {
            "outer": space.dists_between(tree.center[cube], pts)
            >= tree.sidelength[cube],
            "nesting": (parent >= 0) & (tree.cube_of[parent_row, pts] != parent),
        }
        # each failed check's first cube, its rank, and that cube's first id
        firsts = []
        for rank, (name, bad) in enumerate(failed.items()):
            if bad.any():
                ok[name] = False
                c, p = cube[bad], ids[pts[bad]]
                first = np.lexsort((p, c))[0]
                firsts.append((int(c[first]), rank, name, int(p[first])))
        if firsts:
            c, _, name, p = min(firsts)
            witness = witness or (name, c, p)
        if not held.all():
            ok["partition"] = False
            witness = witness or ("partition", n, int(ids[~held].min()))
        centers = set(tree.center[cids].tolist())
        if centers != set(hierarchy.levels[n].tolist()):
            ok["centers"] = False
            witness = witness or ("centers", n)
    inner_ok = tree.c0_achieved >= tree.c0_target
    if not inner_ok:
        witness = witness or ("inner", tree.c0_achieved)
    return CubeCheck(
        ok=all(ok.values()) and inner_ok,
        partition_ok=ok["partition"],
        nesting_ok=ok["nesting"],
        outer_ok=ok["outer"],
        inner_ok=inner_ok,
        centers_ok=ok["centers"],
        witness=witness,
    )
