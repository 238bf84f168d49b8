"""Metric dyadic cubes over a net hierarchy.

Cubes at level ``n`` are indexed by the level-``n`` net points.  Every
point is assigned to its nearest finest-level net point (ties to the
smaller id) and each net point to its nearest parent one level up, so
the cubes at each level partition the space exactly and children nest
inside parents by construction.

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


@dataclass(frozen=True)
class Cube:
    level: int
    center: int  # point id of the net point indexing this cube
    sidelength: float
    parent: int | None  # cube id
    children: tuple[int, ...]
    members: tuple[int, ...]  # point ids, ascending
    mass: float


@dataclass(frozen=True)
class CubeTree:
    c0_target: float
    n_min: int
    cubes: tuple[Cube, ...]  # a cube's id is its position here
    by_level: dict[int, tuple[int, ...]]  # level -> cube ids
    c0_achieved: float  # +inf when no cube has a non-member

    def roots(self) -> tuple[int, ...]:
        return self.by_level[self.n_min]

    def descendants(self, cube_id: int) -> list[int]:
        """Cube ids of the full subtree, root first (preorder)."""
        out: list[int] = []
        stack = [cube_id]
        while stack:
            cid = stack.pop()
            out.append(cid)
            stack.extend(reversed(self.cubes[cid].children))
        return out


def _nearest(
    space: MetricMeasureSpace,
    candidate_idx: np.ndarray,
    radius: float,
    points: np.ndarray,
) -> np.ndarray:
    """Index (into candidate_idx) of the nearest candidate to each point.

    Equal distances resolve to the smaller candidate id (then the
    earlier position).  Candidates closer than ``radius``, the level's
    covering scale, come from one neighbour query; a point with none
    there is compared with every candidate.
    """
    cand_ids = np.array([space.ids[k] for k in candidate_idx], dtype=np.int64)
    q, j, d = space.neighbors(candidate_idx, radius)
    # per point: the first pair by (distance, candidate id, position)
    order = np.lexsort((cand_ids[q], d, j))
    j, q = j[order], q[order]
    first = np.ones(len(j), dtype=bool)
    first[1:] = j[1:] != j[:-1]
    best = np.full(len(space), -1, dtype=np.intp)
    best[j[first]] = q[first]
    out = best[points]
    for m in np.flatnonzero(out < 0):
        row = space.dists_between(int(points[m]), candidate_idx)
        out[m] = np.lexsort((cand_ids, row))[0]
    return out


def _groups(labels: np.ndarray, size: int) -> list[np.ndarray]:
    """Per label ``0 .. size-1``, the positions holding it, ascending."""
    order = np.argsort(labels, kind="stable")
    ends = np.searchsorted(labels[order], np.arange(size + 1)).tolist()
    return [order[a:b] for a, b in zip(ends[:-1], ends[1:])]


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

    level_idx = {
        n: space.indices_of(hierarchy.levels[n]) for n in levels
    }
    # point -> position of its cube center within each level's net
    assign: dict[int, np.ndarray] = {}
    finest = levels[-1]
    assign[finest] = _nearest(
        space, level_idx[finest], hierarchy.scale(finest), np.arange(len(space))
    )
    for n_above, n in zip(levels[-2::-1], levels[:0:-1]):
        # map each level-n net point to its nearest level-n_above net
        # point, then compose with the existing point assignment
        up = _nearest(
            space, level_idx[n_above], hierarchy.scale(n_above), level_idx[n]
        )
        assign[n_above] = up[assign[n]]

    # a cube's id is its level's first id plus its net point's position;
    # a cube's parent holds its centre
    sizes = [len(level_idx[n]) for n in levels]
    first = dict(zip(levels, np.cumsum([0] + sizes).tolist()))
    parent = {levels[0]: [None] * sizes[0]}
    children = {levels[-1]: [()] * sizes[-1]}
    for n_above, n in zip(levels, levels[1:]):
        up = assign[n_above][level_idx[n]]
        parent[n] = (first[n_above] + up).tolist()
        children[n_above] = [
            tuple((first[n] + g).tolist())
            for g in _groups(up, len(level_idx[n_above]))
        ]

    cubes: list[Cube] = []
    by_level: dict[int, tuple[int, ...]] = {}
    # c0: the nearest non-member of each cube, relative to its sidelength;
    # one within a sidelength comes from a neighbour query per level
    c0 = math.inf
    far_cubes: list[tuple[int, int]] = []  # (level, position) of the rest
    for n, size in zip(levels, sizes):
        side = SIDELENGTH_FACTOR * hierarchy.rho**n
        by_level[n] = tuple(range(first[n], first[n] + size))
        for k, pos in enumerate(_groups(assign[n], size)):
            cubes.append(
                Cube(
                    level=n,
                    center=space.ids[int(level_idx[n][k])],
                    sidelength=side,
                    parent=parent[n][k],
                    children=children[n][k],
                    members=tuple(sorted(space.ids[p] for p in pos.tolist())),
                    mass=space.mass(pos),
                )
            )
        q, j, d = space.neighbors(level_idx[n], side)
        outside = assign[n][j] != q
        nearest_out = np.full(size, math.inf)
        np.minimum.at(nearest_out, q[outside], d[outside])
        found = np.isfinite(nearest_out)
        if found.any():
            c0 = min(c0, float((nearest_out[found] / side).min()))
        far_cubes.extend((n, k) for k in np.flatnonzero(~found).tolist())
    if not c0 < 1.0:
        # every ratio found is below 1 and a far cube's is at least 1, so
        # far cubes need their rows only when nothing was found
        for n, k in far_cubes:
            outside = assign[n] != k
            if outside.any():
                row = space.dists_from(int(level_idx[n][k]))
                side = SIDELENGTH_FACTOR * hierarchy.rho**n
                c0 = min(c0, float(row[outside].min()) / side)

    return CubeTree(
        c0_target=c0_target,
        n_min=levels[0],
        cubes=tuple(cubes),
        by_level=by_level,
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

    Checks, per level: the cubes partition the point set; every member
    sits inside the open outer ball of radius one sidelength; centers
    are exactly the net points.  Across levels: member sets nest into
    the parent.  The inner-ball axiom is the reported ``c0_achieved``
    being at least ``c0_target``.
    """
    partition_ok = nesting_ok = outer_ok = centers_ok = True
    witness = None
    all_ids = set(space.ids)
    for n, cids in sorted(tree.by_level.items()):
        seen: set[int] = set()
        count = 0
        for cid in cids:
            cube = tree.cubes[cid]
            count += len(cube.members)
            seen.update(cube.members)
            if outer_ok and cube.members:
                idx = space.indices_of(cube.members)
                row = space.dists_between(space.index_of(cube.center), idx)
                far = np.flatnonzero(row >= cube.sidelength)
                if far.size:
                    outer_ok = False
                    witness = witness or (
                        "outer",
                        cid,
                        cube.members[int(far[0])],
                    )
            if nesting_ok and cube.parent is not None:
                parent_members = set(tree.cubes[cube.parent].members)
                stray = set(cube.members) - parent_members
                if stray:
                    nesting_ok = False
                    witness = witness or ("nesting", cid, sorted(stray)[0])
        if partition_ok and (seen != all_ids or count != len(all_ids)):
            partition_ok = False
            missing = sorted(all_ids - seen)
            witness = witness or (
                "partition",
                n,
                missing[0] if missing else "overlap",
            )
        if centers_ok:
            centers = {tree.cubes[cid].center for cid in cids}
            if centers != set(hierarchy.levels[n]):
                centers_ok = False
                witness = witness or ("centers", n)
    inner_ok = tree.c0_achieved >= tree.c0_target
    if not inner_ok:
        witness = witness or ("inner", tree.c0_achieved)
    return CubeCheck(
        ok=partition_ok and nesting_ok and outer_ok and inner_ok and centers_ok,
        partition_ok=partition_ok,
        nesting_ok=nesting_ok,
        outer_ok=outer_ok,
        inner_ok=inner_ok,
        centers_ok=centers_ok,
        witness=witness,
    )
