"""Porous-cube detection, packing ratios, and the constant machinery.

A cube is porous when it meets the target set yet some sample point
within M sidelengths of its center sits at least delta sidelengths away
from the target set.  The packing (Carleson) check verifies that the
total mass of porous cubes inside any cube stays below C1 times that
cube's mass, with C1 assembled from the doubling estimate.

The porous family is read-only arrays, one entry per porous cube by
ascending cube id: the cube, its witness as a point index and the
witness's gap.  The shadow map reads every witness's cubes at once from
the tree's ``cube_of`` rows and keeps counts, not per-cube records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cubes import CubeTree
from .errors import ContainmentError, ParameterError
from .space import MetricMeasureSpace, TargetSet


@dataclass(frozen=True)
class PorosityConfig:
    M: float
    delta: float
    n0: int
    rho: float
    c0: float = 1.0 / 500.0
    C_mu: float | None = None  # measured doubling estimate


# each entry: (requirement shown to the user, test); the domain comes
# first, since the inequalities after it divide by rho
_DOMAIN = (
    ("0 < rho < 1", lambda c: 0 < c.rho < 1),
    ("delta > 0", lambda c: c.delta > 0),
)
_CHECKS = (
    ("M > 10", lambda c: c.M > 10),
    ("delta < 4*rho", lambda c: c.delta < 4 * c.rho),
    ("rho < 3/(M+1)", lambda c: c.rho < 3 / (c.M + 1)),
    ("1/rho > M", lambda c: 1 / c.rho > c.M),
    ("n0 >= 2", lambda c: c.n0 >= 2),
    ("5*M*rho^n0 < 1", lambda c: 5 * c.M * c.rho**c.n0 < 1),
)
_STRICT_CHECKS = (
    ("rho < 1/1000", lambda c: c.rho < 1 / 1000),
    ("c0 = 1/500", lambda c: c.c0 == 1 / 500),
)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...]


def validate_config(
    cfg: PorosityConfig, strict: bool = False
) -> ValidationResult:
    """Check the parameter inequalities; violations name the failed one.
    Outside the domain of rho and delta only the domain is reported."""
    violations = tuple(name for name, test in _DOMAIN if not test(cfg))
    if not violations:
        checks = _CHECKS + (_STRICT_CHECKS if strict else ())
        violations = tuple(name for name, test in checks if not test(cfg))
    return ValidationResult(ok=not violations, violations=violations)


@dataclass(frozen=True, eq=False)
class PorousFamily:
    cube: np.ndarray  # (F,) int64 cube ids, ascending
    witness: np.ndarray  # (F,) point index of each cube's witness
    gap: np.ndarray  # (F,) float64 distance from the witness to the target

    def __post_init__(self):
        for value in vars(self).values():
            value.flags.writeable = False


def dist_to_set(
    space: MetricMeasureSpace, member_ids: Iterable[int]
) -> np.ndarray:
    """Distance from every point to the nearest of the given points.

    Members are at distance 0; each outsider's distance comes from
    :meth:`~rectilib.space.MetricMeasureSpace.nearest` over the members,
    in blocks of member-to-outsider pairs.  An empty member set raises
    :class:`~rectilib.errors.DegenerateInputError`.
    """
    idx = np.unique(space.indices_of(member_ids))
    outside = np.setdiff1d(np.arange(len(space)), idx)
    best = np.zeros(len(space))
    best[outside] = space.nearest(outside, idx)[1]
    return best


def find_porous(
    space: MetricMeasureSpace,
    tree: CubeTree,
    target: TargetSet,
    gap: np.ndarray,
    cfg: PorosityConfig,
) -> PorousFamily:
    """All cubes under the target's root that are porous for cfg.

    ``gap`` is :func:`dist_to_set` of the target's members.  A witness
    maximizes the gap among sample points strictly within M sidelengths
    of the cube center; ties go to the smaller point id.
    """
    result = validate_config(cfg)
    if not result.ok:
        raise ParameterError("config violates: " + "; ".join(result.violations))
    e_idx = space.indices_of(target.members)
    if len(np.unique(tree.cube_of[0, e_idx])) != 1:
        raise ContainmentError(
            "target set is not contained in any single root cube"
        )
    ids = np.asarray(space.ids)
    # points by ascending gap: the candidates {gap >= delta*l} are a suffix
    by_gap = np.argsort(gap, kind="stable")
    sorted_gap = gap[by_gap]
    found: list[tuple[int, int]] = []  # (cube id, witness index)
    # the cubes meeting the target, all under its root, ascending
    meeting = np.unique(tree.cube_of[:, e_idx])
    for cid, center, side in zip(
        meeting.tolist(),
        tree.center[meeting].tolist(),
        tree.sidelength[meeting].tolist(),
    ):
        # the maximal near gap, if porous, and every point attaining it
        # are candidates, so distances to the others are never needed
        start = np.searchsorted(sorted_gap, cfg.delta * side, "left")
        if start == len(gap):
            continue
        cand = by_gap[start:]
        row = space.dists_between(center, cand)
        near = cand[row < cfg.M * side]
        if not near.size:
            continue
        # first id (ascending) attaining the maximal gap
        tied = near[gap[near] == gap[near].max()]
        found.append((cid, int(tied[np.argmin(ids[tied])])))
    cube, witness = np.array(found, dtype=np.int64).reshape(-1, 2).T
    return PorousFamily(cube=cube, witness=witness, gap=gap[witness])


@dataclass(frozen=True)
class AppendixConstants:
    a: float
    C1: float
    b: float


def appendix_constants(cfg: PorosityConfig, b_observed: int) -> AppendixConstants:
    """Assemble the packing bound C1 from the doubling estimate.

        a  = C_mu^(log2(c0 / (4 M))) * (4 / rho)^(log2 C_mu)
        C1 = a * b * C_mu^(log2(M / c0) + 1)

    The exponents telescope, so C1 also equals
    b * C_mu^(log2(4 / rho) - 1); both forms are evaluated and must
    agree, guarding against transcription slips.  The multiplicity b
    is the observed shadow-map multiplicity, floored at 1 so an empty
    family still yields a usable bound.
    """
    if cfg.C_mu is None or not (cfg.C_mu > 1):
        raise ParameterError("constants need a doubling estimate C_mu > 1")
    b_val = float(max(1, b_observed))
    c = cfg.C_mu
    a = c ** math.log2(cfg.c0 / (4 * cfg.M)) * (4 / cfg.rho) ** math.log2(c)
    c1 = a * b_val * c ** (math.log2(cfg.M / cfg.c0) + 1)
    c1_direct = b_val * c ** (math.log2(4 / cfg.rho) - 1)
    if not math.isclose(c1, c1_direct, rel_tol=1e-9):
        raise ParameterError(
            f"constant assembly disagrees: {c1} vs {c1_direct}"
        )
    return AppendixConstants(a=a, C1=c1, b=b_val)


@dataclass(frozen=True)
class CarlesonReport:
    worst_ratio: float
    worst_cube: int | None
    constants: AppendixConstants
    skipped: tuple[int, ...]  # zero-mass cubes left out, by id
    ok: bool


def carleson_check(
    tree: CubeTree,
    porous: PorousFamily,
    cfg: PorosityConfig,
    b_observed: int,
) -> CarlesonReport:
    """Packed-mass ratio of every cube against the assembled bound.

    The ratio of a cube is the sum of masses of porous cubes inside it
    (itself included) divided by its own mass; nested porous cubes each
    contribute their full mass, matching the packing sum being bounded.
    """
    constants = appendix_constants(cfg, b_observed)
    packed = np.zeros(len(tree.mass))
    packed[porous.cube] = tree.mass[porous.cube]
    # from the bottom level up, each cube's children (ascending id) add
    # their packed mass to its own, in the order a running total would
    by_level = np.split(np.arange(len(tree.mass)), tree.start[1:])[::-1]
    for cids in by_level[:-1]:
        np.add.at(packed, tree.parent[cids], packed[cids])
    order = np.concatenate(by_level)
    weighed = order[tree.mass[order] > 0]
    ratio = packed[weighed] / tree.mass[weighed]
    skipped = order[tree.mass[order] <= 0].tolist()
    worst, worst_cube = 0.0, None
    if len(weighed):
        # the first cube in that order attaining the largest ratio
        first = int(np.argmax(ratio))
        worst, worst_cube = float(ratio[first]), int(weighed[first])
    return CarlesonReport(
        worst_ratio=worst,
        worst_cube=worst_cube,
        constants=constants,
        skipped=tuple(skipped),
        ok=worst <= constants.C1,
    )


@dataclass(frozen=True)
class ShadowReport:
    maximal: tuple[int, ...]  # the empty-neighborhood antichain
    mapped: int  # porous cubes whose witness lies in an antichain cube
    b_observed: int  # max number of porous cubes sharing one shadow
    c0_used: float
    failures: tuple[int, ...]  # porous cubes whose witness found no shadow
    # the first mapped pair failing a scale comparison, named with both
    # sides of each comparison it fails; None when every pair passes
    violation: str | None

    @property
    def ok(self) -> bool:
        return self.violation is None


def shadow_map(
    tree: CubeTree,
    gap: np.ndarray,
    porous: PorousFamily,
    cfg: PorosityConfig,
) -> ShadowReport:
    """Map porous cubes to maximal cubes clear of the target set.

    The antichain consists of maximal cubes whose doubled center ball
    misses the target set entirely (``gap`` is :func:`dist_to_set` of
    the target's members).  Each porous cube's witness lies in
    at most one antichain cube (its shadow); for every mapped pair the
    two sidelengths must be comparable, which is checked with the
    achieved inner-ball constant rather than the nominal target.
    A witness contained in no antichain cube at the available levels is
    a resolution failure and is counted, not raised.
    """
    clear = gap[tree.center] >= 2 * tree.sidelength
    # a clear cube is maximal unless an ancestor is clear; one sweep from
    # the top, since parents come a level before their children
    cleared_above = np.zeros(len(clear), dtype=bool)
    for cids in np.split(np.arange(len(clear)), tree.start[1:])[1:]:
        up = tree.parent[cids]
        cleared_above[cids] = clear[up] | cleared_above[up]
    is_maximal = clear & ~cleared_above

    c0_used = tree.c0_achieved
    if not math.isfinite(c0_used):
        c0_used = tree.c0_target
    # each witness's cube at each level; at most one is maximal, since
    # the maximal cubes are an antichain
    column = tree.cube_of[:, porous.witness]
    hits = is_maximal[column]
    found = hits.any(axis=0)
    cube = porous.cube[found]
    shadow = column.T[hits.T]
    l_cube, l_shadow = tree.sidelength[cube], tree.sidelength[shadow]
    slack = 1.0 + 1e-12
    lower_ok = cfg.delta * l_cube <= (4 / cfg.rho) * l_shadow * slack
    upper_ok = l_shadow <= (2 * cfg.M / c0_used) * l_cube * slack
    violation: str | None = None
    if not (lower_ok.all() and upper_ok.all()):
        # the first failing pair, named from Python floats
        k = int(np.argmin(lower_ok & upper_ok))
        q, s = int(cube[k]), int(shadow[k])
        lq, ls = float(l_cube[k]), float(l_shadow[k])
        sides = [
            ("delta*l(Q)", cfg.delta * lq, "(4/rho)*l(S)", (4 / cfg.rho) * ls),
            ("l(S)", ls, "(2M/c0)*l(Q)", (2 * cfg.M / c0_used) * lq),
        ]
        violation = f"porous cube {q} with shadow {s}: " + "; ".join(
            f"{lhs} {x!r} > {rhs} {y!r}"
            for (lhs, x, rhs, y), ok in zip(sides, (lower_ok[k], upper_ok[k]))
            if not ok
        )
    return ShadowReport(
        maximal=tuple(np.flatnonzero(is_maximal).tolist()),
        mapped=len(cube),
        b_observed=int(np.bincount(shadow).max(initial=0)),
        c0_used=c0_used,
        failures=tuple(porous.cube[~found].tolist()),
        violation=violation,
    )
