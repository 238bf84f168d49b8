"""Lower-density profiles, density strata, beta-2 numbers, dyadic sums.

The lower density of a point is approximated by the minimum of
``mass(B(x, r)) / r`` over a geometric radius grid; the true liminf is
unreachable on finite data, so every profile records the grid it was
evaluated on and the minimum is a finite-resolution surrogate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DegenerateInputError,
    ParameterError,
    UnsupportedMetricError,
)
from .space import MetricMeasureSpace, _open, dyadic_radii, seq_sum


@dataclass(frozen=True, eq=False)
class DensityProfiles:
    points: tuple[int, ...]  # point ids, in the order asked
    radii: tuple[float, ...]  # descending, r_hi down to r_lo
    ratios: np.ndarray  # (points, radii) read-only, mass(B(point, r)) / r

    @property
    def lower(self) -> np.ndarray:
        """Each point's lower estimate: its smallest ratio on the grid."""
        return self.ratios.min(axis=1)


def density_profiles(
    space: MetricMeasureSpace,
    points: Iterable[int],
    r_lo: float,
    r_hi: float,
) -> DensityProfiles:
    """Ball-mass-to-radius ratios on a halving radius grid, one row per
    point, in the given order.

    Masses come from one table of :meth:`MetricMeasureSpace.ball_masses`.
    """
    if not (0 < r_lo < r_hi):
        raise ParameterError("need 0 < r_lo < r_hi")
    points = tuple(points)
    radii = tuple(dyadic_radii(r_lo, r_hi))
    ratios = space.ball_masses(space.indices_of(points), radii)
    ratios /= np.array(radii)
    ratios.flags.writeable = False
    return DensityProfiles(points=points, radii=radii, ratios=ratios)


def density_csv(profiles: DensityProfiles, path: str) -> None:
    """Per-point lower estimates as CSV, ascending by id."""
    order = np.argsort(profiles.points, kind="stable")
    with _open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "lower_estimate"])
        # Python floats: repr of a numpy float names its type
        for k, low in zip(order.tolist(), profiles.lower[order].tolist()):
            writer.writerow([profiles.points[k], repr(low)])


def density_summary(
    profiles: DensityProfiles, r_lo: float, r_hi: float
) -> dict:
    """Count, radius grid and spread of the profiles' lower estimates."""
    lows = profiles.lower
    return {
        "profiled": len(profiles.points),
        "r_lo": r_lo,
        "r_hi": r_hi,
        "lower_min": float(lows.min()),
        "lower_median": float(np.median(lows)),
        "lower_max": float(lows.max()),
    }


def resolution_scale(space: MetricMeasureSpace) -> float:
    """Half the smallest positive distance; the finest trustworthy radius."""
    return space.min_gap() / 2.0


def density_window(space: MetricMeasureSpace) -> tuple[float, float]:
    """Default profile radii: the resolution scale to diameter / 4."""
    return resolution_scale(space), space.diameter() / 4


def stratify(
    space: MetricMeasureSpace,
    members: Iterable[int],
    j: int,
    k: int,
) -> tuple[int, ...]:
    """Points whose ball masses stay above r/j at every scale below 1/k.

    The radius grid halves downward from 1/k to the resolution scale;
    only radii strictly below 1/k are tested.  Masses come from one
    table of :meth:`MetricMeasureSpace.ball_masses`.  Returned ids ascend.
    A grid with no radius strictly below 1/k (no positive distance, or
    1/k under about twice the resolution scale) tests nothing, and that
    input is degenerate.
    """
    if j < 1 or k < 1:
        raise ParameterError("need j >= 1 and k >= 1")
    ids = sorted(set(members))
    r_lo = resolution_scale(space)
    if r_lo == 0.0:
        raise DegenerateInputError(
            "no positive distance between points, so the resolution scale "
            "is 0 and stratify has no radius grid"
        )
    r_hi = 1.0 / k
    radii = []
    if r_lo < r_hi:
        radii = [r for r in dyadic_radii(r_lo, r_hi) if r < r_hi]
    if not radii:
        raise DegenerateInputError(
            f"no grid radius below 1/k = {r_hi!r} reaches down to the "
            f"resolution scale {r_lo!r}"
        )

    masses = space.ball_masses(space.indices_of(ids), radii)
    kept = np.all(masses >= np.asarray(radii) / j, axis=1)
    return tuple(p for p, keep in zip(ids, kept.tolist()) if keep)


@dataclass(frozen=True)
class Beta2Result:
    label: str
    beta2: float
    line_point: tuple[float, ...]
    line_direction: tuple[float, ...]


def beta2(
    space: MetricMeasureSpace,
    members: Iterable[int],
    label: str = "",
) -> Beta2Result:
    """Mass-weighted least-squares flatness of a subset, normalized.

    The minimizing line passes through the weighted centroid along the
    top principal direction of the weighted second-moment tensor, and

        beta2^2 = sum_x w(x) * (dist(x, line) / diam)^2 / mass.

    A subset of zero diameter is perfectly flat and returns 0.
    """
    if space.coords is None:
        raise UnsupportedMetricError(
            "beta2 needs coordinate-embedded points"
        )
    ids = sorted(set(members))
    if len(ids) < 2:
        raise ParameterError("beta2 needs at least two points")
    idx = space.indices_of(ids)
    w = space.weights[idx]
    mass = space.mass(idx)
    if mass <= 0:
        raise DegenerateInputError("subset carries no mass")
    pts = space.coords[idx]
    centroid = (w[:, None] * pts).sum(axis=0) / mass
    centered = pts - centroid
    moment = centered.T @ (w[:, None] * centered)
    eigvals, eigvecs = np.linalg.eigh(moment)
    direction = eigvecs[:, -1]
    nz = np.flatnonzero(np.abs(direction) > 1e-12)
    if nz.size and direction[nz[0]] < 0:
        direction = -direction

    diam = float(space.eccentricities(idx).max())
    if diam == 0.0:
        value = 0.0
    else:
        resid = float(np.trace(moment) - eigvals[-1])
        value = math.sqrt(max(resid, 0.0) / (mass * diam * diam))
    return Beta2Result(
        label=label,
        beta2=value,
        line_point=tuple(float(c) for c in centroid),
        line_direction=tuple(float(c) for c in direction),
    )


@dataclass(frozen=True)
class BsSumResult:
    point: int
    depth: int
    value: float
    skipped: int  # dyadic cubes with zero mass, left out of the sum
    terms: tuple[float, ...]


def bs_sum(space: MetricMeasureSpace, x: int, depth: int) -> BsSumResult:
    """Truncated sum of diam(Q)/mass(Q) over dyadic cubes around x.

    Cubes are half-open, sides 2^0 down to 2^-depth.  The sum is
    unweighted, so it does not tell a segment from dust: on a uniform
    segment each level adds about sqrt(d)*side/mass = 1/2 and the value
    grows without bound as depth grows.  The flatness-weighted Jones
    function, sum of beta2(mu, 3Q)^2 * diam(Q)/mass(Q), is the quantity
    that characterises 1-rectifiable measures (ROADMAP, item 4).

    A depth whose cube around x no longer holds x in floating point
    (``low + side`` rounds to ``low``, or ``side`` underflows to 0) is a
    :class:`ParameterError` naming the largest usable depth.
    """
    if space.coords is None:
        raise UnsupportedMetricError(
            "bs_sum needs coordinate-embedded points"
        )
    if depth < 1:
        raise ParameterError("depth must be at least 1")
    point = space.coords[space.index_of(x)]
    d = point.shape[0]
    root_d = math.sqrt(d)
    terms: list[float] = []
    skipped = 0
    for m in range(depth + 1):
        side = 2.0**-m
        with np.errstate(all="ignore"):  # a zero side makes low nan
            low = np.floor(point / side) * side
        if not np.all((low <= point) & (point < low + side)):
            raise ParameterError(
                f"depth {depth} is below float resolution at point {x}: "
                f"its cube at depth {m} does not hold it; "
                f"the largest usable depth is {m - 1}"
            )
        inside = np.all(
            (space.coords >= low) & (space.coords < low + side), axis=1
        )
        cube_mass = space.mass(inside)
        if cube_mass <= 0:
            skipped += 1
            continue
        terms.append(root_d * side / cube_mass)
    return BsSumResult(
        point=x,
        depth=depth,
        value=seq_sum(terms),
        skipped=skipped,
        terms=tuple(terms),
    )
