"""Lower-density profiles, density strata, beta-2 numbers.

The lower density of a point is approximated by the minimum of
``mass(B(x, r)) / r`` over a geometric radius grid; the true liminf is
unreachable on finite data, so every profile records the grid it was
evaluated on and the minimum is a finite-resolution surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DegenerateInputError,
    ParameterError,
    UnsupportedMetricError,
)
from .space import MetricMeasureSpace, _write_lines, dyadic_radii


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
    # Python floats: repr of a numpy float names its type; no field holds
    # a comma, a quote or a line break, so each line is csv.writer's
    lines = (
        f"{profiles.points[k]},{low!r}\r\n"
        for k, low in zip(order.tolist(), profiles.lower[order].tolist())
    )
    _write_lines(path, "id,lower_estimate\r\n", lines)


def density_summary(
    profiles: DensityProfiles, r_lo: float, r_hi: float
) -> dict:
    """Count, radius grid and spread of the profiles' lower estimates."""
    lows = np.sort(profiles.lower)
    half = len(lows) // 2
    # np.median's value, whose NaN check imports numpy.ma
    median = lows[half] if len(lows) % 2 else (lows[half - 1] + lows[half]) / 2
    return {
        "profiled": len(profiles.points),
        "r_lo": r_lo,
        "r_hi": r_hi,
        "lower_min": float(lows[0]),
        "lower_median": float(median),
        "lower_max": float(lows[-1]),
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
