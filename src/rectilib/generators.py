"""Deterministic sample-measure generators.

Every generator returns a :class:`~rectilib.space.MetricMeasureSpace`
with ids ``0..n-1`` plus an optional target set (only the interval kind
with holes produces one; for the rest the natural target is the whole
space).  Generators take no randomness; identical specs give identical
output.

Kinds
-----
interval
    ``n`` equispaced points on [0, 1], each of weight ``2/n`` (twice
    Lebesgue, so balls carry at least their diameter in mass).  Params:
    ``holes``, a list of open intervals; points inside any hole are
    excluded from the returned target set but stay in the space.
circle
    ``n`` equispaced points on the unit circle.  Weights start at arc
    length ``2*pi/n`` and are scaled up by the smallest factor making
    ``mass(B(x, r)) >= 2 r`` hold on the dyadic check grid; the factor
    is tiny (a few percent), so the total mass stays close to ``2*pi``.
    Below 26 points the grid has no radius and the factor is 1.
grid2d
    ``m x m`` cell midpoints of the unit square, weight ``1/m^2``.
cantor4
    Level-``L`` four-corner construction: the ``4^L`` lower-left square
    corners, equal weights summing to 1.
koch
    Level-``L`` quartic curve refinement over [0, 1]: edge midpoints of
    the ``4^L`` segments, weight ``4^-L`` each.
cascade
    Depth-``D`` multiplicative cascade on the unit square: every square
    splits in four, children weighted by ``ratios`` (params key; four
    positive numbers, normalized to sum 1).  Points are cell centers.
lipschitz_curve
    Pushforward of uniform parameter mass under a piecewise-linear map
    through ``waypoints`` (params key), traversed back and forth
    ``coils`` times; ``n`` samples of weight ``1/n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .space import MetricMeasureSpace, TargetSet, dyadic_radii, enclosing_target

KINDS = (
    "interval",
    "circle",
    "grid2d",
    "cantor4",
    "koch",
    "cascade",
    "lipschitz_curve",
)

# Kinds whose resolution is a construction level rather than a point count.
_LEVEL_KINDS = ("cantor4", "koch", "cascade")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    resolution: int
    params: dict[str, Any] = field(default_factory=dict)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def _param(spec: GeneratorSpec, key: str, default, convert, expected: str):
    """``convert`` of the params entry ``key`` (``default`` when absent);
    a value it cannot convert is a ParameterError naming the key."""
    value = spec.params.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ParameterError(
            f"{spec.kind}: param {key!r} must be {expected}, got {value!r}"
        ) from None


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def generate(spec: GeneratorSpec) -> tuple[MetricMeasureSpace, TargetSet | None]:
    _require(spec.kind in KINDS, f"unknown generator kind {spec.kind!r}")
    _require(
        isinstance(spec.params, dict),
        f"params must be a JSON object, got {spec.params!r}",
    )
    if spec.kind in _LEVEL_KINDS:
        _require(spec.resolution >= 1, f"{spec.kind}: level must be >= 1")
    else:
        _require(spec.resolution >= 2, f"{spec.kind}: resolution must be >= 2")
    builder = {
        "interval": _interval,
        "circle": _circle,
        "grid2d": _grid2d,
        "cantor4": _cantor4,
        "koch": _koch,
        "cascade": _cascade,
        "lipschitz_curve": _lipschitz_curve,
    }[spec.kind]
    return builder(spec)


def _interval(spec: GeneratorSpec) -> tuple[MetricMeasureSpace, TargetSet | None]:
    n = spec.resolution
    xs = np.arange(n, dtype=float) / (n - 1)
    weights = np.full(n, 2.0 / n)
    space = MetricMeasureSpace.from_coords(range(n), xs[:, None], weights)
    if spec.params.get("holes") is None:
        return space, None
    holes = _param(
        spec, "holes", None,
        lambda v: _floats(v).reshape(len(v), 2), "a list of [a, b] pairs",
    )
    inside = np.zeros(n, dtype=bool)
    for a, b in holes.tolist():
        if not a < b:  # a NaN end, or an empty hole
            raise ParameterError(f"interval: hole [{a!r}, {b!r}] in 'holes' needs a < b")
        inside |= (a < xs) & (xs < b)
    members = np.flatnonzero(~inside).tolist()
    if not members:
        raise DegenerateInputError("holes swallow every interval point")
    return space, enclosing_target(space, members)


def _circle(spec: GeneratorSpec) -> tuple[MetricMeasureSpace, TargetSet | None]:
    n = spec.resolution
    angles = 2.0 * math.pi * np.arange(n) / n
    coords = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    base = 2.0 * math.pi / n
    # All points are equivalent under rotation, so calibrate from one row.
    chords = 2.0 * np.sin(math.pi * np.arange(n) / n)
    spacing = float(chords[1])
    diam = float(chords.max())
    factor = 1.0
    if 2.0 * spacing <= diam / 4.0:  # below 26 points the grid is empty
        for r in dyadic_radii(2.0 * spacing, diam / 4.0):
            mass = float((chords < r).sum()) * base
            factor = max(factor, 2.0 * r / mass)
        factor *= 1.0 + 1e-12  # keep the binding radius above equality in floats
    weights = np.full(n, base * factor)
    space = MetricMeasureSpace.from_coords(range(n), coords, weights)
    return space, None


def _grid2d(spec: GeneratorSpec) -> tuple[MetricMeasureSpace, TargetSet | None]:
    m = spec.resolution
    side = (np.arange(m, dtype=float) + 0.5) / m
    xx, yy = np.meshgrid(side, side, indexing="ij")
    coords = np.stack([xx.ravel(), yy.ravel()], axis=1)
    weights = np.full(m * m, 1.0 / (m * m))
    return MetricMeasureSpace.from_coords(range(m * m), coords, weights), None


def _cantor4(spec: GeneratorSpec) -> tuple[MetricMeasureSpace, TargetSet | None]:
    level = spec.resolution
    corners = np.array([[0.0, 0.0]])
    for k in range(level):
        step = 0.75 * 0.25**k
        shifts = np.array([[0, 0], [step, 0], [0, step], [step, step]])
        corners = (corners[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
    n = len(corners)
    weights = np.full(n, 1.0 / n)
    return MetricMeasureSpace.from_coords(range(n), corners, weights), None


def _koch(spec: GeneratorSpec) -> tuple[MetricMeasureSpace, TargetSet | None]:
    level = spec.resolution
    bump = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
    vertices = np.array([0.0 + 0.0j, 1.0 + 0.0j])
    for _ in range(level):
        a = vertices[:-1]
        d = np.diff(vertices) / 3.0
        parts = [a, a + d, a + d + d * bump, a + 2 * d]
        vertices = np.append(np.stack(parts, axis=1).ravel(), vertices[-1])
    mids = (vertices[:-1] + vertices[1:]) / 2.0
    coords = np.stack([mids.real, mids.imag], axis=1)
    n = len(mids)
    weights = np.full(n, 4.0**-level)
    return MetricMeasureSpace.from_coords(range(n), coords, weights), None


def _cascade(spec: GeneratorSpec) -> tuple[MetricMeasureSpace, TargetSet | None]:
    depth = spec.resolution
    ratios = _param(spec, "ratios", (0.3, 0.2, 0.3, 0.2), _floats, "numbers")
    if ratios.shape != (4,):
        raise ParameterError("cascade ratios must be four numbers")
    if np.any(ratios <= 0):
        raise ParameterError("cascade ratios must be positive")
    ratios = ratios / ratios.sum()
    # tile[bx, by] multiplies the child holding x-bit bx and y-bit by.
    tile = np.array([[ratios[0], ratios[2]], [ratios[1], ratios[3]]])
    masses = np.array([[1.0]])
    for _ in range(depth):
        masses = np.kron(masses, tile)
    m = 2**depth
    side = (np.arange(m, dtype=float) + 0.5) / m
    xx, yy = np.meshgrid(side, side, indexing="ij")
    coords = np.stack([xx.ravel(), yy.ravel()], axis=1)
    space = MetricMeasureSpace.from_coords(
        range(m * m), coords, masses.ravel()
    )
    return space, None


def _lipschitz_curve(
    spec: GeneratorSpec,
) -> tuple[MetricMeasureSpace, TargetSet | None]:
    n = spec.resolution
    waypoints = _param(
        spec, "waypoints", [[0.0, 0.0], [1.0, 0.0]], _floats,
        "a list of points of one dimension",
    )
    if waypoints.ndim != 2 or len(waypoints) < 2:
        raise ParameterError("lipschitz_curve needs at least two waypoints")
    coils = _param(spec, "coils", 1, int, "an integer")
    _require(coils >= 1, "coils must be >= 1")

    path = [waypoints]
    for k in range(1, coils):  # alternate direction so the path stays connected
        path.append(waypoints[::-1][1:] if k % 2 else waypoints[1:])
    nodes = np.concatenate(path)
    seg = np.diff(nodes, axis=0)
    seg_len = np.sqrt((seg**2).sum(axis=1))
    if seg_len.sum() <= 0:
        raise DegenerateInputError("curve has zero length")
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    targets = (np.arange(n) + 0.5) / n * total
    pos = np.searchsorted(cum, targets, side="right") - 1
    pos = np.clip(pos, 0, len(seg) - 1)
    frac = (targets - cum[pos]) / np.where(seg_len[pos] > 0, seg_len[pos], 1.0)
    coords = nodes[pos] + seg[pos] * frac[:, None]
    weights = np.full(n, 1.0 / n)
    return MetricMeasureSpace.from_coords(range(n), coords, weights), None
