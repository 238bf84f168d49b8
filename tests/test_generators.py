"""Tests for the deterministic sample-measure generators."""

import math
import re

import numpy as np
import pytest

from _oracles import cascade_masses_recursive
from rectilib.errors import DegenerateInputError, ParameterError
from rectilib.generators import KINDS, GeneratorSpec, generate
from rectilib.space import linear_mass_check


def test_unknown_kind_and_bad_resolution():
    with pytest.raises(ParameterError):
        generate(GeneratorSpec("moebius", 10))
    with pytest.raises(ParameterError):
        generate(GeneratorSpec("interval", 1))
    with pytest.raises(ParameterError):
        generate(GeneratorSpec("cantor4", 0))


def test_interval_small_exact():
    space, target = generate(GeneratorSpec("interval", 4))
    assert target is None
    assert space.coords[:, 0].tolist() == [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
    assert space.weights.tolist() == [0.5] * 4
    assert space.total_mass == pytest.approx(2.0)


def test_interval_holes_trim_target_but_not_space():
    space, target = generate(
        GeneratorSpec("interval", 100, params={"holes": [(0.45, 0.55)]})
    )
    assert len(space) == 100  # removed points stay in the ambient space
    assert len(target.members) == 90
    assert target.xi0 == 44
    xs = space.coords[:, 0]
    for pid in target.members:
        assert not (0.45 < xs[pid] < 0.55)


@pytest.mark.parametrize(
    "holes",
    [
        [(0.45, 0.55)],
        [(0.2, 0.3), (0.5, 0.55), (0.7, 0.9)],
        [(0.1, 0.3), (0.25, 0.5)],  # overlapping
        [(0.2, 0.5), (0.5, 0.8)],  # sharing an end, which stays
        [[0.1, 0.3]],  # a list, as JSON params give it
    ],
)
def test_interval_hole_members_are_the_loops_members(holes):
    """The target is every point outside each open hole, as the scalar
    loop ``not any(a < x < b for a, b in holes)`` picks them; with 11
    points some lie exactly on a hole's end and stay."""
    for n in (11, 101, 4000):
        space, target = generate(GeneratorSpec("interval", n, params={"holes": holes}))
        xs = space.coords[:, 0].tolist()
        want = [j for j, x in enumerate(xs) if not any(a < x < b for a, b in holes)]
        assert list(target.members) == want


def test_interval_holes_swallowing_everything_is_degenerate():
    with pytest.raises(DegenerateInputError):
        generate(GeneratorSpec("interval", 10, params={"holes": [(-1.0, 2.0)]}))


@pytest.mark.parametrize(
    "hole, named",
    [
        ((math.nan, 0.6), "[nan, 0.6]"),
        ((0.6, 0.4), "[0.6, 0.4]"),
        ((0.5, 0.5), "[0.5, 0.5]"),
    ],
    ids=["NaN end", "reversed", "empty"],
)
def test_interval_holes_without_a_below_b_are_refused_by_name(hole, named):
    """A hole with a NaN end or with a >= b would remove no point, so it
    is refused, not run as if the target were the whole interval."""
    holes = [(0.1, 0.2), hole]
    with pytest.raises(ParameterError, match=re.escape(named)):
        generate(GeneratorSpec("interval", 200, params={"holes": holes}))


def test_circle_sits_on_unit_circle_with_linear_mass():
    space, target = generate(GeneratorSpec("circle", 256))
    assert target is None
    radii = np.sqrt((space.coords**2).sum(axis=1))
    assert np.allclose(radii, 1.0)
    check = linear_mass_check(
        space, list(space.ids), r_lo=2 * space.min_gap(), r_hi=space.diameter() / 4
    )
    assert check.ok
    # Calibration only inflates arc length slightly.
    assert 2 * math.pi <= space.total_mass < 2 * math.pi * 1.1


def test_grid2d_masses():
    space, _ = generate(GeneratorSpec("grid2d", 7))
    assert len(space) == 49
    assert space.total_mass == pytest.approx(1.0)
    assert space.coords.min() == pytest.approx(0.5 / 7)
    assert space.coords.max() == pytest.approx(6.5 / 7)


def test_cantor4_level_one_and_counts():
    space, _ = generate(GeneratorSpec("cantor4", 1))
    got = {tuple(p) for p in space.coords}
    assert got == {(0.0, 0.0), (0.75, 0.0), (0.0, 0.75), (0.75, 0.75)}
    assert space.weights.tolist() == [0.25] * 4
    for level in (2, 3):
        space, _ = generate(GeneratorSpec("cantor4", level))
        assert len(space) == 4**level
        assert space.total_mass == pytest.approx(1.0)


def test_koch_level_three():
    space, _ = generate(GeneratorSpec("koch", 3))
    assert len(space) == 64
    assert space.total_mass == pytest.approx(1.0)
    assert space.diameter() == pytest.approx(26.0 / 27.0)
    assert space.weights.tolist() == [4.0**-3] * 64


def test_cascade_matches_recursion_exactly():
    ratios = (0.4, 0.1, 0.3, 0.2)
    space, _ = generate(GeneratorSpec("cascade", 3, params={"ratios": ratios}))
    expected = cascade_masses_recursive(ratios, 3)
    m = 2**3
    for pid, (x, y), w in zip(space.ids, space.coords, space.weights):
        ix, iy = int(x * m), int(y * m)
        assert w == pytest.approx(expected[(ix, iy)], rel=1e-14)
    assert space.total_mass == pytest.approx(1.0, abs=1e-12)


def test_cascade_rejects_bad_ratios():
    with pytest.raises(ParameterError):
        generate(GeneratorSpec("cascade", 2, params={"ratios": (1.0, 2.0, 3.0)}))
    with pytest.raises(ParameterError):
        generate(
            GeneratorSpec("cascade", 2, params={"ratios": (1.0, 0.0, 1.0, 1.0)})
        )


def test_lipschitz_curve_default_is_uniform_segment():
    space, _ = generate(GeneratorSpec("lipschitz_curve", 10))
    xs = space.coords[:, 0]
    assert np.allclose(xs, (np.arange(10) + 0.5) / 10)
    assert np.allclose(space.coords[:, 1], 0.0)
    assert np.allclose(space.weights, 0.1)


def test_lipschitz_curve_coils_fold_back():
    spec = GeneratorSpec(
        "lipschitz_curve",
        50,
        params={"waypoints": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], "coils": 2},
    )
    space, _ = generate(spec)
    # Arclength spacing is total/n; consecutive spatial gaps never exceed it.
    gaps = np.sqrt((np.diff(space.coords, axis=0) ** 2).sum(axis=1))
    assert gaps.max() <= 4.0 / 50 + 1e-12
    with pytest.raises(ParameterError):
        generate(GeneratorSpec("lipschitz_curve", 10, params={"coils": 0}))
    with pytest.raises(ParameterError):
        generate(
            GeneratorSpec("lipschitz_curve", 10, params={"waypoints": [[0.0, 0.0]]})
        )


def test_generators_are_deterministic():
    for kind in KINDS:
        resolution = 3 if kind in ("cantor4", "koch", "cascade") else 40
        a, _ = generate(GeneratorSpec(kind, resolution))
        b, _ = generate(GeneratorSpec(kind, resolution))
        assert a.ids == b.ids
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.weights, b.weights)
