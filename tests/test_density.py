"""Tests for density profiles, strata, and flatness numbers."""

import math

import numpy as np
import pytest

from _oracles import (
    ball_mass_brute,
    beta2_grid,
    beta2_grid_slack,
    beta2_submatrix,
)
from rectilib.density import (
    beta2,
    density_profiles,
    resolution_scale,
    stratify,
)
from rectilib.errors import (
    DegenerateInputError,
    ParameterError,
    UnknownIdentifierError,
    UnsupportedMetricError,
)
from rectilib.generators import GeneratorSpec, generate
from rectilib.space import MetricMeasureSpace


def random_cloud(rng, n=20, dim=2):
    coords = rng.uniform(-1.0, 1.0, size=(n, dim))
    weights = rng.uniform(0.1, 2.0, size=n)
    return MetricMeasureSpace.from_coords(range(n), coords, weights)


# -- density profiles ---------------------------------------------------


def test_profile_of_isolated_atom():
    coords = np.array([[0.0], [10.0]])
    space = MetricMeasureSpace.from_coords([0, 1], coords, np.ones(2))
    prof = density_profiles(space, [0], 0.25, 1.0)
    assert prof.radii == (1.0, 0.5, 0.25)
    assert prof.ratios[0].tolist() == pytest.approx((1.0, 2.0, 4.0))
    assert prof.lower.tolist() == pytest.approx([1.0])


def test_profile_uses_open_balls():
    coords = np.array([[0.0], [1.0], [2.0]])
    space = MetricMeasureSpace.from_coords([0, 1, 2], coords, np.ones(3))
    prof = density_profiles(space, [1], 1.0, 2.0)
    # B(1, 1) holds only the center; B(1, 2) holds all three.
    assert prof.ratios[0].tolist() == pytest.approx((1.5, 1.0))
    assert prof.lower.tolist() == pytest.approx([1.0])


def test_profile_parameter_errors():
    space = random_cloud(np.random.default_rng(0))
    with pytest.raises(ParameterError):
        density_profiles(space, [0], 0.5, 0.5)
    with pytest.raises(ParameterError):
        density_profiles(space, [0], 0.0, 0.5)
    with pytest.raises(UnknownIdentifierError):
        density_profiles(space, [777], 0.1, 0.5)


def test_profile_values_match_brute_force():
    rng = np.random.default_rng(31)
    for trial in range(8):
        space = random_cloud(rng, n=15)
        pid = int(rng.integers(0, 15))
        prof = density_profiles(space, [pid], 0.05, 1.6)
        for r, v in zip(prof.radii, prof.ratios[0].tolist()):
            assert v == pytest.approx(ball_mass_brute(space, pid, r) / r)


def test_profiles_are_isometry_invariant():
    rng = np.random.default_rng(37)
    space = random_cloud(rng, n=18)
    theta = 0.7
    q = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    moved = MetricMeasureSpace.from_coords(
        space.ids, space.coords @ q.T + np.array([3.0, -1.0]), space.weights
    )
    for pid in (0, 7, 17):
        a = density_profiles(space, [pid], 0.1, 1.0)
        b = density_profiles(moved, [pid], 0.1, 1.0)
        assert a.radii == b.radii
        assert a.ratios == pytest.approx(b.ratios, rel=1e-9)


def test_profiles_batch_matches_single():
    rng = np.random.default_rng(43)
    space = random_cloud(rng, n=12)
    pts = [3, 1, 9]
    batch = density_profiles(space, pts, 0.1, 0.9)
    assert batch.points == tuple(pts)
    assert batch.ratios.shape == (3, len(batch.radii))
    assert not batch.ratios.flags.writeable
    for pid, row, low in zip(pts, batch.ratios, batch.lower):
        single = density_profiles(space, [pid], 0.1, 0.9)
        assert single.radii == batch.radii
        assert single.ratios[0].tolist() == row.tolist()
        assert low == row.min() == single.lower[0]


def test_profiles_build_one_radius_grid(monkeypatch):
    import rectilib.density as density

    space = random_cloud(np.random.default_rng(47), n=12)
    grids = []
    original = density.dyadic_radii
    monkeypatch.setattr(
        density, "dyadic_radii", lambda lo, hi: grids.append(1) or original(lo, hi)
    )
    batch = density_profiles(space, range(12), 0.1, 0.9)
    assert len(grids) == 1
    assert batch.radii == tuple(original(0.1, 0.9))


def test_resolution_scale_is_half_min_gap():
    space, _ = generate(GeneratorSpec("interval", 11))
    assert resolution_scale(space) == pytest.approx(0.05)


# -- density strata -----------------------------------------------------


def test_stratify_two_atoms():
    coords = np.array([[0.0], [1.0]])
    heavy = MetricMeasureSpace.from_coords([0, 1], coords, np.ones(2))
    assert stratify(heavy, [0, 1], 1, 1) == (0, 1)
    light = MetricMeasureSpace.from_coords([0, 1], coords, np.full(2, 0.1))
    assert stratify(light, [0, 1], 1, 1) == ()
    # No testable radius below 1/k: the window is unresolved, not a stratum.
    with pytest.raises(DegenerateInputError, match="1/k = 0.5 .* 0.5"):
        stratify(light, [0, 1], 1, 2)
    # 1/k = 1e-6 lies below the resolution scale 1/198 of 100 points
    space, _ = generate(GeneratorSpec("interval", 100))
    with pytest.raises(DegenerateInputError, match="1e-06 .* 0.00505"):
        stratify(space, space.ids, 1000, 10**6)
    with pytest.raises(ParameterError):
        stratify(heavy, [0, 1], 0, 1)
    with pytest.raises(ParameterError):
        stratify(heavy, [0, 1], 1, 0)


@pytest.mark.parametrize(
    "coords", [np.zeros((2, 2)), np.array([[0.5, -1.0]])], ids=["coincident", "single"]
)
def test_stratify_without_a_positive_distance_is_degenerate(coords):
    space = MetricMeasureSpace.from_coords(
        range(len(coords)), coords, np.ones(len(coords))
    )
    with pytest.raises(DegenerateInputError, match="no positive distance"):
        stratify(space, space.ids, 1, 1)


def test_stratify_keeps_whole_circle():
    space, _ = generate(GeneratorSpec("circle", 256))
    kept = stratify(space, list(space.ids), 1, 1)
    assert kept == tuple(space.ids)


def test_stratify_is_monotone_in_k():
    space, _ = generate(
        GeneratorSpec("cascade", 4, params={"ratios": (0.7, 0.1, 0.1, 0.1)})
    )
    ids = list(space.ids)
    sizes = []
    for k in (1, 2, 4, 8):
        kept_k = set(stratify(space, ids, 2, k))
        kept_2k = set(stratify(space, ids, 2, 2 * k))
        assert kept_k <= kept_2k
        sizes.append((len(kept_k), len(kept_2k)))
    assert any(a < b for a, b in sizes)  # growth is strict somewhere


# -- beta-2 flatness ----------------------------------------------------


def test_beta2_square_corners():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    space = MetricMeasureSpace.from_coords(range(4), coords, np.ones(4))
    result = beta2(space, range(4))
    assert result.beta2 == pytest.approx(math.sqrt(1.0 / 8.0), rel=1e-12)
    assert result.line_point == pytest.approx((0.5, 0.5))


def test_beta2_flat_sets_vanish():
    coords = np.array([[0.0, 0.0], [0.3, 0.3], [1.1, 1.1], [2.0, 2.0]])
    space = MetricMeasureSpace.from_coords(range(4), coords, np.ones(4))
    assert beta2(space, range(4)).beta2 <= 1e-12
    assert beta2(space, [0, 3]).beta2 <= 1e-12


def test_beta2_error_types():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    space = MetricMeasureSpace.from_coords(
        range(4), coords, np.array([1.0, 1.0, 0.0, 0.0])
    )
    with pytest.raises(ParameterError):
        beta2(space, [0])
    with pytest.raises(DegenerateInputError):
        beta2(space, [2, 3])  # two points, neither carries mass
    twin = MetricMeasureSpace.from_matrix(
        [0, 1], np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2)
    )
    with pytest.raises(UnsupportedMetricError):
        beta2(twin, [0, 1])


def test_beta2_never_beats_the_angle_grid():
    rng = np.random.default_rng(53)
    for trial in range(6):
        space = random_cloud(rng, n=int(rng.integers(4, 20)))
        ids = list(space.ids)
        pca = beta2(space, ids).beta2
        grid = beta2_grid(space, ids, n_angles=2000)
        assert pca <= grid + 1e-12
        assert grid - pca <= beta2_grid_slack(space.diameter(), 2000) + 1e-9


def test_beta2_is_rigid_motion_invariant():
    rng = np.random.default_rng(61)
    space = random_cloud(rng, n=14)
    theta = 1.1
    q = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    moved = MetricMeasureSpace.from_coords(
        space.ids, space.coords @ q.T + np.array([-2.0, 0.5]), space.weights
    )
    a = beta2(space, space.ids).beta2
    b = beta2(moved, space.ids).beta2
    assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_beta2_direction_sign_is_normalized():
    coords = np.array([[0.0, 0.0], [-1.0, -0.1], [-2.0, 0.1], [-3.0, 0.0]])
    space = MetricMeasureSpace.from_coords(range(4), coords, np.ones(4))
    direction = beta2(space, range(4)).line_direction
    nz = [c for c in direction if abs(c) > 1e-12]
    assert nz and nz[0] > 0


# -- dyadic flatness sums -----------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec("circle", 300),
        GeneratorSpec("interval", 200, params={"holes": [(0.4, 0.6)]}),
        GeneratorSpec("grid2d", 12),
        GeneratorSpec("cascade", 4),
        GeneratorSpec("lipschitz_curve", 400),
    ],
    ids=lambda spec: spec.kind,
)
def test_beta2_builds_no_distance_submatrix(monkeypatch, spec):
    """The diameter comes from the summary pass or from sub-rows; the
    value is the submatrix maximum's, bit for bit."""
    space, target = generate(spec)
    subsets = [space.ids, space.ids[::3], space.ids[5:9]]
    if target is not None:
        subsets.append(target.members)
    want = [beta2_submatrix(space, m) for m in subsets]

    def refuse(self):
        raise AssertionError("beta2 built a distance matrix")

    monkeypatch.setattr(MetricMeasureSpace, "distance_matrix", refuse)
    assert [beta2(space, m).beta2 for m in subsets] == want
