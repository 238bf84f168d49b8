"""Tests for metric measure spaces, ball masses, covers, and IO."""

import json
import math
import re

import numpy as np
import pytest

from _oracles import ball_mass_brute, basepoint_brute, greedy_cover_trace
from rectilib.cli import main
from rectilib.errors import (
    DegenerateInputError,
    InputError,
    ParameterError,
    UnknownIdentifierError,
)
from rectilib import space as space_module
from rectilib.generators import GeneratorSpec, generate
from rectilib.space import (
    Ball,
    MetricMeasureSpace,
    ball_members,
    doubling_estimate,
    dyadic_radii,
    enclosing_target,
    hausdorff_estimate,
    linear_mass_check,
    load_csv,
    load_json,
    load_matrix,
    save_csv,
    seq_sum,
    vitali_subcover,
)


def line_space(n=5, spacing=1.0, weight=1.0):
    xs = spacing * np.arange(n, dtype=float)
    return MetricMeasureSpace.from_coords(
        range(n), xs[:, None], np.full(n, weight)
    )


def random_cloud(rng, n=20, dim=2):
    coords = rng.uniform(-1.0, 1.0, size=(n, dim))
    weights = rng.uniform(0.1, 2.0, size=n)
    return MetricMeasureSpace.from_coords(range(n), coords, weights)


# -- validation ---------------------------------------------------------


def test_from_coords_rejects_bad_shapes_and_values():
    with pytest.raises(ParameterError):
        MetricMeasureSpace.from_coords([0, 1], np.zeros(2), np.ones(2))
    with pytest.raises(ParameterError):
        MetricMeasureSpace.from_coords(
            [0, 1], np.array([[0.0], [np.nan]]), np.ones(2)
        )
    with pytest.raises(ParameterError):  # duplicate ids
        MetricMeasureSpace.from_coords([3, 3], np.zeros((2, 1)), np.ones(2))
    with pytest.raises(ParameterError):  # weight count mismatch
        MetricMeasureSpace.from_coords([0, 1], np.zeros((2, 1)), np.ones(3))
    with pytest.raises(ParameterError):  # negative weight
        MetricMeasureSpace.from_coords(
            [0, 1], np.zeros((2, 1)), np.array([1.0, -0.5])
        )


def test_from_coords_rejects_coords_of_wrong_length():
    with pytest.raises(ParameterError):
        MetricMeasureSpace.from_coords(
            [0, 1, 2], np.random.default_rng(0).random((5, 2)), np.ones(3)
        )
    with pytest.raises(ParameterError):
        MetricMeasureSpace.from_coords([0, 1, 2], np.zeros((2, 1)), np.ones(3))


def test_from_coords_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        MetricMeasureSpace.from_coords([], np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(DegenerateInputError):  # zero total mass
        MetricMeasureSpace.from_coords([0, 1], np.zeros((2, 1)), np.zeros(2))


def test_from_matrix_validation():
    """Each refusal names its first offending entry in row-major order,
    by ids and values."""
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    MetricMeasureSpace.from_matrix([0, 1], good, np.ones(2))
    with pytest.raises(ParameterError, match=r"^distance matrix shape \(2, 2\) does not match 3 ids$"):
        MetricMeasureSpace.from_matrix([0, 1, 2], good, np.ones(3))
    with pytest.raises(ParameterError, match=r"^distance matrix must be symmetric: d\(7, 9\) = 1.0, d\(9, 7\) = 2.0$"):
        MetricMeasureSpace.from_matrix(
            [7, 9], np.array([[0.0, 1.0], [2.0, 0.0]]), np.ones(2)
        )
    with pytest.raises(ParameterError, match=r"^distance matrix diagonal must be zero: d\(7, 7\) = 0.5$"):
        MetricMeasureSpace.from_matrix(
            [7, 9], np.array([[0.5, 1.0], [1.0, 0.0]]), np.ones(2)
        )
    with pytest.raises(ParameterError, match=r"^distances must be nonnegative: d\(7, 9\) = -1.0$"):
        MetricMeasureSpace.from_matrix(
            [7, 9], np.array([[0.0, -1.0], [-1.0, 0.0]]), np.ones(2)
        )
    with pytest.raises(ParameterError, match=r"^distances must be finite: d\(9, 7\) = nan$"):
        MetricMeasureSpace.from_matrix(
            [7, 9], np.array([[0.0, 1.0], [np.nan, 0.0]]), np.ones(2)
        )
    with pytest.raises(ParameterError, match=r"^point ids must be unique: id 9 appears more than once$"):
        MetricMeasureSpace.from_matrix([7, 9, 9], np.zeros((3, 3)), np.ones(3))
    with pytest.raises(ParameterError, match=r"^weights must be nonnegative: id 9 has weight -0.5$"):
        MetricMeasureSpace.from_matrix([7, 9], good, np.array([1.0, -0.5]))
    with pytest.raises(ParameterError, match=r"^weights must be finite: id 7 has weight inf$"):
        MetricMeasureSpace.from_matrix([7, 9], good, np.array([np.inf, 1.0]))


def test_from_matrix_triangle_violation_is_caught():
    m = np.array(
        [
            [0.0, 1.0, 10.0],
            [1.0, 0.0, 1.0],
            [10.0, 1.0, 0.0],
        ]
    )
    with pytest.raises(ParameterError):
        MetricMeasureSpace.from_matrix([0, 1, 2], m, np.ones(3))


def test_unknown_id_raises():
    space = line_space(3)
    with pytest.raises(UnknownIdentifierError):
        space.index_of(99)
    with pytest.raises(UnknownIdentifierError):
        space.indices_of([0, 99])


# -- basic queries ------------------------------------------------------


def test_basic_queries_on_line():
    space = line_space(5, spacing=0.5, weight=2.0)
    assert len(space) == 5
    assert space.total_mass == pytest.approx(10.0)
    assert space.diameter() == pytest.approx(2.0)
    assert space.min_gap() == pytest.approx(0.5)
    row = space.dists_from(space.index_of(2))
    assert row.tolist() == [1.0, 0.5, 0.0, 0.5, 1.0]


def test_distance_matrix_consistency_and_guard():
    rng = np.random.default_rng(7)
    space = random_cloud(rng, n=15)
    m = space.distance_matrix()
    for k in range(len(space)):
        assert np.allclose(m[k], space.dists_from(k))
    big = MetricMeasureSpace.from_coords(
        range(5001), np.arange(5001, dtype=float)[:, None], np.ones(5001)
    )
    with pytest.raises(ParameterError):
        big.distance_matrix()


def test_distance_submatrix_matches_both_backends():
    rng = np.random.default_rng(11)
    space = random_cloud(rng, n=12)
    ids = [7, 2, 9]
    block = np.ix_(space.indices_of(ids), space.indices_of(ids))
    sub = space.distance_matrix()[block]
    twin = MetricMeasureSpace.from_matrix(
        space.ids, space.distance_matrix(), space.weights
    )
    assert np.allclose(sub, twin.distance_matrix()[block])
    for a, pa in enumerate(ids):
        for b, pb in enumerate(ids):
            d = space.dists_from(space.index_of(pa))[space.index_of(pb)]
            assert sub[a, b] == pytest.approx(d)


def test_zero_axis_coords_are_rejected(tmp_path):
    with pytest.raises(ParameterError, match="axes"):
        MetricMeasureSpace.from_coords(range(3), np.zeros((3, 0)), np.ones(3))
    path = tmp_path / "pts.json"
    path.write_text(
        json.dumps([{"id": k, "coords": [], "weight": 1.0} for k in range(3)])
    )
    with pytest.raises(ParameterError, match="axes"):
        load_json(str(path))
    assert main(["gen", "--input", str(path)]) == 2


def test_summary_records_eccentricity_and_nearest_gap():
    space = MetricMeasureSpace.from_coords(
        range(4), np.array([[0.0], [0.0], [1.0], [3.0]]), np.ones(4)
    )
    ecc, gap = space.summary()
    assert ecc.tolist() == [3.0, 3.0, 2.0, 3.0]
    assert gap == space.min_gap() == 1.0
    assert space.diameter() == 3.0
    twin = MetricMeasureSpace.from_matrix(range(4), space.distance_matrix(), np.ones(4))
    assert twin.summary()[0].tolist() == ecc.tolist() and twin.min_gap() == 1.0
    twins = MetricMeasureSpace.from_coords(range(2), np.zeros((2, 1)), np.ones(2))
    assert twins.summary()[0].tolist() == [0.0, 0.0]
    assert twins.summary()[1] == twins.min_gap() == 0.0


def test_rows_and_caches_are_read_only():
    rng = np.random.default_rng(3)
    space = random_cloud(rng, n=6)
    matrix = space.distance_matrix()
    twin = MetricMeasureSpace.from_matrix(space.ids, matrix, space.weights)
    row = twin.dists_from(2)
    with pytest.raises(ValueError):
        row[0] = 5.0
    with pytest.raises(ValueError):
        matrix[0, 1] = 5.0
    for array in (space.summary()[0], *space._axes):
        with pytest.raises(ValueError):
            array[0] = 5.0
    space.ball_masses([0], [0.5])
    with pytest.raises(ValueError):
        space._masses[0.5][1] = 5.0
    # the caller's array is served without a copy and keeps its own flags
    given = np.array(matrix)
    served = MetricMeasureSpace.from_matrix(space.ids, given, space.weights)
    assert np.shares_memory(served.dists_from(0), given)
    assert given.flags.writeable


def test_ball_masses_match_uncached_masks_and_compute_no_rows():
    rng = np.random.default_rng(13)
    space = random_cloud(rng, n=25)
    radii = [0.2, 0.4, 0.8]
    row = space.dists_from(4)
    want = [ball_mass_brute(space, space.ids[4], r) for r in radii]
    assert want == [space.mass(row < r) for r in radii]
    calls = []
    original = space.dists_from
    space.dists_from = lambda k: calls.append(k) or original(k)
    first = space.ball_masses([4], radii)[0].tolist()
    assert first == want
    assert space.ball_masses([4], radii[::-1])[0].tolist() == first[::-1]
    space.ball_masses([4], [1.6])
    assert calls == []
    # open balls: a point at distance exactly r is outside
    line = line_space(5, spacing=1.0, weight=2.0)
    assert line.ball_masses([2], [1.0, 1.5, 2.0]).tolist() == [[2.0, 6.0, 6.0]]


@pytest.mark.parametrize("radius", [math.nan, -1.0, 0.0])
def test_ball_masses_reject_a_radius_that_is_not_positive(radius):
    space = line_space(3)
    space.ball_masses([0], [0.5])
    column = np.array(space._masses[0.5])
    with pytest.raises(ParameterError, match="positive"):
        space.ball_masses([1], [0.5, 1.5, radius])
    assert list(space._masses) == [0.5]
    assert np.array_equal(space._masses[0.5], column, equal_nan=True)


def test_min_gap_singleton_is_zero():
    space = MetricMeasureSpace.from_coords([0], np.zeros((1, 1)), np.ones(1))
    assert space.min_gap() == 0.0
    assert space.diameter() == 0.0


# -- open balls ---------------------------------------------------------


def test_ball_requires_positive_radius():
    with pytest.raises(ParameterError):
        Ball(center=0, radius=0.0)
    with pytest.raises(ParameterError):
        Ball(center=0, radius=-1.0)
    with pytest.raises(ParameterError):
        Ball(center=0, radius=math.inf)


def test_ball_is_open():
    space = line_space(3, spacing=1.0, weight=1.0)
    # Neighbors sit at distance exactly 1, outside the open ball.
    masses = space.ball_masses([space.index_of(1)], [1.0, 1.0 + 1e-9])
    assert masses.tolist() == [[1.0, 3.0]]
    assert ball_members(space, Ball(center=1, radius=1.0)).tolist() == [1]


def test_ball_mass_matches_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(10):
        space = random_cloud(rng, n=18)
        for _ in range(5):
            center = int(rng.integers(0, len(space)))
            radius = float(rng.uniform(0.05, 2.5))
            [[mass]] = space.ball_masses([space.index_of(center)], [radius])
            assert mass == ball_mass_brute(space, center, radius)


# -- doubling estimates -------------------------------------------------


def test_doubling_estimate_on_circle_is_frozen():
    space, _ = generate(GeneratorSpec("circle", 1000))
    est = doubling_estimate(space, dyadic_radii(0.01, 0.5))
    assert est.c_hat == pytest.approx(19.0 / 9.0, rel=1e-12)
    assert est.skipped == 0
    assert est.evaluated == 1000 * len(dyadic_radii(0.01, 0.5))


def test_doubling_estimate_counts_skips():
    # A far-away zero-weight point has empty inner balls at small radii.
    coords = np.array([[0.0], [0.1], [100.0]])
    weights = np.array([1.0, 1.0, 0.0])
    space = MetricMeasureSpace.from_coords([0, 1, 2], coords, weights)
    est = doubling_estimate(space, [0.5])
    assert est.evaluated == 2 and est.skipped == 1


def test_doubling_estimate_parameter_errors():
    space = line_space(3)
    with pytest.raises(ParameterError):
        doubling_estimate(space, [])
    with pytest.raises(ParameterError):
        doubling_estimate(space, [0.5, -1.0])


# -- Vitali subfamilies -------------------------------------------------


def test_vitali_subcover_hand_case():
    space = line_space(5, spacing=1.0)
    balls = [
        Ball(center=0, radius=1.5),  # covers 0, 1
        Ball(center=1, radius=1.5),  # overlaps the first
        Ball(center=4, radius=1.2),  # disjoint from both
    ]
    kept = vitali_subcover(space, balls)
    assert kept == [0, 2]


def test_vitali_subcover_prefers_larger_then_smaller_center():
    space = line_space(6, spacing=1.0)
    balls = [
        Ball(center=3, radius=2.0),
        Ball(center=1, radius=3.0),  # larger radius wins the first slot
        Ball(center=5, radius=3.0),
    ]
    kept = vitali_subcover(space, balls)
    assert kept[0] == 1  # radius 3, smaller center than ball 2


def test_vitali_subcover_properties_seeded():
    rng = np.random.default_rng(17)
    for trial in range(20):
        space = random_cloud(rng, n=25)
        balls = [
            Ball(
                center=int(rng.integers(0, 25)),
                radius=float(rng.uniform(0.05, 1.0)),
            )
            for _ in range(rng.integers(1, 12))
        ]
        kept = vitali_subcover(space, balls)
        taken = np.zeros(len(space), dtype=bool)
        for j in kept:  # kept balls are pairwise point-disjoint
            members = ball_members(space, balls[j])
            assert not np.any(taken[members])
            taken[members] = True
        for b in balls:  # every center is caught by a 5x dilate
            c = space.index_of(b.center)
            assert any(
                space.dists_from(space.index_of(balls[j].center))[c]
                < 5.0 * balls[j].radius
                for j in kept
            )


# -- spherical measure estimates ----------------------------------------


def test_hausdorff_estimate_interval_frozen():
    space, _ = generate(GeneratorSpec("interval", 1000))
    est = hausdorff_estimate(space, list(space.ids), delta=0.1)
    assert est.upper == pytest.approx(0.8935060051185038, rel=1e-12)
    assert est.lower == pytest.approx(est.upper / 5.0, rel=1e-12)
    assert 0 < est.lower <= est.upper


def left_to_right(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def test_seq_sum_adds_left_to_right():
    assert seq_sum([0.1] * 10) == left_to_right([0.1] * 10) == 0.9999999999999999
    assert math.fsum([0.1] * 10) == 1.0
    assert seq_sum(np.array([1e16, 1.0, -1e16])) == 0.0
    assert seq_sum([]) == 0.0


def test_hausdorff_sums_whatever_sum_the_builtins_do(monkeypatch):
    """Ten balls of diameter 0.1 * (1 - 1e-9) cover lipschitz_curve 30 at
    gauge 0.1; their diameters add up to 0.9999999989999999 left to
    right but to 0.999999999 compensated, as the builtin ``sum`` of
    Python 3.12 adds them.  Both bounds are left-to-right sums."""
    monkeypatch.setattr(space_module, "sum", math.fsum, raising=False)
    space, _ = generate(GeneratorSpec("lipschitz_curve", 30))
    est = hausdorff_estimate(space, list(space.ids), delta=0.1)
    upper = [2.0 * b.radius for b in est.upper_balls]
    lower = [2.0 * b.radius for b in est.lower_balls]
    assert math.fsum(upper) != left_to_right(upper)
    assert est.upper == left_to_right(upper) == 0.9999999989999999
    assert est.lower == left_to_right(lower) / 5.0


def test_hausdorff_estimate_matches_greedy_trace():
    space, _ = generate(GeneratorSpec("interval", 60))
    est = hausdorff_estimate(space, list(space.ids), delta=0.2)
    trace = greedy_cover_trace(space, list(space.ids), 0.2, est.r_min)
    got = [(b.center, b.radius) for b in est.upper_balls]
    assert got == [(c, pytest.approx(r)) for c, r in trace]


@pytest.mark.parametrize("seed", range(16))
def test_hausdorff_estimate_breaks_exact_ties_as_the_greedy_trace(seed):
    """On a half-unit lattice with repeated points and weights of 1, 2
    and 4 tenths, equal gains per radius are common and exact: the lazy
    greedy takes the trace's balls, the smaller radius first on a tie,
    then the smaller centre id.  From seed 8 on, zero weights too: the
    zero-gain points left at the end take floor balls, each covering
    the points left within ``r_min`` of it, coincident ones included."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    coords = rng.integers(0, 6, (n, int(rng.integers(1, 3)))) * 0.5
    weights = rng.choice([0.0] * 4 * (seed >= 8) + [0.1, 0.2, 0.4], n)
    weights[0] = max(weights[0], 0.1)  # a positive total mass
    space = MetricMeasureSpace.from_coords(range(n), coords, weights)
    members = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
    delta = float(rng.choice([0.7, 1.0, 2.5]))
    est = hausdorff_estimate(space, members, delta=delta)
    trace = greedy_cover_trace(space, members, delta, est.r_min)
    assert [(b.center, b.radius) for b in est.upper_balls] == trace


def test_hausdorff_estimate_takes_the_smaller_radius_on_a_tie():
    """Two unit-weight points 1 apart, radii t/4 and t/2 (t just under
    delta = 3): one point per t/4 and both per t/2 are the same gain,
    4/t, so the smaller radius wins and each point gets its own ball."""
    space = line_space(2)
    top = 3.0 * (1.0 - 1e-9)
    est = hausdorff_estimate(space, [0, 1], delta=3.0, r_min=top / 4)
    assert [(b.center, b.radius) for b in est.upper_balls] == [(0, top / 4), (1, top / 4)]


def test_hausdorff_estimate_covers_with_small_balls():
    rng = np.random.default_rng(23)
    space = random_cloud(rng, n=30)
    est = hausdorff_estimate(space, list(space.ids), delta=0.7)
    covered = np.zeros(len(space), dtype=bool)
    for b in est.upper_balls:
        assert b.radius < 0.7
        covered[ball_members(space, b)] = True
        covered[space.index_of(b.center)] = True
    assert covered.all()


def test_hausdorff_estimate_zero_weight_points_cost_the_floor():
    coords = np.array([[0.0], [0.5], [10.0]])
    weights = np.array([1.0, 1.0, 0.0])
    space = MetricMeasureSpace.from_coords([0, 1, 2], coords, weights)
    est = hausdorff_estimate(space, [0, 1, 2], delta=1.0, r_min=0.25)
    centers = [b.center for b in est.upper_balls]
    assert 2 in centers  # isolated zero-weight point still gets covered
    floor_ball = est.upper_balls[centers.index(2)]
    assert floor_ball.radius == pytest.approx(0.25)


def test_hausdorff_estimate_parameter_errors():
    space = line_space(4)
    with pytest.raises(ParameterError):
        hausdorff_estimate(space, [0, 1], delta=0.0)
    with pytest.raises(DegenerateInputError):
        hausdorff_estimate(space, [], delta=1.0)
    with pytest.raises(ParameterError):
        hausdorff_estimate(space, [0, 1], delta=1.0, r_min=2.0)


# -- linear mass lower bound --------------------------------------------


def test_dyadic_radii_grid():
    radii = dyadic_radii(0.125, 1.0)
    assert radii == [1.0, 0.5, 0.25, 0.125]
    assert dyadic_radii(1.0, 1.0) == [1.0]
    with pytest.raises(ParameterError):
        dyadic_radii(2.0, 1.0)
    with pytest.raises(ParameterError):
        dyadic_radii(0.0, 1.0)


@pytest.mark.parametrize(
    "r_lo, r_hi",
    [(1.0, math.inf), (math.inf, math.inf), (1.0, math.nan), (math.nan, 1.0)],
)
def test_dyadic_radii_needs_finite_bounds(r_lo, r_hi):
    """Halving inf gives inf, so an infinite top would never end the grid."""
    with pytest.raises(ParameterError, match="r_hi < inf"):
        dyadic_radii(r_lo, r_hi)


def test_linear_mass_check_pass_and_fail():
    space, _ = generate(GeneratorSpec("interval", 200))
    ids = list(space.ids)
    ok = linear_mass_check(space, ids, r_lo=2 * space.min_gap(), r_hi=0.25)
    assert ok.ok and ok.worst_margin >= 0.0
    bad = linear_mass_check(
        space, ids, r_lo=2 * space.min_gap(), r_hi=0.25, factor=40.0
    )
    assert not bad.ok and bad.worst_margin < 0.0
    with pytest.raises(DegenerateInputError):
        linear_mass_check(space, [], r_lo=0.01, r_hi=0.1)


# -- target sets --------------------------------------------------------


def test_enclosing_target_and_validation():
    rng = np.random.default_rng(5)
    for trial in range(10):
        space = random_cloud(rng, n=15)
        target = enclosing_target(space)
        assert target.xi0 == basepoint_brute(space, space.ids)
        assert set(target.members) == set(space.ids)
    # eccentricities 3, 2, 2, 3: the tie goes to the smaller id
    tied = MetricMeasureSpace.from_coords(
        [9, 7, 5, 2], np.arange(4, dtype=float)[:, None], np.ones(4)
    )
    assert enclosing_target(tied).xi0 == 5
    assert enclosing_target(tied, members=[9, 7, 5]).xi0 == 7
    single = enclosing_target(line_space(3), members=[1])
    assert single.members == (1,) and single.xi0 == 1


# -- IO -----------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    space = random_cloud(rng, n=10)
    path = str(tmp_path / "cloud.csv")
    save_csv(space, path)
    clone = load_csv(path)
    assert clone.ids == space.ids
    assert np.array_equal(clone.coords, space.coords)
    assert np.array_equal(clone.weights, space.weights)


def test_load_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InputError):
        load_csv(str(empty))
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InputError):
        load_csv(str(bad_header))
    short_row = tmp_path / "short.csv"
    short_row.write_text("id,x1,weight\n0,0.0\n")
    with pytest.raises(InputError):
        load_csv(str(short_row))
    bad_id = tmp_path / "badid.csv"
    bad_id.write_text("id,x1,weight\nzero,0.0,1.0\n")
    with pytest.raises(InputError):
        load_csv(str(bad_id))


@pytest.mark.parametrize(
    "line", ["1_0,0.0,1.0", "1,1_5.0,1.0", "1,0.0,1_0", "\u0661,0.0,1.0"],
    ids=["id", "coord", "weight", "arabic-indic-id"],
)
def test_points_csv_numbers_are_plain(tmp_path, line):
    """Python reads ``1_0`` as 10 and other scripts' digits; a points
    file must spell its numbers as a CSV writer does."""
    path = tmp_path / "pts.csv"
    path.write_text(f"id,x1,weight\n0,0.0,1.0\n{line}\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}:3: ")):
        load_csv(str(path))
    assert main(["gen", "--input", str(path)]) == 2


@pytest.mark.parametrize("line", ["1_0,1.0", "1,1_5.0"], ids=["id", "weight"])
def test_weights_csv_numbers_are_plain(tmp_path, line):
    matrix = tmp_path / "m.csv"
    matrix.write_text("0,1\n1,0\n")
    weights = tmp_path / "w.csv"
    weights.write_text(f"id,weight\n0,1.0\n{line}\n")
    with pytest.raises(InputError, match=re.escape(f"{weights}:3: ")):
        load_matrix(str(matrix), str(weights))
    assert main(["gen", "--matrix", str(matrix), "--weights", str(weights)]) == 2


def test_matrix_csv_numbers_are_plain(tmp_path):
    matrix = tmp_path / "m.csv"
    matrix.write_text("0,1_0\n1_0,0\n")
    weights = tmp_path / "w.csv"
    weights.write_text("id,weight\n0,1.0\n1,1.0\n")
    with pytest.raises(InputError, match=re.escape(f"{matrix}: ")):
        load_matrix(str(matrix), str(weights))
    assert main(["gen", "--matrix", str(matrix), "--weights", str(weights)]) == 2


def test_load_json_round_trip(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text(
        '[{"id": 4, "coords": [0.0, 0.0], "weight": 1.0},'
        ' {"id": 5, "coords": [1.0, 0.0], "weight": 0.5}]'
    )
    space = load_json(str(path))
    assert space.ids == (4, 5)
    assert space.total_mass == pytest.approx(1.5)
    bad = tmp_path / "bad.json"
    bad.write_text('{"id": 4}')
    with pytest.raises(InputError):
        load_json(str(bad))


GOOD_RECORD = '{"id": 0, "coords": [0.0, 1.0], "weight": 1.0}'


@pytest.mark.parametrize(
    "second, message",
    [
        ('{"id": 1, "coo', "not valid JSON"),
        ('{"id": 1, "coords": [1.0], "weight": 1.0}', "record 1"),
        ('{"id": 1.5, "coords": [1.0, 0.0], "weight": 1.0}', "record 1"),
        ('{"id": true, "coords": [1.0, 0.0], "weight": 1.0}', "record 1"),
        ('{"id": 1, "coords": "12", "weight": 1.0}', "record 1"),
        ('{"id": 1, "coords": [1.0, false], "weight": 1.0}', "record 1"),
        ('{"id": 1, "coords": [1.0, 0.0], "weight": "1.0"}', "record 1"),
        ('{"id": 1, "coords": [1%s, 0.0], "weight": 1.0}' % ("0" * 400), "record 1"),
        ('[1, [1.0, 0.0], 1.0]', "record 1"),
    ],
    ids=[
        "truncated", "ragged", "float-id", "bool-id", "string-coords",
        "bool-coord", "string-weight", "coord-past-float", "not-an-object",
    ],
)
def test_malformed_json_is_an_input_error(tmp_path, second, message):
    """A malformed file exits 2 with the record named, not with a
    traceback; the same file with two good records loads."""
    good = tmp_path / "good.json"
    good.write_text(f"[{GOOD_RECORD}, {GOOD_RECORD.replace('0', '1', 1)}]")
    assert load_json(str(good)).ids == (0, 1)
    assert main(["gen", "--input", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(f"[{GOOD_RECORD}, {second}]")
    with pytest.raises(InputError, match=message):
        load_json(str(bad))
    assert main(["gen", "--input", str(bad)]) == 2
    assert main(["run", "--input", str(bad)]) == 2


def test_load_matrix(tmp_path):
    mpath = tmp_path / "dist.csv"
    mpath.write_text("0.0,1.0\n1.0,0.0\n")
    wpath = tmp_path / "weights.csv"
    wpath.write_text("id,weight\n10,1.0\n20,2.0\n")
    space = load_matrix(str(mpath), str(wpath))
    assert space.ids == (10, 20)
    assert space.dists_from(0)[1] == pytest.approx(1.0)
    bad = tmp_path / "badw.csv"
    bad.write_text("foo,bar\n")
    with pytest.raises(InputError):
        load_matrix(str(mpath), str(bad))


def test_save_csv_refuses_matrix_backed():
    space = MetricMeasureSpace.from_matrix(
        [0, 1], np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2)
    )
    with pytest.raises(ParameterError):
        save_csv(space, "/tmp/never-written.csv")
