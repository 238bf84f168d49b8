"""Property tests: the distance layer is exact and its caches are invisible.

Rows, matrices, the cached summary and the cached ball masses must give
the same values bit for bit whatever the backend, the id order, the
weights and the order of the calls.  Every mass is the level-sum mass
of ``_oracles.mass_of``, which no order of the points can change.
Density profiles and strata read the same mass cache as the doubling
estimate.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import rectilib.space as space_module
from _oracles import (
    adjacency_forest_rows,
    basepoint_brute,
    dist_to_set_brute,
    doubling_scan,
    mass_of,
    nearest_rows,
    stratify_brute,
    summary_rows,
    weight_levels,
)
from rectilib.curve import Bridges, assemble_gamma
from rectilib.density import density_profiles, stratify
from rectilib.errors import DegenerateInputError, ParameterError
from rectilib.generators import GeneratorSpec, generate
from rectilib.pipeline import STAGES, RunConfig, run_stages
from rectilib.porosity import dist_to_set
from rectilib.space import (
    _CELL,
    _PAIR_BUDGET,
    MetricMeasureSpace,
    TargetSet,
    doubling_estimate,
    dyadic_radii,
    enclosing_target,
    linear_mass_check,
)

# a coarse value pool makes duplicate points and distance ties common
VALUES = st.sampled_from([-3.5, -1.0, -0.3, 0.0, 0.25, 0.7, 1.0, 2.125, 6.0])


@st.composite
def clouds(draw, dims=(1, 2, 3, 5), masses=(0.0, 0.5, 1.0, 2.0), sizes=(1, 14)):
    """(ids, coords, weights): permuted ids, duplicates, zero weights."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(*sizes))
    point = st.lists(VALUES, min_size=d, max_size=d)
    pool = draw(st.lists(point, min_size=1, max_size=n))
    picks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    coords = np.array(picks, dtype=float).reshape(n, d)
    ids = draw(st.permutations([3 * k + 1 for k in range(n)]))
    mass = st.sampled_from(masses)
    weights = np.array(draw(st.lists(mass, min_size=n, max_size=n)))
    assume(weights.sum() > 0)
    return ids, coords, weights


def axis_order_distance(x, y) -> float:
    """The documented row formula, one point pair at a time."""
    acc = 0.0
    for a, b in zip(x, y):
        acc += (float(a) - float(b)) * (float(a) - float(b))
    return math.sqrt(acc)


@given(clouds())
def test_rows_follow_the_axis_order_formula_and_match_the_matrix(cloud):
    ids, coords, weights = cloud
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    rows = [space.dists_from(k) for k in range(len(ids))]
    matrix = space.distance_matrix()
    for k, row in enumerate(rows):
        expected = [axis_order_distance(coords[k], p) for p in coords]
        assert row.tolist() == expected
        assert np.array_equal(row, matrix[k])
    assert np.array_equal(matrix, matrix.T)


@given(clouds(dims=(1, 2)))
def test_rows_match_the_einsum_formula_in_one_and_two_dimensions(cloud):
    # With at most two axes a row is one product or one sum of two, so
    # every summation order agrees.  From three axes on, einsum's order
    # follows the CPU's vector width, and the axis-order formula is the
    # reference instead (test above).
    ids, coords, weights = cloud
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    for k in range(len(ids)):
        diff = coords - coords[k]
        old = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        assert np.array_equal(space.dists_from(k), old)


def _doubling(space):
    lo, hi = 2 * space.min_gap(), space.diameter() / 2
    if not 0 < lo < hi:
        return "no grid"
    try:
        return doubling_estimate(space, dyadic_radii(lo, hi))
    except DegenerateInputError:
        return "degenerate"


def _mass_check(space, members):
    lo, hi = 2 * space.min_gap(), space.diameter() / 4
    if not 0 < lo < hi:
        return "no grid"
    return linear_mass_check(space, members, lo, hi)


@given(clouds(), st.data())
def test_coordinate_and_matrix_backends_agree(cloud, data):
    ids, coords, weights = cloud
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    twin = MetricMeasureSpace.from_matrix(ids, space.distance_matrix(), weights)
    members = data.draw(st.lists(st.sampled_from(ids), unique=True))
    assert space.diameter() == twin.diameter()
    assert space.min_gap() == twin.min_gap()
    assert enclosing_target(space) == enclosing_target(twin)
    assert enclosing_target(space).xi0 == basepoint_brute(space, ids)
    if members:
        assert enclosing_target(space, members).xi0 == basepoint_brute(space, members)
        assert enclosing_target(space, members) == enclosing_target(twin, members)
        assert _mass_check(space, members) == _mass_check(twin, members)
    assert _doubling(space) == _doubling(twin)
    # no point and one point: the eccentricities and a forest round
    for few in ([], [0], space.indices_of(members[:1])):
        ecc = [s.eccentricities(few) for s in (space, twin)]
        edges = [s.boruvka_rounds(few, 1.0).round(np.arange(len(few))) for s in (space, twin)]
        assert ecc[0].dtype == ecc[1].dtype and ecc[0].tolist() == ecc[1].tolist()
        assert [x.tolist() for x in edges[0]] == [x.tolist() for x in edges[1]]
    if not members:
        for s in (space, twin):
            with pytest.raises(DegenerateInputError, match="candidate set is empty"):
                dist_to_set(s, members)
        return
    assert np.array_equal(dist_to_set(space, members), dist_to_set(twin, members))
    assert dist_to_set(space, members).tolist() == dist_to_set_brute(space, members)


@given(clouds(sizes=(1, 90)), st.data())
def test_nearest_is_the_first_least_row_entry_on_both_backends(cloud, data):
    """Positions as the row scan picks them (ties to the smaller id, then
    the earlier position), distances as the rows and the brute minimum
    give them, with no radius, one that covers every point, one that
    covers none and one between; a tiny budget makes many blocks."""
    ids, coords, weights = cloud
    n = len(ids)
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    twin = MetricMeasureSpace.from_matrix(ids, space.distance_matrix(), weights)
    cand = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    points = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=int)
    radius = data.draw(st.sampled_from([None, 2 * space.diameter() + 1, 0.0, 0.7]))
    budget = data.draw(st.sampled_from([_PAIR_BUDGET, 1, 5]))
    want_pos = nearest_rows(space, cand)[points]
    want_dist = [float(space.dists_from(int(cand[j]))[p]) for j, p in zip(want_pos, points)]
    brute = dist_to_set_brute(space, [ids[k] for k in np.unique(cand)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_module, "_PAIR_BUDGET", budget)
        for s in (space, twin):
            pos, dist = s.nearest(points, cand, radius)
            assert pos.tolist() == want_pos.tolist()
            assert bits(dist) == bits(want_dist) == bits([brute[p] for p in points])


def test_nearest_refuses_an_empty_candidate_set():
    coords = np.array([[0.0], [1.0]])
    space = MetricMeasureSpace.from_coords([4, 7], coords, np.ones(2))
    twin = MetricMeasureSpace.from_matrix([4, 7], space.distance_matrix(), np.ones(2))
    for s in (space, twin):
        for radius in (None, 2.0):
            with pytest.raises(DegenerateInputError, match="candidate set is empty"):
                s.nearest([0, 1], [], radius)


@given(clouds(), st.booleans(), st.data())
def test_a_coordinate_space_stays_on_its_formula(cloud, serve_matrix, data):
    """Serving distance_matrix() stores nothing: rows, neighbours and
    masses still come from the coordinates."""
    ids, coords, weights = cloud
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    if serve_matrix:
        space.distance_matrix()
    expected = np.array([[axis_order_distance(a, b) for b in coords] for a in coords])
    pool = [*np.unique(expected), 0.05, 1.3, 10.0]
    r = data.draw(st.sampled_from([x for x in pool if x > 0]))
    levels = weight_levels(weights)
    for k in range(len(ids)):
        assert space.dists_from(k).tolist() == expected[k].tolist()
        mass = mass_of(levels, np.flatnonzero(expected[k] < r))
        assert space.ball_masses([k], [r]).tolist() == [[mass]]
    q, j, d = space.neighbors(np.arange(len(ids)), r)
    assert np.all(np.diff(q) >= 0)  # grouped by query; sorted by (q, j) below
    order = np.lexsort((j, q))
    q, j, d = q[order], j[order], d[order]
    assert np.array_equal(np.stack([q, j]), np.nonzero(expected < r))
    assert d.tolist() == expected[expected < r].tolist()
    assert space._matrix is None


@given(clouds(), st.booleans(), st.data())
def test_mass_cache_does_not_depend_on_call_order(cloud, equal, data):
    """One space is asked a mass table first, so a radius below
    ``2 * min_gap`` comes before the summary; the other is asked the
    doubling estimate and the mass check first.  Both backends, equal
    and unequal weights; the index list is unordered, repeats and may be
    a subset; every entry is the oracle's mass of the row mask, bit for
    bit."""
    ids, coords, weights = cloud
    if equal:
        weights = np.full(len(ids), 0.5)
    matrix = MetricMeasureSpace.from_coords(ids, coords, weights).distance_matrix()
    gap = np.unique(matrix)[1] if matrix.any() else 1.0
    radii = [gap / 2, gap, 3 * gap, 0.6]
    idx = data.draw(st.lists(st.integers(0, len(ids) - 1), min_size=1))
    levels = weight_levels(weights)
    want = [[mass_of(levels, np.flatnonzero(matrix[k] < r)) for r in radii] for k in idx]
    cls = MetricMeasureSpace
    for build, source in ((cls.from_coords, coords), (cls.from_matrix, matrix)):
        first, second = build(ids, source, weights), build(ids, source, weights)
        early = bits(first.ball_masses(idx, radii))
        mass_check, doubling = _mass_check(first, ids), _doubling(first)
        assert _doubling(second) == doubling
        assert _mass_check(second, ids) == mass_check
        assert bits(second.ball_masses(idx, radii)) == early == bits(want)


def test_pipeline_grids_reuse_cached_rows():
    """After the doubling estimate, the budget's mass check and
    dist_to_set over every point compute no rows."""
    space, _ = generate(GeneratorSpec("circle", 300))
    gap, diam = space.min_gap(), space.diameter()
    doubling_estimate(space, dyadic_radii(2 * gap, diam / 2))
    calls = []
    original = space.dists_from
    space.dists_from = lambda k: calls.append(k) or original(k)
    enclosing_target(space)
    linear_mass_check(space, space.ids, 2 * gap, diam / 4)
    assert dist_to_set(space, space.ids).tolist() == [0.0] * len(space)
    assert calls == []


@pytest.mark.parametrize("d", [1, 2, 3])
def test_doubling_counts_one_mask_per_distinct_radius(d):
    rng = np.random.default_rng(d)
    space = MetricMeasureSpace.from_coords(range(30), rng.random((30, d)), np.ones(30))
    radii = dyadic_radii(0.05, 0.4)
    doubling_estimate(space, radii)
    assert sorted(space._masses) == sorted({*radii, *(2 * r for r in radii)})
    assert len(space._masses) == len(radii) + 1


# weights whose sums round differently in different orders
INEXACT = (0.0, 0.1, 0.3, 0.7, 1.0 / 3.0)


@given(clouds(masses=INEXACT), st.data())
def test_doubling_estimate_is_the_first_largest_ratio_of_a_scan(cloud, data):
    """Repeated radii, radii equal to a distance, skipped pairs and tied
    ratios, with equal and unequal weights, on both backends."""
    ids, coords, weights = cloud
    if data.draw(st.booleans()):  # every weight equal
        w0 = data.draw(st.sampled_from([0.1, 1.0 / 3.0, 2.0]))
        weights = np.full(len(ids), w0)
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    twin = MetricMeasureSpace.from_matrix(ids, space.distance_matrix(), weights)
    pool = [*np.unique(space.distance_matrix())[1:], 0.05, 0.6, 3.0]
    radii = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    for s in (space, twin):
        est = doubling_estimate(s, radii)
        assert doubling_scan(s, radii) == (
            est.c_hat, est.evaluated, est.skipped, est.worst_center, est.worst_radius
        )


def test_doubling_estimate_rejects_a_nan_radius():
    space = MetricMeasureSpace.from_coords(range(3), np.eye(3), np.ones(3))
    with pytest.raises(ParameterError, match="positive"):
        doubling_estimate(space, [0.5, math.nan])


def stacked_line(base: int, stacks: dict, w0: float) -> tuple:
    """(ids, coords, weights): one point at each of 0, 1, ..., base - 1,
    except that position p holds ``stacks[p]`` coincident points; every
    weight is ``w0``."""
    xs = [float(p) for p in range(base) for _ in range(stacks.get(p, 1))]
    n = len(xs)
    return list(range(n)), np.array(xs)[:, None], np.full(n, w0)


def bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# numpy's pairwise sum adds the first 7 values one by one, runs 8 lanes
# up to 128 values and splits larger arrays in halves; a reduction may
# also be cut into buffers of 8192.  A ball mass is checked on each side
# of every edge, by a row (centre 0, one point per position) and by a
# small radius (0.5 and 1.5 around a stack): whatever numpy would do
# there, the mass is the oracle's and does not move when its points are
# summed in another order.
EDGES = (7, 8, 9, 127, 128, 129)


def assert_order_free_masses(space, levels, centres, radii) -> set:
    """Each centre's masses are the oracle's, and :meth:`mass` of the
    same members reversed or shuffled gives the same bits; returns the
    ball sizes seen."""
    rng = np.random.default_rng(0)
    sizes = set()
    for k in centres:
        row = space.dists_from(k)
        members = [np.flatnonzero(row < r) for r in radii]
        want = [mass_of(levels, m) for m in members]
        assert bits(space.ball_masses([k], radii)[0]) == bits(want)
        for m, mass in zip(members, want):
            assert space.mass(m[::-1]) == space.mass(rng.permutation(m)) == mass
        sizes |= {len(m) for m in members}
    return sizes


@pytest.mark.parametrize("w0", [0.1, 1.0 / 3.0])
def test_equal_weight_masses_are_the_gathered_sums_at_pairwise_sum_edges(w0):
    ids, coords, weights = stacked_line(
        400, {200 + 20 * i: k for i, k in enumerate(EDGES)}, w0
    )
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    twin = MetricMeasureSpace.from_matrix(ids, space.distance_matrix(), weights)
    levels = weight_levels(weights)
    row_radii = [k - 0.5 for k in EDGES]
    ends = (0, len(space) - 1)
    for s in (space, twin):
        assert s.min_gap() == 1.0
        assert_order_free_masses(s, levels, range(len(s)), [0.5, 1.5])
        assert_order_free_masses(s, levels, ends, row_radii)
    radii = [0.5, 1.5, *row_radii]
    assert bits(space.ball_masses(np.arange(len(space)), radii)) == bits(
        twin.ball_masses(np.arange(len(space)), radii)
    )
    sizes = {np.count_nonzero(space.dists_from(0) < r) for r in row_radii}
    first = np.searchsorted(coords[:, 0], [200 + 20 * i for i in range(len(EDGES))])
    stacked = [np.count_nonzero(space.dists_from(k) < 0.5) for k in first]
    assert sizes == set(EDGES) and tuple(stacked) == EDGES
    # a pairwise and a running sum of the same weights differ at some size
    running = np.cumsum(np.full(max(EDGES), w0))
    assert any(np.full(k, w0).sum() != running[k - 1] for k in EDGES)


@pytest.mark.parametrize("w0", [0.1, 1.0 / 3.0])
def test_equal_weight_masses_of_balls_past_8192_points(w0):
    """Coordinates only: a distance matrix of 9,199 points would take
    677 MB."""
    ids, coords, weights = stacked_line(1000, {500: 8200}, w0)
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    assert len(space) == 9199 and space.min_gap() == 1.0
    stack = int(np.searchsorted(coords[:, 0], 500.0))
    radii = [0.5, 1.5, 450.0, 600.0, 1000.0]
    centres = (0, 1, stack, stack + 8199, len(space) - 1)
    sizes = assert_order_free_masses(space, weight_levels(weights), centres, radii)
    assert {8200, 8202, 8799, 9098, 9199} <= sizes
    assert space.ball_masses([0], [1000.0])[0, 0] == space.total_mass
    big = [k for k in sizes if k > 8192]
    running = np.cumsum(np.full(max(big), w0))
    assert any(np.full(k, w0).sum() != running[k - 1] for k in big)


@given(clouds(masses=INEXACT, sizes=(1, 40)), st.data())
def test_masses_do_not_depend_on_the_order_of_points_or_the_backend(cloud, data):
    """The points listed in another order, under other ids, and asked
    in another order of the index array; and the matrix twin: every
    ball mass, subset mass and the total are the same bits."""
    ids, coords, weights = cloud
    n = len(ids)
    perm = np.array(data.draw(st.permutations(range(n))))
    new_ids = data.draw(st.permutations(ids))
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    moved = MetricMeasureSpace.from_coords(new_ids, coords[perm], weights[perm])
    twin = MetricMeasureSpace.from_matrix(ids, space.distance_matrix(), weights)
    where = np.argsort(perm)  # point k of space is point where[k] of moved
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1)))
    shuffled = np.array(data.draw(st.permutations(range(len(idx)))))
    dists = np.unique(space.distance_matrix())
    radii = [*dists[1:], *np.nextafter(dists, math.inf), 100.0]
    table = bits(space.ball_masses(idx, radii))
    assert bits(moved.ball_masses(where[idx], radii)) == table
    assert bits(twin.ball_masses(idx, radii)) == table
    assert bits(space.ball_masses(idx[shuffled], radii)) == [table[a] for a in shuffled]
    members = np.unique(idx)
    mass = space.mass(members)
    assert mass == space.mass(members[::-1]) == moved.mass(where[members])
    assert mass == twin.mass(members) == mass_of(weight_levels(weights), members)
    assert space.total_mass == moved.total_mass == twin.total_mass


@given(clouds(masses=INEXACT, sizes=(1, 40)), st.data())
def test_group_masses_are_the_masses_of_the_groups(cloud, data):
    """One to three rows of groups, as a cube tree's levels: row ``r``
    puts every point in one of its own groups ``r * k .. r * k + k - 1``,
    some of them empty.  Each group's mass is the :meth:`mass` of its
    points and the oracle's, bit for bit."""
    ids, coords, weights = cloud
    n = len(ids)
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    k = data.draw(st.integers(1, 6))
    rows = data.draw(st.integers(1, 3))
    group = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    groups = np.array(data.draw(st.lists(group, min_size=rows, max_size=rows)))
    groups += k * np.arange(rows)[:, None]
    masses = space.group_masses(groups, rows * k)
    levels = weight_levels(weights)
    for g in range(rows * k):
        members = np.flatnonzero(groups[g // k] == g)
        assert bits(masses[g]) == bits(space.mass(members))
        assert bits(masses[g]) == bits(mass_of(levels, members))


def test_tiny_and_zero_weights_keep_their_mass():
    """Weights from 1e-300 to 1 beside zeros: the parts are the
    oracle's levels and add up to each weight; a ball holding only tiny
    weights has a positive mass, one holding only zero weights has none,
    and the ball over every point is the total."""
    weights = np.array([1.0, 0.0, 1e-300, 3e-300, 5e-324, 0.0, 1e-200, 0.1])
    coords = np.array([0.0, 10.0, 20.0, 20.5, 21.0, 30.0, 40.0, 50.0])[:, None]
    levels = weight_levels(weights)
    for space in (
        MetricMeasureSpace.from_coords(range(8), coords, weights),
        MetricMeasureSpace.from_matrix(
            range(8), np.abs(coords - coords.T), weights
        ),
    ):
        assert space._parts.T.tolist() == levels
        assert [math.fsum(p) for p in space._parts] == weights.tolist()
        masses = space.ball_masses([2, 1, 6, 0], [0.4, 1.5, 100.0])
        assert masses[0].tolist() == [1e-300, mass_of(levels, [2, 3, 4]), space.total_mass]
        assert 0 < 1e-300 < masses[0, 1] and masses[1, :2].tolist() == [0.0, 0.0]
        assert masses[2, 0] == 1e-200 and masses[3, 0] == 1.0
        assert space.total_mass == mass_of(levels, range(8)) == math.fsum(weights)
    with pytest.raises(ParameterError, match="below 2"):
        MetricMeasureSpace.from_coords(range(2), np.zeros((2, 1)), np.array([1e308, 1.0]))


def test_the_split_does_not_depend_on_the_order_of_the_weights():
    """numpy sums 0.1, 0.2, 0.3, 0.4 to 1 and the reverse to just below
    1: a split whose unit followed such a sum would cut the same weight
    differently in the two orders."""
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    assert weights.sum() == 1.0 > weights[::-1].sum()
    coords = np.arange(4.0)[:, None]
    space = MetricMeasureSpace.from_coords(range(4), coords, weights)
    moved = MetricMeasureSpace.from_coords(range(4), coords[::-1], weights[::-1])
    assert space._parts.tolist() == moved._parts[::-1].tolist()
    assert space._parts.T.tolist() == weight_levels(weights)


def test_a_mass_adds_its_level_sums_in_level_order():
    """Weights 1, 2**-53 and 2**-104 take one level each.  In level
    order 1 + 2**-53 ties to 1, and 2**-104 then changes nothing; the
    smallest first would carry past the tie (as math.fsum does) to the
    next float up.  Every mass, on both backends, is the first."""
    weights = np.array([1.0, 2.0**-53, 2.0**-104])
    levels = weight_levels(weights)
    assert len(levels) == 3 and math.fsum(weights) == 1.0 + 2.0**-52
    for space in (
        MetricMeasureSpace.from_coords(range(3), np.zeros((3, 1)), weights),
        MetricMeasureSpace.from_matrix(range(3), np.zeros((3, 3)), weights),
    ):
        assert space._parts.T.tolist() == levels
        assert space.ball_masses([0, 2], [1.0]).tolist() == [[1.0], [1.0]]
        assert space.total_mass == space.mass([2, 1, 0]) == mass_of(levels, range(3)) == 1.0


def _cell_pass_matches_the_rows(space, radii) -> None:
    """On fresh spaces of both backends, with the equal weights of
    ``space`` and with unequal ones: mass tables asked before the
    summary, first over a subset, then over every point unordered and
    with repeats, and with radii below ``2 * min_gap`` among the rest.
    Every entry is the oracle's mass of the row mask, bit for bit.  Then the summary
    and what is read from it, and the eccentricities over every point
    but one (past _CELL points, a subset with a cell tree of its own),
    against the rows."""
    ids, coords, n = space.ids, space.coords, len(space)
    rows = [space.dists_from(k) for k in range(n)]
    ecc, gap = summary_rows(space)
    members = np.arange(1, n)
    member_ecc = [rows[k][members].max() for k in members]
    radii = [*radii, gap / 2, gap] if gap > 0 else list(radii)
    subset = np.arange(n)[::-2]
    every = np.concatenate([np.arange(n)[::-1], subset])
    unequal = space.weights * (1 + np.arange(n) % 3)
    for weights in (space.weights, unequal):
        fresh = MetricMeasureSpace.from_coords(ids, coords, weights)
        twin = MetricMeasureSpace.from_matrix(ids, space.distance_matrix(), weights)
        levels = weight_levels(weights)
        for s in (fresh, twin):
            for idx in (subset, every):
                want = [
                    [mass_of(levels, np.flatnonzero(rows[k] < r)) for r in radii]
                    for k in idx
                ]
                assert bits(s.ball_masses(idx, radii)) == bits(want)
            assert s.summary()[0].tolist() == ecc
            assert s.min_gap() == gap and s.diameter() == max(ecc)
            assert enclosing_target(s).xi0 == basepoint_brute(s, ids)
            if n > 1:
                assert s.eccentricities(members).tolist() == member_ecc
                sub = [ids[k] for k in members]
                assert enclosing_target(s, sub).xi0 == basepoint_brute(s, sub)
            est = doubling_estimate(s, radii)
            assert doubling_scan(s, radii) == (
                est.c_hat, est.evaluated, est.skipped,
                est.worst_center, est.worst_radius,
            )


@given(clouds(dims=(1, 2, 3), sizes=(1, 160)), st.data())
def test_cell_pass_gives_the_row_masses_and_summary(cloud, data):
    """Past _CELL points the median splits make a tree of several
    leaves, and a location holding many coincident points is a leaf
    larger than _CELL."""
    ids, coords, _ = cloud
    w0 = data.draw(st.sampled_from([0.1, 1.0 / 3.0, 2.0]))
    space = MetricMeasureSpace.from_coords(ids, coords, np.full(len(ids), w0))
    dists = np.unique(space.distance_matrix())[1:]
    # a distance itself, and the next float up, which the distance is below
    pool = [*dists, *np.nextafter(dists, math.inf), 0.05, 0.6, 3.0, 100.0]
    radii = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    _cell_pass_matches_the_rows(space, radii)


@pytest.mark.parametrize(
    "coords", [np.zeros((1, 2)), np.zeros((70, 2))], ids=["one point", "one location"]
)
def test_cell_pass_without_a_positive_distance(coords):
    weights = np.full(len(coords), 0.1)
    space = MetricMeasureSpace.from_coords(range(len(coords)), coords, weights)
    _cell_pass_matches_the_rows(space, [0.5, 1.0])


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "xs",
    [[0.0] * 70, [0.0] * 70 + [1e-9] * 70 + [3e-9] * 70 + [1.0]],
    ids=["one location", "stacks closer than the pad"],
)
def test_least_gap_when_no_cell_holds_a_positive_distance(xs, d):
    """Every cell is one location, so the first pass finds no distance;
    the stacks 1e-9 apart are not apart by their boxes (the pad is 1e-6),
    and the least gap comes from the neighbour query alone."""
    coords = np.zeros((len(xs), d))
    coords[:, -1] = xs
    space = MetricMeasureSpace.from_coords(range(len(xs)), coords, np.full(len(xs), 0.1))
    tree = space._tree()
    assert tree.spot[tree.leaf].all()
    matrix = space.distance_matrix()
    positive = matrix[matrix > 0]
    want = float(positive.min()) if positive.size else 0.0
    twin = MetricMeasureSpace.from_matrix(range(len(xs)), matrix, space.weights)
    assert space.min_gap() == twin.min_gap() == want


def test_cell_blocks_stay_within_the_pair_budget(pair_evals):
    """A leaf of 8,200 coincident points: the summary and the doubling
    masses still compute at most _PAIR_BUDGET distances per block, the
    stack cut into pieces of at most _CELL points; the eccentricities,
    the least gap and the masses each traverse the cell tree."""
    ids, coords, weights = stacked_line(1000, {500: 8200}, 0.1)
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    tree = space._tree()
    assert (tree.stop - tree.start)[tree.leaf].max() == 8200
    assert tree.width <= _CELL
    gap, diam = space.min_gap(), space.diameter()
    doubling_estimate(space, dyadic_radii(2 * gap, diam / 2))
    assert set(pair_evals) == {
        "MetricMeasureSpace._tree_eccentricities",
        "MetricMeasureSpace._tree_gap",
        "MetricMeasureSpace._tree_sums",
    }
    blocks = [p for calls in pair_evals.values() for p in calls]
    # the stack's rows against the points beside it pass the budget
    assert max(blocks) <= _PAIR_BUDGET < sum(pair_evals["MetricMeasureSpace._tree_sums"])


@given(clouds(dims=(1, 2, 3), sizes=(1, 300)), st.data())
def test_cells_partition_the_points_and_keep_each_location_whole(cloud, data):
    """The cell tree of every point, and of a member subset: the root
    holds them all, each node's two children split its points in two,
    the leaves partition them, a leaf holds more than _CELL points only
    when they all coincide, no location is in two leaves, and each box
    is its node's extent."""
    ids, coords, weights = cloud
    n = len(ids)
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    members = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    # adding 0.0 turns -0.0 into 0.0, the same location
    _, location = np.unique(coords + 0.0, axis=0, return_inverse=True)
    location = location.reshape(-1)
    for points, tree in [(np.arange(n), space._tree()), (members, space._tree(members))]:
        assert np.array_equal(np.sort(tree.order), points)
        assert (tree.start[0], tree.stop[0]) == (0, len(points))
        inner = np.flatnonzero(~tree.leaf)
        left, right = tree.child[inner], tree.child[inner] + 1
        assert np.array_equal(tree.start[left], tree.start[inner])
        assert np.array_equal(tree.stop[left], tree.start[right])
        assert np.array_equal(tree.stop[right], tree.stop[inner])
        assert np.all(tree.start[left] < tree.stop[left])
        assert np.all(tree.start[right] < tree.stop[right])
        for v in range(tree.count):
            x = coords[tree.order[tree.start[v] : tree.stop[v]]]
            assert np.array_equal(tree.lo[v], x.min(axis=0))
            assert np.array_equal(tree.hi[v], x.max(axis=0))
            if tree.leaf[v]:
                assert len(x) <= _CELL or np.all(x == x[0])
        leaves = np.flatnonzero(tree.leaf)
        sizes = tree.stop[leaves] - tree.start[leaves]
        assert sizes.sum() == len(points)
        at = np.concatenate([np.arange(tree.start[v], tree.stop[v]) for v in leaves])
        leaf_of = np.repeat(leaves, sizes)
        pairs = np.unique(np.stack([location[tree.order[at]], leaf_of]), axis=1)
        assert len(np.unique(pairs[0])) == pairs.shape[1]


@st.composite
def tree_clouds(draw):
    """(coords, weights): lattice points (exact distance ties) in one or
    three axes, from one point up, with zero and unequal weights, and
    sometimes a stack of ten leaves' worth of coincident points."""
    d = draw(st.sampled_from([1, 3]))
    n = draw(st.integers(1, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.integers(1, 12))
    coords = 0.25 * rng.integers(-side, side + 1, size=(n, d)).astype(float)
    if draw(st.booleans()):
        coords = np.concatenate([coords, np.repeat(coords[:1], 10 * _CELL, axis=0)])
    weights = rng.choice([0.0, 0.1, 1.0 / 3.0, 2.0], size=len(coords))
    assume(weights.sum() > 0)
    return coords, weights


@given(tree_clouds(), st.data())
def test_cell_tree_gives_the_oracles_masses_summary_and_neighbours(cloud, data):
    """Ball masses, the summary, eccentricities over a member subset and
    a neighbour query, all read from the cell tree, are the oracles'
    bit for bit, and no block of distances passes _PAIR_BUDGET."""
    coords, weights = cloud
    n = len(coords)
    space = MetricMeasureSpace.from_coords(range(n), coords, weights)
    rows = [space.dists_from(k) for k in range(n)]
    dists = np.unique(np.stack(rows))[1:]
    pool = [*dists, *np.nextafter(dists, math.inf), 0.1, 100.0]
    radii = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    members = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    r = data.draw(st.sampled_from(pool))
    query = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    blocks = []
    original = MetricMeasureSpace._pair_dists

    def counted(self, rows, cols):
        blocks.append(np.broadcast(rows, cols).size)
        return original(self, rows, cols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MetricMeasureSpace, "_pair_dists", counted)
        ecc, gap = space.summary()
        masses = space.ball_masses(np.arange(n), radii)
        member_ecc = space.eccentricities(members)
        q, j, d = space.neighbors(query, r)
    assert max(blocks, default=0) <= _PAIR_BUDGET
    assert (ecc.tolist(), gap) == summary_rows(space)
    levels = weight_levels(weights)
    want = [[mass_of(levels, np.flatnonzero(row < c)) for c in radii] for row in rows]
    assert bits(masses) == bits(want)
    assert member_ecc.tolist() == [rows[k][members].max() for k in members]
    pairs = [(a, b) for a, k in enumerate(query) for b in np.flatnonzero(rows[k] < r)]
    assert np.all(np.diff(q) >= 0)  # grouped by query; sorted by (q, j) below
    order = np.lexsort((j, q))
    q, j, d = q[order], j[order], d[order]
    assert list(zip(q.tolist(), j.tolist())) == pairs
    assert bits(d) == bits([rows[query[a]][b] for a, b in pairs])


@st.composite
def lattice_clouds(draw):
    """70 to 400 points on multiples of 0.25 in one or two axes: several
    cells, coincident points and exact distance ties."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(70, 400))
    side = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return 0.25 * rng.integers(-side, side + 1, size=(n, d)).astype(float)


@given(lattice_clouds(), st.sampled_from([1, 2, 5]), st.data())
def test_cell_pass_holds_when_the_boxes_round_by_half_the_pad(coords, step, data):
    """Box bounds rounded inward by half the pad, the worst the pad
    allows for, still give the rows' summary, eccentricities over a
    subset and masses: a rule that drops its pads fails."""
    n = len(coords)
    weights = 0.1 * (1 + np.arange(n) % 3)
    space = MetricMeasureSpace.from_coords(range(n), coords, weights)
    rows = [space.dists_from(k) for k in range(n)]
    ecc, gap = summary_rows(space)
    members = np.arange(1, n, step)
    member_ecc = [rows[k][members].max() for k in members]
    dists = np.unique(np.stack(rows))[1:]
    pool = [*dists, *np.nextafter(dists, math.inf), 100.0]
    radii = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    levels = weight_levels(weights)
    want = [[mass_of(levels, np.flatnonzero(row < r)) for r in radii] for row in rows]
    half, box_bounds = space._pad / 2, space_module._box_bounds

    def rounded(*boxes):
        mind, maxd = box_bounds(*boxes)
        return mind + half, np.maximum(maxd - half, 0.0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_module, "_box_bounds", rounded)
        assert space.summary()[0].tolist() == ecc
        assert space.min_gap() == gap
        assert space.eccentricities(members).tolist() == member_ecc
        assert bits(space.ball_masses(np.arange(n), radii)) == bits(want)


NO_BRIDGES = Bridges(
    pairs=np.empty((0, 2), dtype=np.int64),
    length=np.empty(0),
    cube=np.empty(0, dtype=np.int64),
    pairs_per_cube={},
    skipped=(),
)


@pytest.mark.parametrize("shift", [0.0, 0.5], ids=["exact boxes", "boxes rounded by half the pad"])
@given(lattice_clouds(), st.data())
def test_the_forest_walk_gives_the_oracles_forest(shift, coords, data):
    """The curve's ε-forest, in Borůvka rounds over ``boruvka_rounds``, is
    the Kruskal oracle's edge for edge and bit for bit on both backends:
    a member subset of a lattice with exact ties and coincident stacks,
    ``eps_res`` a distance or the next float above one.  On coordinates
    the walk also holds with box bounds rounded inward by half the pad,
    the worst the pad allows for."""
    n = len(coords)
    weights = 0.1 * (1 + np.arange(n) % 3)
    space = MetricMeasureSpace.from_coords(range(n), coords, weights)
    matrix = space.distance_matrix()
    twin = MetricMeasureSpace.from_matrix(range(n), matrix, weights)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    share = data.draw(st.sampled_from([1.0, 0.7, 0.3]))
    members = np.flatnonzero(rng.random(n) < share)
    assume(len(members))
    members = tuple(members.tolist())
    dists = np.unique(matrix)[1:]
    eps = float(data.draw(st.sampled_from([*dists, *np.nextafter(dists, math.inf)])))
    want = adjacency_forest_rows(space, members, eps)
    target = TargetSet(members=members, xi0=members[0])
    half, box_bounds = shift * space._pad, space_module._box_bounds

    def rounded(*boxes):
        mind, maxd = box_bounds(*boxes)
        return mind + half, np.maximum(maxd - half, 0.0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_module, "_box_bounds", rounded)
        for s in (space, twin):
            graph = assemble_gamma(s, target, NO_BRIDGES, eps)
            assert graph.src.tolist() == [a for a, _, _ in want]
            assert graph.dst.tolist() == [b for _, b, _ in want]
            assert bits(graph.length) == bits([d for _, _, d in want])


@pytest.mark.parametrize("d, eps", [(1, 0.002), (1, 0.005), (2, 0.02), (2, 0.05)])
def test_the_matrix_forest_is_the_coordinate_forest_over_many_rounds(d, eps):
    """The curve's ε-forest on a matrix, whose later Borůvka rounds read
    only the rows of the points that still had an entry below ``eps``
    into another component, is the forest on coordinates edge for edge
    and bit for bit: 600 random points with shuffled ids, where a point's
    entries into other components may all lie in rows before its own."""
    rng = np.random.default_rng(3)
    coords = rng.random((600, d))
    ids = rng.permutation(600).tolist()
    space = MetricMeasureSpace.from_coords(ids, coords, np.ones(600))
    twin = MetricMeasureSpace.from_matrix(ids, space.distance_matrix(), space.weights)
    members = tuple(sorted(ids))
    target = TargetSet(members=members, xi0=members[0])
    want = assemble_gamma(space, target, NO_BRIDGES, eps)
    got = assemble_gamma(twin, target, NO_BRIDGES, eps)
    assert got.src.tolist() == want.src.tolist() and got.dst.tolist() == want.dst.tolist()
    assert bits(got.length) == bits(want.length)


def near_tie_cloud(d: int, mirror: bool) -> tuple[np.ndarray, float, float]:
    """(coords, least gap g, in-leaf distance g') along one axis: stacks
    of ``_CELL + 1`` points at 0, 20 + h and 21, and a leaf of two
    stacks of ``_CELL / 2`` points g' apart at 10, with g = 1 - h < g'
    < g + pad/2.  Two different distances within a pad of each other,
    in different leaves: the least gap between two stack leaves, g'
    inside a leaf."""
    pad = 1e-6 * 21.0  # the space's pad: its extent is 21 on one axis
    h, spread = 0.3 * pad, 1.0 - 0.1 * pad
    stack, half = _CELL + 1, _CELL // 2
    x = np.repeat(
        [0.0, 10.0, 10.0 + spread, 20.0 + h, 21.0], [stack, half, half, stack, stack]
    )
    if mirror:
        x = 21.0 - x
    coords = np.zeros((len(x), d))
    coords[:, d - 1] = x
    return coords, 1.0 - h, spread


@pytest.mark.parametrize("fraction", [0.5, 0.9])
@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("d", [1, 2])
def test_least_gap_search_holds_when_two_distances_lie_within_a_pad(d, mirror, fraction):
    """Box bounds rounded inward by half and by 0.9 of the pad still
    give the least gap and the eccentricities of the rows.  The least
    gap is 0.3 pad below a distance between two other leaves and 0.2
    pad below one inside a leaf, so a search whose near-pair rule drops
    its pad stops at the leaf's distance, and one whose bound drops its
    pad (caught at 0.9 only: at half a pad it cannot change an answer)
    searches no leaf pair at all."""
    coords, g, spread = near_tie_cloud(d, mirror)
    n = len(coords)
    space = MetricMeasureSpace.from_coords(range(n), coords, np.full(n, 0.1))
    ecc, gap = summary_rows(space)
    assert gap == space.dists_from(n - 1)[n - 1 - (_CELL + 1)]  # the stacks at 20 + h, 21
    assert math.isclose(gap, g, rel_tol=1e-12) and g < spread < g + space._pad / 2
    tree = space._tree()
    assert sorted((tree.stop - tree.start)[tree.leaf]) == [_CELL] + [_CELL + 1] * 3
    shift, box_bounds = fraction * space._pad, space_module._box_bounds

    def rounded(*boxes):
        mind, maxd = box_bounds(*boxes)
        return mind + shift, np.maximum(maxd - shift, 0.0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_module, "_box_bounds", rounded)
        assert space.min_gap() == gap
        assert space.summary()[0].tolist() == ecc


@given(clouds(masses=INEXACT), st.data())
def test_density_profiles_and_strata_are_open_ball_masks(cloud, data):
    ids, coords, weights = cloud
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    matrix = MetricMeasureSpace.from_coords(ids, coords, weights).distance_matrix()
    twin = MetricMeasureSpace.from_matrix(ids, matrix, weights)
    r_hi = data.draw(st.sampled_from([20.0, 7.0, 2.5, 1.0]))
    r_lo = r_hi / data.draw(st.sampled_from([300.0, 40.0, 1.5]))
    members = data.draw(st.lists(st.sampled_from(ids), unique=True))
    j = data.draw(st.sampled_from([1, 2, 4, 16]))
    k = data.draw(st.sampled_from([1, 2, 8]))
    levels = weight_levels(weights)
    for s in (space, twin):
        for pid in ids:
            row = matrix[s.index_of(pid)]
            profile = density_profiles(s, [pid], r_lo, r_hi)
            assert profile.ratios[0].tolist() == [
                mass_of(levels, np.flatnonzero(row < r)) / r for r in profile.radii
            ]
        try:
            want = stratify_brute(s, members, j, k)
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError, match="resolution scale"):
                stratify(s, members, j, k)
        else:
            assert stratify(s, members, j, k) == want


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec("circle", 300),
        GeneratorSpec("interval", 200, params={"holes": [(0.4, 0.6)]}),
        GeneratorSpec("cascade", 4),
    ],
    ids=lambda spec: spec.kind,
)
def test_density_stage_adds_only_radii_below_the_doubling_grid(spec):
    cfg = RunConfig(kind=spec.kind, resolution=spec.resolution, params=spec.params)
    ctx = run_stages(cfg, ("load", "doubling"))[0]
    space = ctx.space
    before = set(space._masses)
    density = next(row[2] for row in STAGES if row[0] == "density")
    density(ctx)
    radii = set(ctx.profiles.radii)
    added = set(space._masses) - before
    assert added == {r for r in radii if r < 2 * space.min_gap()}
    assert 0 < len(added) <= 2
    assert radii - added <= before
