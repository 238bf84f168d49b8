"""The small-radius neighbour query and the stages built on it.

``MetricMeasureSpace.neighbors`` and ``dists_between`` must give exactly
the pairs and the bits of the full rows they replace, on both backends,
with duplicate points and with radii equal to a lattice distance.  Each
converted client is held to its row-based original in ``_oracles``,
witnesses and fallbacks included.  A default run computes no full
row, on coordinates or on a distance matrix, and no run imports scipy.
"""

import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rectilib
import rectilib.space as space_module
from _oracles import (
    adjacency_forest_rows,
    adjacency_rows,
    build_nets_chunks,
    build_nets_rows,
    c0_rows,
    cube_members,
    cube_members_rows,
    family_rows,
    find_porous_rows,
    graph_by_position,
    mass_of,
    verify_nets_rows,
    weight_levels,
)
from rectilib.cubes import build_cubes
from rectilib.curve import (
    ADJACENCY,
    assemble_gamma,
    build_bridges,
    parametrize,
)
from rectilib.errors import DisconnectedError
from rectilib.generators import GeneratorSpec, generate
from rectilib.nets import NetHierarchy, auto_levels, build_nets, verify_nets
from rectilib.pipeline import STAGES, RunConfig, run_stages
from rectilib.porosity import PorosityConfig, dist_to_set, find_porous
from rectilib.space import (
    Ball,
    MetricMeasureSpace,
    TargetSet,
    _ForestRounds,
    ball_members,
    doubling_estimate,
    dyadic_radii,
    enclosing_target,
)

# a coarse value pool makes duplicate points and distance ties common
VALUES = st.sampled_from([-3.5, -1.0, -0.3, 0.0, 0.25, 0.7, 1.0, 2.125, 6.0])


@st.composite
def clouds(draw, dims=(1, 2, 3), min_size=1):
    """(ids, coords, weights): shuffled ids, duplicates, zero weights."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(min_size, 30))
    pool = draw(
        st.lists(st.lists(VALUES, min_size=d, max_size=d), min_size=1, max_size=n)
    )
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    coords = np.array(rows, dtype=float).reshape(n, d)
    ids = draw(st.permutations(list(range(0, 3 * n, 3))))
    masses = st.sampled_from([0.0, 0.1, 0.3, 1.0 / 3.0])
    weights = np.array(draw(st.lists(masses, min_size=n, max_size=n)))
    weights[draw(st.integers(0, n - 1))] = 1.0  # positive total mass
    return ids, coords, weights


def both_backends(ids, coords, weights):
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    matrix = MetricMeasureSpace.from_coords(ids, coords, weights).distance_matrix()
    return space, MetricMeasureSpace.from_matrix(ids, matrix, weights)


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


def row_pairs(space, query_idx, r):
    """(q, j, d) from full rows: flatnonzero(row < r) per query, in order."""
    q, j, d = [], [], []
    for pos, k in enumerate(query_idx):
        row = space.dists_from(int(k))
        hit = np.flatnonzero(row < r)
        q.extend([pos] * len(hit))
        j.extend(hit.tolist())
        d.extend(row[hit].tolist())
    return np.array(q, dtype=np.intp), np.array(j, dtype=np.intp), np.array(d)


def assert_same_pairs(got, want):
    """``got``, an answer of ``neighbors``, holds ``want``'s pairs, which
    are sorted by ``(q, j)``: grouped by ascending ``q``, and the same
    pairs and bits once sorted."""
    assert np.all(np.diff(got[0]) >= 0)
    order = np.lexsort((got[1], got[0]))
    assert np.array_equal(got[0][order], want[0])
    assert np.array_equal(got[1][order], want[1])
    assert np.array_equal(bits(got[2][order]), bits(want[2]))


# -- the query itself ----------------------------------------------------


@given(clouds(), st.data())
def test_neighbors_and_sub_rows_equal_the_row_masks(cloud, data):
    ids, coords, weights = cloud
    n = len(ids)
    query = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    cols = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=n)), dtype=int)
    backends = both_backends(ids, coords, weights)
    # every pairwise distance is a radius: the open/closed ties
    dists = [*np.unique(backends[1].distance_matrix()), 0.5, 1e-9, 100.0]
    radii = data.draw(st.lists(st.sampled_from(dists), min_size=1, max_size=4))
    for space in backends:
        for r in radii:
            want = row_pairs(space, query, r)
            assert_same_pairs(space.neighbors(query, float(r)), want)
        for k in query:
            want = space.dists_from(k)[cols]
            assert np.array_equal(bits(space.dists_between(k, cols)), bits(want))


@pytest.mark.parametrize("kept_share", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("stacks", [False, True])
def test_kept_candidates_give_the_row_answers(stacks, kept_share):
    """An earlier query of part of the points (none, some, all) at radii
    from a few gaps to past the diameter, where a home is a node above
    the leaves, leaves candidate lists that give a later query the same
    bits, order included, as a space that builds them for that query
    itself, and those are the row answers.  With no earlier points the
    later query builds the lists.  Two stacks of coincident points make
    leaves, and so homes, at uneven depths, whose order by node differs
    from their order by slot."""
    curve, _ = generate(GeneratorSpec("lipschitz_curve", 3000))
    coords = curve.coords
    if stacks:
        coords = np.concatenate([coords, np.repeat(coords[[100, 2000]], [40, 25], axis=0)])
    n = len(coords)
    rng = np.random.default_rng(7)
    kept = rng.choice(n, int(kept_share * n), replace=False)
    query = np.sort(rng.choice(n, 120, replace=False))
    first, later = (MetricMeasureSpace.from_coords(range(n), coords, np.ones(n)) for _ in "ab")
    for r in (3 * first.min_gap(), 0.01, 0.07, 0.4, 2 * first.diameter()):
        later.neighbors(kept, r)
        assert (r in later._near) == bool(len(kept))
        got = first.neighbors(query, r)
        for x, y in zip(got, later.neighbors(query, r)):
            assert np.array_equal(bits(x), bits(y))
        assert_same_pairs(got, row_pairs(first, query, r))


def test_a_radius_walks_once_and_a_matrix_keeps_nothing(walks):
    """The first query at a radius walks the cell tree once and keeps
    its lists; a second query at that radius, of other points, walks
    none.  A matrix space answers from its rows and keeps no list."""
    coords = np.random.default_rng(2).random((500, 2))
    space, twin = both_backends(range(500), coords, np.ones(500))
    for s in (space, twin):
        s.neighbors(np.arange(0, 500, 2), 0.05)
    assert walks == {"_Candidates.__init__": 1}
    walks.clear()
    space.neighbors(np.arange(1, 500, 2), 0.05)
    assert not walks
    assert list(space._near) == [0.05] and not twin._near


@pytest.mark.parametrize(
    "spec",
    [GeneratorSpec("interval", 97), GeneratorSpec("grid2d", 9)],
    ids=lambda spec: spec.kind,
)
def test_lattice_distances_as_radii_flip_no_tie(spec):
    space, _ = generate(spec)
    twin = MetricMeasureSpace.from_matrix(
        space.ids, space.distance_matrix(), space.weights
    )
    fresh, _ = generate(spec)  # no cached matrix: the tree answers
    ties = np.unique(space.distance_matrix())[1:40]
    query = np.arange(len(space))
    for r in ties:
        want = row_pairs(fresh, query, r)
        assert_same_pairs(fresh.neighbors(query, float(r)), want)
        assert_same_pairs(twin.neighbors(query, float(r)), want)
        # r is a tie: points at exactly r are outside, one ulp more holds them
        wider = row_pairs(fresh, query, np.nextafter(r, np.inf))
        assert len(wider[0]) > len(want[0])


class RowReads(np.ndarray):
    """A view of a stored matrix that appends to ``reads`` how many rows
    each read takes."""

    def __getitem__(self, key):
        got = np.asarray(self)[key]
        self.reads.append(len(got) if got.ndim == 2 else 1)
        return got


def record_runs(patch, space) -> list:
    """What each run of a neighbour query asks, while ``patch`` lasts:
    on coordinates the row points of each ``_pair_dists`` call from
    ``neighbors``, on a matrix the row count of each stored-row read."""
    runs = []
    if space.coords is None:
        view = space._matrix.view(RowReads)
        view.reads = runs
        patch.setattr(space, "_matrix", view)
        return runs
    original = MetricMeasureSpace._pair_dists

    def recorded(self, rows, cols):
        if sys._getframe(1).f_code.co_name == "neighbors":
            runs.append(np.broadcast_arrays(rows, cols)[0].ravel())
        return original(self, rows, cols)

    patch.setattr(MetricMeasureSpace, "_pair_dists", recorded)
    return runs


def within_budget(space, runs, budget) -> bool:
    """Each run keeps the budget: a matrix reads at most ``budget // n``
    rows at once (one row at least), and on coordinates only a run whose
    rows are one query point computes more than ``budget`` distances."""
    if space.coords is None:
        return all(rows <= max(1, budget // len(space)) for rows in runs)
    return all(len(rows) <= budget or len(set(rows.tolist())) == 1 for rows in runs)


@given(clouds(), st.data())
def test_batches_stay_within_the_pair_budget(cloud, data):
    """A tiny budget cuts the queries into many runs; each keeps the
    budget, a matrix reads each query's row once, and the answer is the
    rows'."""
    ids, coords, weights = cloud
    n = len(ids)
    query = data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
    r = data.draw(st.sampled_from([0.3, 1.0, 4.0, 100.0]))
    budget = data.draw(st.sampled_from([1, 7, 40]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(space_module, "_PAIR_BUDGET", budget)
        for space in both_backends(ids, coords, weights):
            want = row_pairs(space, query, r)
            runs = record_runs(patch, space)
            assert_same_pairs(space.neighbors(query, r), want)
            assert within_budget(space, runs, budget)
            if space.coords is None:
                assert sum(runs) == len(query)


def test_one_point_queries_build_no_tree(monkeypatch):
    """Once the space's own cell tree exists, one-point queries and the
    net scan (which asks its lookahead of points at once) build no other
    tree, and give the row-based answers."""
    space, _ = generate(GeneratorSpec("circle", 400))
    space.neighbors([0], 0.1)  # the cell tree of every point, built once
    built = []
    original = space_module._CellTree

    def counted(*args, **kwargs):
        built.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(space_module, "_CellTree", counted)
    gap = space.min_gap()
    for k, r in [(0, 0.1), (7, gap), (7, gap * (1 + 1e-9)), (399, 0.5), (3, 5.0)]:
        assert_same_pairs(space.neighbors([k], r), row_pairs(space, [k], r))
    lo, hi = auto_levels(space, 0.5)
    h = build_nets(space, 0.5, lo, hi, seed_ids=[5])
    assert level_lists(h) == build_nets_rows(space, 0.5, lo, hi, seed_ids=[5])
    space.neighbors([0, 1], 0.1)
    assert built == []


def rounded_gaps(patch, space):
    """Box gaps rounded up by half the pad, the worst the pad allows
    for: a filter that drops its pad loses pairs just inside r."""
    half, gaps = space._pad / 2, space_module._gaps
    patch.setattr(space_module, "_gaps", lambda *boxes: gaps(*boxes) + half)


def tie_radii(space) -> list[float]:
    """Some distances of the space, each also one ulp above itself."""
    dists = np.unique(space.distance_matrix())[1:]
    dists = dists[:: max(1, len(dists) // 6)]
    return [*dists.tolist(), *np.nextafter(dists, np.inf).tolist(), 100.0]


@pytest.mark.parametrize("backend", ["coords", "matrix"])
def test_an_empty_query_or_a_zero_radius_finds_no_pair(backend):
    """No pair, typed as a full answer; a matrix still reads each query's
    row once, and on coordinates only query points are rows."""
    coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.5], [-0.0, 0.0]])
    space = both_backends(range(4), coords, np.ones(4))[backend == "matrix"]
    none = (np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)
    for query, r in [([], 1.0), ([], 0.0), ([3, 0, 0, 2, 1], 0.0)]:
        with pytest.MonkeyPatch.context() as patch:
            runs = record_runs(patch, space)
            got = space.neighbors(query, r)
        assert_same_pairs(got, none)
        assert got[0].dtype == got[1].dtype == np.intp and got[2].dtype == float
        if space.coords is None:
            assert sum(runs) == len(query)
        else:
            assert set(np.concatenate([[], *runs]).tolist()) <= set(query)


@pytest.mark.parametrize("backend", ["coords", "matrix"])
def test_a_stack_larger_than_a_cell_keeps_the_budget(backend):
    """_CELL + 36 coincident points make one oversized leaf beside a
    line of 40 points.  The answer is the rows', and a batch of more
    than one query computes at most _PAIR_BUDGET candidate pairs, in
    more than one run."""
    stack, budget = space_module._CELL + 36, 250
    coords = np.concatenate([np.full((stack, 2), 0.5), np.zeros((40, 2))])
    coords[stack:, 0] = np.arange(40) / 39
    n = len(coords)
    backends = both_backends(range(n), coords, np.ones(n))
    tree = backends[0]._tree()
    assert (tree.stop - tree.start)[tree.leaf].max() == stack
    space = backends[backend == "matrix"]
    query = np.random.default_rng(0).integers(0, n, size=2 * n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(space_module, "_PAIR_BUDGET", budget)
        if space.coords is not None:
            rounded_gaps(patch, space)
        for r in tie_radii(space):
            want = row_pairs(space, query, r)
            with pytest.MonkeyPatch.context() as recording:
                runs = record_runs(recording, space)
                assert_same_pairs(space.neighbors(query, r), want)
            assert len(runs) > 1
            assert within_budget(space, runs, budget)


@pytest.mark.parametrize("d", [3, 5])
def test_clouds_in_three_and_five_dimensions_give_the_row_masks(d):
    """A lattice cloud with duplicates: ties at every radius drawn."""
    rng = np.random.default_rng(d)
    coords = rng.integers(-3, 4, size=(300, d)) * 0.25
    coords[250:] = coords[:50]
    for space in both_backends(range(300), coords, np.ones(300)):
        query = rng.permutation(300)[:200]
        with pytest.MonkeyPatch.context() as patch:
            if space.coords is not None:
                rounded_gaps(patch, space)
            for r in tie_radii(space):
                assert_same_pairs(space.neighbors(query, r), row_pairs(space, query, r))


def test_coincident_points_share_one_small_ball(monkeypatch, row_calls):
    """298 coincident points make one leaf, whose box lies inside every
    ball around them: their small balls cost no distance among them,
    not 298 balls of 298 pairs.  The only distances are the stack's to
    the two other points, both ways, and those two's to each other.
    The weights are unequal."""
    coords = np.zeros((300, 1))
    coords[5, 0] = -0.0
    coords[-2:, 0] = [0.5, 1.0]
    weights = np.full(300, 0.1)
    weights[-1] = 0.2
    space = MetricMeasureSpace.from_coords(range(300), coords, weights)
    gap = space.min_gap()
    pairs = []
    original = MetricMeasureSpace._pair_dists

    def recorded(self, rows, cols):
        rows, cols = np.broadcast_arrays(rows, cols)
        pairs.append(np.stack([rows.ravel(), cols.ravel()]))
        return original(self, rows, cols)

    monkeypatch.setattr(MetricMeasureSpace, "_pair_dists", recorded)
    masses = space.ball_masses(np.arange(300), [gap])[:, 0]
    rows, cols = np.concatenate(pairs, axis=1)
    assert not np.any((rows < 298) & (cols < 298))  # none among the stack
    assert {(int(a), int(b)) for a, b in zip(rows, cols) if a >= 298 and b >= 298} == {
        (298, 299), (299, 298), (298, 298), (299, 299)
    }
    assert row_calls == {}
    levels = weight_levels(weights)
    want = [mass_of(levels, np.flatnonzero(space.dists_from(k) < gap)) for k in range(300)]
    assert np.array_equal(bits(masses), bits(want))
    assert masses[0] == space.mass(np.arange(298)) == mass_of(levels, range(298))


@pytest.mark.parametrize(
    "spec, pairs",
    [(GeneratorSpec("grid2d", 64), 3_572_736), (GeneratorSpec("cascade", 5), 411_648)],
    ids=["grid2d 64", "cascade 5"],
)
def test_doubling_masses_compute_a_pinned_number_of_pairs(spec, pairs, pair_evals):
    """The doubling grid's masses from the cell tree compute exactly this
    many distances, padding included.  The flat 64-point cells computed
    13,238,272 on grid2d 64 and every pair, 1,048,576, on cascade 5; a
    fill that stops pruning node pairs, or evaluates both orders of a
    pair, computes more."""
    space, _ = generate(spec)
    gap, diam = space.min_gap(), space.diameter()
    pair_evals.clear()
    doubling_estimate(space, dyadic_radii(2 * gap, diam / 2))
    assert sum(pair_evals["MetricMeasureSpace._tree_sums"]) == pairs


@pytest.mark.parametrize(
    "spec, ecc, gap, near",
    [
        (GeneratorSpec("grid2d", 64), 679_936, 733_696, 231_616),
        (GeneratorSpec("cascade", 5), 179_200, 156_160, 54_464),
    ],
    ids=["grid2d 64", "cascade 5"],
)
def test_the_summary_and_a_whole_query_compute_a_pinned_number_of_pairs(
    spec, ecc, gap, near, pair_evals
):
    """The summary's two walks, and a neighbour query of every point at
    2.5 times the least gap, compute exactly this many distances,
    padding included; a walk that stops pruning node pairs computes
    more.  The query's count sums every caller of ``_pair_dists``."""
    space, _ = generate(spec)
    pair_evals.clear()
    space.summary()
    assert {key: sum(calls) for key, calls in pair_evals.items()} == {
        "MetricMeasureSpace._tree_eccentricities": ecc,
        "MetricMeasureSpace._tree_gap": gap,
    }
    pair_evals.clear()
    space.neighbors(np.arange(len(space)), 2.5 * space.min_gap())
    assert sum(p for calls in pair_evals.values() for p in calls) == near


@pytest.mark.parametrize(
    "spec, pairs",
    [(GeneratorSpec("grid2d", 64), 188_416), (GeneratorSpec("cascade", 5), 45_056)],
    ids=["grid2d 64", "cascade 5"],
)
def test_the_forest_walk_computes_a_pinned_number_of_pairs(spec, pairs, pair_evals):
    """The default run's ε-forest, in Borůvka rounds over the cell tree,
    computes exactly this many distances, padding included, and nothing
    else in ``gamma`` computes one.  Listing every ε-pair computed
    1,104,384 on grid2d 64 and 98,816 on cascade 5; a walk that stops
    dropping pairs by the best edges found so far computes more."""
    cfg = RunConfig(kind=spec.kind, resolution=spec.resolution)
    ctx = run_stages(cfg, ("bridges",))[0]
    gamma = next(row[2] for row in STAGES if row[0] == "gamma")
    pair_evals.clear()
    gamma(SimpleNamespace(**vars(ctx)))
    assert {key: sum(calls) for key, calls in pair_evals.items()} == {
        "MetricMeasureSpace._tree_edges": pairs
    }


@pytest.mark.parametrize(
    "spec, net_walks",
    [
        (GeneratorSpec("lipschitz_curve", 2048), 3),
        (GeneratorSpec("grid2d", 64), 2),
        (GeneratorSpec("circle", 2000), 4),
    ],
    ids=["lipschitz_curve 2048", "grid2d 64", "circle 2000"],
)
def test_nets_and_the_forest_walk_the_tree_a_pinned_number_of_times(spec, net_walks, walks):
    """The default run's net scan walks the cell tree once per level
    whose scale it first asks (3, 2 and 4 here; one walk per lookahead
    chunk made 27, 22 and more), and answers every chunk from the lists
    of that walk.  The ε-forest walks once for all its Borůvka rounds,
    when its rounds are made: circle 2000 takes seven rounds, which
    walked seven times when each round walked again."""
    cfg = RunConfig(kind=spec.kind, resolution=spec.resolution)
    stage = {row[0]: row[2] for row in STAGES}
    ctx = run_stages(cfg, ("load",))[0]
    walks.clear()
    stage["nets"](SimpleNamespace(**vars(ctx)))
    assert walks == {"_Candidates.__init__": net_walks}
    ctx = run_stages(cfg, ("bridges",))[0]
    walks.clear()
    stage["gamma"](SimpleNamespace(**vars(ctx)))
    assert walks == {"_ForestRounds.__init__": 1}


def test_the_forest_walk_skips_pairs_inside_one_component(pair_evals):
    """Leaf pairs inside one component hold no edge, so each round drops
    them before any distance: with every point in one component it
    computes none (137,728 when it keeps them), and with two halves
    only the 64 leaf pairs across the cut, 16 x 16 distances each
    (45,056 when it keeps the pairs inside a half).  On a line of four
    points, on both backends, a round gives each component its least
    edge by ``(d, a, b)``: singletons, then pairs."""
    space, _ = generate(GeneratorSpec("grid2d", 32))
    points = np.arange(len(space))
    whole = np.zeros(len(space), dtype=np.intp)
    comp, a, b, d = _ForestRounds(space, points, 0.2)(whole)
    assert not len(comp) and not pair_evals
    halves = np.where(space.coords[:, 0] < 0.5, 0, 1)
    halves[halves == 1] = np.flatnonzero(halves)[0]  # the label of the right half
    comp, a, b, d = _ForestRounds(space, points, 0.2)(halves)
    assert comp.tolist() == halves[[0, -1]].tolist() and np.isfinite(d).all()
    assert sum(pair_evals["MetricMeasureSpace._tree_edges"]) == 64 * 16 * 16
    coords = np.array([[0.0], [1.0], [2.0], [3.0]])
    for line in both_backends(range(4), coords, np.ones(4)):
        rounds = _ForestRounds(line, np.arange(4), 1.5)
        got = rounds(np.array([0, 1, 2, 3]))
        assert [x.tolist() for x in got] == [[0, 1, 2, 3], [0, 0, 1, 2], [1, 1, 2, 3], [1.0] * 4]
        got = rounds(np.array([0, 0, 2, 2]))
        assert [x.tolist() for x in got] == [[0, 2], [1, 1], [2, 2], [1.0, 1.0]]


def test_the_forest_keeps_its_memory_near_a_column_of_the_space():
    """``assemble_gamma`` on interval + hole (0.4, 0.6) at 4000 points
    peaks under 3 MB: no array the size of its ε-pairs, which peaked at
    13.0 MB when they were listed and ranked."""
    cfg = RunConfig(kind="interval", resolution=4000, params=HOLE)
    ctx = run_stages(cfg, ("bridges",))[0]
    eps = 2 * cfg.rho ** max(ctx.hierarchy.levels)
    tracemalloc.start()
    try:
        graph = assemble_gamma(ctx.space, ctx.target, ctx.bridges, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.edge_count() and peak < 3 * 2**20


@given(clouds(dims=(1, 2, 3)), st.data())
def test_small_radius_masses_equal_the_oracle_on_the_row_masks(cloud, data):
    ids, coords, weights = cloud
    levels = weight_levels(weights)
    for space in both_backends(ids, coords, weights):
        gap = space.min_gap()
        if gap == 0:
            continue
        radii = [gap / 2, gap, 2 * gap * (1 - 1e-9)]
        radii.append(data.draw(st.sampled_from([gap / 3, 1.5 * gap])))
        for k in range(len(space)):
            row = space.dists_from(k)
            masses = space.ball_masses([k], radii)[0]
            want = [mass_of(levels, np.flatnonzero(row < r)) for r in radii]
            assert np.array_equal(bits(masses), bits(want))


def test_small_radius_masses_do_not_depend_on_the_order_of_the_weights():
    """Twenty coincident points: a sequential sum of their weights,
    the same sum in ascending order and numpy's sum are three different
    floats; the mass is the oracle's for either order of the weights."""
    coords = np.array([[0.0]] * 20 + [[1.0], [3.0]])
    weights = np.array([0.1, 0.1, 1.0 / 3.0] * 7 + [0.3])
    ascending = np.concatenate([np.sort(weights[:20]), weights[20:]])
    sums = set()
    for w in (weights, ascending):
        sequential = 0.0
        for x in w[:20]:
            sequential += x
        sums.add(sequential)
    assert len(sums | {weights[:20].sum()}) == 3
    want = mass_of(weight_levels(weights), range(20))
    for w in (weights, ascending):
        for space in both_backends(range(22), coords, w):
            assert space.ball_masses([0], [space.min_gap()])[0, 0] == want


# -- clients against their row-based originals ----------------------------


def level_lists(h) -> dict:
    return {n: idx.tolist() for n, idx in h.levels.items()}


def net_check(space, h) -> tuple:
    check = verify_nets(space, h)
    return check.separation_ok, check.covering_ok, check.nesting_ok, check.witness


@given(clouds(dims=(1, 2, 3)), st.sampled_from([0.5, 0.25, 1 / 16]), st.data())
def test_nets_match_the_row_based_scan(cloud, rho, data):
    ids, coords, weights = cloud
    for space in both_backends(ids, coords, weights):
        lo, hi = auto_levels(space, rho)
        seeds = data.draw(st.lists(st.sampled_from(ids), max_size=2))
        h = build_nets(space, rho, lo, hi, seed_ids=seeds)
        assert level_lists(h) == build_nets_rows(space, rho, lo, hi, seed_ids=seeds)
        assert verify_nets(space, h).ok
        assert net_check(space, h) == verify_nets_rows(space, h)


@pytest.mark.parametrize(
    "spec, rho",
    [
        (GeneratorSpec("lipschitz_curve", 2048), 1 / 16),
        (GeneratorSpec("circle", 2000), 1 / 16),
        (GeneratorSpec("cascade", 5), 1 / 16),
        (GeneratorSpec("grid2d", 32), 0.5),
        (GeneratorSpec("interval", 1000, params={"holes": [[0.4, 0.6]]}), 0.25),
    ],
    ids=["lipschitz_curve 2048", "circle 2000", "cascade 5", "grid2d 32", "interval 1000"],
)
def test_nets_admit_what_the_per_chunk_scan_admits(spec, rho):
    """The one-walk scan's levels, in admission order, are the per-chunk
    scan's, on coordinates and on the same points as a matrix; each
    side runs on its own space, so no leaf list is shared."""
    space, _ = generate(spec)
    lo, hi = auto_levels(space, rho)
    want = build_nets_chunks(generate(spec)[0], rho, lo, hi)
    assert level_lists(build_nets(space, rho, lo, hi)) == want
    twin = MetricMeasureSpace.from_matrix(space.ids, space.distance_matrix(), space.weights)
    assert level_lists(build_nets(twin, rho, lo, hi)) == want


@given(clouds(dims=(1, 2, 3), min_size=3), st.data())
def test_net_witnesses_match_the_row_based_check(cloud, data):
    """Injected separation, covering and nesting failures name the same
    witness as the row-based check, duplicate members included."""
    ids, coords, weights = cloud
    for space in both_backends(ids, coords, weights):
        lo, hi = auto_levels(space, 0.5)
        levels = level_lists(build_nets(space, 0.5, lo, hi))
        for n in data.draw(st.lists(st.sampled_from(sorted(levels)), max_size=3)):
            members = levels[n]
            edits = st.sampled_from(["add", "drop", "duplicate", "shuffle"])
            for edit in data.draw(st.lists(edits, min_size=1, max_size=4)):
                at = data.draw(st.integers(0, len(members)))
                if edit == "add":
                    members.insert(at, space.index_of(data.draw(st.sampled_from(ids))))
                elif edit == "drop" and members:
                    members.pop(at % len(members))
                elif edit == "duplicate" and members:
                    members.append(members[at % len(members)])
                else:
                    members = data.draw(st.permutations(members))
            levels[n] = members
        h = NetHierarchy(rho=0.5, levels=levels)
        assert net_check(space, h) == verify_nets_rows(space, h)


def assert_cubes_match(space, h):
    tree = build_cubes(space, h)
    want = cube_members_rows(space, h)
    cids = range(len(tree.level))
    members = [cube_members(space, tree, c) for c in cids]
    got = {
        (int(tree.level[c]), space.ids[tree.center[c]]): members[c] for c in cids
    }
    assert got == want
    assert tree.c0_achieved == c0_rows(space, tree)
    # a parent is the cube one level up that holds the centre; a mass is
    # the oracle's mass of the members
    levels = np.split(np.arange(len(tree.level)), tree.start[1:])
    assert (tree.parent[levels[0]] == -1).all()
    for above, below in zip(levels, levels[1:]):
        for cid in below.tolist():
            center = space.ids[tree.center[cid]]
            holder = [p for p in above.tolist() if center in members[p]]
            assert [tree.parent[cid]] == holder
    for cid in cids:
        idx = space.indices_of(members[cid])
        assert tree.mass[cid] == mass_of(weight_levels(space.weights), idx)


@given(clouds(dims=(1, 2, 3), min_size=2), st.data())
def test_cubes_match_the_row_based_assignment(cloud, data):
    """Nearest centres and c0, also over hand-made levels that do not
    cover, so points fall back to a comparison with every candidate."""
    ids, coords, weights = cloud
    for space in both_backends(ids, coords, weights):
        lo, hi = auto_levels(space, 0.25)
        h = build_nets(space, 0.25, lo, hi)
        assert_cubes_match(space, h)
        # nested random subsets: a finer level need not cover anything
        chosen = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        chosen = space.indices_of(chosen).tolist()
        levels = {n: tuple(chosen[: 1 + n - lo]) for n in range(lo, hi + 1)}
        assert_cubes_match(
            space, NetHierarchy(rho=0.25, levels=levels)
        )


def test_c0_falls_back_to_rows_when_no_cube_has_a_near_outsider():
    coords = np.array([[0.0], [10.0], [10.0 + 1e-3]])
    space = MetricMeasureSpace.from_coords([5, 7, 9], coords, np.ones(3))
    h = NetHierarchy(rho=0.25, levels={0: (0, 2)})  # ids 5 and 9
    tree = build_cubes(space, h)
    assert tree.c0_achieved == c0_rows(space, tree) == (10.0 - 0.0) / 5.0
    assert_cubes_match(space, h)


@given(
    clouds(dims=(1, 2, 3), min_size=2),
    st.sampled_from([0.003, 0.05, 0.2]),
    st.data(),
)
def test_porous_cubes_match_the_row_based_search(cloud, delta, data):
    ids, coords, weights = cloud
    cfg = PorosityConfig(M=11.0, delta=delta, n0=2, rho=1.0 / 16.0, C_mu=2.0)
    for space in both_backends(ids, coords, weights):
        lo, hi = auto_levels(space, cfg.rho)
        tree = build_cubes(space, build_nets(space, cfg.rho, lo, hi))
        members = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        target = enclosing_target(space, members)
        # cube 0 is the first top-level cube
        assert porous(space, tree, target, cfg) == find_porous_rows(
            space, tree, target, cfg, 0
        )


HOLE = {"holes": [(0.4, 0.6)]}


def test_porous_cubes_match_on_the_hole_fixture():
    space, target = generate(GeneratorSpec("interval", 300, params=HOLE))
    cfg = PorosityConfig(M=11.0, delta=0.003, n0=2, rho=1.0 / 16.0, C_mu=2.0)
    tree = build_cubes(space, build_nets(space, cfg.rho, -1, 2))
    got = porous(space, tree, target, cfg)
    assert got == find_porous_rows(space, tree, target, cfg, 0)
    assert len(got) > 10


def test_a_gap_equal_to_the_threshold_is_porous():
    """delta * l is exactly 1.0 at level 0 here, and so is the witness gap."""
    space = MetricMeasureSpace.from_coords(
        [4, 8, 2], np.array([[0.0], [0.5], [1.0]]), np.ones(3)
    )
    target = enclosing_target(space, [4])
    cfg = PorosityConfig(M=11.0, delta=0.2, n0=2, rho=1.0 / 16.0, C_mu=2.0)
    levels = auto_levels(space, cfg.rho)
    tree = build_cubes(space, build_nets(space, cfg.rho, *levels))
    got = porous(space, tree, target, cfg)
    assert got == find_porous_rows(space, tree, target, cfg, 0)
    assert any(
        gap == cfg.delta * tree.sidelength[cube] == 1.0 for cube, _, gap in got
    )


def porous(space, tree, target, cfg) -> list:
    gap = dist_to_set(space, target.members)
    return family_rows(space, find_porous(space, tree, target, gap, cfg))


NO_POROUS = SimpleNamespace(cube=np.empty(0, dtype=np.int64))  # bridges none


def adjacency_edges(graph):
    """(g, h, length) of each adjacency edge, in edge order."""
    keep = graph.provenance == ADJACENCY
    g = graph.ground[graph.src[keep]].tolist()
    h = graph.ground[graph.dst[keep]].tolist()
    return list(zip(g, h, graph.length[keep].tolist()))


@given(clouds(min_size=2), st.data())
def test_adjacency_matches_the_row_based_pairs(cloud, data):
    ids, coords, weights = cloud
    backends = both_backends(ids, coords, weights)
    members = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    members = tuple(sorted(members))
    target = TargetSet(members=members, xi0=members[0])
    dists = np.unique(backends[1].distance_matrix())
    eps = float(data.draw(st.sampled_from([*dists[1:], 0.4, 50.0])))
    for space in backends:
        empty = build_bridges(space, None, None, NO_POROUS, None)
        graph = assemble_gamma(space, target, empty, eps)
        want = adjacency_forest_rows(space, members, eps)
        want = [(members[a], members[b], d) for a, b, d in want]
        assert adjacency_edges(graph) == want


def assert_the_forest_keeps_the_tour(space, members, eps):
    """Every pair closer than eps is an edge of one graph, only the
    forest's pairs of the other: Kruskal takes the same tree from both,
    so the tour, its times and its bound are the same bits."""
    target = TargetSet(members=members, xi0=members[0])
    empty = build_bridges(space, None, None, NO_POROUS, None)
    forest = assemble_gamma(space, target, empty, eps)
    whole = graph_by_position(
        members,
        [(a, b, d, ADJACENCY) for a, b, d in adjacency_rows(space, members, eps)],
    )
    assert np.array_equal(whole.ground, forest.ground)
    tours = []
    for graph in (whole, forest):
        try:
            tours.append(parametrize(graph))
        except DisconnectedError as exc:
            tours.append(exc.components)
    if isinstance(tours[0], int):
        assert tours[1] == tours[0]
        return
    assert np.array_equal(tours[1].visits, tours[0].visits)
    assert np.array_equal(bits(tours[1].ts), bits(tours[0].ts))
    assert tours[1].lip_bound == tours[0].lip_bound
    assert tours[1].tree_length == tours[0].tree_length


@given(clouds(min_size=2), st.data())
def test_the_forest_keeps_the_tour_of_every_pair(cloud, data):
    ids, coords, weights = cloud
    space = MetricMeasureSpace.from_coords(ids, coords, weights)
    members = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    dists = np.unique(space.distance_matrix())
    eps = float(data.draw(st.sampled_from([*dists[1:], 50.0])))
    assert_the_forest_keeps_the_tour(space, tuple(sorted(members)), eps)


def test_the_forest_breaks_length_ties_by_position():
    """A 2 x 3 grid of unit spacing: its seven unit edges close two
    squares.  With equal lengths ranked by (a, b) the forest drops
    (3, 4) and (3, 5); by (b, a) it would drop (1, 5) and (3, 5), and by
    descending (a, b) (0, 2) and (1, 4).  Only the first keeps the tour
    of every pair."""
    coords = np.array([[0, 0], [0, 2], [1, 0], [1, 1], [1, 2], [0, 1]], dtype=float)
    space = MetricMeasureSpace.from_coords(range(6), coords, np.ones(6))
    target = TargetSet(members=tuple(range(6)), xi0=0)
    empty = build_bridges(space, None, None, NO_POROUS, None)
    graph = assemble_gamma(space, target, empty, 1.2)
    want = [(0, 2, 1.0), (0, 5, 1.0), (1, 4, 1.0), (1, 5, 1.0), (2, 3, 1.0)]
    assert adjacency_forest_rows(space, range(6), 1.2) == want
    assert adjacency_edges(graph) == want
    assert_the_forest_keeps_the_tour(space, tuple(range(6)), 1.2)


def test_adjacency_with_bridges_matches_the_row_based_pairs():
    space, target = generate(GeneratorSpec("interval", 200, params=HOLE))
    cfg = PorosityConfig(M=11.0, delta=0.003, n0=2, rho=1.0 / 16.0, C_mu=2.0)
    h = build_nets(space, cfg.rho, -1, 3)
    tree = build_cubes(space, h)
    found = find_porous(space, tree, target, dist_to_set(space, target.members), cfg)
    bridges = build_bridges(space, tree, h, found, cfg)
    assert len(bridges.pairs)
    eps = 2.2 / 200
    graph = assemble_gamma(space, target, bridges, eps)
    ends = set(bridges.pairs.ravel().tolist())
    ground = sorted(set(target.members) | ends)
    want = adjacency_forest_rows(space, ground, eps)
    assert adjacency_edges(graph) == [(ground[a], ground[b], d) for a, b, d in want]


# -- the row budget and the import guard -----------------------------------


class _Probe:
    def row(self, space):
        return space.dists_from(0)


def test_row_calls_keys_name_the_caller(row_calls):
    space = MetricMeasureSpace.from_coords(
        [4, 7], np.array([[0.0], [1.0]]), np.array([1.0, 2.0])
    )
    ball_members(space, Ball(center=7, radius=2.5))
    _Probe().row(space)
    space.dists_from(1)
    assert row_calls == {
        "ball_members": 1,
        "_Probe.row": 1,
        "test_row_calls_keys_name_the_caller": 1,
    }


def _rows_by_stage(row_calls, cfg) -> tuple:
    """(points, {stage: rows computed by caller}) of one default run."""
    ctx = SimpleNamespace(cfg=cfg)
    by_stage = {}
    for name, _, stage, *_ in STAGES:
        before = row_calls.copy()
        stage(ctx)
        added = row_calls - before
        if added:
            by_stage[name] = dict(added)
    return len(ctx.space), by_stage


def test_default_run_computes_no_full_row(row_calls, tmp_path):
    """Coordinates: no stage computes a row, also with a target smaller
    than the space, whose basepoint and distance to the target come from
    sub-rows, and with unequal weights (cascade 5), whose masses come
    from the cells.  A distance matrix: its masses read the stored
    matrix in blocks, so no stage computes a row either."""
    for cfg, points in (
        (RunConfig(kind="lipschitz_curve", resolution=2000), 2000),
        (RunConfig(kind="interval", resolution=2000, params=HOLE), 2000),
        (RunConfig(kind="cascade", resolution=5), 1024),
    ):
        n, by_stage = _rows_by_stage(row_calls, cfg)
        assert n == points
        assert by_stage == {}, cfg.kind
    space, _ = generate(GeneratorSpec("interval", 300, params=HOLE))
    matrix, weights = tmp_path / "m.csv", tmp_path / "w.csv"
    np.savetxt(matrix, space.distance_matrix(), delimiter=",", fmt="%.17g")
    rows = [f"{i},{w!r}\n" for i, w in zip(space.ids, space.weights.tolist())]
    weights.write_text("id,weight\n" + "".join(rows))
    n, by_stage = _rows_by_stage(row_calls, RunConfig(matrix=str(matrix), weights=str(weights)))
    assert n == 300
    assert by_stage == {}


GUARD = """
import sys

import numpy as np
import rectilib.cli
from rectilib.pipeline import RunConfig, load_space, run_pipeline

hole = {"holes": [(0.4, 0.6)]}
space, _ = load_space(RunConfig(kind="interval", resolution=300, params=hole))
np.savetxt(sys.argv[1], space.distance_matrix(), delimiter=",", fmt="%.17g")
with open(sys.argv[2], "w") as fh:
    fh.write("id,weight\\n")
    fh.writelines(f"{i},{w!r}\\n" for i, w in zip(space.ids, space.weights.tolist()))
report, _, _ = run_pipeline(RunConfig(matrix=sys.argv[1], weights=sys.argv[2]))
assert report["param_check"]["surjective"], "a matrix run had no tour"
for cfg in (
    RunConfig(kind="interval", resolution=300, params=hole),
    RunConfig(kind="cascade", resolution=5),  # unequal weights
    RunConfig(kind="grid2d", resolution=16),
):
    report, _, _ = run_pipeline(cfg)
    assert report["gamma"]["edges"], cfg
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not scipy, f"a run imported {scipy}"
assert "numpy.ma" not in sys.modules, "a run imported numpy.ma"
"""


def test_no_run_imports_scipy(tmp_path):
    """In a fresh interpreter, the CLI's import and whole runs on a
    distance matrix and on coordinates, with equal or unequal weights,
    import no scipy module: numpy is the only dependency.  Nor do they
    import ``numpy.ma``, which a plain ``np.unique``, ``np.setdiff1d``
    or ``np.median`` imports on its first call."""
    src = os.path.dirname(os.path.dirname(rectilib.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    files = [str(tmp_path / "m.csv"), str(tmp_path / "w.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, *files],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
