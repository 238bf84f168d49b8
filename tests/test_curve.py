"""Tests for bridge graphs, curve assembly, budgets, and the tour."""

import csv
import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import (
    adjacency_forest_rows,
    graph_by_position,
    graph_dist_brute,
)
from rectilib import curve
from rectilib.cubes import build_cubes
from rectilib.curve import (
    ADJACENCY,
    E_ADJACENCY,
    Bridges,
    _labels,
    assemble_gamma,
    build_bridges,
    check_parametrization,
    connectivity,
    edges_csv,
    length_budget,
    parametrize,
    parametrization_csv,
)
from rectilib.errors import DisconnectedError, ParameterError
from rectilib.generators import GeneratorSpec, generate
from rectilib.nets import NetHierarchy, build_nets
from rectilib.pipeline import RunConfig, run_stages
from rectilib.porosity import PorosityConfig, PorousFamily, dist_to_set, find_porous
from rectilib.space import MetricMeasureSpace, enclosing_target


def good_cfg():
    return PorosityConfig(M=11.0, delta=0.003, n0=2, rho=1.0 / 16.0, C_mu=2.0)


def hole_fixture():
    space, target = generate(
        GeneratorSpec("interval", 100, params={"holes": [(0.4, 0.6)]})
    )
    h = build_nets(space, 1.0 / 16.0, -1, 2)
    tree = build_cubes(space, h)
    gap = dist_to_set(space, target.members)
    porous = find_porous(space, tree, target, gap, good_cfg())
    return space, target, h, tree, porous


def hole_ground(target, bridges) -> list:
    """Ground ids of a curve: the target members and bridge endpoints."""
    return sorted(set(target.members) | set(bridges.pairs.ravel().tolist()))


def micro_gamma():
    """Two 2-point clusters joined by a single hand-built bridge."""
    coords = np.array([[0.0], [0.1], [1.0], [1.1]])
    space = MetricMeasureSpace.from_coords(range(4), coords, np.ones(4))
    target = enclosing_target(space)
    bridges = Bridges(
        pairs=np.array([[1, 2]]),
        length=np.array([0.9]),
        cube=np.array([7]),
        pairs_per_cube={7: 1},
        skipped=(),
    )
    return space, target, assemble_gamma(space, target, bridges, 0.15)


def no_bridges():
    return Bridges(
        pairs=np.empty((0, 2), dtype=np.int64),
        length=np.empty(0),
        cube=np.empty(0, dtype=np.int64),
        pairs_per_cube={},
        skipped=(),
    )


def empty_graph():
    return graph_by_position([], [])


def path_graph(lengths):
    """Ground points 0..k joined in a path by edges of the given lengths."""
    return graph_by_position(
        range(len(lengths) + 1),
        [(i, i + 1, length, ADJACENCY) for i, length in enumerate(lengths)],
    )


def pair_map(bridges) -> dict:
    """{(x, y): first cube id}, in construction order."""
    return {
        (x, y): c
        for (x, y), c in zip(bridges.pairs.tolist(), bridges.cube.tolist())
    }


def labels(graph) -> list[str]:
    return _labels(graph, np.arange(graph.vertex_count()))


def edge_list(graph) -> list:
    """[((u, v), (length, provenance))] over vertex labels, u the src
    end, in edge order; a parallel edge is listed again."""
    names = labels(graph)
    return [
        ((names[s], names[d]), (length, p))
        for s, d, length, p in zip(
            graph.src.tolist(),
            graph.dst.tolist(),
            graph.length.tolist(),
            graph.provenance.tolist(),
        )
    ]


def bridge_map(graph) -> dict:
    """{(u, v): (length, cube)} of the bridge edges."""
    return {e: value for e, value in edge_list(graph) if value[1] != ADJACENCY}


# -- vertex labels ------------------------------------------------------


def test_vertex_keys():
    """A position's label comes from the ground ids, for positions asked
    in any order."""
    graph = graph_by_position([3, 9, 17], [])
    assert labels(graph) == ["g:3", "g:9", "g:17"]
    assert _labels(graph, np.array([2, 0, 2])) == ["g:17", "g:3", "g:17"]
    assert _labels(graph, np.array([], dtype=np.int64)) == []


# -- bridge construction ------------------------------------------------


def test_each_bridge_is_one_edge():
    space, target, h, tree, porous = hole_fixture()
    bridges = build_bridges(space, tree, h, porous, good_cfg())
    gamma = assemble_gamma(space, target, bridges, 2.2 / 99.0)
    bridged = gamma.provenance != ADJACENCY
    assert np.count_nonzero(bridged) == len(bridges.pairs)
    edges = bridge_map(gamma)
    for (x, y), cube_id in pair_map(bridges).items():
        d = space.dists_from(space.index_of(x))[space.index_of(y)]
        assert edges[f"g:{x}", f"g:{y}"] == (pytest.approx(float(d)), cube_id)


def test_bridges_dedupe_and_attribute_to_first_cube():
    space, target, h, tree, porous = hole_fixture()
    cfg = good_cfg()
    bridges = build_bridges(space, tree, h, porous, cfg)
    # two level-0 cubes centered at 0 and 99 reach all 100 points, and
    # they share the pair (0, 99)
    assert len(bridges.pairs) == 99 + 98
    assert sum(bridges.pairs_per_cube.values()) == 2 * 99
    gamma = assemble_gamma(space, target, bridges, 2.2 / 99.0)
    assert np.count_nonzero(gamma.provenance != ADJACENCY) == 197
    assert gamma.vertex_count() == 100
    # recompute the expected first-contributor for every pair
    expected: dict[tuple[int, int], int] = {}
    for cube in porous.cube.tolist():
        level = int(tree.level[cube]) + cfg.n0
        if level not in h.levels:
            continue
        center = space.ids[tree.center[cube]]
        row = space.dists_from(int(tree.center[cube]))
        for q in sorted(space.ids[k] for k in h.levels[level]):
            if q == center:
                continue
            if row[space.index_of(q)] < cfg.M * tree.sidelength[cube]:
                pair = (min(center, q), max(center, q))
                expected.setdefault(pair, cube)
    assert pair_map(bridges) == expected


def test_bridges_skip_coincident_pairs():
    """A hand-built bridge level holding a copy of the center: the pair
    is counted for the cube but gets no bridge."""
    space = MetricMeasureSpace.from_coords(
        [4, 8, 2], np.array([[0.0], [0.0], [0.5]]), np.ones(3)
    )
    hierarchy = NetHierarchy(rho=1.0 / 16.0, levels={0: (0,), 2: (0, 1, 2)})
    tree = build_cubes(space, hierarchy)
    porous = PorousFamily(
        cube=np.array([0]), witness=np.array([2]), gap=np.array([0.5])
    )
    bridges = build_bridges(space, tree, hierarchy, porous, good_cfg())
    assert bridges.pairs.tolist() == [[2, 4]]
    assert bridges.length.tolist() == [0.5]
    assert bridges.cube.tolist() == [0]
    assert bridges.pairs_per_cube == {0: 2}


def test_bridges_skip_cubes_without_their_level():
    space, target, h, tree, porous = hole_fixture()
    bridges = build_bridges(space, tree, h, porous, good_cfg())
    # n0 = 2 pushes level 1 and level 2 cubes past the finest net level.
    deep = set(porous.cube[tree.level[porous.cube] >= 1].tolist())
    assert set(bridges.skipped) == deep
    assert len(bridges.skipped) == 55


@pytest.mark.parametrize(
    "resolution, levels, expected",
    [(100, {"n_min": -1, "n_max": 2}, {"1": 12, "2": 42}),
     (1000, {}, {"1": 14, "2": 104})],
    ids=["hole-fixture", "readme-run"],
)
def test_report_counts_skipped_bridge_cubes_per_level(resolution, levels, expected):
    """With n0 = 2, porous cubes below level 0 have no bridge level:
    the bridges section counts them per level, as porous does."""
    cfg = RunConfig(
        kind="interval", resolution=resolution,
        params={"holes": [(0.4, 0.6)]}, **levels,
    )
    stages = ("load", "validate", "doubling", "nets", "cubes", "porous", "bridges")
    ctx, report = run_stages(cfg, stages)[:2]
    section = report["bridges"]
    assert section["skipped_per_level"] == expected
    assert sum(expected.values()) == section["skipped_cubes"]
    cubes = ctx.porous.cube
    assert sorted(ctx.bridges.skipped) == cubes[ctx.tree.level[cubes] >= 1].tolist()
    porous_deep = {n: c for n, c in report["porous"]["per_level"].items() if n != "0"}
    assert porous_deep == expected


def test_star_bridges_pass_through_the_center():
    space, target, h, tree, porous = hole_fixture()
    cfg = good_cfg()
    bridges = build_bridges(space, tree, h, porous, cfg)
    assert bridges.pairs_per_cube
    for cube_id, count in bridges.pairs_per_cube.items():
        row = space.dists_from(int(tree.center[cube_id]))
        near = [
            k
            for k in h.levels[int(tree.level[cube_id]) + cfg.n0]
            if row[k] < cfg.M * tree.sidelength[cube_id]
        ]
        assert count == len(near) - 1  # every near point but the center
    lengths = bridge_map(assemble_gamma(space, target, bridges, 2.2 / 99.0))
    for (x, y), cube_id in pair_map(bridges).items():
        center = space.ids[tree.center[cube_id]]
        assert center in (x, y)
        other = y if x == center else x
        row = space.dists_from(space.index_of(center))
        # bit for bit the center row's entry, not merely close to it
        assert lengths[(f"g:{x}", f"g:{y}")][0] == float(
            row[space.index_of(other)]
        )


# -- array layout -------------------------------------------------------


def test_graph_arrays_follow_key_and_insertion_order():
    space, target, h, tree, porous = hole_fixture()
    bridges = build_bridges(space, tree, h, porous, good_cfg())
    gamma = assemble_gamma(space, target, bridges, 2.2 / 99.0)
    assert gamma.ground.tolist() == hole_ground(target, bridges)
    assert gamma.ground.dtype == np.int64
    assert np.all(gamma.src < gamma.dst)
    # bridge edges first, one per pair in construction order
    edges = edge_list(gamma)
    n_bridge = len(bridges.pairs)
    assert edges[:n_bridge] == [
        ((f"g:{x}", f"g:{y}"), (d, cube_id))
        for (x, y), d, cube_id in zip(
            bridges.pairs.tolist(), bridges.length.tolist(), bridges.cube.tolist()
        )
    ]
    # then adjacency edges by ascending ground pair
    adjacency = list(zip(gamma.src[n_bridge:], gamma.dst[n_bridge:]))
    assert adjacency == sorted(adjacency)
    assert all(p == ADJACENCY for _, (_, p) in edges[n_bridge:])
    assert all(p != ADJACENCY for _, (_, p) in edges[:n_bridge])
    for a in (gamma.ground, gamma.src, gamma.dst, gamma.length,
              gamma.provenance, bridges.pairs, bridges.length, bridges.cube):
        assert not a.flags.writeable


def test_keys_sort_by_columns_with_negative_and_large_ids():
    """Positions follow the ground ids, whatever their signs and sizes."""
    big = 2**62
    ids = [big, -5, 3, -big]
    space = MetricMeasureSpace.from_coords(
        ids, np.array([[0.0], [1.0], [2.0], [3.0]]), np.ones(4)
    )
    bridges = Bridges(
        pairs=np.array([[3, big], [-big, -5], [-5, big]]),
        length=np.array([2.0, 2.0, 1.0]),
        cube=np.array([0, 0, 1]),
        pairs_per_cube={0: 2, 1: 1},
        skipped=(),
    )
    gamma = assemble_gamma(space, enclosing_target(space, [3]), bridges, 0.5)
    assert labels(gamma) == [f"g:{-big}", "g:-5", "g:3", f"g:{big}"]
    # edges keep construction order; each stores its endpoints ascending
    assert [e for e, _ in edge_list(gamma)] == [
        ("g:3", f"g:{big}"), (f"g:{-big}", "g:-5"), ("g:-5", f"g:{big}"),
    ]


def test_connectivity_lists_components_by_smallest_vertex():
    graph = graph_by_position(
        [10, 11, 12, 13, 14, 15],
        [(1, 4, 1.0, ADJACENCY), (2, 5, 1.0, ADJACENCY)],
    )
    report = connectivity(graph)
    assert report.components == 4
    assert report.representatives.tolist() == [0, 1, 2, 3]
    assert _labels(graph, report.representatives) == [
        "g:10", "g:11", "g:12", "g:13"
    ]


# -- curve assembly -----------------------------------------------------


def test_gamma_chain_adjacency():
    coords = np.array([[0.0], [0.1], [0.2]])
    space = MetricMeasureSpace.from_coords(range(3), coords, np.ones(3))
    target = enclosing_target(space)
    empty = no_bridges()
    gamma = assemble_gamma(space, target, empty, 0.15)
    edges = edge_list(gamma)
    assert [e for e, _ in edges] == [("g:0", "g:1"), ("g:1", "g:2")]
    assert all(p == ADJACENCY for _, (_, p) in edges)
    assert connectivity(gamma).components == 1
    with pytest.raises(ParameterError):
        assemble_gamma(space, target, empty, 0.0)


@pytest.mark.parametrize("eps_res", [-1.0, math.nan, math.inf, -math.inf])
def test_gamma_refuses_an_eps_res_that_is_not_positive_and_finite(eps_res):
    """An infinite eps_res would make every ground pair adjacent."""
    space = MetricMeasureSpace.from_coords(range(2), np.eye(2), np.ones(2))
    with pytest.raises(ParameterError, match="positive and finite"):
        assemble_gamma(space, enclosing_target(space), no_bridges(), eps_res)


def test_gamma_skips_coincident_points():
    coords = np.array([[0.0], [0.0]])
    space = MetricMeasureSpace.from_coords(range(2), coords, np.ones(2))
    target = enclosing_target(space)
    gamma = assemble_gamma(space, target, no_bridges(), 0.5)
    assert gamma.edge_count() == 0
    assert connectivity(gamma).components == 2


def test_micro_gamma_connects_through_the_bridge():
    space, target, gamma = micro_gamma()
    assert labels(gamma) == ["g:0", "g:1", "g:2", "g:3"]
    report = connectivity(gamma)
    assert report.components == 1
    assert _labels(gamma, report.representatives) == ["g:0"]
    # without the bridge the clusters stay apart
    bare = assemble_gamma(space, target, no_bridges(), 0.15)
    assert connectivity(bare).components == 2
    assert connectivity(empty_graph()).components == 0


def parallel_gamma(bridge_length=None):
    """Four points 0.1 apart, all adjacent at eps_res 0.15, and a bridge
    over the pair (1, 2): the bridge and the adjacency edge are parallel.
    The bridge is as long as the pair unless stated otherwise."""
    coords = np.array([[0.0], [0.1], [0.2], [0.3]])
    space = MetricMeasureSpace.from_coords(range(4), coords, np.ones(4))
    d = float(space.dists_between(1, np.array([2]))[0])
    bridges = Bridges(
        pairs=np.array([[1, 2]]),
        length=np.array([d if bridge_length is None else bridge_length]),
        cube=np.array([7]),
        pairs_per_cube={7: 1},
        skipped=(),
    )
    return space, assemble_gamma(space, enclosing_target(space), bridges, 0.15)


@pytest.mark.parametrize("bridge_length", [None, 0.5], ids=["tied", "longer"])
def test_a_bridge_parallel_to_an_adjacency_edge(bridge_length):
    """Kruskal keeps one of the two edges between g:1 and g:2, the
    bridge on a tie, and the step check reads the shorter, so the tour
    passes whichever is longer."""
    space, gamma = parallel_gamma(bridge_length)
    edges = edge_list(gamma)
    assert [e for e, _ in edges] == [
        ("g:1", "g:2"), ("g:0", "g:1"), ("g:1", "g:2"), ("g:2", "g:3")
    ]
    assert [p for _, (_, p) in edges] == [7] + [ADJACENCY] * 3
    adjacency = gamma.length[gamma.provenance == ADJACENCY]
    if bridge_length is None:
        assert gamma.length[0] == adjacency[1]
    param = parametrize(gamma)
    assert param.visits.tolist() == [0, 1, 2, 3, 2, 1, 0]
    assert param.tree_length == pytest.approx(sum(adjacency.tolist()), rel=1e-12)
    check = check_parametrization(param, gamma)
    assert check.ok
    assert check.max_ratio == pytest.approx(param.lip_bound, rel=1e-9)


def test_graph_distance_across_a_bridge_is_one_hop():
    space, target, gamma = micro_gamma()
    edges = dict(zip(zip(gamma.src.tolist(), gamma.dst.tolist()), gamma.length))
    dist = graph_dist_brute(range(gamma.vertex_count()), edges)
    assert labels(gamma)[1:3] == ["g:1", "g:2"]
    assert dist[1][2] == 0.9


def test_more_bridges_never_disconnect():
    space, target, h, tree, porous = hole_fixture()
    cfg = good_cfg()
    eps = 2.2 / 99.0
    counts = []
    for k in (0, 1, len(porous.cube)):
        first_k = PorousFamily(porous.cube[:k], porous.witness[:k], porous.gap[:k])
        bridges = build_bridges(space, tree, h, first_k, cfg)
        gamma = assemble_gamma(space, target, bridges, eps)
        counts.append(connectivity(gamma).components)
    assert counts[0] == 2  # the hole splits the bare adjacency graph
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 1


# -- length budgets -----------------------------------------------------


def test_budget_on_hole_fixture():
    space, target, h, tree, porous = hole_fixture()
    cfg = good_cfg()
    bridges = build_bridges(space, tree, h, porous, cfg)
    gamma = assemble_gamma(space, target, bridges, 2.2 / 99.0)
    budget = length_budget(space, target, gamma, bridges, porous, tree, cfg)
    # the bridge endpoints fill the hole, so the forest of the adjacency
    # is the path of 99 nearest-neighbor gaps of 1/99
    forest = adjacency_forest_rows(space, hole_ground(target, bridges), 2.2 / 99.0)
    assert len(forest) == 99
    assert budget.e_part == pytest.approx(sum(d for _, _, d in forest))
    assert budget.e_part == pytest.approx(99 / 99)
    assert budget.bound_e == pytest.approx(16.0)
    assert budget.mass_check_ok and not budget.e_vacuous
    assert budget.c_pair == pytest.approx(2 * cfg.M * 99)
    brute_bridge = sum(length for length, _ in bridge_map(gamma).values())
    assert budget.bridge_part == pytest.approx(brute_bridge)
    assert budget.bridge_part <= budget.bound_bridge
    assert budget.ok


def test_sidelength_sum_adds_whatever_sum_the_builtins_do(monkeypatch):
    """Ten porous cubes of sidelength 0.1: 0.9999999999999999 left to
    right, 1.0 compensated, as the builtin ``sum`` of Python 3.12 adds
    them."""
    monkeypatch.setattr(curve, "sum", math.fsum, raising=False)
    space, target, gamma = micro_gamma()
    tree = SimpleNamespace(sidelength=np.full(10, 0.1))
    porous = SimpleNamespace(cube=np.arange(10))
    budget = length_budget(
        space, target, gamma, no_bridges(), porous, tree, good_cfg()
    )
    assert budget.sidelength_sum == 0.9999999999999999


def test_budget_parts_are_sequential_sums_in_edge_order():
    space, target, h, tree, porous = hole_fixture()
    cfg = good_cfg()
    bridges = build_bridges(space, tree, h, porous, cfg)
    gamma = assemble_gamma(space, target, bridges, 2.2 / 99.0)
    budget = length_budget(space, target, gamma, bridges, porous, tree, cfg)
    e_part = bridge_part = 0.0
    for _, (length, p) in edge_list(gamma):
        if p == ADJACENCY:
            e_part += length
        else:
            bridge_part += length
    assert budget.e_part == e_part
    assert budget.bridge_part == bridge_part


def test_budget_vacuous_on_tiny_targets():
    coords = np.array([[0.0], [0.1], [0.2]])
    space = MetricMeasureSpace.from_coords(range(3), coords, np.ones(3))
    target = enclosing_target(space)
    gamma = assemble_gamma(space, target, no_bridges(), 0.15)
    space2, _, h, tree, _ = hole_fixture()
    no_porous = SimpleNamespace(cube=np.empty(0, dtype=np.int64))
    budget = length_budget(
        space, target, gamma, no_bridges(), no_porous, tree, good_cfg()
    )
    assert budget.e_vacuous  # no usable radius window for the mass check
    assert budget.bridge_part == 0.0 and budget.bound_bridge == 0.0
    assert budget.ok


def hole_budget():
    space, target, h, tree, porous = hole_fixture()
    cfg = good_cfg()
    bridges = build_bridges(space, tree, h, porous, cfg)
    gamma = assemble_gamma(space, target, bridges, 2.2 / 99.0)
    return length_budget(space, target, gamma, bridges, porous, tree, cfg)


@pytest.mark.parametrize(
    "broken, message",
    [
        (
            lambda b: {"e_part": 2 * b.bound_e},
            lambda b: f"e_part {b.e_part!r} > bound_e {b.bound_e!r}",
        ),
        (
            lambda b: {"bridge_part": 2 * b.bound_bridge},
            lambda b: f"bridge_part {b.bridge_part!r} "
            f"> bound_bridge {b.bound_bridge!r}",
        ),
    ],
    ids=["e_part", "bridge_part"],
)
def test_budget_names_each_failed_inequality(broken, message):
    budget = hole_budget()
    assert budget.ok and budget.violations() == []
    bad = dataclasses.replace(budget, **broken(budget))
    assert bad.violations() == [message(bad)]
    assert not bad.ok


def test_budget_does_not_assert_a_vacuous_e_part():
    budget = hole_budget()
    vacuous = dataclasses.replace(
        budget, e_part=2 * budget.bound_e, e_vacuous=True
    )
    assert vacuous.violations() == [] and vacuous.ok


# -- parametrization ----------------------------------------------------


def test_parametrize_micro_tour():
    space, target, gamma = micro_gamma()
    param = parametrize(gamma)
    assert _labels(gamma, param.visits) == [
        "g:0", "g:1", "g:2", "g:3", "g:2", "g:1", "g:0"
    ]
    assert param.tree_length == pytest.approx(1.1)
    assert param.lip_bound == pytest.approx(2.2)
    assert param.ts[0] == 0.0 and param.ts[-1] == 1.0
    assert list(param.ts) == sorted(param.ts)
    assert param.visits.dtype == np.int64 and param.visits.shape == (7,)
    assert param.visits[0] == param.visits[-1]  # closed tour


def test_parametrize_consecutive_visits_are_graph_edges():
    space, target, gamma = micro_gamma()
    param = parametrize(gamma)
    edges = dict(zip(zip(gamma.src.tolist(), gamma.dst.tolist()), gamma.length))
    visits = param.visits.tolist()
    for i in range(len(visits) - 1):
        u, v = visits[i], visits[i + 1]
        dt = param.ts[i + 1] - param.ts[i]
        assert edges[min(u, v), max(u, v)] == pytest.approx(dt * param.lip_bound)


def test_kruskal_ties_resolve_by_src_then_dst():
    # a 4-cycle whose two long edges tie: (0, 3) precedes (1, 2) by src,
    # (1, 2) would precede by dst; the tree keeps (0, 3)
    graph = graph_by_position(
        [10, 20, 30, 40],
        [
            (1, 2, 2.0, ADJACENCY),
            (0, 3, 2.0, ADJACENCY),
            (0, 1, 1.0, ADJACENCY),
            (2, 3, 1.0, ADJACENCY),
        ],
    )
    param = parametrize(graph)
    assert param.visits.tolist() == [0, 1, 0, 3, 2, 3, 0]


def test_parametrize_two_vertices():
    param = parametrize(path_graph([2.0]))
    assert param.visits.tolist() == [0, 1, 0]
    assert param.ts.tolist() == [0.0, 0.5, 1.0]
    assert param.lip_bound == pytest.approx(4.0)


def test_parametrize_singleton_and_errors():
    param = parametrize(graph_by_position([5], []))
    assert param.visits.tolist() == [0]
    assert param.ts.tolist() == [0.0] and param.lip_bound == 0.0
    with pytest.raises(ParameterError):
        parametrize(empty_graph())
    coords = np.array([[0.0], [10.0]])
    space = MetricMeasureSpace.from_coords(range(2), coords, np.ones(2))
    target = enclosing_target(space)
    split = assemble_gamma(space, target, no_bridges(), 0.5)
    with pytest.raises(DisconnectedError) as err:
        parametrize(split)
    assert err.value.components == 2


def test_parametrize_counts_the_components_of_its_forest():
    """The count comes from the Kruskal pass, not from a second
    connectivity run; on cantor4 it is connectivity's count."""
    cfg = RunConfig(kind="cantor4", resolution=5)
    stages = ("load", "validate", "doubling", "nets", "cubes", "porous", "bridges")
    gamma = run_stages(cfg, stages + ("gamma",))[0].gamma
    with pytest.raises(DisconnectedError, match="^graph has 256 components$") as err:
        parametrize(gamma)
    assert err.value.components == connectivity(gamma).components == 256


def test_check_parametrization_accepts_the_honest_tour():
    space, target, gamma = micro_gamma()
    param = parametrize(gamma)
    check = check_parametrization(param, gamma)
    assert check.surjective and check.missing == 0
    assert check.lipschitz_ok and check.ok
    assert check.max_ratio <= param.lip_bound * (1 + 1e-9)
    assert check.max_ratio == pytest.approx(param.lip_bound, rel=1e-9)


def test_the_last_time_is_one_whatever_sum_the_builtins_do(monkeypatch):
    """The tour's steps 0.1, 0.2, 0.3, 0.3, 0.2, 0.1 add up to
    1.2000000000000002 left to right but to 1.2 compensated, as the
    builtin ``sum`` of Python 3.12 adds them; the times and the bound
    come from one left-to-right sum, so the tour still ends at 1."""
    monkeypatch.setattr(curve, "sum", math.fsum, raising=False)
    graph = path_graph([0.1, 0.2, 0.3])
    param = parametrize(graph)
    assert param.visits.tolist() == [0, 1, 2, 3, 2, 1, 0]
    assert math.fsum([0.1, 0.2, 0.3] * 2) == 1.2
    assert param.lip_bound == 1.2000000000000002
    assert param.ts[-1] == 1.0
    assert check_parametrization(param, graph).ok


def test_a_passed_tour_is_within_the_bound_plus_2_51_per_step():
    """One edge of 2**50 and five of 1: the bound is 2**51 + 10, so a
    step of 1 passes with no time at all.  The forward walk over the
    short edges at one time passes the check; its ends are 5 apart at
    time gap 0, within ``lip_bound * (1 + 1e-9) * 5 * 2**-51`` and no
    tighter bound."""
    graph = path_graph([2.0**50] + [1.0] * 5)
    param = parametrize(graph)
    assert param.lip_bound == 2.0**51 + 10
    ts = param.ts.copy()
    ts[2:7] = ts[1]  # visits 1..6 walk positions 1 .. 6
    squeezed = dataclasses.replace(param, ts=ts)
    assert check_parametrization(squeezed, graph).ok
    d, gap = 5.0, ts[6] - ts[1]
    assert gap == 0 and d > param.lip_bound * gap
    assert d <= param.lip_bound * (1 + 1e-9) * (gap + 5 * 2.0**-51)


def test_check_parametrization_catches_time_warp():
    space, target, gamma = micro_gamma()
    param = parametrize(gamma)
    warped = list(param.ts)
    warped[1] = 1e-6  # edge g:0 -> g:1 now takes almost no parameter time
    bad = dataclasses.replace(param, ts=tuple(warped))
    check = check_parametrization(bad, gamma)
    assert not check.lipschitz_ok and not check.ok
    assert check.witness == (0, 1)
    assert check.max_ratio > param.lip_bound
    assert check.violations() == [
        f"max_ratio {check.max_ratio!r} > lip_bound {param.lip_bound!r} "
        "at visits (0, 1)"
    ]


@pytest.mark.parametrize(
    "broken, message",
    [
        (lambda c: {"missing": 2}, lambda c: "missing 2 > 0"),
        (
            lambda c: {"max_ratio": 2 * c.lip_bound, "witness": (0, 1)},
            lambda c: f"max_ratio {c.max_ratio!r} > lip_bound "
            f"{c.lip_bound!r} at visits (0, 1)",
        ),
    ],
    ids=["surjective", "lipschitz"],
)
def test_param_check_names_each_failed_inequality(broken, message):
    space, target, gamma = micro_gamma()
    check = check_parametrization(parametrize(gamma), gamma)
    assert check.ok and check.violations() == []
    bad = dataclasses.replace(check, **broken(check))
    assert bad.violations() == [message(bad)]
    assert not bad.ok


def test_check_parametrization_catches_missing_vertex():
    space, target, gamma = micro_gamma()
    param = parametrize(gamma)
    # drop the single visit to g:3 (index 3 in the frozen tour) and the
    # return to its parent g:2, so the walk stays on the graph's edges
    clipped = dataclasses.replace(
        param,
        visits=np.delete(param.visits, [3, 4]),
        ts=np.delete(param.ts, [3, 4]),
    )
    check = check_parametrization(clipped, gamma)
    assert not check.surjective and check.missing == 1
    assert check.violations() == ["missing 1 > 0"]


def _stray_visit(position):
    def malform(param):
        visits = param.visits.copy()
        visits[3] = position  # the graph has positions 0..3
        return dataclasses.replace(param, visits=visits)

    return malform


@pytest.mark.parametrize(
    "malform, message",
    [
        (_stray_visit(4), "visit 3 is at position 4, which is not a vertex"),
        (_stray_visit(-1), "visit 3 is at position -1, which is not a vertex"),
        (
            # g:0 g:1 g:3, skipping g:2
            lambda p: dataclasses.replace(
                p, visits=np.delete(p.visits, 2), ts=np.delete(p.ts, 2)
            ),
            r"step \(1, 2\) from position 1 to 3 is not an edge",
        ),
        (
            lambda p: dataclasses.replace(p, ts=p.ts[::-1]),
            "times must be nondecreasing within",
        ),
        (
            lambda p: dataclasses.replace(p, ts=2 * p.ts),
            "times must be nondecreasing within",
        ),
        (
            lambda p: dataclasses.replace(p, ts=p.ts[:-1]),
            "6 times for 7 visits",
        ),
        (
            lambda p: dataclasses.replace(p, ts=np.append(p.ts, 1.0)),
            "8 times for 7 visits",
        ),
    ],
    ids=[
        "visit-off-graph",
        "negative-visit",
        "step-off-graph",
        "decreasing-ts",
        "ts-beyond-1",
        "short-ts",
        "long-ts",
    ],
)
def test_check_parametrization_rejects_malformed_tours(malform, message):
    space, target, gamma = micro_gamma()
    bad = malform(parametrize(gamma))
    with pytest.raises(ParameterError, match=message):
        check_parametrization(bad, gamma)


def test_hole_fixture_tour_end_to_end():
    space, target, h, tree, porous = hole_fixture()
    cfg = good_cfg()
    bridges = build_bridges(space, tree, h, porous, cfg)
    gamma = assemble_gamma(space, target, bridges, 2.2 / 99.0)
    param = parametrize(gamma)
    assert len(param.visits) == 2 * gamma.vertex_count() - 1
    assert param.lip_bound == pytest.approx(2 * param.tree_length)
    check = check_parametrization(param, gamma)
    assert check.ok


# -- CSV outputs --------------------------------------------------------


def test_edges_csv_round_trip(tmp_path):
    space, target, gamma = micro_gamma()
    path = tmp_path / "edges.csv"
    edges_csv(gamma, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == gamma.edge_count()
    lengths = sorted(float(r["length"]) for r in rows)
    assert lengths == sorted(gamma.length.tolist())
    assert {r["provenance"] for r in rows} == {"7", E_ADJACENCY}


def test_parametrization_csv_layout(tmp_path):
    space, target, gamma = micro_gamma()
    param = parametrize(gamma)
    path = tmp_path / "tour.csv"
    parametrization_csv(param, gamma, space, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(param.visits)
    assert [r["vertex"] for r in rows[:3]] == ["g:0", "g:1", "g:2"]
    assert float(rows[1]["x1"]) == pytest.approx(0.1)
    assert float(rows[2]["x1"]) == 1.0
    assert float(rows[-1]["t"]) == 1.0


# Frozen bytes of the side files of one-edge bridges.
MICRO_EDGES_CSV = (
    "u,v,length,provenance\r\n"
    "g:0,g:1,0.1,E-adjacency\r\n"
    "g:1,g:2,0.9,7\r\n"
    "g:2,g:3,0.10000000000000009,E-adjacency\r\n"
)
MICRO_TOUR_CSV = (
    "t,vertex,x1\r\n"
    "0.0,g:0,0.0\r\n"
    "0.045454545454545456,g:1,0.1\r\n"
    "0.45454545454545453,g:2,1.0\r\n"
    "0.5,g:3,1.1\r\n"
    "0.5454545454545455,g:2,1.0\r\n"
    "0.9545454545454545,g:1,0.1\r\n"
    "1.0,g:0,0.0\r\n"
)
HOLE_STAR_EDGES_SHA256 = (
    "2157cbf99027f0fc46ed36cb239a5993312ba533fbce7d813d87c3663f657e80"
)
HOLE_STAR_TOUR_SHA256 = (
    "9db89eb02536f5d135cb83717af4cb2a7118fe20e594e9b5cc86e2a53b9ba8ee"
)


def test_micro_gamma_side_files_are_frozen(tmp_path):
    space, target, gamma = micro_gamma()
    edges_csv(gamma, str(tmp_path / "edges.csv"))
    parametrization_csv(
        parametrize(gamma), gamma, space, str(tmp_path / "tour.csv")
    )
    assert (tmp_path / "edges.csv").read_bytes() == MICRO_EDGES_CSV.encode()
    assert (tmp_path / "tour.csv").read_bytes() == MICRO_TOUR_CSV.encode()


def test_hole_fixture_star_side_files_are_frozen(tmp_path):
    space, target, h, tree, porous = hole_fixture()
    bridges = build_bridges(space, tree, h, porous, good_cfg())
    gamma = assemble_gamma(space, target, bridges, 2.2 / 99.0)
    edges_csv(gamma, str(tmp_path / "edges.csv"))
    with open(tmp_path / "edges.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["provenance"] == E_ADJACENCY]
    ground = hole_ground(target, bridges)
    forest = adjacency_forest_rows(space, ground, 2.2 / 99.0)
    assert [(r["u"], r["v"], float(r["length"])) for r in rows] == [
        (f"g:{ground[a]}", f"g:{ground[b]}", d) for a, b, d in forest
    ]
    parametrization_csv(
        parametrize(gamma), gamma, space, str(tmp_path / "tour.csv")
    )
    for name, expected in (
        ("edges.csv", HOLE_STAR_EDGES_SHA256),
        ("tour.csv", HOLE_STAR_TOUR_SHA256),
    ):
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == expected
