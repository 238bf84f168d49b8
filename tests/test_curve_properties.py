"""Property tests: the array-backed curve graph matches the tuple oracles.

Small random graphs by position, over ground ids with negative and
large ids, with integer-heavy lengths, so equal-length ties are common,
and with several components and isolated vertices.
Components, representatives, the spanning-tree tour and the edge list
must equal what the tuple-keyed implementation gives on the positions,
bit for bit, and the edge list's labels what the tuple keys print.  A
tour the Lipschitz check passes, honest or tampered with, keeps every
pair of visits within the bound, plus 2**-51 per step between them,
under the oracle's graph distances.  On small clouds with holes, the
curve's positions follow the ground ids and every bridge is one edge
(x, y).
"""

import csv
import dataclasses
import itertools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    bridges_rows,
    components_brute,
    graph_by_position,
    graph_dist_brute,
    tour_brute,
)
from rectilib.cubes import build_cubes
from rectilib.curve import (
    ADJACENCY,
    E_ADJACENCY,
    _labels,
    assemble_gamma,
    build_bridges,
    check_parametrization,
    connectivity,
    edges_csv,
    parametrize,
)
from rectilib.errors import DisconnectedError, ParameterError
from rectilib.nets import auto_levels, build_nets
from rectilib.porosity import PorosityConfig, dist_to_set, find_porous
from rectilib.space import MetricMeasureSpace, enclosing_target

IDS = [-(2**62), -7, -1, 0, 1, 3, 5, 2**40, 2**62]
LENGTHS = st.sampled_from([1.0, 1.0, 2.0, 0.1])
PROVENANCE = st.sampled_from([ADJACENCY, 0, 4])


@st.composite
def graphs(draw):
    """A graph by position: ascending ground ids and edges ``(src, dst,
    length, provenance)``, ``src < dst``, in insertion order."""
    n = draw(st.integers(1, 9))
    ground = draw(st.lists(st.sampled_from(IDS), min_size=n, max_size=n,
                           unique=True))
    pairs = list(itertools.combinations(range(n), 2))
    # dense draws make cycles whose heaviest edges tie, where the tie
    # order decides which edge the tree keeps
    least = len(pairs) // 2 if draw(st.booleans()) else 0
    chosen = (
        draw(st.lists(st.sampled_from(pairs), min_size=least, unique=True))
        if pairs
        else []
    )
    if draw(st.booleans()):  # a spanning path makes the graph connected
        order = draw(st.permutations(range(n)))
        path = [tuple(sorted(p)) for p in zip(order, order[1:])]
        chosen += [p for p in path if p not in chosen]
    edges = [(i, j, draw(LENGTHS), draw(PROVENANCE)) for i, j in chosen]
    return graph_by_position(sorted(ground), edges)


def oracle_form(graph):
    """The oracles' graph on positions: vertices and {(u, v): length}."""
    edges = zip(graph.src.tolist(), graph.dst.tolist(), graph.length.tolist())
    return tuple(range(graph.vertex_count())), {(u, v): d for u, v, d in edges}


@given(graphs())
def test_connectivity_and_tour_match_the_tuple_oracle(graph):
    vertices, as_dict = oracle_form(graph)

    components, reps = components_brute(vertices, as_dict)
    report = connectivity(graph)
    assert report.components == components
    assert [vertices[r] for r in report.representatives.tolist()] == list(reps)

    if components != 1:
        with pytest.raises(DisconnectedError) as err:
            parametrize(graph)
        assert err.value.components == components
        return
    visits, ts, lip_bound, tree_length = tour_brute(vertices, as_dict)
    param = parametrize(graph)
    assert param.visits.tolist() == list(visits)
    assert param.ts.tolist() == list(ts)
    assert param.lip_bound == lip_bound
    assert param.tree_length == tree_length
    check = check_parametrization(param, graph)
    assert check.surjective and check.ok


# where a moved time lands between its neighbours' times
SHARES = st.sampled_from([0.0, 1e-3, 0.5, 1 - 1e-3, 1.0])


@settings(max_examples=150)
@given(graphs(), st.data())
def test_a_passed_tour_keeps_every_pair_of_visits_within_the_bound(graph, data):
    """Tours are the honest one, or it with a run of visits dropped and
    the times respaced evenly, then one visit sent to any vertex, then
    one time moved between its neighbours'.  Whenever the check passes,
    visits a < b have graph distance at most ``lip_bound * (1 + 1e-9)``
    times their gap plus ``(b - a) * 2**-51``."""
    try:
        param = parametrize(graph)
    except DisconnectedError:
        return
    visits, ts = param.visits, param.ts.copy()
    if len(visits) >= 3 and data.draw(st.booleans(), label="drop"):
        i = data.draw(st.integers(1, len(visits) - 2), label="first dropped")
        j = data.draw(st.integers(i + 1, len(visits) - 1), label="kept again")
        visits = np.delete(visits, np.arange(i, j))
        ts = np.linspace(0.0, 1.0, len(visits))
    if data.draw(st.booleans(), label="jump"):
        i = data.draw(st.integers(0, len(visits) - 1), label="jumps")
        visits = visits.copy()
        visits[i] = data.draw(
            st.integers(0, graph.vertex_count() - 1), label="to"
        )
    if len(visits) >= 3 and data.draw(st.booleans(), label="retime"):
        k = data.draw(st.integers(1, len(visits) - 2), label="retimed")
        # counted from either end, so both end steps are often moved
        i = len(visits) - 1 - k if data.draw(st.booleans(), label="back") else k
        ts[i] = ts[i - 1] + data.draw(SHARES) * (ts[i + 1] - ts[i - 1])
    tour = dataclasses.replace(param, visits=visits, ts=ts)
    try:
        check = check_parametrization(tour, graph)
    except ParameterError:
        return  # a step that is not an edge
    if not check.ok:
        return
    vertices, as_dict = oracle_form(graph)
    dist = graph_dist_brute(vertices, as_dict)
    bound = param.lip_bound * (1 + 1e-9)
    for a, b in itertools.combinations(range(len(visits)), 2):
        d = dist[visits[a]][visits[b]]
        assert d <= bound * (ts[b] - ts[a] + (b - a) * 2.0**-51), (a, b)


@given(graphs())
def test_edges_csv_matches_the_tuple_writer(graph):
    keys = graph.ground.tolist()
    edges = zip(graph.src.tolist(), graph.dst.tolist(),
                graph.length.tolist(), graph.provenance.tolist())
    with tempfile.TemporaryDirectory() as tmp:
        expected_path = os.path.join(tmp, "expected.csv")
        with open(expected_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["u", "v", "length", "provenance"])
            rows = {}
            for u, v, length, p in edges:
                rows[keys[u], keys[v]] = (
                    length, E_ADJACENCY if p == ADJACENCY else p
                )
            for (u, v), (length, p) in sorted(rows.items()):
                writer.writerow([f"g:{u}", f"g:{v}", repr(length), p])
        edges_csv(graph, os.path.join(tmp, "edges.csv"))
        with open(expected_path, "rb") as a, open(
            os.path.join(tmp, "edges.csv"), "rb"
        ) as b:
            assert b.read() == a.read()


@st.composite
def clouds_with_holes(draw):
    """(space, target): up to 40 points of [0, 1] on a grid of 1/32, so
    some coincide, under shuffled ids of both signs; the target leaves
    out an open hole."""
    n = draw(st.integers(4, 40))
    grid = draw(st.lists(st.integers(0, 32), min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n,
                        unique=True))
    space = MetricMeasureSpace.from_coords(
        ids, np.array(grid, dtype=float)[:, None] / 32, np.full(n, 1.0 / n)
    )
    lo = draw(st.integers(0, 28))
    hi = lo + draw(st.integers(2, 8))
    members = [i for i, g in zip(ids, grid) if not lo < g < hi]
    if not members:
        members = ids[:1]
    return space, enclosing_target(space, members)


@given(clouds_with_holes(), st.sampled_from([0.5 / 32, 1.5 / 32, 0.3]))
def test_positions_follow_the_ground_ids_and_bridges_are_edges(case, eps):
    """The vertices are the target members and bridge endpoints by
    ascending id, which is the order Kruskal's ties rely on.  Edge k is
    bridge k, the one edge (x, y), as long as the pair and owned by the
    first cube that bridged it; the adjacency edges follow."""
    space, target = case
    cfg = PorosityConfig(M=11.0, delta=0.003, n0=2, rho=1.0 / 16.0, C_mu=2.0)
    lo, hi = auto_levels(space, cfg.rho)
    hierarchy = build_nets(space, cfg.rho, lo, hi + cfg.n0, seed_ids=[target.xi0])
    tree = build_cubes(space, hierarchy)
    gap = dist_to_set(space, target.members)
    porous = find_porous(space, tree, target, gap, cfg)
    bridges = build_bridges(space, tree, hierarchy, porous, cfg)
    want = bridges_rows(space, tree, hierarchy, porous, cfg)
    assert bridges.pairs.tolist() == [list(pair) for pair in want]
    assert list(zip(bridges.cube.tolist(), bridges.length.tolist())) == list(
        want.values()
    )

    graph = assemble_gamma(space, target, bridges, eps)
    names = _labels(graph, np.arange(graph.vertex_count()))
    ground = set(target.members) | set(bridges.pairs.ravel().tolist())
    assert names == [f"g:{g}" for g in sorted(ground)]
    n_pairs = len(bridges.pairs)
    edges = [
        (names[u], names[v])
        for u, v in zip(graph.src[:n_pairs].tolist(), graph.dst[:n_pairs].tolist())
    ]
    assert edges == [(f"g:{x}", f"g:{y}") for x, y in bridges.pairs.tolist()]
    assert graph.length[:n_pairs].tolist() == bridges.length.tolist()
    assert graph.provenance[:n_pairs].tolist() == bridges.cube.tolist()
    assert np.all(graph.provenance[n_pairs:] == ADJACENCY)
