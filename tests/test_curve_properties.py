"""Property tests: the array-backed curve graph matches the tuple oracles.

Small random graphs over 4-integer vertex keys (negative and large ids
included) with integer-heavy lengths, so equal-length ties are common,
and with several components and isolated vertices.  Components,
representatives, the spanning-tree tour and the edge list must equal
what the tuple-keyed implementation gives, bit for bit.  A tour the
Lipschitz check passes, honest or tampered with, keeps every pair of
visits within the bound, plus 2**-51 per step between them, under the
oracle's graph distances.
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

from _oracles import components_brute, graph_dist_brute, tour_brute
from rectilib.curve import (
    ADJACENCY,
    E_ADJACENCY,
    BridgeGraph,
    check_parametrization,
    connectivity,
    edges_csv,
    key_str,
    parametrize,
)
from rectilib.errors import DisconnectedError, ParameterError

IDS = st.sampled_from([-(2**62), -7, -1, 0, 1, 3, 2**40, 2**62])
KEYS = st.tuples(st.sampled_from([0, 1]), IDS, IDS, st.sampled_from([0, 1]))
LENGTHS = st.sampled_from([1.0, 1.0, 2.0, 0.1])
PROVENANCE = st.sampled_from([ADJACENCY, 0, 4])


@st.composite
def graphs(draw):
    """(vertex keys, edges as (u, v, length, provenance) in insertion order)."""
    n = draw(st.integers(1, 9))
    keys = draw(st.lists(KEYS, min_size=n, max_size=n, unique=True))
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
    edges = []
    for i, j in chosen:
        u, v = (keys[i], keys[j]) if draw(st.booleans()) else (keys[j], keys[i])
        edges.append((u, v, draw(LENGTHS), draw(PROVENANCE)))
    return keys, edges


def oracle_form(keys, edges):
    """The tuple-keyed graph: sorted vertices and {(u, v): length}, u < v."""
    as_dict = {}
    for u, v, length, _ in edges:
        as_dict[(u, v) if u < v else (v, u)] = length
    return tuple(sorted(keys)), as_dict


@given(graphs())
def test_connectivity_and_tour_match_the_tuple_oracle(case):
    keys, edges = case
    graph = BridgeGraph.from_edges(edges, vertices=keys)
    vertices, as_dict = oracle_form(keys, edges)
    assert [tuple(k) for k in graph.keys.tolist()] == list(vertices)

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
    assert [tuple(v) for v in graph.keys[param.visits].tolist()] == list(visits)
    assert param.ts.tolist() == list(ts)
    assert param.lip_bound == lip_bound
    assert param.tree_length == tree_length
    check = check_parametrization(param, graph)
    assert check.surjective and check.ok


# where a moved time lands between its neighbours' times
SHARES = st.sampled_from([0.0, 1e-3, 0.5, 1 - 1e-3, 1.0])


@settings(max_examples=150)
@given(graphs(), st.data())
def test_a_passed_tour_keeps_every_pair_of_visits_within_the_bound(case, data):
    """Tours are the honest one, or it with a run of visits dropped and
    the times respaced evenly, then one visit sent to any vertex, then
    one time moved between its neighbours'.  Whenever the check passes,
    visits a < b have graph distance at most ``lip_bound * (1 + 1e-9)``
    times their gap plus ``(b - a) * 2**-51``."""
    keys, edges = case
    graph = BridgeGraph.from_edges(edges, vertices=keys)
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
        visits[i] = data.draw(st.integers(0, len(keys) - 1), label="to")
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
    vertices, as_dict = oracle_form(keys, edges)
    dist = graph_dist_brute(vertices, as_dict)
    bound = param.lip_bound * (1 + 1e-9)
    for a, b in itertools.combinations(range(len(visits)), 2):
        d = dist[visits[a]][visits[b]]
        assert d <= bound * (ts[b] - ts[a] + (b - a) * 2.0**-51), (a, b)


@given(graphs())
def test_edges_csv_matches_the_tuple_writer(case):
    keys, edges = case
    graph = BridgeGraph.from_edges(edges, vertices=keys)
    with tempfile.TemporaryDirectory() as tmp:
        expected_path = os.path.join(tmp, "expected.csv")
        with open(expected_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["u", "v", "length", "provenance"])
            rows = {}
            for u, v, length, p in edges:
                key = (u, v) if u < v else (v, u)
                rows[key] = (length, E_ADJACENCY if p == ADJACENCY else p)
            for (u, v), (length, p) in sorted(rows.items()):
                writer.writerow([key_str(u), key_str(v), repr(length), p])
        edges_csv(graph, os.path.join(tmp, "edges.csv"))
        with open(expected_path, "rb") as a, open(
            os.path.join(tmp, "edges.csv"), "rb"
        ) as b:
            assert b.read() == a.read()
