"""Bridge graphs, the assembled curve, and its Lipschitz parametrization.

A bridge between sample points x and y is a three-edge detour through
two abstract lifted vertices, every edge as long as dist(x, y).  The
curve graph is the target set plus short-range adjacency plus all
bridges contributed by porous cubes.  Parametrization doubles a
minimum spanning tree into a closed tour, giving an explicitly
Lipschitz surjection onto the vertex set.

Vertices are sortable 4-tuples: ground points are (0, id, 0, 0) and
the two lifted vertices of the bridge over the pair x < y are
(1, x, y, 0) and (1, x, y, 1), nearer x and y respectively.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .cubes import CubeTree
from .errors import DisconnectedError, ParameterError
from .nets import NetHierarchy
from .porosity import PorosityConfig, PorousCube
from .space import MetricMeasureSpace, TargetSet, linear_mass_check

VKey = tuple[int, int, int, int]

E_ADJACENCY = "E-adjacency"


def ground_key(point_id: int) -> VKey:
    return (0, point_id, 0, 0)


def lifted_keys(x: int, y: int) -> tuple[VKey, VKey]:
    if not x < y:
        raise ParameterError("bridge pair must be ordered")
    return (1, x, y, 0), (1, x, y, 1)


def key_str(v: VKey) -> str:
    if v[0] == 0:
        return f"g:{v[1]}"
    return f"b:{v[1]}:{v[2]}:{v[3]}"


@dataclass(frozen=True)
class BridgeGraph:
    vertices: tuple[VKey, ...]  # sorted ascending
    edges: dict[tuple[VKey, VKey], float]  # key (u, v) with u < v
    provenance: dict[tuple[VKey, VKey], int | str]
    bridge_pairs: dict[tuple[int, int], int]  # pair -> first cube id
    pairs_per_cube: dict[int, int]  # cube id -> pair count before dedupe
    skipped: tuple[int, ...]  # porous cubes lacking their bridge level

    def edge_count(self) -> int:
        return len(self.edges)

    def total_length(self) -> float:
        return float(sum(self.edges.values()))

    def to_csr(self) -> csr_matrix:
        """Symmetric sparse adjacency in vertex order."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        rows, cols, vals = [], [], []
        for (u, v), length in self.edges.items():
            rows.extend((pos[u], pos[v]))
            cols.extend((pos[v], pos[u]))
            vals.extend((length, length))
        return csr_matrix(
            (np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
            shape=(n, n),
        )


def _edge_key(u: VKey, v: VKey) -> tuple[VKey, VKey]:
    return (u, v) if u < v else (v, u)


def build_bridges(
    space: MetricMeasureSpace,
    tree: CubeTree,
    hierarchy: NetHierarchy,
    porous: Sequence[PorousCube],
    cfg: PorosityConfig,
    mode: str = "complete",
) -> BridgeGraph:
    """Bridges over net-point pairs near each porous cube's center.

    For a porous cube at level n the candidate endpoints are the level
    n + n0 net points strictly within M sidelengths of the center; in
    complete mode every unordered pair gets a bridge, in star mode only
    the pairs through the center.  A pair appearing under several cubes
    is bridged once, attributed to the smallest contributing cube id.
    Cubes whose bridge level is missing from the hierarchy are skipped
    and reported.
    """
    if mode not in ("complete", "star"):
        raise ParameterError(f"unknown bridge mode {mode!r}")

    def pairs_for(p: PorousCube):
        cube = tree.cubes[p.cube]
        level = cube.level + cfg.n0
        if level not in hierarchy.levels:
            return None
        idx = space.indices_of(hierarchy.levels[level])
        row = space.dists_from(space.index_of(cube.center))
        near = sorted(
            hierarchy.levels[level][j]
            for j in range(len(idx))
            if row[idx[j]] < cfg.M * cube.sidelength
        )
        if mode == "complete":
            pairs = list(itertools.combinations(near, 2))
        else:
            pairs = [
                tuple(sorted((cube.center, q)))
                for q in near
                if q != cube.center
            ]
        return pairs

    ordered = sorted(porous, key=lambda p: p.cube)
    results = [pairs_for(p) for p in ordered]

    edges: dict[tuple[VKey, VKey], float] = {}
    provenance: dict[tuple[VKey, VKey], int | str] = {}
    bridge_pairs: dict[tuple[int, int], int] = {}
    pairs_per_cube: dict[int, int] = {}
    skipped: list[int] = []
    verts: set[VKey] = set()
    row_cache: dict[int, np.ndarray] = {}
    for p, pairs in zip(ordered, results):
        if pairs is None:
            skipped.append(p.cube)
            continue
        pairs_per_cube[p.cube] = len(pairs)
        for x, y in pairs:
            if (x, y) in bridge_pairs:
                continue
            if x not in row_cache:
                row_cache[x] = space.dists_from(space.index_of(x))
            d = float(row_cache[x][space.index_of(y)])
            if d <= 0:
                continue
            bridge_pairs[(x, y)] = p.cube
            gx, gy = ground_key(x), ground_key(y)
            lx, ly = lifted_keys(x, y)
            verts.update((gx, gy, lx, ly))
            for u, v in ((gx, lx), (lx, ly), (ly, gy)):
                key = _edge_key(u, v)
                edges[key] = d
                provenance[key] = p.cube
    return BridgeGraph(
        vertices=tuple(sorted(verts)),
        edges=edges,
        provenance=provenance,
        bridge_pairs=bridge_pairs,
        pairs_per_cube=pairs_per_cube,
        skipped=tuple(skipped),
    )


def assemble_gamma(
    space: MetricMeasureSpace,
    target: TargetSet,
    bridges: BridgeGraph,
    eps_res: float,
) -> BridgeGraph:
    """The curve graph: target points, short-range adjacency, bridges.

    Ground vertices are the target members plus every bridge endpoint;
    each ground pair strictly closer than eps_res gains an adjacency
    edge of their distance.  Coincident pairs are skipped (an edge of
    length zero carries no metric information).
    """
    if not eps_res > 0:
        raise ParameterError("eps_res must be positive")
    ground_ids = sorted(
        set(target.members)
        | {x for x, _ in bridges.bridge_pairs}
        | {y for _, y in bridges.bridge_pairs}
    )
    edges = dict(bridges.edges)
    provenance = dict(bridges.provenance)
    verts = set(bridges.vertices)
    verts.update(ground_key(g) for g in ground_ids)
    idx = space.indices_of(ground_ids)
    for a, g in enumerate(ground_ids):
        row = space.dists_from(int(idx[a]))[idx]
        for b in np.flatnonzero((row > 0) & (row < eps_res)):
            h = ground_ids[int(b)]
            if h <= g:
                continue
            key = (ground_key(g), ground_key(h))
            edges[key] = float(row[int(b)])
            provenance[key] = E_ADJACENCY
    return BridgeGraph(
        vertices=tuple(sorted(verts)),
        edges=edges,
        provenance=provenance,
        bridge_pairs=bridges.bridge_pairs,
        pairs_per_cube=bridges.pairs_per_cube,
        skipped=bridges.skipped,
    )


@dataclass(frozen=True)
class ConnectivityReport:
    components: int
    representatives: tuple[VKey, ...]  # smallest vertex of each component
    labels: dict[VKey, int]


def connectivity(graph: BridgeGraph) -> ConnectivityReport:
    """Connected components; labels are numbered by smallest vertex."""
    if not graph.vertices:
        return ConnectivityReport(0, (), {})
    n_raw, raw = connected_components(graph.to_csr(), directed=False)
    relabel: dict[int, int] = {}
    reps: list[VKey] = []
    labels: dict[VKey, int] = {}
    for v, r in zip(graph.vertices, raw):
        if int(r) not in relabel:
            relabel[int(r)] = len(reps)
            reps.append(v)
        labels[v] = relabel[int(r)]
    return ConnectivityReport(
        components=n_raw, representatives=tuple(reps), labels=labels
    )


@dataclass(frozen=True)
class LengthBudget:
    e_part: float
    bridge_part: float
    bound_e: float  # 10 * target mass
    bound_bridge: float  # c_pair * sum of porous sidelengths
    c_pair: float
    sidelength_sum: float
    mass_check_ok: bool  # ball masses over the target pass >= 2r
    e_vacuous: bool  # bound_e not asserted because the check failed
    gated_cubes: int  # porous cubes whose mass reaches 2 sidelengths
    gated_sidelength_sum: float
    gated_mass_sum: float
    gated_ok: bool
    ok: bool


def length_budget(
    space: MetricMeasureSpace,
    target: TargetSet,
    graph: BridgeGraph,
    porous: Sequence[PorousCube],
    tree: CubeTree,
    cfg: PorosityConfig,
) -> LengthBudget:
    """Adjacency and bridge length against their linear-mass budgets.

    The adjacency part is only asserted when ball masses over the
    target pass the 2r lower bound on a halving radius grid; otherwise
    it is reported but marked vacuous.  The sidelength-vs-mass
    comparison is restricted to the porous cubes whose own mass reaches
    twice their sidelength, where it holds term by term.
    """
    e_part = bridge_part = 0.0
    for key, length in graph.edges.items():
        if graph.provenance[key] == E_ADJACENCY:
            e_part += length
        else:
            bridge_part += length
    mu_e = float(space.weights[space.indices_of(target.members)].sum())
    bound_e = 10.0 * mu_e

    max_pairs = max(graph.pairs_per_cube.values(), default=0)
    c_pair = 3.0 * 2.0 * cfg.M * max_pairs
    sum_l = sum(tree.cubes[p.cube].sidelength for p in porous)
    bound_bridge = c_pair * sum_l

    r_hi = space.diameter() / 4
    r_lo = 2 * space.min_gap()
    if 0 < r_lo < r_hi:
        check = linear_mass_check(space, target.members, r_lo, r_hi)
        mass_ok = check.ok
    else:
        mass_ok = False
    e_vacuous = not mass_ok

    gated = [
        p
        for p in porous
        if tree.cubes[p.cube].mass >= 2 * tree.cubes[p.cube].sidelength
    ]
    gated_l = sum(tree.cubes[p.cube].sidelength for p in gated)
    gated_mu = sum(tree.cubes[p.cube].mass for p in gated)
    slack = 1.0 + 1e-12
    gated_ok = gated_l <= 0.5 * gated_mu * slack
    ok = (
        (e_vacuous or e_part <= bound_e * slack)
        and bridge_part <= bound_bridge * slack
        and gated_ok
    )
    return LengthBudget(
        e_part=e_part,
        bridge_part=bridge_part,
        bound_e=bound_e,
        bound_bridge=bound_bridge,
        c_pair=c_pair,
        sidelength_sum=sum_l,
        mass_check_ok=mass_ok,
        e_vacuous=e_vacuous,
        gated_cubes=len(gated),
        gated_sidelength_sum=gated_l,
        gated_mass_sum=gated_mu,
        gated_ok=gated_ok,
        ok=ok,
    )


class _UnionFind:
    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True


@dataclass(frozen=True)
class CurveParametrization:
    visits: tuple[VKey, ...]
    ts: tuple[float, ...]  # nondecreasing, 0 to 1
    lip_bound: float  # twice the spanning tree length
    tree_length: float


def parametrize(graph: BridgeGraph) -> CurveParametrization:
    """Closed tour of a minimum spanning tree, parametrized by length.

    Edges enter the tree in (length, endpoints) order, so equal lengths
    resolve lexicographically.  The tour starts at the smallest vertex,
    walks children in sorted order, and re-emits the parent after each
    child subtree; every edge is traversed exactly twice, making the
    tour speed (hence the Lipschitz bound) twice the tree length.  A
    single-vertex graph gets the constant parametrization.
    """
    if not graph.vertices:
        raise ParameterError("cannot parametrize an empty graph")
    if len(graph.vertices) == 1:
        return CurveParametrization(
            visits=(graph.vertices[0],),
            ts=(0.0,),
            lip_bound=0.0,
            tree_length=0.0,
        )
    report = connectivity(graph)
    if report.components != 1:
        raise DisconnectedError(
            f"graph has {report.components} components",
            components=report.components,
        )
    uf = _UnionFind(graph.vertices)
    tree_adj: dict[VKey, list[tuple[VKey, float]]] = {
        v: [] for v in graph.vertices
    }
    tree_length = 0.0
    for (u, v), length in sorted(
        graph.edges.items(), key=lambda kv: (kv[1], kv[0])
    ):
        if uf.union(u, v):
            tree_adj[u].append((v, length))
            tree_adj[v].append((u, length))
            tree_length += length
    for v in tree_adj:
        tree_adj[v].sort()

    start = graph.vertices[0]
    visits: list[VKey] = [start]
    lengths: list[float] = []
    # stack holds (vertex, parent, iterator over children)
    stack = [(start, None, iter(tree_adj[start]))]
    while stack:
        node, parent, it = stack[-1]
        advanced = False
        for child, w in it:
            if child == parent:
                continue
            visits.append(child)
            lengths.append(w)
            stack.append((child, node, iter(tree_adj[child])))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if stack:
                back = stack[-1][0]
                visits.append(back)
                lengths.append(
                    next(w for c, w in tree_adj[node] if c == back)
                )
    total = float(sum(lengths))
    cum = np.concatenate(([0.0], np.cumsum(lengths)))
    ts = tuple(float(t) for t in cum / total)
    return CurveParametrization(
        visits=tuple(visits),
        ts=ts,
        lip_bound=total,
        tree_length=tree_length,
    )


@dataclass(frozen=True)
class ParamCheck:
    surjective: bool
    missing: int
    max_ratio: float
    witness: tuple[int, int] | None  # visit indices of the worst pair
    lipschitz_ok: bool
    ok: bool


def check_parametrization(
    param: CurveParametrization,
    graph: BridgeGraph,
    sample_pairs: int = 10_000,
    seed: int = 0,
) -> ParamCheck:
    """Surjectivity (exact) and sampled Lipschitz ratios of a tour.

    Ratios compare graph distance between visited vertices to the
    parameter gap; the tour segment between two visits is at least the
    graph distance, so every ratio must stay within the bound.
    """
    visited = set(param.visits)
    missing = len(set(graph.vertices) - visited)
    surjective = missing == 0 and visited <= set(graph.vertices)

    n_visits = len(param.visits)
    max_ratio = 0.0
    witness: tuple[int, int] | None = None
    lipschitz_ok = True
    if n_visits >= 2 and param.lip_bound > 0:
        rng = np.random.default_rng(seed)
        side = max(1, int(math.isqrt(sample_pairs)))
        src_visits = rng.integers(0, n_visits, size=side)
        dst_visits = rng.integers(0, n_visits, size=side)
        pos = {v: i for i, v in enumerate(graph.vertices)}
        src_idx = sorted({pos[param.visits[i]] for i in src_visits})
        dist = dijkstra(
            graph.to_csr(), directed=False, indices=src_idx
        )
        row_of = {v: r for r, v in enumerate(src_idx)}
        ts = np.asarray(param.ts)
        bound = param.lip_bound * (1 + 1e-9)
        for i in src_visits:
            r = row_of[pos[param.visits[int(i)]]]
            for j in dst_visits:
                dt = abs(ts[int(i)] - ts[int(j)])
                if dt == 0:
                    continue
                ratio = float(
                    dist[r, pos[param.visits[int(j)]]] / dt
                )
                if ratio > max_ratio:
                    max_ratio = ratio
                    witness = (int(i), int(j))
                if ratio > bound:
                    lipschitz_ok = False
    return ParamCheck(
        surjective=surjective,
        missing=missing,
        max_ratio=max_ratio,
        witness=witness,
        lipschitz_ok=lipschitz_ok,
        ok=surjective and lipschitz_ok,
    )


def edges_csv(graph: BridgeGraph, path: str) -> None:
    """Edge list as CSV: endpoints, length, provenance."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "length", "provenance"])
        for (u, v), length in sorted(graph.edges.items()):
            writer.writerow(
                [key_str(u), key_str(v), repr(length), graph.provenance[(u, v)]]
            )


def parametrization_csv(
    param: CurveParametrization,
    space: MetricMeasureSpace,
    path: str,
) -> None:
    """Tour as CSV: t, vertex, coordinates when available."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = 0 if space.coords is None else space.coords.shape[1]
        writer.writerow(
            ["t", "vertex"] + [f"x{i + 1}" for i in range(dim)]
        )
        for t, v in zip(param.ts, param.visits):
            row = [repr(t), key_str(v)]
            if dim and v[0] == 0:
                row += [
                    repr(float(c))
                    for c in space.coords[space.index_of(v[1])]
                ]
            elif dim:
                row += [""] * dim
            writer.writerow(row)
