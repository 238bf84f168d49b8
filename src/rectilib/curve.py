"""Bridges, the assembled curve, and its Lipschitz parametrization.

A bridge between sample points x and y is one edge as long as
dist(x, y): X embeds isometrically in ℓ∞(X) by x ↦ d(x, ·) − d(x₀, ·),
where the segment from x to y is that long, so the curve may leave X
between x and y.  Each porous cube contributes bridges from its center
to the net points near it: a star that joins them through the center.
:func:`build_bridges` returns the pairs as a :class:`Bridges` record;
:func:`assemble_gamma` builds the one graph, the curve: target points,
the minimum spanning forest of their short-range adjacency (in Borůvka
rounds), and the bridges.
Parametrization doubles a minimum-length tree through every vertex
(Kruskal) into a closed tour, giving an explicitly Lipschitz surjection
onto the vertex set.  :func:`check_parametrization` checks every step:
an edge, no longer than the bound times its time gap plus 2**-51 for
three roundings of 2**-53; visits m steps apart are then within the
bound times their gap plus ``m * 2**-51``.

A :class:`BridgeGraph` is integer arrays, and a vertex is its position.
``ground`` holds the ground points (target members and bridge
endpoints) by ascending id, at positions ``0..G-1``, and these are all
the vertices.  The side files and the connectivity report label
position g ``g:<ground[g]>``.  ``src < dst`` are each edge's endpoint
positions, ``length`` its float64 length and ``provenance`` the id of
the porous cube that bridged it, or ``ADJACENCY`` (-1).

Order rules that fix every result: equal-length Kruskal ties resolve by
``(src, dst)``, that is by endpoint positions, then by insertion order;
edges keep insertion order, one bridge edge (x, y) per pair in
construction order, then adjacency edges by ascending ground pair; sums
are sequential, the budget's parts in edge order and the tree length in
Kruskal order.  A bridged pair closer than ``eps_res`` may also be an
adjacency edge, a parallel edge between the same positions: Kruskal
keeps the shorter, and of two equally long the bridge, inserted first;
the step check reads the shorter.  A tour visits positions.  All arrays
of bridges, graphs and tours are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubes import CubeTree
from .errors import DisconnectedError, ParameterError
from .nets import NetHierarchy
from .porosity import PorosityConfig, PorousFamily
from .space import (
    MetricMeasureSpace,
    TargetSet,
    _joined,
    _unique,
    _write_lines,
    linear_mass_check,
    seq_sum,
)

E_ADJACENCY = "E-adjacency"
ADJACENCY = -1  # provenance code of an E-adjacency edge


def _readonly(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Bridges:
    pairs: np.ndarray  # (P, 2) int64 point ids x < y, in construction order
    length: np.ndarray  # (P,) float64 dist(x, y)
    cube: np.ndarray  # (P,) int64 id of the first cube bridging the pair
    pairs_per_cube: dict[int, int]  # cube id -> pair count before dedupe
    skipped: tuple[int, ...]  # porous cubes lacking their bridge level

    def __post_init__(self):
        _readonly(self.pairs, self.length, self.cube)


@dataclass(frozen=True, eq=False)
class BridgeGraph:
    ground: np.ndarray  # (G,) int64 point ids at positions 0..G-1, ascending
    src: np.ndarray  # (E,) int64 vertex positions, src < dst
    dst: np.ndarray
    length: np.ndarray  # (E,) float64
    provenance: np.ndarray  # (E,) int64 cube id, or ADJACENCY

    def __post_init__(self):
        _readonly(self.ground, self.src, self.dst, self.length, self.provenance)

    def vertex_count(self) -> int:
        return len(self.ground)

    def edge_count(self) -> int:
        return len(self.src)


def _labels(graph: BridgeGraph, positions: np.ndarray) -> list[str]:
    """The label ``g:<id>`` of each vertex position."""
    ground = graph.ground.tolist()
    return [f"g:{ground[v]}" for v in np.asarray(positions).tolist()]


def build_bridges(
    space: MetricMeasureSpace,
    tree: CubeTree,
    hierarchy: NetHierarchy,
    porous: PorousFamily,
    cfg: PorosityConfig,
) -> Bridges:
    """Star bridges from each porous cube's center to the net points near it.

    For a porous cube at level n the endpoints are the level n + n0 net
    points strictly within M sidelengths of the center; each is joined
    to the center, so k such points cost k - 1 bridges and every bridge
    is as long as the center row's entry.  Nested cubes can share a
    center, so a pair appearing under several cubes is bridged once,
    attributed to the smallest contributing cube id; a coincident pair
    gets no bridge.  Cubes whose bridge level is missing from the
    hierarchy are skipped and reported.
    """

    ids = np.asarray(space.ids)

    def pairs_for(cube: int):
        """The cube's pairs and lengths by ascending far end, or None
        without its level."""
        level = int(tree.level[cube]) + cfg.n0
        if level not in hierarchy.levels:
            return None
        net = hierarchy.levels[level]
        net = net[np.argsort(ids[net], kind="stable")]
        center = int(tree.center[cube])
        dist = space.dists_between(center, net)
        near = (net != center) & (dist < cfg.M * float(tree.sidelength[cube]))
        # a coordinate row is symmetric bit for bit, so the center's
        # entry is the pair's distance whichever end is smaller
        c, q = ids[center], ids[net[near]]
        return np.column_stack([np.minimum(c, q), np.maximum(c, q)]), dist[near]

    found = [
        (np.empty((0, 2), dtype=np.int64), np.empty(0), np.empty(0, np.int64))
    ]
    pairs_per_cube: dict[int, int] = {}
    skipped: list[int] = []
    for cube in porous.cube.tolist():
        got = pairs_for(cube)
        if got is None:
            skipped.append(cube)
            continue
        pairs_per_cube[cube] = len(got[1])
        found.append(got + (np.full(len(got[1]), cube, dtype=np.int64),))
    pairs, length, cube = (np.concatenate(part) for part in zip(*found))
    apart = length > 0
    pairs, length, cube = pairs[apart], length[apart], cube[apart]
    # each pair's first row, kept in construction order
    keep = np.sort(np.unique(pairs, axis=0, return_index=True)[1])
    return Bridges(
        pairs=pairs[keep],
        length=length[keep],
        cube=cube[keep],
        pairs_per_cube=pairs_per_cube,
        skipped=tuple(skipped),
    )


def assemble_gamma(
    space: MetricMeasureSpace,
    target: TargetSet,
    bridges: Bridges,
    eps_res: float,
) -> BridgeGraph:
    """The curve graph: target points, short-range adjacency, bridges.

    The vertices are the target members plus every bridge endpoint, and
    each bridge is one edge (x, y) as long as its pair.
    The adjacency edges are the minimum spanning forest, under the
    strict order (length, a, b), of the ground pairs strictly closer
    than eps_res, each as long as their distance.  A pair left out is
    the longest edge of a cycle of such pairs, so it is in no minimum
    tree of the whole graph either: :func:`parametrize` builds the same
    tree with or without it.  Coincident pairs are skipped (an edge of
    length zero carries no metric information).  The forest grows in
    Borůvka rounds of
    :meth:`~rectilib.space.MetricMeasureSpace.boruvka_rounds`, each
    giving every component its lightest edge, so the pairs are never
    listed.  Vertices are numbered as the module docstring states.
    """
    if not 0 < eps_res < np.inf:
        raise ParameterError("eps_res must be positive and finite")
    members = np.asarray(target.members, dtype=np.int64)
    ground_ids = _unique(np.concatenate([members, bridges.pairs.ravel()]))
    n_ground = len(ground_ids)
    # x < y, so each bridge edge (x, y) has src < dst
    x_at, y_at = np.searchsorted(ground_ids, bridges.pairs.T)

    idx = space.indices_of(ground_ids.tolist())
    # each component takes its lightest edge, and the components so
    # joined merge; the order is strict, so the forest is unique
    label = np.arange(n_ground)
    forest = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    taken, rounds = 0, space.boruvka_rounds(idx, eps_res)
    while taken < n_ground - 1:  # a tree has no edge left to find
        a, b, d = rounds.round(label)
        comp = np.flatnonzero(d < np.inf)
        if not len(comp):
            break
        a, b, d = a[comp], b[comp], d[comp]
        ends = label[a]
        label, new = _merge(label, comp, np.where(ends == comp, label[b], ends))
        forest.append((a[new], b[new], d[new]))
        taken += int(new.sum())
    adj_a, adj_b, adj_d = _joined(forest)
    listed = np.lexsort((adj_b, adj_a))  # by ascending (a, b)
    adj_a, adj_b, adj_d = adj_a[listed], adj_b[listed], adj_d[listed]
    return BridgeGraph(
        ground=ground_ids,
        src=np.concatenate([x_at, adj_a]),
        dst=np.concatenate([y_at, adj_b]),
        length=np.concatenate([bridges.length, adj_d]),
        provenance=np.concatenate([bridges.cube, np.full(len(adj_d), ADJACENCY)]),
    )


@dataclass(frozen=True, eq=False)
class ConnectivityReport:
    components: int
    representatives: np.ndarray  # position of each component's smallest vertex


def connectivity(graph: BridgeGraph) -> ConnectivityReport:
    """Connected components, listed by their smallest vertex."""
    _, roots = _spanning_forest(graph.vertex_count(), graph.src, graph.dst)
    _, first = np.unique(roots, return_index=True)
    return ConnectivityReport(len(first), np.sort(first))


_BUDGET_SLACK = 1.0 + 1e-12  # relative float tolerance of every bound


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

    def violations(self) -> list[str]:
        """Each asserted inequality that fails, as "lhs x > limit y"."""
        inequalities = [
            ("e_part", self.e_part, "bound_e", self.bound_e),
            ("bridge_part", self.bridge_part,
             "bound_bridge", self.bound_bridge),
        ]
        if self.e_vacuous:
            del inequalities[0]
        return [
            f"{lhs} {float(value)!r} > {rhs} {float(limit)!r}"
            for lhs, value, rhs, limit in inequalities
            if not value <= limit * _BUDGET_SLACK
        ]

    @property
    def ok(self) -> bool:
        return not self.violations()


def length_budget(
    space: MetricMeasureSpace,
    target: TargetSet,
    graph: BridgeGraph,
    bridges: Bridges,
    porous: PorousFamily,
    tree: CubeTree,
    cfg: PorosityConfig,
) -> LengthBudget:
    """Adjacency and bridge length against their linear-mass budgets.

    The adjacency part is only asserted when ball masses over the
    target pass the 2r lower bound on a halving radius grid; otherwise
    it is reported but marked vacuous.  ``LengthBudget.violations``
    names each asserted inequality that fails, with its measured value
    and its limit.
    """
    adjacency = graph.provenance == ADJACENCY
    e_part = seq_sum(graph.length[adjacency])
    bridge_part = seq_sum(graph.length[~adjacency])
    mu_e = space.mass(space.indices_of(target.members))
    bound_e = 10.0 * mu_e

    max_pairs = max(bridges.pairs_per_cube.values(), default=0)
    c_pair = 2.0 * cfg.M * max_pairs
    sum_l = seq_sum(tree.sidelength[porous.cube])
    bound_bridge = c_pair * sum_l

    r_hi = space.diameter() / 4
    r_lo = 2 * space.min_gap()
    if 0 < r_lo < r_hi:
        check = linear_mass_check(space, target.members, r_lo, r_hi)
        mass_ok = check.ok
    else:
        mass_ok = False
    e_vacuous = not mass_ok
    return LengthBudget(
        e_part=e_part,
        bridge_part=bridge_part,
        bound_e=bound_e,
        bound_bridge=bound_bridge,
        c_pair=c_pair,
        sidelength_sum=sum_l,
        mass_check_ok=mass_ok,
        e_vacuous=e_vacuous,
    )


@dataclass(frozen=True, eq=False)
class CurveParametrization:
    visits: np.ndarray  # (N,) int64 vertex positions, in tour order
    ts: np.ndarray  # (N,) float64, nondecreasing, 0 to 1
    lip_bound: float  # twice the tree length
    tree_length: float


def _spanning_forest(
    n: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The edges that join two trees when scanned in order, ascending,
    and a component label (a vertex) per vertex.

    The scan order is a strict order, so these edges are the unique
    minimum spanning forest under it, and Borůvka rounds find them:
    each component takes its first edge to another component, and the
    components so joined merge.
    """
    src, dst = np.asarray(src), np.asarray(dst)
    label, edge, a, b = np.arange(n), np.arange(len(src)), src, dst
    taken = np.zeros(len(src), dtype=bool)
    while True:
        la, lb = label[a], label[b]
        out = la != lb  # an edge inside a component stays inside
        edge, a, b, la, lb = edge[out], a[out], b[out], la[out], lb[out]
        if not len(edge):
            break
        first = np.full(n, len(src))
        np.minimum.at(first, la, edge)
        np.minimum.at(first, lb, edge)
        comp = np.flatnonzero(first < len(src))
        pick = first[comp]
        taken[pick] = True
        ends = label[src[pick]]
        label, _ = _merge(label, comp, np.where(ends == comp, label[dst[pick]], ends))
    return np.flatnonzero(taken), label


def _merge(
    label: np.ndarray, comp: np.ndarray, other: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One Borůvka merge: each component ``comp[k]`` (a label) joins
    ``other[k]``, the component at the far end of its lightest edge.

    Under a strict edge order, two components that point at each other
    took the same edge, the smaller is the root, and no longer cycle
    exists.  Returns each vertex's new label and, per component,
    whether its edge is its own: not that of a smaller component
    pointing back.
    """
    parent = np.arange(len(label))
    parent[comp] = other
    mutual = parent[other] == comp
    root = comp[mutual & (comp < other)]
    parent[root] = root
    while np.any(parent[parent] != parent):
        parent = parent[parent]
    return parent[label], ~(mutual & (comp > other))


def _euler_tour(
    n: int, start: int, src: np.ndarray, dst: np.ndarray, length: np.ndarray
) -> tuple[list[int], list[float]]:
    """Closed depth-first walk of a tree; children in ascending position.

    Returns the visited positions and the length of each step.
    """
    ends = np.concatenate([src, dst])
    order = np.lexsort((np.concatenate([dst, src]), ends))
    indptr = np.searchsorted(ends[order], np.arange(n + 1)).tolist()
    nbr = np.concatenate([dst, src])[order].tolist()
    wt = np.concatenate([length, length])[order].tolist()
    cursor = indptr[:-1]
    parent = [-1] * n
    up = [0.0] * n  # length of the edge to the parent
    visits, steps = [start], []
    stack = [start]
    while stack:
        node = stack[-1]
        k, end = cursor[node], indptr[node + 1]
        if k < end and nbr[k] == parent[node]:
            k += 1
        if k < end:
            cursor[node] = k + 1
            child = nbr[k]
            parent[child], up[child] = node, wt[k]
            visits.append(child)
            steps.append(wt[k])
            stack.append(child)
        else:
            stack.pop()
            if stack:
                visits.append(stack[-1])
                steps.append(up[node])
    return visits, steps


def parametrize(graph: BridgeGraph) -> CurveParametrization:
    """Closed tour of a minimum-length tree, parametrized by length.

    Edges enter the tree in (length, src, dst) order, so equal lengths
    resolve by vertex position, in the order the module docstring
    states.  The tour starts at the smallest vertex, walks children in
    ascending order, and re-emits the parent after each child subtree;
    every edge is traversed exactly twice, making the tour speed (hence
    the Lipschitz bound) twice the tree length.  A single-vertex graph
    gets the constant parametrization.  A disconnected graph raises
    :class:`DisconnectedError` with the component count of the Kruskal
    forest.
    """
    n = graph.vertex_count()
    if not n:
        raise ParameterError("cannot parametrize an empty graph")
    ranked = np.lexsort((graph.dst, graph.src, graph.length))
    taken, _ = _spanning_forest(n, graph.src[ranked], graph.dst[ranked])
    # each taken edge joins two trees, so the forest has n - len(taken)
    components = n - len(taken)
    if components != 1:
        raise DisconnectedError(
            f"graph has {components} components", components=components
        )
    tree = ranked[taken]  # tree edges, in Kruskal order
    tree_length = seq_sum(graph.length[tree])
    visits, steps = _euler_tour(
        n, 0, graph.src[tree], graph.dst[tree], graph.length[tree]
    )
    cum = np.concatenate(([0.0], np.cumsum(steps)))
    total = float(cum[-1])  # the same sum as cum, so the last time is 1
    visits = np.array(visits, dtype=np.int64)
    ts = cum / total if total else cum  # one vertex: no steps, time 0
    _readonly(visits, ts)
    return CurveParametrization(
        visits=visits, ts=ts, lip_bound=total, tree_length=tree_length
    )


_RATIO_SLACK = 1.0 + 1e-9  # relative float tolerance of the Lipschitz bound


@dataclass(frozen=True)
class ParamCheck:
    missing: int  # vertices the tour never visits
    max_ratio: float
    witness: tuple[int, int] | None  # the worst step (k, k + 1)
    lip_bound: float

    @property
    def surjective(self) -> bool:
        return self.missing == 0

    @property
    def lipschitz_ok(self) -> bool:
        return self.max_ratio <= self.lip_bound * _RATIO_SLACK

    def violations(self) -> list[str]:
        """Surjectivity and the Lipschitz bound, where they fail."""
        out = []
        if not self.surjective:
            out.append(f"missing {self.missing} > 0")
        if not self.lipschitz_ok:
            out.append(
                f"max_ratio {self.max_ratio!r} > lip_bound "
                f"{self.lip_bound!r} at visits {self.witness}"
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()


def check_parametrization(
    param: CurveParametrization, graph: BridgeGraph
) -> ParamCheck:
    """Surjectivity and the Lipschitz bound of a tour, on every step.

    Each step, visits k and k + 1, must be an edge, the shortest of any
    parallel ones.  ``max_ratio`` is the largest
    ``length_k / (t_{k+1} - t_k + 2**-51)``, witness ``(k, k + 1)``:
    2**-51 covers the rounding of two times in [0, 1] and of their gap.
    A pass bounds d(v_a, v_b), a < b, by the triangle inequality, to
    ``lip_bound * (1 + 1e-9) * (t_b - t_a + (b - a) * 2**-51)`` up to a
    few ulps; the 2**-51 per step adds up.  A visit off the graph, a step
    off its edges, other than one time per visit, or times that fall or
    leave [0, 1] raise :class:`ParameterError`.
    """
    pos = np.asarray(param.visits)
    ts = np.asarray(param.ts, dtype=float)
    n_visits, n = len(pos), graph.vertex_count()
    if len(ts) != n_visits:
        raise ParameterError(
            f"tour has {len(ts)} times for {n_visits} visits"
        )
    off = np.flatnonzero((pos < 0) | (pos >= n))
    if len(off):
        i = int(off[0])
        raise ParameterError(
            f"visit {i} is at position {int(pos[i])}, which is not a vertex "
            f"of the graph of {n} vertices"
        )
    dt = np.diff(ts)
    if n_visits and not (ts[0] >= 0 and ts[-1] <= 1 and np.all(dt >= 0)):
        raise ParameterError("tour times must be nondecreasing within [0, 1]")
    missing = n - len(_unique(pos))
    step = np.minimum(pos[:-1], pos[1:]) * n + np.maximum(pos[:-1], pos[1:])
    codes = np.append(graph.src * n + graph.dst, n * n)  # above every step
    order = np.lexsort((np.append(graph.length, 0.0), codes))
    edge = order[np.searchsorted(codes, step, sorter=order)]
    astray = np.flatnonzero(codes[edge] != step)
    if len(astray):
        k = int(astray[0])
        raise ParameterError(
            f"step ({k}, {k + 1}) from position {int(pos[k])} to "
            f"{int(pos[k + 1])} is not an edge of the graph"
        )
    max_ratio, witness = 0.0, None
    if n_visits >= 2:
        ratio = graph.length[edge] / (dt + 2.0**-51)
        k = int(np.argmax(ratio))
        max_ratio, witness = float(ratio[k]), (k, k + 1)
    return ParamCheck(
        missing=missing,
        max_ratio=max_ratio,
        witness=witness,
        lip_bound=float(param.lip_bound),
    )


# The side files are written line by line: no field holds a comma, a
# quote or a line break, so each line is what csv.writer would write.
_EOL = "\r\n"


def edges_csv(graph: BridgeGraph, path: str) -> None:
    """Edge list as CSV in endpoint order: endpoints, length, provenance."""
    names = _labels(graph, np.arange(graph.vertex_count()))
    order = np.lexsort((graph.dst, graph.src))
    lines = (
        f"{names[u]},{names[v]},{length!r},"
        f"{E_ADJACENCY if p == ADJACENCY else p}{_EOL}"
        for u, v, length, p in zip(
            graph.src[order].tolist(),
            graph.dst[order].tolist(),
            graph.length[order].tolist(),
            graph.provenance[order].tolist(),
        )
    )
    _write_lines(path, f"u,v,length,provenance{_EOL}", lines)


def parametrization_csv(
    param: CurveParametrization,
    graph: BridgeGraph,
    space: MetricMeasureSpace,
    path: str,
) -> None:
    """Tour as CSV: t, vertex, coordinates when available."""
    dim = 0 if space.coords is None else space.coords.shape[1]
    # each vertex's label and coordinate fields, formatted once
    tails = _labels(graph, np.arange(graph.vertex_count()))
    if dim:
        coords = space.coords[space.indices_of(graph.ground.tolist())]
        tails = [
            ",".join([name] + [repr(c) for c in xs])
            for name, xs in zip(tails, coords.tolist())
        ]
    header = ",".join(["t", "vertex"] + [f"x{i + 1}" for i in range(dim)])
    lines = (
        f"{t!r},{tails[k]}{_EOL}"
        for t, k in zip(np.asarray(param.ts).tolist(), param.visits.tolist())
    )
    _write_lines(path, header + _EOL, lines)
