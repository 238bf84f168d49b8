"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: plain
loops, no shared helpers from the package under test beyond raw
distances, so a bug in the library cannot hide in its own oracle.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from rectilib.curve import BridgeGraph
from rectilib.errors import DegenerateInputError


def weight_levels(weights) -> list:
    """Each weight cut into parts, one list of parts per level.

    At each level the unit is ``2**-52`` times the power of two just
    above twice the remaining total (``math.fsum``), and never below the
    smallest subnormal; a weight's part is the weight rounded down to a
    multiple of the unit, and what is left goes on to the next level,
    until nothing is left.
    """
    rest = [float(w) for w in weights]
    levels = []
    while any(rest):
        exponent = math.frexp(math.fsum(rest))[1] + 1 - 52
        unit = math.ldexp(1.0, max(exponent, -1074))
        level = [math.floor(w / unit) * unit for w in rest]
        rest = [w - part for w, part in zip(rest, level)]
        levels.append(level)
    return levels


def mass_of(levels, positions) -> float:
    """Mass of the points at ``positions``: each level's parts summed by
    ``math.fsum``, the level sums added in level order."""
    positions = list(positions)
    total = 0.0
    for level in levels:
        total += math.fsum(level[k] for k in positions)
    return total


def ball_mass_brute(space, center_id: int, radius: float) -> float:
    """Open-ball mass by looping over every point."""
    c = space.index_of(center_id)
    inside = []
    for pid in space.ids:
        k = space.index_of(pid)
        if space.dists_from(c)[k] < radius:
            inside.append(k)
    return mass_of(weight_levels(space.weights), inside)


def stratify_brute(space, member_ids, j: int, k: int) -> tuple:
    """Density stratum E_{j,k} of the members, by loops over every point.

    The radius grid halves from 1/k down to half the smallest positive
    distance (with the library's 1e-12 relative allowance at the
    bottom); a member stays when every open ball around it of a grid
    radius strictly below 1/k holds mass at least r/j.  Returns the
    kept ids in ascending order; a grid with no radius strictly below
    1/k raises :class:`DegenerateInputError`.
    """
    gap = math.inf
    for a in range(len(space)):
        for d in space.dists_from(a):
            if 0 < d < gap:
                gap = float(d)
    r_lo = gap / 2.0
    radii = []
    r = 1.0 / k
    while r >= r_lo * (1.0 - 1e-12):
        if r < 1.0 / k:
            radii.append(r)
        r /= 2.0
    if not radii:
        raise DegenerateInputError("no grid radius below 1/k")
    kept = []
    for p in sorted(set(member_ids)):
        if all(ball_mass_brute(space, p, r) >= r / j for r in radii):
            kept.append(p)
    return tuple(kept)


def greedy_cover_trace(space, member_ids, delta: float, r_min: float):
    """Literal re-run of the documented greedy covering.

    Candidate radii halve down from just under delta to r_min; each
    round picks the (center, radius) maximizing uncovered mass per
    radius, preferring smaller radii and then smaller center ids on
    ties.  When only zero-gain points are left, they are covered at
    r_min by ascending id: each still uncovered one centres a ball,
    which covers every point left within r_min of it.  Returns the list
    of (center_id, radius) chosen, in order.
    """
    radii = []
    r = delta * (1.0 - 1e-9)
    while r > r_min:
        radii.append(r)
        r /= 2.0
    radii.append(r_min)
    radii = sorted(radii)

    members = sorted(member_ids)
    levels = weight_levels(space.weights)
    uncovered = set(members)
    chosen = []
    while uncovered:
        best = None  # (gain, radius, center)
        for radius in radii:
            for center in members:
                c = space.index_of(center)
                row = space.dists_from(c)
                gain = mass_of(
                    levels,
                    (
                        space.index_of(p)
                        for p in uncovered
                        if row[space.index_of(p)] < radius
                    ),
                )
                gain /= radius
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, radius, center)
        if best is None:
            for p in sorted(uncovered):
                if p in uncovered:
                    chosen.append((p, r_min))
                    row = space.dists_from(space.index_of(p))
                    uncovered = {t for t in uncovered if row[space.index_of(t)] >= r_min}
            break
        _, radius, center = best
        chosen.append((center, radius))
        row = space.dists_from(space.index_of(center))
        uncovered = {
            p for p in uncovered if row[space.index_of(p)] >= radius
        }
    return chosen


def beta2_grid(space, member_ids, n_angles: int = 10_000) -> float:
    """Planar flatness by exhaustive line angles with exact offsets.

    For each direction the optimal parallel line passes through the
    weighted mean of the normal projections, so only the angle needs
    scanning.  Returns the minimal scale-free value; exceeds the true
    infimum by at most the angular step's effect.
    """
    ids = sorted(set(member_ids))
    idx = [space.index_of(p) for p in ids]
    pts = space.coords[idx]
    w = space.weights[idx]
    mass = float(w.sum())
    diam = 0.0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            diam = max(diam, float(np.linalg.norm(pts[i] - pts[j])))
    if diam == 0:
        return 0.0
    best = math.inf
    for k in range(n_angles):
        theta = math.pi * k / n_angles
        normal = np.array([-math.sin(theta), math.cos(theta)])
        proj = pts @ normal
        center = float((w * proj).sum() / mass)
        rss = float((w * (proj - center) ** 2).sum())
        best = min(best, rss)
    return math.sqrt(best / (mass * diam * diam))


def beta2_submatrix(space, member_ids) -> float:
    """beta2's value with the diameter read off the members' full
    distance submatrix, the way beta2 once computed it."""
    ids = sorted(set(member_ids))
    idx = space.indices_of(ids)
    w = space.weights[idx]
    mass = mass_of(weight_levels(space.weights), idx)
    pts = space.coords[idx]
    centered = pts - (w[:, None] * pts).sum(axis=0) / mass
    moment = centered.T @ (w[:, None] * centered)
    diam = float(space.distance_matrix()[np.ix_(idx, idx)].max())
    if diam == 0.0:
        return 0.0
    resid = float(np.trace(moment) - np.linalg.eigh(moment)[0][-1])
    return math.sqrt(max(resid, 0.0) / (mass * diam * diam))


def beta2_grid_slack(diam: float, n_angles: int = 10_000) -> float:
    """Upper bound on the grid's excess over the true minimum.

    Rotating the optimal line by the half-step angle moves each point's
    distance by at most diam * sin(step/2); squared and normalized this
    stays below the linearized bound pi / n_angles.
    """
    return math.pi / n_angles


def cascade_masses_recursive(ratios, depth: int) -> dict:
    """Cell masses of the multiplicative cascade, by direct recursion.

    Returns {(ix, iy): mass} on the 2^depth grid; ratios order is
    (low-x low-y, high-x low-y, low-x high-y, high-x high-y),
    normalized at every split.
    """
    total = float(sum(ratios))
    quarters = [float(r) / total for r in ratios]

    def fill(ix: int, iy: int, level: int, mass: float, out: dict):
        if level == depth:
            out[(ix, iy)] = mass
            return
        for bx in (0, 1):
            for by in (0, 1):
                fill(
                    2 * ix + bx,
                    2 * iy + by,
                    level + 1,
                    mass * quarters[bx + 2 * by],
                    out,
                )

    out: dict = {}
    fill(0, 0, 0, 1.0, out)
    return out


def net_is_separated(space, ids, scale: float) -> bool:
    for i, a in enumerate(ids):
        row = space.dists_from(space.index_of(a))
        for b in ids[i + 1 :]:
            if row[space.index_of(b)] < scale * (1 - 1e-12):
                return False
    return True


def net_covers(space, ids, scale: float) -> bool:
    net_idx = [space.index_of(a) for a in ids]
    for pid in space.ids:
        row = space.dists_from(space.index_of(pid))
        if min(float(row[k]) for k in net_idx) >= scale:
            return False
    return True


def dist_to_set_brute(space, member_ids) -> list[float]:
    """Distance from each point to the nearest member, by a double loop."""
    members = [space.index_of(m) for m in member_ids]
    out = []
    for pid in space.ids:
        k = space.index_of(pid)
        best = math.inf
        for m in members:
            best = min(best, float(space.dists_from(m)[k]))
        out.append(best)
    return out


def doubling_scan(space, radii) -> tuple:
    """(c_hat, evaluated, skipped, worst_center, worst_radius) by a scan
    over points in index order, then radii in the given order.

    Masses are :func:`mass_of` the points of each point's own row
    closer than the radius; an empty inner ball is skipped, and only a
    strictly larger ratio replaces the best, so the first largest ratio
    wins.
    """
    levels = weight_levels(space.weights)
    best, center, radius = -math.inf, space.ids[0], radii[0]
    evaluated = skipped = 0
    for k, pid in enumerate(space.ids):
        row = space.dists_from(k)
        for r in radii:
            inner = mass_of(levels, np.flatnonzero(row < r))
            outer = mass_of(levels, np.flatnonzero(row < 2.0 * r))
            if inner == 0.0:
                skipped += 1
                continue
            evaluated += 1
            if outer / inner > best:
                best, center, radius = outer / inner, pid, r
    return best, evaluated, skipped, center, radius


def summary_rows(space) -> tuple:
    """(eccentricity per point, least positive distance or 0.0) from
    every full row."""
    ecc, gap = [], math.inf
    for k in range(len(space)):
        row = space.dists_from(k)
        ecc.append(float(row.max()))
        for d in row.tolist():
            if 0 < d < gap:
                gap = d
    return ecc, 0.0 if gap == math.inf else gap


def basepoint_brute(space, member_ids) -> int:
    """Member with the smallest eccentricity over the members; ties: smaller id."""
    best_id, best_ecc = None, math.inf
    for a in sorted(member_ids):
        row = space.dists_from(space.index_of(a))
        ecc = max(float(row[space.index_of(b)]) for b in member_ids)
        if ecc < best_ecc:
            best_id, best_ecc = a, ecc
    return best_id


# -- curve graphs over tuple keys ---------------------------------------
#
# The tuple-keyed graph the array-backed BridgeGraph replaced: vertices
# are a sorted tuple of keys and edges a dict {(u, v): length} with
# u < v.  A key is a ground point's id; a graph numbered by position
# passes its positions, which sort as the ids do.  These are that
# representation's MST tour, kept line for line as it was, and a
# breadth-first component labelling.


def graph_by_position(ground, edges):
    """A BridgeGraph from ground ids and ``(src, dst, length,
    provenance)`` edges between positions, ``src < dst``."""
    columns = list(zip(*edges)) or [(), (), (), ()]
    return BridgeGraph(
        ground=np.array(ground, dtype=np.int64),
        src=np.array(columns[0], dtype=np.int64),
        dst=np.array(columns[1], dtype=np.int64),
        length=np.array(columns[2], dtype=float),
        provenance=np.array(columns[3], dtype=np.int64),
    )


def components_brute(vertices, edges):
    """(component count, smallest vertex of each component, in order),
    by breadth-first search from each vertex not yet reached."""
    near = {v: [] for v in vertices}
    for u, v in edges:
        near[u].append(v)
        near[v].append(u)
    reached, reps = set(), []
    for v in vertices:  # sorted: a component's first vertex is its smallest
        if v in reached:
            continue
        reps.append(v)
        reached.add(v)
        queue = [v]
        while queue:
            for w in near[queue.pop()]:
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
    return len(reps), tuple(reps)


class _UnionFind:
    def __init__(self, items):
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


def graph_dist_brute(vertices, edges):
    """Graph distances of the tuple graph by Floyd–Warshall:
    ``dist[i][j]`` between ``vertices[i]`` and ``vertices[j]``, inf
    between components."""
    n = len(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    dist = [[0.0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for (u, v), length in edges.items():
        i, j = pos[u], pos[v]
        dist[i][j] = dist[j][i] = min(dist[i][j], length)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def tour_brute(vertices, edges):
    """(visits, ts, lip_bound, tree_length) of a connected graph.

    Kruskal in (length, (u, v)) order, then a closed depth-first tour
    from the smallest vertex with children in sorted order.
    """
    if len(vertices) == 1:
        return (vertices[0],), (0.0,), 0.0, 0.0
    uf = _UnionFind(vertices)
    tree_adj = {v: [] for v in vertices}
    tree_length = 0.0
    for (u, v), length in sorted(edges.items(), key=lambda kv: (kv[1], kv[0])):
        if uf.union(u, v):
            tree_adj[u].append((v, length))
            tree_adj[v].append((u, length))
            tree_length += length
    for v in tree_adj:
        tree_adj[v].sort()

    start = vertices[0]
    visits = [start]
    lengths = []
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
                lengths.append(next(w for c, w in tree_adj[node] if c == back))
    cum = list(itertools.accumulate(lengths, initial=0.0))
    total = cum[-1]
    ts = tuple(t / total for t in cum)
    return tuple(visits), ts, total, tree_length


# -- row-based constructions ---------------------------------------------
#
# The nets, cubes, porosity and adjacency code as it was before it moved
# onto MetricMeasureSpace.neighbors: one full distance row per query
# point, masked.  Kept line for line, so the neighbour-query versions
# can be held to the same witnesses, ties and fallbacks.


def build_nets_rows(space, rho, n_min, n_max, seed_ids=None) -> dict:
    """Levels of the greedy nested nets: level -> member indices, scan order."""
    n_pts = len(space)
    order_ids = np.argsort(np.array(space.ids, dtype=np.int64), kind="stable")
    mindist = np.full(n_pts, math.inf)
    members: list[int] = []

    def admit(k: int) -> None:
        members.append(k)
        np.minimum(mindist, space.dists_from(k), out=mindist)

    levels: dict[int, list[int]] = {}
    for n in range(n_min, n_max + 1):
        scale = rho**n
        if n == n_min and seed_ids:
            for pid in seed_ids:
                k = space.index_of(pid)
                if mindist[k] >= scale:
                    admit(k)
        for k in order_ids:
            if mindist[k] >= scale:
                admit(int(k))
        levels[n] = list(members)
    return levels


def build_nets_chunks(space, rho, n_min, n_max, seed_ids=None) -> dict:
    """Levels of the greedy nested nets by the per-chunk scan: each
    lookahead chunk of the points still apart from every member asks its
    own ``neighbors`` query, and its points are admitted in turn, each
    lowering the distances of its ball.  The chunk grows fourfold while
    its balls hold at most 4096 pairs."""
    order_ids = np.argsort(np.array(space.ids, dtype=np.int64), kind="stable")
    mindist = np.full(len(space), math.inf)
    members: list[int] = []
    levels: dict[int, list[int]] = {}
    for n in range(n_min, n_max + 1):
        scale = rho**n
        todo = order_ids
        if n == n_min and seed_ids:
            todo = np.concatenate([space.indices_of(seed_ids), order_ids])
        size = 1
        while len(todo := todo[mindist[todo] >= scale]):
            chunk, todo = todo[:size], todo[size:]
            q, j, d = space.neighbors(chunk, scale)
            ends = np.searchsorted(q, np.arange(len(chunk) + 1)).tolist()
            for p, k in enumerate(chunk.tolist()):
                if mindist[k] >= scale:
                    members.append(k)
                    near = slice(ends[p], ends[p + 1])
                    mindist[j[near]] = np.minimum(mindist[j[near]], d[near])
            size = max(1, min(4 * size, 4096 * len(chunk) // max(1, len(j))))
        levels[n] = list(members)
    return levels


def verify_nets_rows(space, h) -> tuple:
    """(separation_ok, covering_ok, nesting_ok, witness) from one row per net point."""
    sep_ok = cov_ok = nest_ok = True
    witness = None
    previous = None
    for n in sorted(h.levels):
        idx = h.levels[n]
        ids = [space.ids[k] for k in idx]
        scale = h.rho**n
        if previous is not None and nest_ok:
            missing = previous - set(ids)
            if missing:
                nest_ok = False
                witness = witness or ("nesting", n, sorted(missing)[0])
        previous = set(ids)
        best = np.full(len(space), math.inf)
        for pos, k in enumerate(idx):
            if not (sep_ok or cov_ok):
                break
            row = space.dists_from(k)
            if sep_ok:
                bad = np.flatnonzero(row[idx[pos + 1 :]] < scale)
                if bad.size:
                    sep_ok = False
                    other = ids[pos + 1 + int(bad[0])]
                    witness = witness or ("separation", n, ids[pos], other)
            if cov_ok:
                np.minimum(best, row, out=best)
        if cov_ok:
            bad = np.flatnonzero(best >= scale)
            if bad.size:
                cov_ok = False
                witness = witness or ("covering", n, space.ids[int(bad[0])])
    return sep_ok, cov_ok, nest_ok, witness


def nearest_rows(space, candidate_idx) -> np.ndarray:
    """Position (into candidate_idx) of each point's nearest candidate;
    candidates scanned by ascending id, replaced only on a strict gain."""
    best_d = np.full(len(space), math.inf)
    best_j = np.zeros(len(space), dtype=np.intp)
    order = np.argsort(
        np.array([space.ids[k] for k in candidate_idx], dtype=np.int64),
        kind="stable",
    )
    for j in order:
        row = space.dists_from(int(candidate_idx[j]))
        better = row < best_d
        best_d[better] = row[better]
        best_j[better] = j
    return best_j


def cube_members_rows(space, hierarchy) -> dict:
    """{(level, center id): member ids} from nearest-parent composition."""
    levels = sorted(hierarchy.levels)
    level_idx = hierarchy.levels
    assign = {levels[-1]: nearest_rows(space, level_idx[levels[-1]])}
    for n_above, n in zip(levels[-2::-1], levels[:0:-1]):
        up = nearest_rows(space, level_idx[n_above])[level_idx[n]]
        assign[n_above] = up[assign[n]]
    out = {}
    for n in levels:
        for j, k in enumerate(level_idx[n]):
            members = np.flatnonzero(assign[n] == j)
            out[(n, space.ids[int(k)])] = tuple(sorted(space.ids[p] for p in members))
    return out


def cube_members(space, tree, cube: int) -> tuple:
    """Point ids of a cube, ascending: the points whose ``cube_of`` entry
    at the cube's level is the cube."""
    row = int(np.searchsorted(tree.start, cube, side="right")) - 1
    at = np.flatnonzero(tree.cube_of[row] == cube).tolist()
    return tuple(sorted(space.ids[k] for k in at))


def cube_children(tree, cube: int) -> tuple:
    """Ids of the cubes whose parent is the cube, ascending."""
    return tuple(k for k, up in enumerate(tree.parent.tolist()) if up == cube)


def cube_descendants(tree, cube: int) -> list:
    """The cube and every cube below it, root first (preorder)."""
    out, stack = [], [cube]
    while stack:
        cid = stack.pop()
        out.append(cid)
        stack.extend(reversed(cube_children(tree, cid)))
    return out


def maximal_clear_rows(tree, gap) -> list:
    """Cubes whose centre's gap is at least twice their sidelength and
    none of whose ancestors' is: a walk down from the top-level cubes
    that stops at the first such cube, ids ascending."""
    out = []
    stack = [c for c in range(len(tree.level)) if tree.parent[c] < 0]
    while stack:
        cid = stack.pop()
        if gap[tree.center[cid]] >= 2 * tree.sidelength[cid]:
            out.append(cid)
        else:
            stack.extend(cube_children(tree, cid))
    return sorted(out)


def c0_rows(space, tree) -> float:
    """Smallest (nearest non-member distance) / sidelength over all cubes."""
    c0 = math.inf
    member_mask = np.zeros(len(space), dtype=bool)
    for c in range(len(tree.level)):
        idx = [space.index_of(p) for p in cube_members(space, tree, c)]
        member_mask[:] = False
        member_mask[idx] = True
        if member_mask.all():
            continue
        row = space.dists_from(int(tree.center[c]))
        nearest_out = float(row[~member_mask].min())
        c0 = min(c0, nearest_out / float(tree.sidelength[c]))
    return c0


def family_rows(space, family) -> list:
    """(cube, witness id, witness gap) of each cube of a porous family."""
    return list(
        zip(
            family.cube.tolist(),
            [space.ids[k] for k in family.witness.tolist()],
            family.gap.tolist(),
        )
    )


def find_porous_rows(space, tree, target, cfg, root) -> list:
    """(cube, witness id, witness gap) for every porous cube under root."""
    e_members = set(target.members)
    gap = np.array(dist_to_set_brute(space, target.members))
    id_order = np.argsort(np.asarray(space.ids), kind="stable")
    found = []
    for cid in cube_descendants(tree, root):
        if not e_members.intersection(cube_members(space, tree, cid)):
            continue
        side = float(tree.sidelength[cid])
        row = space.dists_from(int(tree.center[cid]))
        near = row < cfg.M * side
        gaps = np.where(near, gap, -math.inf)
        best = float(gaps.max())
        if best >= cfg.delta * side:
            pos = next(int(k) for k in id_order if gaps[k] == best)
            found.append((cid, space.ids[pos], best))
    return sorted(found)


def bridges_rows(space, tree, hierarchy, porous, cfg) -> dict:
    """{(x, y): (first cube, length)} of the star bridges, in
    construction order: cubes by id, each one's net points by id; a
    pair keeps its first cube, and a coincident pair gets no bridge."""
    first = {}
    for cube in sorted(porous.cube.tolist()):
        level = int(tree.level[cube]) + cfg.n0
        if level not in hierarchy.levels:
            continue
        row = space.dists_from(int(tree.center[cube]))
        c = space.ids[tree.center[cube]]
        for q in sorted(space.ids[k] for k in hierarchy.levels[level]):
            d = float(row[space.index_of(q)])
            pair = (min(c, q), max(c, q))
            if q != c and d < cfg.M * tree.sidelength[cube]:
                if pair not in first and d > 0:
                    first[pair] = (cube, d)
    return first


def adjacency_rows(space, ground_ids, eps_res) -> list:
    """(a, b, length) for ground positions a < b with 0 < d < eps_res."""
    idx = [space.index_of(p) for p in ground_ids]
    edges = []
    for a in range(len(ground_ids)):
        row = space.dists_from(idx[a])[idx]
        for b in np.flatnonzero((row > 0) & (row < eps_res)):
            if b > a:
                edges.append((a, int(b), float(row[b])))
    return edges


def adjacency_forest_rows(space, ground_ids, eps_res) -> list:
    """The minimum spanning forest of :func:`adjacency_rows`'s pairs.

    Kruskal in (length, a, b) order; the kept (a, b, length) triples are
    listed by ascending (a, b).
    """
    uf = _UnionFind(range(len(ground_ids)))
    pairs = adjacency_rows(space, ground_ids, eps_res)
    ranked = sorted(pairs, key=lambda e: (e[2], e[0], e[1]))
    return sorted(e for e in ranked if uf.union(e[0], e[1]))
