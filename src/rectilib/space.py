"""Finite metric measure spaces and ball-based measure estimates.

A space is a finite point set with positive total mass, seen either
through coordinates in ``R^d`` (Euclidean distance) or through an
explicit distance matrix.  All balls are open: ``B(x, r)`` contains the
points at distance strictly less than ``r``.

Conventions used throughout the package:

* point ids are integers; operations taking ids raise
  :class:`~rectilib.errors.UnknownIdentifierError` on unknown ones;
* weights are nonnegative, with a positive total below ``2**1022``;
* ties in greedy selections are broken by ascending point id, so every
  operation is deterministic.

Every distance comes from one formula.  A coordinate space keeps one
contiguous column per axis; the row of point ``i`` is
``acc = dx0*dx0; acc += dx1*dx1; ...`` in axis order with
``dx_a = col_a - col_a[i]``, then ``sqrt(acc)``.  It is made of
elementwise operations only, so ``d(i, j)`` and ``d(j, i)`` are equal
bit for bit, and :meth:`MetricMeasureSpace.distance_matrix` gives the
same values as the rows.  A matrix space serves views of its matrix, which must be
exactly symmetric.

A space caches what the pipeline asks for repeatedly:

* the summary: each point's eccentricity (its largest distance) and the
  smallest positive distance, from which
  :meth:`~MetricMeasureSpace.diameter`, :meth:`~MetricMeasureSpace.min_gap`
  and the basepoint of :func:`enclosing_target` over every point are
  read.  A matrix space reduces its stored matrix; a coordinate space
  asks the cell tree below;
* open-ball masses, one array of length ``n`` per radius, filled by
  :meth:`~MetricMeasureSpace.ball_masses`, which answers a point set as
  one table;
* the cell tree below, cut once from every point by the first summary,
  neighbour query or ball-mass fill;
* on coordinates, the candidate lists of each radius a neighbour query
  asks, made by one walk of that tree the first time.

Every mass comes from one definition.  When a space is built, each
weight is split into nonnegative parts, one per level (:func:`_split`),
so that a level's parts over any set of points sum exactly, in any
order and grouping.  The mass of a set, :meth:`~MetricMeasureSpace.mass`,
is its level sums added in level order: no order of the ids, no BLAS
and no fill can move it.  Each backend has one ball-mass fill: a
coordinate space sums levels over the cell tree below, a matrix space
over its stored rows, a block at a time.

A coordinate space needs no full row for its summary or its masses.
:meth:`~MetricMeasureSpace.neighbors` answers "which points are closer
than ``r``" for a batch of query points, in one call (runs of bounded
size inside it),
:meth:`~MetricMeasureSpace.dists_between` gives one row's entries at
chosen columns, :meth:`~MetricMeasureSpace.nearest` gives each
point's nearest candidate, the one nearest-point search of the package,
and :meth:`~MetricMeasureSpace.spanning_forest` gives the minimum
spanning forest of a point set under its edges shorter than ``r``.  It
grows in the rounds of :func:`_boruvka`, the one Borůvka loop of the
package, which the curve's tour tree also uses, with its own rule for
each component's least edge.  On coordinates the cell tree below picks
the candidates and the row formula decides ``d < r`` on them, so ties
on lattice inputs resolve exactly as the rows resolve them; a matrix
space answers from its stored rows.  Nets, cubes, gaps to the target,
porous witnesses and the curve's adjacency forest are built on these
methods.

The cell tree serves the eccentricities, the least gap, the ball masses,
the neighbour query and the lightest edges, with numpy alone.  Its
nodes are median splits of the points, or of a subset, down to leaves
of ``_CELL`` points; a cut never separates coincident points, so a
stack of them may make a larger leaf.  Each node keeps its points as one range of a common order, its
tight box, its children and, for the tree of every point, its level
sums.  The boxes of two nodes, widened by a pad of ``1e-6`` times the
bounding-box diagonal, bound every distance between them, so a whole
node lies inside a ball, outside it, or straddles its boundary.  Every
query goes down the tree by one descent, :meth:`_CellTree.walk`, over
node pairs level by level, as arrays, from the root pair down
(dual-tree range counting: Gray & Moore, "'N-Body' problems in
statistical learning", NIPS 2000); each query passes it only its rule
for the pairs to keep.  A pair its bounds decide is settled whole, and
a pair left open gives way to its children's pairs.  Only open leaf
pairs get distances, by the row formula, as padded blocks of leaf
pieces of at most ``_PAIR_BUDGET`` distances.  The masses, the
eccentricities and the least gap walk unordered pairs, so each block
serves both of its leaves: a node inside a ball adds its level sums
whole, a pair that cannot hold either node's farthest point is dropped,
and so is a pair whose lower bound passes the least upper bound of the
pairs surely apart.  The neighbour query at radius ``r`` walks ordered
pairs once, the first time any query asks for ``r``: home-side nodes,
down to every home (the highest node holding a leaf that is at most
``r / 2`` across), against nodes down to the leaves; each home's
candidates are kept for every later query at ``r``.  A spanning forest
walks unordered pairs of a tree of its points once, keeping the leaf
pairs whose lower bound is below ``r``; each Borůvka round drops those
now inside one component and meets the rest by ascending lower bound
(dual-tree Borůvka: March, Ram & Gray, "Fast Euclidean minimum spanning
tree", KDD 2010), dropping a pair whose lower bound passes the lightest
edge found so far of every component in it.

A distance matrix comes from CSV through :func:`load_matrix`.  A large
one is parsed in parts, one per usable CPU but no more than
``n * n // _PAIR_BUDGET``: byte ranges cut at line ends, the first
parsed in the calling process and each other in a forked child, each
writing its rows into one shared array at the offset the earlier parts'
row counts give.  Each part gets the one ``np.loadtxt`` call a small
matrix gets, so the parts give its bits.  If a part fails, a child
dies, or the rows do not add up to ``n``, the whole file is parsed once,
as a small one is, so every error names the rows of the whole file; no
child outlives the load.

The cached arrays, the axis columns, the weights and the stored matrix
are read-only, so a caller cannot change a later row or cached value by
writing into one it was given.  The inputs are not copied: do not
modify a coordinate or matrix array after building a space from it.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
import math
import mmap
import os
import signal
import stat
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    InputError,
    ParameterError,
    UnknownIdentifierError,
)

# Above this point count distance_matrix() refuses to build the full matrix.
_DENSE_LIMIT = 5000
# a neighbour batch holds at most this many candidate pairs, and the
# cell tree computes at most this many distances per block
_PAIR_BUDGET = 1 << 18
# the cell tree splits points into leaves of at most this many (more
# only when they coincide) and decides pairs of nodes whole
_CELL = 16


def seq_sum(values) -> float:
    """Left-to-right float sum, the order ``total += x`` would use.

    The builtin ``sum`` of floats is compensated from Python 3.12, so
    every float total of a report goes through here instead.
    """
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (no copy; the input keeps its flags)."""
    view = array.view()
    view.setflags(write=False)
    return view


class MetricMeasureSpace:
    """A finite metric space with a weight (mass) per point.

    Build instances with :meth:`from_coords` or :meth:`from_matrix`;
    both validate their input.  Distances are served row-wise through
    :meth:`dists_from`, as chosen entries of a row through
    :meth:`dists_between`, as the pairs closer than a radius through
    :meth:`neighbors`, and as each point's nearest candidate through
    :meth:`nearest`; a coordinate space computes each on demand, a
    matrix space reads its stored matrix.
    """

    def __init__(
        self,
        ids: Sequence[int],
        weights: np.ndarray,
        *,
        coords: np.ndarray | None = None,
        matrix: np.ndarray | None = None,
    ):
        self.ids: tuple[int, ...] = tuple(int(i) for i in ids)
        self.weights = _read_only(np.asarray(weights, dtype=float))
        self.coords = None
        self._axes: tuple[np.ndarray, ...] = ()
        if coords is not None:
            self.coords = _read_only(np.asarray(coords, dtype=float))
            self._axes = tuple(
                _read_only(np.array(self.coords[:, a]))
                for a in range(self.coords.shape[1])
            )
        self._matrix = None  # set only by from_matrix
        if matrix is not None:
            self._matrix = _read_only(np.asarray(matrix, dtype=float))
        self._index = {pid: k for k, pid in enumerate(self.ids)}
        self._summary: tuple[np.ndarray, float] | None = None  # ecc, min gap
        self._parts = np.empty((0, 0))  # weights split by level, set by _validate_common
        self._masses: dict[float, np.ndarray] = {}  # radius -> mass per point
        self._cell_tree = None  # the cell tree of every point, built once
        self._near: dict[float, _Candidates] = {}  # radius -> kept candidates
        self._pad = 0.0  # widens the cell tree's box bounds

    # -- construction ---------------------------------------------------

    @classmethod
    def from_coords(
        cls,
        ids: Sequence[int],
        coords: np.ndarray,
        weights: np.ndarray,
    ) -> "MetricMeasureSpace":
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] == 0:
            raise ParameterError("coords must be n points by d >= 1 axes")
        if coords.shape[0] != len(ids):
            raise ParameterError(
                f"coords have {coords.shape[0]} rows for {len(ids)} ids"
            )
        space = cls(ids, np.asarray(weights, dtype=float), coords=coords)
        space._validate_common()
        if not np.all(np.isfinite(coords)):
            raise ParameterError("coordinates must be finite")
        # the pad covers the rounding of the boxes' own squared sums
        space._pad = 1e-6 * math.hypot(*np.ptp(coords, axis=0))
        return space

    @classmethod
    def from_matrix(
        cls,
        ids: Sequence[int],
        matrix: np.ndarray,
        weights: np.ndarray,
    ) -> "MetricMeasureSpace":
        """Build from an explicit distance matrix.

        Symmetry and the zero diagonal are checked exactly; the triangle
        inequality is validated on 1000 random triples drawn with seed 0
        (all triples when the space is small enough).
        """
        matrix = np.asarray(matrix, dtype=float)
        n = len(ids)
        if matrix.shape != (n, n):
            raise ParameterError(
                f"distance matrix shape {matrix.shape} does not match {n} ids"
            )
        if not np.all(np.isfinite(matrix)):
            raise ParameterError("distances must be finite")
        if np.any(matrix < 0):
            raise ParameterError("distances must be nonnegative")
        if np.any(np.diag(matrix) != 0.0):
            raise ParameterError("distance matrix diagonal must be zero")
        if not np.array_equal(matrix, matrix.T):
            raise ParameterError("distance matrix must be symmetric")
        space = cls(ids, np.asarray(weights, dtype=float), matrix=matrix)
        space._validate_common()
        space._validate_triangle()
        return space

    def _validate_common(self) -> None:
        n = len(self.ids)
        if n == 0:
            raise DegenerateInputError("a space needs at least one point")
        if len(set(self.ids)) != n:
            raise ParameterError("point ids must be unique")
        if self.weights.shape != (n,):
            raise ParameterError("weights must be one value per point")
        if not np.all(np.isfinite(self.weights)):
            raise ParameterError("weights must be finite")
        if np.any(self.weights < 0):
            raise ParameterError("weights must be nonnegative")
        if not self.weights.any():
            raise DegenerateInputError("total mass must be positive")
        try:
            self._parts = _split(self.weights)
        except OverflowError:
            raise ParameterError("total mass must be below 2**1022") from None

    def _validate_triangle(self) -> None:
        n = len(self.ids)
        m = self._matrix
        assert m is not None
        tol = 1e-9 * max(1.0, float(m.max()))
        if n <= 12:  # all triples are cheap enough to check
            idx = np.arange(n)
            for a in idx:
                via = m[a][:, None] + m[:, :]  # d(a,b) + d(b,c) over (b, c)
                if np.any(via.min(axis=0) + tol < m[a]):
                    raise ParameterError("triangle inequality fails")
            return
        rng = np.random.default_rng(0)
        abc = rng.integers(0, n, size=(1000, 3))
        lhs = m[abc[:, 0], abc[:, 2]]
        rhs = m[abc[:, 0], abc[:, 1]] + m[abc[:, 1], abc[:, 2]]
        bad = lhs > rhs + tol
        if np.any(bad):
            a, b, c = abc[np.argmax(bad)]
            raise ParameterError(
                f"triangle inequality fails on sampled triple "
                f"({self.ids[a]}, {self.ids[b]}, {self.ids[c]})"
            )

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def total_mass(self) -> float:
        return self.mass(slice(None))

    def mass(self, indices: Sequence[int] | np.ndarray | slice) -> float:
        """The mass of the points at ``indices`` (an index array, a boolean
        mask or a slice): exact level sums, added in level order."""
        return float(_add_levels(self._parts[indices].sum(axis=0)))

    def group_masses(self, groups: np.ndarray, count: int) -> np.ndarray:
        """The mass of each group ``0..count-1``; each row of ``groups``
        puts point ``i`` in group ``row[i]``.  Each level's parts are
        summed per group, exactly in any order, and the levels added in
        level order: bit for bit the :meth:`mass` of each group."""
        groups = np.asarray(groups).reshape(-1, len(self))
        sums = np.stack(
            [
                np.bincount(
                    groups.ravel(),
                    weights=np.tile(part, len(groups)),
                    minlength=count,
                )
                for part in self._parts.T
            ],
            axis=-1,
        )
        return _add_levels(sums)

    def index_of(self, point_id: int) -> int:
        try:
            return self._index[point_id]
        except KeyError:
            raise UnknownIdentifierError(f"unknown point id {point_id!r}") from None

    def indices_of(self, point_ids: Iterable[int]) -> np.ndarray:
        """The index of each id, in order; the first unknown id raises.
        The ids go through the index in one ``map``, with no Python
        call per id."""
        wanted = point_ids if isinstance(point_ids, np.ndarray) else list(point_ids)
        keys = wanted.tolist() if isinstance(wanted, np.ndarray) else wanted
        try:
            return np.fromiter(map(self._index.__getitem__, keys), np.intp, len(keys))
        except KeyError:  # raised again, by the first unknown id
            return np.array([self.index_of(p) for p in wanted], dtype=np.intp)

    def dists_from(self, index: int) -> np.ndarray:
        """Distances from the point at ``index`` to every point.

        Matrix spaces return a read-only view of the stored row.
        """
        if self._matrix is not None:
            return self._matrix[index]
        first, *others = self._axes
        acc = first - first[index]
        acc *= acc
        if others:
            step = np.empty_like(acc)
            for col in others:
                np.subtract(col, col[index], out=step)
                step *= step
                acc += step
        return np.sqrt(acc, out=acc)

    def dists_between(self, index, cols: np.ndarray) -> np.ndarray:
        """``dists_from(index)[cols]``, bit for bit, without the rest of the
        row; an array ``index`` pairs with ``cols`` entry by entry."""
        return self._pair_dists(index, np.asarray(cols, dtype=np.intp))

    def _pair_dists(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # d(rows, cols) broadcast together: a matrix space's stored
        # entries, or the row formula of dists_from entry by entry;
        # (-x)*(-x) == x*x, so d(i, j) == d(j, i)
        if self._matrix is not None:
            return self._matrix[rows, cols]
        first, *others = self._axes
        acc = first[cols] - first[rows]
        acc *= acc
        for col in others:
            step = col[cols] - col[rows]
            step *= step
            acc += step
        return np.sqrt(acc, out=acc)

    def neighbors(
        self, query_idx: Sequence[int] | np.ndarray, r: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every pair closer than ``r`` to a query point, in one answer.

        Returns ``(q, j, d)``: exactly the pairs with
        ``d = dists_from(query_idx[q])[j] < r``, each once, grouped by
        ascending ``q``, each ``d`` equal to that row entry bit for bit.
        Within a query its pairs come in the cell tree's order on
        coordinates, with no sort, and by ascending ``j`` on a matrix.
        Consecutive runs of queries are answered in turn, each of at
        most ``_PAIR_BUDGET`` candidate pairs (more only for one query
        alone), so memory stays bounded even where many points
        coincide.  A matrix space scans its stored rows and keeps
        nothing.  On coordinates a node of the cell tree is a candidate
        for a query when its box, less the pad, lies within ``r`` of the
        box of the query's home (the highest node that holds its leaf and
        is at most ``r / 2`` across), down the tree, and then of the
        query point; the row formula decides ``d < r`` on the candidates'
        points.  The first query at ``r`` walks the tree once for every
        home, and the space keeps those lists for every later query at
        ``r``.
        """
        query_idx = np.asarray(query_idx, dtype=np.intp).reshape(-1)
        n = len(self)
        parts = []
        if self._matrix is not None:
            step = max(1, _PAIR_BUDGET // n)
            for start in range(0, len(query_idx), step):
                rows = self._matrix[query_idx[start : start + step]]
                q, j = np.nonzero(rows < r)
                parts.append((q + start, j, rows[q, j]))
        elif len(query_idx):
            tree, pad = self._tree(), self._pad
            lo, hi, first, size = tree.lo, tree.hi, tree.start, tree.size
            if r not in self._near:
                self._near[r] = _Candidates(tree, r, pad)
            near = self._near[r]
            home = near.home[tree.leaf_of[query_idx]]
            pairs = np.cumsum(near.reach[home])
            start = 0
            while start < len(query_idx):
                base = pairs[start - 1] if start else 0
                stop = max(start + 1, np.searchsorted(pairs, base + _PAIR_BUDGET, "right"))
                rows, own = query_idx[start:stop], home[start:stop]
                count = near.count[own]
                q = np.repeat(np.arange(len(rows)), count)
                c = near.cells[_runs(near.first[own], count)]
                x = np.take(self.coords, rows[q], axis=0)
                keep = _gaps(*_rows((lo, hi), c), x, x) - pad < r  # each query's own bound
                q, c = q[keep], c[keep]
                q, j = np.repeat(q, size[c]), tree.order[_runs(first[c], size[c])]
                d = self._pair_dists(rows[q], j)
                keep = np.flatnonzero(d < r)
                # the run's candidates are dropped before the next run
                q, j, d = q[keep] + start, j[keep], d[keep]
                parts.append((q, j, d))
                start = stop
        if len(parts) == 1:  # one run: nothing to join
            return parts[0]
        none = (np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)
        return _joined([none, *parts])

    def nearest(
        self, points: np.ndarray, candidates: np.ndarray, radius: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each point's nearest candidate: its position in ``candidates``
        and that distance, a row entry bit for bit.  Ties go to the
        smaller candidate id, then the earlier position.

        Candidates closer than ``radius`` come from one :meth:`neighbors`
        query.  Every other point (every point when ``radius`` is None)
        meets the candidates sorted by (id, position) in blocks of at
        most ``_PAIR_BUDGET`` pairs; a later block wins only when closer.
        """
        points = np.asarray(points, dtype=np.intp).reshape(-1)
        candidates = np.asarray(candidates, dtype=np.intp).reshape(-1)
        if not len(candidates):
            raise DegenerateInputError("no nearest point: the candidate set is empty")
        cand_ids = np.asarray(self.ids, dtype=np.int64)[candidates]
        pos = np.full(len(self), -1, dtype=np.intp)
        dist = np.full(len(self), math.inf)
        if radius is not None:
            q, j, d = self.neighbors(candidates, radius)
            # per point: the first pair by (distance, candidate id, position),
            # among its pairs at its least distance
            np.minimum.at(dist, j, d)
            tie = np.flatnonzero(d == dist[j])
            q, j = q[tie], j[tie]
            order = np.lexsort((q, cand_ids[q], j))
            j, first = np.unique(j[order], return_index=True)
            pos[j] = q[order][first]
        pos, dist = pos[points], dist[points]
        rest = np.flatnonzero(pos < 0)
        by_id = np.argsort(cand_ids, kind="stable")
        for rs, cs in _blocks(len(rest), len(by_id)):
            at = rest[rs]
            d = self._pair_dists(points[at, None], candidates[by_id[None, cs]])
            k, d = d.argmin(axis=1), d.min(axis=1)  # first least: smallest id
            better = (d < dist[at]) | (pos[at] < 0)
            pos[at[better]], dist[at[better]] = by_id[cs][k[better]], d[better]
        return pos, dist

    def spanning_forest(self, points: np.ndarray, r: float) -> tuple[np.ndarray, ...]:
        """The minimum spanning forest of ``points``, distinct point
        indices, under the strict order ``(d, a, b)`` of its edges: the
        pairs of positions ``a < b`` of ``points`` that are ``0 < d < r``
        apart (coincident pairs are skipped).

        Returns ``(a, b, d)`` by ascending ``(a, b)``, each ``d`` a row
        entry bit for bit.  The forest grows in the Borůvka rounds of
        :func:`_boruvka`, each giving every component its lightest edge
        (:class:`_ForestRounds`), so the pairs are never listed.
        """
        points = np.asarray(points, dtype=np.intp).reshape(-1)
        (a, b, d), _ = _boruvka(len(points), _ForestRounds(self, points, float(r)))
        listed = np.lexsort((b, a))
        return a[listed], b[listed], d[listed].astype(float)  # an empty one's too

    def distance_matrix(self) -> np.ndarray:
        """Full matrix (read-only), refused above a size guard; a
        coordinate space builds a fresh one per call and keeps none."""
        if self._matrix is None:
            if len(self) > _DENSE_LIMIT:
                raise ParameterError(
                    f"refusing to materialize a {len(self)}^2 distance matrix"
                )
            idx = np.arange(len(self))
            matrix = self._pair_dists(idx[:, None], idx[None, :])
            matrix.setflags(write=False)
            return matrix
        return self._matrix

    def summary(self) -> tuple[np.ndarray, float]:
        """Each point's eccentricity (read-only) and the smallest positive
        distance (0.0 when there is none), computed once.

        A matrix space reduces its stored matrix; a coordinate space
        walks the cell tree, and computes distances only between leaves
        whose box bounds leave the answer open.
        """
        if self._summary is None:
            if self._matrix is not None:
                m = self._matrix
                ecc = m.max(axis=1)
                gap = float(np.min(m, where=m > 0, initial=math.inf))
            else:
                ecc, gap = self._tree_eccentricities(self._tree()), self._tree_gap()
            ecc.setflags(write=False)
            self._summary = (ecc, 0.0 if gap == math.inf else gap)
        return self._summary

    def diameter(self) -> float:
        return float(self.summary()[0].max())

    def min_gap(self) -> float:
        """Smallest positive inter-point distance (0.0 for a singleton)."""
        return self.summary()[1]

    def eccentricities(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Each listed point's largest distance to the listed points.

        Over every point this reads the summary.  Over fewer, a matrix
        space reduces the members' submatrix a block of rows at a time,
        and a coordinate space applies the summary's eccentricity rule to
        a cell tree of the members.  Indices may repeat; none give an
        empty array.
        """
        idx = np.asarray(indices, dtype=np.intp)
        members = _unique(idx)
        if len(members) == len(self):
            return self.summary()[0][idx]
        if self._matrix is not None or not len(members):
            return self._max_dists(idx, members)
        return self._tree_eccentricities(self._tree(members))[idx]

    def _max_dists(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Each ``rows`` point's largest distance to the ``cols`` points,
        in blocks of at most ``_PAIR_BUDGET`` pairs."""
        best = np.full(len(rows), -math.inf)
        for rs, cs in _blocks(len(rows), len(cols)):
            d = self._pair_dists(rows[rs, None], cols[None, cs])
            best[rs] = np.maximum(best[rs], d.max(axis=1))
        return best

    def ball_masses(
        self, indices: Sequence[int] | np.ndarray, radii: Sequence[float]
    ) -> np.ndarray:
        """Open-ball masses of the points at ``indices`` (any order, repeats
        allowed): ``table[a, c]`` is :meth:`mass` of the points closer
        than ``radii[c]`` to the point at ``indices[a]``.

        Masses are cached per radius, one column over every point; the
        radii a call finds missing are filled together, by the cell tree
        on coordinates and by the stored rows of a matrix.  Exact level
        sums make both fills, in any order of the calls, give the same
        bits.  A radius that is not ``> 0`` raises before any cache
        changes.
        """
        bad = [r for r in radii if not r > 0]
        if bad:
            raise ParameterError(f"ball radii must be positive, got {bad[0]!r}")
        idx = np.asarray(indices, dtype=np.intp)
        missing = sorted({r for r in radii if r not in self._masses})
        if missing:
            fill = self._row_sums if self.coords is None else self._tree_sums
            for r, column in zip(missing, _add_levels(fill(missing))):
                self._masses[r] = _read_only(column)
        table = np.empty((len(idx), len(radii)))
        for c, r in enumerate(radii):
            table[:, c] = self._masses[r][idx]
        return table

    def _row_sums(self, radii: list[float]) -> np.ndarray:
        """``sums[c, i, k]``: the level-``k`` parts of the points closer
        than ``radii[c]`` to point ``i``, summed from the stored matrix
        in blocks of at most ``_PAIR_BUDGET`` entries."""
        n = len(self)
        sums = np.zeros((len(radii), n, self._parts.shape[1]))
        for rs, cs in _blocks(n, n):
            block, parts = self._matrix[rs, cs], self._parts[cs]
            for c, r in enumerate(radii):
                sums[c, rs] += (block < r) @ parts
        return sums

    def _row_edges(self, rounds: "_ForestRounds", label: np.ndarray, best: "_Lightest") -> None:
        """A round of :class:`_ForestRounds` on a matrix: the rows from
        ``start`` on against the columns from ``start`` on, a block at a
        time, so each pair comes once, with row ``i`` < column ``j`` but
        in the block's diagonal square, where it comes twice."""
        points, r, m = rounds.points, rounds.r, len(rounds.points)
        whole = m == len(self) and np.array_equal(points, np.arange(m))
        start = 0
        while start < m:
            stop = start + max(1, _PAIR_BUDGET // (m - start))
            if whole:
                block = self._matrix[start:stop, start:]
            else:
                block = self._matrix[np.ix_(points[start:stop], points[start:])]
            i, j = np.divmod(np.flatnonzero(block < r), m - start)
            d = block[i, j]
            i, j = i + start, j + start
            keep = (d > 0) & (label[i] != label[j])
            i, j, d = i[keep], j[keep], d[keep]
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            best.add(label[j], lo, hi, d)  # each column gets its every edge
            # each row its lightest entry, the first of its ties: for a
            # row, the least (a, b)
            first = np.flatnonzero(np.diff(i, prepend=-1))
            least = np.repeat(np.minimum.reduceat(d, first), np.diff(first, append=len(d)))
            tie = np.flatnonzero(d == least)
            tie = tie[np.diff(i[tie], prepend=-1) != 0]
            best.add(label[i[tie]], lo[tie], hi[tie], d[tie])
            start = stop

    # -- the cell tree ---------------------------------------------------

    def _tree(self, members: np.ndarray | None = None) -> "_CellTree":
        """The cell tree of ``members``; the tree of every point is built
        once, with its level sums."""
        if members is not None:
            return _CellTree(self.coords, members)
        if self._cell_tree is None:
            self._cell_tree = _CellTree(self.coords, np.arange(len(self)), self._parts)
        return self._cell_tree

    def _tree_eccentricities(self, tree: "_CellTree") -> np.ndarray:
        """Each point of ``tree``'s largest distance to its points, at its
        index of a length-``n`` array.

        Pairs are unordered, and each block of distances serves both of
        its leaves.  A node pair can hold the farthest point from a point
        of one node only while its upper bound reaches the largest lower
        bound among that node's pairs; a pair that can do so for neither
        node is dropped.
        """
        pad = self._pad

        def reaching(a, b):
            mind, maxd = _box_bounds(tree.lo, tree.hi, a, b)
            reach = np.full(tree.count, -math.inf)
            np.maximum.at(reach, a, mind)
            np.maximum.at(reach, b, mind)
            keep = maxd + pad >= np.minimum(reach[a], reach[b]) - pad
            return a[keep], b[keep]

        ecc = np.full(len(self), -math.inf)
        for _, rows, cols, _, _ in tree.blocks(*tree.walk(reaching)):
            d = self._pair_dists(rows[:, :, None], cols[:, None, :])
            np.maximum.at(ecc, rows, d.max(axis=2))
            np.maximum.at(ecc, cols, d.max(axis=1))
        return ecc

    def _tree_gap(self) -> float:
        """The least positive distance (``inf`` when there is none).

        It is at most ``bound``, the least upper bound of the unordered
        node pairs whose boxes are surely apart.  Pairs whose lower
        bound passes it, and a one-location leaf with itself, hold no
        smaller positive distance; the leaf pairs left get distances.
        """
        tree, pad = self._tree(), self._pad
        bound = math.inf

        def below(a, b):
            nonlocal bound
            mind, maxd = _box_bounds(tree.lo, tree.hi, a, b)
            apart = mind - pad > 0
            if apart.any():
                bound = min(bound, float(maxd[apart].min()) + pad)
            keep = (mind - pad <= bound) & ~((a == b) & tree.spot[a])
            return a[keep], b[keep]

        a, b = tree.walk(below)
        # the bound has only fallen since a leaf pair was kept
        near = _box_bounds(tree.lo, tree.hi, a, b)[0] - pad <= bound
        found = math.inf
        for _, rows, cols, _, _ in tree.blocks(a[near], b[near]):
            d = self._pair_dists(rows[:, :, None], cols[:, None, :])
            found = min(found, float(np.min(d, where=d > 0, initial=math.inf)))
        return found

    def _tree_edges(self, rounds: "_ForestRounds", label: np.ndarray, best: "_Lightest") -> None:
        """A round of :class:`_ForestRounds` on coordinates: the leaf
        pairs of ``rounds.pairs`` less those now inside one component,
        kept for the next round in their order.

        They meet in order of their lower bounds, block by block, so each
        leaf's pair with itself comes first; a pair whose lower bound
        passes the bound of every component in either leaf, the least
        edge found so far, is dropped before its distances.
        """
        points, r, tree = rounds.points, rounds.r, rounds.tree
        position = np.full(len(self), -1, dtype=np.intp)
        position[points] = np.arange(len(points))
        lab = label[position[tree.order]]  # each tree slot's component
        changes = np.concatenate([[0], np.cumsum(lab[1:] != lab[:-1])])
        one = changes[tree.stop - 1] == changes[tree.start]  # a node in one component
        comp = lab[tree.start]
        a, b, low = rounds.pairs
        keep = ~(one[a] & one[b] & (comp[a] == comp[b]))
        a, b, low = rounds.pairs = a[keep], b[keep], low[keep]
        leaves = np.flatnonzero(tree.leaf)
        leaves = leaves[np.argsort(tree.start[leaves])]  # they partition the slots
        node = np.empty(tree.count)
        for k, rows, cols, _, _ in tree.blocks(a, b):
            node[leaves] = np.maximum.reduceat(best.d[lab], tree.start[leaves])
            ok = low[k] <= np.maximum(node[a[k]], node[b[k]])
            if not ok.any():
                continue
            # each piece by ascending position (padding only repeats a pair)
            rows, cols = (np.sort(position[x[ok]], axis=1) for x in (rows, cols))
            d = self._pair_dists(points[rows][:, :, None], points[cols][:, None, :])
            same = label[rows][:, :, None] == label[cols][:, None, :]
            np.copyto(d, math.inf, where=same | (d == 0))
            # each point's lightest edge in the block, ties to the first
            # partner position: for a fixed end, the least (a, b)
            for x, others, axis in ((rows, cols, 2), (cols, rows, 1)):
                at = np.expand_dims(d.argmin(axis=axis), axis)
                least = np.take_along_axis(d, at, axis).squeeze(axis)
                y = np.take_along_axis(others, at.squeeze(axis), 1)
                near = least < r
                x, y = x[near], y[near]
                best.add(label[x], np.minimum(x, y), np.maximum(x, y), least[near])

    def _tree_sums(self, radii: list[float]) -> np.ndarray:
        """``sums[c, i, k]``: the level-``k`` parts of the points closer
        than ``radii[c]`` (ascending) to point ``i``, over the cell tree.

        Each unordered node pair keeps the run of radii still open for
        it.  The radii that its box bounds put outside add nothing, those
        they put inside add each node's level sums to every point of the
        other (kept per node as a difference over the radii, then pushed
        down the tree), and those between stay open for its child pairs.
        A leaf pair still open gets one block of distances; each of its
        open radii adds, to each point of either leaf, the parts of the
        other's points with ``d < r``.
        """
        tree, pad, n = self._tree(), self._pad, len(self)
        levels = self._parts.shape[1]
        r, count = np.asarray(radii, dtype=float), len(radii)
        whole = []

        def still_open(a, b, first, stop):
            mind, maxd = _box_bounds(tree.lo, tree.hi, a, b)
            low = np.maximum(np.searchsorted(r, mind - pad, "right"), first)
            high = np.clip(np.searchsorted(r, maxd + pad, "right"), low, stop)
            inside = high < stop  # each node lies inside radii high .. stop - 1
            whole.append((a[inside], b[inside], high[inside], stop[inside]))
            open_ = low < high
            return a[open_], b[open_], low[open_], high[open_]

        runs = (np.zeros(1, dtype=np.intp), np.full(1, count))
        la, lb, l_first, l_stop = tree.walk(still_open, carry=runs)
        # per level and radius a slot for every point and one more, which
        # padding and the second side of a leaf's pair with itself go to
        sums = np.zeros((levels, count, n + 1))
        sums[..., :n] = tree.whole_sums(*_joined(whole), count).T
        parts = np.concatenate([self._parts, np.zeros((1, levels))])
        for k, rows, cols, row_ok, col_ok in tree.blocks(la, lb):
            d = self._pair_dists(rows[:, :, None], cols[:, None, :])
            to_row = np.where(row_ok, rows, n)
            to_col = np.where(col_ok & (la[k] != lb[k])[:, None], cols, n)
            of_col = np.where(col_ok, cols, n)
            _add_near(sums, d, r, l_first[k], l_stop[k], parts, to_row, to_col, of_col)
        return sums[..., :n].transpose(1, 2, 0)


def _add_near(sums, d, r, first, stop, parts, to_row, to_col, of_col) -> None:
    """Add one block's near parts to ``sums[k, c, i]``: for each leaf
    pair ``p`` and radius ``c`` in ``first[p] .. stop[p] - 1``, the parts
    of the columns with ``d[p] < r[c]`` to the points ``to_row[p]``, and
    of the rows (``to_row[p]``'s parts) to ``to_col[p]``."""
    n = sums.shape[-1] - 1
    span = stop - first
    of_row, of_col = np.take(parts, to_row, axis=0), np.take(parts, of_col, axis=0)
    got, dest = [], []
    for step in range(span.max()):
        at = np.flatnonzero(span > step) if step else slice(None)
        near = (d[at] < r[first[at] + step, None, None]).astype(float)
        slot = (first[at, None] + step) * (n + 1)
        got += [near @ of_col[at], near.transpose(0, 2, 1) @ of_row[at]]
        dest += [slot + to_row[at], slot + to_col[at]]
    got = np.concatenate([g.reshape(-1, parts.shape[1]) for g in got])
    dest = np.concatenate([t.ravel() for t in dest])
    for k, level in enumerate(sums):
        level += np.bincount(dest, got[:, k], level.size).reshape(level.shape)


class _Lightest:
    """Per component, the lightest edge offered so far by ``(d, a, b)``:
    ``d`` and ``key``, which is ``a * m + b``."""

    def __init__(self, m: int):
        self.m = m
        self.d = np.full(m, math.inf)
        self.key = np.full(m, m * m, dtype=np.int64)

    def add(self, comps, a, b, d) -> None:
        """Offer the edge ``(a[k], b[k])``, ``d[k]`` long, to ``comps[k]``."""
        old = self.d[comps]
        np.minimum.at(self.d, comps, d)
        new = self.d[comps]
        self.key[comps[new < old]] = self.m * self.m  # ties start again
        tie = d == new
        np.minimum.at(self.key, comps[tie], a[tie] * self.m + b[tie])

    def edges(self) -> tuple[np.ndarray, ...]:
        """``(comp, a, b, d)``: each component offered an edge, its lightest."""
        comp = np.flatnonzero(self.d < math.inf)
        a, b = np.divmod(self.key[comp], self.m)
        return comp, a, b, self.d[comp]


class _ForestRounds:
    """The Borůvka rounds of :meth:`MetricMeasureSpace.spanning_forest`
    of ``points``, distinct point indices of ``space``: called with each
    round's labels, it gives every component its lightest edge shorter
    than ``r``, as :func:`_boruvka` asks.

    A matrix space scans each stored pair of ``points`` once per round,
    in blocks of at most ``_PAIR_BUDGET`` entries.  A coordinate space
    walks the cell tree of ``points`` once, here: it keeps the unordered
    leaf pairs (``pairs``) whose padded lower bound is below ``r``, but a
    one-location leaf's pair with itself, sorted by that bound.
    Components only merge from one round to the next, so a pair of
    points in one component stays so, and each round, the first
    included, drops the leaf pairs now inside one component.
    """

    def __init__(self, space: MetricMeasureSpace, points: np.ndarray, r: float):
        self.space, self.points, self.r = space, points, r
        if space.coords is not None and len(points):  # no points, no pairs
            whole = len(points) == len(space)
            tree = self.tree = space._tree() if whole else space._tree(points)

            def below(a, b):
                low = _box_bounds(tree.lo, tree.hi, a, b)[0] - space._pad
                keep = (low < r) & ~((a == b) & tree.spot[a])
                return a[keep], b[keep]

            a, b = tree.walk(below)
            low = _box_bounds(tree.lo, tree.hi, a, b)[0] - space._pad
            by_low = np.argsort(low, kind="stable")
            self.pairs = a[by_low], b[by_low], low[by_low]

    def __call__(self, label: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each component's lightest edge to another component, ordered
        by ``(d, a, b)``: ``label[k]`` names the component of
        ``points[k]``, and an edge joins positions ``a < b`` of
        ``points``."""
        best, space = _Lightest(len(self.points)), self.space
        if len(self.points):
            fill = space._row_edges if space.coords is None else space._tree_edges
            fill(self, label, best)
        return best.edges()


def _boruvka(m: int, lightest) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The minimum spanning forest of vertices ``0..m-1`` under a strict
    edge order, in Borůvka rounds.

    Each round, ``lightest(label)``, where ``label[v]`` is a vertex of
    ``v``'s component, gives the components with an edge to another and
    each one's least such edge, as arrays ``(comp, a, b, d)``; each
    component joins the one at its edge's far end.  Two components that
    point at each other took the same edge, the smaller is the root, and
    no longer cycle exists.  The rounds stop when no component has an
    edge, or at a tree's ``m - 1`` edges.  Returns the edges taken,
    ``(a, b, d)`` round by round, and each vertex's label.
    """
    label, none = np.arange(m), np.empty(0, dtype=np.intp)
    taken, count = [(none, none, none)], 0
    while count < m - 1:
        comp, a, b, d = lightest(label)
        if not len(comp):
            break
        ends = label[a]
        other = np.where(ends == comp, label[b], ends)
        parent = np.arange(m)
        parent[comp] = other
        mutual = parent[other] == comp
        root = comp[mutual & (comp < other)]
        parent[root] = root
        while np.any(parent[parent] != parent):
            parent = parent[parent]
        label = parent[label]
        new = ~(mutual & (comp > other))  # not the edge a smaller one took too
        taken.append((a[new], b[new], d[new]))
        count += int(new.sum())
    return _joined(taken), label


def _split(weights: np.ndarray) -> np.ndarray:
    """``(n, K)`` parts, K levels adding up to each weight exactly, by
    error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008).

    A level takes ``hi = (sigma + w) - sigma`` from each remaining
    weight, rounded down to a multiple of ``u = spacing(sigma)``; sigma
    is the power of two just above twice the remaining total (by
    ``math.fsum``, the same in any order).  Parts lie in ``[0, w]``, so
    a level's sum over any subset is a multiple of ``u`` below
    ``2**52 * u``: exact.  Levels go on until nothing remains, so tiny
    weights beside large ones keep a positive mass.
    """
    rest = np.array(weights, dtype=float)
    levels = []
    while rest.any():
        sigma = math.ldexp(1.0, math.frexp(math.fsum(rest))[1] + 1)
        hi = (sigma + rest) - sigma
        hi[hi > rest] -= np.spacing(sigma)
        levels.append(hi)
        rest -= hi  # exact: the remainder is below u
    return np.stack(levels, axis=1)


def _add_levels(sums: np.ndarray) -> np.ndarray:
    """Masses from level sums on the last axis, added in level order."""
    total = sums[..., 0].copy()
    for k in range(1, sums.shape[-1]):
        total += sums[..., k]
    return total


def _box_bounds(lo, hi, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Per pair of boxes ``a[k]``, ``b[k]``: the least and the largest
    distance between a point of one and a point of the other, up to
    rounding.  The largest is the least with the ends of both swapped."""
    (lo_a, hi_a), (lo_b, hi_b) = _rows((lo, hi), a), _rows((lo, hi), b)
    return _gaps(lo_b, hi_b, lo_a, hi_a), _gaps(hi_b, lo_b, hi_a, lo_a)


def _gaps(lo, hi, a_lo, a_hi) -> np.ndarray:
    """Per box ``(lo, hi)``, broadcast with the box ``(a_lo, a_hi)`` along
    the last axis: the least distance between their points, up to rounding."""
    acc = 0.0
    for ax in range(lo.shape[-1]):
        gap = np.maximum(lo[..., ax] - a_hi[..., ax], a_lo[..., ax] - hi[..., ax])
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        acc = acc + gap
    return np.sqrt(acc)


def _unique(values) -> np.ndarray:
    """``np.unique(values)`` by one sort: the distinct values, ascending
    (a plain ``np.unique`` imports ``numpy.ma`` on its first call)."""
    values = np.sort(np.ravel(values))
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _runs(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs ``first[k], first[k] + 1, ...`` of ``counts[k]`` indices, in turn."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1:].sum()) + np.repeat(first - ends + counts, counts)


def _blocks(rows: int, cols: int) -> Iterator[tuple[slice, slice]]:
    """Row and column slices cutting a ``rows`` x ``cols`` block into
    pieces of at most ``_PAIR_BUDGET`` pairs."""
    width = max(1, min(cols, _PAIR_BUDGET))
    height = max(1, _PAIR_BUDGET // width)
    for i in range(0, rows, height):
        for j in range(0, cols, width):
            yield slice(i, i + height), slice(j, j + width)


class _Candidates:
    """At radius ``r``, the candidate nodes of every home, from one walk:
    a query's home is ``home`` at its leaf (see :meth:`_CellTree.homes`),
    and those of home ``h`` are ``cells[first[h]:first[h] + count[h]]``,
    holding ``reach[h]`` points.

    The walk pairs home-side nodes, down to the homes, with nodes from
    the root down, and keeps each node whose box, less ``pad``, lies
    within ``r`` of the home's box: whole where the box bounds put all of
    it within ``r`` of a node holding the home, else leaf by leaf.
    """

    def __init__(self, tree: "_CellTree", r: float, pad: float):
        self.home = tree.homes(r)
        homes = _unique(self.home[tree.leaf])
        stop = np.zeros(tree.count, dtype=bool)
        stop[homes] = True
        homes = homes[np.argsort(tree.start[homes])]  # they partition the slots
        whole = []

        def close(a, b):
            mind, maxd = _box_bounds(tree.lo, tree.hi, a, b)
            inside = maxd + pad < r
            whole.append((a[inside], b[inside]))
            keep = (mind - pad < r) & ~inside
            return a[keep], b[keep]

        near_home, near_cell = tree.walk(close, stop=stop)
        # a node settled whole against ``a`` is a candidate of each home in ``a``
        big, cell = _joined(whole)
        first = np.searchsorted(tree.start[homes], tree.start[big])
        count = np.searchsorted(tree.start[homes], tree.stop[big]) - first
        near_home = np.concatenate([near_home, homes[_runs(first, count)]])
        near_cell = np.concatenate([near_cell, np.repeat(cell, count)])
        self.cells = near_cell[np.argsort(near_home, kind="stable")]
        self.count = np.bincount(near_home, minlength=tree.count)
        self.first = np.cumsum(self.count) - self.count
        self.reach = np.bincount(near_home, tree.size[near_cell], tree.count).astype(np.intp)


class _CellTree:
    """Median splits of a point set, kept as a binary tree.

    Nodes are numbered level by level from the root, 0.  Node ``v``
    holds the points ``order[start[v]:stop[v]]``, its tight box is
    ``lo[v]``, ``hi[v]``, and its children are ``child[v]`` and
    ``child[v] + 1`` (a leaf's ``child`` is -1).  A part of more than
    ``_CELL`` points is sorted along its widest axis and cut at the value
    change nearest the middle, so a location is never split and a part
    whose points all coincide stays one leaf, however large.  With
    ``parts``, ``sums[v]`` are the node's level sums, from prefix sums
    (exact, as every level sum is), and ``leaf_of`` maps each point to
    its leaf.
    """

    def __init__(self, coords: np.ndarray, members: np.ndarray, parts=None):
        order = np.array(members, dtype=np.intp)
        start, stop = [np.zeros(1, dtype=np.intp)], [np.array([len(order)])]
        lo, hi, child = [], [], []
        self.count = 1
        while True:  # one level of nodes per pass
            s, e = start[-1], stop[-1]
            size = e - s
            x = np.take(coords, order[_runs(s, size)], axis=0)
            lo.append(np.minimum.reduceat(x, np.cumsum(size) - size))
            hi.append(np.maximum.reduceat(x, np.cumsum(size) - size))
            kids = np.full(len(s), -1)
            child.append(kids)
            big = np.flatnonzero(size > _CELL)
            if not len(big):
                break
            s, size = s[big], size[big]
            pos = _runs(s, size)
            part = np.repeat(np.arange(len(big)), size)
            axis = (hi[-1] - lo[-1])[big].argmax(axis=1)
            v = coords[order[pos], axis[part]]
            by = np.lexsort((v, part))  # stable: ties keep their order
            order[pos], v = order[pos[by]], v[by]
            # per part, the value changes on either side of its middle
            base = np.cumsum(size) - size
            change = np.flatnonzero((v[1:] != v[:-1]) & (part[1:] == part[:-1])) + 1
            mid = base + size // 2
            ends = np.concatenate([[-len(v)], change, [2 * len(v)]])
            after = np.searchsorted(change, mid) + 1
            left, right = ends[after - 1], ends[after]
            left_ok, right_ok = left > base, right < base + size
            nearer = left_ok & ~(right_ok & (right - mid < mid - left))
            cut = s + np.where(nearer, left, right) - base
            split = left_ok | right_ok  # else one location: a leaf
            if not split.any():
                break
            kids[big[split]] = self.count + 2 * np.arange(split.sum())
            self.count += 2 * int(split.sum())
            s, e, cut = s[split], (s + size)[split], cut[split]
            start.append(np.column_stack([s, cut]).ravel())
            stop.append(np.column_stack([cut, e]).ravel())
        self.levels = np.cumsum([0] + [len(s) for s in start])
        self.order = order
        self.start, self.stop = np.concatenate(start), np.concatenate(stop)
        self.lo, self.hi = np.concatenate(lo), np.concatenate(hi)
        self.child = np.concatenate(child)
        self.leaf = self.child < 0
        self.spot = np.all(self.lo == self.hi, axis=1)  # one location
        self.size = size = self.stop - self.start
        self.parent = np.full(self.count, -1)
        inner = np.flatnonzero(~self.leaf)
        self.parent[self.child[inner]] = self.parent[self.child[inner] + 1] = inner
        self.across = np.sqrt(np.sum((self.hi - self.lo) ** 2, axis=1))  # box diagonals
        # the side of a block; a larger leaf is one location, cut in pieces
        self.width = int(min(_CELL, size[self.leaf].max()))
        if parts is not None:
            cum = np.cumsum(np.concatenate([np.zeros((1, parts.shape[1])), parts[order]]), axis=0)
            self.sums = cum[self.stop] - cum[self.start]
            leaves = np.flatnonzero(self.leaf)
            self.leaf_of = np.empty(len(order), dtype=np.intp)
            self.leaf_of[order[_runs(self.start[leaves], size[leaves])]] = np.repeat(
                leaves, size[leaves]
            )

    def walk(self, keep, start=None, carry=(), stop=None):
        """The leaf pairs that ``keep`` lets through, walking node pairs
        level by level from the root with itself, or from the pairs
        ``start``.

        At each level ``keep(a, b, *carry)`` returns the pairs to keep
        and their carry, arrays with one entry per pair.  A kept pair of
        two leaves is an answer; in every other kept pair each node that
        is not a leaf gives way to its two children, and the child pairs
        inherit the carry.  Returns the answers ``(a, b, *carry)``, level
        by level.  Pairs are unordered, so a node's pair with itself gives
        three.  With ``stop``, a mask of nodes, pairs are ordered: ``a``
        descends only until ``stop[a]`` and ``b`` to the leaves, and a
        kept pair of a stopped ``a`` and a leaf ``b`` is an answer.
        """
        a, b = start if start is not None else (np.zeros(1, dtype=np.intp),) * 2
        leaves = []
        while len(a):
            a, b, *carry = keep(a, b, *carry)
            leaf = self.leaf[b] & (self.leaf[a] if stop is None else stop[a])
            leaves.append([x[leaf] for x in (a, b, *carry)])
            a, b, *carry = (x[~leaf] for x in (a, b, *carry))
            ca = self.child[a] if stop is None else np.where(stop[a], -1, self.child[a])
            cb = self.child[b]
            na, nb = 1 + (ca >= 0), 1 + (cb >= 0)
            up = np.repeat(np.arange(len(a)), na * nb)
            t = _runs(np.zeros(len(a), dtype=np.intp), na * nb)
            ca, cb = ca[up], cb[up]
            a2 = np.where(ca < 0, a[up], ca + t // nb[up])
            b2 = np.where(cb < 0, b[up], cb + t % nb[up])
            if stop is None:
                two = (a[up] != b[up]) | (a2 <= b2)
                up, a2, b2 = up[two], a2[two], b2[two]
            a, b, carry = a2, b2, [x[up] for x in carry]
        return _joined(leaves)

    def homes(self, r: float) -> np.ndarray:
        """Each node's home at radius ``r``: the highest node that holds
        it, itself included, whose box is at most ``r / 2`` across."""
        home = np.arange(self.count)
        while True:
            up = self.parent[home]
            move = (up >= 0) & (self.across[up] <= r / 2)
            if not move.any():
                return home
            home = np.where(move, up, home)

    def whole_sums(self, a, b, first, stop, count: int) -> np.ndarray:
        """``sums[i, c, k]``: the level-``k`` sums that point ``i`` gets
        from the unordered node pairs ``(a, b)`` held whole by the radii
        ``first .. stop - 1`` of ``count``, each node getting the other's.

        Per node, a node's sums go in at its pair's first radius and out
        past its last; summed over the radii and down the tree, from each
        node to its children, they reach the points.  Every partial sum
        is a subset's level sum, exact in any grouping.
        """
        two = a != b
        to, of = np.concatenate([a, b[two]]), np.concatenate([b, a[two]])
        first, stop = np.concatenate([first, first[two]]), np.concatenate([stop, stop[two]])
        at = np.concatenate([to * (count + 1) + first, to * (count + 1) + stop])
        node = np.empty((self.count, count + 1, self.sums.shape[1]))
        for k, part in enumerate(self.sums[of].T):
            node[..., k] = np.bincount(
                at, np.concatenate([part, -part]), node[..., k].size
            ).reshape(self.count, count + 1)
        node = np.cumsum(node, axis=1)[:, :count]
        for v in range(len(self.levels) - 2):
            at = np.arange(self.levels[v], self.levels[v + 1])
            at = at[~self.leaf[at]]
            node[self.child[at]] += node[at]
            node[self.child[at] + 1] += node[at]
        return node[self.leaf_of]

    def blocks(self, a, b):
        """The leaf pairs ``(a, b)`` as padded blocks of point indices.

        Each leaf is cut into pieces of ``width`` points, and each pair of
        pieces is one row of a block; a block holds at most
        ``_PAIR_BUDGET`` distances, and no more piece pairs than the tree
        has points per piece, so that its arrays stay near the size of a
        column of masses (a block has at least one piece pair).  Yields
        ``(k, rows, cols, row_ok, col_ok)``: ``rows[p]`` and ``cols[p]``
        are ``width`` points of pieces of ``a[k[p]]`` and ``b[k[p]]``, a
        short piece padded with its last point, and the ``_ok`` masks
        mark the points that are not padding.
        """
        width = self.width
        na = -(-(self.stop[a] - self.start[a]) // width)
        nb = -(-(self.stop[b] - self.start[b]) // width)
        k = np.repeat(np.arange(len(a)), na * nb)
        t = _runs(np.zeros(len(a), dtype=np.intp), na * nb)
        row = self.start[a[k]] + t // nb[k] * width
        col = self.start[b[k]] + t % nb[k] * width
        row_n = np.minimum(width, self.stop[a[k]] - row)
        col_n = np.minimum(width, self.stop[b[k]] - col)
        lane = np.arange(width)
        step = max(1, min(_PAIR_BUDGET // (width * width), len(self.order) // width))
        for i in range(0, len(k), step):
            at = slice(i, i + step)
            rn, cn = row_n[at, None], col_n[at, None]
            rows = self.order[row[at, None] + np.minimum(lane, rn - 1)]
            cols = self.order[col[at, None] + np.minimum(lane, cn - 1)]
            yield k[at], rows, cols, lane < rn, lane < cn


def _rows(arrays, at) -> list[np.ndarray]:
    """Rows ``at`` of each array (``take`` is much faster than fancy
    indexing on rows)."""
    return [np.take(x, at, axis=0) for x in arrays]


def _joined(pieces: list[tuple]) -> tuple[np.ndarray, ...]:
    """Each field of a list of equal-shaped tuples of arrays, concatenated."""
    return tuple(np.concatenate(field) for field in zip(*pieces))


@dataclass(frozen=True)
class Ball:
    """Open ball: the points at distance < ``radius`` from ``center``."""

    center: int
    radius: float

    def __post_init__(self):
        if not (self.radius > 0) or not math.isfinite(self.radius):
            raise ParameterError(f"ball radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class TargetSet:
    """The subset of points a curve must pass through.

    ``xi0`` is a designated basepoint; the nets are seeded with it.
    """

    members: tuple[int, ...]
    xi0: int


def enclosing_target(
    space: MetricMeasureSpace, members: Sequence[int] | None = None
) -> TargetSet:
    """Canonical target set over ``members`` (default: every point).

    The basepoint is the member with the smallest maximal distance to
    the other members (ties: smaller id).
    """
    ids = tuple(sorted(space.ids if members is None else (int(m) for m in members)))
    if not ids:
        raise DegenerateInputError("target set must be nonempty")
    ecc = space.eccentricities(space.indices_of(ids))
    best = int(np.argmin(ecc))  # first minimum: the smallest id
    return TargetSet(members=ids, xi0=ids[best])


# -- measures of balls -------------------------------------------------


def ball_members(space: MetricMeasureSpace, ball: Ball) -> np.ndarray:
    """Indices of the points inside the open ball."""
    k = space.index_of(ball.center)
    return np.flatnonzero(space.dists_from(k) < ball.radius)


@dataclass(frozen=True)
class DoublingEstimate:
    c_hat: float
    evaluated: int
    skipped: int
    worst_center: int
    worst_radius: float


def doubling_estimate(
    space: MetricMeasureSpace, radii: Sequence[float]
) -> DoublingEstimate:
    """Largest sampled ratio mass(B(x, 2r)) / mass(B(x, r)) over every point.

    Pairs with an empty inner ball mass are skipped and counted; a point
    of positive weight lies in its own balls, so some pair is always
    evaluated.  Masses come from one table of
    :meth:`MetricMeasureSpace.ball_masses`; on a dyadic grid each outer
    radius ``2r`` is the next inner radius, so it is asked once.
    """
    radii = [float(r) for r in radii]
    if not radii or not all(r > 0 for r in radii):
        raise ParameterError("radii must be a nonempty list of positive values")

    # each distinct radius once, then one row of masses per point
    grid = list(dict.fromkeys(radii + [2.0 * r for r in radii]))
    col = {r: c for c, r in enumerate(grid)}
    masses = space.ball_masses(np.arange(len(space)), grid)
    inner = masses[:, [col[r] for r in radii]]
    outer = masses[:, [col[2.0 * r] for r in radii]]
    nonzero = inner != 0.0
    ratio = np.full(inner.shape, -math.inf)
    np.divide(outer, inner, out=ratio, where=nonzero)
    # the first largest ratio in (point, radius) order, as a scan would keep
    k, c = divmod(int(np.argmax(ratio)), len(radii))
    evaluated = int(np.count_nonzero(nonzero))
    return DoublingEstimate(
        c_hat=float(ratio[k, c]),
        evaluated=evaluated,
        skipped=ratio.size - evaluated,
        worst_center=space.ids[k],
        worst_radius=radii[c],
    )


# -- Vitali-style covers ----------------------------------------------


def vitali_subcover(
    space: MetricMeasureSpace, balls: Sequence[Ball]
) -> list[int]:
    """Greedy disjoint subfamily in Vitali order.

    Balls are visited by decreasing radius (ties: smaller center id,
    then input position); a ball is kept when its point-membership set
    is disjoint from every kept ball.  Every input ball's center then
    lies inside the 5-times dilate of some kept ball.

    Returns positions into ``balls`` of the kept subfamily, in
    selection order.
    """
    if not balls:
        return []
    order = sorted(
        range(len(balls)),
        key=lambda j: (-balls[j].radius, balls[j].center, j),
    )
    taken: np.ndarray = np.zeros(len(space), dtype=bool)
    kept: list[int] = []
    for j in order:
        members = ball_members(space, balls[j])
        if not np.any(taken[members]):
            kept.append(j)
            taken[members] = True
    return kept


@dataclass(frozen=True)
class HausdorffEstimate:
    upper: float
    lower: float
    delta: float
    r_min: float
    upper_balls: tuple[Ball, ...]
    lower_balls: tuple[Ball, ...]


def _cover_radius_grid(delta: float, r_min: float) -> list[float]:
    # Ascending dyadic grid of candidate radii, capped strictly under delta,
    # floored at r_min (the floor itself is always a candidate).
    top = delta * (1.0 - 1e-9)
    if top <= r_min:
        return [r_min]
    radii = [top]
    while radii[-1] / 2.0 > r_min:
        radii.append(radii[-1] / 2.0)
    radii.append(r_min)
    return radii[::-1]


def hausdorff_estimate(
    space: MetricMeasureSpace,
    target: TargetSet | Sequence[int],
    delta: float,
    r_min: float | None = None,
) -> HausdorffEstimate:
    """Spherical one-dimensional measure surrogate at gauge ``delta``.

    upper: sum of diameters ``2 r_i`` of a greedy cover of the target by
    balls centered in it with radii < ``delta``.  Each step takes the
    (center, radius) pair covering the most still-uncovered mass per
    unit radius; ties prefer the smaller radius, then the smaller
    center id.  Radii live on a dyadic grid with floor ``r_min``
    (default: half the smallest positive gap between target points), so
    isolated points cost ``2 r_min`` each rather than collapsing the
    estimate.

    lower: ``sum 2 r_i / 5`` over the Vitali subfamily of the chosen
    cover -- the disjoint family whose 5-times dilates cover the chosen
    centers.
    """
    if not (delta > 0):
        raise ParameterError("delta must be positive")
    members = target.members if isinstance(target, TargetSet) else tuple(target)
    members = tuple(sorted(int(m) for m in members))
    if not members:
        raise DegenerateInputError("target set must be nonempty")
    idx = space.indices_of(members)

    sub = np.stack([space.dists_from(k)[idx] for k in idx])
    if r_min is None:
        positive = sub[sub > 0]
        r_min = (
            float(positive.min()) / 2.0 if positive.size else delta * 1e-9
        )
    if not (0 < r_min < delta):
        raise ParameterError("need 0 < r_min < delta")

    parts = space._parts[idx]
    radii = _cover_radius_grid(delta, r_min)
    uncovered = np.ones(len(members), dtype=bool)

    def gain(c: int, k: int) -> float:  # the ball's uncovered mass per unit radius
        return float(_add_levels(parts[uncovered & (sub[c] < radii[k])].sum(axis=0)) / radii[k])

    # a lazy greedy (Minoux 1978): gains only fall, and a gain computed
    # again is the same bits, so the least (-gain, radius, centre) whose
    # gain holds is the pair a full rescan would take
    heap = [
        (-g, k, c)
        for k, r in enumerate(radii)
        for c, g in enumerate((_add_levels((sub < r) @ parts) / r).tolist())
    ]
    heapq.heapify(heap)
    chosen: list[Ball] = []
    while np.any(uncovered):
        _, k, c = heapq.heappop(heap)
        best = (-gain(c, k), k, c)
        if heap and best > heap[0]:
            heapq.heappush(heap, best)
            continue
        if best[0] >= 0.0:
            # Only zero-weight points remain; cover them at the floor radius.
            for c in np.flatnonzero(uncovered):
                if uncovered[c]:
                    chosen.append(Ball(center=members[int(c)], radius=r_min))
                    uncovered[sub[int(c)] < r_min] = False
                    uncovered[int(c)] = False
            break
        chosen.append(Ball(center=members[c], radius=radii[k]))
        uncovered[sub[c] < radii[k]] = False
        uncovered[c] = False  # the center itself is always at distance 0

    upper = seq_sum([2.0 * b.radius for b in chosen])
    kept = vitali_subcover(space, chosen)
    lower_balls = tuple(chosen[j] for j in kept)
    lower = seq_sum([2.0 * b.radius for b in lower_balls]) / 5.0
    return HausdorffEstimate(
        upper=upper,
        lower=lower,
        delta=delta,
        r_min=r_min,
        upper_balls=tuple(chosen),
        lower_balls=lower_balls,
    )


# -- linear mass lower bound ------------------------------------------


@dataclass(frozen=True)
class MassCheckResult:
    ok: bool
    factor: float
    radii: tuple[float, ...]
    worst_id: int
    worst_radius: float
    worst_margin: float  # min over checks of mass - factor * r


def dyadic_radii(r_lo: float, r_hi: float) -> list[float]:
    """Geometric grid of ratio 1/2 from ``r_hi`` down to ``r_lo``."""
    if not (0 < r_lo <= r_hi < math.inf):
        raise ParameterError("need 0 < r_lo <= r_hi < inf")
    radii = []
    r = float(r_hi)
    while r >= r_lo * (1.0 - 1e-12):
        radii.append(r)
        r /= 2.0
    return radii


def linear_mass_check(
    space: MetricMeasureSpace,
    point_ids: Sequence[int],
    r_lo: float,
    r_hi: float,
    factor: float = 2.0,
) -> MassCheckResult:
    """Check ``mass(B(x, r)) >= factor * r`` on the dyadic radius grid.

    Masses come from one table of :meth:`MetricMeasureSpace.ball_masses`;
    the worst margin is the first smallest in (id, radius) scan order.
    """
    ids = sorted(int(p) for p in point_ids)
    if not ids:
        raise DegenerateInputError("no points to check")
    radii = dyadic_radii(r_lo, r_hi)
    margin = space.ball_masses(space.indices_of(ids), radii)
    margin -= factor * np.array(radii)
    k, c = divmod(int(np.argmin(margin)), len(radii))
    worst = float(margin[k, c])
    return MassCheckResult(
        ok=worst >= 0.0,
        factor=factor,
        radii=tuple(radii),
        worst_id=ids[k],
        worst_radius=radii[c],
        worst_margin=worst,
    )


# -- IO ----------------------------------------------------------------


def _parse_number(raw: str, where: str, kind: type = float):
    """``kind(raw)`` for a CSV field; ``where`` names it as ``path:line``.

    Python's ``int`` and ``float`` also read digit-group underscores
    (``1_0`` as 10) and non-ASCII digits, which no CSV writer means.
    """
    if "_" not in raw and raw.isascii():
        try:
            return kind(raw)
        except ValueError:
            pass
    noun = "an integer" if kind is int else "a number"
    raise InputError(f"{where}: {raw!r} is not {noun}")


def _open(path: str, mode: str = "r", **kwargs):
    """``open``; a path that cannot be opened in ``mode`` is an InputError
    naming it."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise InputError(f"{path}: cannot {verb} ({exc.strerror})") from None


def _write_lines(path: str, header: str, lines: Iterable[str]) -> None:
    """Write ``header`` and then ``lines`` to ``path``, joined a block of
    lines at a time, so no more than a block is ever held as text."""
    lines = iter(lines)
    with _open(path, "w", newline="") as fh:
        fh.write(header)
        while block := "".join(itertools.islice(lines, 4096)):
            fh.write(block)


def _read_points(path: str, axes: int | None = None) -> tuple[list, ...]:
    """Ids, coordinate rows and weights of a CSV with header
    ``id,x1,...,xd,weight``: ``d`` is ``axes`` when given (an ``id,weight``
    file has none), else the header's, at least one."""
    with _open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        dim = len(header) - 2
        named = header[:1] == ["id"] and header[-1:] == ["weight"]
        if not named or (dim < 1 if axes is None else dim != axes):
            shape = "id,weight" if axes == 0 else "id,x1,...,xd,weight"
            raise InputError(f"{path}: expected header {shape}, got {header}")
        ids, coords, weights = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) != dim + 2:
                raise InputError(f"{where}: expected {dim + 2} fields")
            ids.append(_parse_number(row[0], where, int))
            coords.append([_parse_number(v, where) for v in row[1:-1]])
            weights.append(_parse_number(row[-1], where))
    if not ids:
        raise InputError(f"{path}: no data rows")
    return ids, coords, weights


def load_csv(path: str) -> MetricMeasureSpace:
    """Point cloud from CSV with header ``id,x1,...,xd,weight``."""
    ids, coords, weights = _read_points(path)
    return MetricMeasureSpace.from_coords(
        ids, np.array(coords), np.array(weights)
    )


def save_csv(space: MetricMeasureSpace, path: str) -> None:
    if space.coords is None:
        raise ParameterError("matrix-backed spaces cannot be saved as point CSV")
    axes = "".join(f",x{k + 1}" for k in range(space.coords.shape[1]))
    # Python floats and ints: no field holds a comma, a quote or a line
    # break, so each line is csv.writer's
    lines = (
        f"{pid},{','.join(map(repr, xs))},{w!r}\r\n"
        for pid, xs, w in zip(space.ids, space.coords.tolist(), space.weights.tolist())
    )
    _write_lines(path, f"id{axes},weight\r\n", lines)


def _finite(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def load_json(path: str) -> MetricMeasureSpace:
    """Point cloud from JSON: a list of {id, coords, weight} records.

    Ids are integers, coords lists as long as record 0's, and every number
    a finite float, not a bool; else :class:`InputError` names the record."""
    try:
        with _open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: expected a nonempty list of point records")
    ids, coords, weights = [], [], []
    for k, rec in enumerate(data):
        fields = rec if isinstance(rec, dict) else {}
        pid, xs, w = (fields.get(f) for f in ("id", "coords", "weight"))
        if not (type(pid) is int and type(xs) is list
                and len(xs) == len(coords[0] if coords else xs)
                and all(map(_finite, xs + [w]))):
            raise InputError(
                f"{path}: bad point record {k} {rec!r} (expected an integer id,"
                " coords as many finite numbers as record 0's, a finite weight)"
            )
        ids.append(pid)
        coords.append([float(v) for v in xs])
        weights.append(float(w))
    return MetricMeasureSpace.from_coords(
        ids, np.array(coords), np.array(weights)
    )


class _Slice(io.RawIOBase):
    """Bytes ``start`` to ``stop`` of the file open as ``fd``, read by
    offset, so that readers sharing ``fd`` never move its position."""

    def __init__(self, fd: int, start: int, stop: int):
        self._fd, self._at, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self._fd, min(len(buf), self._stop - self._at), self._at)
        buf[: len(data)] = data
        self._at += len(data)
        return len(data)


def _line_end(fd: int, pos: int, size: int) -> int:
    """The offset just past the first newline at or after ``pos``, else
    ``size``."""
    return pos + len(io.BufferedReader(_Slice(fd, pos, size)).readline())


def _load_part(fd: int, encoding: str, start: int, stop: int) -> np.ndarray:
    """``load_matrix``'s ``np.loadtxt`` call on the lines of one byte range,
    read as ``open`` reads the whole file."""
    text = io.TextIOWrapper(io.BufferedReader(_Slice(fd, start, stop)), encoding=encoding)
    return np.loadtxt(text, delimiter=",", dtype=float, ndmin=2)


def _rows_of(part: np.ndarray, n: int) -> int:
    """The rows of a parsed part, or -1 when they are not ``n`` wide."""
    return len(part) if part.shape[1] == n or not len(part) else -1


def _parse_in_parts(fh, n: int) -> np.ndarray | None:
    """The ``n`` by ``n`` matrix CSV open as ``fh``, parsed in byte ranges
    cut at line ends, one per usable CPU but no more than
    ``n * n // _PAIR_BUDGET``; None when that is one range (always, for a
    file that is not a regular one, where ``os.fork`` is missing, or in a
    process running a second thread, which a fork may leave holding a
    lock), or when any range fails to parse, is not ``n`` wide, or the
    rows do not add up to ``n``, so that the caller parses the whole file
    as one.

    The first range is parsed here, each other by a child of ``os.fork``
    that does nothing else and ends in ``os._exit``.  Each sends its row
    count up a pipe, is sent the rows before it, and writes its rows at
    that offset into one shared anonymous map, so the matrix is never
    copied whole.  Every child is reaped, or killed and reaped, before
    this returns or raises."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return None
    parts = max(1, min(len(os.sched_getaffinity(0)), n * n // _PAIR_BUDGET))
    fd = fh.fileno()
    info = os.fstat(fd)
    if parts == 1 or not stat.S_ISREG(info.st_mode):
        return None
    size = info.st_size
    cuts = sorted({0, size, *(_line_end(fd, size * k // parts, size) for k in range(1, parts))})
    if len(cuts) < 3:
        return None
    out = np.frombuffer(mmap.mmap(-1, n * n * 8), dtype=float).reshape(n, n)
    children: dict[int, tuple[int, int]] = {}  # pid -> (count in, offset out)
    status: dict[int, int] = {}  # pid -> wait status, once reaped
    try:
        for start, stop in zip(cuts[1:], cuts[2:]):
            count_in, count_out = os.pipe()
            offset_in, offset_out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: parse the file as one
                for k in (count_in, count_out, offset_in, offset_out):
                    os.close(k)
                return None
            if not pid:
                code = 1
                try:
                    for k in (count_in, offset_out, *(k for ends in children.values() for k in ends)):
                        os.close(k)
                    part = _load_part(fd, fh.encoding, start, stop)
                    os.write(count_out, b"%d" % _rows_of(part, n))
                    offset = int(os.read(offset_in, 32) or -1)
                    if offset >= 0:
                        out[offset : offset + len(part)] = part
                        code = 0
                finally:
                    os._exit(code)
            children[pid] = (count_in, offset_out)
            os.close(count_out)
            os.close(offset_in)
        try:
            first = _load_part(fd, fh.encoding, cuts[0], cuts[1])
        except ValueError:
            return None
        counts = [_rows_of(first, n)] + [int(os.read(k, 32) or -1) for k, _ in children.values()]
        if min(counts) < 0 or sum(counts) != n:
            return None
        out[: len(first)] = first
        del first
        offset = counts[0]
        for (_, offset_out), count in zip(children.values(), counts[1:]):
            try:
                os.write(offset_out, b"%d" % offset)
            except BrokenPipeError:  # the child is gone
                return None
            offset += count
        for pid in children:
            status[pid] = os.waitpid(pid, 0)[1]
        return None if any(status.values()) else out
    finally:
        for pid, ends in children.items():
            for k in ends:
                os.close(k)
            if pid not in status:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def load_matrix(matrix_path: str, weights_path: str) -> MetricMeasureSpace:
    """Explicit metric: square distance CSV plus an ``id,weight`` CSV.

    A large matrix is parsed in parts on every usable CPU
    (:func:`_parse_in_parts`); a small one, or one whose parts fail, by one
    ``np.loadtxt`` over the whole file, so every error names the rows of
    the whole file.  A file with no data row is an :class:`InputError`."""
    ids, _, weights = _read_points(weights_path, axes=0)
    with _open(matrix_path) as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        matrix = _parse_in_parts(fh, len(ids))
        if matrix is None:
            try:
                matrix = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
            except ValueError as exc:
                raise InputError(f"{matrix_path}: {exc}") from None
    if not matrix.size:
        raise InputError(f"{matrix_path}: no data rows")
    return MetricMeasureSpace.from_matrix(ids, matrix, np.array(weights))
