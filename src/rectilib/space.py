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
  asks the cell pass below;
* open-ball masses, one array of length ``n`` per radius, filled by
  :meth:`~MetricMeasureSpace.ball_masses`, which answers a point set as
  one table;
* the cells of the cell pass below, cut once from every point, and laid
  end to end by the first neighbour query or ball-mass fill.

Every mass comes from one definition.  When a space is built, each
weight is split into nonnegative parts, one per level (:func:`_split`),
so that a level's parts over any set of points sum exactly, in any
order and grouping.  The mass of a set, :meth:`~MetricMeasureSpace.mass`,
is its level sums added in level order: no order of the ids, no BLAS
and no fill can move it.  Each backend has one ball-mass fill: a
coordinate space sums levels over the cells below, a matrix space over
its stored rows, a block at a time.

A coordinate space needs no full row for its summary or its masses.
:meth:`~MetricMeasureSpace.neighbors` answers "which points are closer
than ``r``" for a batch of query points (in bounded batches from
:meth:`~MetricMeasureSpace.neighbor_batches`),
:meth:`~MetricMeasureSpace.dists_between` gives one row's entries at
chosen columns, and :meth:`~MetricMeasureSpace.nearest` gives each
point's nearest candidate, the one nearest-point search of the package.
On coordinates the cells below pick the candidates and the row formula
decides ``d < r`` on them, so ties on lattice inputs resolve exactly as
the rows resolve them; a matrix space answers from its stored rows.
Nets, cubes, gaps to the target, porous witnesses and the curve's
adjacency are built on these methods.

The cell pass serves the eccentricities, the summary's bound on the
least gap, the ball masses and the neighbour query, with numpy alone.
Its cells are median splits of the points, or of a subset, down to
``_CELL`` points; a cut never separates coincident points, so a stack of
them may make a larger cell.  The tight boxes of two cells, widened by a
pad of ``1e-6`` times the bounding-box diagonal, bound every distance
between them, so a whole cell lies inside a ball, outside it, or
straddles its boundary; only straddling cell pairs (and the pairs that
may hold an eccentricity) get distances, by the row formula, in blocks
of at most ``_PAIR_BUDGET`` pairs.  A cell inside a ball adds its level
sums whole.  The least gap is the least positive distance inside a cell
or among the neighbours within the boxes' bound on it.

The cached arrays, the axis columns, the weights and the stored matrix
are read-only, so a caller cannot change a later row or cached value by
writing into one it was given.  The inputs are not copied: do not
modify a coordinate or matrix array after building a space from it.
"""

from __future__ import annotations

import csv
import json
import math
import sys
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
# cell pass computes at most this many distances per block
_PAIR_BUDGET = 1 << 18
# the cell pass splits points into cells of at most this many (more only
# when they coincide) and decides pairs of cells whole
_CELL = 64


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
        self._all_cells = None  # the cell pass's cells of every point, built once
        self._layout = None  # the same cells end to end, built by _cell_layout
        self._pad = 0.0  # widens the cells' bounds

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
        return np.array([self.index_of(p) for p in point_ids], dtype=np.intp)

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
        ``d = dists_from(query_idx[q])[j] < r``, sorted by ``(q, j)``,
        each ``d`` equal to that row entry bit for bit.  The answer is
        the concatenation of :meth:`neighbor_batches`.
        """
        parts = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
        for batch, q, j, d in self.neighbor_batches(query_idx, r):
            parts.append((q + batch.start, j, d))
        if len(parts) == 2:  # one batch: nothing to join
            return parts[1]
        return tuple(np.concatenate(part) for part in zip(*parts))

    def neighbor_batches(
        self, query_idx: Sequence[int] | np.ndarray, r: float
    ) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
        """:meth:`neighbors` for consecutive runs of query points.

        Yields ``(batch, q, j, d)``, where ``batch`` is the slice of
        ``query_idx`` answered and ``q`` indexes ``query_idx[batch]``;
        every query's pairs are in one batch, of at most ``_PAIR_BUDGET``
        candidate pairs (more only for one query alone), so a caller
        that reduces each batch keeps its memory bounded even where many
        points coincide.  A matrix space scans its stored rows.  On
        coordinates a cell is a candidate for a query when its box, less
        the pad, lies within ``r`` of the box of the query's cell and
        then of the query point; the row formula decides ``d < r`` on
        the candidates' points.
        """
        query_idx = np.asarray(query_idx, dtype=np.intp).reshape(-1)
        n = len(self)
        if self._matrix is not None:
            step = max(1, _PAIR_BUDGET // n)
            for start in range(0, len(query_idx), step):
                chunk = query_idx[start : start + step]
                rows = self._matrix[chunk]
                q, j = np.nonzero(rows < r)
                yield slice(start, start + len(chunk)), q, j, rows[q, j]
            return
        cells, lo, hi = self._cells()
        order, first, size, cell_of = self._cell_layout()
        pad, step = self._pad, max(1, _PAIR_BUDGET // len(cells))
        # the candidate cells of each home cell of a query, by home
        homes, home = np.unique(cell_of[query_idx], return_inverse=True)
        near = [np.empty((2, 0), dtype=np.intp)]
        for h in range(0, len(homes), step):
            at = homes[h : h + step, None]
            a, b = np.nonzero(_gaps(lo, hi, lo[at], hi[at]) - pad < r)
            near.append(np.stack([a + h, b]))
        near_home, near_cell = np.concatenate(near, axis=1)
        count = np.bincount(near_home, minlength=len(homes))
        skip = np.cumsum(count) - count
        pairs = np.cumsum(np.bincount(near_home, size[near_cell], len(homes))[home])
        start = 0
        while start < len(query_idx):
            base = pairs[start - 1] if start else 0
            stop = max(start + 1, np.searchsorted(pairs, base + _PAIR_BUDGET, "right"))
            rows, own = query_idx[start:stop], home[start:stop]
            q = np.repeat(np.arange(len(rows)), count[own])
            c = near_cell[_runs(skip[own], count[own])]
            x = self.coords[rows[q]]
            keep = _gaps(lo[c], hi[c], x, x) - pad < r  # each query's own bound
            q, c = q[keep], c[keep]
            q, j = np.repeat(q, size[c]), order[_runs(first[c], size[c])]
            d = self._pair_dists(rows[q], j)
            keep = np.flatnonzero(d < r)
            keep = keep[np.argsort(q[keep] * n + j[keep], kind="stable")]
            yield slice(start, stop), q[keep], j[keep], d[keep]
            start = stop

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
            # per point: the first pair by (distance, candidate id, position)
            order = np.lexsort((q, cand_ids[q], d, j))
            j, first = np.unique(j[order], return_index=True)
            pos[j], dist[j] = q[order][first], d[order][first]
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
        asks the cells, and computes distances only between cells
        whose box bounds leave the answer open.
        """
        if self._summary is None:
            if self._matrix is not None:
                m = self._matrix
                ecc = m.max(axis=1)
                gap = float(np.min(m, where=m > 0, initial=math.inf))
            else:
                ecc, gap = self._cell_summary()
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
        cells made of the members.  Indices may repeat.
        """
        idx = np.asarray(indices, dtype=np.intp)
        members = np.unique(idx)
        if len(members) == len(self):
            return self.summary()[0][idx]
        if self._matrix is not None:
            return self._max_dists(idx, members)
        return self._cell_eccentricities(members)[idx]

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
        radii a call finds missing are filled together, by the cells on
        coordinates and by the stored rows of a matrix.  Exact level
        sums make both fills, in any order of the calls, give the same
        bits.  A radius that is not ``> 0`` raises before any cache
        changes.
        """
        bad = [r for r in radii if not r > 0]
        if bad:
            raise ParameterError(f"ball radii must be positive, got {bad[0]!r}")
        idx = np.asarray(indices, dtype=np.intp)
        missing = list(dict.fromkeys(r for r in radii if r not in self._masses))
        if missing:
            fill = self._row_sums if self.coords is None else self._cell_sums
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

    # -- the cell pass ---------------------------------------------------

    def _cells(
        self, members: np.ndarray | None = None
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """The cells' point indices, and each cell's box as the per-axis
        minimum and maximum of its points.

        The points (default: every point, cut once) are halved by median
        splits down to ``_CELL`` points.  Each cut sorts a part along its
        widest axis and goes at the value change nearest the middle, so
        the points of one location share a cell, and a part whose points
        all coincide stays one cell, however large.
        """
        if members is None:
            if self._all_cells is None:
                self._all_cells = self._cells(np.arange(len(self)))
            return self._all_cells
        cells, parts = [], [members]
        while parts:
            part = parts.pop()
            if len(part) > _CELL:
                x = self.coords[part]
                axis = x[:, np.ptp(x, axis=0).argmax()]
                order = np.argsort(axis, kind="stable")
                part, axis = part[order], axis[order]
                cuts = np.flatnonzero(axis[1:] != axis[:-1]) + 1
                if len(cuts):  # else the widest axis is flat: one location
                    cut = cuts[np.abs(cuts - len(part) // 2).argmin()]
                    parts += [part[:cut], part[cut:]]
                    continue
            cells.append(part)
        lo = np.array([self.coords[c].min(axis=0) for c in cells])
        hi = np.array([self.coords[c].max(axis=0) for c in cells])
        return cells, lo, hi

    def _cell_layout(self) -> tuple[np.ndarray, ...]:
        """The cells of every point end to end: their point indices in
        cell order, each cell's first position and size, each point's cell."""
        if self._layout is None:
            size = np.array([len(c) for c in self._cells()[0]])
            order = np.concatenate(self._cells()[0])
            cell_of = np.repeat(np.arange(len(size)), size)[np.argsort(order)]
            self._layout = (order, np.cumsum(size) - size, size, cell_of)
        return self._layout

    def _cell_eccentricities(self, members: np.ndarray | None = None) -> np.ndarray:
        """Each member's largest distance to the members (default: every
        point), at its index of a length-``n`` array.  A cell B can hold
        a point's farthest member only when its upper bound reaches the
        largest lower bound over all cells."""
        cells, lo, hi = self._cells(members)
        ecc = np.empty(len(self))
        for a, rows in enumerate(cells):
            mind, maxd = _box_bounds(lo, hi, a)
            far = np.flatnonzero(maxd + self._pad >= mind.max() - self._pad)
            ecc[rows] = self._max_dists(rows, np.concatenate([cells[b] for b in far]))
        return ecc

    def _cell_summary(self) -> tuple[np.ndarray, float]:
        """Eccentricities and the least positive distance (``inf`` when
        there is none) from the cells.

        The least positive distance is at most the least found inside
        any one cell, and at most the upper bound to any cell surely
        apart; one :meth:`neighbor_batches` query for the pairs within
        that bound then finds it.
        """
        ecc = self._cell_eccentricities()
        cells, lo, hi = self._cells()
        pad = self._pad
        found = math.inf  # least positive distance computed so far
        bound = math.inf  # and an upper bound on it from the boxes
        for a, rows in enumerate(cells):
            mind, maxd = _box_bounds(lo, hi, a)
            apart = mind - pad > 0  # every distance to such a cell is positive
            if apart.any():
                bound = min(bound, float(maxd[apart].min()) + pad)
            if maxd[a] > 0:  # else every point of the cell coincides
                for rs, cs in _blocks(len(rows), len(rows)):
                    d = self._pair_dists(rows[rs, None], rows[None, cs])
                    found = min(found, np.min(d, where=d > 0, initial=math.inf))
        # the least positive distance is among the pairs at most the bound apart
        reach = np.nextafter(min(bound, found), math.inf)
        for *_, d in self.neighbor_batches(np.arange(len(self)), reach):
            found = min(found, np.min(d, where=d > 0, initial=math.inf))
        return ecc, float(found)

    def _cell_sums(self, radii: list[float]) -> np.ndarray:
        """``sums[c, i, k]``: the level-``k`` parts of the points closer
        than ``radii[c]`` to point ``i``, summed from the cells.

        For a query cell A, a cell B inside a radius (upper bound below
        it) adds its own level sums to every point of A, and a cell
        outside it (lower bound at or above it) adds nothing.  A cell
        that straddles some radius is computed once against A, and each
        radius it straddles adds the parts of its columns with
        ``d < r``.
        """
        cells, lo, hi = self._cells()
        pad, parts = self._pad, self._parts
        order, first, sizes, _ = self._cell_layout()
        cell_sums = np.add.reduceat(parts[order], first)
        radii_arr = np.array(radii)
        sums = np.empty((len(radii), len(self), parts.shape[1]))
        for a, rows in enumerate(cells):
            mind, maxd = _box_bounds(lo, hi, a)
            inside = maxd[:, None] + pad < radii_arr  # (cell, radius)
            straddle = ~inside & (mind[:, None] - pad < radii_arr)
            sums[:, rows] = (inside.T @ cell_sums)[:, None]
            open_ = np.flatnonzero(straddle.any(axis=1))
            if not len(open_):
                continue
            cols = np.concatenate([cells[b] for b in open_])
            col_parts = parts[cols]
            # per radius, the block columns of the cells straddling it
            masks = np.repeat(straddle[open_], sizes[open_], axis=0).T
            for rs, cs in _blocks(len(rows), len(cols)):
                d = self._pair_dists(rows[rs, None], cols[None, cs])
                for c, r in enumerate(radii):
                    keep = masks[c, cs]
                    near = np.compress(keep, d, axis=1) < r
                    sums[c, rows[rs]] += near @ col_parts[cs][keep]
        return sums


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


def _box_bounds(lo, hi, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Per box: the least and the largest distance between a point of
    box ``a`` and a point of that box, up to rounding.  The largest is
    the least with the ends of every box swapped."""
    return _gaps(lo, hi, lo[a], hi[a]), _gaps(hi, lo, hi[a], lo[a])


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
    chosen: list[Ball] = []
    while np.any(uncovered):
        p_unc = np.where(uncovered[:, None], parts, 0.0)
        best_gain = 0.0
        best_c = -1
        best_r = radii[0]
        for r in radii:  # ascending: strict > keeps the smallest tied radius
            gains = _add_levels((sub < r) @ p_unc) / r
            c = int(np.argmax(gains))  # first (smallest id) among equal gains
            if gains[c] > best_gain:
                best_gain = float(gains[c])
                best_c = c
                best_r = r
        if best_gain <= 0.0:
            # Only zero-weight points remain; cover them at the floor radius.
            for c in np.flatnonzero(uncovered):
                if uncovered[c]:
                    chosen.append(Ball(center=members[int(c)], radius=r_min))
                    uncovered[sub[int(c)] < r_min] = False
                    uncovered[int(c)] = False
            break
        chosen.append(Ball(center=members[best_c], radius=best_r))
        uncovered[sub[best_c] < best_r] = False
        uncovered[best_c] = False  # the center itself is always at distance 0

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
    dim = space.coords.shape[1]
    with _open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"x{k + 1}" for k in range(dim)] + ["weight"])
        for pid, xs, w in zip(space.ids, space.coords, space.weights):
            writer.writerow([pid] + [repr(float(v)) for v in xs] + [repr(float(w))])


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


def load_matrix(matrix_path: str, weights_path: str) -> MetricMeasureSpace:
    """Explicit metric: square distance CSV plus an ``id,weight`` CSV."""
    ids, _, weights = _read_points(weights_path, axes=0)
    with _open(matrix_path) as fh:
        try:
            matrix = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
        except ValueError as exc:
            raise InputError(f"{matrix_path}: {exc}") from None
    return MetricMeasureSpace.from_matrix(ids, matrix, np.array(weights))
