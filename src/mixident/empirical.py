"""Empirical CDFs of planar samples and the scaled uniform-distance statistic.

The statistic of interest is sqrt(n) * sup_x |F_n(x) - G(x)| over lower
orthants.  When both the value and the lower limit of the empirical CDF
are examined, the supremum over the plane is attained on the (n+1)^2
lattice of sample coordinates with +inf appended to each axis: a cell
with no sample above it or to its right reaches its supremum at
(x_(i), +inf) or (+inf, y_(j)).  The evaluation grid is m of the n^2
finite corners, drawn uniformly without replacement (``build_eval_grid``).
The corners miss those marginal terms, so corner grids, thinned or not,
give lower bounds of the exact statistic.  Everything here reduces to
dominance counts: how many sample points are componentwise below a query,
weakly or strictly.

Counting is exact at the integer level.  A count sorts the sample once
per axis, so each point has an x rank and a y rank, and finds each
query's cuts kx = #{x <= qx} and ky = #{y <= qy} and the strict cuts
#{x < qx} and #{y < qy}.  An axis is sorted as int64 keys that order as
the values do, with each value's index in the low bits, so one sort
gives the order; an axis whose keys collide above the index bits (a tie,
or values a few ulp apart) is argsorted instead.  The sample ranks fall
into coarse cells of S x S ranks and one 2-D prefix sum over the
(N/S + 1)^2 table of cell counts counts each query's full cells.  What
remains of a weak count lies in two strips of at most S ranks: the x
ranks from the query's cell edge up to kx whose y rank is below ky, and
the y ranks from its cell edge up to ky whose x rank is left of the
first strip.  S balances the table against the strips of M queries over
N points, S^3 ~ N^2 / M, within isqrt(N) // 2 <= S <= 2 isqrt(N), so
the table and the strips' mask hold at most about 4N entries each
(``_strip_width``).  The strips are gathered as (queries x S) arrays in
chunks of a fixed number of entries.  The strict counts need no table:
strict = weak - #{x = qx, y <= qy} - #{x < qx, y = qy} for every tie
pattern, and the two tie-group terms take a gather per query, or one
search per query into an O(N) key array when the axis has ties.  A count costs O(N log N + M S) time, plus O(M log N)
to search arbitrary queries' cuts, and O(N + M) memory; results match
naive O(N M) counting exactly.

There are two ways to make the cuts and one count after them.
``EmpiricalCdf.dominance_counts`` takes arbitrary queries and searches
the sorted axes for their cuts.  The replication engine counts corners
(``_corner_counts``): a corner (x_i, y_j) has kx at the end of x_i's tie
group in x-rank order and ky likewise, so its cuts are read from the
ranks of points i and j.  It also draws and counts several samples at
once: up to ``laws._SLICE_POINTS`` points of R consecutive replications
are drawn as one array and transformed as A @ e^T straight into one
contiguous (R, n) block of rows per axis (``_draw_rows``;
``draw_sample`` is a stack of one), and form one stacked sample keyed by
(replication, coordinate), each replication's ranks offset by r n, so
every point of an earlier replication lies strictly below and left of
every corner of replication r and its counts are the stack's minus r n.
Tie groups stop at replication boundaries.

One path leads from counts to the statistic: ``_Candidates`` holds a
(reps, m) stack of counts, the corners at which the target is needed
(all of them, or those a bracket of the target leaves able to attain a
maximum) and, given the target there, each replication's statistic.
``sup_stat`` is a stack of one; the replication loop that draws, grids
and counts many samples against one target, ``mixident.montecarlo``
(``_run_task``), evaluates the target once on the kept corners of a
task's blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .laws import (
    _SLICE_POINTS,
    CENTERED_EXPONENTIAL,
    STANDARD_NORMAL,
    ComponentLaw,
    ContaminatedLaw,
    RngStream,
)
from .pushforward import as_matrix


@dataclass(frozen=True, eq=False)
class Sample2D:
    """n planar observations."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError(f"points must have shape (n >= 1, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def draw_sample(
    m,
    beta: float,
    n: int,
    rng,
    xi: ComponentLaw = CENTERED_EXPONENTIAL,
    zeta: ComponentLaw = STANDARD_NORMAL,
) -> Sample2D:
    """n i.i.d. draws of A e with coordinates i.i.d. beta*xi + (1-beta)*zeta:
    a stack of one (``_draw_rows``).

    ``rng`` is either a reproducible stream or a bare numpy Generator.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return Sample2D(_draw_rows(m, ContaminatedLaw(beta, xi, zeta), n, [gen])[:, 0].T)


def _draw_rows(m, law: ContaminatedLaw, n: int, gens) -> np.ndarray:
    """A stack of R = len(gens) samples of n draws of A e, e's coordinates
    i.i.d. ``law``, sample r drawn by gens[r]; shape (2, R, n), so each
    axis is one contiguous (R, n) block of rows, as ``_StackRanks`` reads
    them.

    The stack is drawn as one array (``ContaminatedLaw._sample_stack``)
    and transformed as one: A @ e^T, a single (2, 2) @ (2, R n) product
    whose column block r is sample r.  A sample's bits therefore stay
    independent of R and of its place in the stack, and so of the stack
    sizes that worker counts lead to, only if the BLAS product rounds
    every column alike, its tail columns included.  That is assumed, not
    enforced: the tests check it (each sample equals its own e @ A^T bit
    for bit from n = 2 on, at mixed R and positions, and a sample drawn
    first and last in one stack gives the same bytes), and so do the
    pinned digests at one and two workers.  A one-point sample's product
    takes numpy's vector route, whose rounding the stacked product does
    not share, so at n = 1 each sample is transformed as e @ A^T.  A
    non-finite coordinate raises ``ValueError``.
    """
    eps = law._sample_stack(gens, (n, 2))
    a = as_matrix(m).as_array()
    rows = a @ eps.reshape(-1, 2).T if n > 1 else np.concatenate([e @ a.T for e in eps]).T
    if not np.all(np.isfinite(rows)):
        raise ValueError("sample coordinates must be finite")
    return rows.reshape(2, len(gens), n)


_STRIP_CHUNK = 1 << 16  # strip elements gathered per chunk of queries
# the cost of one table cell against one strip entry of a query, as
# _strip_width balances them (fitted on stacks of 3000 to 50 000 points)
_CELL_COST = 5


def _strip_width(n: int, m: int) -> int:
    """Side S, in ranks, of the count's coarse cells for m queries over n
    points.  The table of about (n / S)^2 cells and the queries' strips of
    at most S ranks each cost about the same where S^3 = c n^2 / m, with
    c = ``_CELL_COST``.  S lies between isqrt(n) // 2 and 2 isqrt(n), so
    the table holds at most about 4n cells and the strips' (S + 1) x S
    mask at most about 4n entries.  No query counts as one."""
    root = math.isqrt(n)
    balanced = round((_CELL_COST * n * n / max(m, 1)) ** (1 / 3))
    return max(4, root // 2, min(balanced, 2 * root))


class _TieGroups(NamedTuple):
    """Runs of equal values on one sorted axis of a stack.

    The group of sorted position k holds the positions [start[k], end[k]).
    Each point's key is start * (N + 1) + (its rank on the other axis);
    sorted, the keys below l * (N + 1) are the l points before the group
    that starts at l, so one search counts a group's points below a cut.
    """

    start: np.ndarray
    end: np.ndarray
    keys: np.ndarray


def _row_orders(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """The sorting permutation of each row of ``values`` (R, n), and
    whether a row may hold ties.

    Each value becomes an int64 key that sorts as the value does (-0.0
    folded into +0.0, then the sign-magnitude bits of the float made two's
    complement), with its low b = bit_length(n - 1) bits replaced by the
    value's index in its row, so one sort of the keys orders every row and
    the low bits read the order back.  A row in which two keys agree above
    the index bits holds a tie or a near-tie that clearing the bits made
    one, and is sorted by ``np.argsort`` instead.
    """
    n = values.shape[1]
    b = (n - 1).bit_length()
    low = (1 << b) - 1
    keys = (values + 0.0).view(np.int64)  # -0.0 + 0.0 is +0.0
    keys ^= (keys >> 63) & np.int64(2**63 - 1)
    keys &= ~low
    keys |= np.arange(n)
    keys.sort(axis=1)
    high = keys >> b
    tied = np.any(high[:, 1:] == high[:, :-1], axis=1)
    order = keys & low
    may_tie = bool(tied.any())
    if may_tie:
        order[tied] = np.argsort(values[tied], axis=1)
    return order, may_tie


class _StackRanks:
    """Ranks of R samples of n points each, stacked as one sample of
    N = R n points keyed by (replication, coordinate).

    Each replication's axes are sorted on their own (``_row_orders``) and
    its ranks offset by r n, so replication r holds the ranks
    [r n, (r + 1) n) on both axes: every point of an earlier replication
    lies strictly below and left of every query of replication r, and no
    point of a later one does.  Tie groups, runs of equal sorted values,
    stop at replication boundaries; an axis whose rows sort as distinct
    keys has none, and is not scanned for them.  Rank arrays are int32
    (intp from 2^31 points).
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        """``xs`` and ``ys`` hold the coordinates, shape (R, n): row r is
        replication r's sample."""
        reps, n = xs.shape
        size = reps * n
        dt = np.int32 if size < 2**31 else np.intp
        ids = np.arange(size, dtype=dt)
        self.n, self.size = n, size
        self.values, self.orders, self.rank, may_tie = (xs, ys), [], [], []
        for values in (xs, ys):
            order, tied = _row_orders(values)
            if reps > 1:
                order += np.arange(0, size, n)[:, None]
            order = order.ravel()
            rank = np.empty(size, dtype=dt)
            rank[order] = ids
            self.orders.append(order)
            may_tie.append(tied)
            self.rank.append(rank)
        # the other axis's rank of each point, listed in this axis's order
        self.other = [self.rank[1][self.orders[0]], self.rank[0][self.orders[1]]]
        self.groups = [
            self._tie_groups(self._sorted(axis), self.other[axis]) if tied else None
            for axis, tied in enumerate(may_tie)
        ]

    def _sorted(self, axis: int) -> np.ndarray:
        """One axis's values in rank order.  Gathered when asked for: only
        tie groups and searched cuts read them."""
        return self.values[axis].ravel()[self.orders[axis]]

    def _tie_groups(self, s: np.ndarray, other: np.ndarray) -> _TieGroups | None:
        """The tie groups of one sorted axis, or None when no group holds
        two points."""
        same = s[1:] == s[:-1]
        same[self.n - 1::self.n] = False
        if not same.any():
            return None
        new = np.concatenate(([True], ~same))
        starts = np.flatnonzero(new)
        group = np.cumsum(new) - 1
        start = starts[group]
        end = np.append(starts[1:], self.size)[group]
        return _TieGroups(start, end, np.sort(start * (self.size + 1) + other))

    def corner_cuts(self, ix: np.ndarray, iy: np.ndarray):
        """Cuts of corner queries (x of point ix, y of point iy), per axis
        (k, l): k is the end of the point's tie group in that axis's rank
        order and l its start, the weak and strict cuts."""
        cuts = []
        for rank, groups, i in zip(self.rank, self.groups, (ix, iy)):
            k = rank[i]
            cuts.append((k + 1, k) if groups is None else (groups.end[k], groups.start[k]))
        return cuts

    def searched_cuts(self, q: np.ndarray):
        """Cuts of arbitrary (m, 2) queries on a stack of one sample, per
        axis (k, l) = (#{s <= v}, #{s < v}), by a search of the sorted axis."""
        cuts = []
        for axis, (groups, v) in enumerate(zip(self.groups, q.T)):
            s = self._sorted(axis)
            k = np.searchsorted(s, v, side="right")
            last = np.maximum(k - 1, 0)
            tied = s[last] == v
            cuts.append((k, k - tied if groups is None else np.where(tied, groups.start[last], k)))
        return cuts

    def counts(self, cuts) -> tuple[np.ndarray, np.ndarray]:
        """(weak, strict) counts over the whole stack for queries with
        ``cuts``; a query of replication r counts the r n earlier points in
        both."""
        (kx, lx), (ky, ly) = cuts
        size = self.size
        ypos, xpos = self.other
        # coarse cells of s x s ranks after a leading zero row and column:
        # table[a, b] counts the points in the cells left of a and below b,
        # the query's full cells
        s = _strip_width(size, kx.size)
        h = size // s + 2
        cells = np.repeat(np.arange(h, h * h, h), s)[:size] + ypos // s + 1
        table = np.bincount(cells, minlength=h * h).reshape(h, h)
        np.cumsum(table, axis=0, out=table)
        np.cumsum(table, axis=1, out=table)
        ax, ay = kx // s, ky // s
        bx = ax * s
        weak = table[ax, ay]
        # the rest lies in two strips: the x ranks [bx, kx) below ky, and the
        # y ranks [s ay, ky) left of bx.  Each is the head of one row of the
        # other axis's ranks cut into rows of s and padded with the sentinel
        # N; tri[d] keeps the first d entries of a row.
        dt = np.min_scalar_type(size)
        rows = np.full((2, h * s), size, dtype=dt)
        rows[:, :size] = ypos, xpos
        yrows, xrows = rows.reshape(2, h, s)
        tri = np.arange(s) < np.arange(s + 1)[:, None]
        chunk = max(1, _STRIP_CHUNK // s)
        for lo in range(0, kx.size, chunk):
            c = slice(lo, lo + chunk)
            in_x = np.take(tri, kx[c] - bx[c], axis=0)
            in_x &= np.take(yrows, ax[c], axis=0) < ky[c, None].astype(dt)
            in_y = np.take(tri, ky[c] - s * ay[c], axis=0)
            in_y &= np.take(xrows, ay[c], axis=0) < bx[c, None].astype(dt)
            weak[c] += (in_x.view(np.uint8) + in_y.view(np.uint8)).sum(1, dtype=np.int64)
        # strict = weak - #{x = qx, y <= qy} - #{x < qx, y = qy}
        return weak, weak - self._on_group(0, lx, kx, ky) - self._on_group(1, ly, ky, lx)

    def _on_group(self, axis: int, lo, hi, other_cut):
        """Points of the tie group at ranks [lo, hi) of ``axis`` (empty
        where lo = hi) whose rank on the other axis is below other_cut."""
        groups = self.groups[axis]
        if groups is None:
            return (lo < hi) & (self.other[axis][np.maximum(hi - 1, 0)] < other_cut)
        keys = lo.astype(np.int64) * (self.size + 1) + other_cut * (lo < hi)
        return np.searchsorted(groups.keys, keys) - lo


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Immutable dominance-count index over one sample.

    Each ``dominance_counts`` call ranks the sample as a stack of one
    (``_StackRanks``), searches its sorted axes for each query's cuts and
    runs the count the module docstring describes.  Construction does no
    work.  Safe for shared concurrent reads.
    """

    sample: Sample2D

    @property
    def n(self) -> int:
        return self.sample.n

    def dominance_counts(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """(weak, strict) integer counts for each query point.

        weak[i]  = #{samples componentwise <= query i}
        strict[i] = #{samples componentwise <  query i}

        A NaN query coordinate raises ``ValueError``; -inf and +inf count
        as below and above every sample.
        """
        q = np.asarray(queries, dtype=float)
        if q.ndim != 2 or q.shape[1] != 2:
            raise ValueError(f"queries must have shape (m, 2), got {q.shape}")
        if np.isnan(q).any():
            raise ValueError("query coordinates must not be NaN")
        ranks = _StackRanks(*self.sample.points.T[:, None])
        return ranks.counts(ranks.searched_cuts(q))


def naive_dominance_counts(points, queries) -> tuple[np.ndarray, np.ndarray]:
    """Reference O(n m) counting; ``EmpiricalCdf`` must match this exactly."""
    p = np.asarray(points, dtype=float)
    q = np.asarray(queries, dtype=float)
    weak = ((p[None, :, 0] <= q[:, 0, None]) & (p[None, :, 1] <= q[:, 1, None])).sum(1)
    strict = ((p[None, :, 0] < q[:, 0, None]) & (p[None, :, 1] < q[:, 1, None])).sum(1)
    return weak.astype(np.int64), strict.astype(np.int64)


# ---------------------------------------------------------------------------
# evaluation grids


def _whole_numbers(values) -> tuple[int, ...]:
    """Counts, sizes and seeds as ints; a non-integral entry raises
    ``ValueError``."""
    bad = [v for v in values if not float(v).is_integer()]
    if bad:
        raise ValueError(f"expected whole numbers, got {', '.join(map(repr, bad))}")
    return tuple(int(v) for v in values)


def _whole_fields(obj, *names: str) -> None:
    """Make the named fields of frozen dataclass ``obj`` ints, by
    ``_whole_numbers``; the error names the field."""
    for name in names:
        try:
            (value,) = _whole_numbers((getattr(obj, name),))
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None
        object.__setattr__(obj, name, value)


# the one evaluation grid, as the grid_mode column of the result CSVs records it
GRID_MODE = "corner-subsample"


@dataclass(frozen=True)
class EvalGridSpec:
    """How many of the n^2 corner points the evaluation grid keeps."""

    m_points: int = 1000

    def __post_init__(self):
        _whole_fields(self, "m_points")
        if self.m_points < 1:
            raise ValueError(f"need at least one grid point, got {self.m_points}")


def _check_sample_size(spec: EvalGridSpec, n: int) -> None:
    """Raise ``ValueError`` unless 1 <= n and the grid ``spec`` keeps at
    most the n^2 corners of a sample of n points."""
    if n < 1:
        raise ValueError(f"need a sample of n >= 1 points, got {n}")
    if spec.m_points > n * n:
        raise ValueError(
            f"corner subsample of {spec.m_points} exceeds the {n * n} corners of n = {n}"
        )


def _corner_indices(n: int, spec: EvalGridSpec, rng: np.random.Generator) -> np.ndarray:
    """Flat indices i n + j of spec.m_points corners (x_i^(1), x_j^(2)) of a
    sample of n points, drawn by ``rng`` uniformly without replacement from
    the n^2."""
    _check_sample_size(spec, n)
    return rng.choice(n * n, spec.m_points, replace=False)


def build_eval_grid(sample: Sample2D, spec: EvalGridSpec, rng: np.random.Generator) -> np.ndarray:
    """m_points corner pairs (x_i^(1), x_j^(2)) of ``sample``, drawn by
    ``rng`` uniformly without replacement from the n^2."""
    i, j = np.divmod(_corner_indices(sample.n, spec, rng), sample.n)
    return np.column_stack([sample.points[i, 0], sample.points[j, 1]])


def _stack_slices(count: int, n: int) -> list[slice]:
    """The stacks of ``count`` consecutive samples of n points: runs of up
    to ``laws._SLICE_POINTS`` points in all, and at least one sample."""
    per_stack = max(1, _SLICE_POINTS // n)
    return [slice(lo, lo + per_stack) for lo in range(0, count, per_stack)]


def _replication_stacks(m, law: ContaminatedLaw, n: int, spec: EvalGridSpec, root, indices):
    """Samples and corner indices of replications ``indices`` of ``root``,
    a stack (``_stack_slices``) at a time.

    Replication r draws n points of A e, e's coordinates i.i.d. ``law``,
    from ``root.child(r, 0)`` and the corner indices of ``spec`` from
    ``root.child(r, 1)``.  Each stack is drawn as one array
    (``_draw_rows``).  Yields, per stack, its (R, n) x and y coordinate
    rows and its (R, m) flat corner indices.
    """
    for stack in _stack_slices(len(indices), n):
        reps = indices[stack]
        xs, ys = _draw_rows(m, law, n, [root.child(r, 0).generator() for r in reps])
        flat = np.stack([_corner_indices(n, spec, root.child(r, 1).generator()) for r in reps])
        yield xs, ys, flat


def _corner_counts(stacks, n: int):
    """Corners of R samples and their dominance counts, counted a stack at
    a time.

    ``stacks`` yields, for each stack of consecutive samples of n points,
    its (R_k, n) x and y coordinate rows and the (R_k, m) corner indices
    i n + j that ``_corner_indices`` drew for each of its samples, as
    ``_replication_stacks`` does.  Returns the (R m, 2) corners
    (x_i^(1), x_j^(2)) in sample order and the (R, m) weak and strict
    counts of each corner in its own sample.  Each stack is counted as one
    stacked sample (``_StackRanks``), and each corner's cuts come from the
    ranks of its points i and j, so no query is searched.
    """
    corners, weak, strict = [], [], []
    for xs, ys, flat in stacks:
        base = np.arange(0, xs.size, n)[:, None]
        i, j = np.divmod(flat, n)
        ix, iy = (i + base).ravel(), (j + base).ravel()
        ranks = _StackRanks(xs, ys)
        w, s = ranks.counts(ranks.corner_cuts(ix, iy))
        corners.append(np.column_stack([xs.ravel()[ix], ys.ravel()[iy]]))
        weak.append(w.reshape(len(xs), -1) - base)
        strict.append(s.reshape(len(xs), -1) - base)
    return np.concatenate(corners), np.concatenate(weak), np.concatenate(strict)


# ---------------------------------------------------------------------------
# the scaled uniform-distance statistic


class _Candidates:
    """The corners of a (reps, m) stack of counts at which the target G
    must be evaluated to find each replication's statistic, sqrt(n) times
    the maximum over its corners of max(|weak/n - G|, |strict/n - G|).

    Without a ``bracket`` every corner is kept (``at`` is a full slice, so
    the corners are a view).  With bounds lo <= G <= hi at each corner, a
    corner's deviation is at least its distance from weak/n and strict/n
    to [lo, hi], and at most the larger of weak/n - lo and hi - strict/n.
    A replication's statistic is at least the largest of the former, its
    floor, so only the corners whose bound reaches the floor can attain
    it: they are kept, with their flat indices ``at``, and the maximum over
    them is the maximum over all corners.  A non-finite bound raises
    ``ValueError``.
    """

    def __init__(self, weak, strict, n: int, corners, bracket=None):
        fw, fs = weak / n, strict / n
        self.at, self.lo, self.hi = slice(None), None, None
        if bracket is not None:
            lo, hi = (b.reshape(weak.shape) for b in bracket)
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ValueError("target CDF bracket has non-finite values")
            floor = np.max(np.maximum(lo - fs, fw - hi), axis=1, keepdims=True)
            self.at = np.flatnonzero(np.maximum(fw - lo, hi - fs) >= floor)
            self.lo, self.hi = lo.ravel()[self.at], hi.ravel()[self.at]
        self.corners = corners[self.at]
        self.fw, self.fs = fw.ravel()[self.at], fs.ravel()[self.at]
        self.n, self.shape = n, weak.shape

    def sup(self, g) -> np.ndarray | None:
        """Each replication's statistic from the target's values ``g`` at
        the kept corners; None if a value leaves its bracket.  A
        non-finite value raises ``ValueError``."""
        if not np.all(np.isfinite(g)):
            raise ValueError("target CDF returned non-finite values")
        if self.lo is not None and (np.any(g < self.lo) or np.any(g > self.hi)):
            return None
        dev = np.full(self.shape, -np.inf)
        dev.flat[self.at] = np.maximum(np.abs(self.fw - g), np.abs(self.fs - g))
        return math.sqrt(self.n) * np.max(dev, axis=-1)


def sup_stat(sample: Sample2D, target_cdf, grid) -> float:
    """sqrt(n) * max over grid of the two-sided empirical deviation.

    At each grid point both the empirical CDF value and its lower limit
    (strict dominance fraction) are compared against the target, since
    the supremum over the plane needs the lower side of each jump.  A grid
    inside the (n+1)^2 lattice of sample coordinates and +inf, such as the
    n^2 corners or a thinning of them, gives a lower bound of the exact
    statistic.

    ``target_cdf`` maps an (m, 2) point array to m probabilities; a
    non-finite probability raises ``ValueError``.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2 or g.shape[1] != 2 or g.shape[0] == 0:
        raise ValueError(f"grid must have shape (m >= 1, 2), got {g.shape}")
    ecdf = EmpiricalCdf(sample)
    weak, strict = ecdf.dominance_counts(g)
    target = np.asarray(target_cdf(g), dtype=float)
    if target.shape != (g.shape[0],):
        raise ValueError("target_cdf must return one probability per grid point")
    return float(_Candidates(weak[None], strict[None], sample.n, g).sup(target)[0])

