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

Counting is exact at the integer level.  Each count call sorts the n
sample points once per axis and finds each query's cut kx = #{x <= qx}
and ky = #{y <= qy} by a search of the sorted axes.  The sample ranks
fall into coarse cells of S x S ranks, S = max(4, isqrt(n) // 2), and one
2-D prefix sum over the (n/S + 1)^2 table of cell counts, about 4n cells,
counts each query's full cells.  What remains of a weak count lies in two
strips of at most S ranks: the x ranks from the query's cell edge up to
kx whose y rank is below ky, and the y ranks from its cell edge up to ky
whose x rank is left of the first strip.  The strips are gathered as
(queries x S) arrays in chunks of a fixed number of entries.  The strict
counts need no table: strict = weak - #{x = qx, y <= qy} - #{x < qx,
y = qy} for every tie pattern, and the two tie-group terms take a gather
per query, or one search per query into an O(n) key array when the axis
has ties.  A call costs O(n log n + M log n + M sqrt(n)) time and
O(n + M) memory; results match naive O(n M) counting exactly.

The replication loop that draws, grids and counts many samples against
one target lives in ``mixident.montecarlo`` (``_rep_block``), which
evaluates the target CDF once per block of replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import (
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
    """n i.i.d. draws of A e with coordinates i.i.d. beta*xi + (1-beta)*zeta.

    ``rng`` is either a reproducible stream or a bare numpy Generator.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    eps = ContaminatedLaw(beta, xi, zeta).sample(gen, (n, 2))
    return Sample2D(eps @ as_matrix(m).as_array().T)


_STRIP_CHUNK = 1 << 16  # strip elements gathered per chunk of queries


def _strip_width(n: int) -> int:
    """Side S, in ranks, of the count's coarse cells over n points.  A query
    reads two strips of at most S ranks and one entry of a table of about
    (n / S)^2 cells; S = isqrt(n) // 2 keeps the table near 4n cells."""
    return max(4, math.isqrt(n) // 2)


def _tie_groups(
    s: np.ndarray, other: np.ndarray, v: np.ndarray, cut: np.ndarray, other_cut: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Strict cuts #{s < v_i}, and the points with s = v_i whose rank on the
    other axis is below other_cut_i.

    ``s`` is one axis sorted, ``other`` the other axis's rank of each point
    in that order and ``cut`` = #{s <= v_i}.  The points equal to v_i hold
    the ranks [strict cut k, cut).  Without ties that is at most the one
    point at rank cut - 1.  With ties, each point's key is (start rank of
    its tie group) * (n + 1) + (other rank); sorted, the keys below
    k * (n + 1) are the k points before the group, so one search per query
    for k * (n + 1) + other_cut_i counts the group's points below the cut.
    """
    n = s.size
    last = np.maximum(cut - 1, 0)
    tied = s[last] == v
    same = s[1:] == s[:-1]
    if not same.any():
        return cut - tied, tied & (other[last] < other_cut)
    start = np.maximum.accumulate(np.where(np.r_[True, ~same], np.arange(n), 0))
    strict = np.where(tied, start[last], cut)
    keys = np.sort(start * (n + 1) + other)
    return strict, np.searchsorted(keys, strict * (n + 1) + other_cut * tied) - strict


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Immutable dominance-count index over one sample.

    Each ``dominance_counts`` call sorts the sample once per axis and finds
    each query's cut in both sorted axes.  A weak count is one entry of a
    2-D prefix sum over coarse cells of S x S ranks (``_strip_width(n)``,
    about 4n cells) plus two strips of at most S ranks, gathered in chunks
    of ``_STRIP_CHUNK`` entries.  The strict counts need no table:
    strict = weak - #{x = qx, y <= qy} - #{x < qx, y = qy}, and the two
    tie-group terms cost one gather, or one search per query when the axis
    has ties.  A call costs O(n log n + M log n + M sqrt(n)) time and
    O(n + M) memory.  Construction does no work.  Safe for shared
    concurrent reads.
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
        n = self.n
        px, py = self.sample.points.T
        ox = np.argsort(px)
        oy = np.argsort(py)
        sx = px[ox]
        sy = py[oy]
        # rank in y order of each point, listed in x order, and the reverse
        ypos = np.empty(n, dtype=np.intp)
        ypos[oy] = np.arange(n)
        ypos = ypos[ox]
        xpos = np.empty(n, dtype=np.intp)
        xpos[ypos] = np.arange(n)
        qx, qy = q.T
        kx = np.searchsorted(sx, qx, side="right")
        ky = np.searchsorted(sy, qy, side="right")
        # coarse cells of s x s ranks after a leading zero row and column:
        # table[a, b] counts the points in the cells left of a and below b,
        # the query's full cells
        s = _strip_width(n)
        h = n // s + 2
        cells = (np.arange(n) // s + 1) * h + ypos // s + 1
        table = np.bincount(cells, minlength=h * h).reshape(h, h)
        np.cumsum(table, axis=0, out=table)
        np.cumsum(table, axis=1, out=table)
        ax, ay = kx // s, ky // s
        bx = ax * s
        weak = table[ax, ay]
        # the rest lies in two strips: the x ranks [bx, kx) below ky, and the
        # y ranks [s ay, ky) left of bx.  Each is the head of one row of the
        # other axis's ranks cut into rows of s and padded with the sentinel
        # n; tri[d] keeps the first d entries of a row.
        dt = np.min_scalar_type(n)
        rows = np.full((2, h * s), n, dtype=dt)
        rows[:, :n] = ypos, xpos
        yrows, xrows = rows.reshape(2, h, s)
        tri = np.arange(s) < np.arange(s + 1)[:, None]
        size = max(1, _STRIP_CHUNK // s)
        for lo in range(0, q.shape[0], size):
            c = slice(lo, lo + size)
            in_x = np.take(tri, kx[c] - bx[c], axis=0)
            in_x &= np.take(yrows, ax[c], axis=0) < ky[c, None].astype(dt)
            in_y = np.take(tri, ky[c] - s * ay[c], axis=0)
            in_y &= np.take(xrows, ay[c], axis=0) < bx[c, None].astype(dt)
            weak[c] += (in_x.view(np.uint8) + in_y.view(np.uint8)).sum(1, dtype=np.int64)
        strict_x, on_x = _tie_groups(sx, ypos, qx, kx, ky)
        _, on_y = _tie_groups(sy, xpos, qy, ky, strict_x)
        return weak, weak - on_x - on_y


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


def corner_grid(sample: Sample2D) -> np.ndarray:
    """All n^2 corner pairs (x_i^(1), x_j^(2)); quadratic, and not the exact
    set, which adds the +inf row and column of the (n+1)^2 lattice."""
    xs = sample.points[:, 0]
    ys = sample.points[:, 1]
    g1, g2 = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


def build_eval_grid(sample: Sample2D, spec: EvalGridSpec, rng: np.random.Generator) -> np.ndarray:
    """m_points corner pairs (x_i^(1), x_j^(2)) of ``sample``, drawn by
    ``rng`` uniformly without replacement from the n^2."""
    n = sample.n
    _check_sample_size(spec, n)
    flat = rng.choice(n * n, spec.m_points, replace=False)
    return np.column_stack([sample.points[flat // n, 0], sample.points[flat % n, 1]])


# ---------------------------------------------------------------------------
# the scaled uniform-distance statistic


def _scaled_sup(weak: np.ndarray, strict: np.ndarray, n: int, target: np.ndarray) -> float:
    """sqrt(n) * max of |weak/n - target| and |strict/n - target|."""
    if not np.all(np.isfinite(target)):
        raise ValueError("target CDF returned non-finite values")
    dev = np.maximum(np.abs(weak / n - target), np.abs(strict / n - target))
    return math.sqrt(n) * float(np.max(dev))


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
    return _scaled_sup(weak, strict, sample.n, target)

