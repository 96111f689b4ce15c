"""Empirical CDFs of planar samples and the scaled uniform-distance statistic.

The statistic of interest is sqrt(n) * sup_x |F_n(x) - G(x)| over lower
orthants.  The exact supremum over the plane is attained at sample-corner
points when both the value and the lower limit of the empirical CDF are
examined, so everything here reduces to dominance counts: how many sample
points are componentwise below a query, weakly or strictly.

Counting is exact at the integer level.  Queries are taken in blocks of at
most B = 512.  Per block, the distinct query coordinates cut each axis into
at most B + 1 cells; every sample point is bucketed into its cell once per
axis, and a 2-D prefix sum over the (B + 1)^2 cell counts gives all the
block's weak and strict counts.  M queries against n points cost
O(ceil(M / B) * (n log B + B^2)) time and O(n + B^2) memory, about 4 MB of
tables, whatever M is; results match naive O(n M) counting exactly.
"""

from __future__ import annotations

import enum
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
from .pushforward import as_matrix, mixture_cdf_batch


@dataclass(frozen=True, eq=False)
class Sample2D:
    """n planar observations plus provenance of how they were drawn."""

    points: np.ndarray
    matrix: object = None
    beta: float | None = None
    seed_path: tuple[int, ...] | None = None

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

    ``rng`` is either a reproducible stream (its path is recorded as
    provenance) or a bare numpy Generator.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    m = as_matrix(m)
    if isinstance(rng, RngStream):
        path = rng.path
        gen = rng.generator()
    else:
        path = None
        gen = rng
    eps = ContaminatedLaw(beta, xi, zeta).sample(gen, (n, 2))
    pts = eps @ m.as_array().T
    return Sample2D(pts, matrix=m, beta=beta, seed_path=path)


# queries per block of the count: two (_QUERY_BLOCK + 1)^2 int64 prefix tables,
# about 4 MB together, whatever the number of queries
_QUERY_BLOCK = 512


def _block_counts(
    px: np.ndarray, py: np.ndarray, qx: np.ndarray, qy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weak and strict dominance counts of one block of queries.

    Per axis, each sample point falls in the cell of the first distinct
    query coordinate at or above it (weak table) or strictly above it
    (strict table); after a 2-D prefix sum, cell (a, b) counts the points
    dominated by the query coordinates (ux[a], uy[b]).
    """
    ux, qa = np.unique(qx, return_inverse=True)
    uy, qb = np.unique(qy, return_inverse=True)
    lo_x = np.searchsorted(ux, px, side="left")
    lo_y = np.searchsorted(uy, py, side="left")
    # side="right" rank: one past lo exactly when the coordinate is a query value
    hi_x = lo_x + (ux[np.minimum(lo_x, ux.size - 1)] == px)
    hi_y = lo_y + (uy[np.minimum(lo_y, uy.size - 1)] == py)
    shape = (ux.size + 1, uy.size + 1)
    counts = []
    for rx, ry in ((lo_x, lo_y), (hi_x, hi_y)):
        table = np.bincount(rx * shape[1] + ry, minlength=shape[0] * shape[1]).reshape(shape)
        np.cumsum(table, axis=0, out=table)
        np.cumsum(table, axis=1, out=table)
        counts.append(table[qa, qb])
    return counts[0], counts[1]


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Immutable dominance-count index over one sample.

    Queries are answered in blocks of ``_QUERY_BLOCK``: each block costs
    O(n log B + B^2) for B distinct query coordinates per axis, and its
    count tables take O(B^2) memory, bounded whatever the number of
    queries.  Construction does no work.  Safe for shared concurrent reads.
    """

    sample: Sample2D

    @property
    def n(self) -> int:
        return self.sample.n

    def dominance_counts(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """(weak, strict) integer counts for each query point.

        weak[i]  = #{samples componentwise <= query i}
        strict[i] = #{samples componentwise <  query i}
        """
        q = np.asarray(queries, dtype=float)
        if q.ndim != 2 or q.shape[1] != 2:
            raise ValueError(f"queries must have shape (m, 2), got {q.shape}")
        px = self.sample.points[:, 0]
        py = self.sample.points[:, 1]
        weak = np.empty(q.shape[0], dtype=np.int64)
        strict = np.empty(q.shape[0], dtype=np.int64)
        for lo in range(0, q.shape[0], _QUERY_BLOCK):
            block = slice(lo, lo + _QUERY_BLOCK)
            weak[block], strict[block] = _block_counts(px, py, q[block, 0], q[block, 1])
        return weak, strict

    def eval_batch(self, queries) -> np.ndarray:
        weak, _ = self.dominance_counts(queries)
        return weak / self.n


def ecdf_eval_batch(ecdf: EmpiricalCdf, grid) -> np.ndarray:
    """Empirical CDF values (weak dominance fraction) at each grid point."""
    return ecdf.eval_batch(grid)


def naive_dominance_counts(points, queries) -> tuple[np.ndarray, np.ndarray]:
    """Reference O(n m) counting; the blocked count must match this exactly."""
    p = np.asarray(points, dtype=float)
    q = np.asarray(queries, dtype=float)
    weak = ((p[None, :, 0] <= q[:, 0, None]) & (p[None, :, 1] <= q[:, 1, None])).sum(1)
    strict = ((p[None, :, 0] < q[:, 0, None]) & (p[None, :, 1] < q[:, 1, None])).sum(1)
    return weak.astype(np.int64), strict.astype(np.int64)


# ---------------------------------------------------------------------------
# evaluation grids


class GridMode(enum.Enum):
    CORNER_SUBSAMPLE = "corner-subsample"
    QUANTILE_TENSOR = "quantile-tensor"


@dataclass(frozen=True)
class EvalGridSpec:
    """How to thin the n^2 corner points down to a tractable grid."""

    mode: GridMode = GridMode.CORNER_SUBSAMPLE
    m_points: int = 1000

    def __post_init__(self):
        if isinstance(self.mode, str):
            object.__setattr__(self, "mode", GridMode(self.mode))
        if self.m_points < 1:
            raise ValueError(f"need at least one grid point, got {self.m_points}")


def corner_grid(sample: Sample2D) -> np.ndarray:
    """All n^2 corner pairs (x_i^(1), x_j^(2)); exact but quadratic."""
    xs = sample.points[:, 0]
    ys = sample.points[:, 1]
    g1, g2 = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


def build_eval_grid(
    sample: Sample2D,
    spec: EvalGridSpec,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Materialize the evaluation grid described by ``spec``.

    Corner subsampling draws m_points uniformly without replacement from
    the n^2 corner pairs and needs ``rng``; the quantile tensor mode is
    deterministic, pairing ceil(sqrt(m))^2 marginal sample quantiles at
    levels (j - 1/2)/m_side.
    """
    n = sample.n
    if spec.mode is GridMode.CORNER_SUBSAMPLE:
        total = n * n
        if spec.m_points > total:
            raise ValueError(
                f"corner subsample of {spec.m_points} exceeds the {total} corners"
            )
        if rng is None:
            raise ValueError("corner subsampling needs an rng")
        flat = rng.choice(total, spec.m_points, replace=False)
        i = flat // n
        j = flat % n
        return np.column_stack([sample.points[i, 0], sample.points[j, 1]])
    m_side = math.isqrt(spec.m_points)
    if m_side * m_side < spec.m_points:
        m_side += 1
    levels = (np.arange(1, m_side + 1) - 0.5) / m_side
    q1 = np.quantile(sample.points[:, 0], levels)
    q2 = np.quantile(sample.points[:, 1], levels)
    g1, g2 = np.meshgrid(q1, q2, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


# ---------------------------------------------------------------------------
# the scaled uniform-distance statistic


def sup_stat(sample: Sample2D, target_cdf, grid) -> float:
    """sqrt(n) * max over grid of the two-sided empirical deviation.

    At each grid point both the empirical CDF value and its lower limit
    (strict dominance fraction) are compared against the target, since
    the exact supremum over the plane needs the lower side of each jump.
    Thinned grids give a lower bound of the exact statistic.

    ``target_cdf`` maps an (m, 2) point array to m probabilities.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2 or g.shape[1] != 2 or g.shape[0] == 0:
        raise ValueError(f"grid must have shape (m >= 1, 2), got {g.shape}")
    ecdf = EmpiricalCdf(sample)
    weak, strict = ecdf.dominance_counts(g)
    n = sample.n
    target = np.asarray(target_cdf(g), dtype=float)
    if target.shape != (g.shape[0],):
        raise ValueError("target_cdf must return one probability per grid point")
    dev = np.maximum(np.abs(weak / n - target), np.abs(strict / n - target))
    return math.sqrt(n) * float(np.max(dev))


def replication_statistic(
    m_sample, m_target, beta: float, n: int, grid_spec: EvalGridSpec, stream: RngStream,
    xi: ComponentLaw = CENTERED_EXPONENTIAL, zeta: ComponentLaw = STANDARD_NORMAL,
) -> float:
    """Statistic of n draws from m_sample at level beta against m_target's
    mixture CDF; the draws use stream.child(0), the grid stream.child(1)."""
    sample = draw_sample(m_sample, beta, n, stream.child(0), xi=xi, zeta=zeta)
    grid = build_eval_grid(sample, grid_spec, stream.child(1).generator())
    return sup_stat(sample, lambda pts: mixture_cdf_batch(m_target, beta, pts, xi, zeta), grid)
