"""Empirical CDFs of planar samples and the scaled uniform-distance statistic.

The statistic of interest is sqrt(n) * sup_x |F_n(x) - G(x)| over lower
orthants.  The exact supremum over the plane is attained at sample-corner
points when both the value and the lower limit of the empirical CDF are
examined, so everything here reduces to dominance counts: how many sample
points are componentwise below a query, weakly or strictly.

Counting is exact at the integer level.  An offline sweep answers M
queries against n points in O((n + M) log(n + M)) by sorting on the first
coordinate and maintaining a cumulative count structure over ranks of the
second; results match naive O(n M) counting exactly.
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


class _Fenwick:
    """Cumulative counts over ranks 0..size-1."""

    __slots__ = ("tree",)

    def __init__(self, size: int):
        self.tree = [0] * (size + 1)

    def add(self, rank: int) -> None:
        i = rank + 1
        t = self.tree
        n = len(t) - 1
        while i <= n:
            t[i] += 1
            i += i & (-i)

    def prefix(self, count: int) -> int:
        # total over ranks 0..count-1
        s = 0
        t = self.tree
        i = count
        while i > 0:
            s += t[i]
            i -= i & (-i)
        return s


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Immutable dominance-count index over one sample.

    Queries are answered in batches by the offline sweep; construction
    sorts once.  Safe for shared concurrent reads.
    """

    sample: Sample2D

    def __post_init__(self):
        pts = self.sample.points
        order = np.argsort(pts[:, 0], kind="stable")
        ys = np.unique(pts[:, 1])
        object.__setattr__(self, "_x_sorted", pts[order, 0])
        object.__setattr__(self, "_y_ranks", np.searchsorted(ys, pts[order, 1]))
        object.__setattr__(self, "_ys", ys)

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
        m_q = q.shape[0]
        # insertion budget on the first coordinate: how many sorted sample
        # points precede the query, inclusive or exclusive of ties
        k_ins = np.concatenate(
            [
                np.searchsorted(self._x_sorted, q[:, 0], side="right"),
                np.searchsorted(self._x_sorted, q[:, 0], side="left"),
            ]
        )
        r_y = np.concatenate(
            [
                np.searchsorted(self._ys, q[:, 1], side="right"),
                np.searchsorted(self._ys, q[:, 1], side="left"),
            ]
        )
        order = np.argsort(k_ins, kind="stable")
        out = np.zeros(2 * m_q, dtype=np.int64)
        fw = _Fenwick(self._ys.size)
        y_ranks = self._y_ranks
        inserted = 0
        for e in order:
            k = k_ins[e]
            while inserted < k:
                fw.add(int(y_ranks[inserted]))
                inserted += 1
            out[e] = fw.prefix(int(r_y[e]))
        return out[:m_q], out[m_q:]

    def eval_batch(self, queries) -> np.ndarray:
        weak, _ = self.dominance_counts(queries)
        return weak / self.n


def ecdf_eval_batch(ecdf: EmpiricalCdf, grid) -> np.ndarray:
    """Empirical CDF values (weak dominance fraction) at each grid point."""
    return ecdf.eval_batch(grid)


def naive_dominance_counts(points, queries) -> tuple[np.ndarray, np.ndarray]:
    """Reference O(n m) counting; the sweep must match this exactly."""
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


def _sample_pairs_without_replacement(
    total: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    # permutation is exact but O(total); switch to rejection when the
    # index space is large and the draw is sparse
    if total <= 1_000_000:
        return rng.permutation(total)[:m]
    chosen: set[int] = set()
    out = np.empty(m, dtype=np.int64)
    filled = 0
    while filled < m:
        draw = rng.integers(0, total, size=2 * (m - filled))
        for v in draw:
            iv = int(v)
            if iv not in chosen:
                chosen.add(iv)
                out[filled] = iv
                filled += 1
                if filled == m:
                    break
    return out


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
        flat = _sample_pairs_without_replacement(total, spec.m_points, rng)
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
