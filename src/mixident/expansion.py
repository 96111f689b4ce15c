"""Polynomial structure of the contaminated pushforward CDF.

With coordinates i.i.d. ``beta * xi + (1 - beta) * zeta``, the orthant
probability P(A e <= x) is an exact degree-2 polynomial in beta.  This
module evaluates the coefficient fields of that polynomial, the pairwise
difference of the first-order fields for two mixing matrices, and
uniform-norm estimates of such fields on finite grids.

Every coefficient field is a fixed weight vector (``GAMMA_WEIGHTS``) over
the four pure-assignment CDF rows of ``pushforward.PureFields``, the rows
the mixture itself combines with binomial weights.

Coefficients are normalized by the uniform-norm distance between the
contaminant and the background, so the first-order field is O(1) and the
small-contamination divergence rate of two mixtures reads off directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .laws import (
    CENTERED_EXPONENTIAL,
    STANDARD_NORMAL,
    ComponentLaw,
    kolmogorov_distance_univ,
)
from .pushforward import PureFields, mixture_cdf_batch

P_DIM = 2  # the analytic engine is two-dimensional throughout


@dataclass(frozen=True)
class NuMeasure:
    """Normalized signed difference between contaminant and background.

    The raw difference of the two CDFs is rescaled by its uniform norm
    ``norm_c``, so the resulting signed measure has uniform norm one.
    """

    xi: ComponentLaw = CENTERED_EXPONENTIAL
    zeta: ComponentLaw = STANDARD_NORMAL
    norm_c: float = field(default=0.0)

    def __post_init__(self):
        if self.xi == self.zeta:
            raise ValueError("contaminant and background must differ")
        if self.norm_c == 0.0:
            object.__setattr__(
                self, "norm_c", kolmogorov_distance_univ(self.xi, self.zeta)
            )
        if not self.norm_c > 0.0:
            raise ValueError("norm_c must be positive")

    def nu_cdf(self, t: float) -> float:
        return (self.xi.cdf(t) - self.zeta.cdf(t)) / self.norm_c

    def nu_cdf_batch(self, t: np.ndarray) -> np.ndarray:
        return (self.xi.cdf_batch(t) - self.zeta.cdf_batch(t)) / self.norm_c


DEFAULT_MEASURE = NuMeasure()


@dataclass(frozen=True, eq=False)
class EvalGrid:
    """Finite set of evaluation points in the plane, shape (n, 2)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError(f"points must have shape (n >= 1, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        object.__setattr__(self, "points", pts)

    @classmethod
    def tensor(cls, lo: float = -6.0, hi: float = 6.0, n: int = 101) -> "EvalGrid":
        axis = np.linspace(lo, hi, n)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        return cls(np.column_stack([g1.ravel(), g2.ravel()]))

    def __len__(self) -> int:
        return self.points.shape[0]


# Rows NN, EN, NE, EE (pushforward.ASSIGNMENTS) of the beta^k coefficient:
# F_beta = (1-beta)^2 F_NN + beta (1-beta) (F_EN + F_NE) + beta^2 F_EE.
GAMMA_WEIGHTS = ((1, 0, 0, 0), (-2, 1, 1, 0), (1, -1, -1, 1))


def gamma_from_fields(fields: PureFields, k: int, measure: NuMeasure = DEFAULT_MEASURE):
    """Order-k coefficient field, the beta^k coefficient of the mixture CDF
    over norm_c**k, from pure rows built on measure.xi and measure.zeta."""
    if not 0 <= k <= P_DIM:
        raise ValueError(f"order must lie in [0, {P_DIM}], got {k}")
    return fields.combine(GAMMA_WEIGHTS[k]) / measure.norm_c**k


def gamma_k_batch(m, k: int, points, measure: NuMeasure = DEFAULT_MEASURE) -> np.ndarray:
    """Order-k expansion coefficient field over an (n, 2) point array."""
    return gamma_from_fields(PureFields(m, points, measure.xi, measure.zeta), k, measure)


def gamma_k_at(m, k: int, x, measure: NuMeasure = DEFAULT_MEASURE) -> float:
    """Order-k expansion coefficient field at a single point."""
    return float(gamma_k_batch(m, k, [x], measure)[0])


def polynomial_reconstruct(m, beta: float, x, measure: NuMeasure = DEFAULT_MEASURE) -> float:
    """Rebuild the mixture CDF from the expansion coefficients.

    Evaluates sum_k beta^k * norm_c^k * coefficient_k(x).  Must agree
    with the direct mixture evaluation; the two share the pure rows but
    combine them with different weights.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    fields = PureFields(m, [x], measure.xi, measure.zeta)
    c = measure.norm_c
    return float(
        sum(beta**k * c**k * gamma_from_fields(fields, k, measure) for k in range(P_DIM + 1))[0]
    )


def gamma_diff_at(m_a, m_b, x, measure: NuMeasure = DEFAULT_MEASURE) -> float:
    """First-order coefficient gap between two mixing matrices at x."""
    return gamma_k_at(m_a, 1, x, measure) - gamma_k_at(m_b, 1, x, measure)


def gamma_diff_batch(m_a, m_b, points, measure: NuMeasure = DEFAULT_MEASURE) -> np.ndarray:
    return gamma_k_batch(m_a, 1, points, measure) - gamma_k_batch(m_b, 1, points, measure)


def sup_on_grid(values) -> float:
    """Max absolute value over a finite evaluation; lower bound of the sup."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty grid")
    return float(np.max(np.abs(v)))


def grid_argmax(values, grid: EvalGrid) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.size != len(grid):
        raise ValueError("values and grid length differ")
    return grid.points[int(np.argmax(np.abs(v)))].copy()


def refine_sup(f, x0, step: float, shrink_tol: float = 1e-3, max_iter: int = 200):
    """Compass search maximizing |f| from x0; returns (point, value).

    Deterministic pattern search: probe the four axis directions, move to
    the best improvement, halve the step when none improves, stop when
    the step falls below shrink_tol.
    """
    x = np.asarray(x0, dtype=float).copy()
    best = abs(f(x))
    h = float(step)
    for _ in range(max_iter):
        if h < shrink_tol:
            break
        moved = False
        for d in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
            cand = x + d
            val = abs(f(cand))
            if val > best:
                x, best, moved = cand, val, True
                break
        if not moved:
            h *= 0.5
    return x, best


def estimate_sup_gap(
    m_a,
    m_b,
    grid: EvalGrid | None = None,
    measure: NuMeasure = DEFAULT_MEASURE,
    refine: bool = True,
):
    """Grid estimate of sup |first-order gap| with local refinement.

    Returns (sup_value, argmax_point).  The grid scan gives a lower
    bound; compass-search refinement around the argmax tightens it.
    """
    if grid is None:
        grid = EvalGrid.tensor()
    vals = gamma_diff_batch(m_a, m_b, grid.points, measure)
    x0 = grid_argmax(vals, grid)
    best = sup_on_grid(vals)
    if not refine:
        return best, x0
    step = float(np.max(grid.points[1:] - grid.points[:-1])) if len(grid) > 1 else 0.1

    def f(x):
        return gamma_diff_at(m_a, m_b, x, measure)

    x_ref, val = refine_sup(f, x0, step=max(step, 1e-2))
    if val > best:
        return val, x_ref
    return best, x0


def divergence_rate_constant(
    m_a,
    m_b,
    grid: EvalGrid | None = None,
    measure: NuMeasure = DEFAULT_MEASURE,
) -> float:
    """Leading small-contamination rate of sup |F_A - F_B|.

    The mixtures drift apart linearly in the contamination level with
    slope norm_c * sup |first-order gap|; this returns that slope.
    """
    sup, _ = estimate_sup_gap(m_a, m_b, grid, measure)
    return measure.norm_c * sup


def mixture_sup_gap(
    m_a,
    m_b,
    beta: float,
    grid: EvalGrid | None = None,
    xi: ComponentLaw = CENTERED_EXPONENTIAL,
    zeta: ComponentLaw = STANDARD_NORMAL,
) -> float:
    """Grid sup of |F_A - F_B| at contamination level beta."""
    if grid is None:
        grid = EvalGrid.tensor()
    fa = mixture_cdf_batch(m_a, beta, grid.points, xi, zeta)
    fb = mixture_cdf_batch(m_b, beta, grid.points, xi, zeta)
    return sup_on_grid(fa - fb)
