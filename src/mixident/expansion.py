"""Polynomial structure of the contaminated pushforward CDF.

With coordinates i.i.d. ``beta * xi + (1 - beta) * zeta``, the orthant
probability P(A e <= x) is an exact degree-2 polynomial in beta.  This
module evaluates the coefficient fields of that polynomial and two grid
sups for a pair of mixing matrices: the mixture gap sup |F_A - F_B| at a
level, and its small-level slope K (``estimate_K``), norm_c times the sup
of the difference of the two first-order fields.

Every coefficient field is a fixed weight vector (``GAMMA_WEIGHTS``) over
the four pure-assignment CDF rows of ``pushforward.PureFields``, the rows
the mixture itself combines with binomial weights.  Each call builds
its own ``PureFields``; calls on equal points share the rows through its
row cache, and calls on one ``EvalGrid`` share its digest, so
``mixident.checks`` measures these same public calls.

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
from .pushforward import EvalGrid, PureFields, mixture_cdf_batch

P_DIM = 2  # the analytic engine is two-dimensional throughout


@dataclass(frozen=True)
class NuMeasure:
    """Normalized signed difference between contaminant and background.

    The raw difference of the two CDFs is rescaled by its uniform norm
    ``norm_c``, computed from xi and zeta at construction, so the resulting
    signed measure has uniform norm one.
    """

    xi: ComponentLaw = CENTERED_EXPONENTIAL
    zeta: ComponentLaw = STANDARD_NORMAL
    norm_c: float = field(init=False)

    def __post_init__(self):
        if self.xi == self.zeta:
            raise ValueError("contaminant and background must differ")
        object.__setattr__(self, "norm_c", kolmogorov_distance_univ(self.xi, self.zeta))


DEFAULT_MEASURE = NuMeasure()


# Rows NN, EN, NE, EE (pushforward.ASSIGNMENTS) of the beta^k coefficient:
# F_beta = (1-beta)^2 F_NN + beta (1-beta) (F_EN + F_NE) + beta^2 F_EE.
GAMMA_WEIGHTS = ((1, 0, 0, 0), (-2, 1, 1, 0), (1, -1, -1, 1))


def gamma_k_batch(m, k: int, points, measure: NuMeasure = DEFAULT_MEASURE) -> np.ndarray:
    """Order-k expansion coefficient field over an (n, 2) point array or an
    ``EvalGrid``: the beta^k coefficient of the mixture CDF over
    norm_c**k."""
    if not 0 <= k <= P_DIM:
        raise ValueError(f"order must lie in [0, {P_DIM}], got {k}")
    fields = PureFields(m, points, measure.xi, measure.zeta)
    return fields.combine(GAMMA_WEIGHTS[k]) / measure.norm_c**k


def polynomial_reconstruct(m, beta: float, x) -> float:
    """Rebuild the mixture CDF from the expansion coefficients.

    Evaluates sum_k beta^k * norm_c^k * coefficient_k(x).  Must agree
    with the direct mixture evaluation; the two share the pure rows but
    combine them with different weights.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    c = DEFAULT_MEASURE.norm_c
    return float(sum(beta**k * c**k * gamma_k_batch(m, k, [x]) for k in range(P_DIM + 1))[0])


def sup_on_grid(values) -> float:
    """Max absolute value over a finite evaluation; lower bound of the sup."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty grid")
    return float(np.max(np.abs(v)))


def mixture_sup_gap(m_a, m_b, beta: float, grid: EvalGrid | None = None) -> float:
    """Grid sup of |F_A - F_B| at contamination level beta."""
    if grid is None:
        grid = EvalGrid.tensor()
    return sup_on_grid(mixture_cdf_batch(m_a, beta, grid) - mixture_cdf_batch(m_b, beta, grid))


def estimate_K(m_a, m_b, grid: EvalGrid | None = None) -> float:
    """Leading slope K of sup |F_A - F_B| in the contamination level.

    Requires the uncontaminated models to coincide (same second-moment
    structure); the value is the finite-grid estimate norm_c * sup of the
    first-order field gap, matching the small-level slope convention.
    """
    if grid is None:
        grid = EvalGrid.tensor()
    # one PureFields per matrix, so that the guard's Gaussian rows serve the
    # field gap too on grids whose rows are too large for the row cache
    f_a, f_b = (PureFields(m, grid) for m in (m_a, m_b))
    base_gap = sup_on_grid(f_a.mixture(0.0) - f_b.mixture(0.0))
    if base_gap > 1e-8:
        raise ValueError(
            f"uncontaminated models differ by {base_gap:.2e}; K is undefined"
        )
    c = DEFAULT_MEASURE.norm_c
    gap = f_a.combine(GAMMA_WEIGHTS[1]) / c - f_b.combine(GAMMA_WEIGHTS[1]) / c
    return c * sup_on_grid(gap)
