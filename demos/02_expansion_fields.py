#!/usr/bin/env python3
"""Walkthrough: the contamination-level expansion of the mixture CDF.

In the level beta, the mixture CDF is an exact degree-2 polynomial whose
coefficient fields route all contaminant dependence through a normalized
signed difference measure.  This script tabulates the coefficient fields,
rebuilds the mixture CDF from them, and verifies the uniform bounds the
fields satisfy on a grid.
"""

import numpy as np

from mixident import (
    DEFAULT_MEASURE,
    EvalGrid,
    equal_product_pair,
    gamma_k_batch,
    mixture_pushforward_cdf,
    polynomial_reconstruct,
    sup_on_grid,
)

m_a, _ = equal_product_pair(0.4)
print(f"normalizing constant of the difference measure: {DEFAULT_MEASURE.norm_c:.12f}")
print()

grid = EvalGrid.tensor(-4.0, 4.0, 21)
fields = [gamma_k_batch(m_a, k, grid.points) for k in range(3)]
print("coefficient fields on a 21x21 tensor grid over [-4, 4]^2:")
for k, values in enumerate(fields):
    print(
        f"  order {k}: sup |field| = {sup_on_grid(values):.6f}, "
        f"mean = {np.mean(values):+.6f}"
    )
print("expected bounds: order 0 is a CDF (<= 1), order 1 <= 4, order 2 bounded")
print()

# the polynomial in beta reproduces the mixture CDF exactly
worst = 0.0
for beta in (0.0, 0.1, 0.5, 1.0):
    x = (0.3, -0.2)
    rebuilt = polynomial_reconstruct(m_a, beta, x)
    direct = mixture_pushforward_cdf(m_a, beta, x)
    err = abs(rebuilt - direct)
    worst = max(worst, err)
    print(f"beta = {beta:<4}: rebuilt {rebuilt:.12f}  direct {direct:.12f}  |diff| {err:.2e}")
print(f"worst reconstruction error at the probe point: {worst:.2e}")
print()

# first-order dominance: for small beta the mixture is background + beta * c * field
beta = 0.01
direct = mixture_pushforward_cdf(m_a, beta, (0.3, -0.2))
order0 = mixture_pushforward_cdf(m_a, 0.0, (0.3, -0.2))
gamma1 = float(gamma_k_batch(m_a, 1, np.array([[0.3, -0.2]]))[0])
linearized = order0 + beta * DEFAULT_MEASURE.norm_c * gamma1
print(f"small-level linearization at beta = {beta}:")
print(f"  direct     : {direct:.10f}")
print(f"  linearized : {linearized:.10f}")
print(f"  gap        : {abs(direct - linearized):.2e}  (quadratic in beta)")
