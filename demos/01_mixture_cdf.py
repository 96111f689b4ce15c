#!/usr/bin/env python3
"""Walkthrough: the contaminated model and its pushforward CDF.

Coordinates of the latent noise are i.i.d. two-component mixtures: with
probability beta a centered exponential contaminant, otherwise a standard
Gaussian.  Observations are the mixing matrix applied to that noise.  The
joint CDF of the observation has an analytic form (a binomial combination
of pure-component pushforwards), which we cross-check here against plain
Monte Carlo and against the independent quadrature route.
"""

import numpy as np

from mixident import (
    RngStream,
    draw_sample,
    equal_product_pair,
    mixture_pushforward_cdf,
    mixture_weights,
)
from mixident.oracles import quad_mixture_cdf
from mixident.pushforward import ASSIGNMENTS

m_a, m_b = equal_product_pair(0.4)
print("mixing matrix A:")
print(m_a.as_array())
print("second-moment structure AA^T:")
print(m_a.aat())
print()

beta = 0.3
x = (0.3, -0.2)

closed = mixture_pushforward_cdf(m_a, beta, x)
quad = quad_mixture_cdf(m_a, beta, x)
print(f"F_A at x = {x}, beta = {beta}")
print(f"  closed kernels : {closed:.12f}")
print(f"  quadrature     : {quad:.12f}")
print(f"  difference     : {abs(closed - quad):.2e}")
print()

# the same number from raw sampling
n = 200_000
sample = draw_sample(m_a, beta, n, RngStream(2024, (1,)))
hits = np.all(sample.points <= np.asarray(x), axis=1)
mc = float(np.mean(hits))
se = float(np.sqrt(mc * (1.0 - mc) / n))
print(f"Monte Carlo with n = {n}: {mc:.5f} (se {se:.5f})")
print(f"analytic value sits {abs(mc - closed) / se:.2f} standard errors away")
print()

# how the analytic form decomposes: one weight per assignment of the two
# coordinates to contaminant (1) or background (0)
print("component-assignment weights beta^k (1-beta)^(2-k) at beta = 0.3:")
for flags, w in zip(ASSIGNMENTS, mixture_weights(beta)):
    print(f"  coordinates {flags}: {w:.4f}")
print("weights sum to", f"{sum(mixture_weights(beta)):.10f}")
