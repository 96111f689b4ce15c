"""Reference routes the closed-form engine of ``mixident.pushforward`` is
checked against; only tests and demos import this module.

* ``quad_pure_cdf`` / ``quad_mixture_cdf``: density * interval-mass over
  the first coordinate, whatever its law, handed piece by piece to
  adaptive quadrature: the engine's reduction on EN and EE rows, and one
  it does not use on NE rows, where it integrates over the second, or on
  NN rows, where it evaluates the bivariate normal CDF;
* ``oracle_cdf_quad2d``: 2-D quadrature of the image density, disjoint
  from both reductions;
* ``oracle_cdf_mc``: plain Monte Carlo.

A steep row (large |q| = |a_i1 / a_i2|) puts a layer of width about 1/|q|
into the reduction, with breakpoints at its edges.  At |a_i2| = 1e-15 the
layer spans a few doubles of t, where p + q t moves in steps of about 0.1,
so quad cannot bisect its pieces and warns of "extremely bad integrand
behavior".  Pieces narrower than 1e-12 therefore take one midpoint value:
no density here exceeds 1, so they hold at most 1e-12 of mass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from mixident.laws import (
    CENTERED_EXPONENTIAL,
    STANDARD_NORMAL,
    ComponentLaw,
    ContaminatedLaw,
)
from mixident.pushforward import (
    _SQRT_TWOPI,
    MixingMatrix2,
    _classify,
    as_matrix,
    assignment_comps,
    mixture_weights,
)


# Tolerances of the quadrature path.  _RADIUS truncates Gaussian coordinates
# at +-_RADIUS (tail < 1e-80).  Exponential coordinates decay much more
# slowly, so their integration window extends to support + 3*_RADIUS instead
# (tail ~ 1e-26), keeping truncation error far below _ABS_TOL.
_ABS_TOL = 1e-10
_MAX_SUBDIVISIONS = 2000
_RADIUS = 20.0
# absolute tolerance of the 2-D quadrature oracle
_QUAD2D_ABS_TOL = 5e-9

# pieces narrower than this take one midpoint value (see the module docstring)
_SLIVER = 1e-12


def _density(law: ComponentLaw):
    """The density of ``law`` as a function of one float, bound once: the
    integrands call it about 10^5 times per CDF value."""
    if law.is_gaussian:
        return lambda t: math.exp(-0.5 * t * t) / _SQRT_TWOPI
    s = law.shift
    return lambda t: math.exp(-(t - s)) if t >= s else 0.0


def _law_window(law: ComponentLaw) -> tuple[float, float]:
    if law.is_gaussian:
        return -_RADIUS, _RADIUS
    return law.shift, law.shift + 3.0 * _RADIUS


def _quad_pair_scalar(m: MixingMatrix2, comps, x1: float, x2: float) -> float:
    law1, law2 = comps
    uppers, lowers, tcons = _classify(m)
    lo, hi = _law_window(law1)
    for ai1, which in tcons:
        bound = (x1, x2)[which] / ai1
        if ai1 > 0.0:
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
    if lo >= hi:
        return 0.0

    ups = [((x1, x2)[w] / ai2, -ai1 / ai2) for ai1, ai2, w in uppers]
    los = [((x1, x2)[w] / ai2, -ai1 / ai2) for ai1, ai2, w in lowers]

    breaks = set()

    def add_crossing(b1, b2):
        (p1, q1), (p2, q2) = b1, b2
        if q1 != q2:
            breaks.add((p2 - p1) / (q1 - q2))

    if len(ups) == 2:
        add_crossing(ups[0], ups[1])
    if len(los) == 2:
        add_crossing(los[0], los[1])
    if len(ups) == 1 and len(los) == 1:
        add_crossing(ups[0], los[0])
    # A steep bound (large |q|) turns the CDF factor into a boundary layer of
    # width ~1/|q|; adaptive panels skip layers thinner than the first
    # subdivision, so the layer edges are made explicit breakpoints.  Beyond
    # |argument| = 45 both tails are below 1e-10 of saturation.
    for p, q in ups + los:
        if q == 0.0:
            continue
        if law2.is_gaussian:
            for v in (-45.0, 0.0, 45.0):
                breaks.add((v - p) / q)
        else:
            breaks.add((law2.shift - p) / q)
            breaks.add((law2.shift + 45.0 - p) / q)
    pts = sorted({lo, hi} | {b for b in breaks if lo < b < hi})

    def mass(t: float) -> float:
        fu = 1.0
        if ups:
            fu = law2.cdf(min(p + q * t for p, q in ups))
        fl = 0.0
        if los:
            fl = law2.cdf(max(p + q * t for p, q in los))
        return max(fu - fl, 0.0)

    density = _density(law1)

    def integrand(t: float) -> float:
        return density(t) * mass(t)

    pieces = len(pts) - 1
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a < _SLIVER:
            total += (b - a) * integrand(0.5 * (a + b))
            continue
        val, _ = quad(
            integrand, a, b,
            epsabs=_ABS_TOL / max(pieces, 1), epsrel=0.0,
            limit=_MAX_SUBDIVISIONS,
        )
        total += val
    return min(max(total, 0.0), 1.0)


def quad_pure_cdf(
    m,
    comps: tuple[ComponentLaw, ComponentLaw],
    x,
) -> float:
    """P(A e <= x) for pure coordinates by adaptive quadrature over the
    first coordinate, whatever its law; on Gaussian pairs too, so it checks
    the engine's bivariate normal CDF rather than calling it.
    """
    x = np.asarray(x, dtype=float)
    return _quad_pair_scalar(as_matrix(m), comps, float(x[0]), float(x[1]))


def quad_mixture_cdf(
    m,
    beta: float,
    x,
    xi: ComponentLaw = CENTERED_EXPONENTIAL,
    zeta: ComponentLaw = STANDARD_NORMAL,
) -> float:
    """Mixture CDF as the binomial combination of ``quad_pure_cdf`` values."""
    total = 0.0
    for wt, comps in zip(mixture_weights(beta), assignment_comps(xi, zeta)):
        if wt == 0.0:
            continue
        total += wt * quad_pure_cdf(m, comps, x)
    return total


def oracle_cdf_mc(
    m,
    beta: float,
    x,
    n_samples: int,
    rng: np.random.Generator,
    xi: ComponentLaw = CENTERED_EXPONENTIAL,
    zeta: ComponentLaw = STANDARD_NORMAL,
) -> float:
    """Monte Carlo estimate of the mixture CDF (independent code path)."""
    m = as_matrix(m)
    x = np.asarray(x, dtype=float)
    law = ContaminatedLaw(beta, xi, zeta)
    eps = law.sample(rng, (n_samples, 2))
    pts = eps @ m.as_array().T
    return float(np.mean((pts[:, 0] <= x[0]) & (pts[:, 1] <= x[1])))


def oracle_cdf_quad2d(
    m,
    beta: float,
    x,
    xi: ComponentLaw = CENTERED_EXPONENTIAL,
    zeta: ComponentLaw = STANDARD_NORMAL,
) -> float:
    """Mixture CDF by nested 2-D adaptive quadrature of the image density.

    Works in the image coordinates: the density of A e at z is the product
    mixture density evaluated at A^{-1} z over |det A|.  Entirely disjoint
    from the interval-mass reductions, so it serves as an independent
    oracle.
    """
    m = as_matrix(m)
    x = np.asarray(x, dtype=float)
    a = m.as_array()
    ainv = np.linalg.inv(a)
    (b11, b12), (b21, b22) = ainv.tolist()
    absdet = float(abs(m.det))
    beta = float(beta)
    d_xi, d_zeta = _density(xi), _density(zeta)

    def mix_density(e: float) -> float:
        return beta * d_xi(e) + (1.0 - beta) * d_zeta(e)

    cut1 = max(abs(v) for v in _law_window(xi)) + _RADIUS
    # conservative box in image space from the coordinate windows
    r1 = abs(a[0, 0]) * cut1 + abs(a[0, 1]) * cut1
    r2 = abs(a[1, 0]) * cut1 + abs(a[1, 1]) * cut1
    ulo, uhi = -r1, min(x[0], r1)
    vlo, vhi = -r2, min(x[1], r2)
    if uhi <= ulo or vhi <= vlo:
        return 0.0

    # density kink lines: (A^{-1} z)_i = shift of an exponential component
    kink_shifts = []
    for law in (xi, zeta):
        if not law.is_gaussian:
            kink_shifts.append(law.shift)

    def inner(u: float) -> float:
        pts = []
        for i in range(2):
            for s in kink_shifts:
                # ainv[i,0]*u + ainv[i,1]*v = s
                if ainv[i, 1] != 0.0:
                    v = (s - ainv[i, 0] * u) / ainv[i, 1]
                    if vlo < v < vhi:
                        pts.append(v)

        def f(v: float) -> float:
            return mix_density(b11 * u + b12 * v) * mix_density(b21 * u + b22 * v) / absdet

        val, _ = quad(f, vlo, vhi, epsabs=_QUAD2D_ABS_TOL / (4.0 * max(r1, 1.0)), epsrel=0.0,
                      limit=200, points=sorted(pts) or None)
        return val

    # inner(u) loses smoothness where a kink line meets the v limits (or
    # runs at constant u); without these breakpoints the outer error
    # estimate can be optimistic near small determinants
    outer_pts = []
    for i in range(2):
        for s in kink_shifts:
            if ainv[i, 0] == 0.0:
                continue
            if ainv[i, 1] == 0.0:
                candidates = (s / ainv[i, 0],)
            else:
                candidates = tuple(
                    (s - ainv[i, 1] * v_edge) / ainv[i, 0] for v_edge in (vlo, vhi)
                )
            outer_pts.extend(u for u in candidates if ulo < u < uhi)

    val, _ = quad(inner, ulo, uhi, epsabs=_QUAD2D_ABS_TOL / 2.0, epsrel=0.0,
                  limit=400, points=sorted(outer_pts) or None)
    return min(max(val, 0.0), 1.0)
