"""Exact CDFs of linearly mixed two-dimensional error vectors.

Everything here evaluates P(A e <= x) componentwise for an invertible
2x2 matrix A and independent coordinates e_1, e_2 with known laws.  There
is one engine, the closed form.  Gaussian pairs collapse to the bivariate
normal CDF.  Every other pair reduces to a one-dimensional integral of
density * interval-mass over an exponential coordinate (an NE pair has
its matrix columns and laws swapped first), evaluated analytically through
normal CDFs and exponentials, stabilized by erfcx so nothing overflows.

Thresholds may be infinite: a -inf coordinate gives 0, and a +inf
coordinate drops its row, leaving the marginal CDF of the other one.  A
NaN threshold raises ``ValueError``, and so does any non-finite value the
engine would return, so a bad value can never pass as a probability.

The contaminated product law splits into four pure component
assignments.  ``PureFields`` holds their CDF rows for one matrix and one
point set; mixtures at any level (binomial weights) and the expansion
fields of ``mixident.expansion`` are weight vectors over those rows.  The
quadrature reference route and the independent oracles live in
``mixident.oracles``.

What a call costs: a fixed part per call and per piece of the piecewise
integral (Python and numpy dispatch, about 0.1 ms per assignment), plus
a part per point.  The points are lanes of one array.  Lanes are compacted
(gathered, then scattered back) only where a branch splits them; a
branch that takes every lane runs on the arrays as they are.  Every lane
goes through the same expressions in any batch, so a value does not
depend on the batch it is evaluated in, bit for bit.

A row is computed once for as long as it is in use: ``PureFields`` keeps
the last 12 rows it computed, up to 1 MiB in all (the twelve rows of the
101x101 grid fit; a row above 1 MiB is never kept), keyed by
matrix, component pair and the shape and SHA-1 digest of the points, and
any later instance on equal points reads them from there.  The points are
hashed once per instance, or once per ``EvalGrid`` that instances share,
at about 16 ns per point on a 2-vCPU x86 host, where one kernel call takes
0.1 to 0.3 us per point.  Cached rows are
read-only and equal, bit for bit, to what ``pure_cdf_batch`` returns,
which itself caches nothing.

A ``BracketTable`` holds the four rows of one matrix on a fixed 256 x 256
node grid instead; since a CDF is monotone in each coordinate, its values
at the nodes around a point bound any mixture there.  ``bracket_table``
keeps the tables of the last two matrices and law pairs asked for, 2 MiB
each once all four rows are read.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, ndtr

from mixident.laws import (
    _SLICE_POINTS,
    CENTERED_EXPONENTIAL,
    STANDARD_NORMAL,
    ComponentLaw,
)

_SQRT2 = math.sqrt(2.0)
_SQRT_TWOPI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class MixingMatrix2:
    """Invertible 2x2 mixing matrix; rejects a non-finite entry and
    |det| <= 1e-12 at construction."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        for name in ("a11", "a12", "a21", "a22"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"matrix entry {name} must be finite, got {value}")
        if abs(self.det) <= 1e-12:
            raise ValueError(f"matrix is numerically singular, det={self.det}")

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=float)

    def aat(self) -> np.ndarray:
        a = self.as_array()
        return a @ a.T

    @classmethod
    def from_array(cls, a) -> "MixingMatrix2":
        a = np.asarray(a, dtype=float)
        if a.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
        return cls(float(a[0, 0]), float(a[0, 1]), float(a[1, 0]), float(a[1, 1]))


def as_matrix(m) -> MixingMatrix2:
    if isinstance(m, MixingMatrix2):
        return m
    return MixingMatrix2.from_array(m)


def equal_product_pair(alpha: float = 0.4) -> tuple[MixingMatrix2, MixingMatrix2]:
    """The worked matrix pair sharing A A^T = [[1, alpha], [alpha, 1]].

    A = [[1, 0], [alpha, sqrt(1-alpha^2)]] and
    B = [[sqrt(1-alpha^2), alpha], [0, 1]] have equal transpose products
    but are not related by a signed permutation, so they are the standard
    test case for what contamination can and cannot distinguish.
    """
    if not abs(alpha) < 1.0:
        raise ValueError(f"|alpha| must be < 1, got {alpha}")
    r = math.sqrt(1.0 - alpha * alpha)
    return MixingMatrix2(1.0, 0.0, alpha, r), MixingMatrix2(r, alpha, 0.0, 1.0)


# ===========================================================================
# lanes: the points of one kernel call
# ===========================================================================

# every lane of a kernel call: indexing with it gathers and scatters nothing
_ALL = slice(None)


def _lanes(mask):
    """The lanes where ``mask`` holds: None for none, ``_ALL`` for every
    lane, else their indices.  A scalar mask is one flag for every lane."""
    if not isinstance(mask, np.ndarray):
        return _ALL if mask else None
    n = np.count_nonzero(mask)
    if n == 0:
        return None
    return _ALL if n == mask.size else np.flatnonzero(mask)


def _at(v, lanes):
    """v on the selected lanes; a scalar stays a scalar."""
    return v[lanes] if isinstance(v, np.ndarray) else v


def _branches(n: int, cases, args) -> np.ndarray:
    """Each (mask, fn) case evaluated as fn(*args) on its own lanes.

    The masks are disjoint; lanes that no mask selects are zero.  A case
    that selects every lane runs on the arrays as they are.
    """
    out = np.zeros(n)
    for mask, fn in cases:
        lanes = _lanes(mask)
        if lanes is _ALL:
            return fn(*args)
        if lanes is not None:
            out[lanes] = fn(*(_at(v, lanes) for v in args))
    return out


def _fill(mask, fill, values):
    """np.where(mask, fill, values), without a pass when no lane is masked."""
    return np.where(mask, fill, values) if np.count_nonzero(mask) else values


# ===========================================================================
# bivariate normal CDF
# ===========================================================================

# Gauss-Legendre nodes/weights for the three accuracy tiers of the
# Drezner-Wesolowsky/Genz scheme.
_GL6_W = np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904])
_GL6_X = np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970])
_GL12_W = np.array(
    [0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
     0.2031674267230659, 0.2334925365383547, 0.2491470458134029]
)
_GL12_X = np.array(
    [0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
     0.5873179542866171, 0.3678314989981802, 0.1252334085114692]
)
_GL20_W = np.array(
    [0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
     0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
     0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
     0.1527533871307259]
)
_GL20_X = np.array(
    [0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
     0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
     0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
     0.07652652113349733]
)


def _gl_rule(r: float):
    ar = abs(r)
    if ar < 0.3:
        return _GL6_W, _GL6_X
    if ar < 0.75:
        return _GL12_W, _GL12_X
    return _GL20_W, _GL20_X


def _bvn_upper(h: np.ndarray, k: np.ndarray, r: float) -> np.ndarray:
    """P(X > h, Y > k) for standard bivariate normal with correlation r."""
    w, gx = _gl_rule(r)
    hk = h * k
    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(r)
        bvn = np.zeros_like(h)
        for i in range(w.size):
            for sgn in (-1.0, 1.0):
                sn = math.sin(asr * (1.0 + sgn * gx[i]) / 2.0)
                bvn += w[i] * np.exp((sn * hk - hs) / (1.0 - sn * sn))
        return bvn * asr / (4.0 * math.pi) + ndtr(-h) * ndtr(-k)
    # high-correlation branch (|r| >= 0.925)
    if r < 0.0:
        k = -k
        hk = -hk
    bvn = np.zeros_like(h)
    if abs(r) < 1.0:
        a_s = (1.0 - r) * (1.0 + r)
        a = math.sqrt(a_s)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -(bs / a_s + hk) / 2.0
        with np.errstate(under="ignore"):
            # Lanes at or below the np.where threshold are dropped, so the
            # exponent is clamped there rather than at the underflow edge:
            # numpy's exp and the products after it run about 100 times
            # slower on subnormal values, which near-triangular matrices
            # produce on almost every lane.
            e0 = np.exp(np.maximum(asr, -100.0))
            bvn = np.where(
                asr > -100.0,
                a * e0 * (1.0 - c * (bs - a_s) * (1.0 - d * bs / 5.0) / 3.0
                          + c * d * a_s * a_s / 5.0),
                0.0,
            )
            b = np.sqrt(bs)
            sp = _SQRT_TWOPI * ndtr(-b / a)
            # clamped from above too: the lanes with -hk >= 100 are dropped
            e1 = np.exp(np.clip(-hk / 2.0, -745.0, 50.0))
            bvn = bvn - np.where(
                -hk < 100.0,
                e1 * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
                0.0,
            )
            a = a / 2.0
            # asr1 below is at most asr on every lane (xs < a_s), so the
            # lanes with asr <= -100 only ever add +0.0, which leaves them as
            # they are (they hold 0 - Y, never -0.0): the nodes run on the
            # others
            lanes = _lanes(asr > -100.0)
            if lanes is not None:
                bs, hk, c, d = bs[lanes], hk[lanes], c[lanes], d[lanes]
                part = bvn[lanes]
                for i in range(w.size):
                    for sgn in (-1.0, 1.0):
                        xs = (a * (sgn * gx[i] + 1.0)) ** 2
                        rs = math.sqrt(1.0 - xs)
                        asr1 = -(bs / xs + hk) / 2.0
                        sp1 = 1.0 + c * xs * (1.0 + d * xs)
                        ep = np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                        part = part + np.where(
                            asr1 > -100.0,
                            # clamped at the threshold, as e0 above
                            a * w[i] * np.exp(np.maximum(asr1, -100.0)) * (ep - sp1),
                            0.0,
                        )
                bvn[lanes] = part
        bvn = -bvn / (2.0 * math.pi)
    if r > 0.0:
        bvn = bvn + ndtr(-np.maximum(h, k))
    else:
        bvn = -bvn + np.maximum(0.0, ndtr(k) - ndtr(h))
    return bvn


def bvn_cdf_batch(h, k, rho: float) -> np.ndarray:
    """P(Z1 <= h, Z2 <= k) for standard bivariate normal, vectorized in h, k;
    absolute error well below 1e-10."""
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must lie strictly in (-1, 1), got {rho}")
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    fin = np.isfinite(h) & np.isfinite(k)
    if fin.all():
        return np.minimum(np.maximum(_bvn_upper(-h, -k, rho), 0.0), 1.0)
    # infinite thresholds take their limits: 0 at -inf, the other margin at +inf
    p = _bvn_upper(-np.where(fin, h, 0.0), -np.where(fin, k, 0.0), rho)
    edge = np.where((h == -np.inf) | (k == -np.inf), 0.0, np.where(h == np.inf, ndtr(k), ndtr(h)))
    return np.where(fin, np.minimum(np.maximum(p, 0.0), 1.0), edge)


# ===========================================================================
# closed-form kernels for pairs involving an exponential coordinate
# ===========================================================================
#
# All kernels integrate over an exponential coordinate (support edge s1), on
# pieces where the exponential CDF argument keeps a fixed sign, so combined
# exponents below are <= 0 and erfcx absorbs what would otherwise overflow.


def _phi_diff_scaled(a, b, ea, eb, mexp):
    """e^mexp * (Phi(b) - Phi(a)) with a <= b, given per-endpoint stable
    exponents ea = mexp - a^2/2 and eb = mexp - b^2/2 (both <= 0).

    In the branch where [a, b] straddles zero, mexp itself is <= 0 by the
    caller's piece construction, so the direct term cannot overflow.
    """

    def term(y, e):
        # 0.5 * erfcx(y) * exp(e) with the e = -inf lanes forced to zero
        return 0.5 * erfcx(_fill(~np.isfinite(e), np.inf, y)) * np.exp(e)

    def right(a, b, ea, eb, mexp):
        return term(a / _SQRT2, ea) - term(b / _SQRT2, eb)

    def left(a, b, ea, eb, mexp):
        return term(-b / _SQRT2, eb) - term(-a / _SQRT2, ea)

    def straddle(a, b, ea, eb, mexp):
        return np.exp(mexp) - term(-a / _SQRT2, ea) - term(b / _SQRT2, eb)

    is_right = a >= 0.0
    is_left = ~is_right & (b <= 0.0)
    cases = ((is_right, right), (is_left, left), (~(is_right | is_left), straddle))
    return np.maximum(_branches(a.shape[0], cases, (a, b, ea, eb, mexp)), 0.0)


def _j_exp_expfactor(s1, t0, t1, c, g):
    """integral of e^{-(t-s1)} * exp(-(c + g t)) over [t0, t1], t0 >= s1.

    Requires c + g t >= 0 on the interval.
    """
    w = 1.0 + g
    lead = s1 - c - w * t0  # (s1 - t0) - (c + g t0) <= 0

    def flat(t0, t1, c, w, lead):
        # degenerate slope: integrand constant e^{s1-c}
        return np.exp(s1 - c) * (t1 - t0)

    def sloped(t0, t1, c, w, lead):
        # (e^lead - e^far) / w with far = lead - w d the exponent at t1, taken
        # from the larger of the two so that no factor overflows (d = inf
        # gives far = -inf and -expm1(-inf) = 1)
        d = t1 - t0
        top = np.maximum(lead, lead - w * d)
        ar = np.abs(w)
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            return np.exp(top) * -np.expm1(-ar * d) / ar

    tiny = np.abs(w) < 1e-14
    out = _branches(t0.shape[0], ((tiny, flat), (~tiny, sloped)), (t0, t1, c, w, lead))
    return np.maximum(out, 0.0)


def _j_exp_phi(s1, t0, t1, alpha, g):
    """integral of e^{-(t-s1)} * Phi(alpha + g t) over [t0, t1], t0 >= s1."""
    hi_inf = t1 == np.inf
    t1f = _fill(hi_inf, t0, t1)
    e0 = np.exp(-(t0 - s1))
    e1 = _fill(hi_inf, 0.0, np.exp(-(t1f - s1)))

    def flat(t0, t1, t1f, hi_inf, alpha, g, e0, e1):
        # no t-dependence inside Phi: plain exponential mass times Phi(alpha)
        return ndtr(alpha) * (e0 - e1)

    def sloped(t0, t1, t1f, hi_inf, alpha, g, e0, e1):
        u0 = alpha + g * t0
        u1 = alpha + g * t1f
        # e1 * ndtr(u1) is 0 where t1 = inf, so ndtr is not evaluated there
        upper = _branches(t0.shape[0], ((~hi_inf, lambda e1, u1: e1 * ndtr(u1)),), (e1, u1))
        boundary = e0 * ndtr(u0) - upper
        z0 = u0 + 1.0 / g
        # branch arguments keep the true +-inf sign (g never zero here)
        z1 = alpha + g * t1 + 1.0 / g
        ea = s1 - t0 - 0.5 * u0 ** 2
        eb = _fill(hi_inf, -np.inf, s1 - t1f - 0.5 * u1 ** 2)
        mexp = s1 + alpha / g + 0.5 / (g * g)
        # orientation: z is increasing in t iff g > 0
        pos = g > 0.0
        cases = (
            (pos, _phi_diff_scaled),
            (~pos, lambda z0, z1, ea, eb, mexp: -_phi_diff_scaled(z1, z0, eb, ea, mexp)),
        )
        return boundary + _branches(t0.shape[0], cases, (z0, z1, ea, eb, mexp))

    flat_g = np.abs(g) < 1e-300
    cases = ((flat_g, flat), (~flat_g, sloped))
    out = _branches(t0.shape[0], cases, (t0, t1, t1f, hi_inf, alpha, g, e0, e1))
    return np.maximum(out, 0.0)


def _f1_mass(s1: float, t0, t1):
    """integral of the exponential density with support edge s1 over
    [t0, t1], t0 >= s1."""
    lo = np.exp(-(np.maximum(t0, s1) - s1))
    hi = _fill(t1 == np.inf, 0.0, np.exp(-(np.maximum(np.minimum(t1, 746.0 + s1), s1) - s1)))
    return np.maximum(lo - hi, 0.0)


def _cdf_term(s1: float, law2: ComponentLaw, t0, t1, p, q, bound_mid, mass):
    """integral of f1(t) * F2(p + q t) over the pieces [t0, t1], where f1
    is the exponential density with support edge s1 and F2 the CDF of law2.

    ``mass`` is ``_f1_mass(s1, t0, t1)``, which an exponential F2 needs.
    For exponential F2 only the lanes whose bound sits at or above the
    support at the piece midpoint ``bound_mid`` carry mass, and there
    p + q t >= shift holds on the whole piece; the other lanes are zero.
    """
    if law2.is_gaussian:
        return _j_exp_phi(s1, t0, t1, p, q)
    s2 = law2.shift

    def in_support(t0, t1, p, q, mass):
        drop = _j_exp_expfactor(s1, t0, t1, p - s2, q)
        return np.maximum(mass - drop, 0.0)

    return _branches(t0.shape[0], ((bound_mid >= s2, in_support),), (t0, t1, p, q, mass))


def _classify(m: MixingMatrix2):
    """Split the two half-plane constraints by the sign of the e2 coefficient."""
    uppers, lowers, tcons = [], [], []
    for ai1, ai2, which in ((m.a11, m.a12, 0), (m.a21, m.a22, 1)):
        if ai2 == 0.0:
            tcons.append((ai1, which))
        elif ai2 > 0.0:
            uppers.append((ai1, ai2, which))
        else:
            lowers.append((ai1, ai2, which))
    return uppers, lowers, tcons


def _gauss_pair_batch(m: MixingMatrix2, x: np.ndarray) -> np.ndarray:
    cov = m.aat()
    s1 = math.sqrt(cov[0, 0])
    s2 = math.sqrt(cov[1, 1])
    rho = cov[0, 1] / (s1 * s2)
    h, k = x[:, 0] / s1, x[:, 1] / s2
    if abs(rho) < 1.0:
        return bvn_cdf_batch(h, k, rho)
    # a nearly singular matrix rounds rho to +-1: then Z2 = +-Z1 exactly
    if rho > 0.0:
        return np.minimum(ndtr(h), ndtr(k))
    return np.maximum(ndtr(h) - ndtr(-k), 0.0)


# compare-exchange networks sorting 0-3 rows elementwise
_NETWORKS = {0: (), 1: (), 2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1))}


def _sort_rows(rows: list) -> list:
    """Sort up to three equal-length, NaN-free rows elementwise, in place."""
    for i, j in _NETWORKS[len(rows)]:
        rows[i], rows[j] = np.minimum(rows[i], rows[j]), np.maximum(rows[i], rows[j])
    return rows


def _closed_pair_batch(m: MixingMatrix2, comps, x: np.ndarray) -> np.ndarray:
    law1, law2 = comps
    # exponents that underflow give the 0 they stand for, in every kernel
    with np.errstate(under="ignore"):
        if law1.is_gaussian and law2.is_gaussian:
            return _gauss_pair_batch(m, x)
        if law1.is_gaussian:
            # integrate over the exponential coordinate: permuting the columns
            # of A and the coordinates of e together leaves P(A e <= x) as it is
            m = MixingMatrix2(m.a12, m.a11, m.a22, m.a21)
            law1, law2 = law2, law1
        rows = _classify(m)
        if np.isfinite(x).all():
            return _pieces_batch(law1.shift, law2, *rows, x)
        # a -inf threshold empties the event; a +inf one drops its row's constraint
        neg = (x == -np.inf).any(axis=1)
        pos = x == np.inf
        out = np.where(~neg & pos.all(axis=1), 1.0, 0.0)
        for drop in ((False, False), (True, False), (False, True)):
            lanes = ~neg & (pos[:, 0] == drop[0]) & (pos[:, 1] == drop[1])
            if lanes.any():
                kept = ([e for e in group if not drop[e[-1]]] for group in rows)
                out[lanes] = _pieces_batch(law1.shift, law2, *kept, x[lanes])
        return out


def _midpoint(t0, t1):
    """A finite point inside each piece [t0, t1]; t0 is finite, t1 may be +inf."""
    return _fill(t1 == np.inf, t0 + 1.0, 0.5 * (t0 + t1))


def _select(bounds, lanes, mid, take_min: bool):
    """The affine bound (p, q) active on each selected lane of a piece,
    chosen at its midpoint; q stays a scalar while one bound is active."""
    if not bounds:
        return None
    if len(bounds) == 1:
        p, q = bounds[0]
        return p[lanes], q
    (pa, qa), (pb, qb) = bounds
    pa, pb = pa[lanes], pb[lanes]
    va = pa + qa * mid
    vb = pb + qb * mid
    pick_a = (va <= vb) if take_min else (va >= vb)
    n_a = np.count_nonzero(pick_a)
    if n_a == pick_a.size:
        return pa, qa
    if n_a == 0:
        return pb, qb
    return np.where(pick_a, pa, pb), np.where(pick_a, qa, qb)


def _pieces_batch(s1: float, law2: ComponentLaw, uppers, lowers, tcons, x) -> np.ndarray:
    """P(A e <= x) from the classified constraints of ``_classify``, as an
    integral over the first coordinate, exponential with support edge s1;
    every piece of it starts at a finite point at or above s1."""
    npts = x.shape[0]
    tlo = np.full(npts, s1)
    thi = np.full(npts, np.inf)
    for ai1, which in tcons:
        bound = x[:, which] / ai1
        if ai1 > 0.0:
            thi = np.minimum(thi, bound)
        else:
            tlo = np.maximum(tlo, bound)
    # empty t-ranges collapse to zero width so every piece below drops out
    thi = np.maximum(thi, tlo)

    def affine(entry):
        ai1, ai2, which = entry
        return x[:, which] / ai2, np.float64(-ai1 / ai2)  # p array, q scalar

    ups = [affine(e) for e in uppers]
    los = [affine(e) for e in lowers]

    # candidate breakpoints: bound crossings and exponential-support kinks
    cands = []

    def crossing(b1, b2):
        (p1, q1), (p2, q2) = b1, b2
        if q1 == q2:
            return None
        return (p2 - p1) / (q1 - q2)

    if len(ups) == 2:
        cands.append(crossing(ups[0], ups[1]))
    if len(los) == 2:
        cands.append(crossing(los[0], los[1]))
    if len(ups) == 1 and len(los) == 1:
        cands.append(crossing(ups[0], los[0]))
    if not law2.is_gaussian:
        s2 = law2.shift
        for p, q in ups + los:
            cands.append((s2 - p) / q if q != 0.0 else None)

    # every candidate lies in [tlo, thi], so only the interior rows need ordering
    inner = [thi if cand is None else np.minimum(np.maximum(cand, tlo), thi) for cand in cands]
    grid = [tlo, *_sort_rows(inner), thi]

    total = np.zeros(npts)
    for g0, g1 in zip(grid[:-1], grid[1:]):
        live = _lanes(g1 > g0)
        if live is None:
            continue
        t0 = g0[live]
        t1 = g1[live]
        mid = _midpoint(t0, t1)
        up = _select(ups, live, mid, take_min=True)
        lo = _select(los, live, mid, take_min=False)

        # Positivity of the interval mass is decided on the bound values,
        # never on CDF differences: F2(u) - F2(l) underflows to zero in
        # floating point when both arguments sit in the same tail even
        # though the piece carries real mass.
        u_mid = up[0] + up[1] * mid if up is not None else None
        l_mid = lo[0] + lo[1] * mid if lo is not None else None
        keep = True
        if u_mid is not None and l_mid is not None:
            keep = keep & (u_mid > l_mid)
        if u_mid is not None and not law2.is_gaussian:
            keep = keep & (u_mid > law2.shift)
        keep = _lanes(keep)
        if keep is None:
            continue
        t0, t1, u_mid, l_mid = (_at(v, keep) for v in (t0, t1, u_mid, l_mid))
        if up is not None:
            up = tuple(_at(v, keep) for v in up)
        if lo is not None:
            lo = tuple(_at(v, keep) for v in lo)

        mass = _f1_mass(s1, t0, t1) if up is None or not law2.is_gaussian else None
        piece = mass if up is None else _cdf_term(s1, law2, t0, t1, *up, u_mid, mass)
        if lo is not None:
            piece = piece - _cdf_term(s1, law2, t0, t1, *lo, l_mid, mass)

        lanes = keep if live is _ALL else live if keep is _ALL else live[keep]
        if lanes is _ALL:
            total += piece
        else:
            total[lanes] += piece

    return np.minimum(np.maximum(total, 0.0), 1.0)


# ===========================================================================
# public evaluation API
# ===========================================================================


def pure_cdf_batch(m, comps: tuple[ComponentLaw, ComponentLaw], points) -> np.ndarray:
    """Vectorized pure P(A e <= x) over an (n, 2) array of thresholds.

    Thresholds may be infinite; a NaN threshold, or a non-finite value
    out of the engine, raises ``ValueError``.  The points run in slices of
    ``laws._SLICE_POINTS``, so the temporaries stay O(slice); a lane's
    value does not depend on its batch, so slicing changes no bit.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if np.isnan(pts).any():
        raise ValueError(f"{int(np.isnan(pts).any(axis=1).sum())} threshold points are NaN")
    m = as_matrix(m)
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], _SLICE_POINTS):
        out[lo:lo + _SLICE_POINTS] = _closed_pair_batch(m, comps, pts[lo:lo + _SLICE_POINTS])
    if not np.isfinite(out).all():
        raise ValueError(f"closed form gave {int(np.sum(~np.isfinite(out)))} non-finite values for {m}")
    return out


# rows NN, EN, NE, EE of PureFields; flag 1 puts the contaminant on that coordinate
ASSIGNMENTS = ((0, 0), (1, 0), (0, 1), (1, 1))


def mixture_weights(beta: float) -> np.ndarray:
    """Binomial weights of the four pure component assignments."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return np.array([beta ** sum(a) * (1.0 - beta) ** (2 - sum(a)) for a in ASSIGNMENTS])


def assignment_comps(xi: ComponentLaw, zeta: ComponentLaw):
    """Component pairs of the four assignments, in ASSIGNMENTS order."""
    return [tuple(xi if flag else zeta for flag in a) for a in ASSIGNMENTS]


def weighted_rows(weights, row, size: int) -> np.ndarray:
    """sum_a weights[a] * row(a) over ``size`` points, skipping zero
    weights, in row order; ``row(a)`` gives assignment a's pure CDF row."""
    total = np.zeros(size)
    for a, wa in enumerate(weights):
        if wa != 0:
            total += wa * row(a)
    return total


@dataclass(frozen=True, eq=False)
class EvalGrid:
    """Finite set of evaluation points in the plane, shape (n, 2).

    The points are a read-only copy.  ``digest``, their SHA-1 digest, is
    computed when first read; ``PureFields`` on a grid keys its rows on it,
    so a grid is hashed once however many fields read it.  ``tensor`` keeps
    the last two grids it built, so the calls that build the default grid
    share one.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, order="C")
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError(f"points must have shape (n >= 1, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @functools.cached_property
    def digest(self) -> bytes:
        return hashlib.sha1(self.points).digest()

    @classmethod
    @functools.lru_cache(maxsize=2)
    def tensor(cls, lo: float = -6.0, hi: float = 6.0, n: int = 101) -> "EvalGrid":
        axis = np.linspace(lo, hi, n)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        return cls(np.column_stack([g1.ravel(), g2.ravel()]))

    def __len__(self) -> int:
        return self.points.shape[0]


# rows of recent PureFields instances, least recently read first, by
# (matrix entries' bytes, points shape, points SHA-1 digest, component pair);
# at most 12 rows and 1 MiB, which holds the twelve rows of the 101x101
# grid (12 x 81 608 B); the lock is held for lookups and updates, never
# for a kernel call
_ROW_CACHE: OrderedDict = OrderedDict()
_ROW_CACHE_ROWS = 12
_ROW_CACHE_BYTES = 1 << 20
_ROW_CACHE_LOCK = threading.Lock()


class PureFields:
    """The four pure-assignment CDF rows of one matrix on one point set.

    Every mixture value, expansion field, field gap and reconstruction is
    a fixed weight vector over these rows (ordered as ASSIGNMENTS).  Each
    row is computed by ``pure_cdf_batch`` the first time a nonzero weight
    reads it, so a level-zero mixture runs only the Gaussian kernel.  A row
    that an instance on the same matrix, laws and equal points computed
    recently is read back instead: the module keeps the last 12 rows
    computed, up to 1 MiB in all; a larger row stays only here.  The
    points, an (n, 2) array or an ``EvalGrid``, are copied at construction
    and hashed when a row is first read, unless they are a grid, whose
    read-only points and digest are used as they are; rows are read-only.
    """

    def __init__(self, m, points, xi=CENTERED_EXPONENTIAL, zeta=STANDARD_NORMAL):
        self.m = as_matrix(m)
        # a grid's read-only points, or a private copy, so that every row
        # belongs to the points the key names
        self._grid = points if isinstance(points, EvalGrid) else None
        if self._grid is not None:
            self.points = self._grid.points
        else:
            self.points = np.array(points, dtype=float, order="C")
            self.points.setflags(write=False)
        self._comps = assignment_comps(xi, zeta)
        self._rows: list[np.ndarray | None] = [None] * len(ASSIGNMENTS)
        self._key = None

    def row(self, a: int) -> np.ndarray:
        if self._rows[a] is None:
            if self._key is None:
                # bytes, not the dataclass: -0.0 and 0.0 entries stay apart
                self._key = (
                    self.m.as_array().tobytes(),
                    self.points.shape,
                    self._grid.digest if self._grid is not None
                    else hashlib.sha1(self.points).digest(),
                )
            key = (*self._key, self._comps[a])
            with _ROW_CACHE_LOCK:
                row = _ROW_CACHE.get(key)
                if row is not None:
                    _ROW_CACHE.move_to_end(key)
            if row is None:
                row = pure_cdf_batch(self.m, self._comps[a], self.points)
                row.setflags(write=False)
                if row.nbytes <= _ROW_CACHE_BYTES:
                    with _ROW_CACHE_LOCK:
                        _ROW_CACHE[key] = row
                        while len(_ROW_CACHE) > _ROW_CACHE_ROWS or (
                            sum(r.nbytes for r in _ROW_CACHE.values()) > _ROW_CACHE_BYTES
                        ):
                            _ROW_CACHE.popitem(last=False)
            self._rows[a] = row
        return self._rows[a]

    def combine(self, weights) -> np.ndarray:
        """sum_a weights[a] * row(a), skipping zero weights, in row order."""
        return weighted_rows(weights, self.row, self.points.shape[0])

    def mixture(self, beta: float) -> np.ndarray:
        """P(A e <= x) with coordinates i.i.d. beta*xi + (1-beta)*zeta."""
        return self.combine(mixture_weights(beta))


# nodes per axis of a bracket table, -inf and +inf included
_BRACKET_NODES = 256
# node spread: axis i has nodes 1.2 * sigma_i * artanh(v), v uniform on [-1, 1]
_BRACKET_SPREAD = 1.2
# widens every bracket; the kernels' rows decrease by at most 2.2e-16
# between thresholds q <= q' (tests hold them to 1e-12)
_BRACKET_SLACK = 1e-9


class BracketTable:
    """The four pure-assignment rows of one matrix on a node grid, for
    bounds on its mixture CDF by monotonicity.

    Axis i has ``_BRACKET_NODES`` nodes c sigma_i artanh(v), v uniform on
    [-1, 1] (so -inf and +inf at the ends, denser in the bulk), with
    sigma_i = sqrt((A A^t)_ii) and c = 1.2.  A CDF is non-decreasing in each
    coordinate, so for a point in the cell [x_a, x_a+1) x [y_b, y_b+1) a
    nonnegative weighting of the rows lies between its values at (x_a, y_b)
    and (x_a+1, y_b+1).  The same kernels compute the table and any exact
    value it brackets, so only their monotonicity defect matters, which
    ``_BRACKET_SLACK`` covers.  A row is computed by ``pure_cdf_batch`` when
    a nonzero weight first reads it, so level one builds the all-exponential
    row alone.  The rows are the columns of one array, so that a point's four
    values are read together.
    """

    def __init__(self, m, xi=CENTERED_EXPONENTIAL, zeta=STANDARD_NORMAL):
        self.m = as_matrix(m)
        self._scale = _BRACKET_SPREAD * np.sqrt(np.diag(self.m.aat()))
        with np.errstate(divide="ignore"):
            self.nodes = self._scale[:, None] * np.arctanh(np.linspace(-1.0, 1.0, _BRACKET_NODES))
        self._comps = assignment_comps(xi, zeta)
        # assignment a's row in column a, x node major; zero until read
        self._rows = np.zeros((_BRACKET_NODES**2, len(ASSIGNMENTS)))
        self._read = [False] * len(ASSIGNMENTS)

    def cells(self, points) -> np.ndarray:
        """Flat index a K + b of the lower-left node of each finite point's
        cell, x_a <= x < x_a+1 and y_b <= y < y_b+1 exactly."""
        pts = np.asarray(points, dtype=float)
        if not np.isfinite(pts).all():
            raise ValueError("bracket cells need finite points")
        k = []
        for x, nodes, scale in zip(np.ascontiguousarray(pts.T), self.nodes, self._scale):
            # the inverse of the node map; the points its rounding puts in a
            # neighbouring cell are searched
            ka = ((np.tanh(x / scale) + 1.0) * ((_BRACKET_NODES - 1) / 2.0)).astype(np.intp)
            np.minimum(ka, _BRACKET_NODES - 2, out=ka)
            off = (x < nodes.take(ka)) | (x >= nodes.take(ka + 1))
            if off.any():
                ka[off] = np.searchsorted(nodes, x[off], side="right") - 1
            k.append(ka)
        return k[0] * _BRACKET_NODES + k[1]

    def bracket(self, weights, points) -> tuple[np.ndarray, np.ndarray]:
        """Bounds lo <= sum_a weights[a] * P_a(A e <= x) <= hi at each finite
        point, for nonnegative weights, widened by ``_BRACKET_SLACK``."""
        for a in np.flatnonzero(weights):
            if not self._read[a]:
                x, y = np.meshgrid(*self.nodes, indexing="ij")
                nodes = np.column_stack([x.ravel(), y.ravel()])
                self._rows[:, a] = pure_cdf_batch(self.m, self._comps[a], nodes)
                self._read[a] = True
        cell = self.cells(points)
        # the cell's lower-left node, then its upper-right one
        lo, hi = (self._rows.take(at, axis=0) @ weights for at in (cell, cell + _BRACKET_NODES + 1))
        return lo - _BRACKET_SLACK, hi + _BRACKET_SLACK


def bracket_table(m, xi=CENTERED_EXPONENTIAL, zeta=STANDARD_NORMAL) -> BracketTable:
    """This process's ``BracketTable`` of matrix m under (xi, zeta): the
    tables of the last two targets asked for are kept."""
    # bytes, not the dataclass: -0.0 and 0.0 entries stay apart
    return _bracket_table(as_matrix(m).as_array().tobytes(), xi, zeta)


@functools.lru_cache(maxsize=2)
def _bracket_table(entries: bytes, xi, zeta) -> BracketTable:
    return BracketTable(np.frombuffer(entries).reshape(2, 2), xi, zeta)


def mixture_cdf_batch(
    m,
    beta: float,
    points,
    xi: ComponentLaw = CENTERED_EXPONENTIAL,
    zeta: ComponentLaw = STANDARD_NORMAL,
    method: str = "closed",
) -> np.ndarray:
    """Mixture CDF over an (n, 2) point array or an ``EvalGrid``.

    ``method`` accepts only "closed"; it stays so that callers passing
    ``method="closed"`` keep working.  The quadrature reference is
    ``mixident.oracles.quad_mixture_cdf``.
    """
    if method != "closed":
        raise ValueError(f"unknown method {method!r}; quadrature is mixident.oracles")
    return PureFields(m, points, xi, zeta).mixture(beta)


def mixture_pushforward_cdf(m, beta: float, x, xi=CENTERED_EXPONENTIAL, zeta=STANDARD_NORMAL) -> float:
    """P(A e <= x) with coordinates i.i.d. beta*xi + (1-beta)*zeta."""
    return float(mixture_cdf_batch(m, beta, [x], xi, zeta)[0])
