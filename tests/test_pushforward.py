"""Tests for the exact two-dimensional pushforward CDF engine."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, dblquad, quad
from scipy.special import ndtr

from mixident.laws import (
    _SLICE_POINTS,
    CENTERED_EXPONENTIAL,
    STANDARD_EXPONENTIAL,
    STANDARD_NORMAL,
    RngStream,
)
from mixident.oracles import (
    oracle_cdf_mc,
    oracle_cdf_quad2d,
    quad_mixture_cdf,
    quad_pure_cdf,
)
import mixident.pushforward as pushforward
from mixident.pushforward import (
    ASSIGNMENTS,
    EvalGrid,
    MixingMatrix2,
    PureFields,
    _j_exp_expfactor,
    _sort_rows,
    as_matrix,
    assignment_comps,
    bvn_cdf_batch,
    equal_product_pair,
    mixture_cdf_batch,
    mixture_pushforward_cdf,
    mixture_weights,
    pure_cdf_batch,
)

N = STANDARD_NORMAL
E = CENTERED_EXPONENTIAL
U = STANDARD_EXPONENTIAL

# Frozen reference values for the worked mixing matrix
# A = [[1, 0], [0.4, sqrt(0.84)]] at threshold x = (0.3, -0.2), computed
# independently at 30 significant digits (mpmath, single 1-D reduction
# using the triangular structure).
WORKED_X = (0.3, -0.2)
WORKED_PURE = {
    (N, N): 0.3203099069173723,
    (E, N): 0.3621925250334145,
    (N, E): 0.39356571306280829,
    (E, E): 0.45491049517808717,
    (U, N): 0.10099183111200913,
}
WORKED_MIX_03 = 0.35660302895574706
BVN_ORIGIN_04 = 0.31549494021722731  # 1/4 + asin(0.4) / (2 pi)
EE_ORIGIN = 0.39957640089372805  # (1 - e^{-1})^2

LAW_PAIRS = [(N, N), (E, N), (N, E), (E, E), (U, N), (N, U), (U, U)]


def worked_matrix() -> MixingMatrix2:
    return equal_product_pair(0.4)[0]


def random_invertible(rng: np.random.Generator, scale: float = 1.0) -> MixingMatrix2:
    while True:
        a = rng.normal(size=(2, 2)) * scale
        if abs(np.linalg.det(a)) > 0.05:
            return MixingMatrix2(a[0, 0], a[0, 1], a[1, 0], a[1, 1])


# ---------------------------------------------------------------------------
# mixing matrices


def test_matrix_rejects_singular():
    with pytest.raises(ValueError):
        MixingMatrix2(1.0, 2.0, 2.0, 4.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_matrix_rejects_non_finite_entries(bad):
    for at in range(4):
        entries = [1.0, 0.0, 0.0, 1.0]
        entries[at] = bad
        name = ("a11", "a12", "a21", "a22")[at]
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MixingMatrix2(*entries)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            as_matrix(np.reshape(entries, (2, 2)))


def test_matrix_array_round_trip():
    m = MixingMatrix2(1.0, 0.5, -0.25, 2.0)
    np.testing.assert_array_equal(as_matrix(m.as_array()).as_array(), m.as_array())
    assert as_matrix(m) is m


def test_equal_product_pair_products_match():
    for alpha in (0.0, 0.25, 0.4, -0.6, 0.9):
        a, b = equal_product_pair(alpha)
        target = np.array([[1.0, alpha], [alpha, 1.0]])
        np.testing.assert_allclose(a.aat(), target, atol=1e-15)
        np.testing.assert_allclose(b.aat(), target, atol=1e-15)
        if alpha != 0.0:
            assert not np.allclose(a.as_array(), b.as_array())


def test_equal_product_pair_rejects_degenerate():
    with pytest.raises(ValueError):
        equal_product_pair(1.0)
    with pytest.raises(ValueError):
        equal_product_pair(-1.2)


# ---------------------------------------------------------------------------
# bivariate normal CDF


def test_bvn_anchor_at_origin():
    assert abs(bvn_cdf_batch([0.0], [0.0], 0.4)[0] - BVN_ORIGIN_04) < 1e-14


def test_bvn_arcsine_identity():
    # closed form at the origin for every correlation
    for r in np.linspace(-0.95, 0.95, 39):
        want = 0.25 + math.asin(r) / (2.0 * math.pi)
        assert abs(bvn_cdf_batch([0.0], [0.0], float(r))[0] - want) < 1e-14


def test_bvn_independent_case_factorizes():
    rng = np.random.default_rng(5150)
    h = rng.normal(size=50)
    k = rng.normal(size=50)
    from scipy.special import ndtr

    np.testing.assert_allclose(bvn_cdf_batch(h, k, 0.0), ndtr(h) * ndtr(k), atol=1e-15)


def test_bvn_against_generic_quadrature():
    # fully independent check: direct 2-D integration of the density
    def density(y, x, r):
        det = 1.0 - r * r
        q = (x * x - 2.0 * r * x * y + y * y) / det
        return math.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))

    rng = np.random.default_rng(99)
    for _ in range(6):
        h, k = rng.normal(size=2)
        r = float(rng.uniform(-0.9, 0.9))
        want, err = dblquad(density, -8.0, h, -8.0, k, args=(r,), epsabs=1e-12)
        assert abs(bvn_cdf_batch([h], [k], r)[0] - want) < 1e-10


def test_bvn_high_correlation_branch():
    # |r| > 0.925 switches integration variable; compare to quadrature
    def density(y, x, r):
        det = 1.0 - r * r
        q = (x * x - 2.0 * r * x * y + y * y) / det
        return math.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))

    for h, k, r in [(0.3, -0.2, 0.98), (0.0, 0.5, -0.97), (1.0, 1.2, 0.999)]:
        want, err = dblquad(density, -8.0, h, -8.0, k, args=(r,), epsabs=1e-12)
        assert abs(bvn_cdf_batch([h], [k], r)[0] - want) < 1e-9


def _bvn_quad(h: float, k: float, r: float) -> float:
    """P(Z1 <= h, Z2 <= k) as the 1-D integral of phi(t) Phi((k - r t) / s)
    over t <= h, with breakpoints across the step at t = k / r, whose width
    is s / |r| for s = sqrt(1 - r^2): adaptive panels miss a thinner layer."""
    s = math.sqrt((1.0 - r) * (1.0 + r))

    def f(t):
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * ndtr((k - r * t) / s)

    lo = -9.0  # phi mass below is under 1e-18
    if h <= lo:
        return 0.0
    layer = k / r + np.arange(-10, 11) * (s / abs(r))
    points = [t for t in layer if lo < t < h] or None
    val, _ = quad(f, lo, h, points=points, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


BVN_AXIS = np.linspace(-6.0, 6.0, 41)
BVN_GRID = np.stack(np.meshgrid(BVN_AXIS, BVN_AXIS), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("r", [0.93, 0.9999, 0.999997, -0.999997])
def test_bvn_high_correlation_grid_matches_quadrature(r):
    # the branch drops lanes whose exponent sits below its np.where threshold;
    # on this grid most lanes at |r| near 1 are dropped ones
    got = bvn_cdf_batch(BVN_GRID[:, 0], BVN_GRID[:, 1], r)
    want = np.array([_bvn_quad(h, k, r) for h, k in BVN_GRID])
    assert np.max(np.abs(got - want)) < 1e-9


def test_bvn_high_correlation_batch_equals_scalar():
    r = 0.999997
    batch = bvn_cdf_batch(BVN_GRID[:, 0], BVN_GRID[:, 1], r)
    scalar = np.array([bvn_cdf_batch([float(h)], [float(k)], r)[0] for h, k in BVN_GRID])
    np.testing.assert_array_equal(batch, scalar)


def test_high_correlation_rows_are_quiet_far_in_the_tails():
    # correlation 0.995: thresholds of opposite sign with h k below -1419
    # sit on lanes the branch drops, whose exponent must not overflow (the
    # suite makes that RuntimeWarning an error)
    m = MixingMatrix2(1.0, 0.0, 0.99, 0.1)
    sigma = np.sqrt(np.diag(m.aat()))
    t = np.geomspace(1.0, 1e3, 31)
    row = pure_cdf_batch(m, (N, N), np.column_stack([np.r_[t, -t], np.r_[-t, t]]))
    # one coordinate far below, the other far above: the lower margin
    np.testing.assert_allclose(row, np.r_[ndtr(-t / sigma[1]), ndtr(-t)], rtol=0, atol=1e-12)


def test_bvn_infinite_thresholds_take_their_limits():
    x = np.array([-1.3, 0.0, 0.7])
    inf = np.full(3, np.inf)
    for r in (0.4, -0.97):
        np.testing.assert_array_equal(bvn_cdf_batch(inf, x, r), ndtr(x))
        np.testing.assert_array_equal(bvn_cdf_batch(x, inf, r), ndtr(x))
        np.testing.assert_array_equal(bvn_cdf_batch(-inf, x, r), np.zeros(3))
        np.testing.assert_array_equal(bvn_cdf_batch(x, -inf, r), np.zeros(3))
        assert bvn_cdf_batch([np.inf], [np.inf], r)[0] == 1.0
        assert bvn_cdf_batch([np.inf], [-np.inf], r)[0] == 0.0
        # finite lanes do not change when infinite lanes join the batch
        h = np.array([0.3, np.inf, -0.2])
        k = np.array([-0.4, 0.5, np.inf])
        np.testing.assert_array_equal(bvn_cdf_batch(h, k, r)[0], bvn_cdf_batch([0.3], [-0.4], r)[0])


def test_bvn_batch_matches_scalar():
    rng = np.random.default_rng(17)
    h = rng.normal(size=20)
    k = rng.normal(size=20)
    batch = bvn_cdf_batch(h, k, 0.6)
    scalar = np.array([bvn_cdf_batch([float(a)], [float(b)], 0.6)[0] for a, b in zip(h, k)])
    np.testing.assert_array_equal(batch, scalar)


def test_bvn_rejects_degenerate_correlation():
    with pytest.raises(ValueError):
        bvn_cdf_batch([0.0], [0.0], 1.0)


# |det| near the 1e-12 floor: the Gaussian pair's correlation rounds to +-1
NEAR_SINGULAR = [
    (1.0, 1.0, 1.0, 1.0 + 1e-10),
    (1.0, 1.0, -1.0, -1.0 - 1e-10),
    (2.0, -3.0, -4.0, 6.0 + 5e-11),
]


@pytest.mark.parametrize("entries", NEAR_SINGULAR)
def test_near_singular_matrices_match_quadrature(entries):
    m = MixingMatrix2(*entries)
    cov = m.aat()
    assert abs(cov[0, 1] / (math.sqrt(cov[0, 0]) * math.sqrt(cov[1, 1]))) == 1.0
    inf = math.inf
    pts = np.array([
        (0.1, 0.2), (-0.3, 0.5), (1.0, -1.0), (0.0, 0.0), (2.5, 2.0),
        (inf, 0.3), (0.3, inf), (-inf, 0.2), (0.4, -inf), (inf, inf),
    ])
    for comps in ((N, N), (E, N), (N, E), (E, E)):
        got = pure_cdf_batch(m, comps, pts)
        want = [quad_pure_cdf(m, comps, x) for x in pts]
        assert np.max(np.abs(got - want)) < 1e-10, comps


# ---------------------------------------------------------------------------
# pure pushforward anchors


def test_gaussian_pair_reduces_to_bvn():
    m = worked_matrix()
    got = pure_cdf_batch(m, (N, N), [(0.0, 0.0)])[0]
    assert abs(got - BVN_ORIGIN_04) < 1e-14


def test_identity_exponential_pair_factorizes():
    got = pure_cdf_batch(np.eye(2), (E, E), [(0.0, 0.0)])[0]
    assert abs(got - EE_ORIGIN) < 1e-12


@pytest.mark.parametrize("method", ["quad", "closed"])
def test_worked_matrix_anchors(method):
    m = worked_matrix()
    for comps, want in WORKED_PURE.items():
        if method == "quad":
            got = quad_pure_cdf(m, comps, WORKED_X)
        else:
            got = pure_cdf_batch(m, comps, [WORKED_X])[0]
        assert abs(got - want) < 1e-10, (comps, method)


def test_tail_limits():
    m = worked_matrix()
    for comps in LAW_PAIRS:
        assert pure_cdf_batch(m, comps, [(40.0, 40.0)])[0] > 1.0 - 1e-10
        assert pure_cdf_batch(m, comps, [(-40.0, 40.0)])[0] < 1e-10


def test_below_support_is_exactly_zero():
    # first row of the identity maps e_1 through; mass below the support
    # edge of the exponential is zero, not merely small
    got = pure_cdf_batch(np.eye(2), (E, N), [(-1.5, 0.0)])[0]
    assert got == 0.0


# ---------------------------------------------------------------------------
# closed form versus quadrature


def test_closed_matches_quad_random_matrices():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(40):
        m = random_invertible(rng)
        x = rng.normal(size=2) * 1.5
        for comps in LAW_PAIRS:
            a = pure_cdf_batch(m, comps, [x])[0]
            b = quad_pure_cdf(m, comps, x)
            worst = max(worst, abs(a - b))
    assert worst < 1e-9


def test_closed_matches_quad_extreme_scales():
    # row scales spanning three orders of magnitude exercise the
    # boundary-layer handling in both paths
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(25):
        a = rng.normal(size=(2, 2))
        a[0] *= 10.0 ** rng.uniform(-1.5, 1.5)
        a[1] *= 10.0 ** rng.uniform(-1.5, 1.5)
        if abs(np.linalg.det(a)) < 1e-4:
            continue
        m = as_matrix(a)
        x = rng.normal(size=2) * np.abs(a).sum(axis=1)
        for comps in LAW_PAIRS[:4]:
            va = pure_cdf_batch(m, comps, [x])[0]
            vb = quad_pure_cdf(m, comps, x)
            worst = max(worst, abs(va - vb))
    assert worst < 5e-8


@st.composite
def _steep_cases(draw):
    """An invertible matrix with row scales 0.1 to 1e3 and row slopes
    |a_i1 / a_i2| from 1e-3 to 1e3 (near-triangular rows at the ends), and
    a threshold in [-6, 6]^2."""
    sign = st.sampled_from([-1.0, 1.0])
    rows = []
    for _ in range(2):
        a1 = draw(sign) * 10.0 ** draw(st.floats(-1.0, 3.0))
        slope = draw(sign) * 10.0 ** draw(st.floats(-3.0, 3.0))
        rows.append((a1, a1 / slope))
    a = np.array(rows)
    assume(np.linalg.cond(a) < 1e4)
    return as_matrix(a), np.array([draw(st.floats(-6.0, 6.0)) for _ in range(2)])


@settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_steep_cases())
def test_closed_matches_quad_on_steep_and_near_triangular_matrices(case):
    m, x = case
    axis = np.linspace(-6.0, 6.0, 9)
    square = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    for comps in [(E, N), (N, E), (E, E)]:
        assert np.all(np.isfinite(pure_cdf_batch(m, comps, square)))
        closed = pure_cdf_batch(m, comps, [x])[0]
        assert abs(closed - quad_pure_cdf(m, comps, x)) < 1e-8


def test_closed_form_finite_on_steep_rows():
    # the exponential kernel once returned NaN when its leading factor
    # underflowed while its growth factor overflowed
    near = MixingMatrix2(1.0, 0.0, 0.4, 0.001)
    axis = np.linspace(-6.0, 6.0, 41)
    pts = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    for m in (near, MixingMatrix2(1000.0, 1.0, 0.8, -1.4)):
        for beta in (0.05, 0.3):
            assert np.all(np.isfinite(mixture_cdf_batch(m, beta, pts)))
    got = pure_cdf_batch(near, (E, E), [(2.0, 2.0)])[0]
    assert got == pytest.approx(quad_pure_cdf(near, (E, E), (2.0, 2.0)), abs=1e-10)


def test_exp_factor_slopes_near_zero_use_the_flat_integrand():
    # |w| < 1e-14 on either side of zero: the integrand is the constant e^{s1-c}
    g = np.array([-1.0 - 4e-15, -1.0 + 4e-15])
    got = _j_exp_expfactor(0.0, np.zeros(2), np.full(2, 2.0), np.full(2, 0.5), g)
    np.testing.assert_array_equal(got, np.full(2, math.exp(-0.5) * 2.0))


def test_triangular_columns():
    # zero entries in the second column make one constraint a pure bound
    # on e_1; both paths must agree.  At a12 = +-1e-15 the steep layer of
    # the first row is a few doubles wide, and the oracle integrates it
    # without an IntegrationWarning.
    for a in ([[1.0, 0.0], [0.4, 1.0]], [[0.7, 1.2], [0.5, 0.0]],
              [[1.0, 1e-15], [0.4, 1.0]], [[1.0, -1e-15], [0.4, 1.0]]):
        m = as_matrix(np.array(a))
        for comps in [(E, N), (N, E), (E, E)]:
            va = pure_cdf_batch(m, comps, [(0.4, -0.3)])[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error", IntegrationWarning)
                vb = quad_pure_cdf(m, comps, (0.4, -0.3))
            assert abs(va - vb) < 1e-10


# matrices reaching every branch of the piecewise closed form; None stands
# for a random matrix
BRANCH_MATRICES = {
    "random": None,
    "A": worked_matrix(),  # a zero-entry row plus one upper bound
    "B": equal_product_pair(0.4)[1],  # two upper bounds, one with slope 0
    "upper-lower": MixingMatrix2(0.7, 1.2, 0.5, -0.9),
    "two-lower": MixingMatrix2(0.7, -1.2, -0.5, -0.9),
    "near-triangular": MixingMatrix2(1.0, 0.0, 0.4, 0.001),
    "steep": MixingMatrix2(1000.0, 1.0, 0.8, -1.4),
}


@pytest.mark.parametrize("name", list(BRANCH_MATRICES))
def test_batch_equals_scalar_loop(name):
    # a lane's value does not depend on the batch it is evaluated in
    rng = np.random.default_rng(31337)
    m = random_invertible(rng)
    m = BRANCH_MATRICES[name] or m
    inf = np.inf
    pts = np.vstack([
        rng.normal(size=(25, 2)) * 2.0,
        [(inf, 0.3), (-0.4, inf), (-inf, 0.2), (0.5, -inf), (inf, inf), (-inf, inf), (inf, -inf)],
    ])
    for comps in LAW_PAIRS:
        batch = pure_cdf_batch(m, comps, pts)
        scalar = np.array(
            [pure_cdf_batch(m, comps, [p])[0] for p in pts]
        )
        np.testing.assert_array_equal(batch, scalar)


def test_long_batches_run_in_slices(traced_peak):
    # a batch of eight slices and a bit equals its pieces cut elsewhere,
    # bit for bit, and holds the temporaries of one slice at a time: in one
    # piece they take about 200 bytes a point, 26 MB here
    rng = np.random.default_rng(4242)
    pts = rng.normal(size=(8 * _SLICE_POINTS + 5, 2)) * 2.0
    cut = _SLICE_POINTS // 2 + 7
    m = worked_matrix()
    for comps in ((N, N), (E, N)):
        pieces = [pure_cdf_batch(m, comps, pts[:cut]), pure_cdf_batch(m, comps, pts[cut:])]
        np.testing.assert_array_equal(pure_cdf_batch(m, comps, pts), np.concatenate(pieces))
    assert traced_peak(pure_cdf_batch, m, (E, N), pts) < 12 * 2**20


def test_batch_validates_shape():
    with pytest.raises(ValueError):
        pure_cdf_batch(worked_matrix(), (N, N), np.zeros(3))


def _marginal_quad(a1: float, a2: float, comps, x: float) -> float:
    """P(a1 e1 + a2 e2 <= x) by 1-D quadrature over e1."""
    law1, law2 = comps
    if a2 == 0.0:
        p = law1.cdf(x / a1)
        return p if a1 > 0.0 else 1.0 - p

    def density(t):
        if law1.is_gaussian:
            return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        return math.exp(-(t - law1.shift))

    def f(t):
        p = law2.cdf((x - a1 * t) / a2)
        return density(t) * (p if a2 > 0.0 else 1.0 - p)

    lo, hi = (-12.0, 12.0) if law1.is_gaussian else (law1.shift, law1.shift + 60.0)
    # the kink of an exponential e2's CDF, where its argument meets the support
    kink = None if law2.is_gaussian or a1 == 0.0 else (x - a2 * law2.shift) / a1
    points = [kink] if kink is not None and lo < kink < hi else None
    val, _ = quad(f, lo, hi, points=points, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


INF_MATRICES = [
    worked_matrix(),
    equal_product_pair(0.4)[1],
    MixingMatrix2(0.7, -1.2, 0.5, 0.9),
    MixingMatrix2(-0.7, 1.2, 0.5, -0.9),
    MixingMatrix2(1.0, 0.0, 0.4, 0.001),
]


@pytest.mark.parametrize("m", INF_MATRICES, ids=["A", "B", "general", "flipped", "near-triangular"])
@pytest.mark.parametrize("comps", [(N, N), (E, N), (N, E), (E, E)], ids=["NN", "EN", "NE", "EE"])
def test_infinite_thresholds_give_the_marginals(m, comps):
    inf = np.inf
    xs = (-0.7, 0.3)
    pts = [(inf, x) for x in xs] + [(x, inf) for x in xs]
    pts += [(-inf, x) for x in xs] + [(x, -inf) for x in xs]
    pts += [(inf, inf), (-inf, -inf), (inf, -inf), (-inf, inf)]
    want = [_marginal_quad(m.a21, m.a22, comps, x) for x in xs]
    want += [_marginal_quad(m.a11, m.a12, comps, x) for x in xs]
    want += [0.0] * 4 + [1.0, 0.0, 0.0, 0.0]
    got = pure_cdf_batch(m, comps, pts)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
    assert np.all(got[4:8] == 0.0) and got[8] == 1.0
    # finite lanes do not change when infinite lanes join the batch
    finite = [(0.3, -0.2), (-1.1, 0.8)]
    mixed = pure_cdf_batch(m, comps, [pts[0], finite[0], pts[5], finite[1], pts[8]])
    np.testing.assert_array_equal(mixed[[1, 3]], pure_cdf_batch(m, comps, finite))


@pytest.mark.parametrize("comps", [(N, N), (E, N), (N, E), (E, E)], ids=["NN", "EN", "NE", "EE"])
def test_nan_threshold_raises(comps):
    with pytest.raises(ValueError, match="NaN"):
        pure_cdf_batch(worked_matrix(), comps, [[np.nan, 0.1]])
    with pytest.raises(ValueError, match="NaN"):
        pure_cdf_batch(worked_matrix(), comps, [[0.2, 0.3], [0.1, np.nan]])


def test_mixture_rejects_nan_threshold():
    with pytest.raises(ValueError, match="NaN"):
        mixture_cdf_batch(worked_matrix(), 0.3, [[0.1, 0.2], [np.nan, 0.1]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_engine_value_raises(monkeypatch, bad):
    def broken(m, comps, x):
        out = np.full(x.shape[0], 0.5)
        out[-1] = bad
        return out

    monkeypatch.setattr(pushforward, "_closed_pair_batch", broken)
    with pytest.raises(ValueError, match="non-finite"):
        pure_cdf_batch(worked_matrix(), (E, N), [[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ValueError, match="non-finite"):
        mixture_cdf_batch(worked_matrix(), 0.3, [[0.1, 0.2]])


# ---------------------------------------------------------------------------
# monotonicity: the bracket table's assumption


@st.composite
def _monotone_cases(draw):
    """A random, steep, near-triangular or near-singular matrix, a
    contaminant, and 200 threshold pairs q <= q' (offsets 1e-12 to 1 per
    coordinate, or none), some coordinates at -inf (q) or +inf (q')."""
    kind = draw(st.sampled_from(["random", "steep", "near-triangular", "near-singular"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sign = rng.choice([-1.0, 1.0], size=(2, 2))
    if kind == "random":
        m = random_invertible(rng)
    elif kind == "steep":
        a1 = sign[:, 0] * 10.0 ** rng.uniform(-1.0, 3.0, 2)
        m = as_matrix(np.column_stack([a1, a1 / (sign[:, 1] * 10.0 ** rng.uniform(-3.0, 3.0, 2))]))
    elif kind == "near-triangular":
        off = sign[0, 0] * 10.0 ** rng.uniform(-15.0, -6.0)
        m = MixingMatrix2(rng.uniform(0.5, 2.0), off, rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
    else:
        a, b = rng.uniform(0.5, 2.0, 2) * sign[0]
        m = MixingMatrix2(a, b, a, b * (1.0 + 10.0 ** rng.uniform(-10.0, -6.0)))
    sigma = np.sqrt(np.diag(m.aat()))
    q = rng.uniform(-5.0, 5.0, size=(200, 2)) * sigma
    step = 10.0 ** rng.uniform(-12.0, 0.0, size=(200, 2)) * sigma
    q_hi = q + np.where(rng.random((200, 2)) < 0.2, 0.0, step)
    q = np.where(rng.random((200, 2)) < 0.05, -np.inf, q)
    q_hi = np.where(rng.random((200, 2)) < 0.05, np.inf, q_hi)
    return m, draw(st.sampled_from([E, U])), q, q_hi


@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_monotone_cases())
def test_pure_rows_are_monotone_in_each_coordinate(case):
    # the bracket of montecarlo._rep_block reads the rows at the nodes around
    # a corner, so each row may decrease by no more than its slack of 1e-9
    # between q <= q'; the kernels are held to 1e-12
    m, xi, q, q_hi = case
    assert np.all(q <= q_hi)
    for comps in assignment_comps(xi, N):
        low, high = pure_cdf_batch(m, comps, q), pure_cdf_batch(m, comps, q_hi)
        assert np.min(high - low) >= -1e-12, (m, comps)


def _bracket_points(table, rng):
    """Points in the bulk and tails, on nodes and just inside each side of
    a node cell."""
    inner = [nodes[1:-1] for nodes in table.nodes]
    k = rng.integers(0, len(inner[0]), size=(2, 300))
    on = np.column_stack([inner[0][k[0]], inner[1][k[1]]])
    sigma = np.sqrt(np.diag(table.m.aat()))
    pts = [rng.normal(size=(300, 2)) * 3.0 * sigma, rng.uniform(-12.0, 12.0, size=(40, 2)) * sigma, on]
    pts += [on + 1e-13, np.nextafter(on, -np.inf), on - 1e-13]
    return np.concatenate(pts)


@pytest.mark.parametrize("xi", [E, U], ids=["centered", "uncentered"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bracket_table_cells_and_bounds(xi, seed):
    rng = np.random.default_rng(seed)
    m = random_invertible(rng)
    table = pushforward.BracketTable(m, xi, N)
    x_nodes, y_nodes = table.nodes
    assert x_nodes[0] == y_nodes[0] == -np.inf and x_nodes[-1] == y_nodes[-1] == np.inf
    assert np.all(np.diff(x_nodes) > 0) and np.all(np.diff(y_nodes) > 0)
    pts = _bracket_points(table, rng)
    a, b = np.divmod(table.cells(pts), pushforward._BRACKET_NODES)
    assert np.all((x_nodes[a] <= pts[:, 0]) & (pts[:, 0] < x_nodes[a + 1]))
    assert np.all((y_nodes[b] <= pts[:, 1]) & (pts[:, 1] < y_nodes[b + 1]))
    for beta in (0.0, 0.3, 1.0):
        lo, hi = table.bracket(mixture_weights(beta), pts)
        exact = mixture_cdf_batch(m, beta, pts, xi=xi)
        assert np.all((lo <= exact) & (exact <= hi)), beta
    with pytest.raises(ValueError, match="finite"):
        table.cells([[0.1, np.inf]])


def test_bracket_slack_covers_a_monotonicity_defect(monkeypatch):
    # a kernel that dithers each value down by up to 1e-10 decreases by that
    # much between nearby thresholds; the slack keeps every value bracketed
    def dithered(m, comps, pts):
        finite = np.nan_to_num(pts, posinf=1.0, neginf=-1.0)
        return kernel(m, comps, pts) - 1e-10 * np.sin(finite @ [1e4, 3e4]) ** 2

    kernel = pure_cdf_batch
    monkeypatch.setattr(pushforward, "pure_cdf_batch", dithered)
    m = worked_matrix()
    table = pushforward.BracketTable(m)
    pts = _bracket_points(table, np.random.default_rng(4))
    weights = mixture_weights(0.3)
    lo, hi = table.bracket(weights, pts)
    exact = pushforward.weighted_rows(
        weights, lambda a: dithered(m, assignment_comps(E, N)[a], pts), len(pts)
    )
    assert np.all((lo <= exact) & (exact <= hi))


def test_bracket_tables_keep_the_last_two_targets():
    a, b = MixingMatrix2(1.0, 0.0, 0.1, 1.0), MixingMatrix2(1.0, 0.0, 0.2, 1.0)
    first = pushforward.bracket_table(a)
    assert pushforward.bracket_table(a) is first
    other = pushforward.bracket_table(a, U, N)
    assert other is not first
    pushforward.bracket_table(a)  # read again, so the latest
    pushforward.bracket_table(b)
    assert pushforward._bracket_table.cache_info().currsize == 2
    assert pushforward.bracket_table(a) is first
    assert pushforward.bracket_table(a, U, N) is not other
    # keyed by the entries' bytes: a -0.0 entry is another target
    assert pushforward.bracket_table(MixingMatrix2(1.0, -0.0, 0.1, 1.0)) is not first


@pytest.mark.parametrize("n_inner", [0, 1, 2, 3])
def test_interior_row_ordering_equals_sort(n_inner):
    # the breakpoint rows of the closed form: tlo, the candidates clipped to
    # [tlo, thi], thi; values from a small pool so that ties are common
    rng = np.random.default_rng(40 + n_inner)
    pool = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf])
    size = 4000
    tlo = rng.choice(pool, size)
    thi = np.maximum(rng.choice(pool, size), tlo)
    inner = [np.clip(rng.choice(pool, size), tlo, thi) for _ in range(n_inner)]
    want = np.sort(np.stack([tlo, *inner, thi]), axis=0)
    got = np.stack([tlo, *_sort_rows(list(inner)), thi])
    np.testing.assert_array_equal(got, want)


def test_monotone_in_each_threshold_coordinate():
    rng = np.random.default_rng(88)
    m = random_invertible(rng)
    for comps in [(E, N), (E, E), (N, E)]:
        xs = np.linspace(-4.0, 4.0, 41)
        along_1 = pure_cdf_batch(m, comps, np.column_stack([xs, np.full(41, 0.3)]))
        along_2 = pure_cdf_batch(m, comps, np.column_stack([np.full(41, 0.3), xs]))
        assert np.all(np.diff(along_1) >= -1e-12)
        assert np.all(np.diff(along_2) >= -1e-12)


def test_column_permutation_invariance():
    # swapping the matrix columns and the component pair relabels the
    # coordinates, so the CDF cannot change; the swapped side is the
    # quadrature oracle over its first coordinate, the Gaussian one for the
    # (E, N) and (U, N) pairs, a reduction the engine does not use
    rng = np.random.default_rng(404)
    for _ in range(10):
        m = random_invertible(rng)
        a = m.as_array()
        swapped = as_matrix(a[:, ::-1])
        x = rng.normal(size=2)
        for l1, l2 in [(E, N), (E, E), (U, N)]:
            v1 = pure_cdf_batch(m, (l1, l2), [x])[0]
            v2 = quad_pure_cdf(swapped, (l2, l1), x)
            assert abs(v1 - v2) < 1e-11


# the worked pair and the fixed matrices of the bench panel: well-conditioned,
# near-triangular (a22 = 0.001, 0.002) and steep (a11/a12 = 1e2, 1e3)
SWAP_MATRICES = {
    "A": worked_matrix(),
    "B": equal_product_pair(0.4)[1],
    "well-conditioned": MixingMatrix2(1.2, -0.4, 0.6, 1.1),
    "near-triangular-0.001": MixingMatrix2(1.0, 0.0, 0.4, 0.001),
    "near-triangular-0.002": MixingMatrix2(1.0, 0.0, 0.4, 0.002),
    "steep-1e2": MixingMatrix2(100.0, 1.0, 0.8, -1.4),
    "steep-1e3": MixingMatrix2(1000.0, 1.0, 0.8, -1.4),
}


@pytest.mark.parametrize("xi", [E, U], ids=["centered", "standard"])
@pytest.mark.parametrize("name", list(SWAP_MATRICES))
def test_gaussian_first_rows_integrate_over_the_exponential_coordinate(name, xi):
    # an NE row is, bit for bit, the EN row of the matrix with its columns swapped
    m = SWAP_MATRICES[name]
    swapped = as_matrix(m.as_array()[:, ::-1])
    axis = np.linspace(-4.0, 4.0, 17)
    inf = np.inf
    pts = np.vstack([
        np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2),
        [(inf, 0.3), (-0.7, inf), (-inf, 0.3), (0.3, -inf), (inf, inf), (-inf, inf)],
    ])
    np.testing.assert_array_equal(
        pure_cdf_batch(m, (N, xi), pts), pure_cdf_batch(swapped, (xi, N), pts)
    )


# ---------------------------------------------------------------------------
# mixtures


def test_mixture_weights_are_binomial():
    w = mixture_weights(0.3)
    np.testing.assert_allclose(w, [0.49, 0.21, 0.21, 0.09], atol=1e-15)
    assert abs(w.sum() - 1.0) < 1e-15
    np.testing.assert_array_equal(mixture_weights(0.0), [1.0, 0.0, 0.0, 0.0])


def test_mixture_anchor():
    m = worked_matrix()
    for got in (quad_mixture_cdf(m, 0.3, WORKED_X), mixture_pushforward_cdf(m, 0.3, WORKED_X)):
        assert abs(got - WORKED_MIX_03) < 1e-10


def test_mixture_degenerate_levels_match_pure():
    m = worked_matrix()
    x = (0.5, -0.1)
    assert mixture_pushforward_cdf(m, 0.0, x) == pure_cdf_batch(m, (N, N), [x])[0]
    got = mixture_pushforward_cdf(m, 1.0, x)
    want = pure_cdf_batch(m, (E, E), [x])[0]
    assert got == want


def test_mixture_validates_level():
    with pytest.raises(ValueError):
        mixture_pushforward_cdf(worked_matrix(), 1.5, (0.0, 0.0))
    with pytest.raises(ValueError):
        mixture_cdf_batch(worked_matrix(), -0.2, np.zeros((1, 2)))


def test_mixture_at_level_zero_runs_only_background_pair(monkeypatch):
    import mixident.pushforward as pushforward

    seen = []
    original = pushforward.pure_cdf_batch

    def recording(m, comps, points):
        seen.append(comps)
        return original(m, comps, points)

    monkeypatch.setattr(pushforward, "pure_cdf_batch", recording)
    pts = np.array([[0.3, -0.2], [1.0, 0.5]])
    got = mixture_cdf_batch(worked_matrix(), 0.0, pts)
    assert seen == [(N, N)]
    np.testing.assert_array_equal(got, original(worked_matrix(), (N, N), pts))


# ---------------------------------------------------------------------------
# the row cache shared by PureFields instances


@pytest.fixture
def kernel_calls(monkeypatch):
    """The component pairs of every ``pure_cdf_batch`` call, in order."""
    calls = []
    original = pushforward.pure_cdf_batch

    def counting(m, comps, points):
        calls.append(comps)
        return original(m, comps, points)

    monkeypatch.setattr(pushforward, "pure_cdf_batch", counting)
    return calls


def _cache_points():
    return np.random.default_rng(71).normal(size=(40, 2))


def test_cached_rows_and_mixtures_equal_direct_calls():
    m = worked_matrix()
    pts = _cache_points()
    direct = [pure_cdf_batch(m, comps, pts) for comps in assignment_comps(E, N)]
    for _ in range(2):  # the second pass reads every row from the cache
        fields = PureFields(m, pts)
        for a in range(len(ASSIGNMENTS)):
            np.testing.assert_array_equal(fields.row(a).view(np.int64), direct[a].view(np.int64))
    want = np.zeros(len(pts))
    for wa, row in zip(mixture_weights(0.3), direct):
        want += wa * row
    for _ in range(2):
        got = mixture_cdf_batch(m, 0.3, pts)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_equal_points_hit_the_cache(kernel_calls):
    m = worked_matrix()
    pts = _cache_points()
    first = PureFields(m, pts).row(1)
    assert PureFields(m, pts.copy()).row(1) is first
    assert PureFields(m, pts.tolist()).row(1) is first
    assert kernel_calls == [(E, N)]


def test_other_matrix_law_or_points_miss_the_cache(kernel_calls):
    m = worked_matrix()
    pts = _cache_points()
    base = PureFields(m, pts).row(1)
    other_m = PureFields(equal_product_pair(0.4)[1], pts).row(1)
    other_law = PureFields(m, pts, xi=U).row(1)
    nudged = pts.copy()
    nudged[7, 1] = np.nextafter(nudged[7, 1], np.inf)
    one_ulp = PureFields(m, nudged).row(1)
    assert kernel_calls == [(E, N), (E, N), (U, N), (E, N)]
    np.testing.assert_array_equal(one_ulp, pure_cdf_batch(m, (E, N), nudged))
    assert not np.array_equal(other_m, base)
    assert not np.array_equal(other_law, base)


def test_a_grid_is_hashed_once_and_shares_the_rows_of_equal_points(kernel_calls, monkeypatch):
    digests = []
    real = pushforward.hashlib.sha1
    monkeypatch.setattr(
        pushforward.hashlib, "sha1", lambda data: digests.append(len(data)) or real(data)
    )
    m = worked_matrix()
    pts = _cache_points()
    grid = EvalGrid(pts)
    pts[0, 0] += 1.0  # the grid keeps its own read-only copy
    assert grid.points[0, 0] == _cache_points()[0, 0] and not grid.points.flags.writeable
    rows = [PureFields(m, grid).row(1) for _ in range(3)]
    assert PureFields(m, grid).points is grid.points
    assert len(digests) == 1 and kernel_calls == [(E, N)]
    # the same key as an array of equal points, bit for bit
    assert PureFields(m, _cache_points()).row(1) is rows[0]
    assert all(row is rows[0] for row in rows) and len(kernel_calls) == 1
    np.testing.assert_array_equal(rows[0], pure_cdf_batch(m, (E, N), _cache_points()))
    np.testing.assert_array_equal(
        mixture_cdf_batch(m, 0.3, grid), mixture_cdf_batch(m, 0.3, _cache_points())
    )
    assert len(digests) == 3  # once per array instance, never the grid again


def test_mutated_caller_points_get_fresh_values():
    m = worked_matrix()
    pts = _cache_points()
    before = mixture_cdf_batch(m, 0.3, pts)
    fields = PureFields(m, pts)
    pts[:5] += 0.5
    after = mixture_cdf_batch(m, 0.3, pts)
    np.testing.assert_array_equal(after, PureFields(m, pts.copy()).mixture(0.3))
    assert not np.array_equal(after[:5], before[:5])
    np.testing.assert_array_equal(after[5:], before[5:])
    # an instance keeps the points it was built on
    np.testing.assert_array_equal(fields.mixture(0.3), before)


def test_cached_rows_are_read_only():
    fields = PureFields(worked_matrix(), _cache_points())
    row = fields.row(0)
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        fields.points[0, 0] = 0.5
    # a fresh instance on equal points reads the same unchanged row
    assert PureFields(worked_matrix(), _cache_points()).row(0) is row


def test_row_cache_stays_bounded():
    m = worked_matrix()
    for i in range(100):
        PureFields(m, [[0.01 * i, -0.2]]).row(0)
    assert len(pushforward._ROW_CACHE) <= 12


def test_row_cache_stays_bounded_in_bytes(kernel_calls):
    m = worked_matrix()
    # rows of 40 000 points take 320 000 B: three fit in 1 MiB, four do not
    for i in range(5):
        PureFields(m, np.full((40_000, 2), 0.1 * i)).row(0)
    assert len(pushforward._ROW_CACHE) == 3
    # a 200 000-point row (1.6 MB) stays only in its own instance and
    # evicts nothing
    pts = np.random.default_rng(72).normal(size=(200_000, 2))
    fields = PureFields(m, pts)
    row = fields.row(0)
    assert fields.row(0) is row
    assert [r.nbytes for r in pushforward._ROW_CACHE.values()] == [320_000] * 3
    calls = len(kernel_calls)
    np.testing.assert_array_equal(PureFields(m, pts).row(0), row)
    assert len(kernel_calls) == calls + 1


def test_row_cache_under_threads(monkeypatch):
    # more threads than cores, switching often, reading and evicting the
    # shared rows through a kernel stand-in that costs nothing, so that
    # lookups and updates interleave: each row must still be its own
    def code(comps):  # distinct for the four assignments
        return 10 * len(comps[0].kind.value) + len(comps[1].kind.value)

    def stand_in(m, comps, pts):
        return pts[:, 0] + code(comps)

    monkeypatch.setattr(pushforward, "pure_cdf_batch", stand_in)
    m = worked_matrix()
    point_sets = [np.array([[0.1 * i, 0.0]]) for i in range(13)]
    errors = []

    def work(offset):
        try:
            for k in range(2000):
                i, a = (offset + k) % len(point_sets), k % len(ASSIGNMENTS)
                fields = PureFields(m, point_sets[i])
                assert fields.row(a)[0] == 0.1 * i + code(assignment_comps(E, N)[a])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(pushforward._ROW_CACHE) <= 12


def test_mixture_batch_rejects_quadrature_method():
    with pytest.raises(ValueError, match="mixident.oracles"):
        mixture_cdf_batch(worked_matrix(), 0.3, np.zeros((1, 2)), method="quad")


def test_mixture_batch_matches_scalar():
    m = worked_matrix()
    rng = np.random.default_rng(55)
    pts = rng.normal(size=(15, 2))
    batch = mixture_cdf_batch(m, 0.25, pts)
    scalar = np.array(
        [mixture_pushforward_cdf(m, 0.25, p) for p in pts]
    )
    np.testing.assert_array_equal(batch, scalar)


def test_mixture_uncentered_variant_runs():
    m = worked_matrix()
    got = mixture_pushforward_cdf(m, 0.3, WORKED_X, xi=U)
    ref = quad_mixture_cdf(m, 0.3, WORKED_X, xi=U)
    assert abs(got - ref) < 1e-10
    # uncentered contaminant shifts mass right, lowering the CDF here
    assert got < mixture_pushforward_cdf(m, 0.3, WORKED_X)


# ---------------------------------------------------------------------------
# independent oracles


def test_agrees_with_2d_quadrature_oracle():
    m = worked_matrix()
    for beta, x in [(0.0, (0.3, -0.2)), (0.3, (0.3, -0.2)), (0.7, (-0.5, 1.0))]:
        want = oracle_cdf_quad2d(m, beta, x)
        got = mixture_pushforward_cdf(m, beta, x)
        assert abs(got - want) < 5e-8


def test_agrees_with_monte_carlo_oracle():
    rng_stream = RngStream(987654)
    n = 400_000
    cases = [
        (worked_matrix(), 0.3, (0.3, -0.2)),
        (as_matrix(np.array([[0.8, -0.5], [0.3, 1.1]])), 0.5, (0.2, 0.4)),
        (as_matrix(np.array([[1.0, 0.0], [0.0, 1.0]])), 0.1, (-0.3, 0.8)),
    ]
    for i, (m, beta, x) in enumerate(cases):
        p_hat = oracle_cdf_mc(m, beta, x, n, rng_stream.child(i).generator())
        p = mixture_pushforward_cdf(m, beta, x)
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(p_hat - p) < 5.0 * sigma
