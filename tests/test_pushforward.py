"""Tests for the exact two-dimensional pushforward CDF engine."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from mixident.laws import (
    CENTERED_EXPONENTIAL,
    STANDARD_EXPONENTIAL,
    STANDARD_NORMAL,
    RngStream,
)
from mixident.oracles import (
    QuadConfig,
    oracle_cdf_mc,
    oracle_cdf_quad2d,
    quad_mixture_cdf,
    quad_pure_cdf,
)
from mixident.pushforward import (
    MixingMatrix2,
    _j_exp_expfactor,
    as_matrix,
    bvn_cdf,
    bvn_cdf_batch,
    equal_product_pair,
    mixture_cdf_batch,
    mixture_pushforward_cdf,
    mixture_weights,
    pure_cdf_batch,
    pure_pushforward_cdf,
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
    assert abs(bvn_cdf(0.0, 0.0, 0.4) - BVN_ORIGIN_04) < 1e-14


def test_bvn_arcsine_identity():
    # closed form at the origin for every correlation
    for r in np.linspace(-0.95, 0.95, 39):
        want = 0.25 + math.asin(r) / (2.0 * math.pi)
        assert abs(bvn_cdf(0.0, 0.0, float(r)) - want) < 1e-14


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
        assert abs(bvn_cdf(h, k, r) - want) < 1e-10


def test_bvn_high_correlation_branch():
    # |r| > 0.925 switches integration variable; compare to quadrature
    def density(y, x, r):
        det = 1.0 - r * r
        q = (x * x - 2.0 * r * x * y + y * y) / det
        return math.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))

    for h, k, r in [(0.3, -0.2, 0.98), (0.0, 0.5, -0.97), (1.0, 1.2, 0.999)]:
        want, err = dblquad(density, -8.0, h, -8.0, k, args=(r,), epsabs=1e-12)
        assert abs(bvn_cdf(h, k, r) - want) < 1e-9


def test_bvn_batch_matches_scalar():
    rng = np.random.default_rng(17)
    h = rng.normal(size=20)
    k = rng.normal(size=20)
    batch = bvn_cdf_batch(h, k, 0.6)
    scalar = np.array([bvn_cdf(float(a), float(b), 0.6) for a, b in zip(h, k)])
    np.testing.assert_array_equal(batch, scalar)


def test_bvn_rejects_degenerate_correlation():
    with pytest.raises(ValueError):
        bvn_cdf(0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# pure pushforward anchors


def test_gaussian_pair_reduces_to_bvn():
    m = worked_matrix()
    got = pure_pushforward_cdf(m, (N, N), (0.0, 0.0))
    assert abs(got - BVN_ORIGIN_04) < 1e-14


def test_identity_exponential_pair_factorizes():
    got = pure_pushforward_cdf(MixingMatrix2.identity(), (E, E), (0.0, 0.0))
    assert abs(got - EE_ORIGIN) < 1e-12


@pytest.mark.parametrize("method", ["quad", "closed"])
def test_worked_matrix_anchors(method):
    m = worked_matrix()
    for comps, want in WORKED_PURE.items():
        if method == "quad":
            got = quad_pure_cdf(m, comps, WORKED_X)
        else:
            got = pure_pushforward_cdf(m, comps, WORKED_X)
        assert abs(got - want) < 1e-10, (comps, method)


def test_tail_limits():
    m = worked_matrix()
    for comps in LAW_PAIRS:
        assert pure_pushforward_cdf(m, comps, (40.0, 40.0)) > 1.0 - 1e-10
        assert pure_pushforward_cdf(m, comps, (-40.0, 40.0)) < 1e-10


def test_below_support_is_exactly_zero():
    # first row of the identity maps e_1 through; mass below the support
    # edge of the exponential is zero, not merely small
    got = pure_pushforward_cdf(MixingMatrix2.identity(), (E, N), (-1.5, 0.0))
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
            a = pure_pushforward_cdf(m, comps, x)
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
            va = pure_pushforward_cdf(m, comps, x)
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
        closed = pure_pushforward_cdf(m, comps, x)
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
    got = pure_pushforward_cdf(near, (E, E), (2.0, 2.0))
    assert got == pytest.approx(quad_pure_cdf(near, (E, E), (2.0, 2.0)), abs=1e-10)


def test_exp_factor_slopes_near_zero_use_the_flat_integrand():
    # |w| < 1e-14 on either side of zero: the integrand is the constant e^{s1-c}
    g = np.array([-1.0 - 4e-15, -1.0 + 4e-15])
    got = _j_exp_expfactor(0.0, np.zeros(2), np.full(2, 2.0), np.full(2, 0.5), g)
    np.testing.assert_array_equal(got, np.full(2, math.exp(-0.5) * 2.0))


def test_triangular_columns():
    # zero entries in the second column make one constraint a pure bound
    # on e_1; both paths must agree
    for a in ([[1.0, 0.0], [0.4, 1.0]], [[0.7, 1.2], [0.5, 0.0]]):
        m = as_matrix(np.array(a))
        for comps in [(E, N), (N, E), (E, E)]:
            va = pure_pushforward_cdf(m, comps, (0.4, -0.3))
            vb = quad_pure_cdf(m, comps, (0.4, -0.3))
            assert abs(va - vb) < 1e-10


def test_batch_equals_scalar_loop():
    rng = np.random.default_rng(31337)
    m = random_invertible(rng)
    pts = rng.normal(size=(25, 2)) * 2.0
    for comps in LAW_PAIRS:
        batch = pure_cdf_batch(m, comps, pts)
        scalar = np.array(
            [pure_pushforward_cdf(m, comps, p) for p in pts]
        )
        np.testing.assert_array_equal(batch, scalar)


def test_batch_validates_shape():
    with pytest.raises(ValueError):
        pure_cdf_batch(worked_matrix(), (N, N), np.zeros(3))


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
    # integration variable, so the CDF cannot change
    rng = np.random.default_rng(404)
    for _ in range(10):
        m = random_invertible(rng)
        a = m.as_array()
        swapped = as_matrix(a[:, ::-1])
        x = rng.normal(size=2)
        for l1, l2 in [(E, N), (E, E), (U, N)]:
            v1 = pure_pushforward_cdf(m, (l1, l2), x)
            v2 = pure_pushforward_cdf(swapped, (l2, l1), x)
            assert abs(v1 - v2) < 1e-11


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
    assert mixture_pushforward_cdf(m, 0.0, x) == pure_pushforward_cdf(m, (N, N), x)
    got = mixture_pushforward_cdf(m, 1.0, x)
    want = pure_pushforward_cdf(m, (E, E), x)
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


def test_quad_config_controls_accuracy():
    # a loose budget must not crash; the tight default stays close to it
    m = worked_matrix()
    loose = QuadConfig(abs_tol=1e-4, max_subdivisions=50)
    a = quad_pure_cdf(m, (E, N), WORKED_X, cfg=loose)
    b = quad_pure_cdf(m, (E, N), WORKED_X)
    assert abs(a - b) < 1e-4
