"""Tests for the contamination-level polynomial expansion."""

import numpy as np
import pytest

from mixident.expansion import (
    DEFAULT_MEASURE,
    GAMMA_WEIGHTS,
    EvalGrid,
    NuMeasure,
    estimate_K,
    gamma_k_batch,
    mixture_sup_gap,
    sup_on_grid,
)
from mixident.laws import (
    CENTERED_EXPONENTIAL,
    STANDARD_EXPONENTIAL,
    STANDARD_NORMAL,
)
from mixident import pushforward
from mixident.pushforward import (
    as_matrix,
    equal_product_pair,
    mixture_cdf_batch,
    mixture_pushforward_cdf,
    mixture_weights,
    pure_cdf_batch,
)

PHI_AT_MINUS_ONE = 0.15865525393145705
# (F_xi(0) - 1/2) / norm_c, frozen from the laws-module anchors
NU_AT_ZERO = 0.8327524967161627


def random_invertible(rng):
    while True:
        a = rng.normal(size=(2, 2))
        if abs(np.linalg.det(a)) > 0.05:
            return as_matrix(a)


# ---------------------------------------------------------------------------
# normalized difference measure


def test_norm_c_matches_distance_anchor():
    assert abs(DEFAULT_MEASURE.norm_c - PHI_AT_MINUS_ONE) < 1e-9


def test_nu_cdf_anchor_at_zero():
    xi, zeta, c = DEFAULT_MEASURE.xi, DEFAULT_MEASURE.zeta, DEFAULT_MEASURE.norm_c
    t = np.array([0.0])
    assert abs((xi.cdf_batch(t) - zeta.cdf_batch(t))[0] / c - NU_AT_ZERO) < 1e-12


def test_nu_cdf_has_unit_sup():
    xi, zeta, c = DEFAULT_MEASURE.xi, DEFAULT_MEASURE.zeta, DEFAULT_MEASURE.norm_c
    t = np.linspace(-20.0, 20.0, 200_001)
    sup = np.max(np.abs((xi.cdf_batch(t) - zeta.cdf_batch(t)) / c))
    assert abs(sup - 1.0) < 1e-6


def test_nu_measure_validates():
    with pytest.raises(ValueError):
        NuMeasure(xi=STANDARD_NORMAL, zeta=STANDARD_NORMAL)


def test_nu_measure_memory_stays_within_slices(traced_peak):
    # norm_c from one whole-array scan of 200 001 points traced 6.3 MB
    assert traced_peak(NuMeasure) < 3 * 2**20


def test_nu_measure_uncentered_variant():
    m = NuMeasure(xi=STANDARD_EXPONENTIAL)
    assert abs(m.norm_c - 0.5) < 1e-9
    t = np.array([0.0])
    assert ((m.xi.cdf_batch(t) - m.zeta.cdf_batch(t)) / m.norm_c)[0] == (0.0 - 0.5) / m.norm_c


# ---------------------------------------------------------------------------
# evaluation grids


def test_tensor_grid_shape():
    g = EvalGrid.tensor(-6.0, 6.0, 101)
    assert len(g) == 101 * 101
    assert g.points.shape == (10201, 2)
    assert g.points[0, 0] == -6.0 and g.points[-1, 1] == 6.0


def test_grid_validates():
    with pytest.raises(ValueError):
        EvalGrid(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        EvalGrid(np.zeros(5))
    with pytest.raises(ValueError):
        EvalGrid(np.array([[0.0, np.inf]]))


# ---------------------------------------------------------------------------
# coefficient fields


def test_order_validation():
    m = np.eye(2)
    with pytest.raises(ValueError):
        gamma_k_batch(m, 3, [(0.0, 0.0)])
    with pytest.raises(ValueError):
        gamma_k_batch(m, -1, [(0.0, 0.0)])


def test_gamma_weights_rebuild_mixture_weights():
    # sum_k beta^k GAMMA_WEIGHTS[k] is the binomial weight vector
    for beta in (0.0, 0.1, 0.5, 1.0):
        rebuilt = sum(beta**k * np.array(w) for k, w in enumerate(GAMMA_WEIGHTS))
        np.testing.assert_allclose(rebuilt, mixture_weights(beta), rtol=0.0, atol=1e-15)


def test_order_zero_is_background_cdf():
    m = equal_product_pair(0.4)[0]
    x = (0.4, -0.7)
    got = gamma_k_batch(m, 0, [x])[0]
    want = mixture_pushforward_cdf(m, 0.0, x)
    assert got == want


def test_identity_mixing_first_order_factorizes():
    # under identity mixing the two placements agree and each factorizes,
    # so the field at the origin is 2 * nu_cdf(0) * Phi(0) = nu_cdf(0)
    got = gamma_k_batch(np.eye(2), 1, [(0.0, 0.0)])[0]
    assert abs(got - NU_AT_ZERO) < 1e-12


def test_first_order_finite_difference_oracle():
    # Richardson extrapolation of (F_beta - F_0) / (beta * norm_c); the
    # exact expansion is linear in beta, so two levels suffice
    c = DEFAULT_MEASURE.norm_c
    x = (0.0, 0.0)
    for m in equal_product_pair(0.4):
        def slope(beta):
            f0 = mixture_pushforward_cdf(m, 0.0, x)
            fb = mixture_pushforward_cdf(m, beta, x)
            return (fb - f0) / (beta * c)

        rich = 2.0 * slope(0.01) - slope(0.02)
        got = gamma_k_batch(m, 1, [x])[0]
        assert abs(got - rich) < 1e-4


# ---------------------------------------------------------------------------
# reconstruction identity


def rebuild(m, beta, points):
    """The mixture CDF at ``points`` as the expansion's sum
    sum_k beta^k norm_c^k gamma_k."""
    c = DEFAULT_MEASURE.norm_c
    return sum(beta**k * c**k * gamma_k_batch(m, k, points) for k in range(3))


def test_reconstruct_matches_mixture_at_worked_point():
    m = equal_product_pair(0.4)[0]
    got = rebuild(m, 0.3, [(0.5, -0.2)])[0]
    want = mixture_pushforward_cdf(m, 0.3, (0.5, -0.2))
    assert abs(got - want) < 1e-8


def test_reconstruct_degenerate_levels():
    m = equal_product_pair(0.4)[0]
    x = (0.2, 0.1)
    assert rebuild(m, 0.0, [x])[0] == gamma_k_batch(m, 0, [x])[0]
    pure_cont = pure_cdf_batch(m, (CENTERED_EXPONENTIAL, CENTERED_EXPONENTIAL), [x])[0]
    assert abs(rebuild(m, 1.0, [x])[0] - pure_cont) < 1e-8


def test_reconstruct_identity_on_grid():
    m = equal_product_pair(0.4)[0]
    g = EvalGrid.tensor(-6.0, 6.0, 21)
    for beta in (0.0, 0.1, 0.5, 1.0):
        direct = mixture_cdf_batch(m, beta, g.points)
        assert np.max(np.abs(rebuild(m, beta, g.points) - direct)) < 1e-8


def test_first_order_error_halves_with_level():
    # sup-grid distance between the finite-difference slope and the
    # first-order field scales linearly in beta
    m = equal_product_pair(0.4)[0]
    g = EvalGrid.tensor(-6.0, 6.0, 41)
    c = DEFAULT_MEASURE.norm_c
    base = mixture_cdf_batch(m, 0.0, g.points)
    field = gamma_k_batch(m, 1, g.points)

    def sup_dev(beta):
        slope = (mixture_cdf_batch(m, beta, g.points) - base) / (beta * c)
        return np.max(np.abs(slope - field))

    ratio = sup_dev(0.01) / sup_dev(0.02)
    assert 0.35 <= ratio <= 0.65


# ---------------------------------------------------------------------------
# norm bounds on grids


def test_first_order_field_bound():
    # total-variation style bound: each placement contributes at most 2
    g = EvalGrid.tensor(-6.0, 6.0, 101)
    rng = np.random.default_rng(2718)
    mats = [random_invertible(rng) for _ in range(10)] + list(equal_product_pair(0.4))
    for m in mats:
        sup = sup_on_grid(gamma_k_batch(m, 1, g.points))
        assert sup <= 4.0 + 1e-9


def test_single_placement_bound():
    g = EvalGrid.tensor(-6.0, 6.0, 101)
    m = equal_product_pair(0.4)[0]
    c = DEFAULT_MEASURE.norm_c
    single = (
        pure_cdf_batch(m, (STANDARD_NORMAL, CENTERED_EXPONENTIAL), g.points)
        - pure_cdf_batch(m, (STANDARD_NORMAL, STANDARD_NORMAL), g.points)
    ) / c
    assert sup_on_grid(single) <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# pairwise gap of first-order fields


def test_gap_vanishes_under_column_permutation():
    # i.i.d. coordinates: permuting the columns relabels the integration
    # variables, so the whole field is unchanged
    rng = np.random.default_rng(31)
    m = random_invertible(rng)
    swapped = as_matrix(m.as_array()[:, ::-1])
    xs = rng.normal(size=(50, 2)) * 2.0
    gaps = gamma_k_batch(m, 1, xs) - gamma_k_batch(swapped, 1, xs)
    assert np.max(np.abs(gaps)) < 1e-8


def test_worked_pair_gap_is_nonzero():
    # records that the two worked matrices are separated at first order
    m_a, m_b = equal_product_pair(0.4)
    g = EvalGrid.tensor(-6.0, 6.0, 41)
    assert estimate_K(m_a, m_b, g) > 0.01 * DEFAULT_MEASURE.norm_c


# ---------------------------------------------------------------------------
# grid sup estimation


def test_sup_on_grid_basics():
    assert sup_on_grid(np.zeros(10)) == 0.0
    assert sup_on_grid([-3.0, 2.0]) == 3.0
    with pytest.raises(ValueError):
        sup_on_grid(np.array([]))


def test_estimate_K_is_scaled_grid_sup_of_field_gap():
    m_a, m_b = equal_product_pair(0.4)
    g = EvalGrid.tensor(-6.0, 6.0, 41)
    sup = sup_on_grid(gamma_k_batch(m_a, 1, g.points) - gamma_k_batch(m_b, 1, g.points))
    assert estimate_K(m_a, m_b, g) == DEFAULT_MEASURE.norm_c * sup


@pytest.mark.parametrize("n, k_const", [(101, 0.09351603186261476), (400, 0.10660498561694615)])
def test_estimate_K_computes_each_pure_row_once(monkeypatch, n, k_const):
    # a 400^2 row is too large for the row cache, so the level-zero guard's
    # Gaussian rows must be the ones the field gap reads: six kernel calls,
    # NN, EN and NE of each matrix
    calls = []
    real = pushforward.pure_cdf_batch
    monkeypatch.setattr(
        pushforward, "pure_cdf_batch", lambda *args: calls.append(args[1]) or real(*args)
    )
    assert estimate_K(*equal_product_pair(0.4), EvalGrid.tensor(n=n)) == k_const
    assert len(calls) == 6


def test_divergence_rate_matches_small_level_slope():
    # finite-grid convention on both sides: the comparison tests the
    # linearity of the gap in beta, not the grid resolution
    m_a, m_b = equal_product_pair(0.4)
    g = EvalGrid.tensor()
    k_const = estimate_K(m_a, m_b, g)
    r1 = mixture_sup_gap(m_a, m_b, 0.01, g) / 0.01
    r2 = mixture_sup_gap(m_a, m_b, 0.005, g) / 0.005
    assert abs(r1 - r2) / r1 < 0.05
    assert abs(r2 - k_const) / k_const < 0.05


def test_equal_product_pair_background_is_identical():
    # same second-moment structure: the pure background pushforwards
    # coincide, so the gap at level zero is numerically zero
    m_a, m_b = equal_product_pair(0.4)
    assert mixture_sup_gap(m_a, m_b, 0.0, EvalGrid.tensor(n=41)) < 1e-12


def test_contaminated_mixtures_do_separate():
    m_a, m_b = equal_product_pair(0.4)
    assert mixture_sup_gap(m_a, m_b, 0.5, EvalGrid.tensor(n=41)) > 1e-4
