"""Tests for the one-dimensional error laws and reproducible streams."""

import math

import numpy as np
import pytest

from mixident.laws import (
    CENTERED_EXPONENTIAL,
    STANDARD_EXPONENTIAL,
    STANDARD_NORMAL,
    ComponentKind,
    ComponentLaw,
    ContaminatedLaw,
    RngStream,
    _distances_to_background,
    _refine,
    _scan,
    kolmogorov_distance_univ,
)

# Frozen reference values, computed independently at 30 significant digits
# (mpmath: ncdf, exp, asin).
PHI_AT_ONE = 0.84134474606854295
PHI_AT_MINUS_ONE = 0.15865525393145705
EXP_CDF_AT_ZERO = 0.63212055882855768  # 1 - e^{-1}, centered law at the origin
MIX_HALF_AT_ZERO = 0.56606027941427884  # 0.5 * (1 - e^{-1}) + 0.5 * 0.5


def dkw_eps(n: int, alpha: float = 1e-3) -> float:
    # two-sided Dvoretzky-Kiefer-Wolfowitz band at confidence 1 - alpha
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def ecdf_sup_gap(samples: np.ndarray, law) -> float:
    xs = np.sort(samples)
    n = xs.size
    cdf = law.cdf_batch(xs)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


# ---------------------------------------------------------------------------
# component laws


def test_normal_cdf_anchors():
    assert abs(STANDARD_NORMAL.cdf(1.0) - PHI_AT_ONE) < 1e-15
    assert abs(STANDARD_NORMAL.cdf(-1.0) - PHI_AT_MINUS_ONE) < 1e-15
    assert abs(STANDARD_NORMAL.cdf(0.0) - 0.5) < 1e-15


def test_centered_exponential_cdf_anchors():
    law = CENTERED_EXPONENTIAL
    assert law.cdf(-1.0) == 0.0
    assert law.cdf(-1.5) == 0.0
    assert abs(law.cdf(0.0) - EXP_CDF_AT_ZERO) < 1e-15
    # mean zero: integral of (1 - F) over [-1, inf) minus mass below 0
    assert law.shift == -1.0


def test_standard_exponential_cdf_anchors():
    law = STANDARD_EXPONENTIAL
    assert law.cdf(0.0) == 0.0
    assert law.cdf(-0.3) == 0.0
    assert abs(law.cdf(1.0) - EXP_CDF_AT_ZERO) < 1e-15
    assert law.shift == 0.0


def test_gaussian_has_no_shift():
    assert STANDARD_NORMAL.is_gaussian
    with pytest.raises(ValueError):
        _ = STANDARD_NORMAL.shift


def test_cdf_batch_matches_scalar():
    t = np.linspace(-6.0, 6.0, 401)
    for law in (STANDARD_NORMAL, CENTERED_EXPONENTIAL, STANDARD_EXPONENTIAL):
        batch = law.cdf_batch(t)
        scalar = np.array([law.cdf(v) for v in t])
        np.testing.assert_array_equal(batch, scalar)


def test_cdf_batch_extreme_arguments_stay_finite():
    t = np.array([-1e8, -745.0, 0.0, 745.0, 1e8])
    for law in (STANDARD_NORMAL, CENTERED_EXPONENTIAL, STANDARD_EXPONENTIAL):
        out = law.cdf_batch(t)
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.0) & (out <= 1.0))


def test_cdf_of_nan_is_nan():
    for law in (STANDARD_NORMAL, CENTERED_EXPONENTIAL, STANDARD_EXPONENTIAL):
        out = law.cdf_batch(np.array([np.nan, -np.inf, np.inf]))
        assert math.isnan(out[0])
        np.testing.assert_array_equal(out[1:], [0.0, 1.0])
        assert math.isnan(law.cdf(math.nan))


def test_component_sampling_matches_cdf():
    # DKW band at alpha = 1e-3 per law per seed; 6 seeded draws
    n = 100_000
    for seed in range(3):
        rng = np.random.default_rng(1000 + seed)
        for law in (STANDARD_NORMAL, CENTERED_EXPONENTIAL):
            gap = ecdf_sup_gap(law.sample(rng, n), law)
            assert gap < dkw_eps(n)


def test_exponential_samples_respect_support():
    rng = np.random.default_rng(7)
    xs = CENTERED_EXPONENTIAL.sample(rng, 50_000)
    assert xs.min() >= -1.0
    ys = STANDARD_EXPONENTIAL.sample(rng, 50_000)
    assert ys.min() >= 0.0


def test_centered_exponential_moments():
    rng = np.random.default_rng(11)
    xs = CENTERED_EXPONENTIAL.sample(rng, 400_000)
    assert abs(xs.mean()) < 0.01
    assert abs(xs.var() - 1.0) < 0.02


# ---------------------------------------------------------------------------
# contaminated mixture


def test_mixture_cdf_is_convex_combination():
    law = ContaminatedLaw(0.5)
    assert abs(law.cdf_batch(np.array([0.0]))[0] - MIX_HALF_AT_ZERO) < 1e-15
    t = np.linspace(-5.0, 5.0, 301)
    want = 0.5 * CENTERED_EXPONENTIAL.cdf_batch(t) + 0.5 * STANDARD_NORMAL.cdf_batch(t)
    np.testing.assert_allclose(law.cdf_batch(t), want, rtol=0.0, atol=1e-15)


def test_mixture_degenerate_levels():
    t = np.linspace(-4.0, 4.0, 201)
    pure_bg = ContaminatedLaw(0.0)
    np.testing.assert_array_equal(pure_bg.cdf_batch(t), STANDARD_NORMAL.cdf_batch(t))
    pure_cont = ContaminatedLaw(1.0)
    np.testing.assert_array_equal(pure_cont.cdf_batch(t), CENTERED_EXPONENTIAL.cdf_batch(t))


def test_mixture_validates_inputs():
    with pytest.raises(ValueError):
        ContaminatedLaw(-0.1)
    with pytest.raises(ValueError):
        ContaminatedLaw(1.1)
    with pytest.raises(ValueError):
        ContaminatedLaw(0.5, xi=STANDARD_NORMAL, zeta=STANDARD_NORMAL)


def test_mixture_sampling_matches_cdf():
    n = 100_000
    for seed, beta in [(21, 0.0), (22, 0.3), (23, 0.7), (24, 1.0)]:
        law = ContaminatedLaw(beta)
        rng = np.random.default_rng(seed)
        gap = ecdf_sup_gap(law.sample(rng, n), law)
        assert gap < dkw_eps(n)


def test_mixture_sampling_uncentered_variant():
    n = 100_000
    law = ContaminatedLaw(0.4, xi=STANDARD_EXPONENTIAL)
    rng = np.random.default_rng(31)
    gap = ecdf_sup_gap(law.sample(rng, n), law)
    assert gap < dkw_eps(n)


def test_mixture_is_centered_for_every_level():
    rng = np.random.default_rng(41)
    for beta in (0.1, 0.5, 0.9):
        xs = ContaminatedLaw(beta).sample(rng, 400_000)
        assert abs(xs.mean()) < 0.01


# ---------------------------------------------------------------------------
# reproducible streams


def test_same_seed_and_path_is_bit_identical():
    a = RngStream(123).child(4, 5).generator().random(100)
    b = RngStream(123).child(4, 5).generator().random(100)
    np.testing.assert_array_equal(a, b)


def test_sibling_paths_differ():
    a = RngStream(123).child(0).generator().random(100)
    b = RngStream(123).child(1).generator().random(100)
    assert not np.array_equal(a, b)


def test_child_extends_path():
    assert RngStream(9).child(1).child(2, 3) == RngStream(9, (1, 2, 3))


def test_child_derivation_is_order_free():
    # replication (s, k) must not depend on which worker derives it
    direct = RngStream(77).child(3, 14).generator().random(10)
    staged = RngStream(77).child(3).child(14).generator().random(10)
    np.testing.assert_array_equal(direct, staged)


def test_mixture_draws_reproducible_across_betas():
    # the draw order is fixed, so the underlying uniforms align and only
    # the selector flips between nearby betas
    base = RngStream(55).child(0)
    lo = ContaminatedLaw(0.30).sample(base.generator(), 10_000)
    hi = ContaminatedLaw(0.31).sample(base.generator(), 10_000)
    flipped = np.mean(lo != hi)
    assert flipped < 0.02


@pytest.mark.parametrize(
    "xi, zeta",
    [
        (CENTERED_EXPONENTIAL, STANDARD_NORMAL),
        (STANDARD_EXPONENTIAL, STANDARD_NORMAL),
        (STANDARD_NORMAL, CENTERED_EXPONENTIAL),
        (CENTERED_EXPONENTIAL, STANDARD_EXPONENTIAL),
    ],
)
@pytest.mark.parametrize("beta", [0.0, 1e-4, 0.3, 1.0])
def test_mixture_draws_equal_the_whole_array_formula(xi, zeta, beta):
    # the sampler transforms only the coordinates each component supplies;
    # the draws must be bit for bit those of transforming both components
    # everywhere and selecting with the Bernoulli picks
    law = ContaminatedLaw(beta, xi, zeta)
    for size in (1, (7, 2), (20_000, 2)):
        rng = np.random.default_rng(31)
        pick_xi = rng.random(size) < beta
        want = np.where(pick_xi, xi.sample(rng, size), zeta.sample(rng, size))
        got = law.sample(np.random.default_rng(31), size)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize(
    "xi, zeta", [(CENTERED_EXPONENTIAL, STANDARD_NORMAL), (STANDARD_NORMAL, CENTERED_EXPONENTIAL)]
)
def test_a_sample_holds_no_scratch_fill(xi, zeta, beta):
    # the selector and contaminant fills are scratch: the sample must not
    # be a view that keeps them alive
    got = ContaminatedLaw(beta, xi, zeta).sample(np.random.default_rng(3), (100, 2))
    owner = got if got.base is None else got.base
    assert owner.nbytes == got.nbytes


# ---------------------------------------------------------------------------
# uniform-norm distance


def test_distance_between_identical_laws_is_zero():
    assert kolmogorov_distance_univ(STANDARD_NORMAL, STANDARD_NORMAL) == 0.0


def test_distance_contaminant_background():
    # sup_t |F_xi(t) - Phi(t)| is attained at the support edge t = -1 where
    # the exponential CDF is still zero, giving exactly Phi(-1)
    d = kolmogorov_distance_univ(CENTERED_EXPONENTIAL, STANDARD_NORMAL)
    assert abs(d - PHI_AT_MINUS_ONE) < 1e-9


def test_distance_uncentered_variant():
    # support edge at zero, gap Phi(0) = 1/2
    d = kolmogorov_distance_univ(STANDARD_EXPONENTIAL, STANDARD_NORMAL)
    assert abs(d - 0.5) < 1e-9


def test_distance_is_symmetric():
    d1 = kolmogorov_distance_univ(CENTERED_EXPONENTIAL, STANDARD_NORMAL)
    d2 = kolmogorov_distance_univ(STANDARD_NORMAL, CENTERED_EXPONENTIAL)
    assert d1 == d2


def test_distance_scales_linearly_in_contamination():
    # F_beta - Phi = beta * (F_xi - Phi), so the distance is beta * ||.||
    base = kolmogorov_distance_univ(CENTERED_EXPONENTIAL, STANDARD_NORMAL)
    for beta in (0.1, 0.25, 0.5):
        d = kolmogorov_distance_univ(ContaminatedLaw(beta), STANDARD_NORMAL)
        assert abs(d - beta * base) < 1e-9


def test_shared_scan_equals_each_distance_bit_for_bit():
    mixtures = [ContaminatedLaw(beta) for beta in (0.0, 0.1, 0.3, 0.7)]
    want = [kolmogorov_distance_univ(law, STANDARD_NORMAL) for law in mixtures]
    assert _distances_to_background(mixtures) == want
    with pytest.raises(ValueError, match="share"):
        _distances_to_background([ContaminatedLaw(0.1), ContaminatedLaw(0.1, xi=STANDARD_EXPONENTIAL)])


def whole_array_distance(law_a, law_b) -> float:
    # the scan as one evaluation of the whole 200 001-point grid
    t = np.linspace(-20.0, 20.0, 200_001)
    gap = np.abs(law_a.cdf_batch(t) - law_b.cdf_batch(t))
    i = int(np.argmax(gap))
    return _refine(law_a, law_b, t, i, float(gap[i]))


def test_sliced_scan_equals_whole_array_scan_bit_for_bit():
    # with the shared-scan test above, this pins _distances_to_background too
    pairs = [(CENTERED_EXPONENTIAL, STANDARD_NORMAL)]
    pairs += [(ContaminatedLaw(beta), STANDARD_NORMAL) for beta in (0.0, 0.1, 0.3, 0.7)]
    for law_a, law_b in pairs:
        assert kolmogorov_distance_univ(law_a, law_b) == whole_array_distance(law_a, law_b)


def test_scan_keeps_the_first_of_equal_maxima_across_slices():
    # equal maxima on a plateau around t = -7, which spans two slices, and
    # at t = -5 and t = 5, in two more: the plateau's first point wins
    class Peaks:
        @staticmethod
        def cdf_batch(t):
            return np.where((np.abs(np.abs(t) - 5.0) < 1e-3) | (np.abs(t + 7.0) < 0.5), 0.5, 0.0)

    t, [(g, i)] = _scan((Peaks,), [np.abs])
    gap = Peaks.cdf_batch(t)
    assert (g, i) == (0.5, int(np.argmax(gap)))
    assert t[i] < -6.0


def test_scan_memory_stays_within_slices(traced_peak):
    # one whole-array evaluation of the 200 001-point grid traced 6.3 MB
    peak = traced_peak(kolmogorov_distance_univ, CENTERED_EXPONENTIAL, STANDARD_NORMAL)
    assert peak < 3 * 2**20


def test_component_kind_round_trip():
    for kind in ComponentKind:
        assert ComponentLaw(kind).kind is kind
