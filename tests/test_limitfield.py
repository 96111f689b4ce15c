"""Limit-law simulation and the contamination sandwich bounds."""

import numpy as np
import pytest

from mixident.empirical import EvalGridSpec, build_eval_grid, draw_sample, sup_stat
from mixident.expansion import DEFAULT_MEASURE, P_DIM
from mixident.limitfield import (
    LimitLawSample,
    SandwichBounds,
    limit_results_csv_lines,
    sandwich_bounds,
    simulate_limit_sup,
)
from mixident.laws import RngStream
from mixident.pushforward import equal_product_pair, mixture_cdf_batch

A_MATRIX = equal_product_pair(0.4)[0]


@pytest.fixture(scope="module")
def small_limit():
    return simulate_limit_sup(
        A_MATRIX,
        n0=300,
        n_draws=40,
        grid=EvalGridSpec(m_points=64),
        master_seed=5,
    )


def test_draws_are_nonnegative_and_counted(small_limit):
    assert small_limit.n_draws == 40
    assert small_limit.draws.shape == (40,)
    assert np.all(small_limit.draws >= 0.0)
    assert small_limit.n0 == 300


def test_simulation_is_deterministic(small_limit):
    again = simulate_limit_sup(
        A_MATRIX,
        n0=300,
        n_draws=40,
        grid=EvalGridSpec(m_points=64),
        master_seed=5,
    )
    np.testing.assert_array_equal(again.draws, small_limit.draws)
    shifted = simulate_limit_sup(
        A_MATRIX,
        n0=300,
        n_draws=40,
        grid=EvalGridSpec(m_points=64),
        master_seed=6,
    )
    assert not np.array_equal(shifted.draws, small_limit.draws)


def test_draw_reads_its_own_streams(small_limit):
    # draw r is the statistic on streams (r, 0) and (r, 1) of the master seed
    root = RngStream(5)
    sample = draw_sample(A_MATRIX, 0.0, 300, root.child(3, 0))
    grid = build_eval_grid(sample, EvalGridSpec(m_points=64), root.child(3, 1).generator())
    want = sup_stat(sample, lambda g: mixture_cdf_batch(A_MATRIX, 0.0, g), grid)
    assert small_limit.draws[3] == want


def test_worker_count_does_not_change_draws(small_limit, fake_pool):
    kwargs = dict(n0=300, n_draws=40, grid=EvalGridSpec(m_points=64), master_seed=5, workers=2)
    pooled = simulate_limit_sup(A_MATRIX, **kwargs)
    assert fake_pool == [2]
    np.testing.assert_array_equal(pooled.draws, small_limit.draws)
    again = simulate_limit_sup(A_MATRIX, **kwargs)
    assert fake_pool == [2]  # the second call reuses the pool
    np.testing.assert_array_equal(again.draws, small_limit.draws)


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_below_one_rejected(fake_pool, workers):
    with pytest.raises(ValueError, match="worker"):
        simulate_limit_sup(A_MATRIX, n0=50, n_draws=3, workers=workers)
    assert fake_pool == []


def test_whole_float_sizes_accepted_fractional_rejected(small_limit):
    floats = simulate_limit_sup(
        A_MATRIX, n0=300.0, n_draws=40.0, grid=EvalGridSpec(m_points=64.0),
        master_seed=5.0,
    )
    assert floats.n0 == 300 and type(floats.n0) is int
    np.testing.assert_array_equal(floats.draws, small_limit.draws)
    for bad in (dict(n_draws=2.5), dict(n0=300.5), dict(master_seed=1.5), dict(workers=1.5)):
        with pytest.raises(ValueError, match="whole number"):
            simulate_limit_sup(A_MATRIX, **{"n0": 50, "n_draws": 3, **bad})


def test_survival_monotone_and_bounded(small_limit):
    cs = (0.0, 0.5, 1.0, 1.5, 2.0, 10.0)
    ps = [small_limit.survival(c)[0] for c in cs]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert ps[0] == 1.0  # the statistic is almost surely positive
    assert ps[-1] == 0.0
    for c in cs:
        strict, _ = small_limit.survival(c, strict=True)
        weak, _ = small_limit.survival(c, strict=False)
        assert weak >= strict


@pytest.mark.parametrize("c", [np.nan, -0.5])
def test_survival_rejects_bad_threshold(small_limit, c):
    with pytest.raises(ValueError, match="threshold"):
        small_limit.survival(c)


def test_survival_stderr_is_binomial(small_limit):
    p, se = small_limit.survival(1.0)
    assert se == pytest.approx(np.sqrt(p * (1.0 - p) / 40.0), abs=1e-15)


def test_sample_validation():
    grid = EvalGridSpec(m_points=16)
    with pytest.raises(ValueError):
        LimitLawSample(np.empty((0,)), n0=10, grid=grid)
    with pytest.raises(ValueError):
        LimitLawSample(np.ones((3, 2)), n0=10, grid=grid)
    with pytest.raises(ValueError):
        LimitLawSample(np.array([0.5, -0.1]), n0=10, grid=grid)


# ---------------------------------------------------------------------------
# sandwich bounds


def test_sandwich_orders_and_shift(small_limit):
    sw = sandwich_bounds(0.5, 1.0, small_limit)
    assert sw.shift == pytest.approx(
        4.0 * P_DIM * 0.5 * DEFAULT_MEASURE.norm_c, abs=1e-15
    )
    assert sw.lower <= sw.upper
    assert 0.0 <= sw.lower and sw.upper <= 1.0


def test_sandwich_collapses_without_contamination(small_limit):
    sw = sandwich_bounds(0.0, 1.0, small_limit)
    assert sw.shift == 0.0
    # the gap is exactly the atom at the threshold, zero for these draws
    assert sw.lower == pytest.approx(small_limit.survival(1.0)[0], abs=1e-15)
    assert sw.upper == pytest.approx(sw.lower, abs=1e-15)


def test_sandwich_widens_with_intensity(small_limit):
    widths = []
    for k in (0.0, 0.25, 0.5, 1.0):
        sw = sandwich_bounds(k, 1.0, small_limit)
        widths.append(sw.upper - sw.lower)
    assert all(a <= b + 1e-15 for a, b in zip(widths, widths[1:]))
    huge = sandwich_bounds(50.0, 1.0, small_limit)
    assert huge.upper == 1.0
    assert huge.lower == 0.0


def test_sandwich_rejects_negative_arguments(small_limit):
    with pytest.raises(ValueError):
        sandwich_bounds(-0.5, 1.0, small_limit)
    with pytest.raises(ValueError):
        sandwich_bounds(0.5, -1.0, small_limit)
    with pytest.raises(ValueError, match="intensity"):
        sandwich_bounds(np.nan, 1.0, small_limit)
    with pytest.raises(ValueError, match="threshold"):
        sandwich_bounds(0.5, np.nan, small_limit)
    with pytest.raises(ValueError):
        SandwichBounds(0.9, 0.1, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# stability in the internal sample size


def test_survival_stable_in_n0():
    common = dict(n_draws=120, grid=EvalGridSpec(m_points=256), master_seed=17)
    coarse = simulate_limit_sup(A_MATRIX, n0=2000, **common)
    fine = simulate_limit_sup(A_MATRIX, n0=4000, **common)
    p_c, se_c = coarse.survival(1.0)
    p_f, se_f = fine.survival(1.0)
    joint = np.hypot(se_c, se_f)
    assert abs(p_c - p_f) <= 3.0 * joint


# ---------------------------------------------------------------------------
# CSV emission


def test_limit_csv_lines(small_limit):
    lines = limit_results_csv_lines(small_limit, (0.5, 1.0), {"seed": 5})
    assert lines[0] == "# seed: 5"
    assert lines[1] == "c,estimate,stderr,n0,n_draws,grid_mode,grid_points"
    assert len(lines) == 4
    row = lines[2].split(",")
    assert float(row[0]) == 0.5
    assert 0.0 <= float(row[1]) <= 1.0
    assert int(row[3]) == 300 and int(row[4]) == 40
    assert row[5] == "corner-subsample"
    # estimates in the table equal the survival method's output
    assert float(row[1]) == pytest.approx(small_limit.survival(0.5)[0], abs=1e-15)
