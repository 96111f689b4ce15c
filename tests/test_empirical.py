"""Tests for empirical CDFs and the scaled uniform-distance statistic."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mixident import empirical
from mixident.empirical import (
    _TARGET_CHUNK,
    EmpiricalCdf,
    EvalGridSpec,
    GridMode,
    Sample2D,
    _query_block,
    build_eval_grid,
    corner_grid,
    draw_sample,
    naive_dominance_counts,
    replication_statistics,
    sup_stat,
)
from mixident.laws import STANDARD_NORMAL, RngStream
from mixident.pushforward import (
    equal_product_pair,
    mixture_cdf_batch,
    pure_cdf_batch,
)


def gaussian_target(m):
    def target(grid):
        return mixture_cdf_batch(m, 0.0, grid)

    return target


# ---------------------------------------------------------------------------
# samples


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample2D(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        Sample2D(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Sample2D(np.array([[0.0, np.nan]]))


def test_draw_sample_is_reproducible():
    m = equal_product_pair(0.4)[0]
    a = draw_sample(m, 0.3, 1000, RngStream(7).child(2))
    b = draw_sample(m, 0.3, 1000, RngStream(7).child(2))
    assert a.n == 1000
    np.testing.assert_array_equal(a.points, b.points)


def test_draw_sample_rejects_empty():
    with pytest.raises(ValueError):
        draw_sample(np.eye(2), 0.0, 0, RngStream(1))


def test_draw_sample_gaussian_marginals():
    # identity mixing, no contamination: each coordinate is standard
    # normal; DKW band at alpha = 1e-3
    n = 100_000
    s = draw_sample(np.eye(2), 0.0, n, RngStream(11).child(0))
    eps = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))
    for col in range(2):
        xs = np.sort(s.points[:, col])
        cdf = STANDARD_NORMAL.cdf_batch(xs)
        gap = max(
            (np.arange(1, n + 1) / n - cdf).max(),
            (cdf - np.arange(0, n) / n).max(),
        )
        assert gap < eps


def test_draw_sample_covariance_matches_mixing():
    n = 100_000
    m = equal_product_pair(0.4)[0]
    s = draw_sample(m, 0.0, n, RngStream(13).child(0))
    want = m.aat()
    got = (s.points.T @ s.points) / n
    # variance of each second-moment estimate is O(1/n) with constants
    # below 3 for these laws; 4 sigma with sigma ~ sqrt(3/n)
    tol = 4.0 * math.sqrt(3.0 / n)
    assert np.max(np.abs(got - want)) < tol


# ---------------------------------------------------------------------------
# dominance counting


def test_single_point_examples():
    ecdf = EmpiricalCdf(Sample2D(np.array([[0.0, 0.0]])))
    weak, _ = ecdf.dominance_counts(np.array([[0.0, 0.0], [-0.1, 0.0], [0.0, -0.1]]))
    assert weak.tolist() == [1, 0, 0]


def test_eval_at_infinity_is_one():
    rng = np.random.default_rng(2)
    ecdf = EmpiricalCdf(Sample2D(rng.normal(size=(37, 2))))
    weak, strict = ecdf.dominance_counts(np.array([[np.inf, np.inf]]))
    assert weak[0] == strict[0] == 37


def test_eval_is_componentwise_monotone():
    rng = np.random.default_rng(3)
    ecdf = EmpiricalCdf(Sample2D(rng.normal(size=(200, 2))))
    xs = np.linspace(-3.0, 3.0, 61)
    along1, _ = ecdf.dominance_counts(np.column_stack([xs, np.full(61, 0.5)]))
    along2, _ = ecdf.dominance_counts(np.column_stack([np.full(61, 0.5), xs]))
    assert np.all(np.diff(along1) >= 0.0)
    assert np.all(np.diff(along2) >= 0.0)


def test_sweep_matches_naive_exactly():
    # integer-level equality on 1000 random cases, with heavy ties in a
    # third of them and rounded coordinates in another third
    rng = np.random.default_rng(424242)
    for case in range(1000):
        n = int(rng.integers(1, 501))
        m = int(rng.integers(1, 51))
        if case % 3 == 0:
            pts = rng.integers(-3, 4, size=(n, 2)).astype(float)
            q = rng.integers(-4, 5, size=(m, 2)).astype(float)
        elif case % 3 == 1:
            pts = np.round(rng.normal(size=(n, 2)), 1)
            q = np.round(rng.normal(size=(m, 2)), 1)
        else:
            pts = rng.normal(size=(n, 2))
            q = rng.normal(size=(m, 2))
        weak, strict = EmpiricalCdf(Sample2D(pts)).dominance_counts(q)
        weak_ref, strict_ref = naive_dominance_counts(pts, q)
        np.testing.assert_array_equal(weak, weak_ref)
        np.testing.assert_array_equal(strict, strict_ref)


def _count_case(case, rng):
    if case == "tie-lattice":
        pts = rng.integers(-3, 4, size=(400, 2)).astype(float)
        q = rng.integers(-4, 5, size=(300, 2)).astype(float)
        return pts, np.concatenate([q, q[:40]])
    if case == "outside":
        pts = rng.normal(size=(300, 2))
        lo, hi = pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0
        q = np.array([
            [lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]],
            [-np.inf, np.inf], [np.inf, -np.inf], [np.inf, np.inf], [-np.inf, -np.inf],
        ])
        return pts, q
    if case == "single-point":
        pts = np.array([[0.5, -1.0]])
        q = np.array([[x, y] for x in (0.0, 0.5, 1.0) for y in (-2.0, -1.0, 0.0)])
        return pts, q
    if case in ("x-tied", "y-tied"):
        # one x value shared by all 3000 points and 3 y values, or the
        # mirror: a few large tie groups across several query blocks
        pts = np.column_stack([np.full(3000, 0.5), rng.integers(0, 3, 3000).astype(float)])
        q = np.column_stack([rng.choice([0.0, 0.5, 1.0], 400), rng.integers(-1, 4, 400)])
        assert len(q) >= 3 * _query_block(len(pts))
        if case == "y-tied":
            pts, q = pts[:, ::-1], q[:, ::-1]
        return pts, q
    if case == "n20000":
        # the right-desk sample size with 500 corner queries, as the
        # replications draw them
        sample = Sample2D(rng.normal(size=(20_000, 2)))
        return sample.points, build_eval_grid(sample, EvalGridSpec(m_points=500), rng)
    # several query blocks ("blocks", or n on either side of the block-size
    # rule); corner queries tie the sample in each coordinate
    n = {"blocks": 700, "n384": 384, "n385": 385, "n3000": 3000}[case]
    pts = rng.normal(size=(n, 2))
    if case != "blocks":
        pts = np.round(pts, 1)  # tied sample keys across the blocks
    m = 3 * _query_block(n) + 7
    q = np.column_stack([rng.choice(pts[:, 0], m), rng.choice(pts[:, 1], m)])
    q[::5] = rng.normal(size=(len(q[::5]), 2))
    return pts, q


def test_query_block_rule():
    assert [_query_block(n) for n in (1, 384, 385, 4096, 5000, 20_000, 70_000)] == [
        512, 512, 128, 128, 140, 282, 512,
    ]


@pytest.mark.parametrize(
    "case",
    [
        "tie-lattice", "outside", "single-point", "blocks", "n384", "n385", "n3000",
        "x-tied", "y-tied", "n20000",
    ],
)
def test_blocked_count_matches_naive(case):
    pts, q = _count_case(case, np.random.default_rng(7))
    weak, strict = EmpiricalCdf(Sample2D(pts)).dominance_counts(q)
    weak_ref, strict_ref = naive_dominance_counts(pts, q)
    assert weak.dtype == strict.dtype == np.int64
    np.testing.assert_array_equal(weak, weak_ref)
    np.testing.assert_array_equal(strict, strict_ref)


def test_count_memory_is_bounded_in_the_queries(traced_peak):
    # one unblocked (3001 x 3001) int64 table alone would take about 72 MB;
    # on a tied sample the tie-group terms must stay O(n + M) as well
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(2000, 2))
    q = rng.normal(size=(3000, 2))
    for sample, queries in ((pts, q), (np.round(pts), np.round(q))):
        ecdf = EmpiricalCdf(Sample2D(sample))
        assert traced_peak(ecdf.dominance_counts, queries) < 16 * 2**20


def test_counts_validate_query_shape():
    ecdf = EmpiricalCdf(Sample2D(np.zeros((1, 2))))
    with pytest.raises(ValueError):
        ecdf.dominance_counts(np.zeros(4))


@pytest.mark.parametrize("query", [[np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan]])
def test_counts_reject_nan_queries(query):
    ecdf = EmpiricalCdf(Sample2D(np.random.default_rng(9).normal(size=(50, 2))))
    q = np.array([[np.inf, 0.0], query])
    with pytest.raises(ValueError, match="NaN"):
        ecdf.dominance_counts(q)


# ---------------------------------------------------------------------------
# evaluation grids


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        EvalGridSpec(m_points=0)
    assert EvalGridSpec(mode="quantile-tensor").mode is GridMode.QUANTILE_TENSOR


def test_two_point_corner_grid_is_complete():
    s = Sample2D(np.array([[0.0, 1.0], [2.0, 3.0]]))
    got = build_eval_grid(s, EvalGridSpec(m_points=4), np.random.default_rng(0))
    want = {(0.0, 1.0), (0.0, 3.0), (2.0, 1.0), (2.0, 3.0)}
    assert {tuple(row) for row in got} == want


def test_corner_subsample_bounds_and_determinism():
    s = Sample2D(np.random.default_rng(5).normal(size=(40, 2)))
    with pytest.raises(ValueError):
        build_eval_grid(s, EvalGridSpec(m_points=40 * 40 + 1), np.random.default_rng(0))
    with pytest.raises(ValueError):
        build_eval_grid(s, EvalGridSpec(m_points=10), None)
    a = build_eval_grid(s, EvalGridSpec(m_points=100), RngStream(9).child(0).generator())
    b = build_eval_grid(s, EvalGridSpec(m_points=100), RngStream(9).child(0).generator())
    np.testing.assert_array_equal(a, b)
    # without replacement: all rows distinct
    assert len({tuple(r) for r in a}) == 100


def test_corner_subsample_draws_from_corner_set():
    s = Sample2D(np.random.default_rng(6).normal(size=(25, 2)))
    g = build_eval_grid(s, EvalGridSpec(m_points=200), np.random.default_rng(1))
    corners = {tuple(r) for r in corner_grid(s)}
    assert {tuple(r) for r in g} <= corners


def test_quantile_tensor_shape_and_determinism():
    s = Sample2D(np.random.default_rng(7).normal(size=(500, 2)))
    g = build_eval_grid(s, EvalGridSpec(mode="quantile-tensor", m_points=1000))
    assert g.shape == (32 * 32, 2)
    g2 = build_eval_grid(s, EvalGridSpec(mode="quantile-tensor", m_points=1000))
    np.testing.assert_array_equal(g, g2)


# ---------------------------------------------------------------------------
# the statistic


def test_sup_stat_single_point_anchor():
    # one observation at the origin against the independent Gaussian
    # target: weak side |1 - 1/4| = 3/4 dominates the strict side 1/4
    s = Sample2D(np.array([[0.0, 0.0]]))
    got = sup_stat(s, gaussian_target(np.eye(2)), np.array([[0.0, 0.0]]))
    assert got == 0.75


def test_sup_stat_grid_refinement_monotone():
    m = equal_product_pair(0.4)[0]
    stream = RngStream(21)
    s = draw_sample(m, 0.0, 200, stream.child(0))
    target = gaussian_target(m)
    sub = build_eval_grid(s, EvalGridSpec(m_points=50), stream.child(1).generator())
    more = build_eval_grid(s, EvalGridSpec(m_points=400), stream.child(2).generator())
    full = corner_grid(s)
    v_sub = sup_stat(s, target, sub)
    v_joined = sup_stat(s, target, np.vstack([sub, more]))
    v_full = sup_stat(s, target, full)
    assert v_sub <= v_joined <= v_full


def test_sup_stat_validates_grid():
    s = Sample2D(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        sup_stat(s, gaussian_target(np.eye(2)), np.zeros((0, 2)))


def test_sup_stat_against_own_jumps():
    # comparing a sample against its own empirical CDF leaves only the
    # boundary mass between weak and strict dominance at each corner
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, -1.0]])
    s = Sample2D(pts)
    ecdf = EmpiricalCdf(s)
    corners = corner_grid(s)
    got = sup_stat(s, lambda g: ecdf.dominance_counts(g)[0] / s.n, corners)
    weak, strict = naive_dominance_counts(pts, corners)
    want = math.sqrt(s.n) * np.max(weak - strict) / s.n
    assert got == pytest.approx(want)
    assert got > 0.0


def test_sup_stat_is_asymptotically_pivotal():
    # with no contamination and the true target, the statistic's law is
    # parameter-free in the limit: samples of it at n=2000 and n=4000
    # must look alike (two-sample KS above the 1% level)
    m = equal_product_pair(0.4)[0]
    target = gaussian_target(m)
    stream = RngStream(20260819)
    reps = 500

    def stats_at(n, branch):
        vals = np.empty(reps)
        for r in range(reps):
            s = draw_sample(m, 0.0, n, stream.child(branch, r, 0))
            grid = build_eval_grid(
                s, EvalGridSpec(m_points=1000), stream.child(branch, r, 1).generator()
            )
            vals[r] = sup_stat(s, target, grid)
        return vals

    res = ks_2samp(stats_at(2000, 0), stats_at(4000, 1))
    assert res.pvalue > 0.01


def test_sup_stat_rejects_non_finite_target():
    s = Sample2D(np.array([[0.0, 0.0], [1.0, 1.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            sup_stat(s, lambda g, bad=bad: np.full(len(g), bad), corner_grid(s))


# ---------------------------------------------------------------------------
# replications


def _rebuilt_statistic(m_sample, m_target, beta, n, spec, stream):
    sample = draw_sample(m_sample, beta, n, stream.child(0))
    grid = build_eval_grid(sample, spec, stream.child(1).generator())
    return sup_stat(sample, lambda g: mixture_cdf_batch(m_target, beta, g), grid)


@pytest.mark.parametrize(
    "m_points, beta, reps",
    [(300, 0.2, 30), (1000, 0.2, 9), (300, 0.0, 14), (1000, 0.0, 1)],
)
def test_replication_statistics_equal_per_stream_rebuild(m_points, beta, reps):
    # 300-point grids go 13 to a chunk and 1000-point grids 4: several full
    # chunks plus a partial last one, or a single replication
    m_a, m_b = equal_product_pair(0.4)
    spec = EvalGridSpec(m_points=m_points)
    root = RngStream(17)
    streams = [root.child(2, r) for r in range(reps)]
    got = replication_statistics(m_a, m_b, beta, 150, spec, streams)
    want = [_rebuilt_statistic(m_a, m_b, beta, 150, spec, s) for s in streams]
    assert reps * m_points > _TARGET_CHUNK or reps == 1
    assert got.tolist() == want


def test_replication_statistics_reject_non_finite_target(monkeypatch):
    m_a, m_b = equal_product_pair(0.4)

    def broken(m, beta, pts, *args):
        out = np.zeros(len(pts))
        out[-1] = np.nan
        return out

    monkeypatch.setattr(empirical, "mixture_cdf_batch", broken)
    streams = [RngStream(1).child(r) for r in range(3)]
    with pytest.raises(ValueError, match="non-finite"):
        replication_statistics(m_a, m_b, 0.1, 50, EvalGridSpec(m_points=40), streams)
