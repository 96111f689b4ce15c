"""Tests for empirical CDFs and the scaled uniform-distance statistic."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from mixident.empirical import (
    EmpiricalCdf,
    EvalGridSpec,
    Sample2D,
    _STRIP_CHUNK,
    _corner_counts,
    _strip_width,
    build_eval_grid,
    corner_grid,
    draw_sample,
    naive_dominance_counts,
    sup_stat,
)
from mixident.laws import _SLICE_POINTS, STANDARD_NORMAL, RngStream
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
        # mirror: a few large tie groups across two query chunks
        m = _chunk_queries(3000, 7)
        pts = np.column_stack([np.full(3000, 0.5), rng.integers(0, 3, 3000).astype(float)])
        q = np.column_stack([rng.choice([0.0, 0.5, 1.0], m), rng.integers(-1, 4, m)])
        if case == "y-tied":
            pts, q = pts[:, ::-1], q[:, ::-1]
        return pts, q
    if case == "n20000":
        # the right-desk sample size with 500 corner queries, as the
        # replications draw them
        sample = Sample2D(rng.normal(size=(20_000, 2)))
        return sample.points, build_eval_grid(sample, EvalGridSpec(m_points=500), rng)
    # two query chunks, of strips of 13 ("blocks"), 9 or 27 ranks; corner
    # queries tie the sample in each coordinate
    n = {"blocks": 700, "n384": 384, "n385": 385, "n3000": 3000}[case]
    pts = rng.normal(size=(n, 2))
    if case != "blocks":
        pts = np.round(pts, 1)  # tied sample keys across the strips
    m = _chunk_queries(n, 7)
    q = np.column_stack([rng.choice(pts[:, 0], m), rng.choice(pts[:, 1], m)])
    q[::5] = rng.normal(size=(len(q[::5]), 2))
    return pts, q


def _chunk_queries(n, past):
    """The query count m that is ``past`` queries beyond one chunk of strip
    gathers over n sample points, the chunk sized by the strip width of
    those m queries: the least fixed point of m = chunk(m) + past, which
    iterating from one reaches since chunk(m) grows with m."""
    m, prev = 1, None
    while m != prev:
        prev, m = m, max(1, _STRIP_CHUNK // _strip_width(n, m)) + past
    return m


def test_strip_width_rule():
    # (N, M): stacks of 6 left-desk replications of 500 corners each at
    # n = 100, 500, 1000 and 2000, the 4 + 2 and 3 + 3 stacks of n = 3500
    # and 5000, right-desk (n = 20 000, 500 corners) and fig1-right
    # (n = 50 000, 1000 corners), then the floors at many queries
    shapes = [
        (600, 3000), (3000, 3000), (6000, 3000), (12_000, 3000), (14_000, 2000),
        (7000, 1000), (15_000, 1500), (20_000, 500), (50_000, 1000),
        (1, 1), (64, 10**6), (384, 10**6), (70_000, 10**9),
    ]
    assert [_strip_width(*shape) for shape in shapes] == [
        12, 27, 39, 62, 79, 63, 91, 159, 232, 4, 4, 9, 132,
    ]
    # no query sizes the cells as one
    assert _strip_width(3000, 0) == _strip_width(3000, 1)
    assert [_chunk_queries(n, d) for n, d in ((1, 1), (700, -1), (3000, 7))] == [
        16_385, 5040, 2434,
    ]


@pytest.mark.parametrize("n", [1, 2, 5, 63, 64, 65, 1000, 20_000, 50_000, 10**6, 10**9])
def test_strip_width_keeps_the_table_and_the_mask_within_about_4n(n):
    # the cells never shrink below the side isqrt(n) // 2, whatever the
    # query count, so the (n // S + 2)^2 table stays O(n); nor grow past
    # 2 isqrt(n), so the strips' (S + 1) x S mask stays O(n) too
    bound = (n // max(4, math.isqrt(n) // 2) + 2) ** 2
    for m in (1, 2, 7, 500, n, 10 * n, 10**12):
        s = _strip_width(n, m)
        assert (n // s + 2) ** 2 <= bound
        assert s <= max(4, 2 * math.isqrt(n))


@st.composite
def _count_shapes(draw):
    """(n, m): a sample of up to 2048 points and no queries, a few, or one
    less or one more than a chunk of strip gathers."""
    n = draw(st.integers(1, 2048))
    return n, draw(st.one_of(
        st.integers(0, 59), st.sampled_from([_chunk_queries(n, -1), _chunk_queries(n, 1)])
    ))


# (n, m) with n on and next to a multiple of the strip width of m queries,
# where the last coarse cell is full, holds one rank or lacks one
_EDGE_SHAPES = [
    (n, m)
    for n in range(1, 2049)
    for m in (1, 40, _chunk_queries(n, -1), _chunk_queries(n, 1))
    if (n + 1) % _strip_width(n, m) <= 2
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    shape=st.one_of(_count_shapes(), st.sampled_from(_EDGE_SHAPES)),
    spread=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_matches_naive_on_lattices(shape, spread, seed):
    # integer lattices tie both axes; queries are corners, off-lattice
    # points and infinite coordinates
    n, m = shape
    rng = np.random.default_rng(seed)
    pts = rng.integers(-spread, spread + 1, size=(n, 2)).astype(float)
    q = np.column_stack([rng.choice(pts[:, 0], m), rng.choice(pts[:, 1], m)])
    kind = rng.integers(0, 4, size=(m, 2))
    q = np.where(kind == 1, np.floor(q) + 0.5, q)
    q = np.where(kind == 2, -np.inf, q)
    q = np.where((kind == 3) & (rng.random((m, 2)) < 0.5), np.inf, q)
    weak, strict = EmpiricalCdf(Sample2D(pts)).dominance_counts(q)
    weak_ref, strict_ref = naive_dominance_counts(pts, q)
    np.testing.assert_array_equal(weak, weak_ref)
    np.testing.assert_array_equal(strict, strict_ref)


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


@st.composite
def _stack_shapes(draw):
    """(replications, n, corners per replication): up to 6 samples of up
    to 40 points, with some or all of their corners."""
    reps, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    return reps, n, draw(st.one_of(st.just(n * n), st.integers(1, min(n * n, 300))))


# (replications, n, corners) of stacks whose R n points sit on or next to a
# multiple of the strip width of their R m corners, and on both sides of
# the split into stacks of at most _SLICE_POINTS points
_STACK_EDGES = [
    (reps, n, m) for reps in range(1, 7) for n in range(1, 400) for m in (min(n * n, 300),)
    if (reps * n + 1) % _strip_width(reps * n, reps * m) <= 2
]
_STACK_SPLITS = [(reps, _SLICE_POINTS // reps + d, 300) for reps in range(1, 7) for d in (0, 1)]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    shape=st.one_of(_stack_shapes(), st.sampled_from(_STACK_EDGES), st.sampled_from(_STACK_SPLITS)),
    spread=st.integers(0, 6),
    step=st.sampled_from([-1, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_corner_counts_match_naive(shape, spread, step, seed):
    # integer lattices tie both axes; with step = +-1 replication r holds the
    # values r * spread + [-spread, spread] (or the mirror), so its top tie
    # group equals the next replication's bottom one
    reps, n, m = shape
    rng = np.random.default_rng(seed)
    offset = step * spread * np.arange(reps)[:, None, None]
    points = (rng.integers(-spread, spread + 1, size=(reps, n, 2)) + offset).astype(float)
    _check_corner_counts(points, np.stack([rng.choice(n * n, m, replace=False) for _ in range(reps)]))


def _check_corner_counts(points, flat):
    """``_corner_counts`` of the (R, n, 2) samples ``points`` at the corner
    indices ``flat`` (R, m) against naive counting, sample by sample."""
    reps, n, _ = points.shape
    corners, weak, strict = _corner_counts(zip(points, flat), n)
    corners = corners.reshape(reps, -1, 2)
    for r in range(reps):
        i, j = np.divmod(flat[r], n)
        np.testing.assert_array_equal(corners[r], np.column_stack([points[r, i, 0], points[r, j, 1]]))
        weak_ref, strict_ref = naive_dominance_counts(points[r], corners[r])
        np.testing.assert_array_equal(weak[r], weak_ref)
        np.testing.assert_array_equal(strict[r], strict_ref)


@st.composite
def _near_tie_rows(draw):
    """(R, n, 2) samples, R <= 6, whose rows mix the cases the packed sort
    must see: distinct values, -0.0 beside +0.0, one-ulp neighbours (the
    larger at the lower index) and exact ties, each row its own mix."""
    reps, n = draw(st.integers(1, 6)), draw(st.integers(2, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(reps, n, 2)) * 10.0 ** rng.integers(-3, 4, size=(reps, 1, 2))
    for r in range(reps):
        for axis in (0, 1):
            v = rows[r, :, axis]
            at = rng.permutation(n)
            mix = draw(st.sets(st.sampled_from(["zeros", "ulp", "ties"])))
            if "zeros" in mix:
                v[at[0]], v[at[1]] = -0.0, 0.0
            if "ulp" in mix:
                lo, hi = sorted(at[2:4]) if n > 3 else (0, 1)
                v[hi] = v[lo]
                v[lo] = np.nextafter(v[hi], np.inf)
            if "ties" in mix:
                v[at[-1]] = v[at[-2]]
    return rows


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(points=_near_tie_rows(), seed=st.integers(0, 2**32 - 1))
def test_packed_ranks_match_naive_on_near_ties(points, seed):
    # keys that agree above the index bits (a tie, or a near-tie that
    # clearing the bits made one) must send their row to the argsort path,
    # and -0.0 must tie +0.0; a row without either keeps the packed order
    reps, n, _ = points.shape
    rng = np.random.default_rng(seed)
    m = min(n * n, 200)
    _check_corner_counts(points, np.stack([rng.choice(n * n, m, replace=False) for _ in range(reps)]))
    for sample in points:
        q = np.column_stack([rng.choice(sample[:, 0], m), rng.choice(sample[:, 1], m)])
        q[::3] = np.nextafter(q[::3], -np.inf)
        q[1::7] = [[0.0, -0.0], [-0.0, 0.0]][seed % 2]
        weak, strict = EmpiricalCdf(Sample2D(sample)).dominance_counts(q)
        weak_ref, strict_ref = naive_dominance_counts(sample, q)
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


def test_count_memory_is_linear_at_large_n(traced_peak):
    # strips of 111 ranks for all 200 000 queries at once would gather
    # 22 M entries, over 100 MB; in chunks the call holds O(n + M) arrays,
    # about 20 MB here
    rng = np.random.default_rng(10)
    sample = Sample2D(rng.normal(size=(50_000, 2)))
    q = np.column_stack([rng.choice(sample.points[:, 0], 200_000), rng.normal(size=200_000)])
    ecdf = EmpiricalCdf(sample)
    assert traced_peak(ecdf.dominance_counts, q) < 40 * 2**20


def test_count_memory_is_linear_at_few_queries(traced_peak):
    # one query would balance the table against cells of over 5000 ranks
    # a side, whose strip mask alone takes about 34 MB; the cap of
    # 2 isqrt(n) ranks keeps it under 1 MB
    rng = np.random.default_rng(12)
    ecdf = EmpiricalCdf(Sample2D(rng.normal(size=(200_000, 2))))
    assert traced_peak(ecdf.dominance_counts, rng.normal(size=(1, 2))) < 24 * 2**20


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


def test_two_point_corner_grid_is_complete():
    s = Sample2D(np.array([[0.0, 1.0], [2.0, 3.0]]))
    got = build_eval_grid(s, EvalGridSpec(m_points=4), np.random.default_rng(0))
    want = {(0.0, 1.0), (0.0, 3.0), (2.0, 1.0), (2.0, 3.0)}
    assert {tuple(row) for row in got} == want


def test_corner_subsample_bounds_and_determinism():
    s = Sample2D(np.random.default_rng(5).normal(size=(40, 2)))
    with pytest.raises(ValueError):
        build_eval_grid(s, EvalGridSpec(m_points=40 * 40 + 1), np.random.default_rng(0))
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

