"""Desk-scale acceptance runs for the whole laboratory.

Each test pins one end-to-end guarantee: oracle agreement of the CDF
engine, exactness of the polynomial expansion, norm bounds and linear
divergence of the field decomposition, qualitative reproduction of the
contamination-schedule experiment, the sandwich bracket at the square
root rate, median divergence, and byte-level determinism of the
command-line sweep.  Every random input is seeded; runtime budgets are
generous for a laptop.
"""

import time

import numpy as np
import pytest

from mixident.cli import main as cli_main, read_results_csv
from mixident.empirical import EvalGridSpec
from mixident.expansion import (
    DEFAULT_MEASURE,
    EvalGrid,
    estimate_K,
    gamma_k_batch,
    mixture_sup_gap,
    polynomial_reconstruct,
    sup_on_grid,
)
from mixident.laws import CENTERED_EXPONENTIAL, STANDARD_EXPONENTIAL
from mixident.limitfield import sandwich_bounds, simulate_limit_sup
from mixident.montecarlo import (
    Scenario,
    estimate_probability,
    probability_above,
)
from mixident.pushforward import (
    as_matrix,
    equal_product_pair,
    mixture_cdf_batch,
    mixture_pushforward_cdf,
    pure_cdf_batch,
)
from mixident.oracles import oracle_cdf_mc, oracle_cdf_quad2d, quad_mixture_cdf

MASTER_SEED = 20260819
P_DIM = 2

# leading slope of the worked pair's separation, frozen from the two
# agreeing estimation routes in the module tests
K_WORKED = 0.09351603186261481


def draw_model(rng):
    # well-conditioned random mixing matrix; reject near-singular draws
    while True:
        a = rng.uniform(-1.5, 1.5, size=(2, 2))
        if abs(np.linalg.det(a)) >= 0.2:
            return as_matrix(a)


@pytest.fixture(scope="module")
def pair():
    return equal_product_pair(0.4)


@pytest.fixture(scope="module")
def limit_sample(pair):
    m_a, _ = pair
    return simulate_limit_sup(
        m_a,
        n0=20_000,
        n_draws=500,
        grid=EvalGridSpec(m_points=500),
        master_seed=MASTER_SEED,
    )


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    # the same desk-scale sweep through the real CLI twice, identical
    # seed, different worker counts; the uncentered contaminant is the
    # variant that reproduces the reference curves (see decision notes)
    base = tmp_path_factory.mktemp("desk")
    cfg = base / "run.cfg"
    cfg.write_text("center_xi=false\n", encoding="utf-8")
    paths = []
    t0 = time.perf_counter()
    for workers in (2, 4):
        out = base / f"sweep_w{workers}.csv"
        rc = cli_main(
            [
                "experiment",
                "--preset",
                "fig1-left-desk",
                "--config",
                str(cfg),
                "--workers",
                str(workers),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        paths.append(out)
    wall_s = time.perf_counter() - t0
    return paths, wall_s


def sweep_estimates(path):
    by_cell = {}
    for row in read_results_csv(str(path)):
        by_cell[(float(row["rho"]), int(row["n"]))] = float(row["estimate"])
    return by_cell


@pytest.mark.slow
def test_cdf_engine_matches_independent_oracles():
    rng = np.random.default_rng(314159)
    t0 = time.perf_counter()
    worst_quad = 0.0
    worst_z = 0.0
    for _ in range(100):
        m = draw_model(rng)
        beta = float(rng.uniform(0.0, 1.0))
        x = rng.uniform(-2.5, 2.5, size=2)
        value = mixture_pushforward_cdf(m, beta, x)
        ref = oracle_cdf_quad2d(m, beta, x)
        worst_quad = max(worst_quad, abs(value - ref))
        mc = oracle_cdf_mc(m, beta, x, 1_000_000, rng)
        sigma = max(np.sqrt(value * (1.0 - value) / 1e6), 1e-6)
        worst_z = max(worst_z, abs(value - mc) / sigma)
    elapsed = time.perf_counter() - t0
    assert worst_quad <= 1e-7, f"quadrature oracle gap {worst_quad:.3e}"
    assert worst_z <= 4.0, f"sampling oracle z-score {worst_z:.2f}"
    assert elapsed <= 120.0, f"oracle sweep took {elapsed:.0f}s"


def special_route_cases(route):
    """Seeded (matrix, beta, threshold, contaminant) cases that reach one of
    the closed form's special routes.  A threshold A e0 with e0 in
    [-0.5, 1.5]^2 lies in the bulk of the law."""
    rng = np.random.default_rng(2718)
    xi = CENTERED_EXPONENTIAL

    def model():
        return draw_model(rng).as_array()

    def point(a):
        return a @ rng.uniform(-0.5, 1.5, size=2)

    if route == "ne-swap":
        # a matrix and its column swap: the engine integrates the NE row of
        # one as the EN row of the other; beta = 1/2 weighs each row by 1/4
        cases = []
        for _ in range(8):
            a = model()
            x = point(a)
            cases += [(a, 0.5, x, xi), (a[:, ::-1], 0.5, x, xi)]
        return cases
    if route == "tiny-slope":
        # |a_i2| = 1e-15 is a steep row of the EN and EE reductions, and
        # |a_i1| = 1e-15 one of the swapped NE reduction
        mats = [
            np.reshape(m, (2, 2))
            for t in (1e-15, -1e-15)
            for m in ((1.0, t, 0.4, 0.9), (0.7, 0.5, -0.3, t), (t, 0.8, 0.6, 0.5), (0.9, -0.4, t, 1.0))
        ]
        return [(a, beta, point(a), xi) for a in mats for beta in (0.3, 0.8)]
    if route == "near-singular":
        # |det| = 1e-10 rounds the Gaussian pair's correlation to +1 or -1.
        # The image density is then a ridge 1e-10 wide, which the 2-D oracle
        # misses (gaps up to 0.26), so these cases go to the 1-D quadrature:
        # on NN rows it integrates where the engine takes min or max of two
        # normal CDFs
        mats = (np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]]), np.array([[1.0, 1.0], [-1.0, -1.0 - 1e-10]]))
        return [(a, beta, point(a), xi) for a in mats for beta in (0.0, 0.5) for _ in range(2)]
    if route == "standard-exponential":
        return [
            (a, float(rng.uniform(0.0, 1.0)), point(a), STANDARD_EXPONENTIAL)
            for a in (model() for _ in range(8))
        ]
    if route == "beta-0-1":
        return [(a, beta, point(a), xi) for a in (model() for _ in range(4)) for beta in (0.0, 1.0)]
    if route == "infinite-threshold":
        inf = np.inf
        cases = []
        for beta in (0.0, 0.4):
            a = model()
            x1, x2 = point(a)
            for x in ((inf, x2), (x1, inf), (-inf, x2), (x1, -inf), (inf, inf), (-inf, inf)):
                cases.append((a, beta, np.array(x), xi))
        return cases
    raise ValueError(route)


@pytest.mark.slow
@pytest.mark.parametrize(
    "route",
    ["ne-swap", "tiny-slope", "near-singular", "standard-exponential", "beta-0-1", "infinite-threshold"],
)
def test_cdf_engine_matches_oracle_on_special_routes(route):
    oracle = quad_mixture_cdf if route == "near-singular" else oracle_cdf_quad2d
    gaps = []
    for m, beta, x, xi in special_route_cases(route):
        value = mixture_pushforward_cdf(m, beta, x, xi=xi)
        ref = oracle(m, beta, x, xi=xi)
        gaps.append(abs(value - ref))
    assert max(gaps) <= 1e-7, f"quadrature oracle gaps {np.array(gaps)}"


def test_expansion_reconstructs_mixture_exactly(pair):
    t0 = time.perf_counter()
    grid = EvalGrid.tensor(n=21)
    worst = 0.0
    for m in pair:
        fields = [
            gamma_k_batch(m, k, grid.points)
            for k in range(P_DIM + 1)
        ]
        for beta in (0.0, 0.1, 0.5, 1.0):
            recon = sum(
                beta**k * DEFAULT_MEASURE.norm_c**k * fields[k]
                for k in range(P_DIM + 1)
            )
            direct = mixture_cdf_batch(m, beta, grid.points)
            worst = max(worst, float(np.max(np.abs(recon - direct))))
    # the scalar entry point rides the same coefficients
    m_a = pair[0]
    for x in ((0.0, 0.0), (-1.0, 2.0), (3.0, -0.5)):
        gap = abs(
            polynomial_reconstruct(m_a, 0.5, x)
            - float(mixture_cdf_batch(m_a, 0.5, [x])[0])
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"reconstruction gap {worst:.3e}"
    assert elapsed <= 60.0, f"reconstruction sweep took {elapsed:.0f}s"


def test_first_order_deviation_halves_with_level(pair):
    m_a = pair[0]
    grid = EvalGrid.tensor()
    c = DEFAULT_MEASURE.norm_c
    base = mixture_cdf_batch(m_a, 0.0, grid.points)
    first = gamma_k_batch(m_a, 1, grid.points)

    def deviation(beta):
        fb = mixture_cdf_batch(m_a, beta, grid.points)
        return float(np.max(np.abs((fb - base) / (beta * c) - first)))

    ratio = deviation(0.01) / deviation(0.02)
    assert 0.35 <= ratio <= 0.65, f"halving ratio {ratio:.3f}"


def test_first_order_field_bounds(pair):
    grid = EvalGrid.tensor()
    rng = np.random.default_rng(MASTER_SEED)
    matrices = list(pair) + [draw_model(rng) for _ in range(10)]
    c = DEFAULT_MEASURE.norm_c
    xi, zeta = DEFAULT_MEASURE.xi, DEFAULT_MEASURE.zeta
    worst_field = 0.0
    worst_single = 0.0
    for m in matrices:
        worst_field = max(worst_field, sup_on_grid(gamma_k_batch(m, 1, grid.points)))
        base = pure_cdf_batch(m, (zeta, zeta), grid.points)
        for comps in ((xi, zeta), (zeta, xi)):
            term = (pure_cdf_batch(m, comps, grid.points) - base) / c
            worst_single = max(worst_single, sup_on_grid(term))
    assert worst_field <= 2.0 * P_DIM, f"first-order sup {worst_field:.3f}"
    assert worst_single <= 2.0, f"single placement sup {worst_single:.3f}"


def test_equal_products_collide_at_zero_and_separate_contaminated(pair):
    m_a, m_b = pair
    grid = EvalGrid.tensor()
    null_gap = mixture_sup_gap(m_a, m_b, 0.0, grid)
    cont_gap = mixture_sup_gap(m_a, m_b, 0.5, grid)
    assert null_gap <= 1e-7, f"uncontaminated gap {null_gap:.3e}"
    assert cont_gap > 1e-4, f"contaminated gap {cont_gap:.3e}"


def test_divergence_rate_linear_and_bounded(pair):
    m_a, m_b = pair
    grid = EvalGrid.tensor()
    r1 = mixture_sup_gap(m_a, m_b, 0.01, grid) / 0.01
    r2 = mixture_sup_gap(m_a, m_b, 0.005, grid) / 0.005
    k_const = estimate_K(m_a, m_b, grid)
    assert abs(k_const - K_WORKED) <= 1e-12
    assert abs(r1 - r2) / r1 <= 0.05, f"rate drift {abs(r1 - r2) / r1:.4f}"
    assert abs(r2 - k_const) / k_const <= 0.05, (
        f"rate {r2:.6f} vs slope {k_const:.6f}"
    )
    bound = 4.0 * P_DIM * DEFAULT_MEASURE.norm_c
    assert max(r1, r2) <= bound, f"rate exceeds {bound:.4f}"


def test_schedule_experiment_reproduces_reference_curves(desk_runs, limit_sample):
    paths, wall_s = desk_runs
    est = sweep_estimates(paths[0])
    n_common = sorted({n for (_, n) in est})

    fast = est[(0.25, 5000)]
    assert fast >= 0.9, f"rho=0.25 estimate at n=5000 is {fast:.3f}"

    slow = est[(0.75, 5000)]
    p_lim, se_lim = limit_sample.survival(1.0)
    se_slow = np.sqrt(slow * (1.0 - slow) / 200)
    joint = float(np.hypot(se_slow, se_lim))
    assert abs(slow - p_lim) <= 3.0 * joint, (
        f"rho=0.75 estimate {slow:.3f} vs limit {p_lim:.3f} "
        f"(3 joint SE = {3 * joint:.3f})"
    )

    for n in n_common:
        assert est[(0.25, n)] >= est[(0.75, n)], (
            f"curve order violated at n={n}: "
            f"{est[(0.25, n)]:.3f} < {est[(0.75, n)]:.3f}"
        )

    assert wall_s <= 900.0, f"desk sweeps took {wall_s:.0f}s"


def test_sqrt_rate_estimate_within_sandwich(pair, limit_sample):
    m_a, m_b = pair
    n = 5000
    scenario = Scenario(
        m_a,
        m_b,
        n,
        c=1.0,
        beta=0.5 / np.sqrt(n),
        n_reps=200,
        grid=EvalGridSpec(m_points=500),
        master_seed=MASTER_SEED,
    )
    result = estimate_probability(scenario)
    bracket = sandwich_bounds(0.5, 1.0, limit_sample)
    lo = bracket.lower - 3.0 * bracket.lower_stderr
    hi = bracket.upper + 3.0 * bracket.upper_stderr
    assert lo <= result.estimate <= hi, (
        f"estimate {result.estimate:.3f} outside [{lo:.3f}, {hi:.3f}]"
    )


def test_median_statistic_increases_with_sample_size(pair):
    m_a, m_b = pair
    # indices match the desk preset cells so the draws are the same ones
    # a full sweep would produce
    cells = ((500, 2), (1000, 3), (2000, 4), (5000, 6))
    medians = []
    for n, index in cells:
        scenario = Scenario(
            m_a,
            m_b,
            n,
            c=1.0,
            rho=0.25,
            n_reps=200,
            grid=EvalGridSpec(m_points=500),
            master_seed=MASTER_SEED,
            index=index,
        )
        stats = estimate_probability(scenario, retain_stats=True).stats
        medians.append(float(np.median(stats)))
    assert all(a < b for a, b in zip(medians, medians[1:])), (
        f"medians not strictly increasing: {[f'{v:.4f}' for v in medians]}"
    )


def test_worker_count_invisible_in_cli_output(desk_runs):
    paths, _ = desk_runs
    blob_a = paths[0].read_bytes()
    blob_b = paths[1].read_bytes()
    assert blob_a == blob_b
    text = blob_a.decode("utf-8")
    assert "# center_xi: false" in text
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert len(body) == 1 + 28  # header plus one row per sweep cell
