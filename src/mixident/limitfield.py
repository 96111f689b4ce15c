"""Approximate law of the limiting supremum and its contamination sandwich.

Without contamination, sqrt(n) times the uniform distance between the
empirical and true CDFs converges to the supremum of a mean-zero Gaussian
field with covariance F(x ^ y) - F(x) F(y).  That law has no closed form,
so it is approximated the same way the experiment measures distances: draw
a large uncontaminated sample, evaluate the scaled statistic on a thinned
corner grid, repeat.  Grid thinning biases the experiment and this
reference alike only in the large-n limit, where m corners subsampled
from the n^2 behave like m draws from the product of the marginals; at
finite n (the experiment's n against n0) the two biases differ.  The
draws go through the experiment's replication engine and job queue:
contiguous blocks of draw indices on the process's worker pool
(``workers``), each block evaluating the target CDF once per chunk of
draws.  The pool is the one sweeps use: forked once per process and pool
size, idle between calls and closed at exit, and the draws do not depend
on it.

With contamination shrinking at the critical square-root rate with
intensity k, the exceedance probability of the statistic is sandwiched
between survival probabilities of the same limit law at thresholds moved
by 4 * p * k * (contrast norm), with p = 2 coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import EvalGridSpec, _whole_numbers
from .expansion import DEFAULT_MEASURE, P_DIM
from .laws import CENTERED_EXPONENTIAL, STANDARD_NORMAL, RngStream
from .montecarlo import _run_jobs
from .pushforward import as_matrix


@dataclass(frozen=True, eq=False)
class LimitLawSample:
    """Monte Carlo draws approximating the limiting supremum's law."""

    draws: np.ndarray
    n0: int
    grid: EvalGridSpec

    def __post_init__(self):
        d = np.asarray(self.draws, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("draws must be a nonempty 1-D array")
        if not np.all(d >= 0.0):
            raise ValueError("the limiting supremum is nonnegative")
        object.__setattr__(self, "draws", d)

    @property
    def n_draws(self) -> int:
        return self.draws.size

    def survival(self, c: float, strict: bool = True) -> tuple[float, float]:
        """P(draw > c) (or >= c) with its binomial standard error; a
        negative or NaN threshold raises ``ValueError``."""
        if not c >= 0.0:
            raise ValueError(f"threshold must be nonnegative, got {c}")
        hits = self.draws > c if strict else self.draws >= c
        p = float(np.mean(hits))
        return p, math.sqrt(p * (1.0 - p) / self.draws.size)


def simulate_limit_sup(
    m,
    n0: int = 20_000,
    n_draws: int = 500,
    grid: EvalGridSpec | None = None,
    master_seed: int = 20260819,
    workers: int = 1,
) -> LimitLawSample:
    """n_draws independent draws of the scaled statistic at level zero.

    Each draw simulates n0 uncontaminated observations of the model and
    measures sqrt(n0) times the grid supremum against the exact Gaussian
    pushforward CDF.  n0 defaults large enough that the remaining
    finite-sample error is below the Monte Carlo noise of the draws.

    Draws run through the replication job queue of ``mixident.montecarlo``
    (the one ``estimate_probability`` and ``run_sweep`` use), in contiguous
    blocks on the process's pool of ``workers`` processes, sized, validated
    and reused as there; draw r is a pure function of (master_seed, r), so
    the draws do not depend on ``workers`` or on earlier calls.
    """
    n0, n_draws, master_seed = _whole_numbers((n0, n_draws, master_seed))
    if n_draws < 1:
        raise ValueError(f"need at least one draw, got {n_draws}")
    m = as_matrix(m)
    if grid is None:
        grid = EvalGridSpec(m_points=500)
    # draw r reads streams (r, 0) and (r, 1) of the master seed
    job = (m, m, 0.0, n0, grid, CENTERED_EXPONENTIAL, STANDARD_NORMAL, RngStream(master_seed))
    ((draws, _),) = _run_jobs([(job, n_draws)], workers)
    return LimitLawSample(draws, n0=n0, grid=grid)


@dataclass(frozen=True)
class SandwichBounds:
    """Survival probabilities bracketing the contaminated exceedance."""

    lower: float
    upper: float
    lower_stderr: float
    upper_stderr: float
    shift: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError("bounds out of order")


def sandwich_bounds(k: float, c: float, limit: LimitLawSample) -> SandwichBounds:
    """Bracket P(statistic > c) under square-root-rate contamination.

    The exceedance probability is at least the limit law's survival
    strictly above c + 4 p k norm_c and at most its survival weakly
    above c - 4 p k norm_c, with norm_c of the default measure.  The
    draws are nonnegative, so a lower threshold below zero reads as zero.
    """
    if not k >= 0.0:
        raise ValueError(f"intensity must be nonnegative, got {k}")
    if not c >= 0.0:
        raise ValueError(f"threshold must be nonnegative, got {c}")
    shift = 4.0 * P_DIM * k * DEFAULT_MEASURE.norm_c
    lower, lo_se = limit.survival(c + shift, strict=True)
    upper, up_se = limit.survival(max(c - shift, 0.0), strict=False)
    return SandwichBounds(lower, upper, lo_se, up_se, shift)


def limit_results_csv_lines(
    limit: LimitLawSample,
    c_list,
    metadata: dict | None = None,
) -> list[str]:
    """Survival table rows for the CLI: one line per threshold."""
    lines = [f"# {k}: {v}" for k, v in (metadata or {}).items()]
    lines.append("c,estimate,stderr,n0,n_draws,grid_mode,grid_points")
    for c in c_list:
        p, se = limit.survival(float(c))
        lines.append(
            ",".join(
                [
                    repr(float(c)),
                    repr(p),
                    repr(se),
                    str(limit.n0),
                    str(limit.n_draws),
                    limit.grid.mode.value,
                    str(limit.grid.m_points),
                ]
            )
        )
    return lines
