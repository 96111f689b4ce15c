"""Replicated estimation of exceedance probabilities for the statistic.

Each replication draws n observations from the first mixing model at a
contamination level tied to n (schedule beta_n = n^(-rho), or a fixed
level), evaluates the scaled uniform distance against the second model's
analytic mixture CDF on a thinned grid, and the scenario estimate is the
fraction of replications whose statistic strictly exceeds the threshold.

Determinism contract: every replication's randomness is a pure function
of (master seed, scenario index, replication index, purpose), so results
are identical no matter how replications are scheduled across workers.
Scenario CSV output is byte-identical across worker counts; wall-clock
timing is therefore kept out of the CSV unless explicitly requested.

Parallelism: a call runs every replication it needs as one job queue on
one process pool.  The pool size is the requested worker count clamped
to the largest scenario's replication count and to the CPUs available to
the process; a count below one is rejected, and a size of one runs every
job in-process without a pool.  The workers are forked once per process
and pool size: the first call that needs a pool of a given size starts
it, later calls of that size reuse its workers, which wait idle between
calls, and a call of another size, or a call after a worker died, starts
a new one.  The pool closes when the interpreter exits, and a process
forked from one that holds a pool starts its own.  Results do not depend
on which pool, or how many, ran them.  A job is a contiguous block of one
scenario's replication indices, run through
``empirical.replication_statistics``, which evaluates the target CDF once
per chunk of replications rather than once per grid.  A block holds at
most one such chunk, and is cut smaller only where the pool would
otherwise have idle workers.  All jobs of a call, across every scenario
of a sweep, go to the pool in one batch, so a free worker takes the next
job instead of waiting for the rest of a scenario.  A scenario's
``wall_ms`` is therefore not an elapsed time: it sums the time its blocks
spent running in their workers.  The limit law of ``mixident.limitfield``
runs its draws through the same queue.
"""

from __future__ import annotations

import atexit
import functools
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .empirical import (
    _TARGET_CHUNK,
    EvalGridSpec,
    _whole_fields,
    _whole_numbers,
    replication_statistics,
)
from .laws import (
    CENTERED_EXPONENTIAL,
    STANDARD_NORMAL,
    ComponentLaw,
    RngStream,
)
from .pushforward import as_matrix, equal_product_pair


@dataclass(frozen=True)
class Scenario:
    """One (contamination schedule, sample size) cell of the experiment."""

    m_a: object
    m_b: object
    n: int
    c: float = 1.0
    rho: float | None = None
    beta: float | None = None
    n_reps: int = 200
    grid: EvalGridSpec = field(default_factory=EvalGridSpec)
    master_seed: int = 0
    index: int = 0
    xi: ComponentLaw = CENTERED_EXPONENTIAL
    zeta: ComponentLaw = STANDARD_NORMAL

    def __post_init__(self):
        object.__setattr__(self, "m_a", as_matrix(self.m_a))
        object.__setattr__(self, "m_b", as_matrix(self.m_b))
        _whole_fields(self, "n", "n_reps", "master_seed", "index")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.n_reps < 1:
            raise ValueError(f"need at least one replication, got {self.n_reps}")
        if not self.c >= 0.0:
            raise ValueError(f"threshold must be nonnegative, got {self.c}")
        if (self.rho is None) == (self.beta is None):
            raise ValueError("set exactly one of rho (schedule) or beta (fixed)")
        if self.rho is not None:
            if self.rho <= 0.0:
                raise ValueError(f"rho must be positive, got {self.rho}")
            if not 0.0 < self.beta_n < 1.0:
                raise ValueError(
                    f"schedule gives beta_n = {self.beta_n}, outside (0, 1)"
                )
        elif not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")

    @property
    def beta_n(self) -> float:
        if self.rho is not None:
            return float(self.n) ** (-self.rho)
        return self.beta

    @property
    def scenario_id(self) -> str:
        tag = f"rho{self.rho:g}" if self.rho is not None else f"beta{self.beta:g}"
        return f"{tag}-n{self.n}"


@dataclass(frozen=True)
class ScenarioResult:
    """Exceedance estimate with its binomial standard error.

    ``wall_ms`` sums the in-worker times of the scenario's replication
    blocks; with workers shared across scenarios it is not elapsed time.
    """

    scenario: Scenario
    estimate: float
    stderr: float
    wall_ms: float
    stats: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.estimate <= 1.0:
            raise ValueError("estimate must be a probability")


def _rep_block(args) -> tuple[np.ndarray, float]:
    """Statistics of replications ``indices`` of a job, and the milliseconds
    they took; replication r reads the streams under ``root.child(r)``."""
    (m_sample, m_target, beta, n, grid, xi, zeta, root), indices = args
    t0 = time.perf_counter()
    stats = replication_statistics(
        m_sample, m_target, beta, n, grid, [root.child(r) for r in indices], xi, zeta
    )
    return stats, (time.perf_counter() - t0) * 1e3


def _scenario_job(s: Scenario) -> tuple:
    root = RngStream(s.master_seed).child(s.index)
    return (s.m_a, s.m_b, s.beta_n, s.n, s.grid, s.xi, s.zeta, root)


def run_replication(scenario: Scenario, rep_index: int) -> float:
    """Statistic of one replication; pure in (seed, index, rep_index)."""
    return float(_rep_block((_scenario_job(scenario), [rep_index]))[0][0])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# (pid of the process that started it, size, executor), or None
_POOL = None
_POOL_LOCK = threading.Lock()


def _drop_pool() -> None:
    """Forget the pool, and shut it down if this process started it; a
    forked child only forgets its parent's.  Call with the lock held."""
    global _POOL
    if _POOL is not None and _POOL[0] == os.getpid():
        _POOL[2].shutdown()
    _POOL = None


def _close_pool() -> None:
    """Shut down and forget this process's pool; runs at interpreter exit."""
    with _POOL_LOCK:
        _drop_pool()


atexit.register(_close_pool)


def _pool_map(size: int, fn, blocks) -> list:
    """``fn`` over ``blocks`` on this process's pool of ``size`` workers,
    started here unless the last call left one of that size.  A pool that
    breaks is dropped, so the next call starts a new one."""
    global _POOL
    try:
        with _POOL_LOCK:
            if _POOL is None or _POOL[:2] != (os.getpid(), size):
                _drop_pool()
                _POOL = (os.getpid(), size, ProcessPoolExecutor(max_workers=size))
            pool = _POOL[2]
            # submitted under the lock, so that a new pool's shutdown of this
            # one waits for these blocks
            results = pool.map(fn, blocks)
        return list(results)
    except BrokenProcessPool:
        with _POOL_LOCK:
            if _POOL is not None and _POOL[2] is pool:
                _drop_pool()
        raise


def _rep_map(workers: int, n_reps: int):
    """(map, size): the map that runs replication blocks on ``size``
    workers, clamped to the replications and to the CPUs available; one
    worker maps in-process, more map on the process's pool of that size."""
    (workers,) = _whole_numbers((workers,))
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    size = min(workers, n_reps, _usable_cpus())
    if size == 1:
        return map, 1
    return functools.partial(_pool_map, size), size


def _run_jobs(jobs, workers: int) -> list[tuple[np.ndarray, float]]:
    """Run ``n_reps`` replications of each ``(job, n_reps)`` through one
    queue of contiguous blocks on one pool; give each job's statistics,
    ordered by replication index, and the in-worker milliseconds of its
    blocks.  The pool is the process's pool of the clamped size, whose
    workers outlive the call (see the module docstring).

    A block holds at most one target chunk of replications, and at most
    an even share of all replications per worker, so every worker of the
    pool has a block to run.
    """
    run, size = _rep_map(workers, max(n for _, n in jobs))
    share = math.ceil(sum(n for _, n in jobs) / size)
    blocks, owners = [], []
    for k, (job, n) in enumerate(jobs):
        grid = job[4]  # the job's EvalGridSpec
        step = max(1, min(_TARGET_CHUNK // grid.m_points, share))
        for lo in range(0, n, step):
            blocks.append((job, range(lo, min(lo + step, n))))
            owners.append(k)
    stats = [np.empty(n) for _, n in jobs]
    wall_ms = [0.0] * len(jobs)
    for k, (_, indices), (values, ms) in zip(owners, blocks, run(_rep_block, blocks)):
        stats[k][indices.start:indices.stop] = values
        wall_ms[k] += ms
    return list(zip(stats, wall_ms))


def probability_above(stats: np.ndarray, c: float) -> tuple[float, float]:
    """Indicator average of {stat > c} and its binomial standard error.

    A non-finite statistic, or a negative or NaN threshold, raises
    ``ValueError``: NaN would otherwise count as no exceedance.
    """
    if not c >= 0.0:
        raise ValueError(f"threshold must be nonnegative, got {c}")
    if not np.all(np.isfinite(stats)):
        raise ValueError("non-finite replication statistics")
    p_hat = float(np.mean(stats > c))
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / stats.size)


def _estimates(scenarios, workers: int, retain_stats: bool) -> list[ScenarioResult]:
    runs = _run_jobs([(_scenario_job(s), s.n_reps) for s in scenarios], workers)
    out = []
    for s, (stats, wall_ms) in zip(scenarios, runs):
        p_hat, se = probability_above(stats, s.c)
        out.append(ScenarioResult(s, p_hat, se, wall_ms, stats if retain_stats else None))
    return out


def estimate_probability(
    scenario: Scenario,
    workers: int = 1,
    retain_stats: bool = False,
) -> ScenarioResult:
    return _estimates([scenario], workers, retain_stats)[0]


# ---------------------------------------------------------------------------
# sweeps and presets


@dataclass(frozen=True)
class SweepConfig:
    """Cross product of contamination schedules and sample sizes."""

    m_a: object
    m_b: object
    rho_list: tuple[float, ...]
    n_list: tuple[int, ...]
    c: float = 1.0
    n_reps: int = 200
    grid: EvalGridSpec = field(default_factory=lambda: EvalGridSpec(m_points=500))
    master_seed: int = 20260819
    xi: ComponentLaw = CENTERED_EXPONENTIAL
    zeta: ComponentLaw = STANDARD_NORMAL

    def __post_init__(self):
        object.__setattr__(self, "m_a", as_matrix(self.m_a))
        object.__setattr__(self, "m_b", as_matrix(self.m_b))
        object.__setattr__(self, "rho_list", tuple(float(r) for r in self.rho_list))
        object.__setattr__(self, "n_list", _whole_numbers(self.n_list))
        _whole_fields(self, "n_reps", "master_seed")
        if not self.rho_list:
            raise ValueError("empty rho list")
        if not self.n_list:
            raise ValueError("empty n list")

    def scenarios(self) -> list[Scenario]:
        out = []
        index = 0
        for rho in self.rho_list:
            for n in self.n_list:
                out.append(
                    Scenario(
                        self.m_a, self.m_b, n, c=self.c, rho=rho,
                        n_reps=self.n_reps, grid=self.grid,
                        master_seed=self.master_seed, index=index,
                        xi=self.xi, zeta=self.zeta,
                    )
                )
                index += 1
        return out


_LEFT_N = (100, 250, 500, 1000, 2000, 3500, 5000)
_RIGHT_RHO = (0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75)

# name -> (rho list, n list, replications, grid points)
_PRESETS = {
    "fig1-left": ((0.25, 0.35, 0.50, 0.75), _LEFT_N, 1000, 1000),
    "fig1-left-desk": ((0.25, 0.35, 0.50, 0.75), _LEFT_N, 200, 500),
    "fig1-right": (_RIGHT_RHO, (50_000,), 1000, 1000),
    "fig1-right-desk": (_RIGHT_RHO, (20_000,), 200, 500),
}

PRESET_NAMES = tuple(_PRESETS)


def preset_config(name: str, **overrides) -> SweepConfig:
    """Named experiment configurations; *-desk variants shrink the run.
    Each is the equal-product pair at alpha = 0.4 with threshold 1."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    rho_list, n_list, n_reps, m_points = _PRESETS[name]
    m_a, m_b = equal_product_pair(0.4)
    base = dict(
        m_a=m_a, m_b=m_b, rho_list=rho_list, n_list=n_list, n_reps=n_reps,
        grid=EvalGridSpec(m_points=m_points),
    )
    base.update(overrides)
    return SweepConfig(**base)


def run_sweep(
    config: SweepConfig,
    workers: int = 1,
    retain_stats: bool = False,
) -> list[ScenarioResult]:
    """Every scenario's estimate, in scenario order, from one job queue on
    one worker pool."""
    return _estimates(config.scenarios(), workers, retain_stats)


# ---------------------------------------------------------------------------
# CSV output

CSV_HEADER = (
    "scenario_id,rho,beta,n,c,N,grid_mode,grid_points,estimate,stderr,seed,wall_ms"
)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def results_csv_lines(
    results: list[ScenarioResult],
    metadata: dict | None = None,
    timing: bool = False,
) -> list[str]:
    """CSV content as lines; timing off keeps output byte-reproducible."""
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}: {value}")
    lines.append(CSV_HEADER)
    for res in results:
        s = res.scenario
        lines.append(
            ",".join(
                [
                    s.scenario_id,
                    _fmt(s.rho),
                    _fmt(float(s.beta_n)),
                    str(s.n),
                    _fmt(float(s.c)),
                    str(s.n_reps),
                    s.grid.mode.value,
                    str(s.grid.m_points),
                    _fmt(res.estimate),
                    _fmt(res.stderr),
                    str(s.master_seed),
                    _fmt(res.wall_ms) if timing else "",
                ]
            )
        )
    return lines


def write_results_csv(
    results: list[ScenarioResult],
    path,
    metadata: dict | None = None,
    timing: bool = False,
) -> None:
    text = "\n".join(results_csv_lines(results, metadata, timing)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# the sample-size heuristic


def predict_threshold_n(rho: float, c: float, k_const: float) -> float:
    """Heuristic sample size where divergence overtakes the threshold.

    Solves sqrt(n) * K * n^(-rho) = c for n, with K from
    ``expansion.estimate_K``: the statistic's drift reaches c once n
    exceeds exp(log(c/K) / (1/2 - rho)).
    """
    if not 0.0 < rho < 0.5:
        raise ValueError(f"heuristic needs 0 < rho < 1/2, got {rho}")
    if not (c > 0.0 and k_const > 0.0):
        raise ValueError("need positive threshold and rate constant")
    return math.exp(math.log(c / k_const) / (0.5 - rho))
