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

Tables: ``table_lines`` lays out every table the tool writes (the sweep
results here, the limit law's survival table, the ``verify`` report and
the ``gamma`` field), and ``write_text`` writes every file it writes.

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
on which pool, or how many, ran them.  A job is cut into blocks, each a
contiguous range of one scenario's replication indices, and the blocks
are grouped into tasks, each run by ``_run_task``.  Every block takes one
path from counts to statistic: it draws its replications' samples a stack
of up to ``laws._SLICE_POINTS`` sample points at a time, as one array,
draws each replication's corners, counts each stack's corners as one
stacked sample, and keeps its corners as
``empirical._Candidates``; the task then evaluates the target CDF once on
the kept corners of its blocks rather than once per grid, one kernel call
per assignment, and each block takes its statistics from its own slice.
A block keeps every corner unless it is bracketed: when a call evaluates
one target at ``pushforward._BRACKET_NODES``^2 corners or more of
contaminated jobs with n up to ``_BRACKET_MAX_N``, those jobs' blocks
bracket the target first.  A CDF is monotone in each coordinate, so the
target's ``pushforward.bracket_table`` (its pure rows on a node grid,
built once per process) bounds it at every corner, and the exact value
is needed only at the corners whose deviation bound can still reach
their replication's maximum; the statistic is a maximum, so it does not
change.  Those bracketed blocks are dealt round-robin into one task per
worker, since the per-call cost, not the number of corners, is what the
target costs there; every other block is a task of its own.  A block
holds at most ``_TARGET_CHUNK`` grid points (at least one replication),
and is cut smaller only where the pool would otherwise have idle
workers.  All tasks of a call, across every scenario of a sweep, go to
the pool in one batch, so a free worker takes the next unbracketed block
instead of waiting for the rest of a scenario.  A scenario's ``wall_ms``
is therefore not an elapsed time: it sums the time its blocks spent
running in their workers, a shared kernel call split over its blocks by
their kept corner counts.  The limit law of
``mixident.limitfield`` runs its draws through the same queue.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing.process
import os
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .empirical import (
    GRID_MODE,
    EvalGridSpec,
    _Candidates,
    _check_sample_size,
    _corner_counts,
    _replication_stacks,
    _whole_fields,
    _whole_numbers,
)
from .laws import (
    _SLICE_POINTS,
    CENTERED_EXPONENTIAL,
    STANDARD_NORMAL,
    ComponentLaw,
    ContaminatedLaw,
    RngStream,
)
from .pushforward import (
    _BRACKET_NODES,
    as_matrix,
    assignment_comps,
    bracket_table,
    equal_product_pair,
    mixture_weights,
    pure_cdf_batch,
    weighted_rows,
)


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
        _check_sample_size(self.grid, self.n)

    @property
    def beta_n(self) -> float:
        if self.rho is not None:
            return float(self.n) ** (-self.rho)
        return self.beta

    @property
    def scenario_id(self) -> str:
        return _scenario_id(self.rho, self.beta, self.n)


def _scenario_id(rho, beta, n) -> str:
    tag = f"rho{rho:g}" if rho is not None else f"beta{beta:g}"
    return f"{tag}-n{n}"


@dataclass(frozen=True)
class ScenarioResult:
    """Exceedance estimate with its binomial standard error.

    ``wall_ms`` sums the in-worker times of the scenario's replication
    blocks; with workers shared across scenarios it is not elapsed time.
    The time of a kernel call that blocks of several scenarios share is
    split over the blocks by their kept corner counts
    (``empirical._Candidates``), so the scenarios' times still add up to
    the time spent in the workers.
    """

    scenario: Scenario
    estimate: float
    stderr: float
    wall_ms: float
    stats: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.estimate <= 1.0:
            raise ValueError("estimate must be a probability")


# grid points per target-CDF call: the closed form pays numpy's per-call
# overhead once per block of replications, not once per grid
_TARGET_CHUNK = 4096

# largest n at which whole runs were measured faster with brackets (the
# fig1-left-desk cells).  Candidates grow with n, from 3-6% of the corners
# at 5000 to 8-28% at 20 000 and 64-90% at 100 000 to 200 000 (rho 0.75),
# where a block stops gaining; whole fig1-right-desk and fig1-right runs
# showed no gain.  At level zero the target is the one cheap Gaussian
# row, whose bracket saved at most 7% of a block (n = 100) and lost from
# n = 5000 on, so level-zero jobs are never bracketed.
_BRACKET_MAX_N = 5000


def _run_task(blocks) -> list[tuple[np.ndarray, float]]:
    """Statistics of each block of a task, in task order, with the
    milliseconds each took.

    A block ``(job, indices, bracketed)`` holds replications ``indices`` of
    a job, and every block takes the same path.  Replication r draws n
    points of m_sample at level beta from ``root.child(r, 0)`` and its
    corner indices from ``root.child(r, 1)``.  Consecutive replications
    of up to ``laws._SLICE_POINTS`` points in all (at least one) form a
    stack: ``empirical._replication_stacks`` draws its samples as one
    array, and ``empirical._corner_counts`` counts its corners as one
    stacked sample.  The block keeps its corners as ``empirical._Candidates``:
    every corner, or, when it is bracketed, only those that m_target's
    ``pushforward.bracket_table`` leaves able to attain a maximum.

    The task evaluates the kept corners of its blocks together: when they
    reach ``laws._SLICE_POINTS`` points, when the next block's target (its
    matrix entries' bytes, xi and zeta) differs, and when the task ends, it
    makes one ``pure_cdf_batch`` call per assignment whose weight is
    nonzero in any kept block; the corners never repeat, so the rows skip
    the row cache.  Each block sums its own slice of those rows with its
    own mixture weights, in ``weighted_rows`` order, as
    ``PureFields.combine`` sums.  A block whose exact value leaves its
    bracket runs again, alone and unbracketed.

    The closed form is pointwise and a lane's value does not depend on its
    batch, so every statistic equals the one ``empirical.sup_stat`` gives
    alone, bit for bit.  The time of a kernel call that several blocks
    share is split over them by their kept corner counts, so the
    milliseconds of a task's blocks add up to the task's time.
    """
    results = [None] * len(blocks)
    kept = []  # (slot, block, mixture weights, candidates, milliseconds so far)

    def flush():
        t0 = time.perf_counter()
        _, m_target, _, _, _, xi, zeta, _ = kept[0][1][0]
        comps = assignment_comps(xi, zeta)
        corners = np.concatenate([cand.corners for *_, cand, _ in kept])
        used = np.any([weights != 0 for _, _, weights, _, _ in kept], axis=0)
        rows = [pure_cdf_batch(m_target, c, corners) if u else None for c, u in zip(comps, used)]
        ms_per_point = (time.perf_counter() - t0) * 1e3 / len(corners)
        start = 0
        for slot, (job, indices, _), weights, cand, ms in kept:
            t1 = time.perf_counter()
            stop = start + len(cand.corners)
            g = weighted_rows(weights, lambda a: rows[a][start:stop], stop - start)
            stats = cand.sup(g)
            ms += ms_per_point * (stop - start)
            if stats is None:
                ((stats, again),) = _run_task([(job, indices, False)])
                ms += again
            results[slot] = (stats, ms + (time.perf_counter() - t1) * 1e3)
            start = stop
        kept.clear()

    for slot, block in enumerate(blocks):
        job, indices, bracketed = block
        m_sample, m_target, beta, n, grid, xi, zeta, root = job
        # bytes, not the dataclass: -0.0 and 0.0 entries stay apart
        target = (m_target.as_array().tobytes(), xi, zeta)
        if kept and target != kept_target:
            flush()
        kept_target = target
        t0 = time.perf_counter()
        law = ContaminatedLaw(beta, xi, zeta)
        stacks = _replication_stacks(m_sample, law, n, grid, root, indices)
        pts, weak, strict = _corner_counts(stacks, n)
        weights = mixture_weights(beta)
        bracket = bracket_table(m_target, xi, zeta).bracket(weights, pts) if bracketed else None
        cand = _Candidates(weak, strict, n, pts, bracket)
        kept.append((slot, block, weights, cand, (time.perf_counter() - t0) * 1e3))
        if sum(len(cand.corners) for *_, cand, _ in kept) >= _SLICE_POINTS:
            flush()
    if kept:
        flush()
    return results


def _scenario_job(s: Scenario) -> tuple:
    root = RngStream(s.master_seed).child(s.index)
    return (s.m_a, s.m_b, s.beta_n, s.n, s.grid, s.xi, s.zeta, root)


def run_replication(scenario: Scenario, rep_index: int) -> float:
    """Statistic of one replication; pure in (seed, index, rep_index)."""
    return float(_run_task([(_scenario_job(scenario), [rep_index], False)])[0][0][0])


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
# a child made by os.fork() forgets its parent's processes, pool workers among
# them, as multiprocessing's own children do; it would try to join them at exit
os.register_at_fork(after_in_child=lambda: multiprocessing.process._children.clear())


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


def _run_jobs(jobs, workers: int) -> list[tuple[np.ndarray, float]]:
    """Run ``n_reps`` replications of each ``(job, n_reps)`` through one
    queue of tasks of contiguous blocks on one pool; give each job's
    statistics, ordered by replication index, and the in-worker
    milliseconds of its blocks.  ``workers`` is clamped to the largest ``n_reps`` and to the
    CPUs available; a size of one runs the blocks in-process, a larger one
    on the process's pool of that size, whose workers outlive the call (see
    the module docstring).

    A block holds at most ``_TARGET_CHUNK`` grid points (at least one
    replication), and at most an even share of all replications per
    worker, so every worker of the pool has a block to run.

    Every block runs the same path in ``_run_task``; a bracketed one keeps
    only its candidate corners (``empirical._Candidates``).  A job is
    bracketed when its level is above zero and its n is at most
    ``_BRACKET_MAX_N``, and the call's jobs that are both hold
    ``_BRACKET_NODES``^2 corners or more in all; every job of a call has
    the same target.  The other jobs keep every corner, and each of their
    blocks is a task of its own.  The bracketed blocks are dealt
    round-robin, in block order, into one task per worker, which evaluates
    the candidates of all its blocks in one kernel call per assignment; at
    a pool size of one they form one in-process task.  These tasks go to
    the pool first.  One task per worker gives up the queue's balancing
    among the bracketed blocks: a worker that finishes its task early does
    not take over blocks of another.  Each process that runs a bracketed
    block builds the target's ``pushforward.bracket_table`` once, 50-70 ms
    for its four rows, and keeps it for later calls.  So a one-off call
    just above the threshold on two workers gains least, or loses, since
    it pays for two tables, while repeated calls on the same pool, and
    larger calls, gain.
    """
    (workers,) = _whole_numbers((workers,))
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    size = min(workers, max(n for _, n in jobs), _usable_cpus())
    share = math.ceil(sum(n for _, n in jobs) / size)
    # job = (m_sample, m_target, beta, n, grid, ...)
    eligible = [job[2] > 0.0 and job[3] <= _BRACKET_MAX_N for job, _ in jobs]
    corners = sum(n * job[4].m_points for (job, n), ok in zip(jobs, eligible) if ok)
    blocks, owners = [], []
    for k, ((job, n), ok) in enumerate(zip(jobs, eligible)):
        step = max(1, min(_TARGET_CHUNK // job[4].m_points, share))
        bracketed = ok and corners >= _BRACKET_NODES**2
        for lo in range(0, n, step):
            blocks.append((job, range(lo, min(lo + step, n)), bracketed))
            owners.append(k)
    # bracketed blocks dealt round-robin into one task per worker, first, so
    # that each worker starts on one; then each other block alone
    dealt = [i for i, (_, _, bracketed) in enumerate(blocks) if bracketed]
    tasks = [dealt[w::size] for w in range(min(size, len(dealt)))]
    tasks += [[i] for i, (_, _, bracketed) in enumerate(blocks) if not bracketed]
    work = [[blocks[i] for i in task] for task in tasks]
    runs = map(_run_task, work) if size == 1 else _pool_map(size, _run_task, work)
    stats = [np.empty(n) for _, n in jobs]
    wall_ms = [0.0] * len(jobs)
    for task, results in zip(tasks, runs):
        for i, (values, ms) in zip(task, results):
            indices = blocks[i][1]
            stats[owners[i]][indices.start:indices.stop] = values
            wall_ms[owners[i]] += ms
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
        # the id names a cell in the CSV and in plots, so no two may share it
        ids = Counter(_scenario_id(rho, None, n) for rho in self.rho_list for n in self.n_list)
        repeated = [sid for sid, count in ids.items() if count > 1]
        if repeated:
            raise ValueError(f"rho and n lists give scenario id {repeated[0]} more than once")

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


def table_lines(header: str, rows, metadata: dict | None = None) -> list[str]:
    """A table the tool writes, as lines: ``# key: value`` per metadata
    item, the header, then each row's cells joined by commas; None prints
    empty, a float by ``repr``, anything else by ``str``."""
    lines = [f"# {key}: {value}" for key, value in (metadata or {}).items()]
    lines.append(header)
    for row in rows:
        lines.append(",".join(
            "" if v is None else repr(float(v)) if isinstance(v, float) else str(v) for v in row
        ))
    return lines


def write_text(path, text: str) -> None:
    """Writes ``text`` to ``path`` as UTF-8 with bare newlines; every file
    the tool writes goes through here."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def results_csv_lines(
    results: list[ScenarioResult],
    metadata: dict | None = None,
    timing: bool = False,
) -> list[str]:
    """CSV content as lines; timing off keeps output byte-reproducible."""
    rows = []
    for res in results:
        s = res.scenario
        rows.append((
            s.scenario_id, s.rho, float(s.beta_n), s.n, float(s.c), s.n_reps, GRID_MODE,
            s.grid.m_points, res.estimate, res.stderr, s.master_seed,
            res.wall_ms if timing else None,
        ))
    return table_lines(CSV_HEADER, rows, metadata)


def write_results_csv(
    results: list[ScenarioResult],
    path,
    metadata: dict | None = None,
    timing: bool = False,
) -> None:
    write_text(path, "\n".join(results_csv_lines(results, metadata, timing)) + "\n")


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
