"""Replicated exceedance estimation: determinism, sweeps, CSV, heuristics."""

import json
import math
import os
import signal
import subprocess
import sys
import textwrap
from dataclasses import replace
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from mixident import montecarlo, pushforward
from mixident.empirical import EvalGridSpec, build_eval_grid, draw_sample, sup_stat
from mixident.expansion import estimate_K
from mixident.laws import (
    _SLICE_POINTS,
    CENTERED_EXPONENTIAL,
    STANDARD_EXPONENTIAL,
    STANDARD_NORMAL,
    RngStream,
)
from mixident.montecarlo import (
    CSV_HEADER,
    PRESET_NAMES,
    Scenario,
    ScenarioResult,
    SweepConfig,
    estimate_probability,
    predict_threshold_n,
    preset_config,
    probability_above,
    results_csv_lines,
    run_replication,
    run_sweep,
)
from mixident.pushforward import equal_product_pair, mixture_cdf_batch, pure_cdf_batch

A_PAIR = equal_product_pair(0.4)

# frozen from the worked pair on the default 101x101 tensor grid
K_WORKED = 0.09351603186261481


def tiny_scenario(**kw):
    args = dict(
        m_a=A_PAIR[0],
        m_b=A_PAIR[1],
        n=200,
        rho=0.25,
        n_reps=12,
        grid=EvalGridSpec(m_points=64),
        master_seed=99,
    )
    args.update(kw)
    return Scenario(**args)


# ---------------------------------------------------------------------------
# scenario construction


def test_scenario_rejects_bad_sizes():
    with pytest.raises(ValueError):
        tiny_scenario(n=0)
    with pytest.raises(ValueError):
        tiny_scenario(n_reps=0)
    with pytest.raises(ValueError):
        tiny_scenario(c=-0.5)
    with pytest.raises(ValueError, match="threshold"):
        tiny_scenario(c=math.nan)


def test_scenario_needs_exactly_one_schedule():
    with pytest.raises(ValueError):
        tiny_scenario(rho=0.25, beta=0.3)
    with pytest.raises(ValueError):
        tiny_scenario(rho=None, beta=None)


def test_scenario_schedule_range():
    with pytest.raises(ValueError):
        tiny_scenario(rho=-0.25)
    # n = 1 makes the schedule level hit the closed endpoint 1
    with pytest.raises(ValueError):
        tiny_scenario(n=1, rho=0.25)
    with pytest.raises(ValueError):
        tiny_scenario(rho=None, beta=1.5)
    # fixed levels may sit on the endpoints
    tiny_scenario(rho=None, beta=0.0)
    tiny_scenario(rho=None, beta=1.0)


def test_scenario_rejects_more_corners_than_the_sample_has():
    # 500 corner points need n >= 23; the error comes before any replication
    with pytest.raises(ValueError, match="corner"):
        Scenario(m_a=A_PAIR[0], m_b=A_PAIR[1], n=10, rho=0.25, grid=EvalGridSpec(m_points=500))
    tiny_scenario(n=23, grid=EvalGridSpec(m_points=500))


def test_beta_n_schedule_and_fixed():
    s = tiny_scenario(n=16, rho=0.5)
    assert s.beta_n == pytest.approx(0.25, abs=1e-15)
    s = tiny_scenario(rho=None, beta=0.3)
    assert s.beta_n == 0.3


def test_scenario_id_format():
    assert tiny_scenario(n=100).scenario_id == "rho0.25-n100"
    assert tiny_scenario(rho=None, beta=0.5, n=50).scenario_id == "beta0.5-n50"


def test_result_estimate_must_be_probability():
    s = tiny_scenario()
    with pytest.raises(ValueError):
        ScenarioResult(s, 1.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# replication determinism


def test_replication_is_pure_in_its_indices():
    s = tiny_scenario()
    first = run_replication(s, 3)
    again = run_replication(s, 3)
    assert first == again
    assert first != run_replication(s, 4)
    assert first > 0.0


def test_replications_differ_across_scenario_index():
    s0 = tiny_scenario(index=0)
    s1 = tiny_scenario(index=1)
    assert run_replication(s0, 0) != run_replication(s1, 0)


def test_run_replication_equals_engine():
    # 300-point grids: the engine evaluates 13 replications per target call
    s = tiny_scenario(n_reps=20, grid=EvalGridSpec(m_points=300))
    stats = estimate_probability(s, retain_stats=True).stats
    assert [run_replication(s, r) for r in range(s.n_reps)] == stats.tolist()


def _rebuilt_statistic(m_sample, m_target, beta, n, spec, stream):
    sample = draw_sample(m_sample, beta, n, stream.child(0))
    grid = build_eval_grid(sample, spec, stream.child(1).generator())
    return sup_stat(sample, lambda g: mixture_cdf_batch(m_target, beta, g), grid)


def _block(root, n, spec, beta, reps) -> np.ndarray:
    """Statistics of replications 0..reps-1 under ``root``, in one block."""
    job = (*A_PAIR, beta, n, spec, CENTERED_EXPONENTIAL, STANDARD_NORMAL, root)
    ((stats, _),) = montecarlo._run_task([(job, range(reps), False)])
    return stats


@pytest.mark.parametrize(
    "m_points, beta, reps, n",
    [
        pytest.param(300, 0.2, 30, 150, id="300-0.2-30"),
        pytest.param(1000, 0.2, 9, 150, id="1000-0.2-9"),
        pytest.param(300, 0.0, 14, 150, id="300-0.0-14"),
        pytest.param(1000, 0.0, 1, 150, id="1000-0.0-1"),
        pytest.param(500, 0.2, 6, 5000, id="n5000-stacks-of-3"),
        pytest.param(500, 0.0, 2, 20_000, id="n20000-stacks-of-1"),
    ],
)
def test_rep_block_equals_per_stream_rebuild(m_points, beta, reps, n):
    # blocks larger than any _run_jobs cuts, a single replication, or a
    # block that splits into several stacks of replications
    spec = EvalGridSpec(m_points=m_points)
    root = RngStream(17).child(2)
    got = _block(root, n, spec, beta, reps)
    want = [_rebuilt_statistic(*A_PAIR, beta, n, spec, root.child(r)) for r in range(reps)]
    assert reps * m_points > montecarlo._TARGET_CHUNK or reps == 1 or reps * n > _SLICE_POINTS
    assert got.tolist() == want


def test_overflowing_sample_raises_from_the_draw_and_the_engine():
    # 1e308 times a coordinate of size above 1.8 overflows to inf; the
    # stacked draw's finiteness check must catch it wherever it is drawn.
    # numpy's overflow warning, an error under this suite's filters, is
    # silenced so that the check is what raises
    m = [[1e308, 0.0], [0.0, 1.0]]
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="sample coordinates must be finite"):
            draw_sample(m, 0.3, 500, RngStream(3))
        with pytest.raises(ValueError, match="sample coordinates must be finite"):
            estimate_probability(tiny_scenario(m_a=m))


def test_left_desk_block_peak_memory(traced_peak):
    # the largest block a left-desk sweep cuts: 8 replications at n = 5000,
    # drawn and counted in stacks of 3 and bracketed.  The bound is about
    # twice the estimated peak of one such stack (its draw buffers, rows,
    # ranks, table and strips).  The bracket table is built before tracing.
    cell = next(s for s in preset_config("fig1-left-desk").scenarios() if s.n == 5000)
    assert montecarlo._TARGET_CHUNK // cell.grid.m_points == 8
    block = [(montecarlo._scenario_job(cell), range(8), True)]
    montecarlo._run_task(block)
    assert traced_peak(montecarlo._run_task, block) < 4 * 2**20


def test_rep_block_makes_one_target_call(monkeypatch):
    # one pure-assignment row per nonzero mixture weight, over the whole
    # block: four at a positive level, the Gaussian row alone at level zero
    calls = []

    def counted(m, comps, pts):
        calls.append(len(pts))
        return pure_cdf_batch(m, comps, pts)

    monkeypatch.setattr(montecarlo, "pure_cdf_batch", counted)
    _block(RngStream(17).child(2), 150, EvalGridSpec(m_points=300), 0.2, 30)
    assert calls == [30 * 300] * 4
    calls.clear()
    _block(RngStream(17).child(2), 150, EvalGridSpec(m_points=300), 0.0, 30)
    assert calls == [30 * 300]


def test_rep_block_rejects_non_finite_target(monkeypatch):
    def broken(m, comps, pts):
        out = np.zeros(len(pts))
        out[-1] = np.nan
        return out

    monkeypatch.setattr(montecarlo, "pure_cdf_batch", broken)
    with pytest.raises(ValueError, match="non-finite"):
        _block(RngStream(1), 50, EvalGridSpec(m_points=40), 0.1, 3)


# ---------------------------------------------------------------------------
# bracketed blocks: the exact target only at the candidate corners


def _random_pair(seed: int):
    rng = np.random.default_rng(seed)
    pair = []
    while len(pair) < 2:
        a = rng.normal(size=(2, 2))
        if abs(np.linalg.det(a)) > 0.05:
            pair.append(a)
    return pair


def _bracketed(s: Scenario, reps=None) -> np.ndarray:
    reps = s.n_reps if reps is None else reps
    ((stats, _),) = montecarlo._run_task([(montecarlo._scenario_job(s), range(reps), True)])
    return stats


@pytest.mark.parametrize(
    "pair, n, m_points, reps, level, xi",
    [
        pytest.param(0, 150, 300, 8, dict(beta=0.3), CENTERED_EXPONENTIAL, id="random-beta0.3"),
        pytest.param(1, 400, 500, 4, dict(beta=0.0), CENTERED_EXPONENTIAL, id="random-beta0"),
        pytest.param(2, 200, 1000, 6, dict(beta=0.5), STANDARD_EXPONENTIAL, id="uncentered"),
        pytest.param(3, 250, 500, 5, dict(beta=1.0), CENTERED_EXPONENTIAL, id="random-beta1"),
        pytest.param(None, 500, 500, 6, dict(rho=0.25), STANDARD_EXPONENTIAL, id="worked-uncentered"),
        pytest.param(4, 30, 900, 3, dict(beta=0.2), CENTERED_EXPONENTIAL, id="every-corner"),
        pytest.param(5, 1, 1, 2, dict(beta=0.4), CENTERED_EXPONENTIAL, id="one-point"),
        pytest.param(6, 5000, 500, 6, dict(beta=0.1), CENTERED_EXPONENTIAL, id="stacks-of-3"),
        pytest.param(7, 20_000, 500, 2, dict(rho=0.4), CENTERED_EXPONENTIAL, id="stacks-of-1"),
    ],
)
def test_bracketed_block_equals_run_replication(pair, n, m_points, reps, level, xi):
    m_a, m_b = A_PAIR if pair is None else _random_pair(pair)
    s = Scenario(
        m_a, m_b, n, n_reps=reps, grid=EvalGridSpec(m_points=m_points),
        master_seed=41, index=3, xi=xi, **level,
    )
    assert m_points <= n * n
    got = _bracketed(s)
    assert got.tolist() == [run_replication(s, r) for r in range(reps)]
    # and the same again with the table already built
    np.testing.assert_array_equal(_bracketed(s), got)


def _counting(monkeypatch):
    """Wrap ``pure_cdf_batch`` where the engine and the bracket table call
    it; returns the list of (caller, points) of every call."""
    calls = []

    def wrap(where, fn):
        def counted(m, comps, pts):
            calls.append((where, len(pts)))
            return fn(m, comps, pts)

        return counted

    monkeypatch.setattr(montecarlo, "pure_cdf_batch", wrap("engine", pure_cdf_batch))
    monkeypatch.setattr(pushforward, "pure_cdf_batch", wrap("table", pure_cdf_batch))
    return calls


def _table_job(m_points: int, beta: float = 0.2, n: int = 150):
    return (*A_PAIR, beta, n, EvalGridSpec(m_points=m_points), CENTERED_EXPONENTIAL,
            STANDARD_NORMAL, RngStream(23))


def test_blocks_are_bracketed_from_the_table_size_on(monkeypatch):
    corners = pushforward._BRACKET_NODES ** 2
    assert corners == 65_536
    calls = _counting(monkeypatch)
    # 63 replications of 1024 corners: every corner of every block, as before
    below = montecarlo._run_jobs([(_table_job(1024), 63)], 1)
    assert pushforward._bracket_table.cache_info().currsize == 0
    assert calls == [("engine", 4 * 1024)] * (15 * 4) + [("engine", 3 * 1024)] * 4
    calls.clear()
    # 64: the table's four rows, then the candidates of all 16 blocks in one
    # call per row, fewer corners than one block holds
    at = montecarlo._run_jobs([(_table_job(1024), 64)], 1)
    assert pushforward._bracket_table.cache_info().currsize == 1
    assert calls[:4] == [("table", corners)] * 4
    engine = [size for where, size in calls[4:] if where == "engine"]
    assert engine == engine[:1] * 4 and engine[0] < 4 * 1024
    assert [where for where, _ in calls[4:]] == ["engine"] * 4
    np.testing.assert_array_equal(at[0][0][:63], below[0][0])
    # two jobs of one target add up; the table is built once per process
    calls.clear()
    pushforward._bracket_table.cache_clear()
    both = montecarlo._run_jobs([(_table_job(1024), 32), (_table_job(1024, 0.5), 32)], 1)
    assert [where for where, _ in calls].count("table") == 4
    np.testing.assert_array_equal(both[0][0], at[0][0][:32])
    # a level-one target builds its all-exponential row alone
    calls.clear()
    pushforward._bracket_table.cache_clear()
    montecarlo._run_jobs([(_table_job(1024, 1.0), 64)], 1)
    assert calls[0] == ("table", corners) and [w for w, _ in calls].count("table") == 1
    # level-zero jobs neither bracket nor count towards the threshold
    calls.clear()
    pushforward._bracket_table.cache_clear()
    montecarlo._run_jobs([(_table_job(1024, 0.0), 64)], 1)
    montecarlo._run_jobs([(_table_job(1024), 32), (_table_job(1024, 0.0), 32)], 1)
    assert pushforward._bracket_table.cache_info().currsize == 0
    assert {size for _, size in calls} == {4 * 1024}
    # nor do jobs with n above _BRACKET_MAX_N
    calls.clear()
    big = _table_job(corners, n=montecarlo._BRACKET_MAX_N + 1)
    montecarlo._run_jobs([(big, 1), (_table_job(1024), 32)], 1)
    assert pushforward._bracket_table.cache_info().currsize == 0
    assert [where for where, _ in calls] == ["engine"] * len(calls)


def test_bracketed_block_falls_back_when_a_value_leaves_its_bracket(monkeypatch):
    # the engine's kernel evaluates another matrix than the table brackets,
    # so exact values leave their brackets and the block evaluates every
    # corner, as an unbracketed block does
    other = _random_pair(11)[0]
    calls = []

    def elsewhere(m, comps, pts):
        calls.append(len(pts))
        return pure_cdf_batch(other, comps, pts)

    monkeypatch.setattr(montecarlo, "pure_cdf_batch", elsewhere)
    s = tiny_scenario(n=400, n_reps=6, grid=EvalGridSpec(m_points=500))
    got = _bracketed(s)
    assert calls[4:] == [6 * 500] * 4 and max(calls[:4]) < 6 * 500
    assert got.tolist() == [run_replication(s, r) for r in range(6)]


@pytest.mark.parametrize("where", ["table", "engine"])
def test_bracketed_block_rejects_non_finite_values(monkeypatch, where):
    # every table value, or the exact value at one candidate, is NaN
    def broken(m, comps, pts):
        out = pure_cdf_batch(m, comps, pts)
        out[len(out) // 2 if where == "engine" else slice(None)] = np.nan
        return out

    monkeypatch.setattr(montecarlo if where == "engine" else pushforward, "pure_cdf_batch", broken)
    with pytest.raises(ValueError, match="non-finite"):
        _bracketed(tiny_scenario(n=150, grid=EvalGridSpec(m_points=300)), reps=3)


# ---------------------------------------------------------------------------
# tasks: a worker's bracketed blocks share one kernel call per assignment


def _cells():
    """Scenarios of one random target at several levels and sizes: stacks
    of several replications, beta = 1 (no Gaussian row), stacks of one
    (n = 10 000) and a one-point grid."""
    m_a, m_b = _random_pair(8)
    cells = [
        (dict(beta=0.3), 150, 300, 8),
        (dict(beta=1.0), 250, 500, 5),
        (dict(rho=0.25), 5000, 500, 6),
        (dict(beta=0.05), 10_000, 200, 3),
        (dict(beta=0.4), 1, 1, 2),
    ]
    return [
        Scenario(m_a, m_b, n, n_reps=reps, grid=EvalGridSpec(m_points=m_points),
                 master_seed=41, index=i, **level)
        for i, (level, n, m_points, reps) in enumerate(cells)
    ]


def _task(cells):
    """Each scenario's replications cut into two bracketed blocks, in
    scenario order, as one task; gives the blocks and their scenarios."""
    blocks, owners = [], []
    for s in cells:
        half = math.ceil(s.n_reps / 2)
        for indices in (range(half), range(half, s.n_reps)):
            blocks.append((montecarlo._scenario_job(s), indices, True))
            owners.append(s)
    return blocks, owners


def _assert_task_equals_run_replication(blocks, owners, results):
    assert len(results) == len(blocks)
    for (_, indices, _), s, (stats, ms) in zip(blocks, owners, results):
        assert stats.tolist() == [run_replication(s, r) for r in indices]
        assert np.isfinite(ms) and ms > 0.0


def test_task_evaluates_its_candidates_in_one_call_per_assignment(monkeypatch):
    blocks, owners = _task(_cells())
    calls = _counting(monkeypatch)
    results = montecarlo._run_task(blocks)
    assert [where for where, _ in calls[:4]] == ["table"] * 4
    # one flush: one call per assignment on the candidates of all ten blocks
    engine = [size for _, size in calls[4:]]
    corners = sum(len(indices) * s.grid.m_points for (_, indices, _), s in zip(blocks, owners))
    assert engine == engine[:1] * 4 and len(blocks) <= engine[0] < corners
    _assert_task_equals_run_replication(blocks, owners, results)
    # blocks at level one read the all-exponential row alone
    calls.clear()
    cells = _cells()
    ones, owners = _task([cells[1], replace(cells[0], beta=1.0)])
    results = montecarlo._run_task(ones)
    assert [where for where, _ in calls] == ["engine"]
    _assert_task_equals_run_replication(ones, owners, results)


def test_task_flushes_when_its_candidates_pass_the_slice(monkeypatch):
    # about a tenth of the corners are candidates at n = 20 000, so sixteen
    # replications of 16 384 corners hold well over one slice of them
    s = Scenario(*A_PAIR, 20_000, rho=0.4, n_reps=16, grid=EvalGridSpec(m_points=16_384),
                 master_seed=43)
    blocks = [(montecarlo._scenario_job(s), range(r, r + 1), True) for r in range(s.n_reps)]
    calls = _counting(monkeypatch)
    results = montecarlo._run_task(blocks)
    engine = [size for where, size in calls if where == "engine"]
    flushes = engine[::4]
    assert engine == [size for size in flushes for _ in range(4)]
    assert len(flushes) >= 2 and all(size >= _SLICE_POINTS for size in flushes[:-1])
    _assert_task_equals_run_replication(blocks, [s] * len(blocks), results)


def test_task_flushes_when_the_target_changes(monkeypatch):
    # blocks of two targets, A B B A: each run of one target is evaluated
    # together, and no block reads another target's rows
    cells = _cells()[:2]
    other = [replace(s, m_b=_random_pair(9)[1]) for s in cells]
    blocks, owners = _task([cells[0], *other, cells[1]])
    calls = _counting(monkeypatch)
    results = montecarlo._run_task(blocks)
    engine = [size for where, size in calls if where == "engine"]
    # four rows for A at level 0.3, four for B, then EE alone for A at level one
    assert len(engine) == 4 + 4 + 1
    assert engine[:4] == engine[:1] * 4 and engine[4:8] == engine[4:5] * 4
    _assert_task_equals_run_replication(blocks, owners, results)


def test_task_evaluates_unbracketed_and_bracketed_blocks_together(monkeypatch):
    # one target: replications 0-2 on every corner, 3-5 on their 19
    # candidates, evaluated in one call per assignment
    s = tiny_scenario(n=400, rho=None, beta=0.3, n_reps=6, grid=EvalGridSpec(m_points=500))
    job = montecarlo._scenario_job(s)
    blocks = [(job, range(3), False), (job, range(3, 6), True)]
    calls = _counting(monkeypatch)
    results = montecarlo._run_task(blocks)
    assert [size for where, size in calls if where == "engine"] == [3 * 500 + 19] * 4
    _assert_task_equals_run_replication(blocks, [s, s], results)
    # targets that differ only in the sign of a zero entry are flushed apart
    signed = replace(s, m_b=replace(s.m_b, a21=-0.0))
    assert signed.m_b == s.m_b and s.m_b.a21 == 0.0
    blocks = [(job, range(3), False), (montecarlo._scenario_job(signed), range(3), False)]
    calls.clear()
    results = montecarlo._run_task(blocks)
    assert [size for where, size in calls if where == "engine"] == [3 * 500] * 8
    _assert_task_equals_run_replication(blocks, [s, signed], results)


def test_bracket_escape_falls_back_for_its_block_alone(monkeypatch):
    # the third block's bracket is shifted up by 2, above every probability,
    # so all its exact values leave it; the other blocks keep theirs
    real = pushforward.BracketTable.bracket
    seen = []

    def shifted(self, weights, points):
        lo, hi = real(self, weights, points)
        seen.append(len(points))
        return (lo + 2.0, hi + 2.0) if len(seen) == 3 else (lo, hi)

    monkeypatch.setattr(pushforward.BracketTable, "bracket", shifted)
    blocks, owners = _task(_cells())
    calls = _counting(monkeypatch)
    results = montecarlo._run_task(blocks)
    engine = [size for where, size in calls if where == "engine"]
    # the shared flush, then the third block (3 of the five level-one
    # replications) alone on all its corners, on the one row its level reads
    assert engine[:4] == engine[:1] * 4 and engine[4:] == [3 * 500]
    _assert_task_equals_run_replication(blocks, owners, results)


@pytest.mark.parametrize("where", ["table", "engine"])
def test_task_rejects_non_finite_values(monkeypatch, where):
    # every table value, or the exact value at one candidate of the shared
    # call, is NaN
    def broken(m, comps, pts):
        out = pure_cdf_batch(m, comps, pts)
        out[len(out) // 2 if where == "engine" else slice(None)] = np.nan
        return out

    monkeypatch.setattr(montecarlo if where == "engine" else pushforward, "pure_cdf_batch", broken)
    with pytest.raises(ValueError, match="non-finite"):
        montecarlo._run_task(_task(_cells())[0])


def test_bracketed_blocks_are_dealt_one_task_per_worker(fake_pool, monkeypatch):
    # fig1-left-desk at 6 replications: 28 bracketed blocks of 6, dealt
    # into two tasks of 14, each making one call per assignment
    cfg = preset_config("fig1-left-desk", n_reps=6)
    calls = _counting(monkeypatch)
    pooled = run_sweep(cfg, workers=2, retain_stats=True)
    assert fake_pool == [2] and fake_pool.tasks == [[[6] * 14, [6] * 14]]
    assert [where for where, _ in calls].count("engine") == 2 * 4
    serial = run_sweep(cfg, workers=1, retain_stats=True)  # one task, in-process
    for a, b in zip(pooled, serial):
        np.testing.assert_array_equal(a.stats, b.stats)
    # bracketed tasks first, then each unbracketed block (n above
    # _BRACKET_MAX_N) as a task of its own
    mixed = SweepConfig(
        *A_PAIR, rho_list=(0.25, 0.5), n_list=(400, 6000), n_reps=8,
        grid=EvalGridSpec(m_points=4096), master_seed=7,
    )
    pooled = run_sweep(mixed, workers=2, retain_stats=True)
    assert fake_pool.tasks[-1] == [[1] * 8, [1] * 8] + [[1]] * 16
    serial = run_sweep(mixed, workers=1, retain_stats=True)
    for a, b in zip(pooled, serial):
        np.testing.assert_array_equal(a.stats, b.stats)
        assert a.stats.tolist() == [run_replication(a.scenario, r) for r in range(8)]


def test_worker_count_does_not_change_stats():
    s = tiny_scenario()
    serial = estimate_probability(s, workers=1, retain_stats=True).stats
    assert serial.shape == (s.n_reps,)
    for workers in (2, 3):
        pooled = estimate_probability(s, workers=workers, retain_stats=True).stats
        np.testing.assert_array_equal(pooled, serial)


def pool_sweep(rho_list=(0.25,), n_reps=5):
    return SweepConfig(
        A_PAIR[0], A_PAIR[1], rho_list=rho_list, n_list=(40,), n_reps=n_reps,
        grid=EvalGridSpec(m_points=16), master_seed=3,
    )


def test_sweep_runs_on_one_pool(fake_pool):
    cfg = pool_sweep(rho_list=(0.25, 0.35, 0.5))
    pooled = run_sweep(cfg, workers=2, retain_stats=True)
    assert fake_pool == [2]
    serial = run_sweep(cfg, workers=1, retain_stats=True)
    assert fake_pool == [2]  # one worker runs in-process
    again = run_sweep(cfg, workers=2, retain_stats=True)
    assert fake_pool == [2] and fake_pool.closed == []  # the same pool again
    assert len(pooled) == len(serial) == len(again) == 3
    for a, b, c in zip(pooled, serial, again):
        assert a.scenario == b.scenario == c.scenario
        assert (a.estimate, a.stderr) == (b.estimate, b.stderr) == (c.estimate, c.stderr)
        np.testing.assert_array_equal(a.stats, b.stats)
        np.testing.assert_array_equal(c.stats, b.stats)


def test_worker_count_is_clamped(fake_pool):
    run_sweep(pool_sweep(n_reps=6), workers=10_000)
    assert fake_pool == [4]  # the CPUs available
    run_sweep(pool_sweep(n_reps=6), workers=4)
    assert fake_pool == [4]  # the same clamped size reuses the pool
    estimate_probability(tiny_scenario(n_reps=3), workers=10_000)
    assert fake_pool == [4, 3]  # the replications; a new size, a new pool
    assert fake_pool.closed == [4]
    estimate_probability(tiny_scenario(n_reps=1), workers=10_000)
    assert fake_pool == [4, 3]  # one replication runs in-process
    estimate_probability(tiny_scenario(n_reps=3), workers=10_000)
    assert fake_pool == [4, 3] and fake_pool.closed == [4]


def test_replications_run_as_one_job_queue(fake_pool):
    # every cell of a sweep goes to the pool in one map call, one block each
    run_sweep(pool_sweep(rho_list=(0.25, 0.35, 0.5)), workers=2)
    assert fake_pool.maps == [[5, 5, 5]]
    # blocks are cut smaller only to give every worker one
    estimate_probability(tiny_scenario(n_reps=3), workers=3)
    assert fake_pool == [2, 3]
    assert fake_pool.maps[1:] == [[1, 1, 1]]
    # a pool that is reused cuts the same blocks
    estimate_probability(tiny_scenario(n_reps=3), workers=3)
    assert fake_pool == [2, 3]
    assert fake_pool.maps[1:] == [[1, 1, 1]] * 2


def spanning_sweep():
    # 300 grid points put 13 replications in one target chunk
    return SweepConfig(
        A_PAIR[0], A_PAIR[1], rho_list=(0.25, 0.5), n_list=(60,), n_reps=30,
        grid=EvalGridSpec(m_points=300), master_seed=11,
    )


def test_cells_spanning_several_jobs(fake_pool):
    cfg = spanning_sweep()
    runs = {w: run_sweep(cfg, workers=w, retain_stats=True) for w in (1, 2, 3)}
    assert fake_pool == [2, 3]
    assert fake_pool.maps == [[13, 13, 4] * 2] * 2
    csv = results_csv_lines(runs[1])
    for results in runs.values():
        assert results_csv_lines(results) == csv
        for res, ref in zip(results, runs[1]):
            np.testing.assert_array_equal(res.stats, ref.stats)
            assert np.isfinite(res.wall_ms) and res.wall_ms > 0.0
    for res in runs[1]:
        want = [run_replication(res.scenario, r) for r in range(res.scenario.n_reps)]
        assert res.stats.tolist() == want
    split = estimate_probability(cfg.scenarios()[1], workers=3, retain_stats=True).stats
    assert fake_pool == [2, 3]  # the pool of three again
    assert fake_pool.maps[-1] == [10, 10, 10]
    np.testing.assert_array_equal(split, runs[1][1].stats)


def test_cells_spanning_several_jobs_on_a_process_pool():
    cfg = spanning_sweep()
    serial = run_sweep(cfg, workers=1, retain_stats=True)
    pooled = run_sweep(cfg, workers=2, retain_stats=True)
    pool = montecarlo._POOL
    again = run_sweep(cfg, workers=2, retain_stats=True)  # on the same pool
    assert montecarlo._POOL is pool
    assert results_csv_lines(pooled) == results_csv_lines(again) == results_csv_lines(serial)
    timed = results_csv_lines(pooled, timing=True)
    for a, b, c, line in zip(pooled, serial, again, timed[1:]):
        np.testing.assert_array_equal(a.stats, b.stats)
        np.testing.assert_array_equal(c.stats, b.stats)
        wall_ms = float(line.split(",")[-1])
        assert wall_ms == a.wall_ms and np.isfinite(wall_ms) and wall_ms > 0.0


@pytest.mark.parametrize("workers", [0, -2])
def test_worker_count_below_one_rejected(fake_pool, workers):
    with pytest.raises(ValueError, match="worker"):
        run_sweep(pool_sweep(), workers=workers)
    with pytest.raises(ValueError, match="worker"):
        estimate_probability(tiny_scenario(), workers=workers)
    assert fake_pool == []


# ---------------------------------------------------------------------------
# the process's worker pool

SRC = Path(montecarlo.__file__).resolve().parents[1]

two_cpus = pytest.mark.skipif(
    montecarlo._usable_cpus() < 2, reason="a pool needs two CPUs to be used"
)

# Runs two pooled sweeps and prints, as JSON, the pool's worker pids after
# each.  With --fork it forks a child between them, which runs a pooled sweep
# of its own and exits; it also prints the child's worker pids, whether the
# child's CSV equalled the serial one, and the child's exit code.
_POOL_SCRIPT = textwrap.dedent("""
    import json, os, sys
    from mixident import montecarlo
    from mixident.empirical import EvalGridSpec
    from mixident.montecarlo import preset_config, results_csv_lines, run_sweep

    def workers():
        return sorted(montecarlo._POOL[2]._processes)

    cfg = preset_config(
        "fig1-left-desk", rho_list=(0.25, 0.5), n_list=(40,), n_reps=4,
        grid=EvalGridSpec(m_points=16),
    )
    serial = results_csv_lines(run_sweep(cfg, workers=1))
    assert results_csv_lines(run_sweep(cfg, workers=2)) == serial
    calls = [workers()]
    fork = "--fork" in sys.argv
    if fork:
        read, write = os.pipe()
        child = os.fork()
        if child == 0:
            os.close(read)
            same = results_csv_lines(run_sweep(cfg, workers=2)) == serial
            os.write(write, json.dumps([workers(), same]).encode())
            sys.exit(0)  # a normal exit, which closes the child's pool
        os.close(write)
        with os.fdopen(read) as fh:
            forked = json.loads(fh.read())
        _, status = os.waitpid(child, 0)
        forked.append(os.waitstatus_to_exitcode(status))
    assert results_csv_lines(run_sweep(cfg, workers=2)) == serial
    calls.append(workers())
    print(json.dumps({"calls": calls, "forked": forked if fork else None}))
""")


def run_pool_script(*args) -> dict:
    with subprocess.Popen(
        [sys.executable, "-c", _POOL_SCRIPT, *args], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the script and all it forked
            raise
    assert proc.returncode == 0, err
    return {**json.loads(out.splitlines()[-1]), "stderr": err}


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@two_cpus
def test_no_worker_outlives_its_process():
    calls = run_pool_script()["calls"]
    assert len(calls[0]) == 2
    assert calls[1] == calls[0]  # both calls ran on the same workers
    assert not any(alive(pid) for pid in calls[0])


@two_cpus
def test_forked_child_runs_its_own_pool():
    out = run_pool_script("--fork")
    (parent, after), (child, same, code) = out["calls"], out["forked"]
    assert same and code == 0
    assert len(child) == 2 and not set(child) & set(parent)
    assert after == parent  # the child left its parent's pool alone
    assert not any(alive(pid) for pid in parent + child)
    # the child does not try to join its parent's workers when it exits
    assert "Exception ignored" not in out["stderr"], out["stderr"]


class _KillsItsWorker:
    """Unpickles as a SIGKILL of the process that unpickles it."""

    def __reduce__(self):
        return signal.raise_signal, (signal.SIGKILL,)


@two_cpus
def test_killed_worker_breaks_the_call_and_the_next_starts_a_new_pool():
    s = tiny_scenario()
    serial = estimate_probability(s, workers=1, retain_stats=True).stats
    first = estimate_probability(s, workers=2, retain_stats=True).stats
    np.testing.assert_array_equal(first, serial)
    pool = montecarlo._POOL[2]
    # the one block of the second job kills the worker that takes it
    killer = montecarlo._scenario_job(s)[:-1] + (_KillsItsWorker(),)
    with pytest.raises(BrokenProcessPool):
        montecarlo._run_jobs([(montecarlo._scenario_job(s), s.n_reps), (killer, 1)], 2)
    assert montecarlo._POOL is None
    again = estimate_probability(s, workers=2, retain_stats=True).stats
    assert montecarlo._POOL[2] is not pool
    np.testing.assert_array_equal(again, serial)


def test_single_observation_replication_by_hand():
    # with one observation the only corner is the sample point itself, and
    # the statistic reduces to max(1 - G(x), G(x)) there
    s = tiny_scenario(
        n=1,
        rho=None,
        beta=0.5,
        grid=EvalGridSpec(m_points=1),
        master_seed=31,
        index=2,
    )
    got = run_replication(s, 5)

    root = RngStream(s.master_seed).child(s.index, 5)
    sample = draw_sample(s.m_a, 0.5, 1, root.child(0))
    g = float(
        mixture_cdf_batch(s.m_b, 0.5, sample.points)[0]
    )
    assert got == pytest.approx(max(1.0 - g, g), abs=1e-12)


# ---------------------------------------------------------------------------
# exceedance estimates


def test_probability_above_by_hand():
    stats = np.array([0.5, 1.5, 2.5])
    p, se = probability_above(stats, 1.0)
    assert p == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert se == pytest.approx(math.sqrt((2.0 / 3.0) * (1.0 / 3.0) / 3.0), abs=1e-15)
    assert probability_above(stats, 3.0) == (0.0, 0.0)
    # threshold equal to a stat: strict exceedance excludes it
    assert probability_above(stats, 2.5)[0] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probability_above_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        probability_above(np.array([0.5, bad, 2.5]), 1.0)


@pytest.mark.parametrize("c", [math.nan, -0.5])
def test_probability_above_rejects_bad_threshold(c):
    # a NaN threshold compares false with every statistic: no exceedance
    with pytest.raises(ValueError, match="threshold"):
        probability_above(np.array([0.5, 1.5]), c)


def test_probability_above_monotone_in_threshold():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        stats = rng.gamma(2.0, 1.0, size=50)
        ps = [probability_above(stats, c)[0] for c in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_estimate_probability_extreme_thresholds():
    # the statistic is almost surely positive, so c = 0 is always exceeded
    res = estimate_probability(tiny_scenario(c=0.0))
    assert res.estimate == 1.0
    assert res.stats is None
    res = estimate_probability(tiny_scenario(c=1e9), retain_stats=True)
    assert res.estimate == 0.0
    assert res.stats.shape == (12,)


# ---------------------------------------------------------------------------
# sweeps and presets


def test_sweep_cross_product_and_indices():
    cfg = SweepConfig(
        A_PAIR[0],
        A_PAIR[1],
        rho_list=(0.25, 0.75),
        n_list=(50, 100, 200),
        n_reps=3,
        grid=EvalGridSpec(m_points=16),
    )
    scenarios = cfg.scenarios()
    assert len(scenarios) == 6
    assert [s.index for s in scenarios] == list(range(6))
    assert scenarios[0].rho == 0.25 and scenarios[0].n == 50
    assert scenarios[-1].rho == 0.75 and scenarios[-1].n == 200


def test_sweep_rejects_empty_lists():
    with pytest.raises(ValueError):
        SweepConfig(A_PAIR[0], A_PAIR[1], rho_list=(), n_list=(50,))
    with pytest.raises(ValueError):
        SweepConfig(A_PAIR[0], A_PAIR[1], rho_list=(0.25,), n_list=())


@pytest.mark.parametrize(
    "rho_list, n_list, sid",
    [
        ((0.5,), (100, 100), "rho0.5-n100"),
        ((0.25, 0.5, 0.25), (40, 60), "rho0.25-n40"),
        ((0.3333331, 0.3333334), (50,), "rho0.333333-n50"),
    ],
)
def test_sweep_rejects_repeated_scenario_ids(rho_list, n_list, sid):
    with pytest.raises(ValueError, match=f"scenario id {sid} more than once"):
        SweepConfig(A_PAIR[0], A_PAIR[1], rho_list=rho_list, n_list=n_list)


def test_sweep_rejects_fractional_sample_sizes():
    with pytest.raises(ValueError, match="250.7"):
        SweepConfig(A_PAIR[0], A_PAIR[1], rho_list=(0.25,), n_list=(100, 250.7))


@pytest.mark.parametrize(
    "build",
    [
        lambda: tiny_scenario(n_reps=2.5),
        lambda: tiny_scenario(n=200.5),
        lambda: tiny_scenario(master_seed=1.5),
        lambda: SweepConfig(A_PAIR[0], A_PAIR[1], rho_list=(0.25,), n_list=(50,), n_reps=2.5),
        lambda: SweepConfig(A_PAIR[0], A_PAIR[1], rho_list=(0.25,), n_list=(50,), master_seed=1.5),
        lambda: EvalGridSpec(m_points=16.5),
        lambda: estimate_probability(tiny_scenario(), workers=2.5),
    ],
    ids=["scenario-reps", "scenario-n", "scenario-seed", "sweep-reps", "sweep-seed",
         "grid-points", "workers"],
)
def test_fractional_counts_rejected(build):
    with pytest.raises(ValueError, match="whole number"):
        build()


def test_whole_float_counts_become_ints():
    cfg = SweepConfig(
        A_PAIR[0], A_PAIR[1], rho_list=(0.25,), n_list=(40,), n_reps=3.0,
        grid=EvalGridSpec(m_points=16.0), master_seed=3.0,
    )
    values = (cfg.n_reps, cfg.master_seed, cfg.grid.m_points, cfg.scenarios()[0].n_reps)
    assert values == (3, 3, 16, 3)
    assert all(type(v) is int for v in values)
    # the same draws as the sweep built from ints
    stats = estimate_probability(cfg.scenarios()[0], workers=1.0, retain_stats=True).stats
    ints = estimate_probability(pool_sweep(n_reps=3).scenarios()[0], retain_stats=True)
    np.testing.assert_array_equal(stats, ints.stats)


def test_presets_match_published_settings():
    full = preset_config("fig1-left")
    assert full.rho_list == (0.25, 0.35, 0.50, 0.75)
    assert full.n_list == (100, 250, 500, 1000, 2000, 3500, 5000)
    assert full.n_reps == 1000
    assert full.grid.m_points == 1000

    desk = preset_config("fig1-left-desk")
    assert desk.rho_list == full.rho_list
    assert desk.n_list == full.n_list
    assert desk.n_reps == 200
    assert desk.grid.m_points == 500

    right = preset_config("fig1-right")
    assert len(right.rho_list) == 11
    assert right.rho_list[0] == 0.25 and right.rho_list[-1] == 0.75
    assert right.n_list == (50_000,)

    assert set(PRESET_NAMES) >= {"fig1-left", "fig1-right"}
    with pytest.raises(ValueError):
        preset_config("fig2")


def test_preset_overrides():
    cfg = preset_config("fig1-left-desk", n_reps=5, n_list=(50,))
    assert cfg.n_reps == 5
    assert cfg.n_list == (50,)


# ---------------------------------------------------------------------------
# CSV emission


def small_sweep_results(workers=1, retain=False):
    cfg = SweepConfig(
        A_PAIR[0],
        A_PAIR[1],
        rho_list=(0.25,),
        n_list=(50, 100),
        n_reps=6,
        grid=EvalGridSpec(m_points=32),
        master_seed=7,
    )
    return run_sweep(cfg, workers=workers, retain_stats=retain)


def test_csv_schema():
    results = small_sweep_results()
    lines = results_csv_lines(results, {"label": "demo"})
    assert lines[0] == "# label: demo"
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + len(results)
    row = lines[2].split(",")
    assert len(row) == len(CSV_HEADER.split(","))
    assert row[0] == "rho0.25-n50"
    assert int(row[3]) == 50
    assert 0.0 <= float(row[8]) <= 1.0
    assert row[-1] == ""  # timing hidden by default


def test_csv_timing_column_opt_in():
    results = small_sweep_results()
    lines = results_csv_lines(results, timing=True)
    assert float(lines[1].split(",")[-1]) > 0.0


def test_csv_byte_identical_across_workers():
    serial = results_csv_lines(small_sweep_results(workers=1))
    threaded = results_csv_lines(small_sweep_results(workers=2))
    assert serial == threaded


# ---------------------------------------------------------------------------
# rate constant and threshold heuristic


def test_estimate_K_worked_pair_frozen():
    k = estimate_K(*A_PAIR)
    assert k == pytest.approx(K_WORKED, rel=1e-9)


def test_estimate_K_zero_for_equal_models():
    assert estimate_K(A_PAIR[0], A_PAIR[0]) == pytest.approx(0.0, abs=1e-12)


def test_estimate_K_matches_small_level_slope():
    from mixident.expansion import mixture_sup_gap

    beta = 0.005
    slope = mixture_sup_gap(A_PAIR[0], A_PAIR[1], beta) / beta
    assert abs(slope - K_WORKED) / K_WORKED < 0.05


def test_estimate_K_requires_matching_backgrounds():
    with pytest.raises(ValueError):
        estimate_K(np.eye(2), np.diag((2.0, 1.0)))


def test_predict_threshold_examples():
    # c/K = 4 at rho = 1/4: the drift passes the threshold at n = 4^4
    assert predict_threshold_n(0.25, 4.0, 1.0) == pytest.approx(256.0, rel=1e-9)
    assert predict_threshold_n(0.25, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    # slower schedules push the crossover far out
    assert predict_threshold_n(0.45, 10.0, 1.0) > 1e12


def test_predict_threshold_solves_drift_equation():
    rng = np.random.default_rng(5150)
    for _ in range(25):
        rho = rng.uniform(0.05, 0.45)
        c = rng.uniform(0.5, 4.0)
        k = rng.uniform(0.05, 2.0)
        n_star = predict_threshold_n(rho, c, k)
        drift = math.sqrt(n_star) * k * n_star ** (-rho)
        assert drift == pytest.approx(c, rel=1e-9)


def test_predict_threshold_rejects_bad_arguments():
    for rho in (0.0, 0.5, 0.75, -0.1):
        with pytest.raises(ValueError):
            predict_threshold_n(rho, 1.0, 1.0)
    with pytest.raises(ValueError):
        predict_threshold_n(0.25, 0.0, 1.0)
    with pytest.raises(ValueError):
        predict_threshold_n(0.25, 1.0, -1.0)
    with pytest.raises(ValueError):
        predict_threshold_n(0.25, math.nan, 1.0)
    with pytest.raises(ValueError):
        predict_threshold_n(0.25, 1.0, math.nan)
