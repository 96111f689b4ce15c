"""Tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_are_well_formed():
    entries = DECLARED["end_to_end"] + DECLARED["per_layer"] + DECLARED["workloads"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for e in entries:
        assert NAME.fullmatch(e["name"]), e["name"]
    for e in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.fullmatch(e["unit"]), e["unit"]
        assert e["better"] in ("lower", "higher")
    assert {e["name"] for e in DECLARED["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in names


def run_smoke(workload: str, trace: int) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_declared_metric(workload, trace):
    code, result, stdout = run_smoke(workload, trace)
    assert code == 0, stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "theory":
        assert result["failed"] > 0  # closed-form NaNs on the near-triangular matrices
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", ("left-desk", "right-desk"))
def test_traced_rebuild_reproduces_engine(workload, tmp_path):
    wl = workloads.SMOKE[workload]
    inputs = wl.prepare(5)
    engine = wl.engine_pass(inputs, 0, tmp_path)
    tracer = tracing.Tracer(workload)
    with tracing.instrumented(tracer):
        traced = wl.rebuild_pass(inputs, 0, tmp_path, tracer)
    assert engine.values.keys() == traced.values.keys()
    for key, value in engine.values.items():
        assert np.array_equal(value, traced.values[key]), key
    names = {s.name for s in tracer.spans}
    assert {"montecarlo.rep", "empirical.count", "pushforward.kernel.NN"} <= names
    assert all(s.end >= s.start for s in tracer.spans)


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("a.outer", 0.0, 10.0, None, 0, 0, 0),
        tracing.Span("b.inner", 1.0, 4.0, 0, 0, 0, 0),
        tracing.Span("b.inner", 5.0, 7.0, 0, 0, 0, 0),
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 2.0]


def test_tail_percentile_keeps_ten_samples_above():
    values = list(range(1, 101))
    p50, tail = tracing.p50_and_tail(values)
    assert p50 == 50.5
    assert sum(v > tail for v in values) >= 10
    assert tracing.p50_and_tail([3.0]) == (3.0, 3.0)
