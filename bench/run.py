"""Benchmark runner for mixident.

    python3 bench/run.py --workload left-desk --seed 1 --seconds 25 --trace 0

Runs one workload (left-desk, right-desk or theory) as a closed loop: this
process issues the next pass only when the previous one has returned, for
``--seconds`` seconds and at least three passes.  The package is imported from
``src/`` next to this directory and driven only through its public functions.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` repeats the workload in-process at one worker with a span
around every call into a module, and prints the per-layer metrics; the spans
are written to ``bench/out/trace-<workload>-<seed>.json``.  Both modes run the
correctness gates.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when a gate fails, and 2 when the package or the benchmark
declaration is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("left-desk", "right-desk", "theory"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shrunken inputs, for the tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_workload(args):
    import workloads

    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    return workloads, table[args.workload]


def setup_probe(args) -> int:
    """Import, then build the workload's inputs; the parent times this."""
    _, workload = load_workload(args)
    workload.prepare(args.seed)
    print("ready", flush=True)
    return 0


def measure_setup(args, probes: int) -> float:
    """Median time from starting a fresh interpreter to its first operation."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def same(a, b) -> bool:
    """Bit-for-bit equality of pass values (NaN equals NaN)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def closed_loop(seconds: float, step) -> list:
    """Call step(k) for k = 0, 1, ... until the time is up and MIN_PASSES ran."""
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < MIN_PASSES or time.perf_counter() < deadline:
        out.append(step(len(out)))
    return out


def untraced_run(args, wl, workload, inputs):
    def step(k):
        result = workload.engine_pass(inputs, k, OUT)
        if k:
            result.values = {}  # only the first pass is gated bit for bit
        return result

    passes = closed_loop(args.seconds, step)
    rss = peak_rss_mb()
    gates = workload.gates(inputs, passes)
    setup_s = measure_setup(args, 1 if args.smoke else SETUP_PROBES)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "reps_per_s": statistics.median(p.reps / p.wall_s for p in passes),
        "cdf_points_per_s": statistics.median(p.cdf_points / p.wall_s for p in passes),
        "peak_rss_mb": rss,
        "ok_share": 1.0 - failed / attempted,
    }
    for cid, row in passes[0].extra.get("rows", ()):
        print(f"verify {cid} {row.quantity} {row.value!r} {row.comparator} {row.threshold}"
              f" {'ok' if row.ok else 'FAIL'}")
    notes = [f"passes {len(passes)}", f"failed_share {failed / attempted!r} ({failed} of {attempted})"]
    return metrics, gates, attempted, failed, notes


def traced_run(args, wl, workload, inputs):
    """Rounds of: engine pass, untraced one-worker rebuild, traced rebuild."""
    import tracing

    tracer = tracing.Tracer(workload.name)
    has_engine = isinstance(workload, wl.SweepWorkload)

    def traced_pass(k):
        tracer.unit = k
        with tracing.instrumented(tracer):
            traced = workload.rebuild_pass(inputs, k, OUT, tracer)
            wl.kolmogorov_replay(tracer)
        return traced

    def step(k):
        engine = workload.engine_pass(inputs, k, OUT)
        if not has_engine:
            return engine, engine, traced_pass(k)
        # alternate which rebuild runs first, so drift does not bias the overhead
        if k % 2:
            traced = traced_pass(k)
            plain = workload.rebuild_pass(inputs, k, OUT)
        else:
            plain = workload.rebuild_pass(inputs, k, OUT)
            traced = traced_pass(k)
        return engine, plain, traced

    rounds = closed_loop(args.seconds, step)
    tracer.write(OUT / f"trace-{workload.name}-{args.seed}.json")
    engines, plains, traceds = zip(*rounds)
    identical = sum(same(e.values, t.values) and same(e.values, p.values) for e, p, t in rounds)
    gates = [wl.Gate(
        "traced and untraced rebuilds equal the engine", identical == len(rounds),
        f"{identical} of {len(rounds)} passes identical",
    )] + workload.gates(inputs, list(engines))

    metrics = tracing.layer_metrics(tracer)
    traced_ms = 1e3 * statistics.median(t.wall_s for t in traceds)
    plain_ms = 1e3 * statistics.median(p.wall_s for p in plains)
    metrics.update({
        "trace.unit_ms": traced_ms,
        "trace.untraced_unit_ms": plain_ms,
        "trace.overhead_ms": traced_ms - plain_ms,
        "trace.overhead_share": (traced_ms - plain_ms) / plain_ms,
        "pushforward.nonfinite": statistics.median(t.nonfinite for t in traceds),
        "checks.failed_rows": statistics.median(t.failed_rows for t in traceds),
        "montecarlo.parallel_efficiency": statistics.median(
            p.sweep_s / (wl.WORKERS * e.sweep_s) for e, p in zip(engines, plains)
        ) if has_engine else 0.0,
    })
    attempted = sum(t.attempted for t in traceds)
    failed = sum(t.failed for t in traceds)
    notes = [f"rounds {len(rounds)}", f"spans {len(tracer.spans)}"]
    return metrics, gates, attempted, failed, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mixident" / "__init__.py").is_file():
        print(f"error: no mixident package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    declared_path = ROOT / "BENCHMARK.json"
    if not declared_path.is_file():
        print(f"error: {declared_path} is missing", file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text())
    wl, workload = load_workload(args)
    OUT.mkdir(exist_ok=True)
    inputs = workload.prepare(args.seed)
    # let lazy set-up (first calls, first pool) finish before anything is timed
    warm = wl.SMOKE[args.workload]
    warm.engine_pass(warm.prepare(args.seed), 0, OUT)

    run = traced_run if args.trace else untraced_run
    metrics, gates, attempted, failed, notes = run(args, wl, workload, inputs)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json {kind}: {sorted(set(metrics) ^ set(units))}")
    print(f"workload {args.workload}, seed {args.seed}, workers {wl.WORKERS}, " + ", ".join(notes))
    for name in units:
        print(f"  {name:44s} {metrics[name]!r} {units[name]}")
    for gate in gates:
        print(f"gate {'ok  ' if gate.ok else 'FAIL'} {gate.name}: {gate.detail}")
    correct = all(g.ok for g in gates)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
