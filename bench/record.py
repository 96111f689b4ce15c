"""Run the benchmark over several seeds and append one entry to the trajectory.

    python3 bench/record.py --label seed --seeds 10

For every workload it makes ``--seeds`` untraced runs (seeds 1..N) and one
traced run (seed 1), each as ``bench/run.py`` with BENCHMARK.json's
``run_seconds``.  Per end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound.  The entry is appended to
``bench/trajectory.json``; later changes add theirs after it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRAJECTORY = BENCH / "trajectory.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit_code"] = proc.returncode
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    names = [w["name"] for w in declared["workloads"]]
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                                text=True, cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    entry = {
        "label": args.label,
        "commit": commit,
        "date": time.strftime("%Y-%m-%d"),
        "machine": f"{platform.processor() or platform.machine()}, {os.cpu_count()} CPUs,"
                   f" Python {platform.python_version()}",
        "run_seconds": seconds,
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    ok = True
    for name in names:
        runs = [run(name, seed, seconds, 0) for seed in entry["seeds"]]
        traced = run(name, 1, seconds, 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        untraced = {
            metric: summarize([r["metrics"][metric]["value"] for r in runs]) for metric in bounds
        }
        entry["workloads"][name] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "exit_codes": sorted({r["exit_code"] for r in runs + [traced]}),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "elapsed_s_max": max(r["elapsed_s"] for r in runs + [traced]),
            "untraced": untraced,
            "traced": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        ok &= entry["workloads"][name]["correct"]
        print(f"{name}: correct {entry['workloads'][name]['correct']}, failed_share {failed / attempted!r}")
        for metric, s in untraced.items():
            if metric != "setup_s":
                ok &= s["spread"] <= bounds[metric]
            print(f"  {metric:18s} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  f" (bound {bounds[metric]}, a third {bounds[metric] / 3:.4f})")
    doc = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"entries": []}
    doc["entries"].append(entry)
    TRAJECTORY.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
