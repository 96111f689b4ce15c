#!/usr/bin/env python3
"""Walkthrough: a small detection-probability sweep, CSV, and SVG chart.

The full experiment crosses contamination schedules with sample sizes and
estimates, for each cell, the probability that the scaled statistic
exceeds a threshold.  Slow schedules (small rho) let the drift through,
so their curves climb toward 1; fast schedules stay pinned near the
level-zero limit probability.  This script runs a miniature sweep and
writes both the results table and a chart next to itself.

The command-line equivalents:
    mixident experiment --preset fig1-left-desk --out results.csv
    mixident plot --in results.csv --out results.svg
"""

from pathlib import Path

from mixident import (
    EvalGridSpec,
    SweepConfig,
    equal_product_pair,
    results_csv_lines,
    run_sweep,
    write_results_csv,
)
from mixident.cli import read_results_csv, sweep_series
from mixident.svgplot import AxesSpec, render_line_chart

m_a, m_b = equal_product_pair(0.4)
config = SweepConfig(
    m_a,
    m_b,
    rho_list=(0.25, 0.75),
    n_list=(100, 300, 1000),
    n_reps=60,
    grid=EvalGridSpec(m_points=200),
    master_seed=20260819,
)

print("running", len(config.scenarios()), "scenarios x", config.n_reps, "replications")
results = run_sweep(config, workers=1)
for line in results_csv_lines(results):
    print(" ", line)

out_dir = Path(__file__).resolve().parent
csv_path = out_dir / "demo_sweep.csv"
svg_path = out_dir / "demo_sweep.svg"
write_results_csv(results, csv_path, {"label": "demo", "seed": config.master_seed})

series, x_label = sweep_series(read_results_csv(csv_path))
svg = render_line_chart(
    series,
    AxesSpec(x_label=x_label, y_label="exceedance estimate", title="demo sweep"),
)
svg_path.write_text(svg, encoding="utf-8", newline="\n")
print()
print(f"wrote {csv_path.name} and {svg_path.name} in {out_dir}")
print("the slow schedule's curve should already sit well above the fast one's")
