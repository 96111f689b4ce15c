"""Write bench/reference.json: exceedance counts the sweep gate compares against.

    python3 bench/make_reference.py

Runs each desk preset with 500 replications per cell at a master seed
that no benchmark pass uses, and stores, per cell, how many statistics
exceeded the threshold.  Rerun it only when a change is meant to alter the
statistic's distribution, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from mixident import preset_config, run_sweep  # noqa: E402

REFERENCE_SEED = 20141401
REPS = 500
PRESETS = {"left-desk": "fig1-left-desk", "right-desk": "fig1-right-desk"}


def main() -> int:
    workers = min(2, len(os.sched_getaffinity(0)))
    doc = {}
    for name, preset in PRESETS.items():
        config = preset_config(preset, n_reps=REPS, master_seed=REFERENCE_SEED)
        results = run_sweep(config, workers=workers)
        doc[name] = {
            "preset": preset,
            "master_seed": REFERENCE_SEED,
            "n_reps": REPS,
            "exceed": {
                r.scenario.scenario_id: round(r.estimate * REPS) for r in results
            },
        }
        print(f"{name}: {len(results)} cells", flush=True)
    (BENCH / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
