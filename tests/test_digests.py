"""Standing bit-identity gate on the replication engine's raw statistics
and on the files the command line writes.

Each case hashes, with SHA-256, the float64 statistics of a fixed run or
the exact bytes of a file a fixed command writes.  A change that only
makes the engine faster, or only reorganizes how tables are written, must
leave every digest as it is.  A change that means to alter the draws, the
bits of a statistic or the layout of a file re-pins the digests here,
with a CHANGES.md line saying why.
"""

import hashlib

import numpy as np
import pytest

from mixident import pushforward
from mixident.cli import main
from mixident.laws import STANDARD_EXPONENTIAL
from mixident.limitfield import simulate_limit_sup
from mixident.montecarlo import estimate_probability, preset_config, run_sweep
from mixident.pushforward import equal_product_pair

DIGESTS = {
    "left-desk": "115053209997d00b5488985ab01c5a649fbaac966d1a2bf2931d7873d2a07ec1",
    "left-desk-uncentered": "c95baf4bdd6a3462ae59643beabf344ba4a2aa92a52893532e5e5f4a152f0dc1",
    "right-desk-cell": "cee3c610dea415668379a6d9c60434c06c157dbe06cfe6c9c86c8d185859b4d0",
    "limit": "a0080e17d6edba5997180b9984895609dded8a21394e860f1092bb1916cd89fb",
}

# the files of fixed commands: a reduced left-desk sweep and its plot, a
# small limit law, the verify report and the first-order gamma field
FILE_DIGESTS = {
    "experiment": "44545aa9ec1ce4c9c2ae86101e6bf81703dba3b2beb263e69851d18a7180c355",
    "plot": "46c8f042925f55cbdc543f656a3ffe32af19774b977bdbb9abba4440c5500ef1",
    "limit": "332b0092f78be143a39a89d090fdc385d8d6ea8adb30b5b0bd7855304f0f60a7",
    "verify": "0f3f6cb72d257f5c5ae4b9295333caee356e504d67fc6bcccb2cd064a58307d1",
    "gamma": "284576b83d14e46898a859f5dd1b10115dd834001a857e5ac6493a8f7d14a4de",
}

_REPIN = (
    "{name} changed bits; a deliberate change of draws, bits or layout "
    "re-pins the digests in tests/test_digests.py, with a CHANGES.md "
    "line saying why"
)


def _digest(stats) -> str:
    return hashlib.sha256(np.ascontiguousarray(stats, dtype="<f8").tobytes()).hexdigest()


def _check(name, stats):
    assert _digest(stats) == DIGESTS[name], _REPIN.format(name=f"raw statistics of {name}")


def _check_file(name, path):
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == FILE_DIGESTS[name], _REPIN.format(name=f"the {name} file")


@pytest.mark.parametrize("workers", [1, 2])
def test_left_desk_statistics_are_pinned(workers):
    # 28 cells of 6 replications, n = 100 .. 5000: 84 000 corners of one
    # target, so every block is bracketed
    results = run_sweep(
        preset_config("fig1-left-desk", n_reps=6), workers=workers, retain_stats=True
    )
    _check("left-desk", np.concatenate([r.stats for r in results]))


def test_uncentered_left_desk_statistics_are_pinned():
    # the uncentered contaminant of the acceptance sweep; 84 000 corners of
    # one target, so every block is bracketed
    config = preset_config("fig1-left-desk", n_reps=6, xi=STANDARD_EXPONENTIAL)
    assert 28 * 6 * 500 >= pushforward._BRACKET_NODES**2
    results = run_sweep(config, retain_stats=True)
    _check("left-desk-uncentered", np.concatenate([r.stats for r in results]))


@pytest.mark.parametrize("workers", [1, 2])
def test_right_desk_cell_statistics_are_pinned(workers):
    # n = 20 000 is above _BRACKET_MAX_N, so every block is unbracketed
    cell = preset_config("fig1-right-desk", n_reps=8).scenarios()[0]
    assert cell.n == 20_000
    stats = estimate_probability(cell, workers=workers, retain_stats=True).stats
    _check("right-desk-cell", stats)


def test_limit_draws_are_pinned():
    m = equal_product_pair(0.4)[0]
    _check("limit", simulate_limit_sup(m, n0=2000, n_draws=20).draws)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_experiment_and_plot_files_are_pinned(tmp_path, workers):
    csv, svg = tmp_path / "x.csv", tmp_path / "x.svg"
    argv = ["experiment", "--preset", "fig1-left-desk", "--reps", "2", "--workers", workers]
    assert main([*argv, "--out", str(csv)]) == 0
    _check_file("experiment", csv)
    assert main(["plot", "--in", str(csv), "--out", str(svg)]) == 0
    _check_file("plot", svg)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("limit", ["limit", "--n0", "500", "--reps", "5"]),
        ("verify", ["verify"]),
        ("gamma", ["gamma", "--order", "1"]),
    ],
)
def test_table_files_are_pinned(tmp_path, name, argv):
    out = tmp_path / f"{name}.csv"
    assert main([*argv, "--out", str(out)]) == 0
    _check_file(name, out)
