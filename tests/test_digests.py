"""Standing bit-identity gate on the replication engine's raw statistics.

Each case hashes the float64 statistics of a fixed run with SHA-256.  A
change that only makes the engine faster must leave every digest as it
is.  A change that means to alter the draws or the bits of a statistic
re-pins the digests here, with a CHANGES.md line saying why.
"""

import hashlib

import numpy as np
import pytest

from mixident import pushforward
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

_REPIN = (
    "raw statistics of {name} changed bits; a deliberate change of draws or "
    "bits re-pins the digests in tests/test_digests.py, with a CHANGES.md "
    "line saying why"
)


def _digest(stats) -> str:
    return hashlib.sha256(np.ascontiguousarray(stats, dtype="<f8").tobytes()).hexdigest()


def _check(name, stats):
    assert _digest(stats) == DIGESTS[name], _REPIN.format(name=name)


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


def test_right_desk_cell_statistics_are_pinned():
    cell = preset_config("fig1-right-desk", n_reps=8).scenarios()[0]
    assert cell.n == 20_000
    _check("right-desk-cell", estimate_probability(cell, retain_stats=True).stats)


def test_limit_draws_are_pinned():
    m = equal_product_pair(0.4)[0]
    _check("limit", simulate_limit_sup(m, n0=2000, n_draws=20).draws)
