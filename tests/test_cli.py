"""Command-line surface: config files, subcommands, exit codes, outputs."""

import argparse
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mixident import checks, cli
from mixident.cli import (
    CliError,
    Config,
    _preset_items,
    _sweep_config,
    build_parser,
    config_matrices,
    config_xi,
    main,
    parse_config,
    read_results_csv,
    sweep_series,
)
from mixident.expansion import NuMeasure, gamma_k_batch
from mixident.laws import CENTERED_EXPONENTIAL, STANDARD_EXPONENTIAL
from mixident.montecarlo import CSV_HEADER, PRESET_NAMES, SweepConfig, preset_config
from mixident.pushforward import equal_product_pair
from mixident.svgplot import Series

# ---------------------------------------------------------------------------
# configuration


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg == Config()
    assert cfg.alpha == 0.4
    assert cfg.c == 1.0
    assert cfg.center_xi is True


def test_round_trip_with_matrices_and_comments():
    cfg = Config(
        matrix_a=(1.0, 0.0, 0.4, 0.5),
        matrix_b=(0.5, 0.4, 0.0, 1.0),
        rho_list=(0.3,),
        n_list=(64,),
        center_xi=False,
    )
    text = (
        "# explicit pair\n"
        "matrix_a = 1,0,0.4,0.5\n"
        "\n"
        "matrix_b=0.5, 0.4, 0, 1\n"
        "rho_list=0.3\n"
        "n_list=64.0\n"
        "center_xi=FALSE\n"
    )
    assert parse_config(text) == cfg
    assert parse_config("# note\n\nalpha=0.2\n").alpha == 0.2


def test_config_rejections():
    for text in (
        "wat=1",
        "alpha",
        "alpha=1.5",
        "alpha=-1",
        "center_xi=maybe",
        "grid_mode=hexagonal",
        "matrix_a=1,0,0\nmatrix_b=1,0,0,1",
        "n_list=",
        "reps=0",
        "c=-2",
        "c=nan",
    ):
        with pytest.raises(ValueError):
            parse_config(text)


def test_alpha_builds_equal_product_pair():
    m_a, m_b = config_matrices(Config(alpha=0.4))
    ref_a, ref_b = equal_product_pair(0.4)
    np.testing.assert_allclose(m_a.as_array(), ref_a.as_array(), atol=1e-15)
    np.testing.assert_allclose(m_b.as_array(), ref_b.as_array(), atol=1e-15)
    np.testing.assert_allclose(m_a.aat(), m_b.aat(), atol=1e-15)


def test_explicit_matrices_win_over_alpha():
    cfg = Config(alpha=0.3, matrix_a=(1.0, 0.0, 0.0, 1.0), matrix_b=(0.0, 1.0, 1.0, 0.0))
    m_a, m_b = config_matrices(cfg)
    np.testing.assert_array_equal(m_a.as_array(), np.eye(2))
    np.testing.assert_array_equal(m_b.as_array(), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_contaminant_selection():
    assert config_xi(Config()) is CENTERED_EXPONENTIAL
    assert config_xi(Config(center_xi=False)) is STANDARD_EXPONENTIAL


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["cdf", "--x", "0,0"]) == 1  # missing --beta
    assert main(["cdf", "--beta", "0.1", "--x", "0.3"]) == 1
    assert main(["experiment", "--preset", "fig2"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cdf", "--beta", "0.3", "--x", "0.1,-0.2", "--seed", "3"],
        ["cdf", "--beta", "0.3", "--x", "0.1,-0.2", "--grid-points", "9"],
        ["cdf", "--beta", "0.3", "--x", "0.1,-0.2", "--out", "zz.csv"],
        ["gamma", "--order", "1", "--grid=-1:1:3", "--grid-points", "7"],
        ["gamma", "--order", "1", "--grid=-1:1:3", "--seed", "3"],
        ["cdf", "--beta", "0.3", "--x", "0.1,-0.2", "--matrix-a", "1,0,0,1"],
        ["cdf", "--beta", "0.3", "--x", "0.1,-0.2", "--matrix-b", "1,0,0,1"],
        ["gamma", "--order", "1", "--grid=-1:1:3", "--matrix-a", "1,0,0,1"],
        ["gamma", "--order", "1", "--grid=-1:1:3", "--matrix-b", "1,0,0,1"],
        ["limit", "--n0", "50", "--reps", "2", "--grid-points", "16", "--matrix-a", "1,0,0,1"],
        ["limit", "--n0", "50", "--reps", "2", "--grid-points", "16", "--matrix-b", "1,0,0,1"],
    ],
    ids=[
        "cdf-seed", "cdf-grid-points", "cdf-out", "gamma-grid-points", "gamma-seed",
        "cdf-matrix-a", "cdf-matrix-b", "gamma-matrix-a", "gamma-matrix-b",
        "limit-matrix-a", "limit-matrix-b",
    ],
)
def test_flags_a_subcommand_does_not_read_exit_one(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "unrecognized arguments: --" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_MATRIX_A = "-1,0.5,0,1"
_MATRIX_B = "-0.5,1,1,0"


@pytest.mark.parametrize(
    "spaced",
    [
        ["cdf", "--matrix", "-1,0.5,0,1", "--beta", "0.3", "--x", "0,0"],
        ["cdf", "--beta", "0.3", "--x", "-0.5,0"],
        ["cdf", "--beta", "0.3", "--x", "-.5,-inf"],
        ["experiment", "--matrix-a", _MATRIX_A, "--matrix-b", _MATRIX_B,
         "--rho", "0.5", "--n-list", "10", "--reps", "1", "--grid-points", "4"],
        ["gamma", "--order", "1", "--grid", "-1:1:3"],
    ],
    ids=["cdf-matrix", "cdf-x", "cdf-x-point-inf", "experiment-matrix-a-b", "gamma-grid"],
)
def test_negative_list_values_parse_spaced(tmp_path, monkeypatch, capsys, spaced):
    # "--flag value" with a value that starts with "-" and a digit, "." or
    # "inf" reads like "--flag=value"
    monkeypatch.chdir(tmp_path)
    joined = []
    for arg in spaced:
        if joined and joined[-1].startswith("--") and arg.startswith("-") and arg[1] != "-":
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    assert joined != spaced
    outputs = []
    for argv in (spaced, joined):
        assert main(argv) == 0
        out = {"gamma": "gamma.csv", "experiment": "results.csv"}.get(spaced[0])
        written = (tmp_path / out).read_text() if out else ""
        outputs.append((capsys.readouterr().out, written))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", ["--bogus", "-q", "-x"])
def test_unknown_options_still_exit_one(capsys, flag):
    assert main(["cdf", "--beta", "0.3", "--x", "0,0", flag]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_gamma_and_limit_metadata_name_their_inputs(tmp_path, capsys):
    def meta(argv):
        out = tmp_path / "t.csv"
        assert main(argv + ["--out", str(out)]) == 0
        return [ln for ln in out.read_text().splitlines() if ln.startswith("#")]

    # the same grid and order on two matrices: the tables differ, so must
    # their metadata
    explicit = meta(["gamma", "--order", "1", "--matrix", "1,0,0.5,1", "--grid=-1:1:2"])
    default = meta(["gamma", "--order", "1", "--grid=-1:1:2"])
    assert explicit != default
    assert "# matrix: 1.0,0.0,0.5,1.0" in explicit
    assert "# grid: -1.0:1.0:2" in explicit
    limit = meta(["limit", "--n0", "50", "--reps", "2", "--grid-points", "16", "--matrix", "1,0,0.5,1"])
    assert limit == [
        "# command: limit",
        "# n0: 50",
        "# matrix: 1.0,0.0,0.5,1.0",
        "# reps: 2",
        "# grid_points: 16",
        "# seed: 20260819",
    ]
    # neither echoes a setting it never reads
    for unread in ("rho_list", "n_list", "c", "reps", "grid_points", "seed", "alpha"):
        assert not any(ln.startswith(f"# {unread}:") for ln in explicit)
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, output",
    [
        (["cdf", "--beta", "0.3", "--x", "0.1,-0.2"], None),
        (["gamma", "--order", "1", "--grid=-1:1:3"], "gamma.csv"),
        (["limit", "--n0", "50", "--reps", "2", "--grid-points", "16"], "limit.csv"),
    ],
    ids=["cdf", "gamma", "limit"],
)
def test_single_model_matrix_resolves_through_the_config_layers(
    tmp_path, monkeypatch, capsys, argv, output
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.cfg").write_text("matrix_a=1,0,0.5,1\n")
    (tmp_path / "other.cfg").write_text("matrix_a=2,1,1,3\n")

    def run(*extra):
        assert main(argv + list(extra)) == 0
        printed = capsys.readouterr().out
        return (tmp_path / output).read_text() if output else printed

    flag = run("--matrix", "1,0,0.5,1")
    assert run("--config", "a.cfg") == flag
    # the flag overrides the file's matrix_a
    assert run("--config", "other.cfg", "--matrix", "1,0,0.5,1") == flag
    assert run() != flag


@pytest.mark.parametrize(
    "lone, by_file",
    [
        ("matrix_a", False), ("matrix_b", False), ("matrix_a", True), ("matrix_b", True),
    ],
)
def test_experiment_rejects_a_lone_matrix(tmp_path, capsys, lone, by_file):
    out = tmp_path / "x.csv"
    argv = ["experiment", "--rho", "0.5", "--n-list", "10", "--reps", "1", "--out", str(out)]
    if by_file:
        cfg = tmp_path / "lone.cfg"
        cfg.write_text(f"{lone}=1,0,0,1\n")
        argv += ["--config", str(cfg)]
    else:
        argv += [f"--{lone.replace('_', '-')}", "1,0,0,1"]
    assert main(argv) == 1
    assert "matrix_a and matrix_b must be given together" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rho, n, by_file, sid",
    [
        ("0.5", "100,100", False, "rho0.5-n100"),
        ("0.5", "100,100", True, "rho0.5-n100"),
        # distinct values that print alike under :g
        ("0.3333331 0.3333334", "50", False, "rho0.333333-n50"),
    ],
)
def test_experiment_rejects_repeated_scenario_ids(tmp_path, capsys, rho, n, by_file, sid):
    out = tmp_path / "x.csv"
    argv = ["experiment", "--reps", "4", "--grid-points", "50", "--out", str(out)]
    if by_file:
        cfg = tmp_path / "repeat.cfg"
        cfg.write_text(f"rho_list={rho.replace(' ', ',')}\nn_list={n}\n")
        argv += ["--config", str(cfg)]
    else:
        argv += [arg for r in rho.split() for arg in ("--rho", r)] + ["--n-list", n]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"scenario id {sid} more than once" in err
    assert not out.exists()


def test_registered_options_per_subcommand():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, sub in subs.choices.items()
    }
    config = ["--config", "--alpha"]
    assert options == {
        "experiment": [
            "--preset", "--rho", "--n-list", "--c", "--reps", "--workers", "--timing",
            *config, "--matrix-a", "--matrix-b", "--out", "--seed", "--grid-points",
        ],
        "limit": [
            "--n0", "--reps", "--c-list", "--workers",
            *config, "--matrix", "--out", "--seed", "--grid-points",
        ],
        "verify": ["--check", "--out"],
        "cdf": ["--beta", "--x", *config, "--matrix"],
        "gamma": ["--order", "--grid", *config, "--matrix", "--out"],
        "plot": ["--in", "--out", "--x", "--x-scale", "--title"],
    }


def test_validation_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha=2.0\n")
    assert main(["experiment", "--config", str(bad)]) == 1
    assert main(["experiment", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert main(["gamma", "--order", "7", "--out", str(tmp_path / "g.csv")]) == 1
    capsys.readouterr()


def test_fractional_sample_sizes_exit_one(tmp_path, capsys):
    out = tmp_path / "n.csv"
    small = ["--rho", "0.3", "--reps", "2", "--grid-points", "16", "--out", str(out)]
    assert main(["experiment", "--n-list", "100,250.7", *small]) == 1
    assert "250.7" in capsys.readouterr().err
    cfg = tmp_path / "n.cfg"
    cfg.write_text("n_list=250.7\n")
    assert main(["experiment", "--config", str(cfg), *small]) == 1
    assert "250.7" in capsys.readouterr().err
    assert not out.exists()
    # whole numbers written as floats still parse
    assert parse_config("n_list=100,2.5e2").n_list == (100, 250)
    with pytest.raises(ValueError, match="250.7"):
        Config(n_list=(100, 250.7))


def test_config_rejects_fractional_counts():
    for key in ("reps", "grid_points", "seed"):
        with pytest.raises(ValueError, match=f"{key}: expected whole numbers"):
            Config(**{key: 2.5})
    cfg = Config(reps=3.0, grid_points=16.0, seed=7.0)
    assert (cfg.reps, cfg.grid_points, cfg.seed) == (3, 16, 7)
    assert type(cfg.reps) is int and type(cfg.seed) is int


def test_nan_threshold_exits_one(tmp_path, capsys):
    out = tmp_path / "t.csv"
    small = ["--reps", "3", "--grid-points", "16", "--out", str(out)]
    assert main(["experiment", "--rho", "0.25", "--n-list", "60", "--c", "nan", *small]) == 1
    assert "threshold" in capsys.readouterr().err
    assert main(["limit", "--n0", "50", "--c-list", "0.5,nan", *small]) == 1
    assert "threshold" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--rho", "0.25", "--n-list", "60", "--seed", "-1"],
        ["limit", "--n0", "50", "--seed", "-5"],
    ],
)
def test_negative_seed_exits_one_naming_it(tmp_path, capsys, argv):
    out = tmp_path / "s.csv"
    assert main([*argv, "--reps", "3", "--grid-points", "16", "--out", str(out)]) == 1
    assert f"seed must be nonnegative, got {argv[-1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("c_list", ["nan", "0.5,-0.1", "-inf,1.0"])
def test_limit_rejects_bad_thresholds_before_simulating(tmp_path, monkeypatch, capsys, c_list):
    simulated = []
    monkeypatch.setattr(cli, "simulate_limit_sup", lambda *a, **k: simulated.append(a))
    out = tmp_path / "l.csv"
    assert main(["limit", f"--c-list={c_list}", "--out", str(out)]) == 1
    assert "thresholds must be nonnegative" in capsys.readouterr().err
    assert simulated == []
    assert not out.exists()


def test_experiment_rejects_workers_below_one(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert main(["experiment", "--workers", "0", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# cdf and gamma


def test_cdf_prints_mixture_value(capsys):
    assert main(["cdf", "--beta", "0.3", "--x", "0.3,-0.2"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(0.356603028955747, abs=1e-9)


def test_package_runs_as_the_command_line():
    # python -m mixident prints what python -m mixident.cli prints
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["cdf", "--beta", "0.3", "--x=0.1,-0.2"]
    runs = [
        subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True,
                       env=env, timeout=120)
        for module in ("mixident", "mixident.cli")
    ]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout and float(runs[0].stdout) > 0.0
    assert runs[0].stderr == runs[1].stderr == ""


def test_cdf_accepts_explicit_matrix(capsys):
    root84 = repr(float(np.sqrt(0.84)))
    assert (
        main(
            [
                "cdf",
                "--matrix",
                f"1,0,0.4,{root84}",
                "--beta",
                "0.3",
                "--x",
                "0.3,-0.2",
            ]
        )
        == 0
    )
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(0.356603028955747, abs=1e-9)


def test_cdf_accepts_nearly_singular_matrix(capsys):
    # the Gaussian pair's correlation rounds to 1 on this matrix
    args = ["cdf", "--matrix", "1,1,1,1.0000000001", "--beta", "0.3", "--x", "0.1,0.2"]
    assert main(args) == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.0 <= value <= 1.0


def test_gamma_writes_field_table(tmp_path, capsys):
    out = tmp_path / "gamma.csv"
    assert main(["gamma", "--order", "1", "--grid=-3:3:4", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert meta == [
        "# command: gamma",
        "# order: 1",
        "# grid: -3.0:3.0:4",
        f"# matrix: 1.0,0.0,0.4,{float(np.sqrt(0.84))!r}",
        "# center_xi: true",
    ]
    assert body[0] == "x1,x2,value"
    assert len(body) == 1 + 16
    x1, x2, value = body[1].split(",")
    assert float(x1) == -3.0 and float(x2) == -3.0
    assert abs(float(value)) <= 4.0


def _gamma_table(path) -> np.ndarray:
    body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])


def test_gamma_grid_count_parses_like_other_sizes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "gamma.csv"
    assert main(["gamma", "--order", "1", "--grid=-3:3:4.0", "--out", str(out)]) == 0
    assert len(_gamma_table(out)) == 16
    # one point needs no increasing range: it sits at lo
    assert main(["gamma", "--order", "1", "--grid=2:1:1", "--out", str(out)]) == 0
    assert _gamma_table(out)[:, :2].tolist() == [[2.0, 2.0]]
    # bad counts fail while the arguments are parsed, before any field
    monkeypatch.setattr(cli, "gamma_k_batch", None)
    for count in ("0", "-2", "2.5", "nan"):
        assert main(["gamma", "--order", "1", f"--grid=-3:3:{count}", "--out", str(out)]) == 1
        assert "argument --grid" in capsys.readouterr().err


def _refused_at_once(shape):
    """Whether numpy refuses a float array of ``shape`` without touching
    memory, as it does here for sizes far beyond the host's; a host that
    overcommits without limit would grant it and fill it page by page."""
    try:
        np.empty(shape)
    except MemoryError:
        return True
    return False


@pytest.mark.parametrize(
    "argv, shape",
    [
        (["gamma", "--order", "1", "--grid=-6:6:1000000"], (10**6, 10**6)),
        (["experiment", "--preset", "fig1-left-desk", "--n-list", "100000000000", "--workers", "1"],
         (10**11, 2)),
    ],
    ids=["gamma-grid", "experiment-n"],
)
def test_oversized_input_exits_one(tmp_path, capsys, argv, shape):
    if not _refused_at_once(shape):
        pytest.skip("this host grants the oversized allocation lazily")
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["gamma", "--order", "1", "--grid=-3:3:0"], "argument --grid: grid count must be at least 1, got 0"),
        (["gamma", "--order", "1", "--grid=-3:3"], "argument --grid: expected lo:hi:n, got '-3:3'"),
        (["experiment", "--n-list", "2.5"], "argument --n-list: expected whole numbers, got 2.5"),
        (["limit", "--c-list", "1,x"], "argument --c-list: could not convert string to float: 'x'"),
        (["cdf", "--beta", "0.1", "--x", ","], "argument --x: empty number list"),
        (["cdf", "--beta", "0.1", "--x", "0", "--matrix", "1,2,3"],
         "argument --matrix: matrix needs 4 row-major entries, got 3"),
        (["experiment", "--matrix-b", "1,2"], "argument --matrix-b: matrix needs 4 row-major entries, got 2"),
        (["gamma", "--order", "1", "--grid=inf:6:3"], "argument --grid: grid ends must be finite, got inf:6.0"),
        (["gamma", "--order", "1", "--grid=-6:nan:3"], "argument --grid: grid ends must be finite, got -6.0:nan"),
        (["gamma", "--order", "1", "--grid=1:1:5"], "argument --grid: grid of 5 points needs lo < hi, got 1.0:1.0"),
        (["gamma", "--order", "1", "--grid=2:1:5"], "argument --grid: grid of 5 points needs lo < hi, got 2.0:1.0"),
    ],
)
def test_bad_typed_flag_keeps_its_reason(capsys, argv, reason):
    assert main(argv) == 1
    assert reason in capsys.readouterr().err


def test_cdf_rejects_non_finite_matrix(capsys):
    assert main(["cdf", "--matrix", "nan,0,0,1", "--beta", "0.3", "--x", "0.1,-0.2"]) == 1
    assert "a11 must be finite" in capsys.readouterr().err


def test_gamma_follows_center_xi(tmp_path, capsys):
    cfg = tmp_path / "raw.cfg"
    cfg.write_text("center_xi=false\n")
    raw, centered = tmp_path / "raw.csv", tmp_path / "centered.csv"
    args = ["gamma", "--order", "1", "--grid=-3:3:5"]
    assert main(args + ["--config", str(cfg), "--out", str(raw)]) == 0
    assert main(args + ["--out", str(centered)]) == 0
    capsys.readouterr()
    assert "# center_xi: false" in raw.read_text().splitlines()
    table = _gamma_table(raw)
    want = gamma_k_batch(
        equal_product_pair(0.4)[0], 1, table[:, :2], NuMeasure(xi=STANDARD_EXPONENTIAL)
    )
    np.testing.assert_array_equal(table[:, 2], want)
    assert np.max(np.abs(table[:, 2] - _gamma_table(centered)[:, 2])) > 1e-3


# ---------------------------------------------------------------------------
# experiment and plot


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "sweep.csv"
    rc = main(
        [
            "experiment",
            "--rho",
            "0.25",
            "--rho",
            "0.75",
            "--n-list",
            "50,100",
            "--reps",
            "6",
            "--grid-points",
            "32",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


def test_experiment_csv_contents(sweep_csv):
    lines = sweep_csv.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert any(ln == "# seed: 7" for ln in meta)
    assert any("rho_list: 0.25,0.75" in ln for ln in meta)
    assert body[0] == CSV_HEADER
    assert len(body) == 1 + 4
    assert body[1].split(",")[0] == "rho0.25-n50"


def test_experiment_worker_count_invisible_in_output(sweep_csv, tmp_path, capsys):
    out = tmp_path / "again.csv"
    rc = main(
        [
            "experiment",
            "--rho",
            "0.25",
            "--rho",
            "0.75",
            "--n-list",
            "50,100",
            "--reps",
            "6",
            "--grid-points",
            "32",
            "--seed",
            "7",
            "--workers",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert out.read_bytes() == sweep_csv.read_bytes()


def test_experiment_from_config_file(tmp_path, capsys):
    out = tmp_path / "run.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"rho_list=0.3\nn_list=60\nreps=4\ngrid_points=16\nseed=11\nout={out}\n"
    )
    assert main(["experiment", "--config", str(cfg)]) == 0
    capsys.readouterr()
    rows = read_results_csv(out)
    assert len(rows) == 1
    assert rows[0]["scenario_id"] == "rho0.3-n60"
    assert rows[0]["N"] == "4"


def test_experiment_preset_override_runs_small(tmp_path, capsys):
    out = tmp_path / "desk.csv"
    rc = main(
        [
            "experiment",
            "--preset",
            "fig1-left-desk",
            "--n-list",
            "40",
            "--reps",
            "4",
            "--grid-points",
            "16",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rows = read_results_csv(out)
    # all four schedule exponents of the preset survive the override
    assert [r["rho"] for r in rows] == ["0.25", "0.35", "0.5", "0.75"]


def _meta(path) -> dict:
    pairs = (ln[2:].split(": ", 1) for ln in path.read_text().splitlines() if ln.startswith("# "))
    return dict(pairs)


def test_preset_config_items_rebuild_the_preset():
    for name in PRESET_NAMES:
        got, want = _sweep_config(Config(**_preset_items(name))), preset_config(name)
        for f in fields(SweepConfig):
            assert getattr(got, f.name) == getattr(want, f.name), (name, f.name)


def test_preset_then_config_file_then_flags(tmp_path, capsys):
    out = tmp_path / "layers.csv"
    cfg = tmp_path / "layers.cfg"
    cfg.write_text("reps=3\nseed=5\nrho_list=0.3,0.6\nn_list=40\n")
    args = ["experiment", "--preset", "fig1-left", "--config", str(cfg)]
    assert main(args + ["--reps", "2", "--rho", "0.5", "--out", str(out)]) == 0
    capsys.readouterr()
    meta = _meta(out)
    # grid_points from the preset, seed from the file, reps and rho_list from flags
    assert meta["grid_points"] == "1000"
    assert meta["seed"] == "5"
    assert (meta["reps"], meta["rho_list"]) == ("2", "0.5")
    (row,) = read_results_csv(out)
    assert (row["grid_points"], row["seed"], row["N"], row["rho"]) == ("1000", "5", "2", "0.5")


def test_lone_seed_flag_keeps_the_presets_grid_points(tmp_path, capsys):
    out = tmp_path / "seed.csv"
    args = ["experiment", "--preset", "fig1-left", "--seed", "9"]
    assert main(args + ["--rho", "0.5", "--n-list", "40", "--reps", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (_meta(out)["grid_points"], _meta(out)["seed"]) == ("1000", "9")
    assert [(r["grid_points"], r["seed"]) for r in read_results_csv(out)] == [("1000", "9")]


def test_grid_mode_setting_is_gone(tmp_path, capsys):
    cfg = tmp_path / "mode.cfg"
    cfg.write_text("grid_mode=corner-subsample\n")
    small = ["--rho", "0.5", "--n-list", "40", "--reps", "2", "--out", str(tmp_path / "x.csv")]
    assert main(["experiment", "--config", str(cfg), *small]) == 1
    assert "unknown key 'grid_mode'" in capsys.readouterr().err
    assert main(["experiment", "--grid-mode", "corner-subsample", *small]) == 1
    assert "unrecognized arguments: --grid-mode" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_experiment_unwritable_out_exits_one(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "x.csv"
    args = ["experiment", "--rho", "0.3", "--n-list", "40", "--reps", "2", "--grid-points", "16"]
    assert main(args + ["--out", str(out)]) == 1
    assert "error: cannot write" in capsys.readouterr().err


def test_limit_and_gamma_default_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["limit", "--n0", "50", "--reps", "2", "--grid-points", "16"]) == 0
    assert main(["gamma", "--order", "1", "--grid=-3:3:2"]) == 0
    assert "limit.csv" in capsys.readouterr().out
    assert (tmp_path / "limit.csv").is_file() and (tmp_path / "gamma.csv").is_file()
    # an out= in the config file still wins over the command's default
    cfg = tmp_path / "out.cfg"
    cfg.write_text("out=mine.csv\n")
    assert main(["gamma", "--order", "1", "--grid=-3:3:2", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "mine.csv").is_file()


def test_plot_groups_series_by_schedule(sweep_csv, tmp_path, capsys):
    rows = read_results_csv(sweep_csv)
    series, x_label = sweep_series(rows)
    assert x_label == "n"
    assert [s.name for s in series] == ["rho=0.25", "rho=0.75"]
    assert series[0].xs == (50.0, 100.0)

    out = tmp_path / "plot.svg"
    assert main(["plot", "--in", str(sweep_csv), "--out", str(out)]) == 0
    capsys.readouterr()
    svg = out.read_text()
    assert svg.count("<polyline") == 2

    again = tmp_path / "plot2.svg"
    assert main(["plot", "--in", str(sweep_csv), "--out", str(again)]) == 0
    capsys.readouterr()
    assert again.read_text() == svg


def test_plot_by_rho_axis(sweep_csv, tmp_path, capsys):
    rows = read_results_csv(sweep_csv)
    series, x_label = sweep_series(rows, "rho")
    assert x_label == "rho"
    assert [s.name for s in series] == ["n=50", "n=100"]
    out = tmp_path / "rho.svg"
    assert main(["plot", "--in", str(sweep_csv), "--x", "rho", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().count("<polyline") == 2


def _row(scenario_id, rho, n, estimate, stderr) -> dict:
    return dict(scenario_id=scenario_id, rho=rho, n=n, estimate=estimate, stderr=stderr)


def test_sweep_series_on_both_axes():
    by_rho = [
        _row("rho0.5-n200", "0.5", "200", "0.3", "0.02"),
        _row("rho0.5-n100", "0.5", "100", "0.4", "0.03"),
        _row("rho0.25-n100", "0.25", "100", "0.9", "0.01"),
    ]
    fixed_beta = [
        _row("beta0.1-n200", "", "200", "0.7", "0.04"),
        _row("beta0.1-n100", "", "100", "0.6", "0.05"),
    ]
    want_n = [
        Series("beta0.1", (100.0, 200.0), (0.6, 0.7), (0.05, 0.04)),
        Series("rho=0.25", (100.0,), (0.9,), (0.01,)),
        Series("rho=0.5", (100.0, 200.0), (0.4, 0.3), (0.03, 0.02)),
    ]
    assert sweep_series(fixed_beta + by_rho, "n") == (want_n, "n")
    assert sweep_series(fixed_beta + by_rho) == (want_n, "n")
    want_rho = [
        Series("n=100", (0.25, 0.5), (0.9, 0.4), (0.01, 0.03)),
        Series("n=200", (0.5,), (0.3,), (0.02,)),
    ]
    assert sweep_series(by_rho, "rho") == (want_rho, "rho")
    # one sample size: auto puts rho on the x axis
    assert sweep_series(by_rho[1:], "auto") == (want_rho[:1], "rho")
    with pytest.raises(CliError, match="x=rho needs a schedule exponent on every row"):
        sweep_series(fixed_beta + by_rho, "rho")


def test_plot_rejects_bad_input(tmp_path, capsys):
    assert main(["plot", "--in", str(tmp_path / "none.csv")]) == 1
    junk = tmp_path / "junk.csv"
    junk.write_text("a,b\n1,2\n")
    assert main(["plot", "--in", str(junk), "--out", str(tmp_path / "j.svg")]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# limit and verify


def test_limit_subcommand(tmp_path, capsys):
    out = tmp_path / "limit.csv"
    rc = main(
        [
            "limit",
            "--n0",
            "400",
            "--reps",
            "20",
            "--c-list",
            "0.5,1.0",
            "--grid-points",
            "32",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "c,estimate,stderr,n0,n_draws,grid_mode,grid_points"
    assert len(body) == 3
    first = body[1].split(",")
    assert float(first[0]) == 0.5
    assert int(first[3]) == 400 and int(first[4]) == 20


def test_limit_rejects_workers_below_one(tmp_path, capsys):
    out = tmp_path / "l.csv"
    assert main(["limit", "--n0", "50", "--reps", "3", "--workers", "0", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_verify_single_check(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    assert main(["verify", "--check", "lem32", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "lem32: PASS" in printed
    lines = out.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "check,quantity,value,comparator,threshold,ok"
    assert all(ln.split(",")[0] == "lem32" for ln in body[1:])


def test_verify_failure_exits_2_and_still_writes_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(checks.TOLERANCES, "lem35.null_gap", -1.0)
    out = tmp_path / "checks.csv"
    assert main(["verify", "--check", "lem35", "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert "lem35: FAIL" in printed.out
    assert "numerical checks FAILED" in printed.err
    body = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    ok = {row[1]: row[5] for row in body[1:]}
    assert ok == {
        "transpose_product_gap": "1",
        "null_level_gap": "0",
        "contaminated_gap": "1",
        "permutation_gap": "0",
    }
