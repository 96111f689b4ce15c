"""Command-line surface: config files, subcommands, exit codes, outputs."""

from dataclasses import fields

import numpy as np
import pytest

from mixident import cli
from mixident.cli import (
    Config,
    _preset_items,
    _sweep_config,
    config_matrices,
    config_xi,
    main,
    parse_config,
    read_results_csv,
    render_config,
    sweep_series,
)
from mixident.expansion import NuMeasure, gamma_k_batch
from mixident.laws import CENTERED_EXPONENTIAL, STANDARD_EXPONENTIAL
from mixident.montecarlo import CSV_HEADER, PRESET_NAMES, SweepConfig, preset_config
from mixident.pushforward import equal_product_pair

# ---------------------------------------------------------------------------
# configuration


def test_config_round_trip():
    assert parse_config(render_config(Config())) == Config()


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
    assert parse_config(render_config(cfg)) == cfg
    assert parse_config("# note\n\nalpha=0.2\n").alpha == 0.2


def test_config_rejections():
    for text in (
        "wat=1",
        "alpha",
        "alpha=1.5",
        "alpha=-1",
        "center_xi=maybe",
        "grid_mode=hexagonal",
        "matrix_a=1,0,0,1",
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


def test_gamma_writes_field_table(tmp_path, capsys):
    out = tmp_path / "gamma.csv"
    assert main(["gamma", "--order", "1", "--grid=-3:3:4", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert any("command: gamma" in ln for ln in meta)
    assert any("seed:" in ln for ln in meta)
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
    # bad counts fail while the arguments are parsed, before any field
    monkeypatch.setattr(cli, "gamma_k_batch", None)
    for count in ("0", "-2", "2.5", "nan"):
        assert main(["gamma", "--order", "1", f"--grid=-3:3:{count}", "--out", str(out)]) == 1
        assert "argument --grid" in capsys.readouterr().err


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


def test_lone_grid_flag_keeps_the_presets_other_grid_value(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    args = ["experiment", "--preset", "fig1-left", "--grid-mode", "corner-subsample"]
    assert main(args + ["--rho", "0.5", "--n-list", "40", "--reps", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _meta(out)["grid_points"] == "1000"
    assert [r["grid_points"] for r in read_results_csv(out)] == ["1000"]


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
