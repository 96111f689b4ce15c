"""Command-line entry point: experiments, checks, tables, and figures.

Subcommands: experiment, limit, verify, cdf, gamma, plot.  Exit code 0
on success, 1 on a validation or usage error, 2 when a numerical check
fails.  Every CSV the tool writes starts with '#'-prefixed metadata
lines echoing the resolved configuration and seed so a result file is
self-describing.

A run's settings resolve in layers, each overriding the one before:
the command's base (for experiment, the --preset's rho_list, n_list, c,
reps, grid_mode, grid_points and seed; limit and gamma write to
limit.csv and gamma.csv), then the --config file, then the flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .checks import CHECK_IDS, reports_csv_lines, run_checks
from .empirical import EvalGridSpec, _whole_fields, _whole_numbers
from .expansion import EvalGrid, NuMeasure, gamma_k_batch
from .laws import CENTERED_EXPONENTIAL, STANDARD_EXPONENTIAL, ComponentLaw
from .limitfield import limit_results_csv_lines, simulate_limit_sup
from .montecarlo import (
    PRESET_NAMES,
    SweepConfig,
    preset_config,
    results_csv_lines,
    run_sweep,
)
from .pushforward import as_matrix, equal_product_pair, mixture_pushforward_cdf
from .svgplot import AxesSpec, Series, render_line_chart


class CliError(Exception):
    """Usage or validation problem; maps to exit code 1."""


# ---------------------------------------------------------------------------
# configuration files (key=value lines)


@dataclass(frozen=True)
class Config:
    """Resolved run configuration.

    Mixing matrices come either from ``alpha`` (the equal-product pair)
    or from explicit row-major ``matrix_a``/``matrix_b`` entries, which
    must be given together and take precedence.
    """

    alpha: float = 0.4
    matrix_a: tuple[float, float, float, float] | None = None
    matrix_b: tuple[float, float, float, float] | None = None
    rho_list: tuple[float, ...] = (0.25, 0.35, 0.5, 0.75)
    n_list: tuple[int, ...] = (100, 250, 500, 1000, 2000, 3500, 5000)
    c: float = 1.0
    reps: int = 200
    grid_mode: str = "corner-subsample"
    grid_points: int = 500
    seed: int = 20260819
    out: str = "results.csv"
    center_xi: bool = True

    def __post_init__(self):
        if not abs(self.alpha) < 1.0:
            raise ValueError(f"need |alpha| < 1, got {self.alpha}")
        if (self.matrix_a is None) != (self.matrix_b is None):
            raise ValueError("matrix_a and matrix_b must be given together")
        for name in ("matrix_a", "matrix_b"):
            m = getattr(self, name)
            if m is not None and len(m) != 4:
                raise ValueError(f"{name} needs 4 row-major entries, got {len(m)}")
        object.__setattr__(self, "rho_list", tuple(float(r) for r in self.rho_list))
        object.__setattr__(self, "n_list", _whole_numbers(self.n_list))
        _whole_fields(self, "reps", "grid_points", "seed")
        if not self.rho_list or not self.n_list:
            raise ValueError("rho_list and n_list must be nonempty")
        if not self.c >= 0.0:
            raise ValueError(f"threshold must be nonnegative, got {self.c}")
        if self.reps < 1 or self.grid_points < 1:
            raise ValueError("reps and grid_points must be positive")
        # validates the mode name eagerly so config errors surface early
        EvalGridSpec(self.grid_mode, self.grid_points)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return low == "true"


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ValueError("empty number list")
    return tuple(float(p) for p in parts)


def _parse_ints(text: str) -> tuple[int, ...]:
    return _whole_numbers(_parse_floats(text))


def _parse_matrix(text: str) -> tuple[float, float, float, float]:
    vals = _parse_floats(text)
    if len(vals) != 4:
        raise ValueError(f"matrix needs 4 row-major entries, got {len(vals)}")
    return vals


_KEY_PARSERS = {
    "alpha": float,
    "matrix_a": _parse_matrix,
    "matrix_b": _parse_matrix,
    "rho_list": _parse_floats,
    "n_list": _parse_ints,
    "c": float,
    "reps": int,
    "grid_mode": str,
    "grid_points": int,
    "seed": int,
    "out": str,
    "center_xi": _parse_bool,
}


def _parse_items(text: str) -> dict:
    items = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_PARSERS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:
            items[key] = _KEY_PARSERS[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return items


def parse_config(text: str) -> Config:
    """Key=value configuration text to a validated Config."""
    return Config(**_parse_items(text))


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_render_value(v) for v in value)
    return str(value)


def render_config(config: Config) -> str:
    """Canonical key=value text; parse(render(c)) == c."""
    lines = []
    for f in fields(Config):
        value = getattr(config, f.name)
        if value is None:
            continue
        lines.append(f"{f.name}={_render_value(value)}")
    return "\n".join(lines) + "\n"


def config_matrices(config: Config):
    if config.matrix_a is not None:
        return (
            as_matrix(np.asarray(config.matrix_a).reshape(2, 2)),
            as_matrix(np.asarray(config.matrix_b).reshape(2, 2)),
        )
    return equal_product_pair(config.alpha)


def config_xi(config: Config) -> ComponentLaw:
    return CENTERED_EXPONENTIAL if config.center_xi else STANDARD_EXPONENTIAL


def _config_metadata(config: Config, command: str, **extra) -> dict:
    meta = {"command": command}
    meta.update(extra)
    for f in fields(Config):
        # the destination path is not part of the scientific configuration,
        # and echoing it would make otherwise-identical runs differ in bytes
        if f.name == "out":
            continue
        value = getattr(config, f.name)
        if value is not None:
            meta[f.name] = _render_value(value)
    return meta


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep codes to spec
        raise CliError(message)


def _resolve_config(args, **base) -> Config:
    """Base items, then the --config file, then explicit flags."""
    items = dict(base)
    path = getattr(args, "config", None)
    if path:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot read config: {exc}") from exc
        items.update(_parse_items(text))
    for key in _KEY_PARSERS:
        value = getattr(args, key, None)
        if value is not None:
            items[key] = value
    return Config(**items)


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _preset_items(name: str) -> dict:
    """A preset's settings as config items."""
    sweep = preset_config(name)
    return dict(
        rho_list=sweep.rho_list,
        n_list=sweep.n_list,
        c=sweep.c,
        reps=sweep.n_reps,
        grid_mode=sweep.grid.mode.value,
        grid_points=sweep.grid.m_points,
        seed=sweep.master_seed,
    )


def _sweep_config(config: Config) -> SweepConfig:
    return SweepConfig(
        *config_matrices(config),
        config.rho_list,
        config.n_list,
        c=config.c,
        n_reps=config.reps,
        grid=EvalGridSpec(config.grid_mode, config.grid_points),
        master_seed=config.seed,
        xi=config_xi(config),
    )


def cmd_experiment(args) -> int:
    preset = {"preset": args.preset} if args.preset else {}
    config = _resolve_config(args, **(_preset_items(args.preset) if preset else {}))
    results = run_sweep(_sweep_config(config), workers=args.workers)
    # worker count stays out of the metadata: output must not depend on it
    meta = _config_metadata(config, "experiment", **preset)
    _write_text(config.out, "\n".join(results_csv_lines(results, meta, args.timing)) + "\n")
    print(f"wrote {len(results)} scenario rows to {config.out}")
    return 0


def _single_matrix(args, config: Config):
    """The matrix for single-model subcommands; --matrix wins."""
    if getattr(args, "matrix", None) is not None:
        return as_matrix(np.asarray(args.matrix).reshape(2, 2))
    return config_matrices(config)[0]


def cmd_limit(args) -> int:
    config = _resolve_config(args, out="limit.csv")
    m = _single_matrix(args, config)
    bad = [c for c in args.c_list if not c >= 0.0]
    if bad:
        raise ValueError(f"thresholds must be nonnegative, got {', '.join(map(repr, bad))}")
    limit = simulate_limit_sup(
        m,
        n0=args.n0,
        n_draws=config.reps,
        grid=EvalGridSpec(config.grid_mode, config.grid_points),
        master_seed=config.seed,
        workers=args.workers,
    )
    # worker count stays out of the metadata: output must not depend on it
    meta = _config_metadata(config, "limit", n0=str(args.n0))
    lines = limit_results_csv_lines(limit, args.c_list, meta)
    _write_text(config.out, "\n".join(lines) + "\n")
    print(f"wrote {len(args.c_list)} threshold rows to {config.out}")
    return 0


def cmd_verify(args) -> int:
    reports = run_checks(args.check)
    meta = {"command": "verify", "check": args.check}
    _write_text(args.out, "\n".join(reports_csv_lines(reports, meta)) + "\n")
    all_ok = True
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        all_ok &= rep.passed
        print(f"{rep.check_id}: {status}")
    print(f"report written to {args.out}")
    if not all_ok:
        print("numerical checks FAILED", file=sys.stderr)
        return 2
    return 0


def cmd_cdf(args) -> int:
    config = _resolve_config(args)
    m = _single_matrix(args, config)
    if len(args.x) != 2:
        raise CliError(f"--x needs 2 coordinates, got {len(args.x)}")
    value = mixture_pushforward_cdf(m, args.beta, args.x, xi=config_xi(config))
    print(repr(float(value)))
    return 0


def cmd_gamma(args) -> int:
    config = _resolve_config(args, out="gamma.csv")
    m = _single_matrix(args, config)
    lo, hi, n_side = args.grid
    grid = EvalGrid.tensor(lo, hi, n_side)
    values = gamma_k_batch(m, args.order, grid.points, NuMeasure(xi=config_xi(config)))
    meta = _config_metadata(config, "gamma", order=str(args.order))
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append("x1,x2,value")
    for (x1, x2), v in zip(grid.points, values):
        lines.append(f"{float(x1)!r},{float(x2)!r},{float(v)!r}")
    _write_text(config.out, "\n".join(lines) + "\n")
    print(f"wrote {len(values)} field values to {config.out}")
    return 0


def _parse_grid_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected lo:hi:n, got {text!r}")
    (n,) = _whole_numbers((float(parts[2]),))
    if n < 1:
        raise ValueError(f"grid count must be at least 1, got {n}")
    return float(parts[0]), float(parts[1]), n


# ---------------------------------------------------------------------------
# plotting from result CSVs


def read_results_csv(path) -> list[dict]:
    """Rows of a sweep CSV, '#' metadata lines skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not body:
        raise CliError(f"{path} has no table rows")
    reader = csv.DictReader(io.StringIO("\n".join(body)))
    rows = list(reader)
    needed = {"scenario_id", "rho", "n", "estimate", "stderr"}
    have = set(reader.fieldnames or ())
    if not needed <= have:
        raise CliError(f"{path} is not a sweep results file (missing {needed - have})")
    if not rows:
        raise CliError(f"{path} has a header but no data rows")
    return rows


def sweep_series(rows: list[dict], x_mode: str = "auto") -> tuple[list[Series], str]:
    """Group sweep rows into plot series; returns (series, x label)."""
    n_values = sorted({int(r["n"]) for r in rows})
    if x_mode == "auto":
        x_mode = "n" if len(n_values) > 1 else "rho"
    series = []
    if x_mode == "n":
        tags = sorted({r["scenario_id"].rsplit("-n", 1)[0] for r in rows})
        for tag in tags:
            got = sorted(
                (int(r["n"]), float(r["estimate"]), float(r["stderr"]))
                for r in rows
                if r["scenario_id"].rsplit("-n", 1)[0] == tag
            )
            name = f"rho={tag[3:]}" if tag.startswith("rho") else tag
            series.append(
                Series(
                    name,
                    tuple(float(g[0]) for g in got),
                    tuple(g[1] for g in got),
                    tuple(g[2] for g in got),
                )
            )
    else:
        if any(not r["rho"] for r in rows):
            raise CliError("x=rho needs a schedule exponent on every row")
        for n in n_values:
            got = sorted(
                (float(r["rho"]), float(r["estimate"]), float(r["stderr"]))
                for r in rows
                if int(r["n"]) == n
            )
            series.append(
                Series(
                    f"n={n}",
                    tuple(g[0] for g in got),
                    tuple(g[1] for g in got),
                    tuple(g[2] for g in got),
                )
            )
    return series, x_mode


def cmd_plot(args) -> int:
    rows = read_results_csv(args.infile)
    series, x_label = sweep_series(rows, args.x)
    axes = AxesSpec(
        x_label=x_label,
        y_label="estimate",
        title=args.title,
        x_scale=args.x_scale,
    )
    svg = render_line_chart(series, axes)
    _write_text(args.out, svg)
    print(f"wrote plot with {len(series)} series to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _flag_type(parse):
    """``parse`` as an argparse type: its ``ValueError`` becomes an
    ``ArgumentTypeError``, so that the usage error keeps the reason."""

    def typed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return typed


_MATRIX = _flag_type(_parse_matrix)
_FLOATS = _flag_type(_parse_floats)


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out")
    sub.add_argument("--grid-mode", dest="grid_mode")
    sub.add_argument("--grid-points", dest="grid_points", type=int)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--matrix-a", dest="matrix_a", type=_MATRIX)
    sub.add_argument("--matrix-b", dest="matrix_b", type=_MATRIX)


def _add_workers_flag(sub) -> None:
    sub.add_argument(
        "--workers", type=int, default=1,
        help="worker processes, at least 1; clamped to --reps and to the CPUs"
        " available, and 1 runs in-process (default: 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mixident", description=__doc__)
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("experiment", help="run a contamination-schedule sweep")
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--rho", dest="rho_list", type=float, action="append")
    p.add_argument("--n-list", dest="n_list", type=_flag_type(_parse_ints))
    p.add_argument("--c", type=float)
    p.add_argument("--reps", type=int)
    _add_workers_flag(p)
    p.add_argument("--timing", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = subs.add_parser("limit", help="simulate the uncontaminated limit law")
    p.add_argument("--matrix", type=_MATRIX)
    p.add_argument("--n0", type=int, default=20_000)
    p.add_argument("--reps", type=int)
    p.add_argument(
        "--c-list", dest="c_list", type=_FLOATS, default=(0.5, 1.0, 1.5)
    )
    _add_workers_flag(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_limit)

    p = subs.add_parser("verify", help="run the numerical theory checks")
    p.add_argument("--check", choices=("all",) + CHECK_IDS, default="all")
    p.add_argument("--out", default="checks.csv")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("cdf", help="evaluate the mixture pushforward CDF")
    p.add_argument("--matrix", type=_MATRIX)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--x", type=_FLOATS, required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_cdf)

    p = subs.add_parser("gamma", help="tabulate an expansion coefficient field")
    p.add_argument("--matrix", type=_MATRIX)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--grid", type=_flag_type(_parse_grid_range), default=(-6.0, 6.0, 41))
    _add_config_flags(p)
    p.set_defaults(func=cmd_gamma)

    p = subs.add_parser("plot", help="render a sweep CSV to an SVG chart")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="plot.svg")
    p.add_argument("--x", choices=("auto", "n", "rho"), default="auto")
    p.add_argument("--x-scale", dest="x_scale", choices=("linear", "log"), default="linear")
    p.add_argument("--title", default="")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
