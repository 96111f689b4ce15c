"""Deterministic SVG line charts for sweep results.

No external plotting dependency: the chart is assembled from fixed-format
strings so identical input always yields byte-identical output.  One
polyline per series, optional vertical error bars, linear or logarithmic
x axis.  Coordinates are rounded to a fixed number of decimals; nothing
in the document depends on time, locale, or dict iteration order beyond
the caller-provided series order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# a colorblind-friendly fixed palette; series cycle through it
PALETTE = ("#0072b2", "#d55e00", "#009e73", "#cc79a7", "#56b4e9", "#e69f00")

WIDTH = 720.0
HEIGHT = 480.0
MARGIN_L = 64.0
MARGIN_R = 16.0
MARGIN_T = 40.0
MARGIN_B = 48.0


@dataclass(frozen=True)
class Series:
    """One plotted curve: points in data coordinates plus a legend name."""

    name: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    errs: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ValueError("series needs equally many xs and ys, at least one")
        if self.errs and len(self.errs) != len(self.xs):
            raise ValueError("error bars must match the number of points")


@dataclass(frozen=True)
class AxesSpec:
    x_label: str = "n"
    y_label: str = "estimate"
    title: str = ""
    x_scale: str = "linear"  # or "log"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    d = math.floor(math.log10(lo))
    while 10.0**d <= hi * (1 + 1e-9):
        for mult in (1.0, 2.0, 5.0):
            v = mult * 10.0**d
            if lo * (1 - 1e-9) <= v <= hi * (1 + 1e-9):
                ticks.append(v)
        d += 1
    return ticks or [lo, hi]


def _tick_label(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:g}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def render_line_chart(series: list[Series], axes: AxesSpec = AxesSpec()) -> str:
    """Assemble the SVG document; byte-identical for identical input."""
    if not series:
        raise ValueError("need at least one series")
    log_x = axes.x_scale == "log"
    xs_all = [x for s in series for x in s.xs]
    if log_x and min(xs_all) <= 0.0:
        raise ValueError("log x axis needs positive x values")

    x_lo, x_hi = min(xs_all), max(xs_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = 0.0, 1.0  # the y axis shows probabilities

    def tx(x: float) -> float:
        if log_x:
            f = (math.log(x) - math.log(x_lo)) / (math.log(x_hi) - math.log(x_lo))
        else:
            f = (x - x_lo) / (x_hi - x_lo)
        return MARGIN_L + f * (WIDTH - MARGIN_L - MARGIN_R)

    def ty(y: float) -> float:
        f = (y - y_lo) / (y_hi - y_lo)
        return HEIGHT - MARGIN_B - f * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" '
        f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
        f'<rect width="{WIDTH:g}" height="{HEIGHT:g}" fill="white"/>',
    ]
    if axes.title:
        parts.append(
            f'<text x="{WIDTH / 2:g}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_escape(axes.title)}</text>'
        )

    # axes frame
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    parts.append(
        f'<path d="M {_fmt(x0)} {_fmt(y1)} L {_fmt(x0)} {_fmt(y0)} '
        f'L {_fmt(x1)} {_fmt(y0)}" fill="none" stroke="black" stroke-width="1"/>'
    )

    x_ticks = _log_ticks(x_lo, x_hi) if log_x else _nice_ticks(x_lo, x_hi)
    for t in x_ticks:
        px = tx(t)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(y0 + 5)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0 + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        py = ty(t)
        parts.append(
            f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" '
            f'y2="{_fmt(py)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
        )
    parts.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(HEIGHT - 10)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"{_escape(axes.x_label)}</text>"
    )
    parts.append(
        f'<text x="16" y="{_fmt((y0 + y1) / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_fmt((y0 + y1) / 2)})">'
        f"{_escape(axes.y_label)}</text>"
    )

    # series
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in zip(s.xs, s.ys))
        if s.errs:
            for x, y, e in zip(s.xs, s.ys, s.errs):
                if e <= 0.0:
                    continue
                px = tx(x)
                parts.append(
                    f'<line x1="{_fmt(px)}" y1="{_fmt(ty(y - e))}" '
                    f'x2="{_fmt(px)}" y2="{_fmt(ty(y + e))}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
                for yy in (y - e, y + e):
                    parts.append(
                        f'<line x1="{_fmt(px - 3)}" y1="{_fmt(ty(yy))}" '
                        f'x2="{_fmt(px + 3)}" y2="{_fmt(ty(yy))}" '
                        f'stroke="{color}" stroke-width="1"/>'
                    )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        for x, y in zip(s.xs, s.ys):
            parts.append(
                f'<circle cx="{_fmt(tx(x))}" cy="{_fmt(ty(y))}" r="2.5" '
                f'fill="{color}"/>'
            )

    # legend, top-left inside the frame
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        ly = MARGIN_T + 14 + 16 * i
        parts.append(
            f'<line x1="{_fmt(x0 + 10)}" y1="{_fmt(ly - 4)}" '
            f'x2="{_fmt(x0 + 34)}" y2="{_fmt(ly - 4)}" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 + 40)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="12">{_escape(s.name)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
