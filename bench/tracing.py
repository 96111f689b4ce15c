"""In-memory spans around the benchmark's calls into mixident, and their summary.

A span records a name, start, end, its parent span and the traced unit (one
workload pass) it belongs to, plus two integers: ``work`` (points or queries
handled) and ``n`` (sample size, for the empirical layer).  Span names are
``<module>.<operation>``, so a span's module is the part before the first dot.
Spans stay in memory and are written out once, when the run ends.

Two calls happen inside mixident, not in the benchmark: the dominance count
that ``sup_stat`` makes and the pure-assignment kernels that
``mixture_cdf_batch`` sums.  ``instrumented`` swaps in a subclass of the public
``EmpiricalCdf`` and a wrapper of ``pure_cdf_batch`` that open spans and call
the originals unchanged, and restores both on exit.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: int
    work: int
    n: int


class _OpenSpan:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: Span):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> Span:
        t = self.tracer
        self.record.parent = t.open[-1] if t.open else None
        t.open.append(len(t.spans))
        t.spans.append(self.record)
        self.record.start = time.perf_counter()
        return self.record

    def __exit__(self, *exc) -> bool:
        self.record.end = time.perf_counter()
        self.tracer.open.pop()
        return False


class Tracer:
    """Collects spans of one workload; ``unit`` tags the pass being traced."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.open: list[int] = []
        self.unit = 0

    def span(self, name: str, work: int = 0, n: int = 0) -> _OpenSpan:
        return _OpenSpan(self, Span(name, 0.0, 0.0, None, self.unit, work, n))

    def write(self, path) -> None:
        doc = {"workload": self.workload, "spans": [asdict(s) for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


class NullTracer:
    """Tracing off: the same code path, nothing recorded."""

    _ctx = _NoSpan()

    def span(self, name: str, work: int = 0, n: int = 0) -> _NoSpan:
        return self._ctx


NULL = NullTracer()

_KERNEL_LABEL = {True: "N", False: "E"}


@contextmanager
def instrumented(tracer: Tracer):
    """Open spans for the count inside ``sup_stat`` and the kernels inside
    ``mixture_cdf_batch`` while the block runs."""
    import mixident.empirical as empirical
    import mixident.pushforward as pushforward

    original_ecdf = empirical.EmpiricalCdf
    original_pure = pushforward.pure_cdf_batch

    class TracedEmpiricalCdf(original_ecdf):
        def dominance_counts(self, queries):
            with tracer.span("empirical.count", work=len(queries), n=self.n):
                return super().dominance_counts(queries)

    def traced_pure_cdf_batch(m, comps, points, *args, **kwargs):
        label = "".join(_KERNEL_LABEL[c.is_gaussian] for c in comps)
        with tracer.span("pushforward.kernel." + label, work=len(points)):
            return original_pure(m, comps, points, *args, **kwargs)

    empirical.EmpiricalCdf = TracedEmpiricalCdf
    pushforward.pure_cdf_batch = traced_pure_cdf_batch
    try:
        yield
    finally:
        empirical.EmpiricalCdf = original_ecdf
        pushforward.pure_cdf_batch = original_pure


# ---------------------------------------------------------------------------
# summaries

MODULES = (
    "laws", "pushforward", "expansion", "empirical", "montecarlo",
    "limitfield", "checks", "svgplot", "cli",
)

# per-layer timing metric -> span name; "empirical.stat_self_ms" is the self
# time of the sup_stat span, every other timing its full duration
TIMINGS = {
    "laws.kolmogorov_ms": "laws.kolmogorov",
    "pushforward.target_ms": "pushforward.target",
    "pushforward.panel_ms": "pushforward.panel",
    "pushforward.scalar_ms": "pushforward.scalar",
    "expansion.gamma_ms": "expansion.gamma",
    "expansion.sup_gap_ms": "expansion.sup_gap",
    "empirical.draw_ms": "empirical.draw",
    "empirical.grid_ms": "empirical.grid",
    "empirical.count_ms": "empirical.count",
    "empirical.stat_self_ms": "empirical.stat",
    "montecarlo.rep_ms": "montecarlo.rep",
    "montecarlo.scenario_ms": "montecarlo.scenario",
    "montecarlo.estimate_K_ms": "montecarlo.estimate_K",
    "montecarlo.csv_ms": "montecarlo.csv",
    "limitfield.draw_ms": "limitfield.draw",
    "checks.thm31_ms": "checks.thm31",
    "checks.lem33_ms": "checks.lem33",
    "checks.lem35_ms": "checks.lem35",
    "checks.cor34_ms": "checks.cor34",
    "checks.lem32_ms": "checks.lem32",
    "svgplot.render_ms": "svgplot.render",
    "cli.series_ms": "cli.series",
}
KERNELS = ("NN", "EN", "NE", "EE")
SAMPLE_SIZES = (100, 250, 500, 1000, 2000, 3500, 5000, 20000)


def p50_and_tail(values) -> tuple[float, float]:
    """Median and the highest percentile with at least ten samples above it.

    Below twenty samples no percentile above the median qualifies, and the
    median stands in for the tail.
    """
    if not values:
        return 0.0, 0.0
    q = max(0.5, 1.0 - 10.0 / len(values))
    return float(statistics.median(values)), float(np.percentile(values, 100.0 * q))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (the benchmark is single-threaded
    while tracing), so their durations add up to the time they cover.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _per_unit(spans, values, units, pick) -> list[float]:
    totals = {u: 0.0 for u in units}
    for s, v in zip(spans, values):
        if pick(s):
            totals[s.unit] += v
    return [totals[u] for u in units]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer timings (ms), sample counts and per-unit work from spans."""
    spans = tracer.spans
    durs = [s.end - s.start for s in spans]
    selfs = self_times(spans)
    units = sorted({s.unit for s in spans})
    out: dict[str, float] = {}
    for metric, name in TIMINGS.items():
        source = selfs if metric == "empirical.stat_self_ms" else durs
        ms = [1e3 * v for s, v in zip(spans, source) if s.name == name]
        out[metric], out[metric + ".tail"] = p50_and_tail(ms)
        out[metric + ".samples"] = len(ms)
    for kernel in KERNELS:
        name = "pushforward.kernel." + kernel
        per_point = [1e6 * d / s.work for s, d in zip(spans, durs) if s.name == name and s.work]
        out["pushforward.kernel_us_per_point." + kernel] = p50_and_tail(per_point)[0]
    for size in SAMPLE_SIZES:
        for layer in ("grid", "count"):
            ms = [
                1e3 * d for s, d in zip(spans, durs)
                if s.name == f"empirical.{layer}" and s.n == size
            ]
            out[f"empirical.{layer}_ms.n{size}"] = p50_and_tail(ms)[0]
    counts = [(s, d) for s, d in zip(spans, durs) if s.name == "empirical.count"]
    queries = sum(s.work for s, _ in counts)
    out["empirical.count_ns_per_query"] = (
        1e9 * sum(d for _, d in counts) / queries if queries else 0.0
    )
    for module in MODULES:
        per_unit = _per_unit(spans, selfs, units, lambda s: s.name.startswith(module + "."))
        out[module + ".self_ms"] = 1e3 * statistics.median(per_unit) if units else 0.0

    def unit_median(pick, value) -> float:
        per_unit = _per_unit(spans, [value(s) for s in spans], units, pick)
        return float(statistics.median(per_unit)) if units else 0.0

    out["montecarlo.reps"] = unit_median(
        lambda s: s.name in ("montecarlo.rep", "limitfield.draw"), lambda s: 1
    )
    out["empirical.query_points"] = unit_median(
        lambda s: s.name == "empirical.count", lambda s: s.work
    )
    out["pushforward.points"] = unit_median(
        lambda s: s.name in ("pushforward.target", "pushforward.panel", "pushforward.scalar"),
        lambda s: s.work,
    )
    return out
