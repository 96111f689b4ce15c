"""Executable numerical checks of the theory behind the laboratory.

Each check measures concrete quantities on finite grids and compares them
against the thresholds in the central tolerance table; a report says what
was measured, what was required, and whether everything passed.  Check
ids double as CLI tokens, so they are short and stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expansion import (
    DEFAULT_MEASURE,
    P_DIM,
    EvalGrid,
    gamma_from_fields,
    rate_constant_from_fields,
    sup_gap_from_fields,
    sup_on_grid,
)
from .laws import ContaminatedLaw, _distances_to_background, _scan
from .pushforward import PureFields, as_matrix, equal_product_pair

# central tolerance table; acceptance criteria cite these entries
TOLERANCES = {
    "thm31.ratio_lo": 0.35,
    "thm31.ratio_hi": 0.65,
    "lem33.first_order_bound": 2.0 * P_DIM,
    "lem33.single_term_bound": 2.0,
    "lem35.null_gap": 1e-7,
    "lem35.contaminated_gap_min": 1e-4,
    "cor34.stability_rel": 0.05,
    "cor34.match_rel": 0.05,
    "lem32.linearity": 1e-6,
    "lem32.direction": 1e-9,
}


@dataclass(frozen=True)
class CheckRow:
    """One measured quantity against one threshold."""

    quantity: str
    value: float
    comparator: str  # "<=", ">=", or "in" (value within [lo, hi])
    threshold: object
    ok: bool


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def _le(quantity: str, value: float, threshold: float) -> CheckRow:
    return CheckRow(quantity, float(value), "<=", threshold, value <= threshold)


def _ge(quantity: str, value: float, threshold: float) -> CheckRow:
    return CheckRow(quantity, float(value), ">=", threshold, value >= threshold)


def _within(quantity: str, value: float, lo: float, hi: float) -> CheckRow:
    return CheckRow(quantity, float(value), "in", (lo, hi), lo <= value <= hi)


# every check runs on the worked pair, the default measure and the 101x101
# tensor grid; lem33 adds ten random matrices drawn from this seed
LEM33_SEED = 20260819


def _fields(m) -> PureFields:
    points = EvalGrid.tensor().points
    return PureFields(m, points, DEFAULT_MEASURE.xi, DEFAULT_MEASURE.zeta)


# ---------------------------------------------------------------------------
# individual checks


def check_thm31() -> CheckReport:
    """First-order convergence of the contamination expansion.

    The deviation between the finite-level slope (F_beta - F_0)/(beta c)
    and the first-order field shrinks linearly in beta: halving beta
    should roughly halve the grid sup, and the raw gap F_beta - F_0 must
    shrink monotonically.
    """
    c = DEFAULT_MEASURE.norm_c
    fields = _fields(equal_product_pair(0.4)[0])
    base = fields.mixture(0.0)
    first = gamma_from_fields(fields, 1)
    betas = (0.02, 0.01, 0.005)
    devs = []
    raw_gaps = []
    for beta in betas:
        fb = fields.mixture(beta)
        devs.append(float(np.max(np.abs((fb - base) / (beta * c) - first))))
        raw_gaps.append(float(np.max(np.abs(fb - base))))
    lo, hi = TOLERANCES["thm31.ratio_lo"], TOLERANCES["thm31.ratio_hi"]
    rows = [
        _within("halving_ratio_002_001", devs[1] / devs[0], lo, hi),
        _within("halving_ratio_001_0005", devs[2] / devs[1], lo, hi),
        _le("raw_gap_decreases_1", raw_gaps[1], raw_gaps[0]),
        _le("raw_gap_decreases_2", raw_gaps[2], raw_gaps[1]),
    ]
    return CheckReport("thm31", tuple(rows))


def check_lem33_lemA1() -> CheckReport:
    """Norm bounds for the first-order field and its single placements."""
    rng = np.random.default_rng(LEM33_SEED)
    matrices = list(equal_product_pair(0.4))
    while len(matrices) < 12:
        a = rng.normal(size=(2, 2))
        if abs(np.linalg.det(a)) > 0.05:
            matrices.append(as_matrix(a))
    worst_field = 0.0
    worst_single = 0.0
    c = DEFAULT_MEASURE.norm_c
    for m in matrices:
        fields = _fields(m)
        worst_field = max(worst_field, sup_on_grid(gamma_from_fields(fields, 1)))
        # single placements: contaminant on one coordinate (rows EN, NE)
        for a in (1, 2):
            term = (fields.row(a) - fields.row(0)) / c
            worst_single = max(worst_single, sup_on_grid(term))
    rows = [
        _le("first_order_sup", worst_field, TOLERANCES["lem33.first_order_bound"]),
        _le("single_term_sup", worst_single, TOLERANCES["lem33.single_term_bound"]),
    ]
    return CheckReport("lem33", tuple(rows))


def check_lem35() -> CheckReport:
    """Second-moment identifiability and its contaminated failure.

    Matrices with equal transpose products give identical models at level
    zero; strictly positive contamination separates them.  A column
    permutation never separates anything (i.i.d. coordinates).
    """
    m_a, m_b = equal_product_pair(0.4)
    product_gap = float(np.max(np.abs(m_a.aat() - m_b.aat())))
    fa, fb = _fields(m_a), _fields(m_b)
    swapped = _fields(m_a.as_array()[:, ::-1])
    null_gap = sup_gap_from_fields(fa, fb, 0.0)
    cont_gap = sup_gap_from_fields(fa, fb, 0.5)
    perm_gap = sup_gap_from_fields(fa, swapped, 0.5)
    tol = TOLERANCES["lem35.null_gap"]
    rows = [
        _le("transpose_product_gap", product_gap, 1e-12),
        _le("null_level_gap", null_gap, tol),
        _ge("contaminated_gap", cont_gap, TOLERANCES["lem35.contaminated_gap_min"]),
        _le("permutation_gap", perm_gap, tol),
    ]
    return CheckReport("lem35", tuple(rows))


def check_cor34() -> CheckReport:
    """Linear small-level divergence rate and its bound.

    The ratio r(beta) = sup-grid |F_A - F_B| / beta is nearly constant in
    beta and matches the first-order prediction K of ``estimate_K``; the
    same finite-grid convention is used on both sides so the comparison
    tests linearity, not grid resolution.  The rate never exceeds 4 p
    norm_c.
    """
    fa, fb = (_fields(m) for m in equal_product_pair(0.4))
    r1 = sup_gap_from_fields(fa, fb, 0.01) / 0.01
    r2 = sup_gap_from_fields(fa, fb, 0.005) / 0.005
    k_const = rate_constant_from_fields(fa, fb)
    rate_bound = 4.0 * P_DIM * DEFAULT_MEASURE.norm_c
    rows = [
        _le("stability_rel", abs(r1 - r2) / max(r1, 1e-300), TOLERANCES["cor34.stability_rel"]),
        _le("match_rel", abs(r2 - k_const) / max(k_const, 1e-300), TOLERANCES["cor34.match_rel"]),
        _le("rate_at_0.01", r1, rate_bound),
        _le("rate_at_0.005", r2, rate_bound),
    ]
    return CheckReport("cor34", tuple(rows))


def check_lem32() -> CheckReport:
    """Distance properties along the contamination segment.

    The mixture's distance to the background grows exactly linearly in
    the level, and the normalized direction of the difference never
    changes along the segment.
    """
    xi, zeta = DEFAULT_MEASURE.xi, DEFAULT_MEASURE.zeta
    levels = [ContaminatedLaw(beta, xi, zeta) for beta in (0.0, 0.1, 0.3, 0.7)]
    laws = levels[1:]
    # kolmogorov_distance_univ(law, zeta) at each level; norm_c is the one
    # of xi itself
    zero_dist, *dists = _distances_to_background(levels)
    worst_lin = max(
        abs(d - law.beta * DEFAULT_MEASURE.norm_c) for law, d in zip(laws, dists)
    )
    # |(F_beta - F_zeta) / beta - (F_xi - F_zeta)| on a 100 001-point grid
    _, best = _scan(
        (xi, zeta),
        [lambda x, z, law=law: np.abs((law._mix(x, z) - z) / law.beta - (x - z)) for law in laws],
        points=100_001,
    )
    worst_dir = max(g for g, _ in best)
    rows = [
        _le("linearity_gap", worst_lin, TOLERANCES["lem32.linearity"]),
        _le("direction_gap", worst_dir, TOLERANCES["lem32.direction"]),
        _le("zero_level_distance", zero_dist, 0.0),
    ]
    return CheckReport("lem32", tuple(rows))


# ---------------------------------------------------------------------------
# suite

CHECK_IDS = ("thm31", "lem33", "lem35", "cor34", "lem32")

_RUNNERS = {
    "thm31": check_thm31,
    "lem33": check_lem33_lemA1,
    "lem35": check_lem35,
    "cor34": check_cor34,
    "lem32": check_lem32,
}


def run_checks(which: str = "all") -> list[CheckReport]:
    """Run one named check or the whole suite."""
    if which == "all":
        return [_RUNNERS[cid]() for cid in CHECK_IDS]
    if which not in _RUNNERS:
        raise ValueError(f"unknown check {which!r}; know {', '.join(CHECK_IDS)}")
    return [_RUNNERS[which]()]


def reports_csv_lines(reports: list[CheckReport], metadata: dict | None = None) -> list[str]:
    lines = [f"# {k}: {v}" for k, v in (metadata or {}).items()]
    lines.append("check,quantity,value,comparator,threshold,ok")
    for rep in reports:
        for row in rep.rows:
            thr = row.threshold
            thr_txt = (
                f"[{thr[0]:g};{thr[1]:g}]" if isinstance(thr, tuple) else repr(float(thr))
            )
            lines.append(
                ",".join(
                    [
                        rep.check_id,
                        row.quantity,
                        repr(row.value),
                        row.comparator,
                        thr_txt,
                        "1" if row.ok else "0",
                    ]
                )
            )
    return lines
