"""One-dimensional error laws and reproducible random streams.

The error model mixes a smooth background law with a contaminant: each
coordinate follows ``beta * xi + (1 - beta) * zeta`` for a contamination
level ``beta`` in [0, 1].  The background ``zeta`` is standard normal
throughout; the contaminant ``xi`` defaults to a mean-zero exponential so
the mixture stays centered at every contamination level.  A component
law carries its support edge: ``shift`` is None for the standard normal,
and the left end of the support for a unit-rate exponential.  Only CDFs
and samplers are exposed: everything downstream works with distribution
functions, not densities.  The mixture draws a stack of replications,
each from its own generator, as one array (``ContaminatedLaw.sample`` is
a stack of one): each generator fills its slices of the stack's buffers,
and the selection and the inverse CDFs run once per stack.

Distances between laws are always taken in the uniform (Kolmogorov) norm
``sup_t |F(t) - G(t)|``: a dense grid on [-20, 20] is scanned in slices of
16 384 points, each law evaluated once per slice, and the grid maximum is
refined by golden section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr


@dataclass(frozen=True)
class ComponentLaw:
    """A pure one-dimensional component law: the standard normal when
    ``shift`` is None, else a unit-rate exponential whose support starts
    at the finite edge ``shift``.

    -0.0 is stored as +0.0, so equal laws give equal row-cache and
    bracket-table keys.
    """

    shift: float | None

    def __post_init__(self):
        if not self.is_gaussian:
            edge = float(self.shift) + 0.0  # folds -0.0 into +0.0
            if not math.isfinite(edge):
                raise ValueError(f"support edge must be finite, got {edge}")
            object.__setattr__(self, "shift", edge)

    @property
    def is_gaussian(self) -> bool:
        return self.shift is None

    def cdf(self, t: float) -> float:
        return float(self.cdf_batch(np.asarray([t], dtype=float))[0])

    def cdf_batch(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.is_gaussian:
            return ndtr(t)
        s = self.shift
        # zero left of the support; a NaN fails the mask and stays NaN
        return -np.expm1(-np.where(t < s, 0.0, t - s))

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return self._from_draws(self._draws(rng, size))

    def _draws(self, rng: np.random.Generator, size=None, out=None):
        """The generator's output that ``_from_draws`` maps to this law:
        standard normals, or uniforms on [0, 1); written into ``out`` when
        it is given."""
        draw = rng.standard_normal if self.is_gaussian else rng.random
        return draw(size, out=out)

    def _from_draws(self, draws):
        if self.is_gaussian:
            return draws
        # inverse CDF: -log(U) - 1 for the centered law, with U flipped to
        # (0, 1] so the log never sees zero
        return -np.log1p(-draws) + self.shift


STANDARD_NORMAL = ComponentLaw(None)
# mean zero, the contaminant of every preset
CENTERED_EXPONENTIAL = ComponentLaw(-1.0)
# literal Exp(1), mean one: the uncentered reading of the contamination
# model, which breaks the mean-zero convention, so nothing selects it
# unless asked (config flag center_xi=false)
STANDARD_EXPONENTIAL = ComponentLaw(0.0)


@dataclass(frozen=True)
class ContaminatedLaw:
    """Two-component mixture ``beta * xi + (1 - beta) * zeta``."""

    beta: float
    xi: ComponentLaw = CENTERED_EXPONENTIAL
    zeta: ComponentLaw = STANDARD_NORMAL

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.xi == self.zeta:
            raise ValueError("contaminant and background must differ")

    def cdf_batch(self, t: np.ndarray) -> np.ndarray:
        return self._mix(self.xi.cdf_batch(t), self.zeta.cdf_batch(t))

    def _mix(self, xi_cdf, zeta_cdf):
        """The mixture CDF from the CDF values of its two components."""
        return self.beta * xi_cdf + (1.0 - self.beta) * zeta_cdf

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """``size`` draws from ``rng``: a stack of one (``_sample_stack``)."""
        return self._sample_stack([rng], tuple(np.atleast_1d(size)))[0]

    def _sample_stack(self, rngs, shape) -> np.ndarray:
        """Draws of shape ``(R,) + shape``, row r drawn by ``rngs[r]``.

        A latent Bernoulli(beta) picks the contaminant.  Each row's
        generator fills its slices of the stack's buffers in a fixed order
        (selector, contaminant, background), so identical streams give
        identical output for every beta.  The selection and each
        component's inverse CDF then run once on the whole stack, each
        inverse CDF only on the coordinates its component supplies.  The
        result does not share a buffer with the selector or contaminant
        fills, so holding it keeps neither alive.

        At beta = 0 the selector, and a contaminant of uniforms, are never
        read: a generator that ``_advances`` is moved past them, one 64-bit
        output per float64, instead of filling them (a Gaussian
        contaminant is still drawn, since its ziggurat takes a varying
        number of outputs).  Every row, and every generator's state after
        the draw, is what the three fills give, bit for bit.
        """
        sel, from_xi = np.empty((2, len(rngs), *shape))
        out = np.empty((len(rngs), *shape))
        zero = self.beta == 0.0
        for rng, s, c, b in zip(rngs, sel, from_xi, out):
            if zero and _advances(rng):
                rng.bit_generator.advance(s.size if self.xi.is_gaussian else s.size + c.size)
                if self.xi.is_gaussian:
                    self.xi._draws(rng, out=c)
            else:
                rng.random(out=s)
                self.xi._draws(rng, out=c)
            self.zeta._draws(rng, out=b)
        if zero:
            return self.zeta._from_draws(out)
        pick_xi = sel < self.beta
        if not self.zeta.is_gaussian:
            keep = np.flatnonzero(~pick_xi)
            np.put(out, keep, self.zeta._from_draws(np.take(out, keep)))
        at = np.flatnonzero(pick_xi)
        np.put(out, at, self.xi._from_draws(np.take(from_xi, at)))
        return out


def _advances(rng: np.random.Generator) -> bool:
    """Whether ``bit_generator.advance`` moves ``rng`` past float64
    uniforms exactly as filling them would: a PCG64 that holds no half of
    a 32-bit draw.  A float64 takes one 64-bit output and leaves that
    buffer alone, where advancing clears it."""
    bits = rng.bit_generator
    if type(bits) is not np.random.PCG64:
        return False
    state = bits.state
    return not (state["has_uint32"] or state["uinteger"])


@dataclass(frozen=True)
class RngStream:
    """Reproducible substream: a pure function of (master_seed, path).

    Streams with equal seed and path are bit-identical; sibling paths are
    statistically independent.  Children extend the path, so replication
    k of scenario s can always be re-derived as child(s, k) no matter
    which worker runs it.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.master_seed}")

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + tuple(indices))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(ss))


def _golden_max(f, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi] (f unimodal there)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


# the scan grid of kolmogorov_distance_univ and _distances_to_background
_SCAN_LO, _SCAN_HI, _SCAN_POINTS = -20.0, 20.0, 200_001
# points per slice of a long vectorized evaluation: _scan and
# pushforward.pure_cdf_batch walk their points in slices of this length, so
# their temporaries stay O(slice), and empirical._corner_counts counts the
# samples of up to this many points as one stacked sample
_SLICE_POINTS = 1 << 14


def _scan(laws, gaps, points: int = _SCAN_POINTS):
    """Grid maxima of gaps between the CDFs of ``laws`` on [-20, 20].

    Walks ``points`` equally spaced points in slices of ``_SLICE_POINTS``;
    each law of ``laws`` is evaluated once per slice, and each function of
    ``gaps`` maps those CDF values to a nonnegative gap on the slice.
    Returns the grid and, for each gap, its grid maximum and the first
    index where it is attained: bit for bit what one whole-array
    evaluation and ``np.argmax`` would give, in O(slice) memory beyond
    the grid itself.
    """
    t = np.linspace(_SCAN_LO, _SCAN_HI, points)
    best = [(-1.0, 0)] * len(gaps)  # (grid maximum, its first index)
    for lo in range(0, t.size, _SLICE_POINTS):
        cdfs = [law.cdf_batch(t[lo:lo + _SLICE_POINTS]) for law in laws]
        for j, gap_of in enumerate(gaps):
            gap = gap_of(*cdfs)
            k = int(np.argmax(gap))
            if gap[k] > best[j][0]:
                best[j] = (float(gap[k]), lo + k)
    return t, best


def kolmogorov_distance_univ(law_a, law_b) -> float:
    """Uniform-norm distance sup_t |F_a(t) - F_b(t)|.

    Sliced scan of 200 001 points over [-20, 20] (``_scan``) followed by
    golden-section refinement in the bracketing cell of the grid argmax.
    Both laws only need a cdf_batch method.  Absolute accuracy is far below
    1e-7 for the laws used here (CDF differences are piecewise smooth with
    O(1) slopes).
    """
    t, [(g, i)] = _scan((law_a, law_b), [lambda fa, fb: np.abs(fa - fb)])
    return _refine(law_a, law_b, t, i, g)


def _refine(law_a, law_b, t: np.ndarray, i: int, best: float) -> float:
    """sup |F_a - F_b| from its grid maximum ``best`` at ``t[i]``, refined
    by golden section in the cell around t[i]."""

    def f(x: float) -> float:
        xv = np.asarray([x], dtype=float)
        return float(abs(law_a.cdf_batch(xv) - law_b.cdf_batch(xv))[0])

    a = t[max(i - 1, 0)]
    b = t[min(i + 1, t.size - 1)]
    _, refined = _golden_max(f, float(a), float(b))
    return max(best, refined)


def _distances_to_background(mixtures) -> list[float]:
    """``kolmogorov_distance_univ(law, law.zeta)`` for each law of
    ``mixtures``, which share one xi and one zeta.

    One scan of the grid serves every law: xi and zeta are evaluated once
    per slice, and each mixture's gap is formed from those values.
    """
    xi, zeta = mixtures[0].xi, mixtures[0].zeta
    if any(law.xi != xi or law.zeta != zeta for law in mixtures):
        raise ValueError("the mixtures must share their contaminant and background")
    gaps = [lambda x, z, law=law: np.abs(law._mix(x, z) - z) for law in mixtures]
    t, best = _scan((xi, zeta), gaps)
    return [_refine(law, zeta, t, i, g) for law, (g, i) in zip(mixtures, best)]
