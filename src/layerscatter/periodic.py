"""Identical equidistant barriers: closed-form prefix amplitudes and the
Bloch-phase band structure of the corresponding infinite lattice.

The per-period transfer matrix has unit determinant and trace
2 cos(beta); Chebyshev-type identities then give (1/T_n, R_n/T_n) for
any n in closed form, with sin(n beta)/sin(beta) switching to sinh
ratios inside forbidden bands.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .amplitudes import _factored_barrier
from .structure import (
    LayeredStructure,
    branch_sqrt,
    check_domain,
    check_energy,
    degenerate_energies,
    off_degenerate,
)

EDGE_TOL = 1e-12
EDGE_XTOL = 1e-10  # energy tolerance of the bisected band edges
ENERGY_FLOOR = 1e-6  # band scans start here: below 0 the gap wave is evanescent
_LEVELS = 5  # halvings that one array evaluation of _bisect covers
# 2^(_LEVELS - 1 - l) for each of the 2^l midpoints of level l, l = 0.._LEVELS - 1
_LEVEL_SCALE = np.repeat(2.0 ** np.arange(_LEVELS - 1, -1, -1), 2 ** np.arange(_LEVELS))
LABELS = ("forbidden", "allowed", "edge")  # the band label of each _classify code


class BandEdgeError(ArithmeticError):
    """Closed form is indeterminate exactly at a band edge (sin beta = 0)."""


@dataclass(frozen=True)
class PeriodicLattice:
    """count identical barriers of height/width at spacing period, the first
    centred at first_center; all four, and the :attr:`span` they make, lie in
    the structure's domain."""

    barrier_height: float
    barrier_width: float
    period: float
    count: int = 1
    first_center: float | None = None  # default: half a period in

    def __post_init__(self):
        if self.first_center is None:
            object.__setattr__(self, "first_center", self.period / 2.0)
        check_domain(("barrier height", self.barrier_height),
                     ("barrier width", self.barrier_width), ("period", self.period),
                     ("first_center", self.first_center))
        if self.period < self.barrier_width:
            raise ValueError("period must be >= barrier width")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        check_domain(("span 2 first_center + (count - 1) period", self.span))

    @property
    def span(self) -> float:
        """Span of :meth:`to_structure`: the last barrier's centre plus the
        first barrier's centre."""
        x1, width = self.first_center, self.barrier_width
        return float(x1 + (self.count - 1) * self.period + width / 2.0 + (x1 - width / 2.0))

    def to_structure(self, v_left: float = 0.0, v_right: float = 0.0) -> LayeredStructure:
        """Explicit structure with symmetric (period-width)/2 outer margins."""
        count = operator.index(self.count)
        arrays = np.empty((3, count))
        arrays[0], arrays[1] = self.barrier_height, self.barrier_width
        arrays[2] = self.first_center + np.arange(count) * self.period
        return LayeredStructure(v_left, v_right, self.span, arrays)

    @cached_property
    def cell(self) -> LayeredStructure:
        """One period: the first barrier alone, between the outer margins."""
        return replace(self, count=1).to_structure()


@dataclass(frozen=True)
class BlochPhase:
    energy: float
    cos_beta: float
    beta: complex
    classification: str  # "allowed" | "forbidden" | "edge"


@dataclass(frozen=True)
class BandTable:
    """Band-scan result: samples with the :data:`LABELS` code of each,
    refined edges, and the grid's skipped points.  ``classification`` and
    ``intervals`` are built on first read, from these fields alone."""

    lattice: PeriodicLattice
    energies: np.ndarray
    cos_beta: np.ndarray
    codes: np.ndarray  # _classify's code of each cos beta
    edges: tuple
    skipped: tuple     # grid energies skipped for k=0 degeneracy
    grid_ends: tuple   # the grid's first and last energy

    @cached_property
    def classification(self) -> tuple:
        """The label of each sample, "allowed" | "forbidden" | "edge"."""
        return tuple(map(LABELS.__getitem__, self.codes.tolist()))

    @cached_property
    def intervals(self) -> tuple:
        """(lo, hi, "allowed"|"forbidden") between the grid's ends and the
        edges, each labelled by cos beta at its midpoint."""
        bounds = np.array([self.grid_ends[0], *self.edges, self.grid_ends[1]])
        lo, hi = bounds[:-1], bounds[1:]
        keep = hi - lo > 0
        lo, hi = lo[keep], hi[keep]
        codes = _classify(_scan_cos_beta(self.lattice, 0.5 * (lo + hi)))
        return tuple(zip(lo.tolist(), hi.tolist(), map(LABELS.__getitem__, codes.tolist())))


def _pieces(lat: PeriodicLattice, energy):
    """(k0, m, c, B s) of the lattice's barrier from ``_factored_barrier``,
    elementwise over ``energy``, which it does not check."""
    e = np.asarray(energy, dtype=float)
    k0 = np.sqrt(e)  # real at every admitted energy
    return k0, *_factored_barrier(k0, branch_sqrt(e - lat.barrier_height), lat.barrier_width)


def _period(lat: PeriodicLattice, energy):
    """(e^{-i k0 a}/t, r/t, k0) of the lattice's first barrier for waves from
    origin 0, elementwise over ``energy``: with g = a - d, e^{-i k0 a}/t =
    e^m e^{-i k0 g} c and r/t = e^m i e^{2 i k0 x1} B s from :func:`_pieces`.
    Either is inf or nan where e^m overflows, in a thick evanescent barrier.
    """
    k0, m, c, bs = _pieces(lat, energy)
    with np.errstate(over="ignore", invalid="ignore"):
        em = np.exp(m)
        gamma = em * (np.exp(-1j * k0 * (lat.period - lat.barrier_width)) * c)
        return gamma, em * (1j * np.exp(2j * k0 * lat.first_center) * bs), k0


def _cos_beta(lat: PeriodicLattice, energy):
    """Half the trace of one period's transfer matrix, Re(e^{-i k0 a}/t) =
    e^m (cos(k0 g) Re c + sin(k0 g) Im c), elementwise over ``energy``.  Where
    e^m overflows it is the ±inf signed by the finite factor, even where that is ±0.
    """
    k0, m, c, _ = _pieces(lat, energy)
    k0g = k0 * (lat.period - lat.barrier_width)
    scaled = np.cos(k0g) * c.real + np.sin(k0g) * c.imag
    with np.errstate(over="ignore", invalid="ignore"):
        cos_beta = np.exp(m) * scaled
    inf_times_zero = np.isnan(cos_beta)
    if inf_times_zero.any():
        cos_beta = np.where(inf_times_zero, np.copysign(np.inf, scaled), cos_beta)
    return cos_beta


def _scan_cos_beta(lat: PeriodicLattice, energy):
    """:func:`_cos_beta` at each energy moved off k = 0, where it is
    continuous: every energy a band scan evaluates."""
    return _cos_beta(lat, off_degenerate(lat.cell, energy, 1e-12))


def _classify(cos_beta):
    """The :data:`LABELS` code of each cos beta, an int array: 2 (edge) where
    ||cos beta| - 1| < EDGE_TOL, else 1 (allowed) where |cos beta| <= 1, else
    0 (forbidden); NaN is forbidden."""
    mag = np.abs(cos_beta)
    return np.where(np.abs(mag - 1.0) < EDGE_TOL, 2, mag <= 1.0)


def bloch_phase(lat: PeriodicLattice, energy: float) -> BlochPhase:
    """Per-period Bloch phase beta and allowed/forbidden classification.

    beta is real in [0, pi] in allowed bands; in forbidden bands it is
    i*arccosh(|cos beta|), plus a real part pi when cos beta < -1.
    Raises what :func:`check_energy` raises for an energy it does not admit.
    """
    check_energy(lat.cell, energy)
    c = float(_cos_beta(lat, energy))
    label = LABELS[_classify(c)]
    if label == "edge":
        beta = complex(0.0 if c > 0 else math.pi, 0.0)
    elif label == "allowed":
        beta = complex(math.acos(c), 0.0)
    elif c > 1.0:
        beta = complex(0.0, math.acosh(c))
    else:
        beta = complex(math.pi, math.acosh(-c))
    return BlochPhase(energy, c, beta, label)


def _chebyshev_pair(phase: BlochPhase, n: int):
    """(cos(n*beta), sin(n*beta)/sin(beta)) without cancellation.

    Forbidden bands use cosh/sinh directly so no large complex
    exponentials nearly cancel.
    """
    c = phase.cos_beta
    if phase.classification == "edge":
        raise BandEdgeError(f"band edge at energy {phase.energy}: sin(beta) = 0")
    if abs(c) <= 1.0:
        beta = phase.beta.real
        return math.cos(n * beta), math.sin(n * beta) / math.sin(beta)
    g = phase.beta.imag
    if c > 1.0:
        return math.cosh(n * g), math.sinh(n * g) / math.sinh(g)
    # beta = pi + i g: cos(n beta) = (-1)^n cosh(n g),
    # sin(n beta)/sin(beta) = (-1)^{n+1} sinh(n g)/sinh(g)
    sign = 1.0 if n % 2 == 0 else -1.0
    return sign * math.cosh(n * g), -sign * math.sinh(n * g) / math.sinh(g)


def closed_form_prefix(lat: PeriodicLattice, energy: float, n: int):
    """(1/T_n, R_n/T_n) for the first n barriers, in closed form.

    Refuses at band edges; the star products of
    :func:`~layerscatter.amplitudes.prefix_by_recurrence` have no
    singularity there and should be used instead.  Deep in a forbidden
    band, where a part of either passes the largest double, it is returned
    as inf + inf j, its phase lost.  T_n is then below 1e-308, or at most a
    few periods short of it: sinh(n Im beta)/sinh(Im beta) can overflow
    before |1/T_n| does.
    """
    phase = bloch_phase(lat, energy)
    gamma, r_over_t1, k0 = _period(lat, energy)
    if not cmath.isfinite(gamma):  # one period's t underflowed, and so does T_n
        return (complex(math.inf, math.inf),) * 2
    try:
        cos_n, ratio = _chebyshev_pair(phase, n)
    except OverflowError:  # cosh(n Im beta), and with it |1/T_n|
        cos_n = ratio = math.inf
    k0a = k0 * lat.period
    inv_t = cmath.exp(1j * k0a * n) * (cos_n + 1j * gamma.imag * ratio)
    r_over_t = cmath.exp(1j * k0a * (n - 1)) * r_over_t1 * ratio
    # a non-finite part, nan included, comes from a part past the largest double
    return tuple(z if cmath.isfinite(z) else complex(math.inf, math.inf)
                 for z in (inv_t, r_over_t))


def decay_rate(lat: PeriodicLattice, energy: float) -> float:
    """Per-period decay exponent of |T_n|^2 in a forbidden band: 2*Im(beta)."""
    phase = bloch_phase(lat, energy)
    return 2.0 * phase.beta.imag


def _bisect(fun, lo, hi, sign_lo) -> np.ndarray:
    """Roots of ``fun`` in every bracket [lo, hi] at once, down to
    ``EDGE_XTOL``, ``sign_lo`` the sign of ``fun`` at each lo.

    Takes the steps of scipy.optimize.bisect (its default rtol of four
    machine epsilons included), bit for bit, ``_LEVELS`` halvings per array
    evaluation.  ``fun`` runs once on the 2^_LEVELS - 1 midpoints that the
    next ``_LEVELS`` halvings of each open bracket can reach, each built as
    bisection builds it: xa + dm 2^-l, xa the bracket's lower end on the path
    to it.  Each bracket then follows its own path through them in Python,
    and stops where bisection's own test first holds.  ``fun`` is elementwise
    and is called with a 2-D array.
    """
    rtol = 4.0 * np.finfo(float).eps
    roots = np.empty(len(lo))
    todo = list(range(len(lo)))
    xa, dm = lo, hi - lo
    while todo:
        # starts holds xa and then the midpoints of each halving l = 0, 1, ...,
        # 2^l of them at columns 2^l to 2^(l+1) - 1.  Midpoint j of halving l lies
        # above column j, the lower end on the path that took the upper half at
        # each 1 bit of j, and is itself the lower end on path j + 2^l.
        starts = xa[:, None]
        for _ in range(_LEVELS):
            dm = 0.5 * dm
            starts = np.concatenate((starts, starts + dm[:, None]), axis=1)
        xm = starts[:, 1:]
        fm = fun(xm)
        upper = (np.sign(fm) * sign_lo[:, None] >= 0.0).tolist()
        # dm at level l is the last dm times 2^(_LEVELS - 1 - l), exactly
        small = np.abs(dm[:, None] * _LEVEL_SCALE) < EDGE_XTOL + rtol * np.abs(xm)
        done = ((fm == 0.0) | small).tolist()
        xm = xm.tolist()
        keep, ends = [], []
        for b, (up, stop) in enumerate(zip(upper, done)):
            j = 0
            for level in range(_LEVELS):
                k = (1 << level) - 1 + j
                if stop[k]:
                    roots[todo[b]] = xm[b][k]
                    break
                j += up[k] << level
            else:
                keep.append(b)
                ends.append(j)
        todo = [todo[b] for b in keep]
        xa, dm, sign_lo = starts[keep, ends], dm[keep], sign_lo[keep]
    return roots


def band_scan(
    lat: PeriodicLattice,
    e_min: float,
    e_max: float,
    points: int,
) -> BandTable:
    """Classify [e_min, e_max] into allowed/forbidden intervals.

    Scans ``np.linspace(e_min, e_max, points)``, as ``sweep`` lays out its
    energies, then bisects every sign change of |cos beta| - 1 down to
    ``EDGE_XTOL`` in energy.  A grid step whose ends are both forbidden but
    whose cos beta changes sign holds an allowed band unless that band is
    narrower than ``EDGE_XTOL``: cos beta itself is bisected there, and a
    root with |cos beta| <= 1 splits the step into two brackets of edges.
    Both bisections take scipy.optimize.bisect's midpoints, five halvings per
    array evaluation of cos beta (:func:`_bisect`): about six evaluations
    for a scan's edges, where one per halving took about 25.
    Refuses, with a ValueError, an e_min or e_max outside the structure's
    domain (:func:`~layerscatter.structure.domain_error`).  Negative energies
    carry no propagating gap wave, so e_min is then raised to
    ``ENERGY_FLOOR``; e_min >= e_max and fewer than 2 points are refused
    too.  The scan's energies are then at or above ``ENERGY_FLOOR``, moved off
    k = 0 and, on a cell with v_left = 0, propagating, and the domain leaves
    nothing to overflow, so they are not checked again.  The table holds
    each sample's :data:`LABELS` code; its labels and intervals are built
    only when read.
    """
    check_domain(("e_min", e_min), ("e_max", e_max))
    e_min = max(e_min, ENERGY_FLOOR)
    if e_min >= e_max:
        raise ValueError(f"need e_min < e_max, and e_max above {ENERGY_FLOOR}")
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    grid = np.linspace(e_min, e_max, points)
    degenerate = degenerate_energies(lat.cell, grid)
    energies = grid[~degenerate]

    # Every point, grid, bisected or interval midpoint, lies at or above
    # ENERGY_FLOOR.  Skipped grid points still bracket edges, so an edge
    # next to one is not lost.
    cos_beta = partial(_scan_cos_beta, lat)
    values = cos_beta(grid)
    f = np.abs(values) - 1.0
    # An edge at every grid zero of f, and one bisected inside every sign change.
    crossing = np.flatnonzero((f[:-1] == 0.0) | (np.sign(f[:-1]) * np.sign(f[1:]) < 0.0))
    inside = f[crossing] != 0.0
    i = crossing[inside]
    lo, hi, sign_lo = grid[i], grid[i + 1], np.sign(f[i])
    narrow = np.flatnonzero((f[:-1] > 0.0) & (f[1:] > 0.0)
                            & (np.sign(values[:-1]) * np.sign(values[1:]) < 0.0))
    if narrow.size:
        mid = _bisect(cos_beta, grid[narrow], grid[narrow + 1],
                      np.sign(values[narrow]))
        band = np.abs(cos_beta(mid)) <= 1.0
        j, mid = narrow[band], mid[band]
        # f > 0 at both ends of the step and <= 0 at mid
        lo = np.concatenate((lo, grid[j], mid))
        hi = np.concatenate((hi, mid, grid[j + 1]))
        sign_lo = np.concatenate((sign_lo, np.ones(j.size), -np.ones(j.size)))
    roots = _bisect(lambda e: np.abs(cos_beta(e)) - 1.0, lo, hi, sign_lo)
    edges = np.sort(np.concatenate((grid[crossing[~inside]], roots))).tolist()
    if f[-1] == 0.0:
        edges.append(float(grid[-1]))

    return BandTable(
        lattice=lat,
        energies=energies,
        cos_beta=values[~degenerate],
        codes=_classify(values[~degenerate]),
        edges=tuple(edges),
        skipped=tuple(grid[degenerate].tolist()),
        grid_ends=(float(grid[0]), float(grid[-1])),
    )
