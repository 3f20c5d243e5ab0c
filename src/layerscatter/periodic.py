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
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .amplitudes import all_barrier_amplitudes
from .structure import (
    Barrier,
    LayeredStructure,
    check_energy,
    compute_wavenumbers,
    degenerate_energies,
)

EDGE_TOL = 1e-12
EDGE_XTOL = 1e-10  # energy tolerance of the bisected band edges
ENERGY_FLOOR = 1e-6  # band scans start here: below 0 the gap wave is evanescent


class BandEdgeError(ArithmeticError):
    """Closed form is indeterminate exactly at a band edge (sin beta = 0)."""


@dataclass(frozen=True)
class PeriodicLattice:
    """count identical barriers of height/width at spacing period."""

    barrier_height: float
    barrier_width: float
    period: float
    count: int = 1
    first_center: float | None = None  # default: half a period in

    def __post_init__(self):
        if self.period < self.barrier_width:
            raise ValueError("period must be >= barrier width")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.first_center is None:
            object.__setattr__(self, "first_center", self.period / 2.0)

    def to_structure(self, v_left: float = 0.0, v_right: float = 0.0) -> LayeredStructure:
        """Explicit structure with symmetric (period-width)/2 outer margins."""
        x1 = self.first_center
        barriers = tuple(
            Barrier(self.barrier_height, self.barrier_width, x1 + n * self.period)
            for n in range(self.count)
        )
        span = barriers[-1].right_edge + (x1 - self.barrier_width / 2.0)
        return LayeredStructure(v_left, v_right, span, barriers)

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
    """Band-scan result: samples, refined edges, and labeled intervals."""

    energies: np.ndarray
    cos_beta: np.ndarray
    classification: tuple
    edges: tuple
    intervals: tuple  # (lo, hi, "allowed"|"forbidden")
    skipped: tuple    # grid energies skipped for k=0 degeneracy


def _period(lat: PeriodicLattice, energy):
    """(e^{-i k0 a}/t, r/t, k0) of the lattice's first barrier, elementwise
    over ``energy``; cos beta is the real part of the first.

    Raises what :func:`check_energy` raises for an energy it does not
    admit, and FloatingPointError where t underflows inside a thick
    evanescent barrier.
    """
    w = compute_wavenumbers(lat.cell, energy)
    check_energy(lat.cell, energy)
    t, r = (x[..., 0] for x in all_barrier_amplitudes(w, lat.cell))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        return np.exp(-1j * w.k_gap * lat.period) / t, r / t, w.k_gap


def _cos_beta(lat: PeriodicLattice, energy):
    """Half the trace of one period's transfer matrix, Re(e^{-i k0 a}/t),
    elementwise over ``energy``."""
    return _period(lat, energy)[0].real


def _off_degenerate(lat: PeriodicLattice, e: np.ndarray, nudge: float) -> np.ndarray:
    """``e`` with every degenerate point moved up by ``nudge``; cos beta is
    continuous there."""
    return np.where(degenerate_energies(lat.cell, e), e + nudge, e)


def _classify(cos_beta, edge_tol: float = EDGE_TOL):
    """"edge", "allowed" or "forbidden" for each cos beta."""
    mag = np.abs(cos_beta)
    return np.where(np.abs(mag - 1.0) < edge_tol, "edge",
                    np.where(mag <= 1.0, "allowed", "forbidden"))


def bloch_phase(lat: PeriodicLattice, energy: float, edge_tol: float = EDGE_TOL) -> BlochPhase:
    """Per-period Bloch phase beta and allowed/forbidden classification.

    beta is real in [0, pi] in allowed bands; in forbidden bands it is
    i*arccosh(|cos beta|), plus a real part pi when cos beta < -1.
    """
    return _phase(energy, float(_cos_beta(lat, energy)), edge_tol)


def _phase(energy: float, c: float, edge_tol: float = EDGE_TOL) -> BlochPhase:
    """The :class:`BlochPhase` of cos beta = ``c``."""
    label = str(_classify(c, edge_tol))
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

    Refuses at band edges; the recurrence path has no singularity there
    and should be used instead.
    """
    gamma, r_over_t1, k0 = _period(lat, energy)
    cos_n, ratio = _chebyshev_pair(_phase(energy, float(gamma.real)), n)
    k0a = k0 * lat.period
    inv_t = cmath.exp(1j * k0a * n) * (cos_n + 1j * gamma.imag * ratio)
    r_over_t = cmath.exp(1j * k0a * (n - 1)) * r_over_t1 * ratio
    return inv_t, r_over_t


def decay_rate(lat: PeriodicLattice, energy: float) -> float:
    """Per-period decay exponent of |T_n|^2 in a forbidden band: 2*Im(beta)."""
    phase = bloch_phase(lat, energy)
    return 2.0 * phase.beta.imag


def _bisect_edges(lat: PeriodicLattice, lo, hi, f_lo, xtol: float) -> np.ndarray:
    """Roots of |cos beta| - 1 in every bracket [lo, hi] at once.

    Takes the steps of scipy.optimize.bisect (its default rtol of four
    machine epsilons included), one array evaluation per halving.
    """
    rtol = 4.0 * np.finfo(float).eps
    roots = np.empty(len(lo))
    todo = np.arange(len(lo))
    xa, dm, sign_a = lo, hi - lo, np.sign(f_lo)
    while todo.size:
        dm = 0.5 * dm
        xm = xa + dm
        fm = np.abs(_cos_beta(lat, _off_degenerate(lat, xm, 1e-12))) - 1.0
        xa = np.where(np.sign(fm) * sign_a >= 0.0, xm, xa)
        done = (fm == 0.0) | (np.abs(dm) < xtol + rtol * np.abs(xm))
        roots[todo[done]] = xm[done]
        todo, xa, dm, sign_a = todo[~done], xa[~done], dm[~done], sign_a[~done]
    return roots


def band_scan(
    lat: PeriodicLattice,
    e_min: float,
    e_max: float,
    resolution: float,
) -> BandTable:
    """Classify [e_min, e_max] into allowed/forbidden intervals.

    Scans on the grid of fewest points whose spacing, as ``np.linspace``
    computes it, is <= resolution, then bisects every sign change of
    |cos beta| - 1 down to ``EDGE_XTOL`` in energy.  Negative energies carry
    no propagating gap wave, so e_min is clamped to ``ENERGY_FLOOR``.
    """
    e_min = max(e_min, ENERGY_FLOOR)
    if e_min >= e_max:
        raise ValueError(f"need e_min < e_max, and e_max above {ENERGY_FLOOR}")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    n_pts = max(math.ceil((e_max - e_min) / resolution) + 1, 2)
    if n_pts > 2 and (e_max - e_min) / (n_pts - 2) <= resolution:
        n_pts -= 1  # the quotient rounded up past a whole number of steps
    grid = np.linspace(e_min, e_max, n_pts)
    degenerate = degenerate_energies(lat.cell, grid)
    energies = grid[~degenerate]
    values = _cos_beta(lat, energies)
    f = np.abs(values) - 1.0

    # An edge at every grid zero of f, and one bisected inside every sign change.
    crossing = np.flatnonzero((f[:-1] == 0.0) | (np.sign(f[:-1]) * np.sign(f[1:]) < 0.0))
    edges = energies[crossing]
    inside = f[crossing] != 0.0
    i = crossing[inside]
    edges[inside] = _bisect_edges(lat, energies[i], energies[i + 1], f[i], EDGE_XTOL)
    edges = edges.tolist()
    if f[-1] == 0.0:
        edges.append(float(energies[-1]))

    bounds = np.array([energies[0], *edges, energies[-1]])
    lo, hi = bounds[:-1], bounds[1:]
    keep = hi - lo > 0
    lo, hi = lo[keep], hi[keep]
    mid = 0.5 * (lo + hi)
    labels = _classify(_cos_beta(lat, _off_degenerate(lat, mid, 1e-9)))

    return BandTable(
        energies=energies,
        cos_beta=values,
        classification=tuple(_classify(values).tolist()),
        edges=tuple(edges),
        intervals=tuple(zip(lo.tolist(), hi.tolist(), labels.tolist())),
        skipped=tuple(grid[degenerate].tolist()),
    )
