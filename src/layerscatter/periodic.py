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
from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect as _bisect

from .amplitudes import barrier_amplitudes
from .structure import (
    Barrier,
    DegenerateWavenumberError,
    LayeredStructure,
    branch_sqrt,
    compute_wavenumbers,
)

EDGE_TOL = 1e-12


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


def _cos_beta(lat: PeriodicLattice, energy: float) -> float:
    u = lat.barrier_height
    d = lat.barrier_width
    a = lat.period
    k0 = branch_sqrt(energy)
    k = branch_sqrt(energy - u)
    if k0 == 0 or k == 0:
        raise DegenerateWavenumberError(
            "Bloch phase undefined at k=0; nudge the energy"
        )
    sym = (k * k + k0 * k0) / (2.0 * k0 * k)
    val = (
        cmath.cos(k0 * (a - d)) * cmath.cos(k * d)
        - sym * cmath.sin(k0 * (a - d)) * cmath.sin(k * d)
    )
    return val.real  # imaginary part cancels identically for real inputs


def bloch_phase(lat: PeriodicLattice, energy: float, edge_tol: float = EDGE_TOL) -> BlochPhase:
    """Per-period Bloch phase beta and allowed/forbidden classification.

    beta is real in [0, pi] in allowed bands; in forbidden bands it is
    i*arccosh(|cos beta|), plus a real part pi when cos beta < -1.
    """
    c = _cos_beta(lat, energy)
    if abs(abs(c) - 1.0) < edge_tol:
        beta = complex(0.0 if c > 0 else math.pi, 0.0)
        return BlochPhase(energy, c, beta, "edge")
    if abs(c) <= 1.0:
        return BlochPhase(energy, c, complex(math.acos(c), 0.0), "allowed")
    if c > 1.0:
        return BlochPhase(energy, c, complex(0.0, math.acosh(c)), "forbidden")
    return BlochPhase(energy, c, complex(math.pi, math.acosh(-c)), "forbidden")


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
    phase = bloch_phase(lat, energy)
    cos_n, ratio = _chebyshev_pair(phase, n)
    s = lat.to_structure()
    w = compute_wavenumbers(s, energy)
    t1, r1 = barrier_amplitudes(w, s, 0)
    k0a = w.k_gap * lat.period
    gamma = cmath.exp(-1j * k0a) / t1
    inv_t = cmath.exp(1j * k0a * n) * (cos_n + 1j * gamma.imag * ratio)
    r_over_t = cmath.exp(1j * k0a * (n - 1)) * (r1 / t1) * ratio
    return inv_t, r_over_t


def decay_rate(lat: PeriodicLattice, energy: float) -> float:
    """Per-period decay exponent of |T_n|^2 in a forbidden band: 2*Im(beta)."""
    phase = bloch_phase(lat, energy)
    return 2.0 * phase.beta.imag


def band_scan(
    lat: PeriodicLattice,
    e_min: float,
    e_max: float,
    resolution: float,
    edge_xtol: float = 1e-10,
) -> BandTable:
    """Classify [e_min, e_max] into allowed/forbidden intervals.

    Scans on a grid of spacing <= resolution, then bisects every sign
    change of |cos beta| - 1 down to ``edge_xtol`` in energy.  Negative
    energies carry no propagating gap wave, so e_min is clamped to a
    small positive floor.
    """
    if e_min >= e_max:
        raise ValueError("need e_min < e_max")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    e_min = max(e_min, 1e-6)
    n_pts = max(int(math.ceil((e_max - e_min) / resolution)) + 1, 2)
    grid = np.linspace(e_min, e_max, n_pts)

    skipped = []
    energies, values, labels = [], [], []
    for e in grid:
        try:
            ph = bloch_phase(lat, float(e))
        except DegenerateWavenumberError:
            skipped.append(float(e))
            continue
        energies.append(float(e))
        values.append(ph.cos_beta)
        labels.append(ph.classification)

    def f(e: float) -> float:
        try:
            return abs(_cos_beta(lat, e)) - 1.0
        except DegenerateWavenumberError:
            # bisection landed exactly on k=0; cos beta is continuous there
            return abs(_cos_beta(lat, e + 1e-12)) - 1.0

    edges = []
    for i in range(len(energies) - 1):
        lo, hi = energies[i], energies[i + 1]
        flo = abs(values[i]) - 1.0
        fhi = abs(values[i + 1]) - 1.0
        if flo == 0.0:
            edges.append(lo)
        elif flo * fhi < 0.0:
            edges.append(float(_bisect(f, lo, hi, xtol=edge_xtol)))
    if len(energies) > 0 and abs(values[-1]) - 1.0 == 0.0:
        edges.append(energies[-1])

    bounds = [energies[0], *edges, energies[-1]]
    intervals = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo <= 0:
            continue
        mid = 0.5 * (lo + hi)
        try:
            label = bloch_phase(lat, mid).classification
        except DegenerateWavenumberError:
            label = bloch_phase(lat, mid + 1e-9).classification
        intervals.append((lo, hi, label))

    return BandTable(
        energies=np.array(energies),
        cos_beta=np.array(values),
        classification=tuple(labels),
        edges=tuple(edges),
        intervals=tuple(intervals),
        skipped=tuple(skipped),
    )
