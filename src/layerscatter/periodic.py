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

from .amplitudes import barrier_amplitudes
from .structure import (
    Barrier,
    DegenerateWavenumberError,
    LayeredStructure,
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


def _cos_beta(lat: PeriodicLattice, energy):
    """Half the trace of one period's transfer matrix, elementwise over ``energy``.

    Raises DegenerateWavenumberError where k0 = 0 or k = 0, and
    FloatingPointError where cos or sin of an evanescent layer overflows.
    """
    u = lat.barrier_height
    d = lat.barrier_width
    a = lat.period
    e = np.asarray(energy, dtype=float)
    if np.any(_degenerate(lat, e)):
        raise DegenerateWavenumberError(
            "Bloch phase undefined at k=0; nudge the energy"
        )
    r0, r = np.sqrt(np.abs(e)), np.sqrt(np.abs(e - u))
    k0 = np.where(e >= 0, r0 + 0j, 1j * r0)  # branch_sqrt, elementwise
    k = np.where(e - u >= 0, r + 0j, 1j * r)
    with np.errstate(over="raise", invalid="raise"):
        sym = (k * k + k0 * k0) / (2.0 * k0 * k)
        val = (
            np.cos(k0 * (a - d)) * np.cos(k * d)
            - sym * np.sin(k0 * (a - d)) * np.sin(k * d)
        )
    return val.real  # imaginary part cancels identically for real inputs


def _degenerate(lat: PeriodicLattice, e: np.ndarray) -> np.ndarray:
    """Where k0 = 0 or k = 0, so that the Bloch phase is undefined."""
    return (e == 0.0) | (e - lat.barrier_height == 0.0)


def _off_degenerate(lat: PeriodicLattice, e: np.ndarray, nudge: float) -> np.ndarray:
    """``e`` with every degenerate point moved up by ``nudge``; cos beta is
    continuous there."""
    return np.where(_degenerate(lat, e), e + nudge, e)


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
    c = float(_cos_beta(lat, energy))
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
    if edge_xtol <= 0:
        raise ValueError("edge_xtol must be positive")
    e_min = max(e_min, 1e-6)
    n_pts = max(int(math.ceil((e_max - e_min) / resolution)) + 1, 2)
    grid = np.linspace(e_min, e_max, n_pts)
    degenerate = _degenerate(lat, grid)
    energies = grid[~degenerate]
    values = _cos_beta(lat, energies)
    f = np.abs(values) - 1.0

    # An edge at every grid zero of f, and one bisected inside every sign change.
    crossing = np.flatnonzero((f[:-1] == 0.0) | (np.sign(f[:-1]) * np.sign(f[1:]) < 0.0))
    edges = energies[crossing]
    inside = f[crossing] != 0.0
    i = crossing[inside]
    edges[inside] = _bisect_edges(lat, energies[i], energies[i + 1], f[i], edge_xtol)
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
