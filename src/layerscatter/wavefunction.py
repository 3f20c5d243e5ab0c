"""Region coefficients and piecewise evaluation of psi.

The gap coefficients come from the same reflection algebra as the
star-product tree: a right-to-left pass composes the reflection rho_n of
everything right of each gap, and a left-to-right pass carries the unit
incident wave through the barriers with it.  Every factor is bounded, so a
tiny coefficient is a truly tiny psi, never an overflow.  A gap's waves
start at its left end, where its segment of the chain starts, and a
barrier's at its own edges, so C_n follows from continuity at its left
edge and D_n at its right edge, and neither wave passes modulus 1 inside
it.  No linear system is solved on this path.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .amplitudes import EmbeddedAmplitudes, scattering_amplitudes
from .structure import (
    LayeredStructure,
    WaveNumberSet,
    check_domain,
    region_lengths,
    region_origins,
    region_wavenumbers,
)

# The most samples a grid may hold.  Its 4 float64 columns are 320 MB, but
# `wavefunction --scenario periodic --energy 5.3` peaks at 1167 MB RSS at
# 10**7 points (getrusage of its process), as its CSV text is held until the
# file opens
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True, eq=False)
class ScatteringSolution:
    """Everything needed to evaluate psi anywhere for unit left-incidence, each
    region's waves from its origins in :func:`region_origins`."""

    structure: LayeredStructure
    energy: float
    wavenumbers: WaveNumberSet
    embedded: EmbeddedAmplitudes
    a: np.ndarray  # gap coefficients a_1..a_{N+1}, at each gap's left end
    b: np.ndarray
    c: np.ndarray  # barrier coefficients C_1..C_N, at each barrier's left edge
    d: np.ndarray  # D_1..D_N, at each barrier's right edge

    @cached_property
    def regions(self):
        """(interface points, k, c+, c-, o+, o-) with psi = c+ e^{ik(x - o+)} +
        c- e^{-ik(x - o-)} in region i, left of point i, laid out as
        :func:`region_wavenumbers` and :func:`region_origins`: (1, R) in the left
        medium, (a_n, b_n) in gap n, (C_n, D_n) in barrier n, (T, 0) on the right."""
        cp, cm = np.empty((2, 2 * self.structure.n_barriers + 3), dtype=complex)
        cp[0], cm[0] = 1.0, self.embedded.r_full
        cp[1:-1:2], cm[1:-1:2] = self.a, self.b
        cp[2:-1:2], cm[2:-1:2] = self.c, self.d
        cp[-1], cm[-1] = self.embedded.t_full, 0.0
        return (self.structure.interface_points(), region_wavenumbers(self.wavenumbers),
                cp, cm, *region_origins(self.structure))


def gap_coefficients(amps, iface):
    """(a_n, b_n) as two arrays over the zero-potential gaps, n = 1..N+1, at one energy.

    ``amps`` is the segments' (t, r, r'), each from its gap's left end, and ``iface``
    the outer steps, so (a_n, b_n) belong to waves from gap n's left end.  Right
    to left, as :func:`~layerscatter.amplitudes._star` joins segments, rho_n =
    b_n / a_n = r_n + t_n^2 rho_{n+1} / (1 - r'_n rho_{n+1}) from rho_{N+1} =
    r_right; left to right, a_1 = t_left / (1 + r_left rho_1) and a_{n+1} =
    t_n a_n / (1 - r'_n rho_{n+1}).  Every factor is bounded: deep in a
    forbidden band a_n decays to 0 while psi at x = 0 still matches (1, R).
    Both passes are scalar: at the chain lengths psi is sampled on, a scan is slower.
    """
    t_left, r_left, _, r_right = (complex(x) for x in iface)
    ts, rs, rps = (x.tolist() for x in amps)
    rho = [r_right]
    for t, r, rp in zip(reversed(ts), reversed(rs), reversed(rps)):
        rho.append(r + t * t * rho[-1] / (1.0 - rp * rho[-1]))
    rho.reverse()
    a = [t_left / (1.0 + r_left * rho[0])]
    for t, rp, right in zip(ts, rps, rho[1:]):
        a.append(t * a[-1] / (1.0 - rp * right))
    return np.array(a), np.array([x * y for x, y in zip(a, rho)])


def barrier_coefficients(a: np.ndarray, b: np.ndarray, w: WaveNumberSet, s: LayeredStructure):
    """(C_n, D_n) of psi = C_n e^{ik_n(x - x_L)} + D_n e^{-ik_n(x - x_R)} in every
    barrier: C_n is the right-going part (psi + psi'/(ik_n))/2 of gap n's wave
    at x_L, D_n the left-going part (psi - psi'/(ik_n))/2 of gap n + 1's at x_R.
    No exponential of k_n is taken, so nothing grows however opaque the barrier.
    """
    k0 = w.k_gap
    g = region_lengths(s)[1:-2:2]  # x_L - p_n, and x_R - p_{n+1} = 0
    ap = np.array((a[:-1] * np.exp(1j * k0 * g), a[1:]))
    bm = np.array((b[:-1] * np.exp(-1j * k0 * g), b[1:]))
    return (ap + bm + [[1.0], [-1.0]] * (k0 / w.k_barrier) * (ap - bm)) / 2


def solve_structure(s: LayeredStructure, energy: float) -> ScatteringSolution:
    """Full pipeline at one energy: amplitudes and embedding (a batch of
    one), then every coefficient."""
    w, iface, amps, emb = scattering_amplitudes(s, energy)
    a, b = gap_coefficients(amps, iface)
    c, d = barrier_coefficients(a, b, w, s)
    return ScatteringSolution(
        structure=s, energy=energy, wavenumbers=w, embedded=emb,
        a=a, b=b, c=c, d=d,
    )


def _wave(c, phase):
    """c e^{phase}, with no exponential taken where c = 0: the right medium's
    e^{-ikx} wave has coefficient 0 and would overflow far to the right."""
    return c * np.exp(phase, out=np.zeros(np.shape(phase), dtype=complex), where=c != 0)


def _psi_dpsi(sol: ScatteringSolution, x, region):
    """(psi, psi') at x from ``region``'s e^{+-ik(x - o+-)}; FloatingPointError on overflow."""
    _, k, cp, cm, op, om = sol.regions
    k = k[region]
    with np.errstate(over="raise", invalid="raise"):
        plus = _wave(cp[region], 1j * k * (x - op[region]))
        minus = _wave(cm[region], -1j * k * (x - om[region]))
        return plus + minus, 1j * k * (plus - minus)


def evaluate_psi(sol: ScatteringSolution, x):
    """psi(x) anywhere on the real line (unit incident amplitude); x may be an array."""
    return _psi_dpsi(sol, x, np.searchsorted(sol.regions[0], x, side="right"))[0]


def evaluate_dpsi(sol: ScatteringSolution, x):
    """Analytic derivative d psi/dx (never finite-differenced)."""
    return _psi_dpsi(sol, x, np.searchsorted(sol.regions[0], x, side="right"))[1]


def grid_bounds(span: float, x_min: float | None = None, x_max: float | None = None,
                points: int | None = None) -> tuple[float, float]:
    """(x_min, x_max) of the sampling grid: a bound not given lies a quarter
    span beyond the structure's edge on its side.  A ValueError refuses a
    bound outside the structure's domain (:func:`~layerscatter.structure.domain_error`),
    an x_min above x_max and an explicit count of ``points`` below 1 or above
    ``MAX_GRID_POINTS``, naming only the options given and, where a default
    bound takes part, the default bound."""
    given = [(option, value) for option, value in (("--x-min", x_min), ("--x-max", x_max))
             if value is not None]
    check_domain(*given)
    x_min = -0.25 * span if x_min is None else float(x_min)
    x_max = 1.25 * span if x_max is None else float(x_max)
    if x_min > x_max:  # equal bounds are a grid of one point
        low, high = (f"{option} {x}" if option in dict(given) else f"the default bound {x}"
                     for option, x in (("--x-min", x_min), ("--x-max", x_max)))
        raise ValueError(f"{low} lies above {high}")
    if points is not None and not 1 <= points <= MAX_GRID_POINTS:
        bound = "at least 1" if points < 1 else f"at most {MAX_GRID_POINTS}"
        raise ValueError(f"--grid-points must be {bound}, got {points}")
    return x_min, x_max


def default_grid(
    sol: ScatteringSolution,
    x_min: float | None = None,
    x_max: float | None = None,
    points: int | None = None,
) -> np.ndarray:
    """Sampling grid: 40 points per shortest wavelength, at least 1000,
    between the bounds of :func:`grid_bounds`, which checks them and
    ``points``.  A ValueError refuses a default count above
    ``MAX_GRID_POINTS`` before anything is allocated, naming only the
    bounds given, the others as default bounds."""
    given = (x_min is not None, x_max is not None)
    x_min, x_max = grid_bounds(sol.structure.span, x_min, x_max, points)
    if points is None:
        k_max = np.abs(sol.regions[1].real).max()
        points = 1000
        if k_max > 0:
            wavelength = 2.0 * np.pi / k_max
            needed = np.ceil(40.0 * (x_max - x_min) / wavelength)
            if needed > MAX_GRID_POINTS:
                low, high = (f"{option} {x}" if was_given else f"the default bound {x}"
                             for option, x, was_given in (("--x-min", x_min, given[0]),
                                                          ("--x-max", x_max, given[1])))
                raise ValueError(f"{low} to {high} needs more than "
                                 f"{MAX_GRID_POINTS} points at 40 per wavelength: narrow "
                                 "them or set --grid-points")
            points = max(1000, int(needed))
    return np.linspace(x_min, x_max, points)


def sample_density(sol: ScatteringSolution, grid) -> np.ndarray:
    """Rows (x, Re psi, Im psi, |psi|^2) for each grid point (sorted ascending)."""
    x = np.asarray(grid, dtype=float)
    psi = evaluate_psi(sol, x)
    return np.column_stack((x, psi.real, psi.imag, np.abs(psi) ** 2))
