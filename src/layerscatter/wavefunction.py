"""Region coefficients and piecewise evaluation of psi.

Once the embedded (T, R) is known, the rightmost gap holds T times the
first column of the right step's matrix, and each barrier carries the
gap pair on its right onto the gap pair on its left.  Across a
tunnelling chain that is the direction in which the solution grows, so
nothing cancels.  The barrier pairs (c_n, d_n) follow from continuity at
each barrier's left edge.  No linear system is solved on this path.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .amplitudes import EmbeddedAmplitudes, map_leftward, scattering_amplitudes
from .structure import LayeredStructure, WaveNumberSet, region_wavenumbers


@dataclass(frozen=True)
class ScatteringSolution:
    """Everything needed to evaluate psi anywhere for unit left-incidence."""

    structure: LayeredStructure
    energy: float
    wavenumbers: WaveNumberSet
    embedded: EmbeddedAmplitudes
    a: tuple  # gap coefficients a_1..a_{N+1}
    b: tuple
    c: tuple  # barrier coefficients c_1..c_N
    d: tuple

    @cached_property
    def regions(self):
        """(interface points, k, c+, c-) with psi = c+ e^{ikx} + c- e^{-ikx} in region i,
        left of point i, in the layout of :func:`region_wavenumbers`: (1, R) in the
        left medium, (a_n, b_n) in gap n, (c_n, d_n) in barrier n, (T, 0) on the right."""
        cp, cm = np.empty((2, 2 * self.structure.n_barriers + 3), dtype=complex)
        cp[0], cm[0] = 1.0, self.embedded.r_full
        cp[1:-1:2], cm[1:-1:2] = self.a, self.b
        cp[2:-1:2], cm[2:-1:2] = self.c, self.d
        cp[-1], cm[-1] = self.embedded.t_full, 0.0
        return (self.structure.interface_points(), region_wavenumbers(self.wavenumbers),
                cp, cm)


def gap_coefficients(amps, iface, embedded: EmbeddedAmplitudes):
    """(a_n, b_n) for every zero-potential gap region, n = 1..N+1, at one energy.

    ``amps`` is the barriers' (t, r) and ``iface`` the outer steps.  Starts
    from (a_{N+1}, b_{N+1}) = T (1/t_right, r_right/t_right) and steps
    leftward across each barrier with :func:`map_leftward`.
    """
    t_full = embedded.t_full
    _, _, t_right, r_right = iface
    pairs = [(t_full / t_right, t_full * r_right / t_right)]
    for t, r in zip(reversed(amps[0].tolist()), reversed(amps[1].tolist())):
        pairs.append(map_leftward(t, r, *pairs[-1]))
    a, b = zip(*reversed(pairs))
    return a, b


def barrier_coefficients(a: tuple, b: tuple, w: WaveNumberSet, s: LayeredStructure):
    """(c_n, d_n) inside every barrier from continuity at its left edge.

    Solving the 2x2 continuity pair directly keeps evanescent barriers
    exact; for propagating barriers it reduces to the interface-amplitude
    combination (k0/kn)[a/t* - b r*/t*] and its partner.  Raises
    FloatingPointError where e^{-i k_n x} overflows at a barrier far from
    the origin.
    """
    k0, kn = w.k_gap, w.k_barrier
    x0 = s.interface_points()[1:-1:2]  # left edges
    ratio = k0 / kn
    with np.errstate(over="raise", invalid="raise"):
        ap = np.array(a[:-1]) * np.exp(1j * k0 * x0)
        bm = np.array(b[:-1]) * np.exp(-1j * k0 * x0)
        c = ((1 + ratio) * ap + (1 - ratio) * bm) / 2 * np.exp(-1j * kn * x0)
        d = ((1 - ratio) * ap + (1 + ratio) * bm) / 2 * np.exp(1j * kn * x0)
    return tuple(c.tolist()), tuple(d.tolist())


def solve_structure(s: LayeredStructure, energy: float) -> ScatteringSolution:
    """Full pipeline at one energy: amplitudes and embedding (a batch of
    one), then every coefficient."""
    w, iface, amps, emb = scattering_amplitudes(s, energy)
    a, b = gap_coefficients(amps, iface, emb)
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
    """(psi, psi') at x from ``region``'s plane waves; FloatingPointError on overflow."""
    _, k, cp, cm = sol.regions
    k = k[region]
    with np.errstate(over="raise", invalid="raise"):
        plus = _wave(cp[region], 1j * k * x)
        minus = _wave(cm[region], -1j * k * x)
        return plus + minus, 1j * k * (plus - minus)


def evaluate_psi(sol: ScatteringSolution, x):
    """psi(x) anywhere on the real line (unit incident amplitude); x may be an array."""
    return _psi_dpsi(sol, x, np.searchsorted(sol.regions[0], x, side="right"))[0]


def evaluate_dpsi(sol: ScatteringSolution, x):
    """Analytic derivative d psi/dx (never finite-differenced)."""
    return _psi_dpsi(sol, x, np.searchsorted(sol.regions[0], x, side="right"))[1]


def psi_one_sided(sol: ScatteringSolution, interface: int):
    """(psi, psi') evaluated from both regions meeting at interface point.

    ``interface`` indexes the 2N+2 matching points left to right.  The
    regions are chosen by that index, not by position, so a zero-width
    gap between touching barriers keeps its own region.
    Returns ((psi_left, dpsi_left), (psi_right, dpsi_right)).
    """
    x = sol.regions[0][interface]
    return _psi_dpsi(sol, x, interface), _psi_dpsi(sol, x, interface + 1)


def default_grid(
    sol: ScatteringSolution,
    x_min: float | None = None,
    x_max: float | None = None,
    points: int | None = None,
) -> np.ndarray:
    """Sampling grid: 40 points per shortest wavelength, at least 1000.

    Defaults span a quarter-span margin on each side of the structure.
    """
    span = sol.structure.span
    if x_min is None:
        x_min = -0.25 * span
    if x_max is None:
        x_max = 1.25 * span
    if points is None:
        k_max = np.abs(sol.regions[1].real).max()
        points = 1000
        if k_max > 0:
            wavelength = 2.0 * np.pi / k_max
            points = max(1000, int(np.ceil(40.0 * (x_max - x_min) / wavelength)))
    return np.linspace(x_min, x_max, points)


def sample_density(sol: ScatteringSolution, grid) -> np.ndarray:
    """Rows (x, Re psi, Im psi, |psi|^2) for each grid point (sorted ascending)."""
    x = np.asarray(grid, dtype=float)
    psi = evaluate_psi(sol, x)
    return np.column_stack((x, psi.real, psi.imag, np.abs(psi) ** 2))
