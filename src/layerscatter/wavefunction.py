"""Region coefficients by back-substitution and piecewise evaluation of psi.

Once the prefix amplitudes and the embedded (T, R) are known, every gap
coefficient pair (a_n, b_n) follows from a closed-form combination of
1/T_{n-1}, R_{n-1}/T_{n-1}, their conjugates and R; the barrier pairs
(c_n, d_n) follow from the two continuity conditions at the barrier's
left edge.  No linear system is ever solved on this path.
"""
from __future__ import annotations

import bisect
import cmath
from dataclasses import dataclass

import numpy as np

from .amplitudes import (
    EmbeddedAmplitudes,
    InterfaceAmplitudes,
    PrefixAmplitudes,
    all_barrier_amplitudes,
    embed_in_media,
    interface_amplitudes,
    prefix_by_recurrence,
)
from .structure import (
    LayeredStructure,
    WaveNumberSet,
    compute_wavenumbers,
    validate_structure,
)


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


def gap_coefficients(
    prefix: PrefixAmplitudes,
    iface: InterfaceAmplitudes,
    embedded: EmbeddedAmplitudes,
    w: WaveNumberSet,
):
    """(a_n, b_n) for every zero-potential gap region, n = 1..N+1.

    Inverts the composition (left medium) = M_step * M_prefix * (gap n),
    whose determinant is the flux ratio k_gap/k_left; that ratio is the
    k_left/k_gap prefactor below.
    """
    r_full = embedded.r_full
    t10 = iface.t_left
    r10 = iface.r_left
    scale = w.k_left / w.k_gap
    a_out, b_out = [], []
    for t_prev, r_prev in zip(prefix.t, prefix.r):
        u = 1.0 / t_prev
        q = r_prev / t_prev
        uc = u.conjugate()
        qc = q.conjugate()
        m11 = u / t10 + q * r10.conjugate() / t10.conjugate()
        m12 = qc / t10 + uc * r10.conjugate() / t10.conjugate()
        m21 = u * r10 / t10 + q / t10.conjugate()
        m22 = qc * r10 / t10 + uc / t10.conjugate()
        a_out.append(scale * (m22 - m12 * r_full))
        b_out.append(scale * (-m21 + m11 * r_full))
    return tuple(a_out), tuple(b_out)


def barrier_coefficients(
    a: tuple, b: tuple, w: WaveNumberSet, s: LayeredStructure
):
    """(c_n, d_n) inside every barrier from continuity at its left edge.

    Solving the 2x2 continuity pair directly keeps evanescent barriers
    exact; for propagating barriers it reduces to the interface-amplitude
    combination (k0/kn)[a/t* - b r*/t*] and its partner.
    """
    k0 = w.k_gap
    c_out, d_out = [], []
    for n, (bar, kn) in enumerate(zip(s.barriers, w.k_barrier)):
        x0 = bar.left_edge
        ap = a[n] * cmath.exp(1j * k0 * x0)
        bm = b[n] * cmath.exp(-1j * k0 * x0)
        ratio = k0 / kn
        c_out.append(((1 + ratio) * ap + (1 - ratio) * bm) / 2 * cmath.exp(-1j * kn * x0))
        d_out.append(((1 - ratio) * ap + (1 + ratio) * bm) / 2 * cmath.exp(1j * kn * x0))
    return tuple(c_out), tuple(d_out)


def solve_structure(s: LayeredStructure, energy: float) -> ScatteringSolution:
    """Full pipeline: wavenumbers -> amplitudes -> embedding -> coefficients."""
    validate_structure(s)
    w = compute_wavenumbers(s, energy)
    iface = interface_amplitudes(w, s)
    pre = prefix_by_recurrence(all_barrier_amplitudes(w, s))
    emb = embed_in_media(pre, iface)
    a, b = gap_coefficients(pre, iface, emb, w)
    c, d = barrier_coefficients(a, b, w, s)
    return ScatteringSolution(
        structure=s, energy=energy, wavenumbers=w, embedded=emb,
        a=a, b=b, c=c, d=d,
    )


def _region_index(sol: ScatteringSolution, x: float) -> int:
    """0 = left medium, then alternating gap/barrier, last = right medium."""
    pts = sol.structure.interface_points()
    return bisect.bisect_right(pts, x)


def _region_terms(sol: ScatteringSolution, idx: int):
    """(k, coefficient of e^{+ikx}, coefficient of e^{-ikx}) for region idx."""
    w = sol.wavenumbers
    nb = sol.structure.n_barriers
    if idx == 0:
        return w.k_left, 1.0 + 0j, sol.embedded.r_full
    if idx == 2 * nb + 2:
        return w.k_right, sol.embedded.t_full, 0.0 + 0j
    if idx % 2 == 1:  # gap region (idx 1, 3, ...) -> gap number (idx+1)//2
        g = (idx - 1) // 2
        return w.k_gap, sol.a[g], sol.b[g]
    n = idx // 2 - 1  # barrier number, 0-based
    return w.k_barrier[n], sol.c[n], sol.d[n]


def evaluate_psi(sol: ScatteringSolution, x: float) -> complex:
    """psi(x) anywhere on the real line (unit incident amplitude)."""
    k, cp, cm = _region_terms(sol, _region_index(sol, x))
    return cp * cmath.exp(1j * k * x) + cm * cmath.exp(-1j * k * x)


def evaluate_dpsi(sol: ScatteringSolution, x: float) -> complex:
    """Analytic derivative d psi/dx (never finite-differenced)."""
    k, cp, cm = _region_terms(sol, _region_index(sol, x))
    return 1j * k * (cp * cmath.exp(1j * k * x) - cm * cmath.exp(-1j * k * x))


def psi_one_sided(sol: ScatteringSolution, interface: int):
    """(psi, psi') evaluated from both regions meeting at interface point.

    ``interface`` indexes the 2N+2 matching points left to right.
    Returns ((psi_left, dpsi_left), (psi_right, dpsi_right)).
    """
    x = sol.structure.interface_points()[interface]
    out = []
    for idx in (interface, interface + 1):
        k, cp, cm = _region_terms(sol, idx)
        ep = cmath.exp(1j * k * x)
        em = cmath.exp(-1j * k * x)
        out.append((cp * ep + cm * em, 1j * k * (cp * ep - cm * em)))
    return out[0], out[1]


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
        w = sol.wavenumbers
        ks = [w.k_left, w.k_right, w.k_gap, *w.k_barrier]
        k_max = max(abs(k.real) for k in ks)
        points = 1000
        if k_max > 0:
            wavelength = 2.0 * np.pi / k_max
            points = max(1000, int(np.ceil(40.0 * (x_max - x_min) / wavelength)))
    return np.linspace(x_min, x_max, points)


def sample_density(sol: ScatteringSolution, grid) -> np.ndarray:
    """Rows (x, Re psi, Im psi, |psi|^2) for each grid point (sorted ascending)."""
    rows = np.empty((len(grid), 4), dtype=float)
    for i, x in enumerate(grid):
        p = evaluate_psi(sol, float(x))
        rows[i] = (x, p.real, p.imag, abs(p) ** 2)
    return rows
