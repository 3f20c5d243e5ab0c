"""Scattering amplitudes on arrays: single interfaces, single barriers, the
two-term recurrence over a chain, the leftward coefficient map, and
embedding between the two outer media.

Every stage takes the wavenumbers of one energy or of an energy array
(:func:`compute_wavenumbers`) and works elementwise: leading axes are
energy, and a per-barrier array carries the barrier as its last axis.
The single-barrier formula lives in ``_barrier_tr`` alone; the sweep, the
scalar solve (a batch of one), the band scan and the closed form all
reach it through :func:`all_barrier_amplitudes`.  Of the amplitude stages
only the recurrence loops in Python, over the barrier axis.

The stages assume an energy that :func:`check_energy` has admitted, which
:func:`scattering_amplitudes` checks once; they check nothing themselves.

Conventions
-----------
All amplitudes are defined for unit left-incidence in global
coordinates.  The reflection amplitude of an interface at x0 between
wavenumbers p (left) and q (right) is ((p-q)/(p+q)) exp{i 2 p x0}; the
transmission amplitude is (2p/(p+q)) exp{i (p-q) x0}.  A barrier of
width d_n centred at x_n over a zero-potential background has

    1/t_n   = exp{i k0 d_n} [cos k_n d_n - i (k_n^2+k0^2)/(2 k_n k0) sin k_n d_n]
    r_n/t_n = i exp{i 2 k0 x_n} (k_n^2-k0^2)/(2 k_n k0) sin k_n d_n

(the reflection phase exp{i 2 k0 x_n}, with the sign above, is the one
consistent with the banded boundary-matching solve; see the tests).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structure import (
    DegenerateWavenumberError,
    EvanescentGapError,  # re-exported
    LayeredStructure,
    WaveNumberSet,
    check_energy,
    compute_wavenumbers,
    validate_structure,
)


@dataclass(frozen=True)
class EmbeddedAmplitudes:
    """Full-structure amplitudes between the two dissimilar outer media."""

    t_full: complex
    r_full: complex


def _step(p, q, x0: float):
    """(t, r) for a potential step at x0, incidence from the p side."""
    t = 2.0 * p / (p + q) * np.exp(1j * (p - q) * x0)
    r = (p - q) / (p + q) * np.exp(2j * p * x0)
    return t, r


def interface_amplitudes(w: WaveNumberSet, s: LayeredStructure):
    """(t_left, r_left, t_right, r_right): the steps medium 1 -> gap at x=0
    and gap -> medium 2 at x=span, read by the embedding and the coefficients."""
    return (*_step(w.k_left, w.k_gap, 0.0), *_step(w.k_gap, w.k_right, s.span))


def _factored_trig(z):
    """(m, cos(z)/e^m, sin(z)/e^m) with m = |Im z|, elementwise and overflow-free.

    For strongly evanescent layers cos/sin grow like e^{|Im z|}; the
    factored pieces stay O(1) so ratios of them never overflow.
    """
    m = np.abs(z.imag)
    ep = np.exp(1j * z - m)   # |.| <= 1
    em = np.exp(-1j * z - m)  # |.| <= 1
    return m, (ep + em) / 2.0, (ep - em) / 2j


def _barrier_tr(k0, kn, width, center):
    """(t, r) of barriers over a zero background: the single-barrier formula,
    elementwise.

    ``kn``, ``width`` and ``center`` carry the barrier as their last axis;
    ``k0`` broadcasts against them.  Evanescent barriers are handled by the
    same complex expressions; the decaying exponential is factored out so
    thick tunnelling barriers do not overflow.
    """
    m, c, sn = _factored_trig(kn * width)
    k2, k02, den = kn * kn, k0 * k0, 2.0 * kn * k0
    b_asym = (k2 - k02) / den
    c -= 1j * ((k2 + k02) / den) * sn  # c is now e^{-m} (cos - iA sin)
    t = np.exp(-1j * k0 * width - m) / c
    r = 1j * np.exp(2j * k0 * center - 1j * k0 * width) * b_asym * sn / c
    return t, r


def all_barrier_amplitudes(w: WaveNumberSet, s: LayeredStructure):
    """(t, r) of every barrier over a zero background, arrays whose last
    axis is the barrier."""
    width = np.array([b.width for b in s.barriers])
    center = np.array([b.center for b in s.barriers])
    return _barrier_tr(np.asarray(w.k_gap)[..., None], w.k_barrier, width, center)


def barrier_amplitudes(w: WaveNumberSet, s: LayeredStructure, n: int):
    """(t_n, r_n) for barrier ``n`` (0-based) over a zero background."""
    return tuple(x[..., n] for x in all_barrier_amplitudes(w, s))


def prefix_by_recurrence(amps):
    """(T_N, R_N) of the whole chain via the two-term difference recurrence.

    State is (1/T_n, R_n*/T_n*); each step costs O(1) per energy, so this
    is the production path for large N:

        1/T_n       = (r_n/t_n) (R_{n-1}*/T_{n-1}*) + (1/t_n)(1/T_{n-1})
        R_n*/T_n*   = (r_n/t_n)* (1/T_{n-1}) + (1/t_n)* (R_{n-1}*/T_{n-1}*)

    starting from T_0 = 1, R_0 = 0.  ``amps`` is the barriers' (t, r) from
    :func:`all_barrier_amplitudes`; the loop runs over their last axis
    only.  Overflow is left in the result for :func:`embed_in_media` to
    report.
    """
    t, r = amps
    u = np.ones(t.shape[:-1], dtype=complex)[()]   # 1/T_n
    v = np.zeros(t.shape[:-1], dtype=complex)[()]  # R_n*/T_n*
    with np.errstate(all="ignore"):
        ratio = np.moveaxis(r / t, -1, 0)
        inv = np.moveaxis(1.0 / t, -1, 0)
        for q, g, qc, gc in zip(ratio, inv, ratio.conjugate(), inv.conjugate()):
            u, v = q * v + g * u, qc * u + gc * v
        t_n = 1.0 / u
        return t_n, v.conjugate() * t_n


def _inverse_matrix(t: complex, r: complex) -> np.ndarray:
    """2x2 factor [[1/t*, -r*/t*], [-r/t, 1/t]] mapping left-region to
    right-region plane-wave coefficients across one scatterer."""
    tc = t.conjugate()
    rc = r.conjugate()
    return np.array([[1.0 / tc, -rc / tc], [-r / t, 1.0 / t]], dtype=complex)


def prefix_by_matrix(amps):
    """(T_0..T_N, R_0..R_N) via the ordered 2x2 transfer-matrix product,
    at one energy: ``amps`` is the barriers' (t, r).

    Redundant with :func:`prefix_by_recurrence` by construction; kept
    as an independent code path for cross-checking.
    """
    acc = np.eye(2, dtype=complex)
    ts = [1.0 + 0.0j]
    rs = [0.0 + 0.0j]
    for t_n, r_n in zip(*amps):
        if t_n == 0:
            raise DegenerateWavenumberError("barrier transmission amplitude vanishes")
        acc = _inverse_matrix(t_n, r_n) @ acc
        ts.append(1.0 / acc[1, 1])
        rs.append(-acc[1, 0] * ts[-1])
    return tuple(ts), tuple(rs)


def map_leftward(t, r, x, y):
    """[[1/t, r*/t*], [r/t, 1/t*]] (x, y): the (e^{+ikx}, e^{-ikx}) coefficients
    left of a scatterer with left-incidence amplitudes (t, r) from those right of it."""
    tc = t.conjugate()
    return (1.0 / t) * x + (r.conjugate() / tc) * y, (r / t) * x + (1.0 / tc) * y


def embed_in_media(prefix, iface) -> EmbeddedAmplitudes:
    """(T, R) of the full structure between the two outer media.

    ``prefix`` is (T_N, R_N) from :func:`prefix_by_recurrence` and
    ``iface`` the outer steps from :func:`interface_amplitudes`.  Maps the
    medium-2 coefficients back to medium 1 through the right step, the
    zero-background structure and the left step.  Medium 2 carries no
    leftward wave, so only the first column of the right-step matrix
    enters and an evanescent right medium needs no special casing.
    Raises OverflowError when 1/T is not finite, as deep in a forbidden
    band of a long chain.
    """
    t_left, r_left, t_right, r_right = iface
    with np.errstate(all="ignore"):
        x = 1.0 / t_right
        y = r_right / t_right
        for t, r in (prefix, (t_left, r_left)):
            x, y = map_leftward(t, r, x, y)
    if np.any(x == 0):
        raise ArithmeticError("embedding produced 1/T = 0; inconsistent inputs")
    bad = np.asarray(x)[~np.isfinite(x)]
    if bad.size:
        raise OverflowError(f"1/T = {bad[0]} is not finite; T underflows at this energy")
    t_full = 1.0 / x
    return EmbeddedAmplitudes(t_full=t_full, r_full=y * t_full)


def scattering_amplitudes(s: LayeredStructure, energy):
    """(wavenumbers, outer steps, barrier (t, r), embedded T and R) at
    ``energy``, a float or an array: all a sweep reads."""
    validate_structure(s)
    w = compute_wavenumbers(s, energy)
    check_energy(s, energy)
    iface = interface_amplitudes(w, s)
    amps = all_barrier_amplitudes(w, s)
    return w, iface, amps, embed_in_media(prefix_by_recurrence(amps), iface)


def transmission_probability(emb: EmbeddedAmplitudes, w: WaveNumberSet):
    """Flux-normalized transmission (Re k_right / k_left) |T|^2 in [0, 1]."""
    if np.any(w.k_left.imag != 0) or np.any(w.k_left.real <= 0):
        raise ValueError("no propagating incident wave: k_left must be real positive")
    return (w.k_right.real / w.k_left.real) * np.abs(emb.t_full) ** 2


def reflection_probability(emb: EmbeddedAmplitudes):
    return np.abs(emb.r_full) ** 2
