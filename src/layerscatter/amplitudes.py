"""Scattering amplitudes: single interfaces, single barriers, prefix
sequences (recurrence and matrix product), the leftward coefficient map,
and embedding between the two outer media.

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
consistent with the dense boundary-matching solve; see the tests).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .structure import (
    DegenerateWavenumberError,
    LayeredStructure,
    WaveNumberSet,
    compute_wavenumbers,
    validate_structure,
)


class EvanescentGapError(ArithmeticError):
    """The energy is negative, so the zero-potential gaps are evanescent.

    The recurrence, the embedding and the leftward map use conjugate
    relations that hold only for a real gap wavenumber.
    """


def _check_nonzero(value: complex, what: str):
    if value == 0:
        raise DegenerateWavenumberError(f"{what} vanishes; nudge the energy")


@dataclass(frozen=True)
class InterfaceAmplitudes:
    """Step amplitudes at the two outer edges of the structure."""

    t_left: complex       # medium 1 -> gap, interface at x=0
    r_left: complex
    t_right: complex      # gap -> medium 2, interface at x=span
    r_right: complex


@dataclass(frozen=True)
class BarrierAmplitudes:
    """Per-barrier scattering amplitudes over a zero-potential background."""

    t: tuple
    r: tuple


@dataclass(frozen=True)
class PrefixAmplitudes:
    """(T_n, R_n) for the first n barriers, n = 0..N, zero potential outside."""

    t: tuple  # T_0..T_N, T_0 = 1
    r: tuple  # R_0..R_N, R_0 = 0


@dataclass(frozen=True)
class EmbeddedAmplitudes:
    """Full-structure amplitudes between the two dissimilar outer media."""

    t_full: complex
    r_full: complex


def _step(p: complex, q: complex, x0: float):
    """(t, r) for a potential step at x0, incidence from the p side."""
    _check_nonzero(p + q, f"wavenumber sum at interface x={x0}")
    t = 2.0 * p / (p + q) * cmath.exp(1j * (p - q) * x0)
    r = (p - q) / (p + q) * cmath.exp(2j * p * x0)
    return t, r


def interface_amplitudes(w: WaveNumberSet, s: LayeredStructure) -> InterfaceAmplitudes:
    """The outer-step amplitudes read by the embedding and the coefficients."""
    t_left, r_left = _step(w.k_left, w.k_gap, 0.0)
    t_right, r_right = _step(w.k_gap, w.k_right, s.span)
    return InterfaceAmplitudes(t_left, r_left, t_right, r_right)


def _factored_trig(z: complex):
    """(scale m, cos(z)/e^m, sin(z)/e^m) with m = |Im z|, overflow-free.

    For strongly evanescent layers cos/sin grow like e^{|Im z|}; the
    factored pieces stay O(1) so ratios of them never overflow.
    """
    m = abs(z.imag)
    ep = cmath.exp(1j * z - m)   # |.| <= 1
    em = cmath.exp(-1j * z - m)  # |.| <= 1
    return m, (ep + em) / 2.0, (ep - em) / 2j


def barrier_amplitudes(w: WaveNumberSet, s: LayeredStructure, n: int):
    """(t_n, r_n) for barrier ``n`` (0-based) over a zero background.

    Evanescent barriers are handled by the same complex expressions;
    the decaying exponential is factored out so thick tunneling
    barriers do not overflow.
    """
    k0 = w.k_gap
    kn = w.k_barrier[n]
    b = s.barriers[n]
    _check_nonzero(k0, "gap wavenumber k0")
    _check_nonzero(kn, f"wavenumber inside barrier {n + 1}")
    m, c, sn = _factored_trig(kn * b.width)
    a_sym = (kn * kn + k0 * k0) / (2.0 * kn * k0)
    b_asym = (kn * kn - k0 * k0) / (2.0 * kn * k0)
    denom = c - 1j * a_sym * sn  # = e^{-m} (cos - iA sin)
    t = cmath.exp(-1j * k0 * b.width - m) / denom
    r = 1j * cmath.exp(2j * k0 * b.center - 1j * k0 * b.width) * b_asym * sn / denom
    return t, r


def all_barrier_amplitudes(w: WaveNumberSet, s: LayeredStructure) -> BarrierAmplitudes:
    pairs = [barrier_amplitudes(w, s, n) for n in range(s.n_barriers)]
    return BarrierAmplitudes(
        t=tuple(p[0] for p in pairs), r=tuple(p[1] for p in pairs)
    )


def prefix_by_recurrence(amps: BarrierAmplitudes) -> PrefixAmplitudes:
    """Prefix amplitudes via the two-term difference recurrence.

    State is (1/T_n, R_n*/T_n*); each step costs O(1), so this is the
    production path for large N:

        1/T_n       = (r_n/t_n) (R_{n-1}*/T_{n-1}*) + (1/t_n)(1/T_{n-1})
        R_n*/T_n*   = (r_n/t_n)* (1/T_{n-1}) + (1/t_n)* (R_{n-1}*/T_{n-1}*)

    starting from T_0 = 1, R_0 = 0.
    """
    u = 1.0 + 0.0j  # 1/T_n
    v = 0.0 + 0.0j  # R_n*/T_n*
    ts = [1.0 + 0.0j]
    rs = [0.0 + 0.0j]
    for t, r in zip(amps.t, amps.r):
        _check_nonzero(t, "barrier transmission amplitude")
        ratio = r / t
        inv = 1.0 / t
        u, v = ratio * v + inv * u, ratio.conjugate() * u + inv.conjugate() * v
        t_n = 1.0 / u
        ts.append(t_n)
        rs.append(v.conjugate() * t_n)
    return PrefixAmplitudes(t=tuple(ts), r=tuple(rs))


def _inverse_matrix(t: complex, r: complex) -> np.ndarray:
    """2x2 factor [[1/t*, -r*/t*], [-r/t, 1/t]] mapping left-region to
    right-region plane-wave coefficients across one scatterer."""
    tc = t.conjugate()
    rc = r.conjugate()
    return np.array([[1.0 / tc, -rc / tc], [-r / t, 1.0 / t]], dtype=complex)


def prefix_by_matrix(amps: BarrierAmplitudes) -> PrefixAmplitudes:
    """Prefix amplitudes via the ordered 2x2 transfer-matrix product.

    Redundant with :func:`prefix_by_recurrence` by construction; kept
    as an independent code path for cross-checking.
    """
    acc = np.eye(2, dtype=complex)
    ts = [1.0 + 0.0j]
    rs = [0.0 + 0.0j]
    for t, r in zip(amps.t, amps.r):
        _check_nonzero(t, "barrier transmission amplitude")
        acc = _inverse_matrix(t, r) @ acc
        t_n = 1.0 / acc[1, 1]
        ts.append(t_n)
        rs.append(-acc[1, 0] * t_n)
    return PrefixAmplitudes(t=tuple(ts), r=tuple(rs))


def map_leftward(t: complex, r: complex, x: complex, y: complex):
    """[[1/t, r*/t*], [r/t, 1/t*]] (x, y): the (e^{+ikx}, e^{-ikx}) coefficients
    left of a scatterer with left-incidence amplitudes (t, r) from those right of it."""
    tc = t.conjugate()
    return (1.0 / t) * x + (r.conjugate() / tc) * y, (r / t) * x + (1.0 / tc) * y


def embed_in_media(prefix: PrefixAmplitudes, iface: InterfaceAmplitudes) -> EmbeddedAmplitudes:
    """(T, R) of the full structure between the two outer media.

    Maps the medium-2 coefficients back to medium 1 through the right
    step, the zero-background structure and the left step.  Medium 2
    carries no leftward wave, so only the first column of the
    right-step matrix enters and an evanescent right medium needs no
    special casing.  Raises OverflowError when 1/T is not finite, as
    deep in a forbidden band of a long chain.
    """
    x = 1.0 / iface.t_right
    y = iface.r_right / iface.t_right
    for t, r in ((prefix.t[-1], prefix.r[-1]), (iface.t_left, iface.r_left)):
        x, y = map_leftward(t, r, x, y)
    if x == 0:
        raise ArithmeticError("embedding produced 1/T = 0; inconsistent inputs")
    if not cmath.isfinite(x):
        raise OverflowError(f"1/T = {x} is not finite; T underflows at this energy")
    t_full = 1.0 / x
    return EmbeddedAmplitudes(t_full=t_full, r_full=y * t_full)


def scattering_amplitudes(s: LayeredStructure, energy: float):
    """(wavenumbers, outer steps, barrier amplitudes, embedded T and R): all a sweep reads."""
    validate_structure(s)
    w = compute_wavenumbers(s, energy)
    if energy < 0:
        raise EvanescentGapError(
            f"energy {energy} < 0: the gaps between barriers are evanescent, "
            "which the recurrence does not support"
        )
    _check_nonzero(w.k_gap, "gap wavenumber k0")
    iface = interface_amplitudes(w, s)
    amps = all_barrier_amplitudes(w, s)
    return w, iface, amps, embed_in_media(prefix_by_recurrence(amps), iface)


def transmission_probability(emb: EmbeddedAmplitudes, w: WaveNumberSet) -> float:
    """Flux-normalized transmission (Re k_right / k_left) |T|^2 in [0, 1]."""
    if w.k_left.imag != 0 or w.k_left.real <= 0:
        raise ValueError("no propagating incident wave: k_left must be real positive")
    return (w.k_right.real / w.k_left.real) * abs(emb.t_full) ** 2


def reflection_probability(emb: EmbeddedAmplitudes) -> float:
    return abs(emb.r_full) ** 2
