"""Scattering amplitudes on arrays: single interfaces, single barriers, a
tree of Redheffer star products over a chain, and embedding between the
two outer media.

Every stage takes the wavenumbers of one energy or of an energy array
(:func:`compute_wavenumbers`) and works elementwise: leading axes are
energy, and a per-barrier array carries the barrier as its last axis.
The single-barrier formula lives in ``_factored_barrier`` alone: the sweep
and the scalar solve (a batch of one) reach it through
:func:`all_barrier_amplitudes`, and the band scan and the closed form of
``periodic`` take one period's half trace and r/t from it directly.  The
chain is composed by joining adjacent segments pairwise, level by level,
so a chain of N barriers costs ceil(log2 N) array steps and every
intermediate amplitude keeps modulus <= 1 (the stable S-matrix
composition of Ko and Inkson, Phys. Rev. B 38, 9945 (1988), as a
reduction tree in the sense of Blelloch, CMU-CS-90-190 (1990)).

The stages assume an energy that :func:`check_energy` has admitted, which
:func:`scattering_amplitudes` checks once; they check nothing themselves.

Conventions
-----------
All amplitudes are defined for unit left-incidence e^{ipx} from origin 0.
An interface at x0 between wavenumbers p (left) and q (right) reflects
((p-q)/(p+q)) exp{i 2 p x0} and transmits (2p/(p+q)) exp{i p x0} into the
wave e^{iq(x - x0)} that starts there, so the full structure transmits into
T e^{i k_right (x - span)} (:func:`~layerscatter.structure.region_origins`).  A barrier of
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
)


@dataclass(frozen=True)
class EmbeddedAmplitudes:
    """Full-structure amplitudes between the two dissimilar outer media: R of
    e^{-i k_left x} left of x = 0, T of e^{i k_right (x - span)} right of the span."""

    t_full: complex
    r_full: complex


def _step(p, q, x0: float):
    """(t, r) for a potential step at x0, incidence e^{ipx} from the p side:
    t belongs to e^{iq(x - x0)}, so |t| <= 2 for real p > 0."""
    t = 2.0 * p / (p + q) * np.exp(1j * p * x0)
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


def _factored_barrier(k0, kn, width, phase):
    """(m, e^{-m} (cos - i A sin), phase B e^{-m} sin) of k_n d_n, elementwise,
    with A = (k_n^2 + k0^2)/(2 k_n k0) and B = (k_n^2 - k0^2)/(2 k_n k0).

    The one source of the single-barrier formula: e^{-i k0 d}/t is e^m times
    the second piece, and r/t is e^m times the third for phase =
    i e^{2 i k0 x_n}.  Each piece stays O(1) where cos/sin overflow.
    """
    m, c, sn = _factored_trig(kn * width)
    k2, k02, half_inv = kn * kn, k0 * k0, 0.5 / (kn * k0)
    c -= 1j * ((k2 + k02) * half_inv) * sn
    return m, c, phase * ((k2 - k02) * half_inv) * sn


def _barrier_tr(k0, kn, width, center):
    """(t, r, r') of barriers over a zero background from the pieces of
    :func:`_factored_barrier`, elementwise.

    ``kn``, ``width`` and ``center`` carry the barrier as their last axis;
    ``k0`` broadcasts against them.  Evanescent barriers are handled by the
    same complex expressions; the decaying exponential is factored out so
    thick tunnelling barriers do not overflow.  The right-incidence
    reflection of a lossless barrier, r' = -r* t/t*, takes t/t* =
    e^{-2i k0 d} c*/c from the factored pieces: t itself underflows to 0
    in a high barrier, where t/t* would be 0/0.
    """
    m, c, rc = _factored_barrier(k0, kn, width, 1j * np.exp(1j * k0 * (2.0 * center - width)))
    inv_c = 1.0 / c
    pw = np.exp(-1j * k0 * width)
    return pw * np.exp(-m) * inv_c, rc * inv_c, -rc.conjugate() * (pw * pw) * inv_c


def all_barrier_amplitudes(w: WaveNumberSet, s: LayeredStructure):
    """(t, r, r') of every barrier over a zero background, arrays whose last
    axis is the barrier."""
    _, widths, centers = s.barrier_arrays
    return _barrier_tr(np.asarray(w.k_gap)[..., None], w.k_barrier, widths, centers)


def barrier_amplitudes(w: WaveNumberSet, s: LayeredStructure, n: int):
    """(t_n, r_n, r'_n) for barrier ``n`` (0-based) over a zero background."""
    return tuple(x[..., n] for x in all_barrier_amplitudes(w, s))


def _star(a, b):
    """Redheffer star product of adjacent segments ``a`` (left) and ``b``
    (right) of the zero background, each (t, r, r') for left incidence
    (t, r) and right incidence (t' = t, r'), elementwise.

    Every input has modulus <= 1 and so has every output: |r'_a r_b| < 1
    wherever either segment transmits, so ``den`` stays away from zero.
    """
    ta, ra, pa = a
    tb, rb, pb = b
    den = 1.0 - pa * rb
    return ta * tb / den, ra + ta * ta * rb / den, pb + tb * tb * pa / den


def prefix_by_recurrence(amps):
    """(T_N, R_N, R'_N) of the whole chain over a zero background.

    ``amps`` is the barriers' (t, r, r') from :func:`all_barrier_amplitudes`.
    Adjacent segments are joined pairwise by :func:`_star`, level by level
    over the barrier axis, an odd last segment riding up to the next level
    unchanged: ceil(log2 N) array steps, each elementwise over the leading
    energy axes.  Every intermediate keeps modulus <= 1, so deep in a
    forbidden band T underflows to an honest 0 and |R| stays 1; nothing
    overflows.  No barriers give (1, 0, 0).
    """
    seg = amps
    while seg[0].shape[-1] > 1:
        even = seg[0].shape[-1] // 2 * 2
        joined = _star(tuple(x[..., 0:even:2] for x in seg),
                       tuple(x[..., 1:even:2] for x in seg))
        if even < seg[0].shape[-1]:
            joined = tuple(np.concatenate((j, x[..., -1:]), axis=-1)
                           for j, x in zip(joined, seg))
        seg = joined
    if seg[0].shape[-1] == 0:
        one = np.ones(seg[0].shape[:-1], dtype=complex)[()]
        return one, 0.0 * one, 0.0 * one
    return tuple(x[..., 0] for x in seg)


def _inverse_matrix(t: complex, r: complex) -> np.ndarray:
    """2x2 factor [[1/t*, -r*/t*], [-r/t, 1/t]] mapping left-region to
    right-region plane-wave coefficients across one scatterer."""
    tc = t.conjugate()
    rc = r.conjugate()
    return np.array([[1.0 / tc, -rc / tc], [-r / t, 1.0 / t]], dtype=complex)


def prefix_by_matrix(amps):
    """(T_0..T_N, R_0..R_N) via the ordered 2x2 transfer-matrix product,
    at one energy: ``amps`` is the barriers' (t, r, r'), of which r' is unused.

    Redundant with :func:`prefix_by_recurrence` by construction; kept
    as an independent code path for cross-checking.
    """
    acc = np.eye(2, dtype=complex)
    ts = [1.0 + 0.0j]
    rs = [0.0 + 0.0j]
    for t_n, r_n in zip(*amps[:2]):
        if t_n == 0:
            raise DegenerateWavenumberError("barrier transmission amplitude vanishes")
        acc = _inverse_matrix(t_n, r_n) @ acc
        ts.append(1.0 / acc[1, 1])
        rs.append(-acc[1, 0] * ts[-1])
    return tuple(ts), tuple(rs)


def embed_in_media(prefix, iface) -> EmbeddedAmplitudes:
    """(T, R) of the full structure between the two outer media.

    ``prefix`` is the chain's (T_N, R_N, R'_N) from :func:`prefix_by_recurrence`
    and ``iface`` the outer steps from :func:`interface_amplitudes`.  The left
    step, the chain and the right step are joined by star products, as
    :func:`_star` joins barriers.  The left step at x = 0 has its own
    right-incidence pair, r' = -r_left and t' = 1 - r_left = 2 k_gap /
    (k_left + k_gap).  Medium 2 carries no leftward wave, so only the right
    step's left-incidence (t, r) enters and an evanescent right medium needs
    no special casing: its t_right, taken at the span, has modulus <= 2.  Deep
    in a forbidden band T underflows to 0 and |R| = 1.  Raises ArithmeticError
    where T or R is not finite, as where a bound state behind an opaque chain
    makes a denominator vanish.
    """
    t_c, r_c, rp_c = prefix
    t_left, r_left, t_right, r_right = iface
    tp_left, rp_left = 1.0 - r_left, -r_left
    with np.errstate(all="ignore"):
        den = 1.0 - rp_left * r_c
        t_lc, tp_lc = t_left * t_c / den, tp_left * t_c / den
        r_lc = r_left + t_left * tp_left * r_c / den
        rp_lc = rp_c + t_c * t_c * rp_left / den
        den = 1.0 - rp_lc * r_right
        t_full = t_lc * t_right / den
        r_full = r_lc + t_lc * tp_lc * r_right / den
    bad = ~(np.isfinite(t_full) & np.isfinite(r_full))
    if np.any(bad):
        raise ArithmeticError(
            f"T = {np.asarray(t_full)[bad][0]} is not finite at this energy")
    return EmbeddedAmplitudes(t_full=t_full, r_full=r_full)


def scattering_amplitudes(s: LayeredStructure, energy):
    """(wavenumbers, outer steps, barrier (t, r), embedded T and R) at
    ``energy``, a float or an array: all a sweep reads."""
    w = compute_wavenumbers(s, energy)
    check_energy(s, energy)
    iface = interface_amplitudes(w, s)
    amps = all_barrier_amplitudes(w, s)
    return w, iface, amps, embed_in_media(prefix_by_recurrence(amps), iface)


def transmission_probability(emb: EmbeddedAmplitudes, w: WaveNumberSet):
    """Flux-normalized transmission (Re k_right / k_left) |T|^2 in [0, 1].

    An evanescent right medium (Re k_right = 0) carries no flux: 0 there.
    """
    if np.any(w.k_left.imag != 0) or np.any(w.k_left.real <= 0):
        raise ValueError("no propagating incident wave: k_left must be real positive")
    return (w.k_right.real / w.k_left.real * np.abs(emb.t_full) ** 2)[()]


def reflection_probability(emb: EmbeddedAmplitudes):
    return np.abs(emb.r_full) ** 2
