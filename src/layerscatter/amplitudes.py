"""Scattering amplitudes on arrays: single interfaces, single barriers, a
tree of Redheffer star products over a chain, and the same star product
embedding the chain between the two outer media.

Every stage takes the wavenumbers of one energy or of an energy array
(:func:`compute_wavenumbers`) and works elementwise: leading axes are
energy, and a per-barrier array carries the barrier as its last axis.
The single-barrier formula lives in ``_factored_barrier`` alone: the sweep
and the scalar solve (a batch of one) reach it through
:func:`all_barrier_amplitudes`, and the band scan and the closed form of
``periodic`` take one period's half trace and r/t from it directly.
:func:`all_barrier_amplitudes` takes real cos and sin, e^{-2m}, e^{-m} and the
complex 1/c once per (energy, distinct (height, width)) and the one complex
exponential, the gap phase, once per (energy, distinct gap length), then
gathers them to the segments: a lattice of identical, evenly spaced barriers
runs the formula once per energy, however long it is.  The
chain is composed by joining adjacent segments pairwise, level by level,
so a chain of N barriers costs ceil(log2 N) array steps and every
intermediate amplitude keeps modulus <= 1 (the stable S-matrix
composition of Ko and Inkson, Phys. Rev. B 38, 9945 (1988), as a
reduction tree in the sense of Blelloch, CMU-CS-90-190 (1990)).

The stages assume an energy that :func:`check_energy` has admitted, which
:func:`scattering_amplitudes` checks once; they check nothing themselves.

Conventions
-----------
All amplitudes are for unit left-incidence e^{ipx} from origin 0.  An
interface at x0 between wavenumbers p (left) and q (right) reflects
((p-q)/(p+q)) exp{i 2 p x0} and transmits (2p/(p+q)) exp{i p x0} into the
wave e^{iq(x - x0)} that starts there.  The chain is made of segments in
their own reference planes (Li, JOSA A 13, 1024 (1996)): segment n is the gap
g_n left of barrier n and then barrier n, from x_R(n-1) (0 for n = 1) to its
right edge x_R(n).  In its own planes x_L and x_R a barrier of width d_n has

    1/t_b   = cos k_n d_n - i (k_n^2+k0^2)/(2 k_n k0) sin k_n d_n = e^m c
    r_b/t_b = i (k_n^2-k0^2)/(2 k_n k0) sin k_n d_n              = i e^m B s

and r'_b = r_b by symmetry; the segment has (t, r, r') = (e^{i k0 g_n} t_b,
e^{2 i k0 g_n} r_b, r_b), whatever its position.  The right step sits at
span - x_R(N), so T belongs to e^{i k_right (x - span)} and R to origin 0.
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
    region_lengths,
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
    """(t_left, r_left, t_right, r_right): the steps medium 1 -> gap at x=0 and
    gap -> medium 2 at x=span, the latter from x_R(N), where the chain ends."""
    x_r = s.barrier_arrays[2, -1] + s.barrier_arrays[1, -1] / 2.0 if s.n_barriers else 0.0
    return (*_step(w.k_left, w.k_gap, 0.0), *_step(w.k_gap, w.k_right, s.span - x_r))


def _factored_barrier(k0, kn, width):
    """(m, c, B s) of barriers, elementwise: m = |Im k_n| d_n, c = e^{-m} (cos -
    i A sin) and B s = e^{-m} B sin of k_n d_n, A and B = (k_n^2 +- k0^2)/(2 k_n k0).

    The one source of the single-barrier formula (see Conventions).  ``k0`` is
    real and each k_n real or purely imaginary, so A sin and B sin are real: only
    real cos, sin and e^{-2m} are taken, and each piece stays O(1).
    """
    kr, ki = kn.real, kn.imag  # one of them is 0
    m = ki * width
    h = 0.5 * np.exp(-2.0 * m)
    c = np.empty(m.shape, dtype=complex)
    np.multiply(np.cos(kr * width), 0.5 + h, out=c.real)  # e^{-m} cos k_n d_n
    sn = np.sin(kr * width) + (0.5 - h)
    sn *= 0.5 / ((kr + ki) * k0)  # e^{-m} sin(k_n d_n) / (2 k_n k0), real either way
    k2, k02 = kr * kr - ki * ki, k0 * k0
    plus, minus = k2 + k02, k2 - k02
    np.multiply(-plus, sn, out=c.imag)
    return m, c, minus * sn


def _distinct(*keys):
    """(first, inverse) of the distinct entries of the equal-length 1-D
    ``keys``, taken together: ``first`` indexes one entry of each distinct value
    and ``key[first][inverse]`` gives back every ``key``.  None where no value
    repeats.  One ``lexsort`` and one pass comparing sorted neighbours."""
    order = np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)  # where a sorted entry starts a value
    new[:1] = True
    for key in keys:
        sorted_key = key[order]
        new[1:] |= sorted_key[1:] != sorted_key[:-1]
    if new.all():
        return None
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _spread(x, distinct):
    """``x``, whose last axis runs over the distinct entries of :func:`_distinct`,
    spread back over every entry, C-ordered; ``x`` itself where none repeats."""
    return x if distinct is None else np.take(x, distinct[1], axis=-1)


def all_barrier_amplitudes(w: WaveNumberSet, s: LayeredStructure):
    """(t, r, r') of every segment, gap n and then barrier n, over a zero
    background, arrays whose last axis is the barrier.  The gaps are those of
    :func:`region_lengths`, the oracle's and the barrier coefficients' too.

    t_b = e^{-m}/c and r_b = i B s/c come from :func:`_factored_barrier` once per
    distinct (height, width) and the gap phase e^{i k0 g}, the one complex
    exponential, once per distinct gap length; ``np.take`` spreads both back to
    the segments, so each segment gets the bits its own evaluation would give.
    A thick barrier's t_b underflows to 0.
    """
    heights, widths, _ = s.barrier_arrays
    gaps = region_lengths(s)[1:-2:2]
    k0 = np.asarray(w.k_gap).real[..., None]
    kn = w.k_barrier
    barriers, distinct_gaps = _distinct(widths, heights), _distinct(gaps)
    if barriers:
        kn, widths = np.take(kn, barriers[0], axis=-1), widths[barriers[0]]
    if distinct_gaps:
        gaps = gaps[distinct_gaps[0]]
    m, c, bs = _factored_barrier(k0, kn, widths)
    inv_c = 1.0 / c
    rb = _spread(inv_c * (1j * bs), barriers)
    ph = _spread(np.exp(1j * (k0 * gaps)), distinct_gaps)
    # The products keep the per-segment formula's operands in its order: numpy's
    # complex product is not bitwise commutative, and numpy may compute into,
    # and so swap in, a large temporary operand.
    return ph * _spread(np.exp(-m) * inv_c, barriers), ph * ph * rb, rb


def barrier_amplitudes(w: WaveNumberSet, s: LayeredStructure, n: int):
    """(t_n, r_n, r'_n) of segment ``n`` (0-based), as :func:`all_barrier_amplitudes`."""
    return tuple(x[..., n] for x in all_barrier_amplitudes(w, s))


def _star(a, b):
    """Redheffer star product of adjacent segments ``a`` (left) and ``b``
    (right) of the zero background, each (t, r, r') for left incidence
    (t, r) and right incidence (t' = t, r'), elementwise.

    Between segments every input and output has modulus <= 1: |r'_a r_b| < 1
    wherever either segment transmits, so 1 - r'_a r_b stays away from zero.
    :func:`embed_in_media` joins the right step too, whose t reaches 2 in an
    evanescent medium, and reads only the (t, r) of that product.
    """
    ta, ra, pa = a
    tb, rb, pb = b
    inv = 1.0 / (1.0 - pa * rb)
    return ta * tb * inv, ra + ta * ta * rb * inv, pb + tb * tb * pa * inv


def prefix_by_recurrence(amps):
    """(T_N, R_N, R'_N) of the whole chain over a zero background, between
    the planes 0 and x_R(N).

    ``amps`` is the segments' (t, r, r') from :func:`all_barrier_amplitudes`.
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
    at one energy: ``amps`` is the segments' (t, r, r'), of which r' is unused.
    Each segment's right plane is the next one's left plane, so the product
    needs no phase between factors: T_n starts at x_R(n) and R_n at 0.

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
    and ``iface`` the outer steps from :func:`interface_amplitudes`.
    :func:`_star` joins the chain and the right step.  Medium 2 carries no
    leftward wave, so only that step's left-incidence (t, r) enters and an
    evanescent right medium needs no special casing: its t_right, taken at
    span - x_R(N), has modulus <= 2.  The left step at x = 0 then joins with
    its own right-incidence pair, r' = -r_left and t' = 1 - r_left = 2 k_gap /
    (k_left + k_gap).  Deep in a forbidden band T underflows to 0 and |R| = 1.
    Raises ArithmeticError where T or R is not finite, as where a bound state
    behind an opaque chain makes a denominator vanish.
    """
    t_left, r_left, t_right, r_right = iface
    with np.errstate(all="ignore"):
        t, r, _ = _star(prefix, (t_right, r_right, 0.0))
        inv = 1.0 / (1.0 + r_left * r)
        t_full, r_full = t_left * t * inv, r_left + t_left * (1.0 - r_left) * r * inv
    bad = ~(np.isfinite(t_full) & np.isfinite(r_full))
    if np.any(bad):
        raise ArithmeticError(
            f"T = {np.asarray(t_full)[bad][0]} is not finite at this energy")
    return EmbeddedAmplitudes(t_full=t_full, r_full=r_full)


def scattering_amplitudes(s: LayeredStructure, energy):
    """(wavenumbers, outer steps, segment (t, r, r'), embedded T and R) at
    ``energy``, a float or an array: all a sweep reads."""
    check_energy(s, energy)
    w = compute_wavenumbers(s, energy)
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
