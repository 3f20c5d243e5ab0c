import bisect
import json
import math

import mpmath
import numpy as np
import pytest

from layerscatter import Barrier, LayeredStructure
from layerscatter.structure import DOMAIN, EDGE_ULPS
from layerscatter.wavefunction import _psi_dpsi


def random_structure(rng, max_barriers=10, heights=(-5.0, 5.0), widths=(0.2, 2.0),
                     asymmetric=True):
    """Random valid structure plus an energy propagating in the left medium."""
    n = int(rng.integers(0, max_barriers + 1))
    ws = rng.uniform(widths[0], widths[1], n)
    gaps = rng.uniform(0.0, 1.5, n + 1)
    hs = rng.uniform(heights[0], heights[1], n)
    centers = []
    x = gaps[0]
    for w, g in zip(ws, gaps[1:]):
        centers.append(x + w / 2.0)
        x += w + g
    span = max(x, 0.5)
    if asymmetric:
        v1, v2 = rng.uniform(-3.0, 3.0, 2)
        while v1 == v2:
            v2 = rng.uniform(-3.0, 3.0)
    else:
        v1 = v2 = 0.0
    s = LayeredStructure(v1, v2, span,
                         tuple(Barrier(h, w, c) for h, w, c in zip(hs, ws, centers)))
    # keep the gap background propagating and avoid k_n = 0 degeneracies
    energy = max(0.05, v1 + 0.05) + rng.uniform(0.05, 8.0)
    while any(abs(energy - b.height) < 1e-6 for b in s.barriers):
        energy += 1e-3
    return s, energy


def reference_validate(v_left, v_right, span, barriers):
    """The problems :func:`layerscatter.validate_structure` must report for
    this document, in its order, from one Python step per barrier: the
    pointwise reference for the vectorised checks.  ``barriers`` is a
    sequence of :class:`Barrier`; an empty list means the document is valid.
    """
    problems = []

    def outside(name, value):
        """Append the domain's line for ``value`` if it lies outside; whether it did."""
        if abs(value) <= DOMAIN:
            return False
        problems.append(f"{name} must lie in [-1e+150, 1e+150], got {float(value)}")
        return True

    for name, value in (("v_left", v_left), ("v_right", v_right), ("span", span)):
        outside(name, value)
    if not span > 0:
        problems.append(f"span must be positive, got {span}")
    edges = True
    for i, b in enumerate(barriers, start=1):
        outside(f"barrier {i}: height", b.height)
        edges &= not outside(f"barrier {i}: width", b.width)
        edges &= not outside(f"barrier {i}: center", b.center)
        if not b.width > 0:
            problems.append(f"barrier {i}: width must be positive, got {b.width}")
    if barriers and edges:
        slack = EDGE_ULPS * math.ulp(span)
        if barriers[0].left_edge < -slack:
            problems.append(f"barrier 1 starts before the left medium edge "
                            f"(left edge {barriers[0].left_edge} < 0)")
        if barriers[-1].right_edge - span > slack:
            problems.append(f"barrier {len(barriers)} exceeds span "
                            f"(right edge {barriers[-1].right_edge} > {span})")
        for i, (a, b) in enumerate(zip(barriers, barriers[1:]), start=1):
            if a.right_edge - b.left_edge > slack:
                problems.append(f"overlap between barriers {i} and {i + 1}")
    return problems


def serialize_structure(s):
    """JSON text that :func:`layerscatter.cli.parse_structure` restores bit-exactly."""
    doc = {
        "v_left": s.v_left,
        "v_right": s.v_right,
        "span": s.span,
        "barriers": [{"height": h, "width": w, "center": c}
                     for h, w, c in zip(*s.barrier_arrays.tolist())],
    }
    return json.dumps(doc, indent=2) + "\n"


def psi_one_sided(sol, interface):
    """(psi, psi') evaluated from both regions meeting at interface point.

    ``interface`` indexes the 2N+2 matching points left to right.  The
    regions are chosen by that index, not by position, so a zero-width
    gap between touching barriers keeps its own region.
    Returns ((psi_left, dpsi_left), (psi_right, dpsi_right)).
    """
    x = sol.regions[0][interface]
    return _psi_dpsi(sol, x, interface), _psi_dpsi(sol, x, interface + 1)


def reference_prefix(amps):
    """(T_N, R_N) of the whole chain via the two-term difference recurrence:
    the pointwise reference for the star-product tree of
    :func:`layerscatter.prefix_by_recurrence`.

    State is (1/T_n, R_n*/T_n*), one Python step per barrier:

        1/T_n       = (r_n/t_n) (R_{n-1}*/T_{n-1}*) + (1/t_n)(1/T_{n-1})
        R_n*/T_n*   = (r_n/t_n)* (1/T_{n-1}) + (1/t_n)* (R_{n-1}*/T_{n-1}*)

    starting from T_0 = 1, R_0 = 0.  ``amps`` is the barriers' (t, r, r')
    from :func:`all_barrier_amplitudes` (r' unused).  The state grows like
    e^{n Im beta} in a forbidden band, so deep in one it overflows and the
    result is inf or NaN.
    """
    t, r = amps[:2]
    u = np.ones(t.shape[:-1], dtype=complex)[()]   # 1/T_n
    v = np.zeros(t.shape[:-1], dtype=complex)[()]  # R_n*/T_n*
    with np.errstate(all="ignore"):
        ratio = np.moveaxis(r / t, -1, 0)
        inv = np.moveaxis(1.0 / t, -1, 0)
        for q, g, qc, gc in zip(ratio, inv, ratio.conjugate(), inv.conjugate()):
            u, v = q * v + g * u, qc * u + gc * v
        t_n = 1.0 / u
        return t_n, v.conjugate() * t_n


def recurrence_prefixes(amps):
    """(T_n, R_n) for every n = 0..N from one :func:`reference_prefix` call.

    Row n of the batch keeps the first n barriers and makes the rest
    transparent (t = 1, r = 0), which leaves the recurrence state as it is.
    """
    t, r = amps[:2]
    keep = np.tri(t.shape[-1] + 1, t.shape[-1], -1, dtype=bool)
    return reference_prefix((np.where(keep, t, 1.0), np.where(keep, r, 0.0)))


def reference_psi(s, energy, xs, dps=80):
    """psi at each x of ``xs`` for unit left incidence, by transfer integration
    at ``dps`` digits: the exact-edge referee for the wave function.

    The barrier edges are c +- w/2 of the stored doubles, taken exactly, and
    every k is the root of the stored energy and potentials; nothing comes
    from the float :meth:`~LayeredStructure.interface_points`.  (psi, psi')
    starts as the transmitted wave e^{ik_R (x - span)} at the span and is
    carried leftward region by region, the direction in which the physical
    solution grows, then scaled so that the left medium's incident wave is
    e^{ik_L x}.  Each x is evaluated from the right end of its region, and
    in the right medium as the transmitted wave itself.
    """
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        heights, widths, centers = ([mpf(v) for v in row] for row in s.barrier_arrays.tolist())
        edges = [mpf(0)]
        for w, c in zip(widths, centers):
            edges += [c - w / 2, c + w / 2]
        edges.append(mpf(s.span))
        e = mpf(energy)
        k_gap = mpmath.sqrt(mpmath.mpc(e))
        ks = [mpmath.sqrt(mpmath.mpc(e - s.v_left)), k_gap]
        for h in heights:
            ks += [mpmath.sqrt(mpmath.mpc(e - h)), k_gap]
        ks.append(mpmath.sqrt(mpmath.mpc(e - s.v_right)))

        def carry(state, k, u):  # (psi, psi') at distance u from ``state``'s point
            psi, dpsi = state
            cos, sin = mpmath.cos(k * u), mpmath.sin(k * u)
            return psi * cos + dpsi * sin / k, dpsi * cos - k * psi * sin

        states = [(mpmath.mpc(1), 1j * ks[-1])]  # at the span, then leftward
        for i in range(len(edges) - 1, 0, -1):
            states.append(carry(states[-1], ks[i], edges[i - 1] - edges[i]))
        states.reverse()  # states[i] at edges[i], the right end of region i
        psi0, dpsi0 = states[0]
        incident = (psi0 + dpsi0 / (1j * ks[0])) / 2
        out = []
        for x in np.asarray(xs, dtype=float).tolist():
            x = mpf(x)
            i = bisect.bisect_right(edges, x)
            if i == len(edges):
                psi = mpmath.exp(1j * ks[-1] * (x - edges[-1]))
            else:
                psi = carry(states[i], ks[i], x - edges[i])[0]
            out.append(complex(psi / incident))
        return np.array(out)


def criterion_1_cases():
    """Acceptance criterion 1's 200 seeded (structure, energy) cases."""
    rng = np.random.default_rng(42)
    cases = []
    for _ in range(200):
        n = int(rng.integers(0, 11))
        widths = rng.uniform(0.2, 2.0, n) + 1e-12  # widths in (0.2, 2]
        gaps = rng.uniform(0.0, 1.5, n + 1)
        heights = rng.uniform(-5.0, 5.0, n)
        centers, x = [], gaps[0]
        for w, g in zip(widths, gaps[1:]):
            centers.append(x + w / 2.0)
            x += w + g
        v1, v2 = rng.uniform(-3.0, 3.0, 2)
        while v1 == v2:
            v2 = rng.uniform(-3.0, 3.0)
        s = LayeredStructure(
            v1, v2, max(x, 0.5),
            tuple(Barrier(h, w, c) for h, w, c in zip(heights, widths, centers)),
        )
        e = max(0.05, v1 + 0.05) + rng.uniform(0.05, 8.0)
        while any(abs(e - b.height) < 1e-9 for b in s.barriers):
            e += 1e-3
        cases.append((s, e))
    return cases


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
