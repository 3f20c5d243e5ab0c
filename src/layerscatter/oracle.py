"""Brute-force verifier: banded solve of the full boundary-matching system.

Independent of the star-product pipeline, with which it shares only the
energy rule of :func:`~layerscatter.structure.check_energy`, the region
layout of :func:`~layerscatter.structure.region_wavenumbers` and the region
lengths of :func:`~layerscatter.structure.region_lengths`:
it writes out value and derivative continuity of the piecewise plane-wave
ansatz at every interface and solves the resulting (4N+4)-square complex
system directly.  Each interface's two rows touch only the four unknowns of
its two regions, so the matrix has lower and upper bandwidth 2: it is
assembled straight into LAPACK band storage and solved by banded LU
(zgbtrf, zgbtrs) in O(N) time and memory, with no dense matrix formed.
A barrier's columns start at its own edges, a gap's at its left end and T's
at the span, as the solver's waves do, so no entry passes max |k| in modulus,
no exponential can overflow, no column shrinks with the span and no gap
column carries a phase of the gap's position.  Every offset x - o within a
region is read from the region lengths, not taken as a difference of rounded
edges, so the oracle and the solver measure each gap alike, however far from
the origin it lies.  The one-norm condition
number is estimated from the band LU factors (LAPACK zgbcon) and reported so
callers can relax comparison tolerances in deep-tunneling regimes.  zgbcon
is the next limit on large N: its scaled triangular solves (zlatbs) make it
grow faster than linearly past about N = 1000.  scipy.linalg, which wraps
these LAPACK routines, is imported by the first solve, so importing the
package loads numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structure import (
    LayeredStructure,
    check_energy,
    compute_wavenumbers,
    region_lengths,
    region_wavenumbers,
)
from .wavefunction import solve_structure

KL = KU = 2  # each interface's rows reach two columns either side of the diagonal
_DIAG = KL + KU  # band row that holds the main diagonal


class MatchingSolveError(ArithmeticError):
    """The band LU met an exactly zero pivot, gave a non-finite solution, or
    had an argument refused by LAPACK."""


@dataclass(frozen=True)
class MatchingSystem:
    """Continuity system A x = b, with A in LAPACK band storage.

    ``band`` is the (2 KL + KU + 1, 4N + 4) array that zgbtrf takes: A[r, c]
    sits at band[KL + KU + r - c, c], and the first KL rows are zgbtrf's
    room for fill-in.  Unknown ordering: [R, a1, b1, c1, d1, ..., cN, dN,
    a_{N+1}, b_{N+1}, T]: the regions' (c+, c-) pairs flattened, without the
    incident 1 and the right medium's absent e^{-ikx}, so region j owns
    columns 2j - 1 and 2j.
    """

    band: np.ndarray
    rhs: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """A as a dense (4N+4)-square array, built anew on every access."""
        n = self.band.shape[1]
        d, c = np.mgrid[-KU:KL + 1, 0:n]  # row offset r - c, column
        ok = (c + d >= 0) & (c + d < n)
        mat = np.zeros((n, n), dtype=complex)
        mat[(c + d)[ok], c[ok]] = self.band[KL:][ok]
        return mat


@dataclass(frozen=True, eq=False)
class OracleSolution:
    """Every coefficient of the scattering solution, from the banded solve."""

    r_full: complex
    t_full: complex
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    residual: float
    condition: float


def assemble_matching_system(s: LayeredStructure, energy: float) -> MatchingSystem:
    """Two rows (value, derivative) per interface of the piecewise ansatz.

    Interface i joins regions i and i + 1: rows 2i and 2i + 1 hold the 2x4
    block of +-e^{+-ik(x - o+-)} and +-ik e^{+-ik(x - o+-)}, with the origins o+-
    of :func:`region_origins`, in their columns 2i - 1 .. 2i + 2.  Each x - o+-
    comes from :func:`region_lengths`, not from a difference of edges: a region's
    length at its right end and 0 at its left end, except that a barrier's
    e^{-ikx}, which starts at x_R, reads 0 there and -w at x_L.
    Column -1, the incident wave, goes to the rhs; column 4N + 4, the right
    medium's e^{-ikx}, is absent and never exponentiated, as it may overflow.
    Raises what :func:`check_energy` raises for an energy it does not admit.
    """
    check_energy(s, energy)
    ik = 1j * region_wavenumbers(compute_wavenumbers(s, energy))
    plus = region_lengths(s)  # x - o+ at each region's right end
    minus_right, minus_left = plus.copy(), np.zeros_like(plus)  # x - o- at either end
    minus_right[2:-1:2], minus_left[2:-1:2] = 0.0, -plus[2:-1:2]
    ik_l, ik_r = ik[:-1], ik[1:]
    block = np.zeros((ik_l.size, 2, 4), dtype=complex)
    block[:, 0, 0] = np.exp(ik_l * plus[:-1])
    block[:, 0, 1] = np.exp(-ik_l * minus_right[:-1])
    block[:, 0, 2] = -1.0  # e^{ik(x - o+)} at the right region's left end
    block[:-1, 0, 3] = -np.exp(-ik_r[:-1] * minus_left[1:-1])
    block[:, 1] = block[:, 0] * np.column_stack((ik_l, -ik_l, ik_r, -ik_r))

    # entry (a, b) of interface i's block, A[2i + a, 2i - 1 + b], sits at
    # band[_DIAG + 1 + a - b, 2i - 1 + b]: one strided row slice per (a, b)
    band = np.zeros((2 * KL + KU + 1, 2 * ik_l.size), dtype=complex)
    for b in range(4):
        first, last = int(b == 0), ik_l.size - (b == 3)  # columns -1 and 4N + 4 are not A's
        for a in range(2):
            band[_DIAG + 1 + a - b, 2 * first - 1 + b:2 * last - 1 + b:2] = block[first:last, a, b]
    rhs = np.zeros(2 * ik_l.size, dtype=complex)
    rhs[:2] = -block[0, :, 0]
    return MatchingSystem(band=band, rhs=rhs)


def _band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for A in band storage, one diagonal at a time."""
    n = x.size
    y = np.zeros(n, dtype=complex)
    for d in range(-KU, KL + 1):  # d = r - c
        lo, hi = max(0, -d), min(n, n - d)
        y[lo + d:hi + d] += band[_DIAG + d, lo:hi] * x[lo:hi]
    return y


def _lapack_ok(name: str, info: int) -> None:
    """Raise on a nonzero LAPACK info: a zero pivot where it is positive
    (only zgbtrf reports one), a refused argument where it is negative."""
    if info > 0:
        raise MatchingSolveError(
            f"the matching system is singular: {name} found a zero pivot at unknown {info - 1}")
    if info < 0:
        raise MatchingSolveError(f"{name} refused its argument {-info}")


def solve_matching_system(m: MatchingSystem) -> OracleSolution:
    """Band LU with partial pivoting plus one iterative-refinement step.

    ``condition`` is 1/rcond from zgbcon on the same LU factors: an
    estimate of the one-norm condition number, inf if rcond is 0.  Raises
    MatchingSolveError, an ArithmeticError, where a pivot is exactly zero,
    the solution is not finite or LAPACK refuses an argument.
    """
    from scipy.linalg import lapack

    lu, piv, info = lapack.zgbtrf(m.band, KL, KU)
    _lapack_ok("zgbtrf", info)

    def solve(b):
        x, info = lapack.zgbtrs(lu, KL, KU, b, piv)
        _lapack_ok("zgbtrs", info)
        if not np.all(np.isfinite(x)):
            raise MatchingSolveError(
                "the matching system is singular: its band LU solution is not finite")
        return x

    x = solve(m.rhs)
    x += solve(m.rhs - _band_matvec(m.band, x))
    res = _band_matvec(m.band, x) - m.rhs
    rhs_scale = np.max(np.abs(m.rhs))
    residual = float(np.max(np.abs(res)) / rhs_scale)
    rcond, info = lapack.zgbcon(KL, KU, lu, piv, np.max(np.sum(np.abs(m.band), axis=0)))
    _lapack_ok("zgbcon", info)
    condition = float(1.0 / rcond) if rcond > 0 else float("inf")

    # Region j's (c+, c-) sits at 2j - 1, 2j: gaps are the odd regions,
    # barriers the even ones between the two media; a..d are views of x.
    return OracleSolution(
        r_full=complex(x[0]), t_full=complex(x[-1]),
        a=x[1::4], b=x[2::4], c=x[3:-1:4], d=x[4::4],
        residual=residual, condition=condition,
    )


def oracle_solution(s: LayeredStructure, energy: float) -> OracleSolution:
    return solve_matching_system(assemble_matching_system(s, energy))


def compare_with_pipeline(s: LayeredStructure, energy: float):
    """Max relative coefficient discrepancy between oracle and pipeline.

    Each family (r, t, the gap pairs a/b, the barrier pairs c/d, each pair one
    stacked array) is scaled by its own largest oracle magnitude, floored at
    1, so a large t_full cannot hide an error in the barrier coefficients.
    Returns (max_relative_discrepancy, oracle condition estimate,
    oracle residual).  The oracle's assembly runs the energy gate first, so a
    refused energy gets the message every other command prints.
    """
    ora = oracle_solution(s, energy)
    sol = solve_structure(s, energy)
    families = [(ora.r_full, sol.embedded.r_full), (ora.t_full, sol.embedded.t_full),
                ((ora.a, ora.b), (sol.a, sol.b)), ((ora.c, ora.d), (sol.c, sol.d))]
    worst = 0.0
    for ref, got in families:  # hypot rounds as abs() does; numpy's vector abs may not
        ref, err = np.asarray(ref), np.subtract(ref, got)
        scale = np.max(np.hypot(ref.real, ref.imag), initial=1.0)
        worst = max(worst, np.max(np.hypot(err.real, err.imag), initial=0.0) / scale)
    return worst, ora.condition, ora.residual
