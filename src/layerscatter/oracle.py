"""Brute-force verifier: banded solve of the full boundary-matching system.

Independent of the recurrence/matrix pipeline, with which it shares only
the region layout of :func:`~layerscatter.structure.region_wavenumbers`:
it writes out value and derivative continuity of the piecewise plane-wave
ansatz at every interface and solves the resulting (4N+4)-square complex
system directly.  Each interface's two rows touch only the four unknowns of
its two regions, so the matrix has lower and upper bandwidth 2: it is
assembled straight into LAPACK band storage and solved by banded LU
(zgbtrf, zgbtrs) in O(N) time and memory, with no dense matrix formed.
Raw global-coordinate exponentials become ill-conditioned for strongly
evanescent regions at large N, and overflow past |k| x of about 709.  The
one-norm condition number is estimated from the band LU factors (LAPACK
zgbcon) and reported so callers can relax comparison tolerances in
deep-tunneling regimes.  zgbcon is the next limit on large N: its scaled
triangular solves (zlatbs) make it grow faster than linearly past about
N = 1000.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .structure import (
    DegenerateWavenumberError,
    LayeredStructure,
    check_energy,
    check_transmitted_wave,
    compute_wavenumbers,
    degenerate_energies,
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


@dataclass(frozen=True)
class OracleSolution:
    """Every coefficient of the scattering solution, from the banded solve."""

    r_full: complex
    t_full: complex
    a: tuple
    b: tuple
    c: tuple
    d: tuple
    residual: float
    condition: float


def assemble_matching_system(s: LayeredStructure, energy: float) -> MatchingSystem:
    """Two rows (value, derivative) per interface of the piecewise ansatz.

    Interface i joins regions i and i + 1: rows 2i and 2i + 1 hold the 2x4
    block of +-e^{+-ikx} and +-ik e^{+-ikx} in their columns 2i - 1 .. 2i + 2.
    Column -1, the incident wave, goes to the rhs; column 4N + 4, the right
    medium's e^{-ikx}, is absent and never exponentiated, as it may overflow.
    Raises FloatingPointError where an exponential overflows, or where the
    right medium's e^{ikx} at the span is below 1/DBL_MAX, so that T, its
    coefficient, would overflow.
    """
    w = compute_wavenumbers(s, energy)
    if degenerate_energies(s, energy):
        raise DegenerateWavenumberError("k = 0 in a region: the matching system is singular")
    x = s.interface_points()
    ik = 1j * region_wavenumbers(w)
    ik_l, ik_r = ik[:-1], ik[1:]
    block = np.zeros((x.size, 2, 4), dtype=complex)
    with np.errstate(over="raise", invalid="raise"):
        block[:, 0, 0] = np.exp(ik_l * x)
        block[:, 0, 1] = np.exp(-ik_l * x)
        block[:, 0, 2] = -np.exp(ik_r * x)
        block[:-1, 0, 3] = -np.exp(-ik_r[:-1] * x[:-1])
    check_transmitted_wave(w, s)
    block[:, 1] = block[:, 0] * np.column_stack((ik_l, -ik_l, ik_r, -ik_r))

    i = np.arange(x.size)[:, None, None]
    rows, cols = np.broadcast_arrays(2 * i + np.arange(2)[:, None], 2 * i - 1 + np.arange(4))
    inside = (cols >= 0) & (cols < 2 * x.size)
    band = np.zeros((2 * KL + KU + 1, 2 * x.size), dtype=complex)
    band[_DIAG + rows[inside] - cols[inside], cols[inside]] = block[inside]
    rhs = np.zeros(2 * x.size, dtype=complex)
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
    # barriers the even ones between the two media.
    return OracleSolution(
        r_full=complex(x[0]), t_full=complex(x[-1]),
        a=tuple(x[1::4]), b=tuple(x[2::4]), c=tuple(x[3:-1:4]), d=tuple(x[4::4]),
        residual=residual, condition=condition,
    )


def oracle_solution(s: LayeredStructure, energy: float) -> OracleSolution:
    return solve_matching_system(assemble_matching_system(s, energy))


def compare_with_pipeline(s: LayeredStructure, energy: float):
    """Max relative coefficient discrepancy between oracle and pipeline.

    Each family (r, t, the gap pairs a/b, the barrier pairs c/d) is
    scaled by its own largest oracle magnitude, floored at 1, so a large
    t_full cannot hide an error in the barrier coefficients.
    Returns (max_relative_discrepancy, oracle condition estimate,
    oracle residual).  The energy gate runs first, so a refused energy gets
    the message every other command prints; then the oracle, whose typed
    overflow report for a vanishing transmitted wave answers before the
    pipeline's.
    """
    check_energy(s, energy)
    ora = oracle_solution(s, energy)
    _, _, cp, cm = solve_structure(s, energy).regions
    table = np.column_stack((cp, cm))
    families = [
        (ora.r_full, table[0, 1]),
        (ora.t_full, table[-1, 0]),
        (np.column_stack((ora.a, ora.b)), table[1:-1:2]),
        (np.column_stack((ora.c, ora.d)), table[2:-1:2]),
    ]
    worst = 0.0
    for ref, got in families:  # hypot rounds as abs() does; numpy's vector abs may not
        err = ref - got
        scale = np.max(np.hypot(ref.real, ref.imag), initial=1.0)
        worst = max(worst, np.max(np.hypot(err.real, err.imag), initial=0.0) / scale)
    return worst, ora.condition, ora.residual
