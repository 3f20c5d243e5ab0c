"""Brute-force verifier: dense solve of the full boundary-matching system.

Independent of the recurrence/matrix pipeline: it writes out value and
derivative continuity of the piecewise plane-wave ansatz at every
interface and solves the resulting (4N+4) x (4N+4) complex system
directly.  Raw global-coordinate exponentials become ill-conditioned
for strongly evanescent regions at large N, so verification is
restricted to modest N.  The one-norm condition number is estimated
from the LU factors the solve already has (LAPACK zgecon, the
Hager-Higham estimator) and reported so callers can relax comparison
tolerances in deep-tunneling regimes.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .structure import LayeredStructure, WaveNumberSet, compute_wavenumbers
from .wavefunction import solve_structure


@dataclass(frozen=True)
class MatchingSystem:
    """Dense continuity system A x = b.

    Unknown ordering: [R, a1, b1, c1, d1, ..., cN, dN, a_{N+1}, b_{N+1}, T].
    """

    matrix: np.ndarray
    rhs: np.ndarray
    structure: LayeredStructure
    wavenumbers: WaveNumberSet


@dataclass(frozen=True)
class OracleSolution:
    """Every coefficient of the scattering solution, from the dense solve."""

    r_full: complex
    t_full: complex
    a: tuple
    b: tuple
    c: tuple
    d: tuple
    residual: float
    condition: float


def assemble_matching_system(s: LayeredStructure, energy: float) -> MatchingSystem:
    """Two rows (value, derivative) per interface of the piecewise ansatz."""
    w = compute_wavenumbers(s, energy)
    nb = s.n_barriers
    size = 4 * nb + 4

    # Regions left to right: each entry is (k, [column indices of its
    # two coefficients]) for the e^{+ikx}, e^{-ikx} pair.  The incident
    # wave in medium 1 has fixed coefficient 1 and goes to the rhs.
    regions = [(w.k_left, [None, 0])]  # [incident (fixed), R]
    col = 1
    for n in range(nb):
        regions.append((w.k_gap, [col, col + 1]))       # a_n, b_n
        regions.append((w.k_barrier[n], [col + 2, col + 3]))  # c_n, d_n
        col += 4
    regions.append((w.k_gap, [col, col + 1]))           # a_{N+1}, b_{N+1}
    regions.append((w.k_right, [col + 2, None]))        # T, no leftward wave

    points = s.interface_points()
    mat = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    for i, x in enumerate(points):
        (k_l, cols_l) = regions[i]
        (k_r, cols_r) = regions[i + 1]
        row_v = 2 * i
        row_d = 2 * i + 1
        for k, cols, sign in ((k_l, cols_l, 1.0), (k_r, cols_r, -1.0)):
            plus = cmath.exp(1j * k * x)
            minus = cmath.exp(-1j * k * x)
            cp, cm = cols
            if cp is not None:
                mat[row_v, cp] += sign * plus
                mat[row_d, cp] += sign * 1j * k * plus
            if cm is not None:
                mat[row_v, cm] += sign * minus
                mat[row_d, cm] += sign * (-1j) * k * minus
        if i == 0:
            # incident unit wave e^{i k_left x} lives in the left region
            plus = cmath.exp(1j * w.k_left * x)
            rhs[row_v] -= plus
            rhs[row_d] -= 1j * w.k_left * plus
    return MatchingSystem(matrix=mat, rhs=rhs, structure=s, wavenumbers=w)


def solve_matching_system(m: MatchingSystem) -> OracleSolution:
    """LU solve with partial pivoting plus one iterative-refinement step.

    ``condition`` is 1/rcond from zgecon on the same LU factors: an
    estimate of the one-norm condition number, inf if rcond is 0.
    """
    a_mat = m.matrix
    lu, piv = scipy.linalg.lu_factor(a_mat)
    x = scipy.linalg.lu_solve((lu, piv), m.rhs)
    x += scipy.linalg.lu_solve((lu, piv), m.rhs - a_mat @ x)
    res = a_mat @ x - m.rhs
    rhs_scale = np.max(np.abs(m.rhs))
    residual = float(np.max(np.abs(res)) / rhs_scale)
    rcond, _ = scipy.linalg.lapack.zgecon(lu, np.linalg.norm(a_mat, 1), norm="1")
    condition = float(1.0 / rcond) if rcond > 0 else float("inf")

    nb = m.structure.n_barriers
    a_coef, b_coef, c_coef, d_coef = [], [], [], []
    col = 1
    for _ in range(nb):
        a_coef.append(x[col])
        b_coef.append(x[col + 1])
        c_coef.append(x[col + 2])
        d_coef.append(x[col + 3])
        col += 4
    a_coef.append(x[col])
    b_coef.append(x[col + 1])
    return OracleSolution(
        r_full=complex(x[0]),
        t_full=complex(x[col + 2]),
        a=tuple(a_coef),
        b=tuple(b_coef),
        c=tuple(c_coef),
        d=tuple(d_coef),
        residual=residual,
        condition=condition,
    )


def oracle_solution(s: LayeredStructure, energy: float) -> OracleSolution:
    return solve_matching_system(assemble_matching_system(s, energy))


def compare_with_pipeline(s: LayeredStructure, energy: float):
    """Max relative coefficient discrepancy between oracle and pipeline.

    Each family (r, t, the gap pairs a/b, the barrier pairs c/d) is
    scaled by its own largest oracle magnitude, floored at 1, so a large
    t_full cannot hide an error in the barrier coefficients.
    Returns (max_relative_discrepancy, oracle condition estimate,
    oracle residual).
    """
    ora = oracle_solution(s, energy)
    sol = solve_structure(s, energy)
    families = [
        ((ora.r_full,), (sol.embedded.r_full,)),
        ((ora.t_full,), (sol.embedded.t_full,)),
        (ora.a + ora.b, sol.a + sol.b),
        (ora.c + ora.d, sol.c + sol.d),
    ]
    worst = 0.0
    for ref, got in families:
        scale = max([1.0] + [abs(u) for u in ref])
        worst = max([worst] + [abs(u - v) / scale for u, v in zip(ref, got)])
    return worst, ora.condition, ora.residual
