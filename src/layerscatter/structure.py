"""Potential geometry and energy-dependent wavenumbers.

All quantities are in scaled units where the stationary equation reads
-psi'' + u(x) psi = eps * psi, so potentials carry units of 1/length^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Slack of the edge comparisons, in ulps of the span: the sums that place
# barriers (or a mirror's span - center) part or overlap touching edges by up
# to 2 ulps over random touching lattices, chains and their mirrors.
EDGE_ULPS = 8


class StructureError(ValueError):
    """Raised when a layered structure violates its geometric constraints.

    ``problems`` lists every violated constraint with the offending
    barrier index (1-based).
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DegenerateWavenumberError(ValueError):
    """Raised when a formula would divide by a vanishing wavenumber."""


class EvanescentGapError(ArithmeticError):
    """The energy is negative, so the zero-potential gaps are evanescent.

    The recurrence, the embedding, the leftward map and the Bloch phase
    use conjugate relations that hold only for a real gap wavenumber.
    """


@dataclass(frozen=True)
class Barrier:
    """One rectangular potential: height u, width d > 0, midpoint x."""

    height: float
    width: float
    center: float

    @property
    def left_edge(self) -> float:
        return self.center - self.width / 2.0

    @property
    def right_edge(self) -> float:
        return self.center + self.width / 2.0


@dataclass(frozen=True)
class LayeredStructure:
    """N rectangular barriers on [0, span] between two semi-infinite media.

    The left medium (potential ``v_left``) occupies x <= 0, the right
    medium (``v_right``) occupies x >= span; between barriers the
    potential is zero.  An empty barrier list is legal and degenerates
    to a plain potential step/well.  Construction runs
    :func:`validate_structure`, so every structure that exists is valid.
    """

    v_left: float
    v_right: float
    span: float
    barriers: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "barriers", tuple(self.barriers))
        validate_structure(self)

    @property
    def n_barriers(self) -> int:
        return len(self.barriers)

    @cached_property
    def barrier_arrays(self) -> np.ndarray:
        """Read-only (3, N) array of the barriers' heights, widths and centers,
        left to right: ``heights, widths, centers = s.barrier_arrays``."""
        arrays = np.array([(b.height, b.width, b.center) for b in self.barriers], float)
        arrays = arrays.reshape(-1, 3).T
        arrays.flags.writeable = False
        return arrays

    def interface_points(self) -> np.ndarray:
        """All 2N+2 matching points: 0, each barrier edge, span.  Point i is
        the right end of region i of :func:`region_wavenumbers`."""
        _, widths, centers = self.barrier_arrays
        edges = np.column_stack((centers - widths / 2.0, centers + widths / 2.0))
        return np.concatenate(([0.0], edges.ravel(), [self.span]))


def region_wavenumbers(w: WaveNumberSet) -> np.ndarray:
    """k of all 2N+3 regions, left to right: left medium, gap 1, barrier 1,
    ..., barrier N, gap N+1, right medium.  This is the one region layout of
    the solver's coefficient table and the banded oracle's unknowns."""
    k = np.empty(2 * w.k_barrier.size + 3, dtype=complex)
    k[0], k[1:-1:2], k[2:-1:2], k[-1] = w.k_left, w.k_gap, w.k_barrier, w.k_right
    return k


def validate_structure(s: LayeredStructure) -> LayeredStructure:
    """Check ordering/extent constraints; return ``s`` unchanged if valid.

    Raises :class:`StructureError` listing every violation.  Touching
    barriers (zero-width gaps) are legal: edges are compared to within
    ``EDGE_ULPS`` ulps of the span, so rounding does not part or overlap them.
    """
    problems = []
    if not (math.isfinite(s.v_left) and math.isfinite(s.v_right)):
        problems.append(
            f"v_left and v_right must be finite, got {s.v_left} and {s.v_right}"
        )
    if not (s.span > 0 and math.isfinite(s.span)):
        problems.append(f"span must be a positive finite real, got {s.span}")
    for i, b in enumerate(s.barriers, start=1):
        if not (b.width > 0 and math.isfinite(b.width)):
            problems.append(f"barrier {i}: width must be positive, got {b.width}")
        if not (math.isfinite(b.center) and math.isfinite(b.height)):
            problems.append(f"barrier {i}: center and height must be finite")
    if s.barriers and np.isfinite(s.barrier_arrays[1:]).all():  # widths and centers
        x = s.interface_points()
        left, right = x[1:-1:2], x[2:-1:2]
        slack = EDGE_ULPS * np.spacing(abs(s.span)) if math.isfinite(s.span) else 0.0
        if left[0] < -slack:
            problems.append(
                f"barrier 1 starts before the left medium edge "
                f"(left edge {float(left[0])} < 0)"
            )
        if right[-1] > s.span + slack:
            problems.append(
                f"barrier {s.n_barriers} exceeds span "
                f"(right edge {float(right[-1])} > {s.span})"
            )
        for i in np.flatnonzero(right[:-1] > left[1:] + slack).tolist():
            problems.append(f"overlap between barriers {i + 1} and {i + 2}")
    if problems:
        raise StructureError(problems)
    return s


def mirror_structure(s: LayeredStructure) -> LayeredStructure:
    """Reflect the structure about its midpoint, swapping the two media.

    Left-incidence on the mirrored structure is equivalent to
    right-incidence on the original.
    """
    barriers = tuple(
        Barrier(b.height, b.width, s.span - b.center) for b in reversed(s.barriers)
    )
    return LayeredStructure(s.v_right, s.v_left, s.span, barriers)


def branch_sqrt(x):
    """Principal square root with Im >= 0, elementwise.

    Positive radicand gives a real positive root, negative gives a
    purely imaginary root with positive imaginary part, so exp{ikx}
    decays rightward in evanescent regions.
    """
    return np.sqrt(np.asarray(x, dtype=complex))


@dataclass(frozen=True)
class WaveNumberSet:
    """All region wavenumbers k = sqrt(eps - potential) at one energy or an
    array of energies; ``k_barrier`` adds a last axis over the barriers."""

    k_left: complex
    k_right: complex
    k_gap: complex
    k_barrier: np.ndarray


def compute_wavenumbers(s: LayeredStructure, energy) -> WaveNumberSet:
    """Wavenumbers of every region at ``energy``, a float or an array (Im >= 0 branch)."""
    e = np.asarray(energy, dtype=float)
    bad = e[~np.isfinite(e)]
    if bad.size:
        raise ValueError(f"energy must be finite, got {bad[0]}")
    return WaveNumberSet(
        k_left=branch_sqrt(e - s.v_left),
        k_right=branch_sqrt(e - s.v_right),
        k_gap=branch_sqrt(e),
        k_barrier=branch_sqrt(e[..., None] - s.barrier_arrays[0]),
    )


def degenerate_energies(s: LayeredStructure, energy) -> np.ndarray:
    """Where k = 0 in the gaps (eps = 0) or inside a barrier (eps equal to
    its height), elementwise over ``energy``: there e^{+ikx} and e^{-ikx}
    coincide, so the plane-wave pieces are degenerate."""
    e = np.asarray(energy, dtype=float)
    return (e == 0.0) | (e[..., None] == s.barrier_arrays[0]).any(axis=-1)


def check_energy(s: LayeredStructure, energy) -> None:
    """Admit ``energy``, a float or an array, to a solve on ``s``, or raise, in this
    order: EvanescentGapError for eps < 0, DegenerateWavenumberError where
    :func:`degenerate_energies` is set, ArithmeticError for eps <= V1 (no incident wave)."""
    e = np.asarray(energy, dtype=float).ravel()
    bad = e[e < 0]
    if bad.size:
        raise EvanescentGapError(
            f"energy {bad[0]} < 0: the gaps between barriers are evanescent, "
            "which the recurrence and the Bloch phase do not support"
        )
    bad = e[degenerate_energies(s, e)]
    if bad.size:
        raise DegenerateWavenumberError(
            f"energy {bad[0]} makes k = 0 in a gap or a barrier, "
            "where the plane waves are degenerate; nudge the energy"
        )
    bad = e[e <= s.v_left]
    if bad.size:
        raise ArithmeticError(
            f"energy {bad[0]} does not propagate in the left medium (V1 = {s.v_left})"
        )


def check_transmitted_wave(w: WaveNumberSet, s: LayeredStructure) -> None:
    """Raise FloatingPointError where the right medium's e^{ikx} is below
    1/DBL_MAX at the span, so that T, its coefficient, would overflow."""
    wave = np.abs(np.exp(1j * np.asarray(w.k_right) * s.span))
    if np.any(wave < 1.0 / np.finfo(float).max):
        raise FloatingPointError("the right medium's e^{ikx} vanishes at the span: T overflows")
