"""Potential geometry and energy-dependent wavenumbers.

All quantities are in scaled units where the stationary equation reads
-psi'' + u(x) psi = eps * psi, so potentials carry units of 1/length^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    to a plain potential step/well.
    """

    v_left: float
    v_right: float
    span: float
    barriers: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "barriers", tuple(self.barriers))

    @property
    def n_barriers(self) -> int:
        return len(self.barriers)

    def interface_points(self):
        """All 2N+2 matching points: 0, each barrier edge, span."""
        pts = [0.0]
        for b in self.barriers:
            pts.append(b.left_edge)
            pts.append(b.right_edge)
        pts.append(self.span)
        return pts


def validate_structure(s: LayeredStructure) -> LayeredStructure:
    """Check ordering/extent constraints; return ``s`` unchanged if valid.

    Raises :class:`StructureError` listing every violation.  Touching
    barriers (zero-width gaps) are legal.
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
    finite = all(
        math.isfinite(b.width) and math.isfinite(b.center) for b in s.barriers
    )
    if finite:
        bs = s.barriers
        if bs:
            if bs[0].left_edge < 0:
                problems.append(
                    f"barrier 1 starts before the left medium edge "
                    f"(left edge {bs[0].left_edge} < 0)"
                )
            if bs[-1].right_edge > s.span:
                problems.append(
                    f"barrier {len(bs)} exceeds span "
                    f"(right edge {bs[-1].right_edge} > {s.span})"
                )
        for i in range(len(bs) - 1):
            if bs[i].right_edge > bs[i + 1].left_edge:
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

    energy: float
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
    heights = np.array([b.height for b in s.barriers])
    return WaveNumberSet(
        energy=energy,
        k_left=branch_sqrt(e - s.v_left),
        k_right=branch_sqrt(e - s.v_right),
        k_gap=branch_sqrt(e),
        k_barrier=branch_sqrt(e[..., None] - heights),
    )
