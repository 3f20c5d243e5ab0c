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

# Below this energy k0 |k_n| may fall under 0.5/DBL_MAX (2^-1025); from it on,
# k0 |k_n| >= sqrt(eps ulp(eps)/2) > 2^-1024 (:func:`degenerate_energies`).
TINY_ENERGY = 1e-300

# While eps and every |u| stay below this, |k_n^2 +- k0^2| stays near 2^1023 at
# most, under the largest double, and the energy rule takes no pass over them.
_HUGE = 2.0 ** 1021

# Below this span every region's 2 |k| L stays under 2^1022, as |k| < 2^513 for
# any finite eps and u, and the phase rule takes no pass over the regions.
_WIDE = 2.0 ** 508


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

    The barrier formula (``amplitudes._factored_barrier``) takes A sin and B sin
    as real, and the Bloch phase's half trace (``periodic._cos_beta``) takes
    cos k0 g and sin k0 g as real: both hold only for a real gap wavenumber k0.
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


@dataclass(frozen=True, eq=False)
class LayeredStructure:
    """N rectangular barriers on [0, span] between two semi-infinite media.

    The left medium (potential ``v_left``) occupies x <= 0, the right
    medium (``v_right``) occupies x >= span; between barriers the
    potential is zero.  No barriers give a plain potential step/well.

    The barriers are stored as one read-only (3, N) float array, left to
    right: ``heights, widths, centers = s.barrier_arrays``.  The constructor
    takes that array or a sequence of :class:`Barrier`; ``barriers`` is
    derived from the array.  Construction runs :func:`validate_structure`,
    so every structure that exists is valid.  Structures compare by value.
    """

    v_left: float
    v_right: float
    span: float
    barrier_arrays: np.ndarray = ()

    def __post_init__(self):
        arrays = self.barrier_arrays
        if not isinstance(arrays, np.ndarray):
            arrays = np.reshape([(b.height, b.width, b.center) for b in arrays], (-1, 3)).T
        arrays = np.array(arrays, dtype=float, order="C")
        if arrays.ndim != 2 or arrays.shape[0] != 3:
            raise ValueError(f"barrier arrays must have shape (3, N), got {arrays.shape}")
        arrays.flags.writeable = False
        object.__setattr__(self, "barrier_arrays", arrays)
        validate_structure(self)

    def _key(self):
        # + 0.0 turns -0.0 into 0.0, which it equals
        return self.v_left, self.v_right, self.span, (self.barrier_arrays + 0.0).tobytes()

    def __eq__(self, other):
        return isinstance(other, LayeredStructure) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n_barriers(self) -> int:
        return self.barrier_arrays.shape[1]

    @cached_property
    def barriers(self) -> tuple:
        """The barriers as :class:`Barrier` objects, left to right."""
        return tuple(Barrier(*hwc) for hwc in zip(*self.barrier_arrays.tolist()))

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


def region_lengths(s: LayeredStructure) -> np.ndarray:
    """Length of all 2N+3 regions, laid out as :func:`region_wavenumbers`: 0 for
    the two media, each barrier's width as stored, gap n <= N from centre
    differences, (c_n - c_{n-1}) - (w_n + w_{n-1})/2, which neighbours give nearly
    exactly wherever they sit, and gap N+1 = span - x_R(N).  The solver's segments
    and barrier coefficients and the oracle's matching system all take their
    distances within a region from here, so they measure one geometry."""
    _, widths, centers = s.barrier_arrays
    length = np.zeros(2 * widths.size + 3)
    length[1:-2:2] = np.diff(centers, prepend=0.0) - (widths + np.append(0.0, widths[:-1])) / 2.0
    length[2:-1:2] = widths
    length[-2] = s.span - (centers[-1] + widths[-1] / 2.0) if widths.size else s.span
    return length


def region_origins(s: LayeredStructure) -> np.ndarray:
    """(o+, o-) of all 2N+3 regions, laid out as :func:`region_wavenumbers`, for
    psi = c+ e^{ik(x - o+)} + c- e^{-ik(x - o-)}.  A barrier's waves start at its
    own edges, o+ = x_L and o- = x_R, so neither passes modulus 1 inside it (Li,
    JOSA A 13, 1024 (1996)); a gap's waves start at its left end, where the
    chain's segments meet, so a_n and b_n carry no phase of the gap's position;
    T's at the span, so T carries no e^{kappa span}; the left medium's, and R's, at 0.
    psi sampling places its waves by these; distances within a region come from
    :func:`region_lengths`."""
    x = s.interface_points()
    o = np.zeros((2, x.size + 1))
    o[:, 1:-1:2] = x[0:-1:2]
    o[:, 2:-1:2] = x[1:-1].reshape(-1, 2).T
    o[0, -1] = s.span
    return o


def validate_structure(s: LayeredStructure) -> LayeredStructure:
    """Check ordering/extent constraints; return ``s`` unchanged if valid.

    Raises :class:`StructureError` listing every violation, checked over
    ``s.barrier_arrays``: the media and the span, barrier by barrier its
    width and finiteness, then the edges and overlaps.  Touching barriers
    (zero-width gaps) are legal: edges are compared to within ``EDGE_ULPS``
    ulps of the span, so rounding does not part or overlap them.  An edge
    past the largest double lies outside the span and is refused as such.
    """
    problems = []
    if not (math.isfinite(s.v_left) and math.isfinite(s.v_right)):
        problems.append(
            f"v_left and v_right must be finite, got {s.v_left} and {s.v_right}"
        )
    if not (s.span > 0 and math.isfinite(s.span)):
        problems.append(f"span must be a positive finite real, got {s.span}")
    heights, widths, centers = s.barrier_arrays
    bad_width = ~((widths > 0) & np.isfinite(widths))
    bad_value = ~(np.isfinite(centers) & np.isfinite(heights))
    for i in np.flatnonzero(bad_width | bad_value).tolist():
        if bad_width[i]:
            problems.append(f"barrier {i + 1}: width must be positive, got {widths[i].item()}")
        if bad_value[i]:
            problems.append(f"barrier {i + 1}: center and height must be finite")
    if s.n_barriers and np.isfinite(s.barrier_arrays[1:]).all():  # widths and centers
        # a Python float, 2^974 at the largest double, whose np.spacing is inf
        slack = EDGE_ULPS * math.ulp(s.span) if math.isfinite(s.span) else 0.0
        with np.errstate(over="ignore"):  # an edge past the largest double is inf
            x = s.interface_points()
            left, right = x[1:-1:2], x[2:-1:2]
            overlaps = np.flatnonzero(right[:-1] - left[1:] > slack).tolist()
        if left[0] < -slack:
            problems.append(
                f"barrier 1 starts before the left medium edge "
                f"(left edge {float(left[0])} < 0)"
            )
        if float(right[-1]) - s.span > slack:
            problems.append(
                f"barrier {s.n_barriers} exceeds span "
                f"(right edge {float(right[-1])} > {s.span})"
            )
        for i in overlaps:
            problems.append(f"overlap between barriers {i + 1} and {i + 2}")
    if problems:
        raise StructureError(problems)
    return s


def mirror_structure(s: LayeredStructure) -> LayeredStructure:
    """Reflect the structure about its midpoint, swapping the two media.

    Left-incidence on the mirrored structure is equivalent to
    right-incidence on the original.
    """
    heights, widths, centers = s.barrier_arrays[:, ::-1]
    return LayeredStructure(s.v_right, s.v_left, s.span,
                            np.array([heights, widths, s.span - centers]))


def branch_sqrt(x):
    """Principal square root with Im >= 0, elementwise.

    Positive radicand gives a real positive root, negative gives a
    purely imaginary root with positive imaginary part, so exp{ikx}
    decays rightward in evanescent regions.
    """
    x = np.asarray(x, dtype=float)
    root = np.sqrt(np.abs(x))
    return np.where(x < 0, 1j * root, root)[()]


@dataclass(frozen=True)
class WaveNumberSet:
    """All region wavenumbers k = sqrt(eps - potential) at one energy or an
    array of energies; ``k_barrier`` adds a last axis over the barriers."""

    k_left: complex
    k_right: complex
    k_gap: complex
    k_barrier: np.ndarray


def _barrier_squares(k0, kn):
    """(k_n^2 + k0^2, k_n^2 - k0^2) as the barrier kernel takes them, k0 real and
    each k_n real or purely imaginary: about 2 eps - u and -u."""
    kr, ki = kn.real, kn.imag  # one of them is 0
    k2, k02 = kr * kr - ki * ki, k0 * k0
    return k2 + k02, k2 - k02


def _kernel_overflows(s: LayeredStructure, energy) -> np.ndarray:
    """Where a barrier's k_n^2 + k0^2 or k_n^2 - k0^2 passes the largest double,
    elementwise over ``energy`` (eps >= 0): the barrier kernel's arithmetic
    (:func:`_barrier_squares`) on the wavenumbers it is given, which overflows
    there.  Only when eps or some |u| reaches 2^1021 can it, and only then is it
    taken."""
    e = np.asarray(energy, dtype=float)
    heights = s.barrier_arrays[0]
    if max(e.max(initial=0.0), np.abs(heights).max(initial=0.0)) < _HUGE:
        return np.zeros(e.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        plus, minus = _barrier_squares(np.sqrt(e)[..., None], branch_sqrt(e[..., None] - heights))
        return ~(np.isfinite(plus) & np.isfinite(minus)).all(axis=-1)


def _phase_overflows(s: LayeredStructure, energy) -> np.ndarray:
    """Where some region's 2 |k| L passes the largest double, L its length from
    :func:`region_lengths`, elementwise over ``energy`` (eps >= 0): twice the
    phase that the steps, the barrier formula and the oracle take across it,
    which overflows there.  Finite eps and u give |k| < 2^513 and every L is
    about the span at most, so only a span from ``_WIDE`` up can overflow, and
    only there is it taken."""
    e = np.asarray(energy, dtype=float)
    if s.span < _WIDE:
        return np.zeros(e.shape, dtype=bool)
    lengths = region_lengths(s)
    with np.errstate(over="ignore"):
        gaps = 2.0 * np.sqrt(e)[..., None] * lengths[1:-1:2]
        barriers = 2.0 * np.sqrt(np.abs(e[..., None] - s.barrier_arrays[0])) * lengths[2:-1:2]
        return ~(np.isfinite(gaps).all(axis=-1) & np.isfinite(barriers).all(axis=-1))


def _finite_energy(energy) -> np.ndarray:
    """``energy`` as a float array, or ValueError where it is not finite."""
    e = np.asarray(energy, dtype=float)
    bad = e[~np.isfinite(e)]
    if bad.size:
        raise ValueError(f"energy must be finite, got {bad[0]}")
    return e


def compute_wavenumbers(s: LayeredStructure, energy) -> WaveNumberSet:
    """Wavenumbers of every region at ``energy``, a float or an array (Im >= 0 branch)."""
    e = _finite_energy(energy)
    return WaveNumberSet(
        k_left=branch_sqrt(e - s.v_left),
        k_right=branch_sqrt(e - s.v_right),
        k_gap=branch_sqrt(e),
        k_barrier=branch_sqrt(e[..., None] - s.barrier_arrays[0]),
    )


def degenerate_energies(s: LayeredStructure, energy) -> np.ndarray:
    """Where k = 0 in the gaps (eps = 0) or inside a barrier (eps equal to
    its height), elementwise over ``energy``: there e^{+ikx} and e^{-ikx}
    coincide, so the plane-wave pieces are degenerate.  Also where k0 |k_n| <=
    0.5/DBL_MAX in a barrier, so that the barrier kernel's 1/(2 k_n k0) passes the
    largest double.  As |eps - u| >= ulp(eps)/2 wherever they differ, only
    energies in (0, TINY_ENERGY) can reach that, and only they are checked."""
    e = np.asarray(energy, dtype=float)
    heights = s.barrier_arrays[0]
    bad = (e[..., None] == heights).any(axis=-1)
    if e.min(initial=TINY_ENERGY) >= TINY_ENERGY:  # no eps = 0 and no tiny eps
        return bad
    tiny = np.asarray((e > 0.0) & (e < TINY_ENERGY))
    bad = np.asarray(bad | (e == 0.0))
    et = e[tiny][:, None]
    k0_kn = np.sqrt(et) * np.sqrt(np.abs(et - heights))
    bad[tiny] |= (k0_kn <= 0.5 / np.finfo(float).max).any(axis=-1)
    return bad[()]


def off_degenerate(s: LayeredStructure, energy, nudge: float) -> np.ndarray:
    """``energy`` with every point of :func:`degenerate_energies` moved to
    energy + nudge where that sum is finite and differs from the energy, and
    otherwise one ulp in the nudge's direction, or one ulp the other way where
    that step would leave the finite doubles.  A zero nudge moves nothing.
    Only the moved points are stepped, so an energy near the largest double
    that stays put cannot overflow."""
    e = np.array(energy, dtype=float)
    move = degenerate_energies(s, e) & (nudge != 0)
    d = e[move]
    up = math.copysign(math.inf, nudge)
    with np.errstate(over="ignore"):
        moved, ulp, back = d + nudge, np.nextafter(d, up), np.nextafter(d, -up)
    ulp = np.where(np.isfinite(ulp), ulp, back)
    e[move] = np.where(np.isfinite(moved) & (moved != d), moved, ulp)
    return e


def check_energy(s: LayeredStructure, energy) -> None:
    """Admit ``energy``, a float or an array, to a solve on ``s``, or raise, in this
    order: ValueError for a non-finite eps, EvanescentGapError for eps < 0,
    DegenerateWavenumberError where :func:`degenerate_energies` is set, with a
    line of its own for a tiny energy where no k is 0, ArithmeticError for
    eps <= V1 (no incident wave), and then what :func:`check_overflow` raises."""
    e = _finite_energy(energy).ravel()
    bad = e[e < 0]
    if bad.size:
        raise EvanescentGapError(
            f"energy {bad[0]} < 0: the gaps between barriers are evanescent, "
            "which the star products and the Bloch phase do not support"
        )
    bad = e[degenerate_energies(s, e)]
    if bad.size:
        if bad[0] == 0.0 or (bad[0] == s.barrier_arrays[0]).any():
            cause = "makes k = 0 in a gap or a barrier, where the plane waves are degenerate"
        else:
            cause = ("is so small that k0 |k_n| <= 0.5/DBL_MAX in a barrier, "
                     "where the barrier formula's 1/(2 k_n k0) overflows")
        raise DegenerateWavenumberError(f"energy {bad[0]} {cause}; nudge the energy")
    bad = e[e <= s.v_left]
    if bad.size:
        raise ArithmeticError(
            f"energy {bad[0]} does not propagate in the left medium (V1 = {s.v_left})"
        )
    check_overflow(s, e)


def check_overflow(s: LayeredStructure, energy) -> None:
    """The last two rules of :func:`check_energy`, for finite ``energy`` >= 0, a
    float or an array: OverflowError where the barrier kernel overflows
    (:func:`_kernel_overflows`), from eps of about 2^1023 - u/2 up, and then
    where a region's phase does (:func:`_phase_overflows`)."""
    e = np.asarray(energy, dtype=float).ravel()
    bad = e[_kernel_overflows(s, e)]
    if bad.size:
        raise OverflowError(
            f"energy {bad[0]} makes k_n^2 + k0^2 or k_n^2 - k0^2 (about 2 eps - u and -u) "
            "pass the largest double in a barrier, where the barrier formula overflows"
        )
    bad = e[_phase_overflows(s, e)]
    if bad.size:
        raise OverflowError(
            f"energy {bad[0]} makes 2 |k| L, twice the phase across a region of length L, "
            "pass the largest double, where its plane waves overflow"
        )

