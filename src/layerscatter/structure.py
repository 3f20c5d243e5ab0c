"""Potential geometry and energy-dependent wavenumbers.

All quantities are in scaled units where the stationary equation reads
-psi'' + u(x) psi = eps * psi, so potentials carry units of 1/length^2.

Each structure keeps one table of its barrier kinds, the distinct (height,
width) pairs (:attr:`LayeredStructure.kinds`).  The wavenumbers
(:func:`compute_wavenumbers`) and the k = 0 test (:func:`degenerate_energies`)
run per (energy, distinct barrier), as the barrier formula does, and are
spread to every barrier after: a lattice of N identical barriers takes one
square root per energy, not N.
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

# Every number that enters the program, a potential, length, energy, grid
# bound or nudge, must lie in [-DOMAIN, DOMAIN] (:func:`domain_error`).  There
# |k| <= sqrt(2 DOMAIN), about 1.4e75, so every 2 |k| L and every phase
# k (x - o) of psi stays below 3e225 and every k_n^2 +- k0^2 below 3.1e150:
# no step of a solve, a band scan or psi sampling can overflow.
DOMAIN = 1e150


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
    ``kinds`` groups the barriers by (height, width), built on first read.
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

    @cached_property
    def kinds(self):
        """(first, inverse) of the distinct (height, width) barriers, by
        :func:`_distinct`: ``first`` indexes one barrier of each kind and
        ``inverse`` gives each barrier's kind, so ``heights[first][inverse]``
        gives back ``heights``; None where no two barriers share both.  The
        wavenumbers, the k = 0 test and the barrier formula run once per kind."""
        heights, widths, _ = self.barrier_arrays
        return _distinct(widths, heights)

    def interface_points(self) -> np.ndarray:
        """All 2N+2 matching points: 0, each barrier edge, span.  Point i is
        the right end of region i of :func:`region_wavenumbers`."""
        _, widths, centers = self.barrier_arrays
        x = np.empty(2 * widths.size + 2)
        x[0], x[-1] = 0.0, self.span
        half = widths / 2.0
        np.subtract(centers, half, out=x[1:-1:2])
        np.add(centers, half, out=x[2:-1:2])
        return x


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


def _kind_heights(s: LayeredStructure) -> np.ndarray:
    """The height of each of ``s``'s barrier kinds (:attr:`LayeredStructure.kinds`)."""
    heights = s.barrier_arrays[0]
    return heights if s.kinds is None else heights[s.kinds[0]]


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


def domain_error(name: str, values) -> str | None:
    """The line that refuses the first of ``values``, a float or an array,
    outside [-DOMAIN, DOMAIN], NaN and +-inf included; None if all lie in it.
    A Python or numpy float is answered without building an array."""
    if isinstance(values, float):
        if abs(values) <= DOMAIN:
            return None
        bad = np.float64(values)  # spelled as an array's entry is
    else:
        v = np.asarray(values, dtype=float).ravel()
        outside = v[~(np.abs(v) <= DOMAIN)]
        if not outside.size:
            return None
        bad = outside[0]
    return f"{name} must lie in [{-DOMAIN}, {DOMAIN}], got {bad}"


def check_domain(*named_values) -> None:
    """Raise a ValueError with :func:`domain_error`'s line for the first of the
    (name, values) pairs that has a value outside the domain."""
    for name, values in named_values:
        if line := domain_error(name, values):
            raise ValueError(line)


def validate_structure(s: LayeredStructure) -> LayeredStructure:
    """Check domain/ordering/extent constraints; return ``s`` unchanged if valid.

    Raises :class:`StructureError` listing every violation, checked over
    ``s.barrier_arrays``: the media and the span in the domain
    (:func:`domain_error`) and a positive span, barrier by barrier its three
    values in the domain and a positive width, then the edges and overlaps.
    Touching barriers (zero-width gaps) are legal: edges are compared to within
    ``EDGE_ULPS`` ulps of the span, so rounding does not part or overlap them.
    """
    problems = [line for name in ("v_left", "v_right", "span")
                if (line := domain_error(name, getattr(s, name)))]
    if not s.span > 0:
        problems.append(f"span must be positive, got {s.span}")
    arrays = s.barrier_arrays
    outside = ~(np.abs(arrays) <= DOMAIN)
    bad_width = ~(arrays[1] > 0)
    for i in np.flatnonzero(outside.any(axis=0) | bad_width).tolist():
        for name, value in zip(("height", "width", "center"), arrays[:, i]):
            if line := domain_error(f"barrier {i + 1}: {name}", value):
                problems.append(line)
        if bad_width[i]:
            problems.append(f"barrier {i + 1}: width must be positive, got {arrays[1, i].item()}")
    if s.n_barriers and not outside[1:].any():  # widths and centers
        slack = EDGE_ULPS * math.ulp(s.span)
        x = s.interface_points()
        left, right = x[1:-1:2], x[2:-1:2]
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
        for i in np.flatnonzero(right[:-1] - left[1:] > slack).tolist():
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


def compute_wavenumbers(s: LayeredStructure, energy) -> WaveNumberSet:
    """Wavenumbers of every region at ``energy``, a float or an array (Im >= 0 branch).
    The barriers' roots are taken once per (energy, barrier kind) of
    :attr:`LayeredStructure.kinds` and spread to every barrier by one ``np.take``.
    ``energy`` is one that :func:`check_energy` admits: it is not checked here."""
    e = np.asarray(energy, dtype=float)
    return WaveNumberSet(
        k_left=branch_sqrt(e - s.v_left),
        k_right=branch_sqrt(e - s.v_right),
        k_gap=branch_sqrt(e),
        k_barrier=_spread(branch_sqrt(e[..., None] - _kind_heights(s)), s.kinds),
    )


def degenerate_energies(s: LayeredStructure, energy) -> np.ndarray:
    """Where k = 0 in the gaps (eps = 0) or inside a barrier (eps equal to
    its height), elementwise over ``energy``: there e^{+ikx} and e^{-ikx}
    coincide, so the plane-wave pieces are degenerate.  Also where k0 |k_n| <=
    0.5/DBL_MAX in a barrier, so that the barrier kernel's 1/(2 k_n k0) passes the
    largest double.  As |eps - u| >= ulp(eps)/2 wherever they differ, only
    energies in (0, TINY_ENERGY) can reach that, and only they are checked.
    Each energy is compared with the height of each barrier kind
    (:attr:`LayeredStructure.kinds`), not with every barrier."""
    e = np.asarray(energy, dtype=float)
    heights = _kind_heights(s)
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
    energy + nudge, or one ulp in the nudge's direction where that sum rounds
    back to the energy.  A zero nudge moves nothing."""
    e = np.array(energy, dtype=float)
    move = degenerate_energies(s, e) & (nudge != 0)
    d = e[move]
    moved = d + nudge
    e[move] = np.where(moved != d, moved, np.nextafter(d, math.copysign(math.inf, nudge)))
    return e


def check_energy(s: LayeredStructure, energy) -> None:
    """Admit ``energy``, a float or an array, to a solve on ``s``, or raise, in this
    order: ValueError for an eps outside the domain (:func:`domain_error`),
    EvanescentGapError for eps < 0, DegenerateWavenumberError where
    :func:`degenerate_energies` is set, with a line of its own for a tiny energy
    where no k is 0, and ArithmeticError for eps <= V1 (no incident wave)."""
    e = np.asarray(energy, dtype=float).ravel()
    check_domain(("energy", e))
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
