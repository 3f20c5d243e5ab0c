import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from layerscatter import (
    Barrier,
    DegenerateWavenumberError,
    LayeredStructure,
    PeriodicLattice,
    all_barrier_amplitudes,
    barrier_amplitudes,
    compute_wavenumbers,
    decay_rate,
    embed_in_media,
    interface_amplitudes,
    prefix_by_matrix,
    prefix_by_recurrence,
    reflection_probability,
    transmission_probability,
)
from layerscatter import amplitudes, structure
from layerscatter.amplitudes import _factored_barrier, _inverse_matrix, scattering_amplitudes
from layerscatter.structure import (
    TINY_ENERGY,
    branch_sqrt,
    degenerate_energies,
    mirror_structure,
)

from conftest import random_structure, recurrence_prefixes, reference_prefix, reference_psi


def setup(s, e):
    w = compute_wavenumbers(s, e)
    return w, interface_amplitudes(w, s), all_barrier_amplitudes(w, s)


class TestInterfaceAmplitudes:
    def test_trivial_left_interface(self):
        s = LayeredStructure(0.0, 0.0, 4.0, ())
        w, (t_left, r_left, _, _), _ = setup(s, 4.0)
        assert t_left == 1.0
        assert r_left == 0.0

    def test_left_step(self):
        s = LayeredStructure(3.0, 0.0, 4.0, ())
        w, (t_left, r_left, _, _), _ = setup(s, 4.0)  # k10=1, k0=2
        assert t_left == pytest.approx(2 / 3)
        assert r_left == pytest.approx(-1 / 3)

    def test_right_step_with_phases(self):
        s = LayeredStructure(0.0, 3.0, 1.0, ())
        w, (_, _, t_right, r_right), _ = setup(s, 4.0)  # k0=2, k02=1, span=1
        # t belongs to the wave e^{ik02 (x - span)} that starts at the step
        assert t_right == pytest.approx(4 / 3 * cmath.exp(2j))
        assert r_right == pytest.approx(1 / 3 * cmath.exp(4j))

    def test_degenerate_sum_rejected(self):
        # principal roots have Re >= 0 and Im >= 0, so a wavenumber sum at an
        # interface vanishes only where both vanish, which needs k_gap = 0:
        # the energy gate refuses eps = 0 before any step is taken
        s0 = LayeredStructure(0.0, 0.0, 4.0, ())
        with pytest.raises(DegenerateWavenumberError):
            scattering_amplitudes(s0, 0.0)


class TestBarrierAmplitudes:
    def test_transparent_barrier(self):
        s = LayeredStructure(0.0, 0.0, 4.0, (Barrier(0.0, 1.0, 2.0),))
        w = compute_wavenumbers(s, 4.0)
        t, r, _ = barrier_amplitudes(w, s, 0)
        # the segment runs from 0 to the barrier's right edge x_R = 2.5
        assert t == pytest.approx(np.exp(1j * w.k_gap * 2.5))
        assert r == pytest.approx(0.0)

    def test_tunneling_magnitude(self):
        # independent oracle: |t|^2 = [1 + u^2 sinh^2(kappa d) / (4 e (u-e))]^-1
        s = LayeredStructure(0.0, 0.0, 3.0, (Barrier(2.0, 1.0, 1.5),))
        w = compute_wavenumbers(s, 1.0)
        t, r, _ = barrier_amplitudes(w, s, 0)
        expected = 1.0 / (1.0 + 4.0 * math.sinh(1.0) ** 2 / 4.0)
        assert abs(t) ** 2 == pytest.approx(expected, rel=1e-13)

    def test_unitarity(self, rng):
        for _ in range(30):
            s, e = random_structure(rng)
            if s.n_barriers == 0:
                continue
            w = compute_wavenumbers(s, e)
            for n in range(s.n_barriers):
                t, r, _ = barrier_amplitudes(w, s, n)
                assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-13)

    def test_k_n_zero_rejected(self):
        s = LayeredStructure(0.0, 0.0, 4.0, (Barrier(4.0, 1.0, 2.0),))
        with pytest.raises(DegenerateWavenumberError):
            scattering_amplitudes(s, 4.0)

    def test_thick_evanescent_barrier_no_overflow(self):
        # |Im(k_n) d_n| ~ 400: naive cosh would overflow at ~710, and the
        # ratio r/t cancels exponentials that individually reach e^400
        s = LayeredStructure(0.0, 0.0, 300.0, (Barrier(4.0, 200.0, 150.0),))
        w = compute_wavenumbers(s, 1.0)
        t, r, _ = barrier_amplitudes(w, s, 0)
        assert math.isfinite(abs(t)) and math.isfinite(abs(r))
        assert abs(r) == pytest.approx(1.0, abs=1e-12)
        assert abs(t) < 1e-100


def per_segment_amplitudes(w, s):
    """(t, r, r') with the single-barrier formula and the gap phase taken on
    every (energy, segment) pair, as one expression per output: the reference
    for the evaluation over distinct barriers and gaps."""
    _, widths, centers = s.barrier_arrays
    gaps = np.diff(centers, prepend=0.0) - (widths + np.append(0.0, widths[:-1])) / 2.0
    k0 = np.asarray(w.k_gap).real[..., None]
    m, c, bs = _factored_barrier(k0, w.k_barrier, widths)
    inv_c = 1.0 / c
    rb = inv_c * (1j * bs)
    ph = np.exp(1j * (k0 * gaps))
    return ph * (np.exp(-m) * inv_c), ph * ph * rb, rb


def per_barrier_wavenumbers(s, energy):
    """k of every barrier, the square root taken on every (energy, barrier) pair."""
    return branch_sqrt(np.asarray(energy, dtype=float)[..., None] - s.barrier_arrays[0])


def per_barrier_degenerate(s, energy):
    """degenerate_energies with every energy compared with every barrier."""
    e = np.asarray(energy, dtype=float)
    heights = s.barrier_arrays[0]
    bad = (e[..., None] == heights).any(axis=-1) | (e == 0.0)
    et = e[..., None]
    k0_kn = np.sqrt(np.abs(et)) * np.sqrt(np.abs(et - heights))
    tiny = (e > 0.0) & (e < TINY_ENERGY)
    return bad | (tiny & (k0_kn <= 0.5 / np.finfo(float).max).any(axis=-1))


def _lattice(count=64):
    return PeriodicLattice(3.0, 1.0, 2.0, count).to_structure()


def _edited(s, row, index, value):
    arrays = s.barrier_arrays.copy()
    arrays[row, index] = value
    return LayeredStructure(s.v_left, s.v_right, s.span, arrays)


def _superlattice(periods=16):
    # ABAB...: a 3-high unit barrier and a 5-high half-unit one, 2 apart
    n = 2 * periods
    centers = 1.0 + 2.0 * np.arange(n)
    return LayeredStructure(0.0, 0.0, 2.0 * n, np.array(
        [np.tile([3.0, 5.0], periods), np.tile([1.0, 0.5], periods), centers]))


DISTINCT_CASES = {
    "lattice": _lattice(),
    "one-height-changed": _edited(_lattice(), 0, 17, 3.5),
    "one-barrier-moved": _edited(_lattice(), 2, 17, 35.3),
    "superlattice": _superlattice(),
    "mirrored-lattice": mirror_structure(_lattice(63)),
    "random-chain": random_structure(np.random.default_rng(5), max_barriers=12)[0],  # 8, unlike
    "no-barriers": LayeredStructure(0.0, 0.0, 4.0, ()),
}


class TestDistinctBarriersAndGaps:
    """all_barrier_amplitudes evaluates the formula once per distinct barrier and
    gap; its outputs are bitwise those of the formula on every segment."""

    @pytest.mark.parametrize("name", list(DISTINCT_CASES))
    @pytest.mark.parametrize("energy", [
        # below 3, between 3 and 5 and above 5: evanescent and propagating mixed
        np.array([[0.7, 2.9, 3.1], [4.6, 5.2, 9.4]]), 4.6,
    ], ids=["mixed-array", "scalar"])
    def test_bitwise_equal_to_per_segment_formula(self, name, energy):
        s = DISTINCT_CASES[name]
        w = compute_wavenumbers(s, energy)
        got = all_barrier_amplitudes(w, s)
        for x, y in zip(got, per_segment_amplitudes(w, s)):
            assert x.shape == y.shape == np.shape(energy) + (s.n_barriers,)
            assert np.array_equal(x, y)
            assert x.flags.c_contiguous

    @pytest.mark.parametrize("name", list(DISTINCT_CASES))
    @pytest.mark.parametrize("energy", [
        np.array([[0.7, 2.9, 3.1], [4.6, 5.2, 9.4]]), 4.6,
        # k = 0 in the gaps and in the lattice's or superlattice's barriers, and tiny
        np.array([[0.0, 1e-310, 3.0], [5.0, 3.5, 1e-300]]),
    ], ids=["mixed-array", "scalar", "degenerate"])
    def test_wavenumbers_and_k0_test_equal_per_barrier(self, name, energy):
        # taken per barrier kind and spread, they equal the per-barrier formulas
        s = DISTINCT_CASES[name]
        k = compute_wavenumbers(s, energy).k_barrier
        assert k.shape == np.shape(energy) + (s.n_barriers,)
        assert np.array_equal(k, per_barrier_wavenumbers(s, energy))
        got = degenerate_energies(s, energy)
        assert np.shape(got) == np.shape(energy)
        assert np.array_equal(got, per_barrier_degenerate(s, energy))

    def test_bitwise_equal_on_a_long_chain_and_a_wide_grid(self):
        # arrays past numpy's temporary-reuse size, which changes the order of
        # the complex products' operands, and the T and R the tree makes of them
        s = _lattice(2000)
        e = np.linspace(0.5, 12.0, 300)
        e[degenerate_energies(s, e)] += 1e-9
        w = compute_wavenumbers(s, e)
        got, ref = all_barrier_amplitudes(w, s), per_segment_amplitudes(w, s)
        for x, y in zip(got, ref):
            assert np.array_equal(x, y)
            assert x.flags.c_contiguous
        for x, y in zip(prefix_by_recurrence(got), prefix_by_recurrence(ref)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("s, distinct", [
        (_lattice(2000), 1),
        (_superlattice(), 2),
        (_edited(_lattice(), 0, 17, 3.5), 2),
        (DISTINCT_CASES["random-chain"], DISTINCT_CASES["random-chain"].n_barriers),
    ], ids=["lattice-2000", "superlattice", "one-height-changed", "random-chain"])
    def test_formula_runs_once_per_distinct_barrier(self, monkeypatch, s, distinct):
        # and so do the barriers' square roots, the one 2-D branch_sqrt
        shapes, roots = [], []

        def recording(k0, kn, width):
            shapes.append(np.shape(kn))
            return _factored_barrier(k0, kn, width)

        def recording_sqrt(x):
            roots.append(np.shape(x))
            return branch_sqrt(x)

        monkeypatch.setattr(amplitudes, "_factored_barrier", recording)
        monkeypatch.setattr(structure, "branch_sqrt", recording_sqrt)
        all_barrier_amplitudes(compute_wavenumbers(s, np.array([2.0, 4.6, 6.1, 7.3])), s)
        assert shapes == [(4, distinct)]
        assert [shape for shape in roots if len(shape) == 2] == [(4, distinct)]


class TestPrefixSequences:
    def test_initial_conditions(self):
        amps = all_barrier_amplitudes(
            compute_wavenumbers(LayeredStructure(0, 0, 1.0, ()), 2.0),
            LayeredStructure(0, 0, 1.0, ()),
        )
        assert reference_prefix(amps) == (1.0, 0.0)

    def test_single_step_reproduces_barrier(self):
        s = LayeredStructure(0, 0, 4.0, (Barrier(3.0, 1.0, 2.0),))
        w = compute_wavenumbers(s, 4.6)
        amps = all_barrier_amplitudes(w, s)
        t_n, r_n = reference_prefix(amps)
        assert t_n == pytest.approx(amps[0][0], rel=1e-14)
        assert r_n == pytest.approx(amps[1][0], rel=1e-14)

    def test_matrix_identity_for_empty(self):
        s = LayeredStructure(0, 0, 1.0, ())
        amps = all_barrier_amplitudes(compute_wavenumbers(s, 2.0), s)
        assert prefix_by_matrix(amps) == ((1.0,), (0.0,))

    def test_recurrence_matches_matrix(self, rng):
        for _ in range(40):
            s, e = random_structure(rng, max_barriers=12)
            w = compute_wavenumbers(s, e)
            amps = all_barrier_amplitudes(w, s)
            pa = recurrence_prefixes(amps)
            pb = prefix_by_matrix(amps)
            for ta, ra, tb, rb in zip(*pa, *pb):
                assert abs(ta - tb) <= 1e-12 * abs(ta)
                assert abs(ra - rb) <= 1e-12 * max(abs(ra), 1.0)

    def test_prefix_unitarity(self, rng):
        for _ in range(30):
            s, e = random_structure(rng)
            w = compute_wavenumbers(s, e)
            pre = recurrence_prefixes(all_barrier_amplitudes(w, s))
            for t, r in zip(*pre):
                assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_prefix_matrix_determinant_one(self, rng):
        for _ in range(30):
            s, e = random_structure(rng)
            w = compute_wavenumbers(s, e)
            amps = all_barrier_amplitudes(w, s)
            acc = np.eye(2, dtype=complex)
            for t, r in zip(*amps[:2]):
                acc = _inverse_matrix(t, r) @ acc
                # det is quadratic in the entries, which grow large in
                # deep forbidden bands; bound the error relative to that
                scale = max(1.0, float(np.abs(acc).max()) ** 2)
                assert abs(np.linalg.det(acc) - 1.0) <= 1e-12 * scale

    def test_composition_consistency(self, rng):
        # prefix of 1..N equals prefix of 1..m composed with the matrix
        # product of m+1..N, for any split m
        for _ in range(10):
            s, e = random_structure(rng, max_barriers=8)
            if s.n_barriers < 2:
                continue
            w = compute_wavenumbers(s, e)
            amps = all_barrier_amplitudes(w, s)
            full = prefix_by_matrix(amps)
            n = s.n_barriers
            m = n // 2
            acc = np.eye(2, dtype=complex)
            for t, r in zip(amps[0][:m], amps[1][:m]):
                acc = _inverse_matrix(t, r) @ acc
            for t, r in zip(amps[0][m:], amps[1][m:]):
                acc = _inverse_matrix(t, r) @ acc
            t_n = 1.0 / acc[1, 1]
            assert t_n == pytest.approx(full[0][n], rel=1e-12)


@st.composite
def chains(draw):
    """A chain of 0-64 barriers over a zero background, touching or apart,
    heights up to 1e6, and energies of shape () or (k,) that no barrier
    height makes degenerate."""
    n = draw(st.integers(0, 64))
    # u <= 10 is a height of u, u > 10 one of 10^(u - 10), up to 1e6;
    # a negative v is a zero gap: touching barriers
    u, d, v = (draw(arrays(float, n + 1, elements=st.floats(lo, hi)))
               for lo, hi in ((-5.0, 16.0), (0.01, 2.0), (-0.5, 1.5)))
    heights = np.where(u <= 10.0, u, 10.0 ** (u - 10.0))
    gaps = np.maximum(v, 0.0)
    barriers, x = [], gaps[0]
    for h, w, g in zip(heights[:n], d[:n], gaps[1:]):
        barriers.append(Barrier(float(h), float(w), float(x + w / 2.0)))
        x += w + g
    s = LayeredStructure(0.0, 0.0, max(float(x), 0.5), tuple(barriers))
    e = draw(st.floats(0.01, 12.0) | st.lists(st.floats(0.01, 12.0), min_size=1, max_size=3))
    e = np.asarray(e)
    return s, np.where(degenerate_energies(s, e), e + 1e-6, e)[()]


def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gdiv(a, b):
    """a / b as a complex double, each part rounded once from the exact quotient."""
    den = b[0] * b[0] + b[1] * b[1]
    return complex((a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den)


def _exact_chain(t, r, rp):
    """(T, R) of one chain of barriers, each a transfer matrix
    [[t - r r'/t, r'/t], [-r/t, 1/t]], multiplied out without rounding.

    Each factor is scaled by t 4^k, into [[t^2 - r r', r'], [-r, 1]] 4^k,
    with the least k that makes its doubles times 2^k integers: a t of 0
    needs no division and every entry is an integer.  The scaling cancels
    in R = -M21/M22 and is undone in T = prod(t)/M22.
    """
    m = ((1, 0), (0, 0), (0, 0), (1, 0))
    prod_t, undo = (1, 0), 1
    for z in zip(t, r, rp):
        parts = [Fraction(x) for c in z for x in (c.real, c.imag)]
        k = max(x.denominator.bit_length() - 1 for x in parts)
        ints = [int(x * 2 ** k) for x in parts]
        tn, rn, pn = (tuple(ints[i:i + 2]) for i in (0, 2, 4))
        a11 = tuple(u - v for u, v in zip(_gmul(tn, tn), _gmul(rn, pn)))
        a12, a21, a22 = (pn[0] << k, pn[1] << k), (-rn[0] << k, -rn[1] << k), (1 << 2 * k, 0)
        m11, m12, m21, m22 = m
        m = tuple(tuple(u + v for u, v in zip(_gmul(x, y), _gmul(w, q)))
                  for x, y, w, q in ((a11, m11, a12, m21), (a11, m12, a12, m22),
                                     (a21, m11, a22, m21), (a21, m12, a22, m22)))
        prod_t, undo = _gmul(prod_t, tn), undo << k
    return _gdiv((prod_t[0] * undo, prod_t[1] * undo), m[3]), _gdiv((-m[2][0], -m[2][1]), m[3])


def exact_transfer(amps):
    """(T, R) of the chain from the product of transfer matrices on the same
    (t, r, r') as the tree, in exact rational arithmetic: the composition
    without rounding, in neither the tree's pairing order nor its formula.

    The float recurrence of :func:`reference_prefix` is no referee for
    chains of opaque barriers.  Its 1/T overflows once T is below the
    smallest normal double, and near a resonance between two opaque
    barriers the chain is ill-conditioned in the barrier amplitudes: R
    moves by 1e-12 when (t, r) move by their rounding, so the recurrence,
    which takes r' = -r* t/t* from the rounded (t, r), and the tree differ
    by that much (1.6e-12 on ``OPAQUE_PAIR`` below, where the tree is within
    3e-15 of this product).
    """
    shape = np.shape(amps[0])[:-1]
    n = np.shape(amps[0])[-1]
    chains = zip(*(np.reshape(x, (int(np.prod(shape)), n)) for x in amps))
    t, r = zip(*(_exact_chain(*c) for c in chains))
    return tuple(np.reshape(np.array(x, dtype=complex), shape)[()] for x in (t, r))


def _chain(n, height=3.0, energy=4.6):
    s = PeriodicLattice(height, 1.0, 2.0, n).to_structure()
    return all_barrier_amplitudes(compute_wavenumbers(s, energy), s)


class TestStarProductTree:
    """The star-product tree of prefix_by_recurrence against the tests'
    two-term recurrence (reference_prefix) and, on chains up to heights of
    1e6, against a 40-digit transfer-matrix product (exact_transfer)."""

    OPAQUE_PAIR = LayeredStructure(0.0, 0.0, 2.53125, (
        Barrier(0.0, 0.5, 0.25), Barrier(-2.0, 1.0, 1.0), Barrier(16022.0, 0.03125, 1.515625),
        Barrier(352.0, 1.0, 2.03125)))

    @given(chains())
    @settings(max_examples=100, deadline=None, derandomize=True)
    @example((LayeredStructure(0.0, 0.0, 1.0, ()), 2.0))
    @example((LayeredStructure(0.0, 0.0, 1.0, ()), np.array([2.0, 5.0])))
    @example((LayeredStructure(0.0, 0.0, 3.0, (Barrier(1e6, 1.0, 1.5),)), 1.5))
    @example((OPAQUE_PAIR, 0.015625))
    @example((LayeredStructure(0.0, 0.0, 4.0, (Barrier(3.0, 1.0, 1.5), Barrier(2.0, 1.0, 2.5),
                                               Barrier(5.0, 0.5, 3.25))), np.array([2.5, 4.6])))
    def test_matches_reference(self, case):
        s, e = case
        amps = all_barrier_amplitudes(compute_wavenumbers(s, e), s)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            t, r, rp = prefix_by_recurrence(amps)
        t_ref, r_ref = exact_transfer(amps)
        assert np.shape(t) == np.shape(r) == np.shape(rp) == np.shape(e)
        assert np.abs(t - t_ref).max() <= 1e-12
        assert np.abs(r - r_ref).max() <= 1e-12
        assert (t == 0)[(amps[0] == 0).any(axis=-1)].all()
        # each barrier's r' is -r* t/t* wherever t/t* is not 0/0
        t_n, r_n, rp_n = amps
        normal = np.abs(t_n) >= np.finfo(float).tiny
        rp_ref = -r_n.conjugate() * t_n / np.where(normal, t_n, 1.0).conjugate()
        assert (np.abs(rp_n - rp_ref) <= 1e-14)[normal].all()
        # a lossless chain in one medium: |T|^2 + |R|^2 = 1 and |R'| = |R|, up
        # to the rounding-level non-unitarity of the barriers' (t, r), which a
        # chain of opaque barriers amplifies (3.6e-12 seen at N = 64)
        assert np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0).max() <= 1e-10
        assert np.abs(np.abs(rp) - np.abs(r)).max() <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_odd_and_even_lengths(self, n):
        amps = _chain(n, energy=np.array([2.0, 4.6, 6.5]))
        t, r, _ = prefix_by_recurrence(amps)
        t_ref, r_ref = reference_prefix(amps)
        assert (np.abs(t - t_ref) <= 1e-12 * np.abs(t_ref)).all()
        assert np.abs(r - r_ref).max() <= 1e-12

    def test_matches_float_reference_on_random_chains(self, rng):
        for _ in range(40):
            s, e = random_structure(rng, max_barriers=12)
            energies = e + np.array([0.0, 0.37, 1.91])
            energies[degenerate_energies(s, energies)] += 1e-6
            amps = all_barrier_amplitudes(compute_wavenumbers(s, energies), s)
            t, r, _ = prefix_by_recurrence(amps)
            t_ref, r_ref = reference_prefix(amps)
            assert (np.abs(t - t_ref) <= 1e-12 * np.abs(t_ref)).all()
            assert np.abs(r - r_ref).max() <= 1e-12

    def test_forbidden_band_decay_rate(self):
        # between N = 1000 and 1600 -2 ln|T_N| grows at 2 Im(beta) per period
        lat = PeriodicLattice(3.0, 1.0, 2.0)
        lo, hi = (-2.0 * math.log(abs(prefix_by_recurrence(_chain(n))[0]))
                  for n in (1000, 1600))
        assert (hi - lo) / 600 == pytest.approx(decay_rate(lat, 4.6), rel=1e-12)

    def test_deep_forbidden_band_reflects_fully(self):
        # the recurrence's state overflows near N = 1800; the tree's stays bounded
        s = PeriodicLattice(3.0, 1.0, 2.0, 5000).to_structure()
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _, _, _, emb = scattering_amplitudes(s, 4.6)
        assert emb.t_full == 0.0
        assert abs(abs(emb.r_full) - 1.0) <= 1e-15


class TestEmbedding:
    def test_trivial_media_is_identity(self):
        s = LayeredStructure(0, 0, 4.0, (Barrier(3.0, 1.0, 2.0),))
        w = compute_wavenumbers(s, 4.6)
        ia = interface_amplitudes(w, s)
        t_n, r_n, _ = pre = prefix_by_recurrence(all_barrier_amplitudes(w, s))
        emb = embed_in_media(pre, ia)
        # T is counted from the span, T_N from the last barrier's right edge
        # x_R = 2.5: T = T_N e^{ik0 (span - x_R)}
        assert emb.t_full == pytest.approx(t_n * np.exp(1j * w.k_gap * (s.span - 2.5)),
                                           rel=1e-14)
        assert emb.r_full == pytest.approx(r_n, rel=1e-14)

    def test_step_reflection_magnitude(self):
        s = LayeredStructure(0.0, 3.0, 1.0, ())
        w = compute_wavenumbers(s, 4.0)
        emb = embed_in_media(
            prefix_by_recurrence(all_barrier_amplitudes(w, s)),
            interface_amplitudes(w, s),
        )
        assert abs(emb.r_full) == pytest.approx(1 / 3, rel=1e-13)

    def test_flux_conservation_asymmetric(self):
        s = LayeredStructure(3.0, 0.0, 2.0, (Barrier(5.0, 1.0, 1.0),))
        w = compute_wavenumbers(s, 4.0)
        emb = embed_in_media(
            prefix_by_recurrence(all_barrier_amplitudes(w, s)),
            interface_amplitudes(w, s),
        )
        flux = (w.k_right.real / w.k_left.real) * abs(emb.t_full) ** 2 + abs(emb.r_full) ** 2
        assert flux == pytest.approx(1.0, abs=1e-12)

    def test_flux_conservation_random(self, rng):
        for _ in range(40):
            s, e = random_structure(rng)
            w = compute_wavenumbers(s, e)
            if w.k_right.imag != 0:
                continue
            emb = embed_in_media(
                prefix_by_recurrence(all_barrier_amplitudes(w, s)),
                interface_amplitudes(w, s),
            )
            flux = (w.k_right.real / w.k_left.real) * abs(emb.t_full) ** 2 \
                + abs(emb.r_full) ** 2
            assert flux == pytest.approx(1.0, abs=1e-12)

    def test_full_reflection_evanescent_right(self, rng):
        for _ in range(20):
            s, e = random_structure(rng)
            s = LayeredStructure(s.v_left, e + 1.0 + rng.uniform(0, 2), s.span, s.barriers)
            w = compute_wavenumbers(s, e)
            emb = embed_in_media(
                prefix_by_recurrence(all_barrier_amplitudes(w, s)),
                interface_amplitudes(w, s),
            )
            assert abs(emb.r_full) == pytest.approx(1.0, abs=1e-12)

    def test_left_step_matches_exact_edge_referee(self, rng):
        # T and R against reference_psi (T at the span, 1 + R at 0) between
        # dissimilar media, where the left step's right-incidence t' = 1 -
        # r_left enters R: random chains just above v_left, where r_left is
        # about -1 and t' about 2, and well above it; then opaque chains
        # before an evanescent right medium
        def check(s, e):
            _, _, _, emb = scattering_amplitudes(s, e)
            t_ref = reference_psi(s, e, [s.span])[0]
            r_ref = reference_psi(s, e, [0.0])[0] - 1.0
            assert abs(emb.t_full - t_ref) <= 2e-13 * abs(t_ref)
            assert abs(emb.r_full - r_ref) <= 1e-13

        for _ in range(30):
            s, _ = random_structure(rng)
            v_left = rng.uniform(0.5, 3.0)
            v_right = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
            s = LayeredStructure(v_left, v_right, s.span, s.barriers)
            for e in (v_left * (1.0 + 1e-9), v_left + rng.uniform(1.0, 8.0)):
                if not degenerate_energies(s, np.array([e])).any():
                    check(s, e)
        for _ in range(10):
            n, e = int(rng.integers(2, 7)), rng.uniform(0.5, 4.0)
            widths, gaps = rng.uniform(0.5, 1.5, n), rng.uniform(0.1, 1.0, n + 1)
            edges = np.cumsum(np.column_stack((gaps[:-1], widths)).ravel())
            s = LayeredStructure(rng.uniform(0.0, 0.4), e + rng.uniform(1.0, 10.0),
                                 edges[-1] + gaps[-1], np.array(
                [rng.uniform(20.0, 40.0, n), widths, edges[1::2] - widths / 2]))
            check(s, e)


class TestTranslation:
    @pytest.mark.parametrize("x0", [0.0, 31.0, 1000.0, 1e5])
    def test_cavity_amplitudes_do_not_drift_with_position(self, x0):
        # two 1e6-high barriers 0.08 apart, a cavity of high finesse, with the
        # pair moved to x0: |T| and |R| against the exact-edge referee, whose
        # psi is T at the span and 1 + R at 0
        s = LayeredStructure(0.0, 121.0, x0 + 5.92, np.array(
            [[1e6, 1e6], [3.84, 1.0], [x0 + 0.5 + 3.84 / 2, x0 + 4.42 + 0.5]]))
        eps = 1e6 + 0.351
        _, _, _, emb = scattering_amplitudes(s, eps)
        t_ref = abs(reference_psi(s, eps, [s.span])[0])
        r_ref = abs(reference_psi(s, eps, [0.0])[0] - 1.0)
        assert abs(abs(emb.t_full) - t_ref) <= 1e-13 * t_ref
        assert abs(abs(emb.r_full) - r_ref) <= 1e-13


class TestProbabilities:
    def test_free_space(self):
        s = LayeredStructure(0, 0, 1.0, ())
        w = compute_wavenumbers(s, 4.0)
        emb = embed_in_media(
            prefix_by_recurrence(all_barrier_amplitudes(w, s)),
            interface_amplitudes(w, s),
        )
        assert transmission_probability(emb, w) == pytest.approx(1.0)

    def test_evanescent_right_carries_no_flux(self):
        s = LayeredStructure(0.0, 9.0, 1.0, ())
        w = compute_wavenumbers(s, 4.0)
        emb = embed_in_media(
            prefix_by_recurrence(all_barrier_amplitudes(w, s)),
            interface_amplitudes(w, s),
        )
        assert transmission_probability(emb, w) == 0.0

    def test_equals_one_minus_reflection(self, rng):
        for _ in range(20):
            s, e = random_structure(rng)
            w = compute_wavenumbers(s, e)
            if w.k_right.imag != 0:
                continue
            emb = embed_in_media(
                prefix_by_recurrence(all_barrier_amplitudes(w, s)),
                interface_amplitudes(w, s),
            )
            t = transmission_probability(emb, w)
            assert 0.0 <= t <= 1.0 + 1e-12
            assert t == pytest.approx(1.0 - reflection_probability(emb), abs=1e-12)

    def test_rejects_nonpropagating_incidence(self):
        s = LayeredStructure(5.0, 0.0, 1.0, ())
        w = compute_wavenumbers(s, 4.0)
        emb = embed_in_media(
            prefix_by_recurrence(all_barrier_amplitudes(w, s)),
            interface_amplitudes(w, s),
        )
        with pytest.raises(ValueError):
            transmission_probability(emb, w)
