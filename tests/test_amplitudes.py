import cmath
import math

import numpy as np
import pytest

from layerscatter import (
    Barrier,
    DegenerateWavenumberError,
    LayeredStructure,
    all_barrier_amplitudes,
    barrier_amplitudes,
    compute_wavenumbers,
    embed_in_media,
    interface_amplitudes,
    prefix_by_matrix,
    prefix_by_recurrence,
    reflection_probability,
    transmission_probability,
)
from layerscatter.amplitudes import _inverse_matrix, scattering_amplitudes

from conftest import random_structure, recurrence_prefixes


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
        assert t_right == pytest.approx(4 / 3 * cmath.exp(1j))
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
        t, r = barrier_amplitudes(w, s, 0)
        assert t == pytest.approx(1.0)
        assert r == pytest.approx(0.0)

    def test_tunneling_magnitude(self):
        # independent oracle: |t|^2 = [1 + u^2 sinh^2(kappa d) / (4 e (u-e))]^-1
        s = LayeredStructure(0.0, 0.0, 3.0, (Barrier(2.0, 1.0, 1.5),))
        w = compute_wavenumbers(s, 1.0)
        t, r = barrier_amplitudes(w, s, 0)
        expected = 1.0 / (1.0 + 4.0 * math.sinh(1.0) ** 2 / 4.0)
        assert abs(t) ** 2 == pytest.approx(expected, rel=1e-13)

    def test_unitarity(self, rng):
        for _ in range(30):
            s, e = random_structure(rng)
            if s.n_barriers == 0:
                continue
            w = compute_wavenumbers(s, e)
            for n in range(s.n_barriers):
                t, r = barrier_amplitudes(w, s, n)
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
        t, r = barrier_amplitudes(w, s, 0)
        assert math.isfinite(abs(t)) and math.isfinite(abs(r))
        assert abs(r) == pytest.approx(1.0, abs=1e-12)
        assert abs(t) < 1e-100


class TestPrefixSequences:
    def test_initial_conditions(self):
        amps = all_barrier_amplitudes(
            compute_wavenumbers(LayeredStructure(0, 0, 1.0, ()), 2.0),
            LayeredStructure(0, 0, 1.0, ()),
        )
        assert prefix_by_recurrence(amps) == (1.0, 0.0)

    def test_single_step_reproduces_barrier(self):
        s = LayeredStructure(0, 0, 4.0, (Barrier(3.0, 1.0, 2.0),))
        w = compute_wavenumbers(s, 4.6)
        amps = all_barrier_amplitudes(w, s)
        t_n, r_n = prefix_by_recurrence(amps)
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
            for t, r in zip(*amps):
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


class TestEmbedding:
    def test_trivial_media_is_identity(self):
        s = LayeredStructure(0, 0, 4.0, (Barrier(3.0, 1.0, 2.0),))
        w = compute_wavenumbers(s, 4.6)
        ia = interface_amplitudes(w, s)
        t_n, r_n = pre = prefix_by_recurrence(all_barrier_amplitudes(w, s))
        emb = embed_in_media(pre, ia)
        assert emb.t_full == pytest.approx(t_n, rel=1e-14)
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
