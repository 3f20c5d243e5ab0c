import cmath
import math

import numpy as np
import pytest

from layerscatter import (
    BandEdgeError,
    DegenerateWavenumberError,
    EvanescentGapError,
    PeriodicLattice,
    all_barrier_amplitudes,
    band_scan,
    bloch_phase,
    closed_form_prefix,
    compute_wavenumbers,
    decay_rate,
)

from conftest import recurrence_prefixes

LAT = PeriodicLattice(3.0, 1.0, 2.0)


def recurrence_prefix(lat, energy, count):
    s = PeriodicLattice(
        lat.barrier_height, lat.barrier_width, lat.period, count, lat.first_center
    ).to_structure()
    w = compute_wavenumbers(s, energy)
    return recurrence_prefixes(all_barrier_amplitudes(w, s))


def half_trace(lat, energy):
    """cos beta as half the trace of one period's (psi, psi') transfer matrix."""

    def layer(k, length):
        c, s = cmath.cos(k * length), cmath.sin(k * length)
        return np.array([[c, s / k], [-k * s, c]])

    gap = layer(cmath.sqrt(energy), lat.period - lat.barrier_width)
    barrier = layer(cmath.sqrt(energy - lat.barrier_height), lat.barrier_width)
    return (np.trace(barrier @ gap) / 2.0).real


class TestBlochPhase:
    def test_free_lattice_all_allowed(self):
        lat = PeriodicLattice(0.0, 1.0, 2.0)
        for e in np.linspace(0.3, 9.0, 40):
            ph = bloch_phase(lat, float(e))
            # cos beta = cos(k0 a): always in [-1, 1]
            assert ph.cos_beta == pytest.approx(math.cos(math.sqrt(e) * 2.0), abs=1e-12)
            assert ph.classification in ("allowed", "edge")

    def test_reference_forbidden_energy(self):
        assert bloch_phase(LAT, 4.6).classification == "forbidden"

    def test_reference_allowed_energies(self):
        assert bloch_phase(LAT, 4.9).classification == "allowed"
        assert bloch_phase(LAT, 2.0).classification == "allowed"

    def test_beta_branch(self):
        ph = bloch_phase(LAT, 4.9)
        assert ph.beta.imag == 0.0
        assert 0.0 <= ph.beta.real <= math.pi
        ph = bloch_phase(LAT, 1.1)  # cos beta > 1
        assert ph.beta.real == 0.0 and ph.beta.imag > 0
        ph = bloch_phase(LAT, 4.6)  # cos beta < -1
        assert ph.beta.real == pytest.approx(math.pi) and ph.beta.imag > 0

    def test_degenerate_energies_rejected(self):
        with pytest.raises(DegenerateWavenumberError):
            bloch_phase(LAT, 3.0)  # k = 0 inside the barrier
        with pytest.raises(DegenerateWavenumberError):
            bloch_phase(LAT, 0.0)  # k0 = 0

    def test_negative_energy_rejected(self):
        # Re(e^{-i k0 a}/t) is cos beta only for a real gap wavenumber
        with pytest.raises(EvanescentGapError):
            bloch_phase(LAT, -1.0)
        with pytest.raises(EvanescentGapError):
            closed_form_prefix(LAT, -1.0, 3)

    def test_evanescent_barrier_keeps_cos_beta_real(self):
        ph = bloch_phase(LAT, 1.7)
        assert isinstance(ph.cos_beta, float)


class TestClosedFormPrefix:
    def test_first_step_reproduces_single_barrier(self):
        s = LAT.to_structure()
        w = compute_wavenumbers(s, 4.9)
        from layerscatter import barrier_amplitudes

        t1, r1 = barrier_amplitudes(w, s, 0)
        inv_t, r_over_t = closed_form_prefix(LAT, 4.9, 1)
        assert inv_t == pytest.approx(1.0 / t1, rel=1e-13)
        assert r_over_t == pytest.approx(r1 / t1, rel=1e-13)

    @pytest.mark.parametrize("energy", [4.6, 4.9, 2.0, 1.1, 6.5, 2.999999999])
    def test_matches_recurrence(self, energy):
        ts, rs = recurrence_prefix(LAT, energy, 8)
        for n in range(1, 9):
            inv_t, r_over_t = closed_form_prefix(LAT, energy, n)
            assert abs(inv_t - 1.0 / ts[n]) <= 1e-10 * abs(inv_t)
            assert abs(r_over_t - rs[n] / ts[n]) <= 1e-10 * max(abs(r_over_t), 1.0)

    def test_forbidden_band_decay_slope(self):
        # ln |T_n|^2 decreases at 2*Im(beta) per period asymptotically
        gamma = bloch_phase(LAT, 4.6).beta.imag
        ns = np.arange(20, 61)
        lnt2 = [
            -2.0 * math.log(abs(closed_form_prefix(LAT, 4.6, int(n))[0]))
            for n in ns
        ]
        slope = np.polyfit(ns, lnt2, 1)[0]
        assert slope == pytest.approx(-2.0 * gamma, rel=0.01)

    def test_allowed_band_bounded(self):
        s = LAT.to_structure()
        w = compute_wavenumbers(s, 4.9)
        from layerscatter import barrier_amplitudes
        import cmath

        t1, _ = barrier_amplitudes(w, s, 0)
        mu = (cmath.exp(-1j * w.k_gap * LAT.period) / t1).imag
        ph = bloch_phase(LAT, 4.9)
        bound = abs(closed_form_prefix(LAT, 4.9, 1)[0]) * (
            1.0 + abs(mu) / abs(math.sin(ph.beta.real))
        ) + 1.0
        worst = max(abs(closed_form_prefix(LAT, 4.9, n)[0]) for n in range(1, 1001))
        assert worst < bound

    def test_forbidden_band_growth_ratio(self):
        gamma = bloch_phase(LAT, 4.6).beta.imag
        prev = abs(closed_form_prefix(LAT, 4.6, 40)[0])
        cur = abs(closed_form_prefix(LAT, 4.6, 41)[0])
        assert cur / prev == pytest.approx(math.exp(gamma), rel=0.01)

    def test_band_edge_rejected(self):
        from scipy.optimize import bisect

        coarse = band_scan(LAT, 0.01, 8.0, 0.01).edges[0]
        edge = bisect(
            lambda e: abs(bloch_phase(LAT, e, edge_tol=0.0).cos_beta) - 1.0,
            coarse - 1e-6, coarse + 1e-6, xtol=1e-15,
        )
        with pytest.raises((BandEdgeError, DegenerateWavenumberError)):
            closed_form_prefix(LAT, edge, 5)


class TestBandScan:
    def test_free_lattice_no_forbidden_intervals(self):
        table = band_scan(PeriodicLattice(0.0, 1.0, 2.0), 0.05, 8.0, 0.01)
        assert all(label == "allowed" for _, _, label in table.intervals)

    def test_reference_band_layout(self):
        table = band_scan(LAT, 0.01, 8.0, 0.005)

        def label_at(e):
            for lo, hi, label in table.intervals:
                if lo <= e <= hi:
                    return label
            raise AssertionError(f"{e} not covered")

        assert label_at(3.0) == "forbidden"
        assert label_at(4.6) == "forbidden"
        assert label_at(2.0) == "allowed"
        assert label_at(4.9) == "allowed"
        assert any(4.6 < e < 4.9 for e in table.edges)
        assert any(2.0 < e < 3.0 for e in table.edges)

    def test_edges_stable_under_resolution_doubling(self):
        e1 = band_scan(LAT, 0.01, 8.0, 0.01).edges
        e2 = band_scan(LAT, 0.01, 8.0, 0.005).edges
        assert len(e1) == len(e2)
        for a, b in zip(e1, e2):
            assert abs(a - b) < 1e-9

    def test_edges_match_bloch_condition(self):
        for e in band_scan(LAT, 0.01, 8.0, 0.01).edges:
            assert abs(abs(bloch_phase(LAT, e, edge_tol=0.0).cos_beta) - 1.0) < 1e-8

    def test_degenerate_grid_point_skipped(self):
        table = band_scan(LAT, 1.0, 5.0, 0.5)  # grid hits exactly 3.0
        assert table.skipped == (3.0,)
        assert table.energies.tolist() == [1.0, 1.5, 2.0, 2.5, 3.5, 4.0, 4.5, 5.0]
        assert len(table.classification) == len(table.cos_beta) == 8

    @pytest.mark.parametrize("lat", [LAT, PeriodicLattice(7.5, 0.4, 1.3),
                                      PeriodicLattice(1.0, 1.9, 2.0)])
    def test_matches_transfer_matrix_trace(self, lat):
        # below, inside and above the barrier: evanescent, allowed, forbidden
        table = band_scan(lat, 0.0, 4.0 * lat.barrier_height, 0.004)
        assert {"allowed", "forbidden"} <= set(table.classification)
        assert table.energies[0] < lat.barrier_height < table.energies[-1]
        for e, c in zip(table.energies, table.cos_beta):
            ref = half_trace(lat, e)
            assert abs(c - ref) <= 1e-12 * max(1.0, abs(ref)), e

    def test_edges_are_scipy_bisection(self):
        from scipy.optimize import bisect

        table = band_scan(LAT, 0.01, 8.0, 0.01)
        e = table.energies
        f = lambda x: abs(bloch_phase(LAT, x, edge_tol=0.0).cos_beta) - 1.0
        for edge in table.edges:
            i = np.searchsorted(e, edge) - 1
            assert edge == bisect(f, e[i], e[i + 1], xtol=1e-10)

    def test_negative_floor_clamped(self):
        table = band_scan(LAT, -1.0, 1.0, 0.01)
        assert table.energies[0] >= 1e-6

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            band_scan(LAT, 2.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            band_scan(LAT, 1.0, 2.0, -0.1)


class TestLattice:
    def test_to_structure_geometry(self):
        s = PeriodicLattice(3.0, 1.0, 2.0, count=4).to_structure()
        assert s.n_barriers == 4
        centers = [b.center for b in s.barriers]
        assert centers == [1.0, 3.0, 5.0, 7.0]
        assert s.span == pytest.approx(8.0)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            PeriodicLattice(3.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            PeriodicLattice(3.0, 1.0, 2.0, count=0)

    def test_decay_rate_positive_in_forbidden_band(self):
        assert decay_rate(LAT, 4.6) > 0
        assert decay_rate(LAT, 4.9) == 0.0
