import cmath
import math
import sys

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
from layerscatter.periodic import EDGE_XTOL, _LEVELS, _bisect, _classify, _period

from conftest import recurrence_prefixes

LAT = PeriodicLattice(3.0, 1.0, 2.0)


def recurrence_prefix(lat, energy, count):
    s = PeriodicLattice(
        lat.barrier_height, lat.barrier_width, lat.period, count, lat.first_center
    ).to_structure()
    w = compute_wavenumbers(s, energy)
    return recurrence_prefixes(all_barrier_amplitudes(w, s))


def right_edge(lat, n):
    """x_R(n), the plane where the chain's segment n ends and its T_n starts;
    the closed form's T_n starts at 0, so T_n(chain) = T_n(closed) e^{i k0 x_R(n)}."""
    return lat.first_center + (n - 1) * lat.period + lat.barrier_width / 2.0


def half_trace(lat, energy):
    """cos beta as half the trace of one period's (psi, psi') transfer matrix."""

    def layer(k, length):
        c, s = cmath.cos(k * length), cmath.sin(k * length)
        return np.array([[c, s / k], [-k * s, c]])

    gap = layer(cmath.sqrt(energy), lat.period - lat.barrier_width)
    barrier = layer(cmath.sqrt(energy - lat.barrier_height), lat.barrier_width)
    return (np.trace(barrier @ gap) / 2.0).real


def scaled_half_trace(lat, energy):
    """cos beta / cosh(kappa d) below the barrier top, the Kronig-Penney
    form with tanh(kappa d) in place of sinh(kappa d): finite and of the
    sign of cos beta even where cos beta itself passes the largest double."""
    k0, kappa = math.sqrt(energy), math.sqrt(lat.barrier_height - energy)
    k0g = k0 * (lat.period - lat.barrier_width)
    return (math.cos(k0g) + (kappa * kappa - k0 * k0) / (2.0 * k0 * kappa)
            * math.tanh(kappa * lat.barrier_width) * math.sin(k0g))


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


class TestPeriodFormula:
    def test_period_matches_the_chain_formula(self):
        # the half trace's e^{-i k0 a}/t and r/t equal those of the chain's
        # single-barrier amplitudes on the lattice's cell, below and above
        # the barrier top, wherever t is a normal double; the chain's t starts
        # at the barrier's right edge, _period's at 0
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(60):
            h, w = rng.uniform(0.5, 400.0), rng.uniform(0.1, 2.0)
            lat = PeriodicLattice(h, w, w + rng.uniform(0.05, 2.0))
            energy = np.concatenate((rng.uniform(0.01, h, 20), rng.uniform(h, 4.0 * h, 20)))
            gamma, r_over_t, k0 = _period(lat, energy)
            wn = compute_wavenumbers(lat.cell, energy)
            t, r, _ = (x[..., 0] for x in all_barrier_amplitudes(wn, lat.cell))
            normal = np.abs(t) >= sys.float_info.min
            t = t * np.exp(-1j * k0 * right_edge(lat, 1))
            ref_gamma = np.exp(-1j * k0 * lat.period)[normal] / t[normal]
            ref_r_over_t = r[normal] / t[normal]
            assert np.all(np.abs(gamma[normal] - ref_gamma) <= 1e-13 * np.abs(ref_gamma))
            assert np.all(np.abs(r_over_t[normal] - ref_r_over_t)
                          <= 1e-13 * np.abs(ref_r_over_t))
            checked += normal.sum()
        assert checked > 2000


class TestClosedFormPrefix:
    def test_first_step_reproduces_single_barrier(self):
        s = LAT.to_structure()
        w = compute_wavenumbers(s, 4.9)
        from layerscatter import barrier_amplitudes

        t1, r1, _ = barrier_amplitudes(w, s, 0)
        t1 = t1 * np.exp(-1j * w.k_gap * right_edge(LAT, 1))
        inv_t, r_over_t = closed_form_prefix(LAT, 4.9, 1)
        assert inv_t == pytest.approx(1.0 / t1, rel=1e-13)
        assert r_over_t == pytest.approx(r1 / t1, rel=1e-13)

    @pytest.mark.parametrize("energy", [4.6, 4.9, 2.0, 1.1, 6.5, 2.999999999])
    def test_matches_recurrence(self, energy):
        ts, rs = recurrence_prefix(LAT, energy, 8)
        for n in range(1, 9):
            inv_t, r_over_t = closed_form_prefix(LAT, energy, n)
            t_n = ts[n] * cmath.exp(-1j * math.sqrt(energy) * right_edge(LAT, n))
            assert abs(inv_t - 1.0 / t_n) <= 1e-10 * abs(inv_t)
            assert abs(r_over_t - rs[n] / t_n) <= 1e-10 * max(abs(r_over_t), 1.0)

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

        t1, _, _ = barrier_amplitudes(w, s, 0)
        t1 = t1 * cmath.exp(-1j * w.k_gap * right_edge(LAT, 1))
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

    @pytest.mark.parametrize("n", [1803, 1806, 2000])
    def test_overflow_deep_in_forbidden_band(self, n):
        # |1/T_n| passes the largest double near n = 1806 at 4.6, the
        # Chebyshev ratio a few periods earlier; neither raises nor gives nan,
        # and T_n read through the log is 0
        inv_t, r_over_t = closed_form_prefix(LAT, 4.6, n)
        assert inv_t == r_over_t == complex(math.inf, math.inf)
        assert math.exp(-2.0 * math.log(abs(inv_t))) == 0.0
        inv_t, _ = closed_form_prefix(LAT, 4.6, 1802)
        assert abs(inv_t) == pytest.approx(
            1.0 / abs(recurrence_prefix(LAT, 4.6, 1802)[0][-1]), rel=1e-12)

    def test_band_edge_rejected(self):
        from scipy.optimize import bisect

        coarse = band_scan(LAT, 0.01, 8.0, 800).edges[0]
        edge = bisect(
            lambda e: abs(bloch_phase(LAT, e).cos_beta) - 1.0,
            coarse - 1e-6, coarse + 1e-6, xtol=1e-15,
        )
        with pytest.raises((BandEdgeError, DegenerateWavenumberError)):
            closed_form_prefix(LAT, edge, 5)


class TestBandScan:
    def test_free_lattice_no_forbidden_intervals(self):
        table = band_scan(PeriodicLattice(0.0, 1.0, 2.0), 0.05, 8.0, 796)
        assert all(label == "allowed" for _, _, label in table.intervals)

    def test_reference_band_layout(self):
        table = band_scan(LAT, 0.01, 8.0, 1599)

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
        e1 = band_scan(LAT, 0.01, 8.0, 800).edges
        e2 = band_scan(LAT, 0.01, 8.0, 1599).edges
        assert len(e1) == len(e2)
        for a, b in zip(e1, e2):
            assert abs(a - b) < 1e-9

    def test_edges_match_bloch_condition(self):
        for e in band_scan(LAT, 0.01, 8.0, 800).edges:
            assert abs(abs(bloch_phase(LAT, e).cos_beta) - 1.0) < 1e-8

    def test_degenerate_grid_point_skipped(self):
        table = band_scan(LAT, 1.0, 5.0, 9)  # grid hits exactly 3.0
        assert table.skipped == (3.0,)
        assert table.energies.tolist() == [1.0, 1.5, 2.0, 2.5, 3.5, 4.0, 4.5, 5.0]
        assert len(table.classification) == len(table.cos_beta) == 8

    @pytest.mark.parametrize("lat", [LAT, PeriodicLattice(7.5, 0.4, 1.3),
                                      PeriodicLattice(1.0, 1.9, 2.0)])
    def test_matches_transfer_matrix_trace(self, lat):
        # below, inside and above the barrier: evanescent, allowed, forbidden
        points = int(1000 * lat.barrier_height) + 1  # 3001, 7501, 1001: a spacing of 0.004
        table = band_scan(lat, 0.0, 4.0 * lat.barrier_height, points)
        assert {"allowed", "forbidden"} <= set(table.classification)
        assert table.energies[0] < lat.barrier_height < table.energies[-1]
        for e, c in zip(table.energies, table.cos_beta):
            ref = half_trace(lat, e)
            assert abs(c - ref) <= 1e-12 * max(1.0, abs(ref)), e

    def test_edges_are_scipy_bisection(self):
        # each edge is scipy's bisection of |cos beta| - 1 over its grid step;
        # where both ends of the step are forbidden, over the part of the step
        # on the edge's side of scipy's root of cos beta itself
        from scipy.optimize import bisect

        rng = np.random.default_rng(5)
        scans = [(LAT, 0.01, 8.0, 800), (PeriodicLattice(40.0, 1.0, 2.0), 0.5, 12.0, 9)]
        for _ in range(4):
            h, w = rng.uniform(1.0, 40.0), rng.uniform(0.3, 1.5)
            scans.append((PeriodicLattice(h, w, w + rng.uniform(0.3, 2.0)), 0.01, 3.0 * h,
                          int(rng.integers(9, 300))))
        narrow = 0
        for lat, e_min, e_max, points in scans:
            table = band_scan(lat, e_min, e_max, points)
            e = table.energies
            cos_beta = lambda x: bloch_phase(lat, x).cos_beta  # noqa: E731
            f = lambda x: abs(cos_beta(x)) - 1.0  # noqa: E731
            for edge in table.edges:
                i = np.searchsorted(e, edge) - 1
                lo, hi = e[i], e[i + 1]
                if f(lo) > 0.0 and f(hi) > 0.0:
                    mid = bisect(cos_beta, lo, hi, xtol=1e-10)
                    lo, hi = (lo, mid) if edge < mid else (mid, hi)
                    narrow += 1
                assert edge == bisect(f, lo, hi, xtol=1e-10)
        assert narrow >= 2  # the 40-high lattice's band inside one grid step

    def test_scaled_reference_is_the_half_trace(self):
        for e in (0.5, 1.1, 1.7, 2.9):
            kd = math.sqrt(LAT.barrier_height - e) * LAT.barrier_width
            assert scaled_half_trace(LAT, e) == pytest.approx(
                half_trace(LAT, e) / math.cosh(kd), rel=1e-12)

    def test_underflowed_transmission_gives_signed_infinity(self):
        # t of a 1e6-high unit barrier is about e^{-1000}, which underflows
        # to 0; cos beta is +-inf with the sign of the scaled half trace,
        # and no numpy warning is raised (pytest makes one an error)
        lat = PeriodicLattice(1e6, 1.0, 2.0)
        table = band_scan(lat, 0.0, 12.0, 30)
        assert len(table.energies) == 30 and table.edges == ()
        assert np.isinf(table.cos_beta).all()
        assert set(table.classification) == {"forbidden"}
        signs = [math.copysign(1.0, scaled_half_trace(lat, e)) for e in table.energies]
        assert np.sign(table.cos_beta).tolist() == signs
        assert {-1.0, 1.0} <= set(signs)  # the sign flips near k0 g = pi
        assert bloch_phase(lat, 5.0).classification == "forbidden"
        assert closed_form_prefix(lat, 5.0, 3) == (complex(math.inf, math.inf),) * 2

    def test_band_inside_one_grid_step(self):
        # cos beta jumps from about 68.7 to -39.1 over the grid step from 4.81
        # to 6.25, both ends forbidden; the allowed band between is found,
        # with the edges a fine grid brackets
        lat = PeriodicLattice(40.0, 1.0, 2.0)
        coarse = band_scan(lat, 0.5, 12.0, 9)
        fine = [e for e in band_scan(lat, 0.5, 12.0, 11501).edges if 4.81 < e < 6.25]
        assert set(coarse.classification) == {"forbidden"}
        assert len(coarse.edges) == len(fine) == 2
        assert np.abs(np.subtract(coarse.edges, fine)).max() < 1e-9
        assert [label for _, _, label in coarse.intervals] == [
            "forbidden", "allowed", "forbidden"]
        assert coarse.intervals[1][:2] == coarse.edges

    def test_edge_next_to_a_skipped_last_point(self):
        # the grid ends on 40.0, the barrier height, which the table skips;
        # the scan brackets on cos beta there, moved off k = 0, so the edge
        # at 39.824 (a 0.001 grid finds 39.82419321590662) is not lost
        table = band_scan(PeriodicLattice(40.0, 1.0, 2.0), 0.5, 40.0, 28)
        assert table.skipped == (40.0,) and table.energies[-1] < 40.0
        assert table.edges[-1] == pytest.approx(39.82419321590662, abs=1e-9)
        assert table.intervals[-1] == (table.edges[-1], 40.0, "allowed")

    def test_degenerate_point_below_one_ulp_of_nudge(self):
        # 1e6 + 1e-12 == 1e6: the degenerate grid point moves by one ulp
        # instead, so k = 0 never reaches the formula (a RuntimeWarning,
        # which pytest makes an error, would show it)
        table = band_scan(PeriodicLattice(1e6, 1.0, 2.0), 999990.0, 1000010.0, 21)
        assert table.skipped == (1e6,)
        assert len(table.edges) == 2 and all(e > 1e6 for e in table.edges)

    def test_nan_is_labelled_forbidden(self):
        labels = _classify(np.array([math.nan, 0.5, 1.0, -1.0 + 1e-13, 2.0, -math.inf]))
        assert labels.tolist() == ["forbidden", "allowed", "edge", "edge", "forbidden",
                                   "forbidden"]

    def test_band_narrower_than_edge_tolerance_is_not_reported(self):
        # cos beta flips from +inf to -inf between two grid points of the
        # 1e6-high lattice; the band between is far narrower than EDGE_XTOL
        lat = PeriodicLattice(1e6, 1.0, 2.0)
        table = band_scan(lat, 9.52, 9.93, 2)
        assert table.cos_beta.tolist() == [math.inf, -math.inf]
        assert table.edges == ()
        assert table.intervals == ((9.52, 9.93, "forbidden"),)

    def test_negative_floor_clamped(self):
        table = band_scan(LAT, -1.0, 1.0, 101)
        assert table.energies[0] >= 1e-6

    @pytest.mark.parametrize("scan, message", [
        ((2.0, 1.0, 11), "need e_min < e_max, and e_max above 1e-06"),
        ((1.0, 2.0, 1), "need at least 2 grid points, got 1"),
        # max(nan, ENERGY_FLOOR) keeps a NaN e_min, so the ends are checked first
        ((math.nan, 12.0, 5), "e_min must lie in [-1e+150, 1e+150], got nan"),
        ((0.0, math.nan, 5), "e_max must lie in [-1e+150, 1e+150], got nan"),
        ((-1e200, 12.0, 5), "e_min must lie in [-1e+150, 1e+150], got -1e+200"),
    ], ids=["reversed", "one-point", "nan-e-min", "nan-e-max", "e-min-outside"])
    def test_bad_arguments(self, scan, message):
        with pytest.raises(ValueError) as info:
            band_scan(LAT, *scan)
        assert (type(info.value), str(info.value)) == (ValueError, message)

    def test_scans_the_domain_edge(self):
        # the Kronig-Penney lattice scaled to the domain's edge (kappa d = 3
        # at eps = 0) scans with no numpy warning (pytest makes one an error):
        # its two edges are Bloch edges, and the last grid point, at the
        # barrier height 1e150, is skipped
        lat = PeriodicLattice(1e150, 3e-75, 6e-75)
        table = band_scan(lat, 0.0, 1e150, 30)
        assert table.skipped == (1e150,) and len(table.edges) == 2
        for e in table.edges:
            assert abs(abs(half_trace(lat, e)) - 1.0) < 1e-6


def _piecewise(x):
    """x - 0.375 below 1.5, x - (2 + 47/128) below 3.5 (both dyadic roots, where
    bisection of [0, 1] and [2, 3] meets f == 0 at its 3rd and 7th halving),
    and sin x above."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 1.5, x - 0.375, np.where(x < 3.5, x - (2.0 + 47.0 / 128.0), np.sin(x)))


class TestBisect:
    def brackets(self):
        # sin changes sign at every k pi, upward for even k (sign_lo -1) and
        # downward for odd k; widths 1e-9 to 1e3, so that brackets finish in
        # different rounds and part-way through one; near 1e6, rtol |x| =
        # 4.4e-10 outweighs EDGE_XTOL
        rng = np.random.default_rng(11)
        lo, hi = [0.0, 2.0], [1.0, 3.0]
        for width in np.geomspace(1e-9, 1e3, 25):
            for k in (1500, 1501, 318310, 318311):
                if k > 1e5 and width > 1.0:
                    continue
                while True:
                    a = k * math.pi - rng.uniform(0.05, 0.95) * width
                    if _piecewise(a) * _piecewise(a + width) < 0.0:
                        break
                lo.append(a)
                hi.append(a + width)
        return np.array(lo), np.array(hi)

    def test_matches_scipy_bracket_by_bracket(self):
        from scipy.optimize import bisect

        lo, hi = self.brackets()
        calls = []

        def counting(x):
            calls.append(x.size)
            return _piecewise(x)

        roots = _bisect(counting, lo, hi, np.sign(_piecewise(lo)))
        halvings = []
        for a, b, root in zip(lo.tolist(), hi.tolist(), roots.tolist()):
            expect, info = bisect(lambda x: float(_piecewise(x)), a, b, xtol=EDGE_XTOL,
                                  full_output=True)
            assert root == expect
            halvings.append(info.iterations)
        assert roots[:2].tolist() == [0.375, 2.0 + 47.0 / 128.0]  # f == 0 there
        assert {-1.0, 1.0} <= set(np.sign(_piecewise(lo)).tolist())
        assert min(halvings) <= 4 and max(halvings) >= 40
        assert len(calls) <= math.ceil(max(halvings) / _LEVELS) + 1
        assert calls[0] == lo.size * (2 ** _LEVELS - 1)

    def test_no_brackets_no_calls(self):
        calls = []
        roots = _bisect(lambda x: calls.append(x) or x, np.empty(0), np.empty(0), np.empty(0))
        assert roots.size == 0 and calls == []


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

    def test_rejects_parameters_outside_the_domain(self):
        # one ValueError naming the first parameter outside [-1e150, 1e150],
        # before a structure is built from it
        names = {"barrier_height": "barrier height", "barrier_width": "barrier width",
                 "period": "period", "first_center": "first_center"}
        for field, name in names.items():
            for value, shown in ((math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
                                 (np.nextafter(1e150, math.inf), "1.0000000000000002e+150"),
                                 (-1e200, "-1e+200")):
                kwargs = {"barrier_height": 3.0, "barrier_width": 1.0, "period": 2.0,
                          "first_center": 1.0, field: value}
                with pytest.raises(ValueError) as info:
                    PeriodicLattice(**kwargs)
                assert str(info.value) == f"{name} must lie in [-1e+150, 1e+150], got {shown}"
        # a cell at the domain's edge builds; a lattice whose span passes it is
        # refused when it is made, naming the parameters that make the span
        assert PeriodicLattice(-1e150, 1e150, 1e150).to_structure().span == 1e150
        for kwargs, shown in (({"period": 1e150, "count": 3}, "3e+150"),
                              ({"period": 2.0, "first_center": 1e150}, "2e+150"),
                              ({"period": 1e149, "count": 12, "first_center": 0.5}, "1.1e+150")):
            with pytest.raises(ValueError) as info:
                PeriodicLattice(3.0, 1.0, **kwargs)
            assert str(info.value) == ("span 2 first_center + (count - 1) period "
                                       f"must lie in [-1e+150, 1e+150], got {shown}")

    def test_decay_rate_positive_in_forbidden_band(self):
        assert decay_rate(LAT, 4.6) > 0
        assert decay_rate(LAT, 4.9) == 0.0
