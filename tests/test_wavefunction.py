import bisect
import cmath
import math

import numpy as np
import pytest

from layerscatter import (
    Barrier,
    LayeredStructure,
    PeriodicLattice,
    default_grid,
    evaluate_dpsi,
    evaluate_psi,
    oracle_solution,
    sample_density,
    solve_structure,
)
from layerscatter.scenarios import build_scenario
from layerscatter.wavefunction import psi_one_sided

from conftest import random_structure


def continuity_error(sol):
    worst = 0.0
    for i in range(2 * sol.structure.n_barriers + 2):
        (pl, dl), (pr, dr) = psi_one_sided(sol, i)
        scale = max(1.0, abs(pl))
        worst = max(worst, abs(pl - pr) / scale, abs(dl - dr) / max(1.0, abs(dl)))
    return worst


class TestGapCoefficients:
    def test_free_space(self):
        sol = solve_structure(LayeredStructure(0, 0, 4.0, ()), 4.0)
        assert sol.a[0] == pytest.approx(1.0)
        assert sol.b[0] == pytest.approx(0.0)

    def test_matched_left_medium(self):
        # V1 = 0 collapses the left interface: a1 = 1, b1 = R
        s = LayeredStructure(0.0, 0.0, 4.0, (Barrier(3.0, 1.0, 2.0),))
        sol = solve_structure(s, 4.6)
        assert sol.a[0] == pytest.approx(1.0, abs=1e-14)
        assert sol.b[0] == pytest.approx(sol.embedded.r_full, rel=1e-13)

    def test_single_barrier_against_frozen_oracle(self):
        # frozen from the dense matching solve for eps=4, u=3, d=1, x=1.5
        s = LayeredStructure(0, 0, 3.0, (Barrier(3.0, 1.0, 1.5),))
        sol = solve_structure(s, 4.0)
        assert sol.a[1] == pytest.approx(0.5232022521621968 - 0.664392933272984j, abs=1e-10)
        assert sol.b[1] == pytest.approx(0.0, abs=1e-10)


class TestBarrierCoefficients:
    def test_transparent_barrier(self):
        s = LayeredStructure(0, 0, 4.0, (Barrier(0.0, 1.0, 2.0),))
        sol = solve_structure(s, 4.0)
        assert sol.c[0] == pytest.approx(sol.a[0], rel=1e-13)
        assert sol.d[0] == pytest.approx(sol.b[0], abs=1e-13)

    def test_evanescent_barrier_continuity(self):
        s = LayeredStructure(0, 0, 3.0, (Barrier(5.0, 1.0, 1.5),))
        sol = solve_structure(s, 2.0)
        assert continuity_error(sol) < 1e-9

    def test_random_against_oracle(self, rng):
        for _ in range(20):
            s, e = random_structure(rng, max_barriers=8)
            sol = solve_structure(s, e)
            ora = oracle_solution(s, e)
            if ora.condition > 1e8:
                continue
            for u, v in zip(sol.c + sol.d, ora.c + ora.d):
                assert abs(u - v) <= 1e-10 * max(1.0, abs(v))


class TestOracleEquivalence:
    def test_all_coefficients(self, rng):
        for _ in range(25):
            s, e = random_structure(rng, max_barriers=10)
            sol = solve_structure(s, e)
            ora = oracle_solution(s, e)
            if ora.condition > 1e8:
                continue
            pairs = [
                (sol.embedded.r_full, ora.r_full),
                (sol.embedded.t_full, ora.t_full),
                *zip(sol.a, ora.a),
                *zip(sol.b, ora.b),
                *zip(sol.c, ora.c),
                *zip(sol.d, ora.d),
            ]
            scale = max(max(abs(v) for _, v in pairs), 1.0)
            for u, v in pairs:
                assert abs(u - v) <= 1e-10 * scale


class TestEvaluatePsi:
    def test_free_space_plane_wave(self):
        sol = solve_structure(LayeredStructure(0, 0, 4.0, ()), 4.0)
        for x in (-3.0, 0.0, 1.7, 4.0, 9.2):
            assert evaluate_psi(sol, x) == pytest.approx(cmath.exp(2j * x), rel=1e-13)
            assert abs(evaluate_psi(sol, x)) ** 2 == pytest.approx(1.0)

    def test_incident_region_oscillation_band(self):
        s = LayeredStructure(0, 0, 3.0, (Barrier(3.0, 1.0, 1.5),))
        sol = solve_structure(s, 4.0)
        rmod = abs(sol.embedded.r_full)
        vals = [abs(evaluate_psi(sol, x)) ** 2 for x in np.linspace(-40, 0, 4000)]
        assert min(vals) == pytest.approx((1 - rmod) ** 2, abs=1e-3)
        assert max(vals) == pytest.approx((1 + rmod) ** 2, abs=1e-3)

    def test_transmitted_region_constant_density(self):
        s = LayeredStructure(0, 0, 3.0, (Barrier(3.0, 1.0, 1.5),))
        sol = solve_structure(s, 4.0)
        t2 = abs(sol.embedded.t_full) ** 2
        for x in (3.0, 4.5, 20.0):
            assert abs(evaluate_psi(sol, x)) ** 2 == pytest.approx(t2, rel=1e-12)

    def test_touching_barriers_continuity(self):
        # every gap has zero width, including those at x=0 and x=span
        s = LayeredStructure(0.5, -0.3, 3.0, (
            Barrier(3.0, 1.0, 0.5), Barrier(5.0, 1.0, 1.5), Barrier(2.0, 1.0, 2.5),
        ))
        for e in (1.5, 4.0, 7.3):
            assert continuity_error(solve_structure(s, e)) < 1e-9

    def test_tunnelling_chain_density_bounded(self):
        # 150 periods deep in a forbidden band: |psi|^2 <= (1 + |R|)^2 <= 4
        sol = solve_structure(build_scenario("periodic", count=150), 4.0)
        rows = sample_density(sol, default_grid(sol))
        assert np.max(rows[:, 3]) <= 4.0 * (1 + 1e-9)

    def test_continuity_random(self, rng):
        for _ in range(25):
            s, e = random_structure(rng)
            sol = solve_structure(s, e)
            assert continuity_error(sol) < 1e-9

    def test_wronskian_constant_across_regions(self, rng):
        # psi * psi'^* - psi^* * psi' is the flux, identical in every
        # propagating region
        for _ in range(15):
            s, e = random_structure(rng)
            sol = solve_structure(s, e)
            w = sol.wavenumbers
            ref = None
            for i in range(2 * s.n_barriers + 2):
                (pl, dl), _ = psi_one_sided(sol, i)
                wr = (pl * dl.conjugate() - pl.conjugate() * dl).imag
                if ref is None:
                    ref = wr
                else:
                    assert wr == pytest.approx(ref, abs=1e-10 * max(1.0, abs(ref)))


class TestSampling:
    def test_free_space_density(self):
        sol = solve_structure(LayeredStructure(0, 0, 4.0, ()), 4.0)
        rows = sample_density(sol, np.linspace(-2, 6, 100))
        assert rows.shape == (100, 4)
        assert np.allclose(rows[:, 3], 1.0)

    def test_matches_pointwise_reference(self, rng):
        # scalar loop over the coefficients, region found by bisection
        for _ in range(10):
            s, e = random_structure(rng)
            sol = solve_structure(s, e)
            w = sol.wavenumbers
            terms = [(w.k_left, 1.0, sol.embedded.r_full)]
            for n in range(s.n_barriers):
                terms += [(w.k_gap, sol.a[n], sol.b[n]), (w.k_barrier[n], sol.c[n], sol.d[n])]
            terms += [(w.k_gap, sol.a[-1], sol.b[-1]), (w.k_right, sol.embedded.t_full, 0.0)]
            pts = s.interface_points()
            for x, re_psi, im_psi, abs2 in sample_density(sol, default_grid(sol))[::7]:
                k, cp, cm = terms[bisect.bisect_right(pts, x)]
                plus, minus = cp * cmath.exp(1j * k * x), cm * cmath.exp(-1j * k * x)
                tol = 1e-12 * max(1.0, abs(plus) + abs(minus))
                assert abs(complex(re_psi, im_psi) - (plus + minus)) <= tol
                assert abs2 == pytest.approx(abs(plus + minus) ** 2, rel=1e-12, abs=1e-24)

    def test_default_grid_resolution(self):
        sol = solve_structure(LayeredStructure(0, 0, 4.0, ()), 100.0)
        grid = default_grid(sol)
        # 40 points per wavelength 2*pi/10 over 6 length units
        assert len(grid) >= 40 * 6 / (2 * math.pi / 10)
        assert len(grid) >= 1000

    def test_forbidden_band_exponential_envelope(self):
        # per-period maxima inside the lattice decay geometrically
        lat = PeriodicLattice(3.0, 1.0, 2.0, count=8)
        sol = solve_structure(lat.to_structure(), 4.6)
        maxima = []
        for n in range(8):
            xs = np.linspace(2.0 * n, 2.0 * (n + 1), 80, endpoint=False)
            maxima.append(max(abs(evaluate_psi(sol, float(x))) ** 2 for x in xs))
        logs = np.log(maxima)
        slope, _ = np.polyfit(np.arange(8), logs, 1)
        assert slope < -0.5
        residuals = logs - np.polyval(np.polyfit(np.arange(8), logs, 1), np.arange(8))
        assert np.max(np.abs(residuals)) < 0.35  # close to a straight line

    def test_derivative_is_analytic(self):
        s = LayeredStructure(0, 0, 3.0, (Barrier(3.0, 1.0, 1.5),))
        sol = solve_structure(s, 4.0)
        h = 1e-6
        for x in (-1.0, 0.7, 1.5, 2.9, 5.0):
            fd = (evaluate_psi(sol, x + h) - evaluate_psi(sol, x - h)) / (2 * h)
            assert evaluate_dpsi(sol, x) == pytest.approx(fd, rel=1e-8)
