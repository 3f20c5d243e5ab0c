import bisect
import cmath
import dataclasses
import math

import numpy as np
import pytest

from layerscatter import (
    Barrier,
    LayeredStructure,
    PeriodicLattice,
    compare_with_pipeline,
    decay_rate,
    default_grid,
    evaluate_dpsi,
    evaluate_psi,
    oracle_solution,
    sample_density,
    solve_structure,
)
from layerscatter.scenarios import build_scenario
from layerscatter.structure import mirror_structure
from layerscatter.wavefunction import MAX_GRID_POINTS, grid_bounds

from conftest import psi_one_sided, random_structure, reference_psi


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

    def test_smallest_normal_transmission_keeps_left_match(self):
        # |T| = 2.3e-308 at N = 1800, eps = 4.6 is just above the smallest
        # normal double, where coefficients carried leftward from T would
        # have few bits left; the reflections they come from need no T
        sol = solve_structure(PeriodicLattice(3.0, 1.0, 2.0, 1800).to_structure(), 4.6)
        assert np.finfo(float).tiny <= abs(sol.embedded.t_full) < 1e-307
        assert sol.a[0] == pytest.approx(1.0, abs=1e-11)
        assert sol.b[0] == pytest.approx(sol.embedded.r_full, abs=1e-11)

    def test_forbidden_band_decay_at_5000_periods(self):
        # T underflows to 0 near N = 1800, yet the gap coefficients decay as
        # the Bloch wave does, |a_n| ~ e^{-n Im beta}, until they reach the
        # smallest subnormal (5e-324) past n of about 1900
        lat = PeriodicLattice(3.0, 1.0, 2.0, 5000)
        sol = solve_structure(lat.to_structure(), 4.6)
        a = np.array(sol.a)
        assert np.isfinite(a).all() and np.isfinite(sol.b).all()
        assert a[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.b[0] == pytest.approx(sol.embedded.r_full, abs=1e-12)
        slope = math.log(abs(a[1500] / a[1000])) / 500
        assert slope == pytest.approx(-decay_rate(lat, 4.6) / 2, rel=1e-12)
        assert np.abs(a[1900:]).max() <= 1e-300

    def test_single_barrier_against_frozen_oracle(self):
        # frozen from the dense matching solve for eps=4, u=3, d=1, x=1.5 with
        # gap 2's waves from origin 0; they start at its left end x_R = 2
        s = LayeredStructure(0, 0, 3.0, (Barrier(3.0, 1.0, 1.5),))
        sol = solve_structure(s, 4.0)
        assert sol.a[1] == pytest.approx(
            (0.5232022521621968 - 0.664392933272984j) * cmath.exp(2j * 2.0), abs=1e-10)
        assert sol.b[1] == pytest.approx(0.0, abs=1e-10)


class TestBarrierCoefficients:
    def test_transparent_barrier(self):
        # C_1 starts at the left edge x_L = 1.5 and D_1 at the right edge x_R = 2.5
        s = LayeredStructure(0, 0, 4.0, (Barrier(0.0, 1.0, 2.0),))
        sol = solve_structure(s, 4.0)
        assert sol.c[0] == pytest.approx(sol.a[0] * cmath.exp(2j * 1.5), rel=1e-13)
        assert sol.d[0] == pytest.approx(sol.b[0] * cmath.exp(-2j * 2.5), abs=1e-13)

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
            for u, v in zip(np.concatenate((sol.c, sol.d)), np.concatenate((ora.c, ora.d))):
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


def opaque_barrier(kappa_d, center=1.5, energy=1.5):
    """A unit-width barrier with kappa d = ``kappa_d`` at ``energy``, in free space."""
    return LayeredStructure(0, 0, 2 * center, (Barrier(energy + kappa_d ** 2, 1.0, center),))


class TestExactEdgeReferee:
    @pytest.mark.parametrize("s, energy", [
        *((opaque_barrier(kd), 1.5) for kd in (9.5, 31.5, 100.0, 426.0, 1000.0)),
        (opaque_barrier(300.0, center=400.0), 1.5),
        (LayeredStructure(0, 0, 1.2, (Barrier(2000.0, 1.0, 0.6),)), 9.0),
        (mirror_structure(build_scenario("graded-quadratic")), 1.2),
    ], ids=["kd=9.5", "kd=31.5", "kd=100", "kd=426", "kd=1000", "kd=300-at-400",
            "h=2000", "mirrored-graded-quadratic"])
    def test_psi_on_default_grid_and_inside(self, s, energy):
        # Opaque barriers, where the growing wave's true coefficient lies far
        # below the rounding of the decaying one's, and the deep-tunnelling
        # mirrored graded-quadratic (condition 2e23 with global origins)
        sol = solve_structure(s, energy)
        x = s.interface_points()  # and 1000 points from the first edge to the last
        grid = np.union1d(default_grid(sol), np.linspace(x[1], x[-2], 1000))
        ref = reference_psi(s, energy, grid)
        assert np.abs(evaluate_psi(sol, grid) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_evanescent_right_media(self):
        # Right media up to 1e5 above the energy behind spans stretched up
        # to 20x, kappa * span up to about 1e4: T counted from the span stays
        # O(1), so psi matches the referee and the oracle is well conditioned
        rng = np.random.default_rng(18)
        for _ in range(20):
            s, e = random_structure(rng)
            s = dataclasses.replace(s, v_right=e + 10 ** rng.uniform(-1, 5),
                                    span=s.span * rng.uniform(1, 20))
            x = np.linspace(*grid_bounds(s.span), 64)
            ref = reference_psi(s, e, x)
            psi = evaluate_psi(solve_structure(s, e), x)
            assert np.abs(psi - ref).max() <= 1e-12 * np.abs(ref).max(), (s, e)
            worst, condition, _ = compare_with_pipeline(s, e)
            assert condition <= 1e8 and worst <= 1e-9, (s, e, condition, worst)


class TestSampling:
    def test_free_space_density(self):
        sol = solve_structure(LayeredStructure(0, 0, 4.0, ()), 4.0)
        rows = sample_density(sol, np.linspace(-2, 6, 100))
        assert rows.shape == (100, 4)
        assert np.allclose(rows[:, 3], 1.0)

    def test_matches_pointwise_reference(self, rng):
        # scalar loop over the coefficients, region found by bisection; a
        # barrier's waves start at its own edges c -+ w/2, a gap's at its left
        # end and the transmitted wave at the span; the left medium's at 0
        for _ in range(10):
            s, e = random_structure(rng)
            sol = solve_structure(s, e)
            w = sol.wavenumbers
            terms = [(w.k_left, 1.0, sol.embedded.r_full, 0.0, 0.0)]
            gap_start = 0.0
            for n, (_, width, center) in enumerate(s.barrier_arrays.T.tolist()):
                terms += [(w.k_gap, sol.a[n], sol.b[n], gap_start, gap_start),
                          (w.k_barrier[n], sol.c[n], sol.d[n],
                           center - width / 2, center + width / 2)]
                gap_start = center + width / 2
            terms += [(w.k_gap, sol.a[-1], sol.b[-1], gap_start, gap_start),
                      (w.k_right, sol.embedded.t_full, 0.0, s.span, 0.0)]
            pts = s.interface_points()
            for x, re_psi, im_psi, abs2 in sample_density(sol, default_grid(sol))[::7]:
                k, cp, cm, op, om = terms[bisect.bisect_right(pts, x)]
                plus = cp * cmath.exp(1j * k * (x - op))
                minus = cm * cmath.exp(-1j * k * (x - om))
                tol = 1e-12 * max(1.0, abs(plus) + abs(minus))
                assert abs(complex(re_psi, im_psi) - (plus + minus)) <= tol
                assert abs2 == pytest.approx(abs(plus + minus) ** 2, rel=1e-12, abs=1e-24)

    def test_default_grid_resolution(self):
        sol = solve_structure(LayeredStructure(0, 0, 4.0, ()), 100.0)
        grid = default_grid(sol)
        # 40 points per wavelength 2*pi/10 over 6 length units
        assert len(grid) >= 40 * 6 / (2 * math.pi / 10)
        assert len(grid) >= 1000

    @pytest.mark.parametrize("bounds, points, message", [
        ((math.nan, 1.0), 5, "--x-min must lie in [-1e+150, 1e+150], got nan"),
        ((-math.inf, 1.0), 5, "--x-min must lie in [-1e+150, 1e+150], got -inf"),
        ((0.0, math.inf), None, "--x-max must lie in [-1e+150, 1e+150], got inf"),
        ((0.0, np.float64(1e151)), 5, "--x-max must lie in [-1e+150, 1e+150], got 1e+151"),
        ((None, None), 0, "--grid-points must be at least 1, got 0"),
        ((None, None), MAX_GRID_POINTS + 1, "--grid-points must be at most 10000000, got 10000001"),
        ((30.0, None), 5, "--x-min 30.0 lies above the default bound 5.0"),
    ], ids=["x-min-nan", "x-min-inf", "x-max-inf", "x-max-float64",
            "no-points", "too-many-points", "x-min-above-default-bound"])
    def test_default_grid_refuses_what_the_cli_refuses(self, bounds, points, message):
        # one rule for every caller, with the CLI's lines: no NaN grid and no
        # RuntimeWarning (pytest makes one an error)
        sol = solve_structure(LayeredStructure(0, 0, 4.0, ()), 100.0)
        with pytest.raises(ValueError) as info:
            default_grid(sol, *bounds, points)
        assert str(info.value) == message

    def test_samples_the_domain_corners(self):
        # the domain's widest grid on its widest structure, with the largest |k|
        # in the left medium: every psi finite and no numpy warning (pytest
        # makes one an error)
        s = LayeredStructure(-1e150, 0.0, 1e150, ((Barrier(1e150, 1.0, 1.5),)))
        sol = solve_structure(s, 4.6)
        for bounds, ends in (((-1e150, 1e150), [-1e150, 1e150]),
                             ((None, None), [-2.5e149, 1.25e150])):
            rows = sample_density(sol, default_grid(sol, *bounds, 101))
            assert np.isfinite(rows).all() and rows[[0, -1], 0].tolist() == ends

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
