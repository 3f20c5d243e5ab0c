import dataclasses
from unittest import mock

import numpy as np
import pytest

from layerscatter import (
    Barrier,
    LayeredStructure,
    assemble_matching_system,
    compare_with_pipeline,
    oracle_solution,
    solve_matching_system,
    solve_structure,
)
from layerscatter.scenarios import build_scenario
from layerscatter.structure import mirror_structure

from conftest import random_structure


class TestAssembly:
    def test_empty_structure_size(self):
        m = assemble_matching_system(LayeredStructure(0, 3.0, 1.0, ()), 4.0)
        assert m.matrix.shape == (4, 4)

    def test_single_barrier_size(self):
        s = LayeredStructure(0, 0, 3.0, (Barrier(3.0, 1.0, 1.5),))
        m = assemble_matching_system(s, 4.0)
        assert m.matrix.shape == (8, 8)

    def test_rows_touch_at_most_four_unknowns(self, rng):
        s, e = random_structure(rng, max_barriers=6)
        m = assemble_matching_system(s, e)
        for row in m.matrix:
            assert np.count_nonzero(row) <= 4


class TestSolve:
    def test_free_space(self):
        sol = oracle_solution(LayeredStructure(0, 0, 1.0, ()), 4.0)
        assert sol.r_full == pytest.approx(0.0, abs=1e-14)
        assert sol.t_full == pytest.approx(1.0, abs=1e-14)
        assert sol.a[0] == pytest.approx(1.0)
        assert sol.b[0] == pytest.approx(0.0, abs=1e-14)

    def test_step_reflection(self):
        sol = oracle_solution(LayeredStructure(0.0, 3.0, 1.0, ()), 4.0)
        assert abs(sol.r_full) == pytest.approx(1 / 3, rel=1e-12)

    def test_residual_bound(self, rng):
        for _ in range(20):
            s, e = random_structure(rng, max_barriers=8)
            sol = oracle_solution(s, e)
            assert sol.residual < 1e-11

    def test_flux_conservation_self_consistency(self, rng):
        for _ in range(20):
            s, e = random_structure(rng, max_barriers=8)
            sol = oracle_solution(s, e)
            from layerscatter import compute_wavenumbers

            w = compute_wavenumbers(s, e)
            if w.k_right.imag != 0:
                continue
            flux = (w.k_right.real / w.k_left.real) * abs(sol.t_full) ** 2 \
                + abs(sol.r_full) ** 2
            assert flux == pytest.approx(1.0, abs=1e-11)

    def test_touching_barriers_well_posed(self):
        # zero-width gap between two barriers: the degenerate gap region
        # still carries its two unknowns; compare against the merged barrier
        s = LayeredStructure(
            0.0, 0.0, 4.0,
            (Barrier(3.0, 1.0, 1.0), Barrier(3.0, 1.0, 2.0)),
        )
        merged = LayeredStructure(0.0, 0.0, 4.0, (Barrier(3.0, 2.0, 1.5),))
        for e in (4.6, 2.0, 7.3):
            a = oracle_solution(s, e)
            b = oracle_solution(merged, e)
            assert a.r_full == pytest.approx(b.r_full, abs=1e-11)
            assert a.t_full == pytest.approx(b.t_full, abs=1e-11)


class TestPipelineEquivalence:
    def test_randomized_corpus(self, rng):
        checked = 0
        for _ in range(60):
            s, e = random_structure(rng, max_barriers=8)
            worst, cond = compare_with_pipeline(s, e)
            tol = 1e-9 if cond <= 1e8 else 1e-6
            assert worst < tol
            checked += 1
        assert checked == 60

    def test_each_family_on_its_own_scale(self):
        # Mirrored graded-quadratic at eps=1.01 has an evanescent right
        # medium and |t_full| ~ 5e9, while |c_n| <= 33.  A 1% error in the
        # barrier coefficients must show, not vanish under the scale of t_full.
        s = mirror_structure(build_scenario("graded-quadratic"))

        def skewed(s, e):
            sol = solve_structure(s, e)
            return dataclasses.replace(sol, c=tuple(c * 1.01 for c in sol.c))

        with mock.patch("layerscatter.oracle.solve_structure", skewed):
            worst, _ = compare_with_pipeline(s, 1.01)
        assert worst > 1e-3
