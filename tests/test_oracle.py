import cmath
import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from layerscatter import (
    Barrier,
    LayeredStructure,
    MatchingSolveError,
    MatchingSystem,
    assemble_matching_system,
    compare_with_pipeline,
    oracle_solution,
    solve_matching_system,
    solve_structure,
)
from layerscatter.scenarios import build_scenario
from layerscatter.structure import compute_wavenumbers, mirror_structure

from conftest import criterion_1_cases, random_structure


def reference_matching_system(s, energy):
    """The matching system written out entry by entry: regions as (k, columns
    of c+ and c-, (x - o+, x - o-) at the region's left end and at its right
    end), one cmath exponential per wave and interface.  x - o is a region's
    length at its right end and 0 at its left end, but a barrier's e^{-ikx}
    starts at its right edge and reads 0 there and -w at its left edge.  Gap n
    is (c_n - c_{n-1}) - (w_n + w_{n-1})/2 and the last gap span - (c_N +
    w_N/2); the media have length 0."""
    w = compute_wavenumbers(s, energy)
    size = 4 * s.n_barriers + 4
    regions = [(w.k_left, [None, 0], None, (0.0, 0.0))]  # incident (fixed), R
    col, prev_center, prev_width = 1, 0.0, 0.0
    for n, (_, width, center) in enumerate(s.barrier_arrays.T.tolist()):
        gap = (center - prev_center) - (width + prev_width) / 2.0
        regions.append((w.k_gap, [col, col + 1], (0.0, 0.0), (gap, gap)))
        regions.append((w.k_barrier[n], [col + 2, col + 3], (0.0, -width), (width, 0.0)))
        prev_center, prev_width = center, width
        col += 4
    last = s.span - (prev_center + prev_width / 2.0) if s.n_barriers else s.span
    regions.append((w.k_gap, [col, col + 1], (0.0, 0.0), (last, last)))
    regions.append((w.k_right, [col + 2, None], (0.0, 0.0), None))  # T, no leftward wave
    mat = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    for i in range(size // 2):  # interface i: region i's right end, region i + 1's left end
        (k_l, cols_l, _, at_right), (k_r, cols_r, at_left, _) = regions[i], regions[i + 1]
        for k, (cp, cm), (x_op, x_om), sign in ((k_l, cols_l, at_right, 1.0),
                                                (k_r, cols_r, at_left, -1.0)):
            plus = cmath.exp(1j * k * x_op)
            minus = cmath.exp(-1j * k * x_om)
            if cp is not None:
                mat[2 * i, cp] += sign * plus
                mat[2 * i + 1, cp] += sign * 1j * k * plus
            if cm is not None:
                mat[2 * i, cm] += sign * minus
                mat[2 * i + 1, cm] += sign * (-1j) * k * minus
        if i == 0:  # the incident unit wave lives in the left medium, e^{ikx} at x = 0
            plus = cmath.exp(1j * w.k_left * 0.0)
            rhs[0] -= plus
            rhs[1] -= 1j * w.k_left * plus
    return mat, rhs


CASES = ["random", "empty", "touching", "evanescent-right"]


def variant_structures(rng, case, count=20):
    """``count`` random (structure, energy) pairs reshaped into ``case``."""
    for _ in range(count):
        s, e = random_structure(rng, max_barriers=8)
        if case == "empty":
            s = dataclasses.replace(s, barrier_arrays=())
        elif case == "touching":
            bs = s.barriers + (Barrier(2.0, 0.5, 0.25),)
            x, moved = 0.0, []
            for b in bs:  # no gaps between barriers
                moved.append(Barrier(b.height, b.width, x + b.width / 2))
                x += b.width
            s = LayeredStructure(s.v_left, s.v_right, x + 0.5, tuple(moved))
        elif case == "evanescent-right":
            s = dataclasses.replace(s, v_right=e + float(rng.uniform(0.1, 5.0)))
        yield s, e


def dense_referee(m):
    """(unknowns, one-norm condition estimate) from a dense LU of ``m.matrix``:
    the solve the band LU replaced, with its one refinement step."""
    a = m.matrix
    lu, piv = scipy.linalg.lu_factor(a)
    x = scipy.linalg.lu_solve((lu, piv), m.rhs)
    x += scipy.linalg.lu_solve((lu, piv), m.rhs - a @ x)
    rcond, info = scipy.linalg.lapack.zgecon(lu, np.linalg.norm(a, 1), norm="1")
    assert info == 0
    return x, (1.0 / rcond if rcond > 0 else np.inf)


def unknowns(sol):
    """The solution's coefficients in the matching system's column order."""
    x = np.empty(4 * len(sol.c) + 4, dtype=complex)
    x[0], x[-1] = sol.r_full, sol.t_full
    x[1::4], x[2::4], x[3:-1:4], x[4::4] = sol.a, sol.b, sol.c, sol.d
    return x


class TestAssembly:
    @pytest.mark.parametrize("case", CASES)
    def test_matches_pointwise_reference(self, rng, case):
        for s, e in variant_structures(rng, case):
            m = assemble_matching_system(s, e)
            mat, rhs = reference_matching_system(s, e)
            assert np.array_equal(m.matrix, mat) and np.array_equal(m.rhs, rhs)

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

    def test_band_storage_layout(self, rng):
        # LAPACK band storage with KL = KU = 2 (the entries themselves are
        # checked through m.matrix above): 7 rows, the first two left zero
        # for zgbtrf's fill-in
        s, e = random_structure(rng, max_barriers=6)
        m = assemble_matching_system(s, e)
        assert m.band.shape == (7, 4 * s.n_barriers + 4)
        assert not m.band[:2].any()


class TestSolve:
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_coefficients_are_complex_arrays(self, n):
        s = LayeredStructure(0.0, 0.0, 2.0 * n + 1.0,
                             tuple(Barrier(3.0, 1.0, 2.0 * i + 1.0) for i in range(n)))
        for sol in (oracle_solution(s, 4.6), solve_structure(s, 4.6)):
            for x, size in zip((sol.a, sol.b, sol.c, sol.d), (n + 1, n + 1, n, n)):
                assert isinstance(x, np.ndarray) and x.dtype == complex
                assert x.shape == (size,)

    def test_free_space(self):
        sol = oracle_solution(LayeredStructure(0, 0, 1.0, ()), 4.0)
        assert sol.r_full == pytest.approx(0.0, abs=1e-14)
        assert sol.t_full == pytest.approx(cmath.exp(2j), abs=1e-14)  # e^{ik span}, k = 2
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


    def test_condition_estimate_keeps_the_tolerance_split(self):
        # zgbcon estimates the one-norm condition that --relaxed-tolerance
        # names: every acceptance case must fall on the same side of the 1e8
        # switch as the exact one-norm condition, and near the SVD 2-norm one.
        # No acceptance case crosses 1e8; an energy one ulp above a barrier
        # height (k_n d about 1e-8) does.
        above_height = (LayeredStructure(0, 0, 4.0, (Barrier(3.0, 1.0, 2.0),)),
                        float(np.nextafter(3.0, np.inf)))
        relaxed = []
        for s, e in criterion_1_cases() + [above_height]:
            m = assemble_matching_system(s, e)
            estimate = solve_matching_system(m).condition
            one_norm = np.linalg.cond(m.matrix, 1)
            two_norm = np.linalg.cond(m.matrix)
            assert (estimate > 1e8) == (one_norm > 1e8), (s, e, estimate, one_norm)
            assert 0.1 < estimate / two_norm < 10.0
            relaxed.append(estimate > 1e8)
        assert 0 < sum(relaxed) < len(relaxed)  # both tolerances are exercised


class TestBandSolve:
    def check_against_dense(self, cases):
        for s, e in cases:
            m = assemble_matching_system(s, e)
            sol = solve_matching_system(m)
            x_ref, cond_ref = dense_referee(m)
            x = unknowns(sol)
            assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref)), (s, e)
            assert sol.condition == pytest.approx(cond_ref, rel=1e-8), (s, e)

    def test_criterion_1_cases_match_dense_lu(self):
        self.check_against_dense(criterion_1_cases())

    @pytest.mark.parametrize("case", CASES)
    def test_matches_dense_lu(self, rng, case):
        self.check_against_dense(variant_structures(rng, case))

    def test_solve_reads_no_dense_matrix(self, rng):
        s, e = random_structure(rng, max_barriers=8)
        m = assemble_matching_system(s, e)

        def refuse(_):
            raise AssertionError("the solve expanded the band to a dense matrix")

        with mock.patch.object(MatchingSystem, "matrix", property(refuse)):
            solve_matching_system(m)

    def test_zero_column_is_singular_not_nan(self):
        # a band with an all-zero column: zgbtrf reports an exactly zero pivot,
        # which must surface as an ArithmeticError, not as inf or NaN unknowns
        m = assemble_matching_system(LayeredStructure(0, 0, 3.0, (Barrier(3.0, 1.0, 1.5),)), 4.0)
        band = m.band.copy()
        band[:, 3] = 0.0
        with pytest.raises(MatchingSolveError, match="singular") as info:
            solve_matching_system(MatchingSystem(band=band, rhs=m.rhs))
        assert isinstance(info.value, ArithmeticError)


class TestPipelineEquivalence:
    def test_randomized_corpus(self, rng):
        checked = 0
        for _ in range(60):
            s, e = random_structure(rng, max_barriers=8)
            worst, cond, _ = compare_with_pipeline(s, e)
            tol = 1e-9 if cond <= 1e8 else 1e-6
            assert worst < tol
            checked += 1
        assert checked == 60

    @pytest.mark.parametrize("family, part", [
        (("r_full",), None), (("t_full",), None), (("a", "b"), slice(None)),
        (("c", "d"), slice(None)), (("b",), -1), (("d",), -1),
    ], ids=["r", "t", "gap", "barrier", "last-b", "last-d"])
    def test_each_family_on_its_own_scale(self, family, part):
        # Mirrored graded-quadratic has an evanescent right medium.  At
        # eps=1.01 |t_full| is 3.7e-8, below what a scale floored at 1 can
        # show, and the last b and d are 2.6e-8, so those are skewed at
        # eps=3.5, where every family's largest member is >= 0.71 and the last
        # b and d are >= 0.12 of their family's scale.  A 1% error in any
        # family, or in its last member alone, must show, not vanish under
        # another family's scale, be added to its partner or be left out of
        # the comparison.
        s = mirror_structure(build_scenario("graded-quadratic"))
        energy = 3.5 if family == ("t_full",) or part == -1 else 1.01

        def skewed(s, e):
            sol = solve_structure(s, e)
            emb = {f: getattr(sol.embedded, f) * 1.01 for f in family if f.endswith("_full")}
            coef = {f: getattr(sol, f).copy() for f in family if f in "abcd"}
            for x in coef.values():
                x[part] *= 1.01
            return dataclasses.replace(
                sol, embedded=dataclasses.replace(sol.embedded, **emb), **coef)

        with mock.patch("layerscatter.oracle.solve_structure", skewed):
            worst, _, _ = compare_with_pipeline(s, energy)
        assert worst > 1e-3


class TestTranslation:
    @pytest.mark.parametrize("x0", [0.0, 31.0, 1000.0, 1e5])
    def test_cavity_agreement_does_not_drift_with_position(self, x0):
        # the high-finesse cavity of test_amplitudes' TestTranslation: two
        # 1e6-high barriers 0.08 apart, moved to x0.  The oracle and the
        # pipeline measure every gap alike, so k0 = 1000 meets no gap that
        # the two sides round apart
        s = LayeredStructure(0.0, 121.0, x0 + 5.92, np.array(
            [[1e6, 1e6], [3.84, 1.0], [x0 + 0.5 + 3.84 / 2, x0 + 4.42 + 0.5]]))
        worst, _, _ = compare_with_pipeline(s, 1e6 + 0.351)
        assert worst <= 1e-12
