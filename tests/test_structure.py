import math

import numpy as np
import pytest

from layerscatter import (
    Barrier,
    LayeredStructure,
    StructureError,
    branch_sqrt,
    compute_wavenumbers,
    mirror_structure,
    validate_structure,
)

from conftest import random_structure


def make(barriers, span=4.0, v1=0.0, v2=0.0):
    return LayeredStructure(v1, v2, span, tuple(barriers))


class TestValidate:
    def test_valid_two_barriers(self):
        s = make([Barrier(3, 1, 1), Barrier(3, 1, 3)])
        assert validate_structure(s) is s

    def test_overlap_detected(self):
        with pytest.raises(StructureError) as exc:
            make([Barrier(3, 1, 1), Barrier(3, 1, 1.5)])
        assert any("overlap between barriers 1 and 2" in p for p in exc.value.problems)

    def test_out_of_span(self):
        with pytest.raises(StructureError) as exc:
            make([Barrier(3, 1, 2)], span=2.0)
        assert any("exceeds span" in p for p in exc.value.problems)

    def test_nonpositive_width(self):
        with pytest.raises(StructureError) as exc:
            validate_structure(make([Barrier(3, 0.0, 1)]))
        assert any("width" in p for p in exc.value.problems)

    def test_touching_barriers_legal(self):
        s = make([Barrier(3, 1, 0.5), Barrier(2, 1, 1.5)])
        validate_structure(s)

    def test_touching_barriers_legal_to_rounding(self):
        # 0.05 + 0.1/2 rounds one ulp past 0.15 - 0.1/2
        s = make([Barrier(1, 0.1, 0.05), Barrier(1, 0.1, 0.15), Barrier(1, 0.1, 0.25)],
                 span=0.4)
        assert validate_structure(s) is s

    def test_violations_of_1e9_rejected(self):
        with pytest.raises(StructureError) as exc:
            make([Barrier(1, 1, 0.5 - 1e-9), Barrier(1, 1, 1.5 - 2e-9),
                  Barrier(1, 1, 3.5 + 1e-9)])
        left, right, overlap = exc.value.problems
        assert left.startswith("barrier 1 starts before the left medium edge")
        assert right.startswith("barrier 3 exceeds span")
        assert overlap == "overlap between barriers 1 and 2"

    def test_empty_structure_legal(self):
        validate_structure(make([]))

    def test_reports_every_violation(self):
        with pytest.raises(StructureError) as exc:
            make([Barrier(3, -1, 1), Barrier(3, 1, 0.9), Barrier(1, 1, 9)], span=4)
        assert len(exc.value.problems) >= 2

    def test_idempotent_and_pure(self, rng):
        s, _ = random_structure(rng)
        before = s.barriers
        assert validate_structure(validate_structure(s)) is s
        assert s.barriers == before


class TestBarrierArrays:
    def test_one_cached_read_only_view(self):
        s = make([Barrier(3, 1, 1), Barrier(2, 0.5, 3)])
        heights, widths, centers = s.barrier_arrays
        assert s.barrier_arrays is s.barrier_arrays
        assert (heights.tolist(), widths.tolist(), centers.tolist()) == ([3, 2], [1, 0.5], [1, 3])
        with pytest.raises(ValueError):
            heights[0] = 0.0
        assert s.interface_points().tolist() == [0, 0.5, 1.5, 2.75, 3.25, 4]

    def test_empty(self):
        assert make([]).barrier_arrays.shape == (3, 0)
        assert make([]).interface_points().tolist() == [0, 4]


class TestBranchSqrt:
    def test_positive(self):
        assert branch_sqrt(4.0) == 2.0

    def test_negative_gives_upper_half_plane(self):
        k = branch_sqrt(-1.0)
        assert k == 1j

    def test_zero(self):
        assert branch_sqrt(0.0) == 0.0


class TestWavenumbers:
    def test_perfect_squares(self):
        s = make([Barrier(3, 1, 1)])
        w = compute_wavenumbers(s, 4.0)
        assert w.k_left == w.k_right == w.k_gap == 2.0
        assert w.k_barrier[0] == 1.0

    def test_evanescent_barrier(self):
        s = make([Barrier(3, 1, 1)])
        w = compute_wavenumbers(s, 2.0)
        assert w.k_barrier[0] == 1j

    def test_threshold(self):
        s = make([], v1=2.0)
        w = compute_wavenumbers(s, 2.0)
        assert w.k_left == 0.0

    def test_branch_and_energy_recovery(self, rng):
        for _ in range(50):
            s, e = random_structure(rng)
            w = compute_wavenumbers(s, e)
            pots = [s.v_left, s.v_right, 0.0] + [b.height for b in s.barriers]
            ks = [w.k_left, w.k_right, w.k_gap, *w.k_barrier]
            for k, u in zip(ks, pots):
                assert k.imag >= 0
                assert k.real * k.imag == 0  # real or purely imaginary
                bound = 4 * np.finfo(float).eps * (abs(e) + abs(u))
                assert abs(k * k - (e - u)) <= max(bound, 1e-300)

    def test_rejects_nonfinite_energy(self):
        with pytest.raises(ValueError):
            compute_wavenumbers(make([]), math.inf)


class TestMirror:
    def test_swaps_media_and_reverses(self):
        s = make([Barrier(1, 1, 1), Barrier(2, 1, 3)], span=4, v1=0.5, v2=0.25)
        m = mirror_structure(s)
        assert (m.v_left, m.v_right) == (0.25, 0.5)
        assert [b.height for b in m.barriers] == [2, 1]
        assert [b.center for b in m.barriers] == [1, 3]
        validate_structure(m)

    def test_involution(self, rng):
        s, _ = random_structure(rng)
        back = mirror_structure(mirror_structure(s))
        assert (back.v_left, back.v_right, back.span) == (s.v_left, s.v_right, s.span)
        for a, b in zip(back.barriers, s.barriers):
            assert a.height == b.height and a.width == b.width
            # span - (span - c) need not be bit-identical to c
            assert a.center == pytest.approx(b.center, abs=1e-12)
