import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerscatter import (
    Barrier,
    LayeredStructure,
    PeriodicLattice,
    StructureError,
    assemble_matching_system,
    bloch_phase,
    branch_sqrt,
    closed_form_prefix,
    compare_with_pipeline,
    compute_wavenumbers,
    mirror_structure,
    oracle_solution,
    solve_structure,
    validate_structure,
)
from layerscatter.amplitudes import scattering_amplitudes
from layerscatter import scenarios
from layerscatter.cli import parse_structure
from layerscatter.structure import (
    DOMAIN,
    TINY_ENERGY,
    DegenerateWavenumberError,
    EvanescentGapError,
    check_energy,
    degenerate_energies,
    off_degenerate,
    region_wavenumbers,
)

from conftest import random_structure, reference_validate, serialize_structure


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

    def test_finite_at_the_domain_corners(self):
        # eps and every potential at +-DOMAIN: |k| <= sqrt(2 DOMAIN), with no
        # RuntimeWarning (pytest makes one an error)
        for v in (-DOMAIN, 0.0, DOMAIN):
            s = make([Barrier(-DOMAIN, 1, 1), Barrier(DOMAIN, 1, 3)], v1=v, v2=-v)
            for e in (DOMAIN, 1e-300):
                k = region_wavenumbers(compute_wavenumbers(s, e))
                assert np.isfinite(k).all() and np.abs(k).max() <= math.sqrt(2.0 * DOMAIN)

    @pytest.mark.parametrize("nudge, moved", [
        (1e-9, np.nextafter(1e8, math.inf)),  # 1e8 + 1e-9 rounds back to 1e8
        (-1e-9, np.nextafter(1e8, -math.inf)),
        (0.5, 1e8 + 0.5),
        (-0.5, 1e8 - 0.5),
        (0.0, 1e8),
    ])
    def test_off_degenerate_is_one_nudge_rule(self, nudge, moved):
        # the degenerate points 0 and 1e8 move, 2 stays put
        e = np.array([0.0, 1e8, 2.0])
        assert off_degenerate(make([Barrier(1e8, 1, 1)]), e, nudge).tolist() == [nudge, moved, 2.0]

    def test_tiny_energies_where_the_barrier_kernel_overflows_are_degenerate(self):
        # exactly where 0.5 / (|k_n| k0) of amplitudes._factored_barrier passes
        # the largest double, k_n = 0 included; a negative energy is left to
        # the gate's own EvanescentGapError
        heights = [0.0, 1e-310, -1e-300, 3.0, 5e-324]
        s = make([Barrier(h, 0.5, 0.5 + i) for i, h in enumerate(heights)], span=6.0)
        q = 0.5 / np.finfo(float).max
        e = np.concatenate(([q, np.nextafter(q, 1.0), 1e-308, TINY_ENERGY],
                            np.geomspace(5e-324, 1e-296, 500), heights[1:2] + heights[4:]))
        w = compute_wavenumbers(s, e)
        with np.errstate(divide="ignore", over="ignore"):
            overflows = np.isinf(0.5 / ((w.k_barrier.real + w.k_barrier.imag) * w.k_gap.real[:, None]))
        flagged = degenerate_energies(s, e)
        assert flagged.tolist() == overflows.any(axis=-1).tolist()
        assert flagged.any() and not flagged[e >= 1e-308].any()
        # under a zero-height barrier k0 |k_n| = eps: 0.5/eps overflows up to q
        zero = make([Barrier(0.0, 1.0, 2.0)])
        assert degenerate_energies(zero, e[:3]).tolist() == [True, False, False]
        assert degenerate_energies(zero, 1e-310) and not degenerate_energies(zero, -1e-310)

    def test_no_energy_from_the_tiny_bound_on_can_overflow_the_kernel(self):
        # |eps - u| >= ulp(eps)/2 wherever they differ, so from TINY_ENERGY on
        # k0 |k_n| stays above 0.5/DBL_MAX and no barrier needs the check
        e = np.geomspace(TINY_ENERGY, 1e-200, 2000)
        for u in (np.nextafter(e, 0.0), np.nextafter(e, 1.0)):
            assert (np.sqrt(e) * np.sqrt(np.abs(e - u)) > 2.0 * 0.5 / np.finfo(float).max).all()


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


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                            DOMAIN, np.nextafter(DOMAIN, math.inf), -1e200])


@st.composite
def documents(draw):
    """[v_left, v_right, span, barriers] laid out left to right from margins
    and gaps that may be zero (touching), negative (overlapping or out of
    span) or a rounding step, with up to two fields replaced by NaN, inf,
    zero, a negative value, the domain's edge or a value just or far outside it."""
    n = draw(st.integers(0, 6))
    offsets = st.sampled_from([0.0, 1e-17, -1e-9]) | st.floats(-0.5, 1.0)
    x, barriers = draw(offsets), []
    for _ in range(n):
        d = draw(st.floats(0.05, 2.0))
        barriers.append(Barrier(draw(st.floats(-5.0, 5.0)), d, x + d / 2.0))
        x += d + draw(offsets)
    doc = [*draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)), x + draw(offsets)]
    for _ in range(draw(st.integers(0, 2))):
        if barriers and draw(st.booleans()):
            i = draw(st.integers(0, n - 1))
            field = draw(st.sampled_from(["height", "width", "center"]))
            barriers[i] = dataclasses.replace(barriers[i], **{field: draw(_SPECIAL)})
        else:
            doc[draw(st.integers(0, 2))] = draw(_SPECIAL)
    return (*doc, tuple(barriers))


def mirrored(doc):
    """A document reflected barrier by barrier, as a mirror used to be built."""
    v_left, v_right, span, barriers = doc
    return v_right, v_left, span, tuple(
        Barrier(b.height, b.width, span - b.center) for b in reversed(barriers))


def problems_of(doc):
    try:
        LayeredStructure(*doc)
    except StructureError as ex:
        return ex.problems
    return []


class TestVectorisedValidator:
    @given(documents())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_reference(self, doc):
        for d in (doc, mirrored(doc)):
            assert problems_of(d) == reference_validate(*d)
        if not reference_validate(*doc):
            s = LayeredStructure(*doc)
            assert mirror_structure(s) == LayeredStructure(*mirrored(doc))

    def test_barrier_major_order(self):
        doc = (0.0, math.nan, 4.0, (Barrier(math.nan, 0.0, 1.0), Barrier(1.0, 1.0, math.inf),
                                    Barrier(1.0, -1.0, 3.0), Barrier(-1e200, 1.0, 3.5)))
        assert problems_of(doc) == reference_validate(*doc) == [
            "v_right must lie in [-1e+150, 1e+150], got nan",
            "barrier 1: height must lie in [-1e+150, 1e+150], got nan",
            "barrier 1: width must be positive, got 0.0",
            "barrier 2: center must lie in [-1e+150, 1e+150], got inf",
            "barrier 3: width must be positive, got -1.0",
            "barrier 4: height must lie in [-1e+150, 1e+150], got -1e+200",
        ]


def barrier_chain(count, height, width, gap, media):
    """``scenarios._chain`` built one Barrier at a time, as it used to be."""
    v_left, v_right, margin = media
    barriers, x = [], margin
    for n in range(1, count + 1):
        d = width(n)
        barriers.append(Barrier(height(n), d, x + d / 2.0))
        x += d
        if n < count:
            x += gap(n)
    return LayeredStructure(v_left, v_right, x + margin, tuple(barriers))


def barrier_lattice(lat, v_left=0.0, v_right=0.0):
    """``PeriodicLattice.to_structure`` built one Barrier at a time."""
    x1 = lat.first_center
    barriers = tuple(Barrier(lat.barrier_height, lat.barrier_width, x1 + n * lat.period)
                     for n in range(lat.count))
    span = barriers[-1].right_edge + (x1 - lat.barrier_width / 2.0)
    return LayeredStructure(v_left, v_right, span, barriers)


def assert_same_structure(s, ref):
    assert np.array_equal(s.barrier_arrays, ref.barrier_arrays)
    assert (s.v_left, s.v_right, s.span) == (ref.v_left, ref.v_right, ref.span)
    assert s.barriers == ref.barriers
    assert s == ref and hash(s) == hash(ref)
    assert parse_structure(serialize_structure(s)) == s
    m = mirror_structure(s)
    m_ref = LayeredStructure(*mirrored((ref.v_left, ref.v_right, ref.span, ref.barriers)))
    assert np.array_equal(m.barrier_arrays, m_ref.barrier_arrays)
    assert m.span == m_ref.span and m.barriers == m_ref.barriers
    assert m == m_ref and hash(m) == hash(m_ref)
    assert parse_structure(serialize_structure(m)) == m


class TestArrayBuildsAreBitIdentical:
    """The array builders against the per-Barrier builds they replace."""

    @pytest.mark.parametrize("name, params", [
        *((name, {}) for name in scenarios.SCENARIOS),
        ("graded-quadratic", {"count": 30}), ("graded-product", {"count": 60}),
        ("modulated-sin", {"count": 500}), ("graded-linear", {"count": 0}),
    ])
    def test_scenarios(self, monkeypatch, name, params):
        s = scenarios.build_scenario(name, **params)
        monkeypatch.setattr(scenarios, "_chain", barrier_chain)
        monkeypatch.setattr(PeriodicLattice, "to_structure", barrier_lattice)
        assert_same_structure(s, scenarios.build_scenario(name, **params))

    def test_random_lattices(self, rng):
        for _ in range(25):
            width = float(rng.uniform(0.05, 3.0))
            period = width * float(rng.choice([1.0, rng.uniform(1.0, 3.0)]))
            first = None if rng.random() < 0.5 else width / 2.0 + float(rng.uniform(0, 2))
            lat = PeriodicLattice(float(rng.uniform(-5, 10)), width, period,
                                  int(rng.integers(1, 2001)), first)
            media = tuple(float(v) for v in rng.uniform(-3, 3, 2))
            assert_same_structure(lat.to_structure(*media), barrier_lattice(lat, *media))


class TestValueSemantics:
    def test_array_or_barriers(self):
        arrays = np.array([[3.0, 2.0], [1.0, 0.5], [1.0, 3.0]])
        s = make([Barrier(3, 1, 1), Barrier(2, 0.5, 3)])
        t = LayeredStructure(0.0, 0.0, 4.0, arrays)
        assert s == t and hash(s) == hash(t) and s.n_barriers == 2
        arrays[0, 0] = 9.0  # the structure keeps its own copy
        assert s == t

    def test_values_compare(self):
        s = make([Barrier(3, 1, 1)])
        assert s != make([Barrier(3, 1, 1.5)])
        assert s != make([Barrier(3, 1, 1)], v2=1.0)
        assert s != make([])
        assert make([Barrier(-0.0, 1, 1)]) == make([Barrier(0.0, 1, 1)])
        assert hash(make([Barrier(-0.0, 1, 1)])) == hash(make([Barrier(0.0, 1, 1)]))

    def test_rejects_misshapen_arrays(self):
        with pytest.raises(ValueError):
            LayeredStructure(0.0, 0.0, 4.0, np.ones((2, 3)))


class TestOneEnergyRule:
    # Every entry point that solves refuses an energy with check_energy's own
    # exception type and line; a lattice's entry points with those of its cell.
    S = LayeredStructure(1.0, 0.0, 4.0, np.array([[0.0, 3.0], [1.0, 0.5], [1.0, 2.5]]))
    # 3.0: a height; 1.0: V1
    ENERGIES = [math.nan, math.inf, -math.inf, -1.0, 0.0, 3.0, 1e-310, 0.5, 1.0, 1e308]
    IDS = ["nan", "inf", "minus-inf", "negative", "zero", "height", "tiny", "below-v1",
           "at-v1", "huge"]

    @staticmethod
    def assert_refused_as_the_rule(expect, call):
        with pytest.raises(Exception) as rule:
            expect()
        with pytest.raises(Exception) as got:
            call()
        assert (type(got.value), str(got.value)) == (type(rule.value), str(rule.value))

    @pytest.mark.parametrize("energy", ENERGIES, ids=IDS)
    @pytest.mark.parametrize("entry", [
        assemble_matching_system, oracle_solution, compare_with_pipeline,
        scattering_amplitudes, solve_structure], ids=lambda f: f.__name__)
    def test_structure_entry_points(self, entry, energy):
        self.assert_refused_as_the_rule(lambda: check_energy(self.S, energy),
                                        lambda: entry(self.S, energy))

    @pytest.mark.parametrize("lat, energy", [
        (PeriodicLattice(3.0, 1.0, 2.0), math.nan),
        (PeriodicLattice(3.0, 1.0, 2.0), math.inf),
        (PeriodicLattice(3.0, 1.0, 2.0), -math.inf),
        (PeriodicLattice(3.0, 1.0, 2.0), -1.0),
        (PeriodicLattice(3.0, 1.0, 2.0), 0.0),
        (PeriodicLattice(3.0, 1.0, 2.0), 3.0),
        (PeriodicLattice(0.0, 1.0, 2.0), 1e-310),
        (PeriodicLattice(3.0, 1.0, 2.0), 1e308),
    ], ids=["nan", "inf", "minus-inf", "negative", "zero", "height", "tiny", "huge"])
    @pytest.mark.parametrize("entry", [bloch_phase, lambda lat, e: closed_form_prefix(lat, e, 5)],
                             ids=["bloch_phase", "closed_form_prefix"])
    def test_lattice_entry_points(self, entry, lat, energy):
        self.assert_refused_as_the_rule(lambda: check_energy(lat.cell, energy),
                                        lambda: entry(lat, energy))

    def test_tiny_energy_names_its_own_cause(self):
        # no k is 0 at 1e-310 under a zero-height barrier, only k0 |k_n| is tiny;
        # 0 and a barrier height keep the k = 0 line
        lines = {}
        for e in (1e-310, 0.0, 3.0):
            with pytest.raises(DegenerateWavenumberError) as info:
                check_energy(self.S, e)
            lines[e] = str(info.value)
        assert lines[1e-310] == (
            "energy 1e-310 is so small that k0 |k_n| <= 0.5/DBL_MAX in a barrier, "
            "where the barrier formula's 1/(2 k_n k0) overflows; nudge the energy")
        for e in (0.0, 3.0):
            assert lines[e] == (f"energy {e} makes k = 0 in a gap or a barrier, "
                                "where the plane waves are degenerate; nudge the energy")

    def test_energy_outside_the_domain_names_the_domain(self):
        # the first eps outside [-DOMAIN, DOMAIN], NaN and +-inf included, as a
        # ValueError before any other rule; the domain's edge passes this rule
        # and meets the next one
        for e, shown in ((np.nextafter(DOMAIN, math.inf), "1.0000000000000002e+150"),
                         (-1e200, "-1e+200"), (math.inf, "inf"), (math.nan, "nan")):
            with pytest.raises(ValueError) as info:
                check_energy(self.S, np.array([2.0, e, -1.0]))
            assert type(info.value) is ValueError
            assert str(info.value) == f"energy must lie in [-1e+150, 1e+150], got {shown}"
        check_energy(self.S, DOMAIN)
        with pytest.raises(EvanescentGapError):
            check_energy(self.S, -DOMAIN)
