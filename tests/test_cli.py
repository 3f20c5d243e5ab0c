import contextlib
import dataclasses
import errno
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layerscatter
from layerscatter import (
    Barrier,
    EmbeddedAmplitudes,
    LayeredStructure,
    PeriodicLattice,
    ScatteringSolution,
    StructureError,
    closed_form_prefix,
    compute_wavenumbers,
    evaluate_psi,
    oracle_solution,
    reflection_probability,
    solve_structure,
    transmission_probability,
    validate_structure,
)
from layerscatter.amplitudes import scattering_amplitudes
from layerscatter.cli import (
    CSV_BLOCK_ROWS,
    CSV_INTEGER_ROWS,
    _write_csv,
    build_parser,
    main,
    parse_structure,
)
from layerscatter.scenarios import SCENARIOS, build_scenario

from conftest import reference_psi, serialize_structure


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStructureFiles:
    def test_roundtrip_bit_exact(self):
        s = LayeredStructure(
            0.1, -0.3, 5.0,
            (Barrier(2.2, 1.1, 1.0), Barrier(-1.0 / 3.0, 0.7, 3.3)),
        )
        assert parse_structure(serialize_structure(s)) == s

    def test_generator_document(self):
        doc = json.dumps({"generator": {"kind": "periodic", "params": {"count": 4}}})
        s = parse_structure(doc)
        assert s.n_barriers == 4

    def test_bad_json_reports(self):
        from layerscatter import StructureError

        with pytest.raises(StructureError):
            parse_structure("{not json")

    def test_missing_keys_reported(self):
        from layerscatter import StructureError

        with pytest.raises(StructureError) as exc:
            parse_structure(json.dumps({"v_left": 0}))
        assert any("missing key" in p for p in exc.value.problems)

    def test_invalid_geometry_forwarded(self):
        from layerscatter import StructureError

        doc = json.dumps({
            "v_left": 0, "v_right": 0, "span": 2,
            "barriers": [{"height": 3, "width": 1, "center": 2}],
        })
        with pytest.raises(StructureError):
            parse_structure(doc)

    @pytest.mark.parametrize("key, value", [
        ("barriers", "5"),
        ("v_left", "[1]"),
        ("span", '"wide"'),
        ("v_right", "Infinity"),
        ("v_left", "NaN"),
        ("v_left", "1" + "0" * 400),   # too large for a float
        ("span", "1" + "0" * 5000),    # too many digits for an int
    ], ids=["barriers-int", "v_left-list", "span-text", "v_right-inf", "v_left-nan",
            "v_left-huge", "span-too-long"])
    def test_malformed_document_exits_2(self, capsys, tmp_path, key, value):
        fields = {"v_left": "0", "v_right": "0", "span": "2", "barriers": "[]", key: value}
        f = tmp_path / "s.json"
        f.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        with pytest.raises(StructureError):
            parse_structure(f.read_text())
        code, out, err = run_cli(
            capsys, "sweep", "--structure", str(f), "--energy-range", "1:2:3",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_NUMBERS = st.floats(-10.0, 10.0) | st.integers(-3, 10)
_BARRIERS = st.fixed_dictionaries(
    {}, optional={k: _NUMBERS | _JSON_VALUES for k in ("height", "width", "center")}
)
_DOCUMENTS = _JSON_VALUES | st.fixed_dictionaries({}, optional={
    "v_left": _NUMBERS | _JSON_VALUES,
    "v_right": _NUMBERS | _JSON_VALUES,
    "span": _NUMBERS | _JSON_VALUES,
    "barriers": st.lists(_BARRIERS | _JSON_VALUES, max_size=3) | _JSON_VALUES,
})


@settings(max_examples=300, deadline=None)
@given(doc=_DOCUMENTS)
def test_malformed_documents_rejected(doc):
    text = json.dumps(doc)
    try:
        s = parse_structure(text)
    except StructureError:
        expected = 2
    else:
        assert validate_structure(s) is s
        expected = 0
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", "--structure", "-"])
    assert code == expected


class TestScenarioFidelity:
    def test_graded_linear_parameters(self):
        s = build_scenario("graded-linear")
        assert s.v_left == 2.0 and s.v_right == 1.0
        assert s.n_barriers == 8
        for i, b in enumerate(s.barriers, start=1):
            assert b.height == 4.0 + 0.35 * i
            assert b.width == 1.0 + 0.1 * i
        assert s.barriers[0].left_edge == pytest.approx(0.75)
        assert s.span - s.barriers[-1].right_edge == pytest.approx(0.75)
        for i in range(7):
            gap = s.barriers[i + 1].left_edge - s.barriers[i].right_edge
            assert gap == pytest.approx(1.0 - 0.1 * (i + 1))

    def test_graded_quadratic_parameters(self):
        s = build_scenario("graded-quadratic")
        for i, b in enumerate(s.barriers, start=1):
            assert b.height == pytest.approx(0.05 * i * i)
            assert b.width == pytest.approx(1.0 + 0.1 * i * i)
        for i in range(7):
            gap = s.barriers[i + 1].left_edge - s.barriers[i].right_edge
            assert gap == pytest.approx(1.0 + 0.1 * (i + 1))

    def test_graded_product_parameters(self):
        s = build_scenario("graded-product")
        for i, b in enumerate(s.barriers, start=1):
            assert b.height == pytest.approx(0.035 * i * (8 - i + 1))
            assert b.width == pytest.approx(0.2 * i + 0.1 * i * i)
        assert s.v_left == 0.5 and s.v_right == 0.75
        assert s.barriers[0].left_edge == pytest.approx(1.0)

    def test_graded_product_m_override(self):
        s = build_scenario("graded-product", m=4)
        assert s.barriers[0].height == pytest.approx(0.035 * 1 * 4)

    def test_modulated_sin_parameters(self):
        s = build_scenario("modulated-sin")
        for i, b in enumerate(s.barriers, start=1):
            assert b.height == pytest.approx(4.0 * math.sin(i) ** 2)
            assert b.width == 1.0

    def test_all_scenarios_validate(self):
        from layerscatter import validate_structure

        for name in SCENARIOS:
            validate_structure(build_scenario(name))


class TestWavefunctionCommand:
    def test_csv_format_and_probabilities(self, capsys, tmp_path):
        out = tmp_path / "wf.csv"
        code, stdout, _ = run_cli(
            capsys, "wavefunction", "--scenario", "periodic",
            "--energy", "4.6", "--out", str(out),
        )
        assert code == 0
        assert stdout.startswith("T=")
        lines = out.read_text().splitlines()
        assert lines[0] == "x,re_psi,im_psi,abs2_psi"
        assert len(lines) >= 1001
        # 17-significant-digit round trip
        for field in lines[1].split(","):
            assert float(format(float(field), ".17g")) == float(field)

    def test_free_space_density(self, capsys, tmp_path):
        doc = {"v_left": 0, "v_right": 0, "span": 2, "barriers": []}
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "wf.csv"
        code, stdout, _ = run_cli(
            capsys, "wavefunction", "--structure", str(f),
            "--energy", "4.0", "--out", str(out),
        )
        assert code == 0
        rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
        assert np.allclose(rows[:, 3], 1.0)

    def test_evanescent_right_medium_far_right(self, capsys, tmp_path):
        # the right medium's e^{-ikx} wave has coefficient 0; its exponential
        # alone would overflow at x = 300
        doc = {"v_left": 0, "v_right": 10, "span": 2,
               "barriers": [{"height": 3, "width": 1, "center": 1}]}
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "wf.csv"
        code, _, err = run_cli(
            capsys, "wavefunction", "--structure", str(f), "--energy", "1.01",
            "--x-max", "300", "--out", str(out),
        )
        assert code == 0, err
        rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows))
        far = rows[rows[:, 0] > 10.0, 3]
        assert far.size and np.all(far < 1e-20)

    def test_nonpropagating_energy_refused(self, capsys, tmp_path):
        doc = {"v_left": 5, "v_right": 0, "span": 2, "barriers": []}
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "wavefunction", "--structure", str(f), "--energy", "4.0",
        )
        assert code == 3
        assert "propagate" in err

    def test_mirror_transmission_invariant(self, capsys, tmp_path):
        # |T|^2 flux through a structure equals that through its mirror
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        code1, so1, _ = run_cli(
            capsys, "wavefunction", "--scenario", "graded-linear",
            "--energy", "9.0", "--out", str(out1),
        )
        code2, so2, _ = run_cli(
            capsys, "wavefunction", "--scenario", "graded-linear", "--mirror",
            "--energy", "9.0", "--out", str(out2),
        )
        assert code1 == code2 == 0
        t1 = float(so1.split()[0][2:])
        t2 = float(so2.split()[0][2:])
        assert t1 == pytest.approx(t2, rel=1e-12)


class TestSweepCommand:
    def test_header_and_conservation(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", "periodic",
            "--energy-range", "0.5:8:200", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,T_prob,R_prob"
        rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert np.allclose(rows[:, 1] + rows[:, 2], 1.0, atol=1e-10)

    @pytest.mark.parametrize("doc, energy_range, nudged", [
        # the grid hits epsilon = 3, the periodic scenario's barrier height: k_n = 0
        ({"generator": {"kind": "periodic"}}, "1:5:5", 3.0),
        # epsilon = 0 above a lower left medium: k_gap = 0
        ({"v_left": -1, "v_right": -1, "span": 3,
          "barriers": [{"height": 1, "width": 1, "center": 1.5}]}, "0:2:3", 0.0),
    ], ids=["barrier-height", "gap"])
    def test_degenerate_point_nudged(self, capsys, tmp_path, doc, energy_range, nudged):
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--structure", str(f),
            "--energy-range", energy_range, "--out", str(out),
        )
        assert code == 0
        rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
        assert rows.shape[0] == int(energy_range.split(":")[2])
        (row,) = rows[rows[:, 0] == nudged]
        sol = solve_structure(parse_structure(json.dumps(doc)), nudged + 1e-9)
        t = transmission_probability(sol.embedded, sol.wavenumbers)
        assert row[1] == pytest.approx(t, abs=1e-12)
        assert row[2] == pytest.approx(reflection_probability(sol.embedded), abs=1e-12)

    def test_degenerate_point_below_one_ulp_of_nudge(self, capsys, tmp_path):
        # 1e8 + 1e-9 == 1e8: the grid point on the barrier height moves by one
        # ulp instead, as the band scan's do, rather than exit 3 at k = 0
        doc = {"v_left": 0, "v_right": 0, "span": 3,
               "barriers": [{"height": 1e8, "width": 1, "center": 1.5}]}
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--structure", str(f),
                               "--energy-range", "99999999:100000001:3", "--out", str(out))
        assert (code, err) == (0, "")
        row = np.loadtxt(str(out), delimiter=",", skiprows=1)[1]
        # a batch of one, as the sweep computes: numpy's scalar and array
        # loops may differ in the last bit
        w, _, _, emb = scattering_amplitudes(parse_structure(json.dumps(doc)),
                                             np.array([np.nextafter(1e8, np.inf)]))
        assert row.tolist() == [1e8, *transmission_probability(emb, w),
                                *reflection_probability(emb)]

    def test_single_barrier_high_energy_transparent(self, capsys, tmp_path):
        doc = {"v_left": 0, "v_right": 0, "span": 2,
               "barriers": [{"height": 1.0, "width": 1.0, "center": 1.0}]}
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--structure", str(f),
            "--energy-range", "200:400:10", "--out", str(out),
        )
        rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
        assert np.all(rows[:, 1] > 0.99)


@pytest.mark.parametrize("spec, message", [
    ("1:2", "--energy-range must be MIN:MAX:STEPS"),
    ("2:1:10", "--energy-range needs MAX > MIN and STEPS >= 2"),
    ("1:2:1", "--energy-range needs MAX > MIN and STEPS >= 2"),
])
@pytest.mark.parametrize("command", [
    ["sweep", "--scenario", "periodic"],
    ["bands", "--barrier-height", "3", "--barrier-width", "1", "--period", "2"],
])
def test_bad_energy_range_exits_2(capsys, command, spec, message):
    code, out, err = run_cli(capsys, *command, "--energy-range", spec)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def assert_total_reflection(path):
    rows = np.loadtxt(str(path), delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[0] >= 2
    assert (rows[:, 1] == 0.0).all()
    assert np.abs(rows[:, 2] - 1.0).max() <= 1e-12


@pytest.mark.parametrize("count, energy_range", [
    (2000, "4.6:4.601:2"),   # T underflows deep in a forbidden band
])
def test_forbidden_band_sweep_reflects_fully(capsys, tmp_path, count, energy_range):
    # the recurrence's 1/T overflowed here (exit 3); the star products give
    # an honest T = 0 and R = 1
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--scenario", "periodic",
        "--scenario-params", f"count={count}", "--energy-range", energy_range,
        "--out", str(out),
    )
    assert (code, err) == (0, "")
    assert_total_reflection(out)


@pytest.mark.parametrize("count", [2000, 1850])  # T = 0, and a subnormal T
def test_forbidden_band_wavefunction_matches_left_medium(capsys, tmp_path, count):
    # T underflows deep in a forbidden band, but the gap coefficients come
    # from bounded reflections, not from T: psi on the left is (1, R).  With
    # no flux, |psi|^2 + |psi'/k|^2 is |psi|'s peak in a region of real k; it
    # is 4 left of the chain, at most 4 in every gap and at most
    # 4 k0^2/k_n^2 in the barriers, as continuity of psi and psi' carries it
    s = PeriodicLattice(3.0, 1.0, 2.0, count).to_structure()
    sol = solve_structure(s, 4.6)
    assert sol.a[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.b[0] == pytest.approx(sol.embedded.r_full, abs=1e-12)
    out = tmp_path / "wf.csv"
    source = ["--scenario", "periodic", "--scenario-params", f"count={count}", "--energy", "4.6"]
    code, _, err = run_cli(capsys, "wavefunction", *source, "--out", str(out))
    assert (code, err) == (0, "")
    x, density = np.loadtxt(str(out), delimiter=",", skiprows=1, usecols=(0, 3)).T
    assert density[x <= 0.5].max() <= 4.0 * (1.0 + 1e-9)  # the first barrier's left edge
    assert density.max() <= 4.0 * 4.6 / (4.6 - 3.0) * (1.0 + 1e-9)
    code, stdout, err = run_cli(capsys, "oracle-check", *source)
    assert (code, err) == (0, "")
    assert float(stdout.split("=")[1].split()[0]) <= 1e-12


@pytest.mark.parametrize("command", [
    ["wavefunction", "--energy", "-1"],
    ["sweep", "--energy-range=-1:-0.9:2"],
    ["oracle-check", "--energy", "-1"],
], ids=["wavefunction", "sweep", "oracle-check"])
def test_negative_gap_energy_exits_3(capsys, tmp_path, command):
    # v_left < eps < 0: the gaps are evanescent, which the recurrence's
    # conjugate relations do not cover; the pipeline used to print R = -1j
    doc = {"v_left": -2, "v_right": -1.5, "span": 3,
           "barriers": [{"height": 1, "width": 1, "center": 1.5}]}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(capsys, command[0], "--structure", str(f), *command[1:],
                                *(["--out", str(out)] if command[0] != "oracle-check" else []))
    assert code == 3
    assert stdout == ""
    assert err.startswith("error: energy -1.0 < 0")
    assert not out.exists()


@pytest.mark.parametrize("doc, energy", [
    ({"generator": {"kind": "periodic"}}, "3.0"),  # k = 0 in every barrier
    ({"v_left": -1, "v_right": -1, "span": 3,
      "barriers": [{"height": 1, "width": 1, "center": 1.5}]}, "0"),  # k_gap = 0
], ids=["barrier", "gap"])
def test_oracle_check_at_zero_wavenumber_exits_3(capsys, tmp_path, doc, energy):
    # a region with k = 0 makes the matching system singular; the energy gate
    # refuses it first, with the line every other command prints
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    code, stdout, err = run_cli(capsys, "oracle-check", "--structure", str(f),
                                "--energy", energy)
    assert code == 3
    assert stdout == ""
    assert err.startswith(f"error: energy {float(energy)} makes k = 0 in a gap or a barrier")
    assert "Traceback" not in err


@pytest.mark.parametrize("doc, energy, first_line", [
    ({"v_left": 5, "v_right": 0, "span": 2,
      "barriers": [{"height": 3, "width": 1, "center": 1}]}, 4.0,
     "error: energy 4.0 does not propagate in the left medium (V1 = 5.0)"),
    ({"v_left": -2, "v_right": -1.5, "span": 3,
      "barriers": [{"height": 1, "width": 1, "center": 1.5}]}, -1.0,
     "error: energy -1.0 < 0: the gaps between barriers are evanescent"),
    ({"v_left": -2, "v_right": -1.5, "span": 3,
      "barriers": [{"height": 1, "width": 1, "center": 1.5}]}, 1.0,
     "error: energy 1.0 makes k = 0 in a gap or a barrier"),
], ids=["below-v1", "negative", "barrier-height"])
def test_energy_gate_is_one_rule_for_every_command(capsys, tmp_path, doc, energy, first_line):
    # eps < V1, V1 < eps < 0 and eps on a barrier height: each command refuses
    # the energy with the same first error line; sweep runs with its nudge off
    # so that the gate sees the grid energy itself
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    lines = {}
    for command in (["wavefunction", "--energy", str(energy), "--out", str(out)],
                    ["sweep", f"--energy-range={energy}:{energy + 0.5}:2", "--nudge", "0",
                     "--out", str(out)],
                    ["oracle-check", "--energy", str(energy)]):
        code, stdout, err = run_cli(capsys, command[0], "--structure", str(f), *command[1:])
        assert (code, stdout) == (3, ""), command
        assert not out.exists()
        lines[command[0]] = err.splitlines()[0]
    assert set(lines.values()) == {lines["wavefunction"]}
    assert lines["wavefunction"].startswith(first_line)


def run_fresh(*argv, stdin=None):
    """Run the CLI in a fresh interpreter, so that stderr shows any numpy
    RuntimeWarning as a user would see it."""
    env = dict(os.environ, PYTHONPATH=str(Path(layerscatter.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "layerscatter.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=env, timeout=60)


# A 1e6-high, unit-width barrier, whose t of about e^{-1000} underflows to 0.
UNDERFLOWED_BARRIER = json.dumps({"v_left": 0, "v_right": 0, "span": 3, "barriers": [
    {"height": 1e6, "width": 1, "center": 1.5}]})


# Evanescent barriers far from the origin, where e^{|Im k| x} at a barrier's
# left edge passes the largest double (|Im k| x = 1000 and 718.5): plane waves
# with origin 0 overflowed there, the barriers' own edges keep them bounded.
FAR_EVANESCENT = pytest.mark.parametrize("source, energy, s", [
    (["--structure", "-"], 1.5, parse_structure(UNDERFLOWED_BARRIER)),
    (["--scenario", "periodic", "--scenario-params", "count=360"], 2.0,
     build_scenario("periodic", count=360)),
], ids=["underflowed-barrier", "periodic-360"])


@FAR_EVANESCENT
def test_far_evanescent_barriers_give_psi(tmp_path, source, energy, s):
    # exit 0 with empty stderr, so no numpy RuntimeWarning either, and psi
    # finite and equal to the banded oracle's, evaluated from its coefficients
    out = tmp_path / "wf.csv"
    proc = run_fresh("wavefunction", *source, "--energy", str(energy), "--out", str(out),
                     stdin=UNDERFLOWED_BARRIER)
    assert (proc.returncode, proc.stderr) == (0, "")
    x, re_psi, im_psi = np.loadtxt(str(out), delimiter=",", skiprows=1, usecols=(0, 1, 2)).T
    psi = re_psi + 1j * im_psi
    assert np.isfinite(psi).all()
    ora = oracle_solution(s, energy)
    sol = dataclasses.replace(solve_structure(s, energy), a=ora.a, b=ora.b, c=ora.c, d=ora.d)
    assert np.abs(psi - evaluate_psi(sol, x)).max() <= 1e-11 * np.abs(psi).max()


@FAR_EVANESCENT
def test_oracle_check_on_far_evanescent_barriers(source, energy, s):
    # the matching matrix takes the same bounded waves: exit 0, no numpy
    # RuntimeWarning, and a well-conditioned agreement
    proc = run_fresh("oracle-check", *source, "--energy", str(energy),
                     stdin=UNDERFLOWED_BARRIER)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert float(proc.stdout.split("=")[1].split()[0]) <= 1e-11
    assert "tolerance 1e-09" in proc.stdout


# A zero-height barrier, so that k0 |k_n| = eps: at 1e-310 and 5e-324 that lies
# below 0.5/DBL_MAX, where the barrier formula's 1/(2 k_n k0) overflows.
TINY_ENERGY_BARRIER = json.dumps({"v_left": 0, "v_right": 0, "span": 3, "barriers": [
    {"height": 0, "width": 1, "center": 1.5}]})


@pytest.mark.parametrize("energy", ["1e-310", "5e-324"])
def test_tiny_energy_is_degenerate_for_every_command(tmp_path, energy):
    # the energy rule refuses it as it refuses k = 0, with a line that names
    # its own cause: sweep nudges the point and exits 0, wavefunction and
    # oracle-check exit 3 with the gate's one line, and no numpy
    # RuntimeWarning reaches stderr
    out = tmp_path / "sweep.csv"
    proc = run_fresh("sweep", "--structure", "-", f"--energy-range={energy}:1:3",
                     "--out", str(out), stdin=TINY_ENERGY_BARRIER)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert rows[0, 0] == float(energy) and np.isfinite(rows).all()
    for argv in (["wavefunction", "--out", str(tmp_path / "wf.csv")], ["oracle-check"]):
        proc = run_fresh(*argv, "--structure", "-", f"--energy={energy}",
                         stdin=TINY_ENERGY_BARRIER)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.splitlines() == [
            f"error: energy {float(energy)} is so small that k0 |k_n| <= 0.5/DBL_MAX "
            "in a barrier, where the barrier formula's 1/(2 k_n k0) overflows; "
            "nudge the energy"]
    assert not (tmp_path / "wf.csv").exists()


def test_energy_above_the_tiny_bound_solves(capsys, tmp_path):
    # at 1e-308, k0 |k_n| = 1e-308 > 0.5/DBL_MAX: every command solves there,
    # and sweep keeps the point where it is
    f = tmp_path / "s.json"
    f.write_text(TINY_ENERGY_BARRIER)
    out = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, "sweep", "--structure", str(f),
                           "--energy-range=1e-308:1:3", "--nudge", "0", "--out", str(out))
    assert (code, err) == (0, "")
    assert np.loadtxt(str(out), delimiter=",", skiprows=1)[0].tolist() == [1e-308, 1.0, 0.0]
    for argv in (["wavefunction", "--out", str(out)], ["oracle-check"]):
        code, stdout, err = run_cli(capsys, *argv, "--structure", str(f), "--energy=1e-308")
        assert (code, err) == (0, "")
    assert stdout.startswith("max relative discrepancy")


def barrier_json(span, height, width, center):
    return json.dumps({"v_left": 0, "v_right": 0, "span": span,
                       "barriers": [{"height": height, "width": width, "center": center}]})


def document(span, barriers, v_left=0, v_right=0):
    return json.dumps({"v_left": v_left, "v_right": v_right, "span": span, "barriers": [
        {"height": h, "width": w, "center": c} for h, w, c in barriers]})


def outside(name, value, prefix="error"):
    """The refusal line of a value outside the domain [-1e150, 1e150]."""
    return f"{prefix}: {name} must lie in [-1e+150, 1e+150], got {value}"


DBL_MAX = np.finfo(float).max.item()
LATTICE = ["--barrier-height", "3", "--barrier-width", "1"]
DBL_MAX_HEIGHT = ["--barrier-height", "1.7976931348623157e308", "--barrier-width", "1",
                  "--period", "2"]
PERIODIC = ["--scenario", "periodic"]
# A gap, or a barrier, far longer than the domain
S_WIDE = barrier_json(1.7e308, 3, 1, 1.5)
S_WIDEBAR = barrier_json(1.6e308, 3, 1.5e308, 8e307)
# where psi's phase k (x - o) passed the largest double at eps = 4.6
SAMPLER_LIMIT = DBL_MAX / math.sqrt(4.6)


def refused(argv, lines, doc=None, *, id):
    return pytest.param(argv, doc, lines, id=id)


# Each input once refused by one of the per-formula overflow rules, or past
# the largest double, and the inputs just outside the domain that stand for
# them: exit 2, one line per value outside [-1e150, 1e150], in the order
# validate_structure lists them (a structure's before the options').
OUT_OF_DOMAIN = [
    # energies, ranges and the nudge
    refused(["sweep", *PERIODIC, "--energy-range", "8.98e307:8.995e307:4"],
            [outside("--energy-range MIN", "8.98e+307")], id="sweep-huge-range"),
    refused(["sweep", *PERIODIC, "--energy-range", "8.97e307:8.98e307:3"],
            [outside("--energy-range MIN", "8.97e+307")], id="sweep-below-old-kernel-rule"),
    refused(["sweep", *PERIODIC, "--energy-range", "1e-06:1e308:30"],
            [outside("--energy-range MAX", "1e+308")], id="sweep-to-1e308"),
    refused(["sweep", *PERIODIC, "--energy-range", "0:1.7976931348623157e308:30"],
            [outside("--energy-range MAX", "1.7976931348623157e+308")],
            id="sweep-largest-double"),
    refused(["sweep", *PERIODIC, "--energy-range=-1e308:1.7e308:5"],
            [outside("--energy-range MIN", "-1e+308")], id="sweep-range-overflows"),
    refused(["sweep", *PERIODIC, "--energy-range", "1:1.0000000000000002e150:3"],
            [outside("--energy-range MAX", "1.0000000000000002e+150")],
            id="sweep-one-ulp-outside"),
    refused(["sweep", *PERIODIC, "--energy-range", "1:inf:5"],
            [outside("--energy-range MAX", "inf")], id="sweep-max-inf"),
    refused(["sweep", *PERIODIC, "--energy-range", "nan:2:5"],
            [outside("--energy-range MIN", "nan")], id="sweep-min-nan"),
    refused(["bands", *LATTICE, "--period", "2", "--energy-range", "1:inf:5"],
            [outside("--energy-range MAX", "inf")], id="bands-max-inf"),
    refused(["bands", *LATTICE, "--period", "2", "--energy-range", "nan:2:5"],
            [outside("--energy-range MIN", "nan")], id="bands-min-nan"),
    refused(["bands", *LATTICE, "--period", "2", "--energy-range", "0:1e308:30"],
            [outside("--energy-range MAX", "1e+308")], id="bands-to-1e308"),
    refused(["sweep", *PERIODIC, "--energy-range", "1:2:3", "--nudge", "nan"],
            [outside("--nudge", "nan")], id="nudge-nan"),
    refused(["sweep", *PERIODIC, "--energy-range", "0:2:3", "--nudge=-inf"],
            [outside("--nudge", "-inf")], id="nudge-inf"),
    refused(["sweep", *PERIODIC, "--energy-range", "0:2:3", "--nudge", "1e151"],
            [outside("--nudge", "1e+151")], id="nudge-outside"),
    refused(["wavefunction", *PERIODIC, "--energy", "1e308", "--grid-points", "5"],
            [outside("energy", "1e+308")], id="wavefunction-energy-1e308"),
    refused(["wavefunction", *PERIODIC, "--energy", "8.98e307", "--grid-points", "5"],
            [outside("energy", "8.98e+307")], id="wavefunction-below-old-kernel-rule"),
    refused(["wavefunction", *PERIODIC, "--energy", "1e200", "--grid-points", "5"],
            [outside("energy", "1e+200")], id="wavefunction-energy-1e200"),
    refused(["wavefunction", *PERIODIC, "--energy", "inf", "--grid-points", "5"],
            [outside("energy", "inf")], id="wavefunction-energy-inf"),
    refused(["wavefunction", *PERIODIC, "--energy=-inf", "--grid-points", "5"],
            [outside("energy", "-inf")], id="wavefunction-energy-minus-inf"),
    refused(["oracle-check", *PERIODIC, "--energy", "inf"],
            [outside("energy", "inf")], id="oracle-check-energy-inf"),
    refused(["oracle-check", *PERIODIC, "--energy", "1e308"],
            [outside("energy", "1e+308")], id="oracle-check-energy-1e308"),
    refused(["oracle-check", *PERIODIC, "--energy", "8.98e307"],
            [outside("energy", "8.98e+307")], id="oracle-check-below-old-kernel-rule"),
    # a degenerate grid point at the domain's edge that the nudge moves past
    # it: by one ulp, as 1e150 + 1e-9 rounds back, or by the nudge itself
    refused(["sweep", "--energy-range", "1:1e150:3"],
            [outside("energy", "1.0000000000000002e+150")],
            barrier_json(3, 1e150, 1, 1.5), id="nudged-one-ulp-past-the-domain"),
    refused(["sweep", "--energy-range", "1:1e150:3", "--nudge", "1e150"],
            [outside("energy", "2e+150")],
            barrier_json(3, 1e150, 1, 1.5), id="nudged-past-the-domain"),
    # lattices
    refused(["bands", *LATTICE, "--period", "inf", "--energy-range", "0:12:30"],
            [outside("period", "inf")], id="bands-period-inf"),
    refused(["bands", *LATTICE, "--period", "1e308", "--energy-range", "0:12:30"],
            [outside("period", "1e+308")], id="bands-period-1e308"),
    refused(["bands", *LATTICE, "--period", "1e307", "--energy-range", "0:12:30"],
            [outside("period", "1e+307")], id="bands-period-1e307"),
    *(refused(["bands", *DBL_MAX_HEIGHT, "--energy-range", spec],
              [outside("barrier height", "1.7976931348623157e+308")], id=f"bands-height-{name}")
      for name, spec in (("inside", "0:1e307:30"), ("scattered", "1e300:1e301:3000"),
                         ("midpoint", "5.481887415507686e+301:9.357216995498906e+301:2"),
                         ("largest-double", "0:1.7976931348623157e308:30"))),
    refused(["bands", "--barrier-height", "1e308", "--barrier-width", "1", "--period", "2",
             "--energy-range", "0:1.2e308:30"],
            [outside("barrier height", "1e+308")], id="bands-height-1e308"),
    refused(["bands", "--barrier-height", "3", "--barrier-width", "1.5e308", "--period",
             "1.6e308", "--energy-range", "0:5:3"],
            [outside("barrier width", "1.5e+308")], id="bands-barrier-1.5e308"),
    refused(["bands", "--barrier-height", "3", "--barrier-width", "1e308", "--period",
             "1.6e308", "--energy-range", "0:5:3"],
            [outside("barrier width", "1e+308")], id="bands-barrier-1e308"),
    refused(["sweep", *PERIODIC, "--scenario-params", "period=1e308,count=3",
             "--energy-range", "1:2:3"],
            [outside("scenario periodic: period", "1e+308")], id="lattice-span"),
    refused(["sweep", *PERIODIC, "--scenario-params",
             "barrier_width=1.5e308,period=1.6e308,count=1", "--energy-range", "1e-06:5:3"],
            [outside("scenario periodic: barrier width", "1.5e+308")], id="lattice-wide-barrier"),
    refused(["sweep", *PERIODIC, "--scenario-params", "first_center=1.7e308",
             "--energy-range", "1:2:3"],
            [outside("scenario periodic: first_center", "1.7e+308")], id="lattice-first-center"),
    refused(["sweep", *PERIODIC, "--scenario-params", "first_center=nan",
             "--energy-range", "1:2:3"],
            [outside("scenario periodic: first_center", "nan")], id="lattice-first-center-nan"),
    refused(["sweep", *PERIODIC, "--scenario-params", "period=1e150,count=3",
             "--energy-range", "1:2:3"],
            [outside("scenario periodic: span 2 first_center + (count - 1) period", "3e+150")],
            id="lattice-past-the-domain"),
    refused(["sweep", *PERIODIC, "--scenario-params", "first_center=1e150",
             "--energy-range", "1:2:3"],
            [outside("scenario periodic: span 2 first_center + (count - 1) period", "2e+150")],
            id="lattice-first-center-past-the-domain"),
    # grid bounds
    refused(["wavefunction", *PERIODIC, "--energy", "4.6", "--grid-points", "5",
             "--x-min", "0", "--x-max", "1e308"],
            [outside("--x-max", "1e+308")], id="wavefunction-far-x-max"),
    refused(["wavefunction", *PERIODIC, "--energy", "4.6", "--grid-points", "5",
             "--x-min=-1e308"],
            [outside("--x-min", "-1e+308")], id="wavefunction-far-x-min"),
    refused(["wavefunction", *PERIODIC, "--energy", "4.6", "--x-min=-1e308", "--x-max", "1e308"],
            [outside("--x-min", "-1e+308")], id="wavefunction-range-overflows"),
    refused(["wavefunction", *PERIODIC, "--energy", "4.6", "--x-min=-1e307", "--x-max", "1e307"],
            [outside("--x-min", "-1e+307")], id="wavefunction-count-overflows"),
    refused(["wavefunction", *PERIODIC, "--energy", "4.6", "--x-min=-inf"],
            [outside("--x-min", "-inf")], id="wavefunction-x-min-inf"),
    refused(["wavefunction", *PERIODIC, "--energy", "4.6", "--x-max", "inf"],
            [outside("--x-max", "inf")], id="wavefunction-x-max-inf"),
    refused(["wavefunction", *PERIODIC, "--energy", "4.6", "--x-min", "nan"],
            [outside("--x-min", "nan")], id="wavefunction-x-min-nan"),
    refused(["wavefunction", *PERIODIC, "--scenario-params", "count=8", "--energy", "4.6",
             "--grid-points", "5", "--x-min", "0", "--x-max", repr(SAMPLER_LIMIT)],
            [outside("--x-max", repr(SAMPLER_LIMIT))], id="wavefunction-sampler-x-max"),
    refused(["wavefunction", *PERIODIC, "--scenario-params", "count=8", "--energy", "4.6",
             "--grid-points", "5", f"--x-min={-SAMPLER_LIMIT!r}", "--x-max", "0"],
            [outside("--x-min", repr(-SAMPLER_LIMIT))], id="wavefunction-sampler-x-min"),
    refused(["wavefunction", "--energy", "4.6", "--grid-points", "5"],
            [outside("v_right", "-1e+300"), outside("span", "1e+160")],
            document(1e160, [], v_right=-1e300), id="wavefunction-sampler-default-bound"),
    # structures
    refused(["sweep", "--energy-range", "4:5:3"], [outside("span", "1.7e+308")], S_WIDE,
            id="sweep-wide-gap"),
    refused(["sweep", "--energy-range", "4:5:3"],
            [outside("span", "1.6e+308"), outside("barrier 1: width", "1.5e+308"),
             outside("barrier 1: center", "8e+307")], S_WIDEBAR, id="sweep-wide-barrier"),
    refused(["oracle-check", "--energy", "4.6"], [outside("span", "1.7e+308")], S_WIDE,
            id="oracle-check-wide-gap"),
    refused(["oracle-check", "--energy", "4.6"],
            [outside("span", "1e+308"), outside("barrier 1: width", "4e+307"),
             outside("barrier 1: center", "3e+307"), outside("barrier 2: width", "4e+307"),
             outside("barrier 2: center", "7e+307")],
            document(1e308, [(3, 4e307, 3e307), (-2, 4e307, 7e307)]),
            id="oracle-check-two-wide-barriers"),
    refused(["oracle-check", "--energy", "1e308"], [outside("v_left", "1e+308")],
            document(4, [(0, 1, 1), (3, 0.5, 2.5)], v_left=1e308), id="oracle-check-high-v-left"),
    refused(["oracle-check", "--energy", "8.99e307"], [outside("energy", "8.99e+307")],
            document(4, [(0, 1, 1), (3, 0.5, 2.5)], v_left=1), id="oracle-check-energy-8.99e307"),
    refused(["oracle-check", "--energy", "8e307"],
            [outside("span", repr(np.nextafter(2.0 ** 508, 0.0).item())),
             outside("barrier 1: height", "-1.7976931348623157e+308"),
             outside("barrier 2: height", "1.7976931348623157e+308")],
            document(np.nextafter(2.0 ** 508, 0.0).item(), [(-DBL_MAX, 1, 1), (DBL_MAX, 1, 3)]),
            id="oracle-check-below-old-phase-gate"),
    *(refused(["wavefunction", "--energy", "4.6", "--grid-points", "5", *options],
              [outside("span", "1.7e+308")], S_WIDE, id=f"wavefunction-wide-gap-{name}")
      for name, options in (("x-max-1e300", ["--x-min", "0", "--x-max", "1e300"]),
                            ("default-bounds", []), ("x-min", ["--x-min=-1e308"]))),
    refused(["sweep", "--energy-range", "1:1.7976931348623157e308:3"],
            [outside("barrier 1: height", "1.7976931348623157e+308")],
            barrier_json(3, DBL_MAX, 1, 1.5), id="sweep-height-largest-double"),
    refused(["sweep", "--energy-range", "0.5:1e308:2", "--nudge", "1e308"],
            [outside("barrier 1: height", "1e+308")], barrier_json(3, 1e308, 1, 1.5),
            id="sweep-huge-nudge"),
    *(refused(["validate"], [outside(*line, prefix="invalid") for line in lines],
              document(span, barriers), id=f"validate-{name}")
      for name, span, barriers, lines in (
          ("left-of-zero", DBL_MAX, [(3, 1, -1e300)],
           [("span", "1.7976931348623157e+308"), ("barrier 1: center", "-1e+300")]),
          ("valid", DBL_MAX, [(3, 1, 1.5)], [("span", "1.7976931348623157e+308")]),
          ("valid-below", 1.7976931348623155e308, [(3, 1, 1.5)],
           [("span", "1.7976931348623155e+308")]),
          ("far-right", DBL_MAX, [(3, 1, 1.5), (3, 1, 1.7976931348623155e308)],
           [("span", "1.7976931348623157e+308"),
            ("barrier 2: center", "1.7976931348623155e+308")]),
          ("overlap", DBL_MAX, [(3, 1e308, 6e307), (3, 1e308, 1.1e308)],
           [("span", "1.7976931348623157e+308"), ("barrier 1: width", "1e+308"),
            ("barrier 1: center", "6e+307"), ("barrier 2: width", "1e+308"),
            ("barrier 2: center", "1.1e+308")]),
          ("edge-overflows", DBL_MAX, [(3, 1.7e308, 1.7e308)],
           [("span", "1.7976931348623157e+308"), ("barrier 1: width", "1.7e+308"),
            ("barrier 1: center", "1.7e+308")]),
      )),
]


@pytest.mark.parametrize("argv, doc, lines", OUT_OF_DOMAIN)
def test_input_outside_the_domain_is_refused(capsys, tmp_path, argv, doc, lines):
    # exit 2 with one line per value outside the domain, the first where an
    # option or argument takes one value, and nothing else: no stdout, no
    # output file and no RuntimeWarning (pytest makes one an error)
    source = []
    if doc is not None:
        source = ["--structure", str(tmp_path / "s.json")]
        (tmp_path / "s.json").write_text(doc)
    out = tmp_path / "out.csv"
    writes = argv[0] in ("sweep", "wavefunction", "bands")
    code, stdout, err = run_cli(capsys, *argv, *source, *(["--out", str(out)] if writes else []))
    assert (code, stdout, err.splitlines()) == (2, "", lines)
    assert not out.exists()


def test_input_outside_the_domain_is_refused_by_the_entry_point(tmp_path):
    # the same three lines from a fresh interpreter, where numpy's warnings
    # print as a user sees them
    out = tmp_path / "out.csv"
    proc = run_fresh("sweep", "--structure", "-", "--energy-range", "4:5:3", "--out", str(out),
                     stdin=S_WIDEBAR)
    assert (proc.returncode, proc.stdout, proc.stderr.splitlines()) == (
        2, "", [outside("span", "1.6e+308"), outside("barrier 1: width", "1.5e+308"),
                outside("barrier 1: center", "8e+307")])
    assert not out.exists()


B = 1e150  # the domain's edge
CORNER_LAYOUTS = {  # (width, center) of one or two barriers, by span
    3.0: [[(1.0, 1.5)], [(1.0, 0.75), (1.0, 2.25)]],
    B: [[(1.0, 1.5)], [(B / 4, B / 2)], [(1.0, 1.5), (B / 4, 0.75 * B)],
        [(B / 4, B / 4), (1.0, 0.75 * B)]],
}


def run_corner(capsys, tmp_path, *argv):
    """(exit code, stdout, error lines, CSV rows or None) of one command run
    in-process, asserting that it raised no warning of any kind."""
    out = tmp_path / "corner.csv"
    if out.exists():
        out.unlink()
    writes = argv[0] in ("sweep", "wavefunction", "bands")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, *(["--out", str(out)] if writes else [])])
    assert caught == [], argv
    captured = capsys.readouterr()
    rows = None
    if out.exists():
        lines = out.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
    return code, captured.out, captured.err.splitlines(), rows


@pytest.mark.parametrize("case", range(40))
def test_domain_corners_solve_or_refuse_k_zero(capsys, tmp_path, case):
    # Structures, energies, grid bounds, sweeps and lattices drawn from the
    # domain's corners, each command through cli.main: exit 0, or exit 3 with
    # the one line of a k = 0 energy; no warning; every CSV float finite but
    # bands' +-inf cos_beta behind opaque barriers; T + R = 1 on every sweep.
    # The one exit 2 is a grid point on a barrier height of +1e150, which the
    # nudge moves past the domain.
    rng = np.random.default_rng([31, case])
    span = float(rng.choice([3.0, B]))
    layout = CORNER_LAYOUTS[span][rng.integers(len(CORNER_LAYOUTS[span]))]
    heights = rng.choice([3.0, B, -B], len(layout)).tolist()
    doc = document(span, [(h, w, c) for h, (w, c) in zip(heights, layout)],
                   v_left=float(rng.choice([0.0, -B])), v_right=float(rng.choice([0.0, B, -B])))
    (tmp_path / "s.json").write_text(doc)
    source = ["--structure", str(tmp_path / "s.json")]
    energy = repr(float(rng.choice([3.3e-3, 4.6, 1e75, B])))

    def judge(code, err):
        assert code in (0, 3)
        if code == 3:
            assert len(err) == 1 and "makes k = 0" in err[0]
        return code == 0

    code, _, err, _ = run_corner(capsys, tmp_path, "oracle-check", *source, "--energy", energy)
    judge(code, err)
    for bounds in ([], ["--x-min=-1e150", "--x-max", "1e150"]):
        code, stdout, err, rows = run_corner(capsys, tmp_path, "wavefunction", *source,
                                             "--energy", energy, "--grid-points", "64", *bounds)
        if judge(code, err):
            assert stdout.startswith("T=") and np.isfinite(np.array(rows, float)).all()
    for sweep in (["--energy-range", "1e-3:1e150:9"],
                  ["--energy-range", "0:4.6:3", "--nudge", "1e150"]):
        code, _, err, rows = run_corner(capsys, tmp_path, "sweep", *source, *sweep)
        if sweep[1].endswith(":1e150:9") and B in heights:
            assert (code, err) == (2, [outside("energy", "1.0000000000000002e+150")])
        elif judge(code, err):
            t_r = np.array(rows, float)
            assert np.isfinite(t_r).all() and np.abs(t_r[:, 1] + t_r[:, 2] - 1.0).max() < 1e-9
    width = float(rng.choice([1.0, B / 2]))
    period = B if width > 1.0 else float(rng.choice([2.0, B]))
    code, _, err, rows = run_corner(
        capsys, tmp_path, "bands", f"--barrier-height={float(rng.choice([3.0, B, -B]))!r}",
        "--barrier-width", repr(width), "--period", repr(period),
        "--energy-range", f"0:{float(rng.choice([12.0, B]))!r}:31")
    assert (code, err) == (0, [])
    energies, cos_beta = np.array([row[:2] for row in rows], float).T
    assert np.isfinite(energies).all() and not np.isnan(cos_beta).any()


@pytest.mark.parametrize("argv, message", [
    (["oracle-check", "--energy", "4.6", "--tolerance", "nan"],
     "--tolerance must be finite and at least 0, got nan"),
    (["oracle-check", "--energy", "4.6", "--tolerance=-1"],
     "--tolerance must be finite and at least 0, got -1.0"),
    (["oracle-check", "--energy", "4.6", "--relaxed-tolerance", "inf"],
     "--relaxed-tolerance must be finite and at least 0, got inf"),
], ids=["tolerance-nan", "tolerance-negative", "relaxed-inf"])
def test_numeric_options_refused_before_solving(capsys, argv, message):
    # exit 2 with one line naming the option; a nan or negative tolerance
    # exited 4 at a discrepancy of 7e-16
    code, stdout, err = run_cli(capsys, *argv, "--scenario", "periodic")
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("options, message", [
    (["--grid-points", "0"], "--grid-points must be at least 1, got 0"),
    (["--grid-points=-3"], "--grid-points must be at least 1, got -3"),
    (["--grid-points", "10000001"], "--grid-points must be at most 10000000, got 10000001"),
    (["--grid-points", "2", "--x-min", "6", "--x-max", "5"], "--x-min 6.0 lies above --x-max 5.0"),
], ids=["no-points", "negative-points", "too-many-points", "reversed-bounds"])
def test_wavefunction_grid_refused_before_solving(capsys, tmp_path, options, message):
    # exit 2 with one line naming the option: no numpy RuntimeWarning, no
    # CSV of NaN rows or of a header alone
    out = tmp_path / "wf.csv"
    code, stdout, err = run_cli(capsys, "wavefunction", "--scenario", "periodic", "--energy",
                                "4.6", *options, "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing-structure", "directory-structure", "missing-out-dir"])
def test_unreadable_or_unwritable_file_exits_2(capsys, tmp_path, case):
    # the OS's own message on one error: line, where an uncaught
    # FileNotFoundError or IsADirectoryError exited 1 with a traceback
    missing, out = tmp_path / "missing", tmp_path / "out.csv"
    source, out, path, code = {
        "missing-structure": (["--structure", str(missing)], out, missing, errno.ENOENT),
        "directory-structure": (["--structure", str(tmp_path)], out, tmp_path, errno.EISDIR),
        "missing-out-dir": (["--scenario", "periodic"], missing / "x.csv", missing / "x.csv",
                            errno.ENOENT),
    }[case]
    error = OSError(code, os.strerror(code), str(path))
    result = run_cli(capsys, "sweep", *source, "--energy-range", "1:2:3", "--out", str(out))
    assert result == (2, "", f"error: {error}\n")
    assert not out.exists()


@pytest.mark.parametrize("options, bounds", [
    (["--x-max", "1e9"], "the default bound -4.0 to --x-max 1000000000.0"),
    (["--x-max", "1e20"], "the default bound -4.0 to --x-max 1e+20"),
    (["--x-min=-1e150", "--x-max", "1e150"], "--x-min -1e+150 to --x-max 1e+150"),
    (["--x-min=-1e9"], "--x-min -1000000000.0 to the default bound 20.0"),
    (["--energy", "1e12"], "the default bound -4.0 to the default bound 20.0"),
], ids=["1e9", "1e20", "count-overflows", "x-min", "no-bounds"])
def test_wavefunction_default_grid_above_the_limit_exits_2(capsys, tmp_path, options, bounds):
    # the default count, 40 points per wavelength, is refused before numpy
    # is asked for it: one line naming only the options given, and no CSV
    out = tmp_path / "wf.csv"
    code, stdout, err = run_cli(capsys, "wavefunction", "--scenario", "periodic",
                                "--energy", "4.6", *options, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == (f"error: {bounds} needs more than 10000000 points at 40 per wavelength: "
                   "narrow them or set --grid-points\n")
    assert not out.exists()


def test_wavefunction_grid_of_one_point(capsys, tmp_path):
    out = tmp_path / "wf.csv"
    code, _, err = run_cli(capsys, "wavefunction", "--scenario", "periodic", "--energy", "4.6",
                           "--x-min", "1", "--x-max", "1", "--grid-points", "1",
                           "--out", str(out))
    assert (code, err) == (0, "")
    assert out.read_text().splitlines()[1].startswith("1,")


def test_underflowed_barrier_sweep_reflects_fully(tmp_path):
    # r' of the barrier comes from its factored pieces, not from t/t* = 0/0,
    # so the sweep gives T = 0 and R = 1 (it exited 3 with the recurrence)
    out = tmp_path / "sweep.csv"
    proc = run_fresh("sweep", "--structure", "-", "--energy-range", "1:2:3", "--out", str(out),
                     stdin=UNDERFLOWED_BARRIER)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert_total_reflection(out)


@pytest.mark.parametrize("command", [
    ["wavefunction", "--energy", "2"],
    ["sweep", "--energy-range", "2:3:2"],
], ids=["wavefunction", "sweep"])
def test_evanescent_right_medium_carries_no_flux(capsys, tmp_path, command):
    # |k_right| span = 500: an evanescent right medium carries no flux, so
    # T_prob is 0 and R_prob 1
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"v_left": 0, "v_right": 1740, "span": 12, "barriers": [
        {"height": 1, "width": 1, "center": 10}]}))
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(capsys, *command, "--structure", str(f), "--out", str(out))
    assert (code, err) == (0, "")
    if command[0] == "sweep":
        assert_total_reflection(out)
    else:
        t_prob, r_prob = (float(x.split("=")[1]) for x in stdout.split())
        assert t_prob == 0.0
        assert abs(r_prob - 1.0) <= 1e-12


# Strongly evanescent right media: kappa * span = 12000, 720 and 709.5, where
# e^{ikx} counted from x = 0 vanishes at the span and T counted from there
# would pass the largest double.  T counted from the span stays O(1).
def evanescent_right_medium(tmp_path, v_right, span=12):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"v_left": 0, "v_right": v_right, "span": span, "barriers": [
        {"height": 1, "width": 1, "center": 10}]}))
    return f


def assert_wavefunction_reflects_fully(capsys, tmp_path, f, energy):
    """wavefunction on ``f`` exits 0 with T = 0, |R - 1| <= 1e-12 and psi
    within 1e-12 of max |psi| of the exact-edge referee."""
    out = tmp_path / "wf.csv"
    code, stdout, err = run_cli(capsys, "wavefunction", "--structure", str(f),
                                "--energy", str(energy), "--out", str(out))
    assert (code, err) == (0, "")
    t_prob, r_prob = (float(x.split("=")[1]) for x in stdout.split())
    assert t_prob == 0.0
    assert abs(r_prob - 1.0) <= 1e-12
    x, re_psi, im_psi = np.loadtxt(str(out), delimiter=",", skiprows=1, usecols=(0, 1, 2)).T
    psi = re_psi + 1j * im_psi
    every = max(1, x.size // 500)
    ref = reference_psi(parse_structure(f.read_text()), energy, x[::every])
    assert np.abs(psi[::every] - ref).max() <= 1e-12 * np.abs(psi).max()


def assert_sweep_reflects_fully(capsys, tmp_path, f, energy_range):
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "sweep", "--structure", str(f),
                           "--energy-range", energy_range, "--out", str(out))
    assert (code, err) == (0, "")
    assert_total_reflection(out)


@pytest.mark.parametrize("v_right", [1e6, 3602.0], ids=["zero", "subnormal"])
def test_oracle_check_with_vanishing_transmitted_wave_exits_3(capsys, tmp_path, v_right):
    # the oracle's T column starts at the span too: a well-conditioned
    # agreement at the strict tolerance, and T = 0, R = 1 from both sides
    f = evanescent_right_medium(tmp_path, v_right)
    code, stdout, err = run_cli(capsys, "oracle-check", "--structure", str(f),
                                "--energy", "2")
    assert (code, err) == (0, "")
    assert "tolerance 1e-09" in stdout
    s = parse_structure(f.read_text())
    sol = solve_structure(s, 2.0)
    ora = oracle_solution(s, 2.0)
    for emb in (sol.embedded, ora):
        assert transmission_probability(emb, sol.wavenumbers) == 0.0
        assert abs(reflection_probability(emb) - 1.0) <= 1e-12


@pytest.mark.parametrize("scenario, params, expected", [
    ("periodic", {"count": 2.5}, 2),
    ("periodic", {"count": math.inf}, 2),
    ("periodic", {"count": math.nan}, 2),
    ("graded-product", {"count": 3, "m": math.inf}, 2),
    ("periodic", {"count": 8.0}, 0),
], ids=["count=2.5", "count=inf", "count=nan", "m=inf", "count=8.0"])
@pytest.mark.parametrize("via", ["scenario-params", "generator"])
def test_bad_scenario_parameter_exits_2(capsys, tmp_path, scenario, params, expected, via):
    if via == "scenario-params":
        given = ",".join(f"{k}={v}" for k, v in params.items())
        source = ["--scenario", scenario, "--scenario-params", given]
    else:
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"generator": {"kind": scenario, "params": params}}))
        source = ["--structure", str(f)]
    code, stdout, err = run_cli(capsys, "wavefunction", *source, "--energy", "5")
    assert code == expected
    if expected == 0:  # an integral float count is that count, by either route
        assert err == ""
        assert stdout.splitlines()[-1] == run_cli(
            capsys, "wavefunction", "--scenario", scenario, "--energy", "5")[1].splitlines()[-1]
        return
    assert stdout == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["wavefunction", "sweep"])
def test_vanishing_transmitted_wave_exits_3(capsys, tmp_path, command):
    # as oracle-check above: kappa * span = 12000
    f = evanescent_right_medium(tmp_path, 1e6)
    if command == "wavefunction":
        assert_wavefunction_reflects_fully(capsys, tmp_path, f, 2.0)
    else:
        assert_sweep_reflects_fully(capsys, tmp_path, f, "2:3:2")


@pytest.mark.parametrize("command", ["wavefunction", "sweep"])
def test_right_step_overflow_exits_3(capsys, tmp_path, command):
    # kappa * span = 709.5: e^{kappa span} alone is below the largest double,
    # but not times the right step's factor 2 k_gap / (k_gap + k_right), of
    # modulus 1.99, as a T counted from x = 0 would carry it
    f = evanescent_right_medium(tmp_path, 10100, span=70.95)
    if command == "wavefunction":
        assert_wavefunction_reflects_fully(capsys, tmp_path, f, 10000.0)
    else:
        assert_sweep_reflects_fully(capsys, tmp_path, f, "10000:10000.5:2")


def test_wavefunction_far_from_origin_matches_reference(capsys, tmp_path):
    # 360 evanescent barriers reaching x = 720: every 8th psi row, and the
    # oracle's psi from its own a..d on the same rows, against the exact-edge
    # mpmath referee, which shares no basis with either; each gap's waves start
    # at its own left end, so neither carries a phase of the gap's position
    out = tmp_path / "wf.csv"
    code, _, err = run_cli(
        capsys, "wavefunction", "--scenario", "periodic", "--scenario-params", "count=360",
        "--energy", "2.0", "--out", str(out),
    )
    assert (code, err) == (0, "")
    x, re_psi, im_psi = np.loadtxt(str(out), delimiter=",", skiprows=1, usecols=(0, 1, 2)).T
    psi = re_psi + 1j * im_psi
    s = build_scenario("periodic", count=360)
    ref = reference_psi(s, 2.0, x[::8])
    assert np.abs(psi[::8] - ref).max() <= 2e-13 * np.abs(ref).max()
    ora = oracle_solution(s, 2.0)
    oracle_psi = evaluate_psi(ScatteringSolution(
        structure=s, energy=2.0, wavenumbers=compute_wavenumbers(s, 2.0),
        embedded=EmbeddedAmplitudes(t_full=ora.t_full, r_full=ora.r_full),
        a=ora.a, b=ora.b, c=ora.c, d=ora.d), x[::8])
    assert np.abs(oracle_psi - ref).max() <= 2e-13 * np.abs(ref).max()


def test_sweep_needs_only_amplitudes(capsys, tmp_path):
    # T and R of this lattice from the sweep, which builds no coefficients,
    # against the lattice's closed form
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--scenario", "periodic", "--scenario-params", "count=360",
        "--energy-range", "2.0:2.001:2", "--out", str(out),
    )
    assert code == 0
    rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
    for e, t_prob, _ in rows:
        inv_t, _ = closed_form_prefix(PeriodicLattice(3.0, 1.0, 2.0, 360), e, 360)
        assert t_prob == pytest.approx(1.0 / abs(inv_t) ** 2, rel=1e-9)


class TestBandsCommand:
    def test_output_and_edges(self, capsys, tmp_path):
        out = tmp_path / "bands.csv"
        code, stdout, _ = run_cli(
            capsys, "bands", "--barrier-height", "3", "--barrier-width", "1",
            "--period", "2", "--energy-range", "0.01:8:800", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,cos_beta,band"
        assert all(l.split(",")[2] in ("allowed", "forbidden", "edge") for l in lines[1:])
        edges = [float(l.split("=")[1]) for l in stdout.splitlines() if l.startswith("edge")]
        assert any(2.0 < e < 3.0 for e in edges)
        assert any(4.6 < e < 4.9 for e in edges)

    def test_barrier_height_grid_point_skipped(self, capsys, tmp_path):
        out = tmp_path / "bands.csv"
        code, stdout, _ = run_cli(
            capsys, "bands", "--barrier-height", "3", "--barrier-width", "1",
            "--period", "2", "--energy-range", "1:5:9", "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [1, 1.5, 2, 2.5, 3.5, 4, 4.5, 5]
        assert "note: skipped degenerate grid point epsilon=3\n" in stdout

    @pytest.mark.parametrize("lo, hi, steps", [
        (2.9715441859309846, 3.648790633144152, 221),  # (hi - lo) / spacing rounds up past 220
        (-1.0, 1.0, 5),  # MIN below the 1e-6 floor
    ])
    def test_exactly_steps_rows_on_the_sweep_grid(self, capsys, tmp_path, lo, hi, steps):
        out = tmp_path / "bands.csv"
        code, _, _ = run_cli(
            capsys, "bands", "--barrier-height", "3", "--barrier-width", "1",
            "--period", "2", f"--energy-range={lo!r}:{hi!r}:{steps}", "--out", str(out),
        )
        assert code == 0
        energies = [r.split(",")[0] for r in out.read_text().splitlines()[1:]]
        assert energies == [format(e, ".17g") for e in np.linspace(max(lo, 1e-6), hi, steps)]

    def test_underflowed_cell_is_forbidden_everywhere(self):
        # one period's t underflows to 0 behind a 1e6-high unit barrier; the
        # scan used to exit 3 with "divide by zero encountered in divide"
        env = dict(os.environ, PYTHONPATH=str(Path(layerscatter.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "layerscatter.cli", "bands", "--barrier-height", "1e6",
             "--barrier-width", "1", "--period", "2", "--energy-range", "0:12:30"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert lines[0] == "epsilon,cos_beta,band" and len(lines) == 31
        rows = [line.split(",") for line in lines[1:]]
        assert {band for _, _, band in rows} == {"forbidden"}
        assert {cos_beta for _, cos_beta, _ in rows} == {"inf", "-inf"}

    def test_free_lattice_no_edges(self, capsys, tmp_path):
        out = tmp_path / "bands.csv"
        code, stdout, _ = run_cli(
            capsys, "bands", "--barrier-height", "0", "--barrier-width", "1",
            "--period", "2", "--energy-range", "0.05:8:300", "--out", str(out),
        )
        assert code == 0


class TestValidateCommand:
    def test_valid(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--scenario", "periodic")
        assert code == 0
        assert "valid" in out

    @pytest.mark.parametrize("args, doc", [
        (["--scenario", "periodic", "--scenario-params", "period=1.4221,barrier_width=1.4221"],
         None),
        (["--mirror"], {"v_left": 0, "v_right": 0, "span": 19.10652581834961, "barriers": [
            {"height": 1, "width": 2.0925330578808006, "center": 1.0462665289404003},
            {"height": 1, "width": 2.0925330578808006, "center": 18.06025928940921}]}),
    ], ids=["period-equals-width", "mirror-touching-ends"])
    def test_touching_layouts_valid(self, capsys, tmp_path, args, doc):
        # the edges of these touching layouts meet only to within rounding
        if doc is not None:
            f = tmp_path / "s.json"
            f.write_text(json.dumps(doc))
            args = [*args, "--structure", str(f)]
        code, out, err = run_cli(capsys, "validate", *args)
        assert (code, err) == (0, "")
        assert out.startswith("valid: ")

    def test_invalid_exits_2(self, capsys, tmp_path):
        doc = {"v_left": 0, "v_right": 0, "span": 2,
               "barriers": [{"height": 3, "width": 1, "center": 5}]}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", "--structure", str(f))
        assert code == 2
        assert "exceeds span" in err


class TestOracleCheckCommand:
    def test_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--scenario", "modulated-sin", "--energy", "5.0",
        )
        assert code == 0
        assert "max relative discrepancy" in out

    def test_prints_residual(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--scenario", "modulated-sin", "--energy", "5.0",
        )
        first, second = out.splitlines()
        assert first.startswith("max relative discrepancy = ")
        assert second.startswith("residual = ")
        assert 0.0 <= float(second.split("=")[1]) < 1e-11

    def test_failure_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--scenario", "periodic", "--energy", "4.6",
            "--tolerance", "1e-300",
        )
        assert code == 4

    @pytest.mark.parametrize("count", [40, 100, 200])
    def test_long_lattice_in_forbidden_band(self, capsys, count):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--scenario", "periodic",
            "--scenario-params", f"count={count}", "--energy", "4.6",
        )
        assert code == 0, out

    def test_evanescent_right_medium(self, capsys):
        # an evanescent right medium: |t_full| is 3.7e-8 here, the largest
        # barrier coefficient 0.47
        code, out, _ = run_cli(
            capsys, "oracle-check", "--scenario", "graded-quadratic", "--mirror",
            "--energy", "1.01",
        )
        assert code == 0, out

    def test_singular_matching_system_exits_3(self, capsys):
        # an all-zero column makes the band LU meet an exactly zero pivot
        real = layerscatter.oracle.assemble_matching_system

        def zero_column(s, energy):
            m = real(s, energy)
            band = m.band.copy()
            band[:, 3] = 0.0
            return dataclasses.replace(m, band=band)

        with mock.patch("layerscatter.oracle.assemble_matching_system", zero_column):
            code, out, err = run_cli(
                capsys, "oracle-check", "--scenario", "periodic", "--energy", "6.0",
            )
        assert (code, out) == (3, "")
        assert err.startswith("error: the matching system is singular")

    def test_two_thousand_barriers_in_under_a_second(self, capsys):
        # the band LU is O(N); a dense (4N+4)-square matrix would take 1 GB here
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "oracle-check", "--scenario", "periodic",
            "--scenario-params", "count=2000", "--energy", "6.0",
        )
        assert code == 0, out
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("steps", ["3000", "4"], ids=["write", "exit-flush"])
def test_closed_stdout_exits_quietly(steps):
    # ``layerscatter bands ... | head``: the reader is gone before (3000 rows)
    # or after (4 rows, still in the buffer) the command's last write
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(layerscatter.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "layerscatter.cli", "bands", "--barrier-height", "3",
             "--barrier-width", "1", "--period", "2", "--energy-range", f"0:12:{steps}"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 141


FORMAT_VALUES = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                 1.7976931348623157e308, 3.0, 0.1, 1e16, 1e-5, np.float64(-1 / 3)]


@pytest.mark.parametrize("n", [1, 1023, 1025, 1535, 1537, 3073, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("floats, labels", [
    (4, False),  # wavefunction
    (3, False),  # sweep
    (2, True),   # bands
], ids=["wavefunction", "sweep", "bands"])
def test_write_csv_matches_per_value_format(capsys, tmp_path, n, floats, labels):
    # rows cross the 1536-row blocks; each column cycles the values at its own offset
    cycle = np.array(FORMAT_VALUES)
    columns = [cycle[(np.arange(n) + 5 * j) % len(cycle)] for j in range(floats)]
    names = np.array(["allowed", "forbidden", "edge"])[np.arange(n) % 3] if labels else None
    expected = ["h\n"] + [
        ",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row) + "\n"
        for row in zip(*(c.tolist() for c in columns), *([names.tolist()] if labels else []))]
    out = tmp_path / "t.csv"
    # rows stacked as sample_density stacks them, and a transposed stack of
    # columns as sweep and bands hand them over
    _write_csv(str(out), "h", np.column_stack(columns), names)
    _write_csv("stdout", "h", np.array(columns).T, names)
    # lists of lines: pytest reports the first differing line, not a text diff
    assert out.read_text().splitlines(keepends=True) == expected
    assert capsys.readouterr().out.splitlines(keepends=True) == expected
    if labels:  # ``bands`` hands its labels over as a tuple of str
        _write_csv("stdout", "h", np.array(columns).T, tuple(names.tolist()))
        assert capsys.readouterr().out.splitlines(keepends=True) == expected


def _ulps_around(x: float, n: int = 4) -> np.ndarray:
    """x and the n doubles on either side of it."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(n):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.array(out)


def _hard_format_values(rng) -> np.ndarray:
    """About 10**6 doubles on which writing %.17g from integers can go wrong."""
    ties = []
    for p in range(1, 8):  # k / 2**(p+1), k odd: a 5 just past the 17th digit
        k = 2 * rng.integers(10 ** (16 - p) // 2, 10 ** (17 - p) // 2, 20_000) + 1
        ties.append(k / 2.0 ** (p + 1))
    values = np.concatenate([
        [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 9.999999999999998e16],
        *(rng.uniform(10.0 ** e, 10.0 ** (e + 1), 34_000) for e in range(-6, 18)),
        *(_ulps_around(10.0 ** e) for e in range(-6, 19)),
        _ulps_around(1e-5), _ulps_around(1e-4), _ulps_around(1e17),
        *ties,
        np.arange(3000) / 8.0,  # integers and short dyadic fractions
    ])
    bits = np.frombuffer(rng.bytes(8 * 50_000), dtype=np.float64)  # both signs, NaNs
    return np.concatenate([bits, values * rng.choice([-1.0, 1.0], values.size)])


def test_write_csv_bytes_equal_per_value_format(tmp_path):
    # every value goes through one of the three row formats, in tables just
    # below and at the byte-path crossover, either side of a block, and
    # one of many blocks ending in a partial one
    values = _hard_format_values(np.random.default_rng(20))
    assert values.size >= 10 ** 6
    sizes = [CSV_INTEGER_ROWS - 1, CSV_INTEGER_ROWS, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS + 1]
    formats = [(4, False), (3, False), (2, True)]
    out = tmp_path / "t.csv"
    for i, (floats, labels) in enumerate(formats):
        row_format = ",".join(["%.17g"] * floats + ["%s"] * labels)
        share = values[i::len(formats)]
        share = share[:share.size - share.size % floats]
        bounds = [0, *np.cumsum([n * floats for n in sizes]), share.size]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            table = share[start:stop].reshape(-1, floats)
            names = (tuple(["allowed", "forbidden", "edge"][r % 3] for r in range(len(table)))
                     if labels else None)
            _write_csv(str(out), "h", table, names)
            # each row by its own %, one %.17g conversion per value
            rows = zip(*table.T.tolist(), *([names] if labels else []))
            expected = ["h", *map(row_format.__mod__, rows), ""]
            got = out.read_text().split("\n")
            bad = next((r for r, (g, e) in enumerate(zip(got, expected)) if g != e), None)
            assert bad is None and len(got) == len(expected), (
                row_format, len(table), bad, bad is not None and (got[bad], expected[bad]))


def test_write_csv_spells_bytes_from_the_crossover(monkeypatch, capsys):
    blocks = []
    real = layerscatter.cli._byte_block
    monkeypatch.setattr(layerscatter.cli, "_byte_block",
                        lambda table: blocks.append(len(table)) or real(table))
    for n in (CSV_INTEGER_ROWS - 1, CSV_INTEGER_ROWS, CSV_BLOCK_ROWS + CSV_INTEGER_ROWS - 1):
        x = np.linspace(0.5, 3.0, n)
        _write_csv("stdout", "h", np.column_stack((x, x * x)))
        assert capsys.readouterr().out.split("\n")[1:-1] == [
            "%.17g,%.17g" % (a, b) for a, b in zip(x.tolist(), (x * x).tolist())]
    # the last table's tail block is below the crossover again
    assert blocks == [CSV_INTEGER_ROWS, CSV_BLOCK_ROWS]
    # and every value of such a table below 10**4 is proved, none left to
    # %.17g; from 10**4 up every one is
    proved = layerscatter.cli._integer_cells
    assert proved(np.concatenate([x, x * x, -x / 5e3, x * 3333.0]))[0].all()
    assert not proved(np.concatenate([[1e4, -1e4], (1.0 + x) * 1e4, -x * 1e15]))[0].any()


def _printf_spy(monkeypatch) -> list:
    """The values that reach the ``%.17g`` fallback from here on, in order."""
    printed = []
    real = layerscatter.cli._printf_cells
    monkeypatch.setattr(layerscatter.cli, "_printf_cells",
                        lambda v: printed.extend(v.tolist()) or real(v))
    return printed


def _assert_bytes_are_printf(tmp_path, table):
    # one block of the byte path, and each value by its own %.17g
    assert CSV_INTEGER_ROWS <= len(table) <= CSV_BLOCK_ROWS
    row_format = ",".join(["%.17g"] * table.shape[1])
    out = tmp_path / "t.csv"
    _write_csv(str(out), "h", table)
    expected = ["h", *(row_format % tuple(row) for row in table.tolist()), ""]
    assert out.read_text().split("\n") == expected


@pytest.mark.parametrize("top", [9999, 10 ** 4, 10 ** 8, 10 ** 12, 10 ** 16, 10 ** 17 - 16],
                         ids=["9999", "1e4", "1e8", "1e12", "1e16", "below-1e17"])
def test_write_csv_integer_layouts(monkeypatch, tmp_path, top):
    # a block whose largest integer part is ``top`` (10**17 - 16 is the largest
    # a double below 10**17 has): one integer word, and every cell of 10**4
    # and up left to %.17g
    rng = np.random.default_rng(top % 1000)
    values = np.concatenate([
        10.0 ** rng.uniform(-6, math.log10(top + 1), 1500),
        _ulps_around(float(top)), _ulps_around(float(top) + 0.5), [0.0, 1.0, 0.5, 1e-5],
        np.arange(40) / 8.0])
    values = values[np.floor(values) <= top]
    values *= rng.choice([-1.0, 1.0], values.size)
    values = values[:values.size - values.size % 4]
    assert np.abs(values).max() >= top and np.floor(np.abs(values)).max() == top
    printed = _printf_spy(monkeypatch)
    _assert_bytes_are_printf(tmp_path, values.reshape(-1, 4))
    large = np.abs(values) >= 1e4
    assert large.any() == (top >= 10 ** 4)
    assert set(values[large].tolist()) <= set(printed)
    cells = layerscatter.cli._float_cells(values, np.zeros(values.size, dtype=np.intp))
    assert cells.shape == (values.size, 4 * 9)


def test_write_csv_scientific_block(monkeypatch, tmp_path):
    # only values in [1e-6, 1e-4): %.17g writes them as d.dddde-05 or e-06.
    # The byte path spells them from N; only a misjudged decade, next to a
    # power of ten, and the double 1e-6 itself, whose N would round into the
    # wrong decade, reach the fallback
    rng = np.random.default_rng(6)
    values = np.concatenate([
        rng.uniform(1e-6, 1e-4, 1200), 10.0 ** rng.uniform(-6, -4, 1200),
        *(_ulps_around(x, 8) for x in (1e-6, 1e-5, 1e-4)),
        np.arange(2, 105) * 2.0 ** -20, np.arange(9, 839) * 2.0 ** -23])  # trailing zeros
    values = values[(values >= 1e-6) & (values < 1e-4)]
    values *= rng.choice([-1.0, 1.0], values.size)
    values = values[:values.size - values.size % 4]
    printed = _printf_spy(monkeypatch)
    _assert_bytes_are_printf(tmp_path, values.reshape(-1, 4))
    near = np.abs(np.abs(printed)[:, None] / [1e-6, 1e-5, 1e-4] - 1.0).min(axis=1)
    assert 0 < len(printed) <= 24 and (near < 1e-15).all()
    # a cell always has its point: N is never d 10**16, as the double
    # nearest d 10**-5 or d 10**-6, the only one within half a unit of N's
    # last digit of it, always has more digits
    assert all("." in "%.17g" % float(f"{d}e-{e}") for d in range(1, 10) for e in (5, 6))


def test_write_csv_workload_tables_spell_scientific_cells(monkeypatch, tmp_path):
    # the benchmark's 16 wavefunction tables (seed 1), 3000 rows each: every
    # byte is %.17g's, and no cell in [1e-6, 1e-4) reaches the fallback
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    ops = workloads.build_wavefunction(np.random.default_rng(1), tmp_path,
                                       workloads.FULL)
    printed = _printf_spy(monkeypatch)
    out = tmp_path / "t.csv"
    scientific = 0
    for op in ops:
        sol = solve_structure(op.model["structure"], op.model["energy"])
        rows = layerscatter.sample_density(sol, layerscatter.default_grid(
            sol, points=op.model["grid"]))
        _write_csv(str(out), "h", rows)
        expected = ["h", *("%.17g,%.17g,%.17g,%.17g" % tuple(r) for r in rows.tolist()), ""]
        assert out.read_text().split("\n") == expected
        a = np.abs(rows)
        scientific += np.count_nonzero((a >= 1e-6) & (a < 1e-4))
    a = np.abs(printed)
    assert len(ops) == 16 and scientific > 1000
    assert not ((a >= 1e-6) & (a < 1e-4)).any()
    assert ((a < 1e-6) | (a >= 1e17)).all()


def test_parser_is_built_once_and_keeps_no_state(capsys):
    # each command's exit code and output in this process equal a fresh
    # interpreter's, whatever ran before on the shared parser
    assert build_parser() is build_parser()
    sweep = ["sweep", "--scenario", "periodic", "--energy-range", "1:5:9"]
    commands = [
        [*sweep, "--mirror", "--scenario-params", "v_right=0.5"],
        [*sweep, "--scenario-params", "v_right=0.5"],
        [*sweep, "--nudge", "1e-3"],
        sweep,
        ["sweep", "--scenario", "periodic"],  # no --energy-range: argparse exits 2
        ["bands", "--barrier-height", "3", "--barrier-width", "1", "--period", "2",
         "--energy-range", "1:5:9"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(layerscatter.__file__).parents[1]))
    seen = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "layerscatter.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert (code, captured.out, captured.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv
        seen.append(captured.out)
    assert len({*seen[:4]}) == 4 and seen[4] == ""  # the options changed the output


def run_python(script, cwd):
    """Run ``script`` in a fresh interpreter: pytest's own process has
    scipy.linalg loaded by the LinAlgWarning filter of pyproject.toml."""
    env = dict(os.environ, PYTHONPATH=str(Path(layerscatter.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=60)


LOADED_SCIPY = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"


def test_import_loads_no_scipy(tmp_path):
    proc = run_python(f"import sys, layerscatter, layerscatter.cli; print({LOADED_SCIPY})",
                      tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_pipeline_commands_run_without_scipy(tmp_path):
    # only the oracle solves with scipy's LAPACK wrappers
    commands = [
        ["validate", "--scenario", "periodic"],
        ["sweep", "--scenario", "graded-linear", "--energy-range", "2.5:12:50",
         "--out", "sweep.csv"],
        ["wavefunction", "--scenario", "periodic", "--energy", "4.6", "--out", "wf.csv"],
        ["bands", "--barrier-height", "3", "--barrier-width", "1", "--period", "2",
         "--energy-range", "0.01:8:80", "--out", "bands.csv"],
    ]
    proc = run_python(
        "import json, sys\nfrom layerscatter.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        f"print(json.dumps([codes, {LOADED_SCIPY}]))", tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0, 0], []]
    assert {p.name for p in tmp_path.iterdir()} == {"sweep.csv", "wf.csv", "bands.csv"}


def test_oracle_check_imports_scipy_when_it_solves(tmp_path):
    proc = run_python(
        f"import sys\nfrom layerscatter.cli import main\nprint({LOADED_SCIPY} == [])\n"
        "code = main(['oracle-check', '--scenario', 'modulated-sin', '--energy', '5.0'])\n"
        "print(code, 'scipy.linalg' in sys.modules)", tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    before, discrepancy, residual, after = proc.stdout.splitlines()
    assert (before, after) == ("True", "0 True")
    assert discrepancy.startswith("max relative discrepancy = ")
    assert residual.startswith("residual = ")
