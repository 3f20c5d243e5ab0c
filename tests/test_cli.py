import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layerscatter
from layerscatter import (
    Barrier,
    LayeredStructure,
    PeriodicLattice,
    StructureError,
    closed_form_prefix,
    reflection_probability,
    solve_structure,
    transmission_probability,
    validate_structure,
)
from layerscatter.cli import main, parse_structure, serialize_structure
from layerscatter.scenarios import SCENARIOS, build_scenario


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
    ("1:inf:5", "--energy-range needs finite MIN and MAX"),
    ("nan:2:5", "--energy-range needs finite MIN and MAX"),
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


@pytest.mark.parametrize("count, energy_range", [
    (2000, "4.6:4.601:2"),   # 1/T overflows deep in a forbidden band
])
def test_numerical_failure_exits_3(capsys, tmp_path, count, energy_range):
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--scenario", "periodic",
        "--scenario-params", f"count={count}", "--energy-range", energy_range,
        "--out", str(out),
    )
    assert code == 3
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()  # no partial CSV


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


def test_underflowed_barrier_transmission_exits_3():
    # t of a 1e6-high, unit-width barrier is about e^{-1000}, which underflows
    # to 0; the recurrence carries it to the embedding, which reports it
    doc = json.dumps({"v_left": 0, "v_right": 0, "span": 3,
                      "barriers": [{"height": 1e6, "width": 1, "center": 1.5}]})
    env = dict(os.environ, PYTHONPATH=str(Path(layerscatter.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "layerscatter.cli", "sweep", "--structure", "-",
         "--energy-range", "1:2:3"],
        input=doc, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "T underflows" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("v_right", [1e6, 3602.0], ids=["zero", "subnormal"])
def test_oracle_check_with_vanishing_transmitted_wave_exits_3(capsys, tmp_path, v_right):
    # e^{ikx} of a strongly evanescent right medium underflows at the span
    # (kappa * span = 12000 or 720), so T = O(1) / e^{ikx} overflows
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"v_left": 0, "v_right": v_right, "span": 12, "barriers": [
        {"height": 1, "width": 1, "center": 10}]}))
    code, stdout, err = run_cli(capsys, "oracle-check", "--structure", str(f),
                                "--energy", "2")
    assert code == 3
    assert stdout == ""
    assert err == "error: the right medium's e^{ikx} vanishes at the span: T overflows\n"


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


@pytest.mark.parametrize("command", [
    ["wavefunction", "--energy", "2"],
    ["sweep", "--energy-range", "2:3:2"],
], ids=["wavefunction", "sweep"])
def test_vanishing_transmitted_wave_exits_3(capsys, tmp_path, command):
    # as oracle-check above: e^{ikx} of the right medium underflows at the span
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"v_left": 0, "v_right": 1e6, "span": 12, "barriers": [
        {"height": 1, "width": 1, "center": 10}]}))
    code, stdout, err = run_cli(capsys, *command, "--structure", str(f))
    assert code == 3
    assert stdout == ""
    assert err == "error: the right medium's e^{ikx} vanishes at the span: T overflows\n"


def test_wavefunction_overflow_exits_3(capsys, tmp_path):
    # global-origin coefficients of evanescent barriers far from the origin overflow
    out = tmp_path / "wf.csv"
    code, _, err = run_cli(
        capsys, "wavefunction", "--scenario", "periodic", "--scenario-params", "count=360",
        "--energy", "2.0", "--out", str(out),
    )
    assert code == 3
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_needs_only_amplitudes(capsys, tmp_path):
    # the coefficients overflow on this lattice (see above), T and R do not
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
        # |t_full| is about 5e9 here, the barrier coefficients at most 33
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
