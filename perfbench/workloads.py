"""Seeded inputs and output checks for the four layerscatter workloads.

Each workload turns a ``numpy.random.Generator`` into a pool of ops.  An op
is one or two ``layerscatter`` command lines plus what the checks need to
judge its output.  Op sizes (barrier counts, grid lengths, and which
scenario or chain gets which) come from a fixed design and everything else
(geometry, heights, energies) from the seed, so every seed loads the
program equally and run medians stay comparable across seeds.

Every op of the timed loop is one the program handles correctly.  The
inputs on which the program is known to fail (long evanescent or
forbidden-band lattices, oracle-check in a forbidden band) form a separate,
fixed set of defect probes per workload, which the harness runs once per
run after the timed loop and records in the failure ledger.

The checks run outside the timed region.  They compare every op against a
reference that does not share the code path under test: the dense matching
solve (``oracle_solution``) for sweeps and wave functions, the Chebyshev
closed form for long periodic chains, a product of (psi, psi') layer
matrices for Bloch phases, and the discrepancy ``oracle-check`` prints.
"""
from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layerscatter.amplitudes import EmbeddedAmplitudes
from layerscatter.oracle import oracle_solution
from layerscatter.periodic import BandEdgeError, PeriodicLattice, closed_form_prefix
from layerscatter.scenarios import build_scenario
from layerscatter.structure import (
    Barrier,
    LayeredStructure,
    compute_wavenumbers,
    mirror_structure,
)
from layerscatter.wavefunction import ScatteringSolution, evaluate_psi

# Tolerances fixed before any run.  The oracle pair mirrors the rule that
# ``layerscatter oracle-check`` applies: tight while the dense system is
# well conditioned, relaxed once its condition number exceeds 1e8.
ORACLE_TOL = 1e-9
ORACLE_RELAXED_TOL = 1e-6
ORACLE_COND_LIMIT = 1e8
PROB_TOL = 1e-9          # T and R may leave [0, 1] by at most this much
FLUX_TOL = 1e-9          # |T + R - 1|
CLOSED_FORM_TOL = 1e-8   # relative T error against closed_form_prefix
COS_BETA_TOL = 1e-9      # |cos beta - reference| / max(1, |reference|)
EDGE_TOL = 1e-6          # ||cos beta(edge)| - 1| at a printed band edge
NUDGE = 1e-9             # passed to ``sweep --nudge``; references use it too
ALLOWED_LIMIT = 0.9      # |cos beta| at most this for timed periodic-lattice energies
DEEP_FORBIDDEN = 1.2     # |cos beta| at least this for forbidden-band probes
PROBES = 4               # defect probes per workload that has them

SCENARIO_NAMES = (
    "periodic", "graded-linear", "graded-quadratic", "graded-product", "modulated-sin",
)


class CheckFailed(Exception):
    """An op's output is malformed, unphysical or disagrees with its reference."""


@dataclass
class Op:
    """One closed-loop operation: command lines run back to back."""

    commands: list            # argv lists for layerscatter.cli.main
    info: dict                # the input, as recorded in the failure ledger
    out: str                  # CSV the op writes
    model: dict               # what the check needs to rebuild references
    refs: dict = field(default_factory=dict)  # references, computed once


@dataclass
class Outcome:
    """What the check of one op found."""

    points: int = 0
    ref_err: float | None = None
    flux_defect: float | None = None
    failure: str | None = None  # cause, when the op failed without a wrong output


@dataclass(frozen=True)
class Sizes:
    sweep_scenario_steps: tuple   # grid lengths of the ten scenario sweeps
    sweep_chains: tuple           # (barriers, grid length) of the random chains
    wave_barriers: tuple
    wave_grid: int
    long_count: int
    long_lattices: int
    long_steps: int
    check_lattices: int
    check_scan: int
    check_count: int


def _fibonacci_design(n: int, g: int, n_range, s_range):
    """Fixed rank-1 lattice of ``n`` (barriers, steps) pairs covering both ranges."""
    pts = []
    for i in range(n):
        u = (i + 0.5) / n
        v = ((i * g) % n + 0.5) / n
        pts.append((
            int(round(n_range[0] + u * (n_range[1] - n_range[0]))),
            int(round(s_range[0] + v * (s_range[1] - s_range[0]))),
        ))
    return tuple(pts)


FULL = Sizes(
    sweep_scenario_steps=tuple(int(round(x)) for x in np.linspace(200, 1000, 10)),
    sweep_chains=_fibonacci_design(21, 13, (4, 32), (200, 1000)),
    wave_barriers=tuple(int(round(x)) for x in np.linspace(50, 150, 16)),
    wave_grid=3000,
    long_count=2000,
    long_lattices=24,
    long_steps=4,
    check_lattices=16,
    check_scan=3000,
    check_count=100,
)

SMOKE = Sizes(
    sweep_scenario_steps=(20, 30),
    sweep_chains=((4, 20), (6, 30)),
    wave_barriers=(5, 8),
    wave_grid=200,
    long_count=40,
    long_lattices=2,
    long_steps=4,
    check_lattices=2,
    check_scan=200,
    check_count=10,
)


def _f(x: float) -> str:
    return repr(float(x))


def _random_chain(rng, n, heights, v_left, v_right, width=(0.2, 1.2), gap=(0.1, 1.0)):
    widths = rng.uniform(*width, n)
    gaps = rng.uniform(*gap, n - 1)
    left, right = rng.uniform(0.2, 1.0, 2)
    barriers, x = [], float(left)
    for i in range(n):
        d = float(widths[i])
        barriers.append(Barrier(float(heights[i]), d, x + d / 2.0))
        x += d + (float(gaps[i]) if i < n - 1 else 0.0)
    return LayeredStructure(float(v_left), float(v_right), x + float(right), tuple(barriers))


def _write_structure(s: LayeredStructure, path: Path):
    """Write ``s`` as a structure document; return its path and the document."""
    doc = {
        "v_left": s.v_left,
        "v_right": s.v_right,
        "span": s.span,
        "barriers": [
            {"height": b.height, "width": b.width, "center": b.center} for b in s.barriers
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path), doc


def _read_table(path: str, expected_header: str):
    with open(path) as fh:
        header = fh.readline().strip()
        lines = fh.read().splitlines()
    if header != expected_header:
        raise CheckFailed(f"unexpected CSV header {header!r}")
    return [line.split(",") for line in lines]


def _numeric(cells, ncols: int) -> np.ndarray:
    if any(len(c) != ncols for c in cells):
        raise CheckFailed("CSV row with the wrong number of fields")
    rows = np.array(cells, dtype=float).reshape(len(cells), ncols)
    if not np.all(np.isfinite(rows)):
        raise CheckFailed("non-finite value in CSV output")
    return rows


def _oracle_tol(cond: float) -> float:
    return ORACLE_TOL if cond <= ORACLE_COND_LIMIT else ORACLE_RELAXED_TOL


def _flux_probabilities(s: LayeredStructure, energy: float):
    """(T, R, condition) from the dense matching solve."""
    ora = oracle_solution(s, energy)
    k_left = math.sqrt(energy - s.v_left)
    k_right = math.sqrt(max(energy - s.v_right, 0.0))
    t = k_right / k_left * abs(ora.t_full) ** 2
    return t, abs(ora.r_full) ** 2, ora.condition


def _check_probabilities(t, r):
    lo, hi = -PROB_TOL, 1.0 + PROB_TOL
    if np.any(t < lo) or np.any(t > hi) or np.any(r < lo) or np.any(r > hi):
        raise CheckFailed("T or R outside [0, 1]")
    flux = float(np.max(np.abs(t + r - 1.0)))
    if flux > FLUX_TOL:
        raise CheckFailed(f"flux defect |T+R-1| = {flux:.3g} > {FLUX_TOL:g}")
    return flux


def _check_sweep_grid(rows, model):
    grid = np.linspace(model["lo"], model["hi"], model["steps"])
    if rows.shape[0] != len(grid) or not np.array_equal(rows[:, 0], grid):
        raise CheckFailed("sweep rows do not match the requested energy grid")


# --- sweep -----------------------------------------------------------------


def build_sweep(rng, work: Path, sizes: Sizes):
    ops = []
    # Which scenario or chain gets which grid length is part of the fixed
    # design too: a mirrored scenario has twice the barriers, so pairing
    # lengths by the seed would change the work per seed.
    n_scen = len(sizes.sweep_scenario_steps)
    for i in range(n_scen):
        name = SCENARIO_NAMES[i % len(SCENARIO_NAMES)]
        mirror = i >= len(SCENARIO_NAMES)
        s = build_scenario(name)
        if mirror:
            s = mirror_structure(s)
        steps = sizes.sweep_scenario_steps[i]
        if name == "periodic":
            # Round grid: steps of 1/64 from a multiple of 1/4 land exactly
            # on the barrier height 3.0, so the nudge-and-retry path runs.
            lo = s.v_left + 0.25
            hi = lo + (steps - 1) / 64.0
        else:
            lo = s.v_left + float(rng.uniform(0.05, 0.5))
            hi = lo + float(rng.uniform(4.0, 12.0))
        argv = ["sweep", "--scenario", name] + (["--mirror"] if mirror else [])
        ops.append(_sweep_op(argv, s, lo, hi, steps, rng, work, len(ops),
                             {"scenario": name, "mirror": mirror}))
    for j, (n, steps) in enumerate(sizes.sweep_chains):
        round_grid = j % 3 == 0
        heights = rng.uniform(0.5, 6.0, n)
        v_left = float(rng.uniform(0.0, 1.0))
        if round_grid:
            heights = np.maximum(np.round(heights * 4.0) / 4.0, 0.25)
            v_left = math.floor(v_left * 4.0) / 4.0
        s = _random_chain(rng, n, heights, v_left, rng.uniform(0.0, 1.5))
        if round_grid:
            lo = v_left + 0.25
            hi = lo + (steps - 1) / 64.0
        else:
            lo = v_left + float(rng.uniform(0.05, 0.5))
            hi = lo + float(rng.uniform(4.0, 12.0))
        path, doc = _write_structure(s, work / f"sweep-{len(ops)}.json")
        ops.append(_sweep_op(["sweep", "--structure", path], s, lo, hi, steps, rng, work,
                             len(ops), {"barriers": n, "round_grid": round_grid,
                                        "structure": doc}))
    return ops


def _sweep_op(head, s, lo, hi, steps, rng, work, idx, info):
    out = str(work / f"out-{idx}.csv")
    argv = head + ["--energy-range", f"{_f(lo)}:{_f(hi)}:{steps}",
                   "--nudge", _f(NUDGE), "--out", out]
    spots = sorted(int(k) for k in rng.choice(steps, size=min(4, steps), replace=False))
    info = dict(info, argv=argv)
    model = {"structure": s, "lo": lo, "hi": hi, "steps": steps, "spots": spots,
             "heights": {b.height for b in s.barriers}}
    return Op([argv], info, out, model)


def check_sweep(op: Op, codes, stdout: str) -> Outcome:
    if codes != [0]:
        return Outcome(failure=f"exit {codes[-1]}")
    rows = _numeric(_read_table(op.out, "epsilon,T_prob,R_prob"), 3)
    model = op.model
    _check_sweep_grid(rows, model)
    flux = _check_probabilities(rows[:, 1], rows[:, 2])
    s = model["structure"]
    degenerate = [i for i, e in enumerate(rows[:, 0]) if e in model["heights"]][:2]
    worst = 0.0
    for i in sorted(set(model["spots"]) | set(degenerate)):
        e = float(rows[i, 0])
        if i not in op.refs:
            e_ref = e + NUDGE if e in model["heights"] else e
            op.refs[i] = _flux_probabilities(s, e_ref)
        t_ref, r_ref, cond = op.refs[i]
        # Error relative to the incident flux, T_ref + R_ref (= 1 when the
        # right medium propagates): a relative error on a T of 1e-30 is
        # beyond what the dense solve itself resolves.
        err = (abs(rows[i, 1] - t_ref) + abs(rows[i, 2] - r_ref)) / (t_ref + r_ref)
        worst = max(worst, err)
        if err > _oracle_tol(cond):
            raise CheckFailed(
                f"row {i} (epsilon={e!r}) differs from the dense solve by {err:.3g}"
            )
    return Outcome(points=len(rows), ref_err=worst, flux_defect=flux)


# --- wavefunction ----------------------------------------------------------


def build_wavefunction(rng, work: Path, sizes: Sizes):
    ops = []
    for n in rng.permutation(sizes.wave_barriers):
        n = int(n)
        heights = rng.uniform(0.5, 4.0, n)
        s = _random_chain(rng, n, heights, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                          width=(0.2, 1.0), gap=(0.2, 1.2))
        # From half the tallest barrier (tunnelling through most of the
        # chain) to twice it (scattering above every barrier).
        energy = float(heights.max() * rng.uniform(0.5, 2.0))
        path, doc = _write_structure(s, work / f"wave-{len(ops)}.json")
        out = str(work / f"out-{len(ops)}.csv")
        argv = ["wavefunction", "--structure", path, "--energy", _f(energy),
                "--grid-points", str(sizes.wave_grid), "--out", out]
        spots = sorted(int(k) for k in rng.choice(sizes.wave_grid,
                                                  size=min(64, sizes.wave_grid),
                                                  replace=False))
        ops.append(Op([argv], {"barriers": n, "energy": energy, "structure": doc,
                               "argv": argv},
                      out, {"structure": s, "energy": energy, "grid": sizes.wave_grid,
                            "spots": spots}))
    return ops


def _oracle_psi_solution(s: LayeredStructure, energy: float):
    ora = oracle_solution(s, energy)
    sol = ScatteringSolution(
        structure=s, energy=energy, wavenumbers=compute_wavenumbers(s, energy),
        embedded=EmbeddedAmplitudes(t_full=ora.t_full, r_full=ora.r_full),
        a=ora.a, b=ora.b, c=ora.c, d=ora.d,
    )
    return sol, ora.condition


def _parse_tr(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("T=") and " R=" in line:
            t_txt, r_txt = line.split()
            return float(t_txt[2:]), float(r_txt[2:])
    raise CheckFailed("no 'T=... R=...' line on stdout")


def check_wavefunction(op: Op, codes, stdout: str) -> Outcome:
    if codes != [0]:
        return Outcome(failure=f"exit {codes[-1]}")
    model = op.model
    s, energy = model["structure"], model["energy"]
    rows = _numeric(_read_table(op.out, "x,re_psi,im_psi,abs2_psi"), 4)
    if rows.shape[0] != model["grid"] or np.any(np.diff(rows[:, 0]) <= 0):
        raise CheckFailed("psi rows do not form the requested ascending grid")
    abs2 = rows[:, 1] ** 2 + rows[:, 2] ** 2
    if np.any(np.abs(rows[:, 3] - abs2) > 1e-12 * np.maximum(abs2, 1.0)):
        raise CheckFailed("abs2_psi differs from re_psi^2 + im_psi^2")
    t_prob, r_prob = _parse_tr(stdout)
    _check_probabilities(np.array([t_prob]), np.array([r_prob]))
    if "sol" not in op.refs:
        op.refs["sol"], op.refs["cond"] = _oracle_psi_solution(s, energy)
        op.refs["psi"] = [evaluate_psi(op.refs["sol"], float(rows[i, 0]))
                          for i in model["spots"]]
    # In the right medium psi = t exp(i k x), so |psi|^2 is the |t|^2
    # implied by the printed flux-normalised T.
    k_left = math.sqrt(energy - s.v_left)
    k_right = math.sqrt(energy - s.v_right)
    t2 = t_prob * k_left / k_right
    right = rows[:, 0] > s.span
    if not np.any(right):
        raise CheckFailed("no psi row in the right medium")
    if np.max(np.abs(rows[right, 3] - t2)) > 1e-9 * max(t2, 1e-300):
        raise CheckFailed("|psi|^2 in the right medium differs from |t|^2 of the printed T")
    psi = rows[model["spots"], 1] + 1j * rows[model["spots"], 2]
    ref = np.array(op.refs["psi"])
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    err = float(np.max(np.abs(psi - ref))) / scale
    sol = op.refs["sol"]
    t_ref = k_right / k_left * abs(sol.embedded.t_full) ** 2
    err = max(err, abs(t_prob - t_ref) + abs(r_prob - abs(sol.embedded.r_full) ** 2))
    if err > _oracle_tol(op.refs["cond"]):
        raise CheckFailed(f"psi differs from the dense-solve psi by {err:.3g}")
    return Outcome(points=len(rows), ref_err=err)


# --- long-chain ------------------------------------------------------------


def _random_lattice(rng):
    height = float(rng.uniform(1.0, 5.0))
    width = float(rng.uniform(0.4, 1.2))
    period = width + float(rng.uniform(0.4, 1.6))
    return height, width, period


def _lattice_params(h, w, a, count):
    return f"barrier_height={_f(h)},barrier_width={_f(w)},period={_f(a)},count={count}"


def _allowed(h, w, a, energies, limit):
    return all(abs(cos_beta_reference(h, w, a, e)) <= limit for e in energies)


def _deepest_forbidden(h, w, a, lo, hi, points=4000):
    """Energy in [lo, hi] where |cos beta| is largest: deep in a forbidden band."""
    grid = np.linspace(lo, hi, points)
    return float(max(grid, key=lambda e: abs(cos_beta_reference(h, w, a, e))))


def _long_chain_op(work, idx, h, w, a, lo, hi, count, steps):
    out = str(work / f"out-{idx}.csv")
    argv = ["sweep", "--scenario", "periodic", "--scenario-params",
            _lattice_params(h, w, a, count),
            "--energy-range", f"{_f(lo)}:{_f(hi)}:{steps}",
            "--nudge", _f(NUDGE), "--out", out]
    lat = PeriodicLattice(h, w, a, count)
    return Op([argv], {"height": h, "width": w, "period": a, "count": count,
                       "argv": argv},
              out, {"lattice": lat, "lo": lo, "hi": hi, "steps": steps})


def build_long_chain(rng, work: Path, sizes: Sizes):
    ops = []
    while len(ops) < sizes.long_lattices:
        h, w, a = _random_lattice(rng)
        # Energies above the barrier top, inside an allowed band: the
        # evanescent and forbidden-band cases fail and are defect probes.
        lo = h * float(rng.uniform(1.05, 3.0))
        hi = lo + float(rng.uniform(0.02, 0.2))
        if _allowed(h, w, a, np.linspace(lo, hi, sizes.long_steps), ALLOWED_LIMIT):
            ops.append(_long_chain_op(work, len(ops), h, w, a, lo, hi,
                                      sizes.long_count, sizes.long_steps))
    return ops


def long_chain_probes(rng, work: Path, sizes: Sizes):
    """Lattices the program is known to fail on at this length.

    Below the barrier top the exponentials of ``interface_amplitudes``
    overflow past x of about 709/|k_n|; deep in a forbidden band above it
    ``gap_coefficients`` divides by a transmission that underflowed to zero.
    """
    ops = []
    for i in range(PROBES):
        h, w, a = _random_lattice(rng)
        if i % 2 == 0:
            lo = h * float(rng.uniform(0.6, 0.95))
        else:
            # Deep enough that T = |cos beta|^(-2N) or so underflows.
            lo = _deepest_forbidden(h, w, a, 1.05 * h, 3.0 * h)
            while abs(cos_beta_reference(h, w, a, lo)) < DEEP_FORBIDDEN:
                h, w, a = _random_lattice(rng)
                lo = _deepest_forbidden(h, w, a, 1.05 * h, 3.0 * h)
        ops.append(_long_chain_op(work, f"probe-{i}", h, w, a, lo, lo + 1e-3,
                                  sizes.long_count, sizes.long_steps))
    return ops


def check_long_chain(op: Op, codes, stdout: str) -> Outcome:
    if codes != [0]:
        return Outcome(failure=f"exit {codes[-1]}")
    rows = _numeric(_read_table(op.out, "epsilon,T_prob,R_prob"), 3)
    _check_sweep_grid(rows, op.model)
    flux = _check_probabilities(rows[:, 1], rows[:, 2])
    lat = op.model["lattice"]
    worst = 0.0
    for i, (e, t) in enumerate(rows[:, :2].tolist()):
        if i not in op.refs:
            try:
                inv_t, _ = closed_form_prefix(lat, e, lat.count)
            except (OverflowError, BandEdgeError) as ex:
                raise CheckFailed(
                    f"no closed-form reference at epsilon={e!r}: {type(ex).__name__}"
                ) from ex
            # Through the log: |1/T| may overflow while T merely underflows.
            op.refs[i] = math.exp(-2.0 * math.log(abs(inv_t)))
        # Relative error, with values below the smallest normal double
        # (where a float carries no relative precision) counted as zero.
        err = abs(t - op.refs[i]) / max(op.refs[i], sys.float_info.min)
        worst = max(worst, err)
        if err > CLOSED_FORM_TOL:
            raise CheckFailed(
                f"T at epsilon={e!r} differs from the closed form by {err:.3g}"
            )
    return Outcome(points=len(rows), ref_err=worst, flux_defect=flux)


# --- lattice-check ---------------------------------------------------------


def _lattice_check_op(work, idx, h, w, a, energy, sizes, rng):
    out = str(work / f"out-{idx}.csv")
    bands = ["bands", "--barrier-height", _f(h), "--barrier-width", _f(w),
             "--period", _f(a), "--energy-range", f"0:{_f(4.0 * h)}:{sizes.check_scan}",
             "--out", out]
    check = ["oracle-check", "--scenario", "periodic", "--scenario-params",
             _lattice_params(h, w, a, sizes.check_count), "--energy", _f(energy)]
    spots = sorted(int(k) for k in rng.choice(sizes.check_scan - 2, size=16,
                                              replace=False))
    return Op([bands, check], {"height": h, "width": w, "period": a,
                               "count": sizes.check_count, "energy": energy,
                               "argv": [bands, check]},
              out, {"lattice": (h, w, a), "spots": spots})


def build_lattice_check(rng, work: Path, sizes: Sizes):
    ops = []
    while len(ops) < sizes.check_lattices:
        h, w, a = _random_lattice(rng)
        # The oracle check runs inside an allowed band; in a forbidden band
        # it exits 4, and those energies are defect probes.
        energy = h * float(rng.uniform(0.3, 3.0))
        if _allowed(h, w, a, [energy], ALLOWED_LIMIT):
            ops.append(_lattice_check_op(work, len(ops), h, w, a, energy, sizes, rng))
    return ops


def lattice_check_probes(rng, work: Path, sizes: Sizes):
    """Oracle checks deep in forbidden bands, where the pipeline's gap
    coefficients lose accuracy in proportion to |1/T_n| and the check exits 4.
    The first is PeriodicLattice(3, 1, 2) at epsilon = 4.6."""
    ops = [_lattice_check_op(work, "probe-0", 3.0, 1.0, 2.0, 4.6, sizes, rng)]
    while len(ops) < PROBES:
        h, w, a = _random_lattice(rng)
        energy = _deepest_forbidden(h, w, a, 0.3 * h, 3.0 * h)
        ops.append(_lattice_check_op(work, f"probe-{len(ops)}", h, w, a, energy,
                                     sizes, rng))
    return ops


def cos_beta_reference(h: float, w: float, a: float, e: float) -> float:
    """Half the trace of one period's (psi, psi') transfer matrix."""

    def layer(k, length):
        c, s = cmath.cos(k * length), cmath.sin(k * length)
        return ((c, s / k), (-k * s, c))

    gap = layer(cmath.sqrt(e), a - w)
    bar = layer(cmath.sqrt(e - h), w)
    tr = sum(bar[i][j] * gap[j][i] for i in range(2) for j in range(2))
    return (tr / 2.0).real


def _parse_oracle_line(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("max relative discrepancy = "):
            worst = float(line.split("=")[1].split()[0])
            cond = float(line.split("condition estimate ")[1].split(",")[0])
            tol = float(line.split("tolerance ")[1].rstrip(")"))
            return worst, cond, tol
    raise CheckFailed("no discrepancy line from oracle-check")


def check_lattice_check(op: Op, codes, stdout: str) -> Outcome:
    if len(codes) != 2 or codes[0] != 0 or codes[1] not in (0, 4):
        return Outcome(failure=f"exit {codes[-1]}")
    h, w, a = op.model["lattice"]
    cells = _read_table(op.out, "epsilon,cos_beta,band")
    if any(len(c) != 3 for c in cells):
        raise CheckFailed("CSV row with the wrong number of fields")
    rows = _numeric([c[:2] for c in cells], 2)
    labels = [c[2] for c in cells]
    if len(rows) < 2 or np.any(np.diff(rows[:, 0]) <= 0):
        raise CheckFailed("band table energies are not ascending")
    for c, label in zip(rows[:, 1], labels):
        expect = ("edge" if abs(abs(c) - 1.0) < 1e-12
                  else "allowed" if abs(c) <= 1.0 else "forbidden")
        if label != expect:
            raise CheckFailed(f"cos_beta={c!r} labelled {label!r}, expected {expect!r}")
    for i in op.model["spots"]:
        if i >= len(rows):
            continue
        e, c = rows[i].tolist()
        ref = cos_beta_reference(h, w, a, e)
        if abs(c - ref) > COS_BETA_TOL * max(1.0, abs(ref)):
            raise CheckFailed(f"cos_beta at epsilon={e!r} is {c!r}, reference {ref!r}")
    for line in stdout.splitlines():
        if line.startswith("edge at epsilon="):
            e = float(line.split("=")[1])
            if abs(abs(cos_beta_reference(h, w, a, e)) - 1.0) > EDGE_TOL:
                raise CheckFailed(f"printed band edge {e!r} is not at |cos beta| = 1")
    worst, cond, tol = _parse_oracle_line(stdout)
    if (worst <= tol) != (codes[1] == 0):
        raise CheckFailed("oracle-check exit code disagrees with its printed discrepancy")
    failure = None
    if codes[1] == 4:
        failure = f"exit 4 (discrepancy {worst:.3g}, condition {cond:.3g})"
    return Outcome(points=len(rows), ref_err=worst, failure=failure)


# name -> (timed op pool, check, defect probes or None)
WORKLOADS = {
    "sweep": (build_sweep, check_sweep, None),
    "wavefunction": (build_wavefunction, check_wavefunction, None),
    "long-chain": (build_long_chain, check_long_chain, long_chain_probes),
    "lattice-check": (build_lattice_check, check_lattice_check, lattice_check_probes),
}

# Share of the speed gauge's LAPACK kernel in the slowdown it applies to an op
# (the rest is its interpreted kernel).  lattice-check spends most of its op
# in numpy.linalg.cond; the others in interpreted complex arithmetic.  Chosen
# as the mixes whose corrected op times drifted least over minutes of load on
# a shared 2-vCPU machine.
LAPACK_WEIGHT = {"sweep": 0.2, "wavefunction": 0.2, "long-chain": 0.2, "lattice-check": 0.8}

# Output points per op, as counted by points_per_s.
POINTS = {
    "sweep": "energy rows",
    "wavefunction": "psi rows",
    "long-chain": "energy rows",
    "lattice-check": "band-scan rows",
}
