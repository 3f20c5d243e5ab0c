"""Command-line surface: structure files, energy sweeps, spatial sampling,
band scans, scenario generators, and CSV emission.

Exit codes: 0 success; 2 parse/validation error, including malformed or
non-finite structure documents; 3 numerical failure (an energy that
:func:`~layerscatter.structure.check_energy` refuses, a band edge,
overflow or underflow); 4 oracle-check discrepancy above tolerance; 141
stdout closed by its reader.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .amplitudes import (
    reflection_probability,
    scattering_amplitudes,
    transmission_probability,
)
from .oracle import compare_with_pipeline
from .periodic import ENERGY_FLOOR, PeriodicLattice, band_scan
from .scenarios import SCENARIOS, build_scenario
from .structure import (
    DegenerateWavenumberError,
    LayeredStructure,
    StructureError,
    mirror_structure,
    off_degenerate,
)
from .wavefunction import MAX_GRID_POINTS, default_grid, grid_bounds
from .wavefunction import sample_density, solve_structure

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_ORACLE = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a process killed by the signal reports

CSV_BLOCK_ROWS = 4096  # rows formatted by one % in _write_csv


def parse_structure(text: str) -> LayeredStructure:
    """Parse a structure document (JSON) into a structure.

    Either an explicit barrier list under ``barriers`` or a
    ``generator: {kind, params}`` entry expanding to a named scenario.
    """
    try:
        doc = json.loads(text)
    except ValueError as ex:  # JSONDecodeError, or an over-long integer literal
        raise StructureError([f"not valid JSON: {ex}"]) from ex
    if not isinstance(doc, dict):
        raise StructureError(["top level must be an object"])
    if "generator" in doc:
        gen = doc["generator"]
        if not isinstance(gen, dict) or "kind" not in gen:
            raise StructureError(["generator must be an object with a 'kind' key"])
        return _scenario(gen["kind"], gen.get("params", {}))
    missing = [k for k in ("v_left", "v_right", "span", "barriers") if k not in doc]
    if missing:
        raise StructureError([f"missing key: {k}" for k in missing])
    if not isinstance(doc["barriers"], list):
        raise StructureError(["barriers must be a list"])
    rows = [[_number(b, k, f"barrier {i}") for k in ("height", "width", "center")]
            for i, b in enumerate(doc["barriers"], start=1)]
    return LayeredStructure(*(_number(doc, k, k) for k in ("v_left", "v_right", "span")),
                            np.reshape(rows, (-1, 3)).T)


def _number(entry, key: str, where: str) -> float:
    """``float(entry[key])``, or a StructureError naming ``where``."""
    try:
        return float(entry[key])
    except (TypeError, KeyError, ValueError, OverflowError) as ex:
        raise StructureError([f"{where}: {ex}"]) from ex


def _scenario(kind, params) -> LayeredStructure:
    """``build_scenario(kind, **params)``, with parameters it cannot take
    (a fractional or infinite count, an unknown key) as a StructureError."""
    try:
        return build_scenario(kind, **params)
    except StructureError:
        raise
    except (TypeError, ValueError, OverflowError) as ex:
        raise StructureError([f"scenario {kind}: {ex}"]) from ex


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_structure(args) -> LayeredStructure:
    if args.scenario is not None:
        params = {}
        for item in (args.scenario_params or "").split(","):
            if not item:
                continue
            key, _, val = item.partition("=")
            try:
                params[key.strip()] = float(val)
            except ValueError:
                raise StructureError([f"scenario parameter {item!r} is not numeric"])
        s = _scenario(args.scenario, params)
    elif args.structure is not None:
        if args.structure == "-":
            text = sys.stdin.read()
        else:
            with open(args.structure) as fh:
                text = fh.read()
        s = parse_structure(text)
    else:
        raise StructureError(["provide --structure FILE or --scenario NAME"])
    if args.mirror:
        s = mirror_structure(s)
    return s


def _write_csv(path, header: str, row_format: str, columns):
    """Write ``header`` and one ``row_format`` line per row of ``columns``.

    ``columns`` are equal-length arrays or sequences, one per ``%`` field of
    ``row_format``.  Rows are formatted CSV_BLOCK_ROWS at a time, each block
    with one ``%`` over its interleaved values, which costs a fraction of a
    format call per value and keeps the transient tuple small.  Every block
    is formatted before the file is opened, so a command that fails leaves
    no partial file.
    """
    width, n = len(columns), len(columns[0])
    blocks = [header + "\n"]
    for start in range(0, n, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, n)
        values = [None] * (width * (stop - start))
        for j, col in enumerate(columns):
            part = col[start:stop]
            values[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
        blocks.append((row_format + "\n") * (stop - start) % tuple(values))
    if path in (None, "stdout", "-"):
        sys.stdout.writelines(blocks)
    else:
        with open(path, "w") as fh:
            fh.writelines(blocks)


def _energy_range(spec: str):
    """(MIN, MAX, STEPS) from an ``--energy-range`` value."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("--energy-range must be MIN:MAX:STEPS")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not np.isfinite([lo, hi]).all():
        raise ValueError("--energy-range needs finite MIN and MAX")
    if not (hi > lo and steps >= 2):
        raise ValueError("--energy-range needs MAX > MIN and STEPS >= 2")
    return lo, hi, steps


def cmd_validate(args) -> int:
    try:
        s = _load_structure(args)
    except StructureError as ex:
        for p in ex.problems:
            print(f"invalid: {p}", file=sys.stderr)
        return EXIT_INVALID
    print(f"valid: {s.n_barriers} barriers on span {s.span}")
    return EXIT_OK


def _grid_options(args, s: LayeredStructure):
    """(x_min, x_max) of ``wavefunction``'s grid, checked with --grid-points
    before any solve: finite bounds a finite distance apart and 1 to
    ``MAX_GRID_POINTS`` points, or a ValueError naming the option."""
    for option, value in (("--x-min", args.x_min), ("--x-max", args.x_max)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{option} must be finite, got {value}")
    x_min, x_max = grid_bounds(s.span, args.x_min, args.x_max)
    if not math.isfinite(x_max - x_min):
        raise ValueError(
            f"--x-min and --x-max must be a finite distance apart, got {x_min} and {x_max}")
    if args.grid_points is not None and not 1 <= args.grid_points <= MAX_GRID_POINTS:
        bound = "at least 1" if args.grid_points < 1 else f"at most {MAX_GRID_POINTS}"
        raise ValueError(f"--grid-points must be {bound}, got {args.grid_points}")
    return x_min, x_max


def cmd_wavefunction(args) -> int:
    s = _load_structure(args)
    x_min, x_max = _grid_options(args, s)
    sol = solve_structure(s, args.energy)
    grid = default_grid(sol, x_min, x_max, args.grid_points)
    rows = sample_density(sol, grid)
    _write_csv(args.out, "x,re_psi,im_psi,abs2_psi", "%.17g,%.17g,%.17g,%.17g", rows.T)
    t = transmission_probability(sol.embedded, sol.wavenumbers)
    r = reflection_probability(sol.embedded)
    print(f"T={_fmt(t)} R={_fmt(r)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    s = _load_structure(args)
    energies = np.linspace(*_energy_range(args.energy_range))
    w, _, _, emb = scattering_amplitudes(s, off_degenerate(s, energies, args.nudge))
    t = transmission_probability(emb, w)
    r = reflection_probability(emb)
    _write_csv(args.out, "epsilon,T_prob,R_prob", "%.17g,%.17g,%.17g", (energies, t, r))
    return EXIT_OK


def cmd_bands(args) -> int:
    lat = PeriodicLattice(args.barrier_height, args.barrier_width, args.period)
    lo, hi, steps = _energy_range(args.energy_range)
    # The spacing of np.linspace(max(lo, ENERGY_FLOOR), hi, steps), sweep's
    # grid after the floor: band_scan then scans exactly that grid.
    table = band_scan(lat, lo, hi, (hi - max(lo, ENERGY_FLOOR)) / (steps - 1))
    _write_csv(args.out, "epsilon,cos_beta,band", "%.17g,%.17g,%s",
               (table.energies, table.cos_beta, table.classification))
    for e in table.edges:
        print(f"edge at epsilon={_fmt(e)}")
    for e in table.skipped:
        print(f"note: skipped degenerate grid point epsilon={_fmt(e)}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    s = _load_structure(args)
    worst, condition, residual = compare_with_pipeline(s, args.energy)
    tol = args.tolerance if condition <= 1e8 else args.relaxed_tolerance
    print(
        f"max relative discrepancy = {_fmt(worst)} "
        f"(condition estimate {condition:.3e}, tolerance {tol:g})"
    )
    print(f"residual = {_fmt(residual)}")
    return EXIT_OK if worst <= tol else EXIT_ORACLE


def _add_structure_args(p):
    p.add_argument("--structure", help="structure JSON file ('-' for stdin)")
    p.add_argument("--scenario", choices=sorted(SCENARIOS), help="named generator")
    p.add_argument(
        "--scenario-params",
        help="comma-separated key=value overrides for the scenario",
    )
    p.add_argument(
        "--mirror", action="store_true",
        help="reflect the structure (right-incidence equivalent)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after: parsing
    keeps no state in it, and in-process callers need not rebuild it."""
    ap = argparse.ArgumentParser(
        prog="layerscatter",
        description="Scattering, wave functions, and band structure for 1D "
        "rectangular-barrier chains between two semi-infinite media.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure's geometric constraints")
    _add_structure_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("wavefunction", help="sample psi(x) to CSV")
    _add_structure_args(p)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--out", default="stdout")
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("sweep", help="transmission/reflection over an energy range")
    _add_structure_args(p)
    p.add_argument("--energy-range", required=True, metavar="MIN:MAX:STEPS")
    p.add_argument(
        "--nudge", type=float, default=1e-9,
        help="energy offset applied at degenerate grid points (k_n = 0)",
    )
    p.add_argument("--out", default="stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bands", help="Bloch-phase scan of a periodic lattice")
    p.add_argument("--barrier-height", type=float, required=True)
    p.add_argument("--barrier-width", type=float, required=True)
    p.add_argument("--period", type=float, required=True)
    p.add_argument("--energy-range", required=True, metavar="MIN:MAX:STEPS")
    p.add_argument("--out", default="stdout")
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser(
        "oracle-check",
        help="compare the amplitude pipeline against the banded matching solve",
    )
    _add_structure_args(p)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument(
        "--relaxed-tolerance", type=float, default=1e-6,
        help="tolerance used when the matching system's one-norm condition "
        "estimate (zgbcon, from its banded LU factors) exceeds 1e8",
    )
    p.set_defaults(func=cmd_oracle_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point stdout at devnull so
        # the flush at interpreter exit cannot fail again, and stop quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except StructureError as ex:
        for p in ex.problems:
            print(f"error: {p}", file=sys.stderr)
        return EXIT_INVALID
    except (DegenerateWavenumberError, ArithmeticError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
