"""Command-line surface: structure files, energy sweeps, spatial sampling,
band scans, scenario generators, and CSV emission.

Exit codes: 0 success; 2 parse/validation error, including malformed
structure documents, any number outside the domain
(:func:`~layerscatter.structure.domain_error`) and unreadable or
unwritable files; 3 numerical failure (an energy in the domain that
:func:`~layerscatter.structure.check_energy` refuses, a band edge or
underflow); 4 oracle-check discrepancy above tolerance; 141 stdout closed
by its reader.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .amplitudes import (
    reflection_probability,
    scattering_amplitudes,
    transmission_probability,
)
from .oracle import compare_with_pipeline
from .periodic import PeriodicLattice, band_scan
from .scenarios import SCENARIOS, build_scenario
from .structure import (
    DegenerateWavenumberError,
    LayeredStructure,
    StructureError,
    check_domain,
    mirror_structure,
    off_degenerate,
)
from .wavefunction import default_grid, grid_bounds, sample_density, solve_structure

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_ORACLE = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a process killed by the signal reports

CSV_BLOCK_ROWS = 1536  # rows formatted together in _write_csv
# Blocks of at least this many rows are spelled as one byte array
# (_byte_block); on shorter ones numpy's cost per call exceeds the saving
# (the crossover measured on 3- and 4-column tables).
CSV_INTEGER_ROWS = 200

# 10**p for p = 0..22, every one an exact double; 10**k as int64 for k = 0..18
# (0 past it, where the integer part is 0).
_POW10 = np.array([float(10 ** p) for p in range(23)])
_INT_POW10 = np.array([10 ** k for k in range(19)] + [0] * 4, dtype=np.int64)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant: a double as two 26-bit halves


def _digit_words() -> np.ndarray:
    """The 4-byte words that spell a cell, little-endian uint32: the four
    ASCII digits of each q = 0..9999 as they are, then with leading zeros NUL
    but the units digit, then with trailing zeros NUL (q at q, _UNIT + q and
    _TRAIL + q); from _NUL on, NUL and the words ``-``, ``.``, ``.0``,
    ``.00``, ``.000``, ``,``, ``\n``, ``e-05`` and ``e-06``."""
    digits = np.indices((10,) * 4, dtype=np.uint32).reshape(4, -1)  # (place, q): q's digits
    unit, trail = digits > 0, digits > 0
    for j in range(1, 4):
        unit[j] |= unit[j - 1]  # at or after the leading digit
        trail[3 - j] |= trail[4 - j]  # at or before the last nonzero one
    unit[3] = True
    # digit j of q in byte j of its word
    ascii = (digits + ord("0")) << (8 * np.arange(4, dtype=np.uint32))[:, None]
    extra = b"".join(text.ljust(4, b"\0") for text in
                     [b"", b"-", b".", b".0", b".00", b".000", b",", b"\n",
                      b"e-05", b"e-06"])
    return np.concatenate([(ascii * keep).sum(axis=0, dtype="<u4")
                           for keep in (True, unit, trail)]
                          + [np.frombuffer(extra, dtype="<u4")])


_WORDS = _digit_words()
_UNIT, _TRAIL, _NUL = (k * 10 ** 4 for k in range(1, 4))
_MINUS, _POINT, _COMMA, _NEWLINE, _EXPONENT = (_NUL + k for k in (1, 2, 6, 7, 8))


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


def _integer_cells(v: np.ndarray):
    """``'%.17g' % x`` for each x of the float64 array ``v``, as integers.

    Returns (exact, whole, fraction, p): where ``exact``, the cell is the
    integer part ``whole`` and, if ``fraction`` > 0, a point and ``fraction``
    as p digits, leading zeros kept and trailing ones dropped; for p > 20 it
    is scientific instead, ``fraction`` being N.  ``%.17g`` writes the 17
    significant digits N = round(|x| 10**p), p = 16 - X, X = floor(log10 |x|),
    in fixed notation for 1e-4 <= |x| < 1e17, the last p after the point, and
    as N's first digit, a point, the other 16 and ``e-05`` or ``e-06`` for
    1e-6 < |x| < 1e-4, trailing zeros dropped either way.  10**p is an exact
    double, so Dekker's two-product gives |x| 10**p exactly as hi + lo, hi a
    double >= 2**53 and so an even integer, and N = hi + rint(lo): rint
    breaks a tie (lo ending in exactly .5) to even as ``%.17g`` does.  Not
    ``exact`` are zero, non-finite values, |x| <= 1e-6 (the double 1e-6 lies
    below 10**-6, so close that its N would round up into the wrong decade),
    |x| >= 1e4, whose integer part takes more than one word of
    :func:`_float_cells`, and an N outside [10**16, 10**17), where np.log10
    misjudged X.  No rounding carries into the integer part, which is
    floor(|x|): a double lies farther from an integer than half the 17th digit.
    """
    a = np.abs(v)
    exact = (a > 1e-6) & (a < 1e4)
    a[~exact] = 1.0
    p = np.clip(16.0 - np.floor(np.log10(a)), 0, 22).astype(np.intp)
    s = _POW10[p]
    hi = a * s
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * s
    s_hi = c - (c - s)
    s_lo = s - s_hi
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    r = np.rint(lo)
    n = hi.astype(np.int64) + r.astype(np.int64)
    exact &= (n >= 10 ** 16) & (n < 10 ** 17)
    whole = a.astype(np.int64)
    return exact, whole, n - whole * _INT_POW10[p], p


def _float_cells(v: np.ndarray, seps) -> np.ndarray:
    """``'%.17g' % x`` for each x of ``v``, then its separator word
    ``seps``, as a uint8 array of NUL-padded ASCII: one row per cell, of 9
    four-byte words of _WORDS.

    A cell is the sign; the integer part, below 10**4, leading zeros NUL but
    its units digit; the point, with the p - 17 zeros that follow it when
    p > 17; the fraction left-aligned in 17 digits, as a leading digit and
    four groups of four, trailing zeros NUL; the separator.  The fraction is
    ``fraction * 10**(17 - p)``, or for p > 17 ``fraction`` itself, the 17
    digits after those zeros; an empty fraction has no point.  A scientific
    cell (p > 20) is N's leading digit in the integer's word, the point, N's
    other 16 digits as four groups, and ``e-05`` or ``e-06``.  N is never
    d 10**16, whose cell would have no point: no double in that range lies
    within half a unit of N's last digit of d 10**-5 or d 10**-6.

    Each 17-digit number splits into its groups with ``//`` by a constant,
    which numpy runs without a hardware divide (``%`` and divmod divide),
    and a multiply-subtract, in int32 below 10**8.  The word indices are one
    (cells, words) intp array, so one ``np.take`` spells them in place.  A
    cell that _integer_cells does not prove exact, |x| >= 10**4 among them,
    is ``%.17g`` itself (:func:`_printf_cells`), NUL-padded.
    """
    exact, whole, fraction, p = _integer_cells(v)
    fraction *= _INT_POW10[np.maximum(17 - p, 0)]
    words = np.empty((v.size, 9), dtype=np.intp)
    high = fraction // 10 ** 8  # the leading digit and the next 8, < 10**9
    lead = high // 10 ** 8
    eights = np.empty((v.size, 2), dtype=np.int32)
    eights[:, 0] = high - lead * 10 ** 8
    eights[:, 1] = fraction - high * 10 ** 8
    fours = eights // 10 ** 4
    words[:, 0] = np.where(v < 0, _MINUS, _NUL)
    words[:, 1] = whole + _UNIT
    empty = fraction == 0
    words[:, 2] = np.where(empty, _NUL, _POINT + np.maximum(p - 17, 0))
    # the fraction's leading digit, four groups, separator
    words[:, 3] = np.where(empty, _NUL, lead + _UNIT)
    words[:, 4:8:2] = fours
    words[:, 5:8:2] = eights - fours * 10 ** 4
    # a group is _TRAIL where every digit after it is 0
    last_eight_zero = eights[:, 1] == 0
    words[:, 4] += _TRAIL * (last_eight_zero & (words[:, 5] == 0))
    words[:, 5] += _TRAIL * last_eight_zero
    words[:, 6] += _TRAIL * (words[:, 7] == 0)
    words[:, 7] += _TRAIL
    words[:, 8] = seps
    scientific = np.flatnonzero(exact & (p > 20))
    if scientific.size:
        cells = words[scientific]
        cells[:, 1] = cells[:, 3]
        cells[:, 2] = _POINT
        cells[:, 3:7] = cells[:, 4:8]
        cells[:, 7] = _EXPONENT + p[scientific] - 21
        words[scientific] = cells
    cells = np.take(_WORDS, words).view(np.uint8)
    inexact = np.flatnonzero(~exact)
    if inexact.size:
        cells[inexact, :-4] = 0
        cells[inexact, :24] = _printf_cells(v[inexact])
    return cells


def _printf_cells(v: np.ndarray) -> np.ndarray:
    """``'%.17g' % x`` for each x of ``v``, at most 24 characters, left-aligned
    in 24 bytes with the spaces NUL, from one ``%``."""
    text = ("%-24.17g" * v.size % tuple(v.tolist())).encode("ascii")
    text = np.frombuffer(text, dtype=np.uint8).reshape(-1, 24)
    return np.where(text == ord(" "), 0, text)


def _byte_block(table: np.ndarray) -> str:
    """The rows of ``table`` as text: every value through one call of
    :func:`_float_cells`, row by row, as NUL-padded cells, whose NULs
    bytes.translate then drops in one pass, several times faster than a
    numpy mask."""
    rows, width = table.shape
    seps = np.tile([_COMMA] * (width - 1) + [_NEWLINE], rows)
    return _float_cells(table.ravel(), seps).tobytes().translate(None, b"\0").decode("ascii")


def _write_csv(path, header: str, table: np.ndarray, labels=None):
    """Write ``header`` and one line per row of ``table``, a (rows, k)
    float64 array: each value ``%.17g``, then that row's str of ``labels``
    if given.

    Rows are formatted CSV_BLOCK_ROWS at a time, which keeps each block's
    transients small.  A block of fewer than CSV_INTEGER_ROWS rows is one
    ``%`` over its values.  A longer one is spelled as bytes
    (:func:`_byte_block`): each value with 1e-6 < |x| < 1e17, fixed
    notation from 1e-4 up and scientific below, from its 17 digits, one
    int64 computed exactly with Dekker's product and an exact power of ten,
    spelled four digits at a time from a table.  Zero, non-finite values,
    the other scientific ones and any value whose decade np.log10 misjudged
    keep ``%.17g``, so the bytes are ``%.17g``'s either way.  Each label is
    then joined to its line's text.  Every block is formatted before the
    file is opened, so a command that fails leaves no partial file.
    """
    rows, width = table.shape
    line = ",".join(["%.17g"] * width) + "\n"
    blocks = [header + "\n"]
    for start in range(0, rows, CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        part = table[block]
        if len(part) >= CSV_INTEGER_ROWS:
            text = _byte_block(part)
        else:
            text = line * len(part) % tuple(part.ravel().tolist())
        if labels is not None:
            text = "\n".join(map(",".join, zip(text.split("\n"), labels[block]))) + "\n"
        blocks.append(text)
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
    check_domain(("--energy-range MIN", lo), ("--energy-range MAX", hi))
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


def cmd_wavefunction(args) -> int:
    s = _load_structure(args)
    grid_bounds(s.span, args.x_min, args.x_max, args.grid_points)  # refused before the solve
    sol = solve_structure(s, args.energy)
    grid = default_grid(sol, args.x_min, args.x_max, args.grid_points)
    rows = sample_density(sol, grid)
    _write_csv(args.out, "x,re_psi,im_psi,abs2_psi", rows)
    t = transmission_probability(sol.embedded, sol.wavenumbers)
    r = reflection_probability(sol.embedded)
    print(f"T={_fmt(t)} R={_fmt(r)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    s = _load_structure(args)
    check_domain(("--nudge", args.nudge))
    energies = np.linspace(*_energy_range(args.energy_range))
    w, _, _, emb = scattering_amplitudes(s, off_degenerate(s, energies, args.nudge))
    t = transmission_probability(emb, w)
    r = reflection_probability(emb)
    _write_csv(args.out, "epsilon,T_prob,R_prob", np.array((energies, t, r)).T)
    return EXIT_OK


def cmd_bands(args) -> int:
    lat = PeriodicLattice(args.barrier_height, args.barrier_width, args.period)
    table = band_scan(lat, *_energy_range(args.energy_range))
    _write_csv(args.out, "epsilon,cos_beta,band",
               np.array((table.energies, table.cos_beta)).T, table.classification)
    for e in table.edges:
        print(f"edge at epsilon={_fmt(e)}")
    for e in table.skipped:
        print(f"note: skipped degenerate grid point epsilon={_fmt(e)}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    s = _load_structure(args)
    for option, value in (("--tolerance", args.tolerance),
                          ("--relaxed-tolerance", args.relaxed_tolerance)):
        if not 0.0 <= value < np.inf:
            raise ValueError(f"{option} must be finite and at least 0, got {value}")
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
    except OSError as ex:  # an unreadable --structure or an unwritable --out
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INVALID
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
