"""Outside-in tracer: spans around calls into layerscatter's public functions.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces each
listed function with a wrapper, both in the module that defines it and at
every module attribute that still names the original (``from .x import y``
copies a reference into the importing module, so patching the defining
module alone would miss those calls).  The scipy/numpy entry points that the
oracle calls are wrapped the same way and form the ``lapack`` layer.

While no op is open the wrappers only forward the call.  During an op each
wrapped call appends one span ``(name, start, end, parent)`` to an in-memory
list; :meth:`Tracer.end_op` folds that list into per-function calls and
self time (duration minus the time its child spans cover) after the op's
timed region.  Tiny helpers such as ``branch_sqrt`` stay unwrapped: a
wrapper costs about a microsecond, which is their whole run time.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

from layerscatter.structure import DegenerateWavenumberError

TRACED = {
    "cli": ("main",),
    "scenarios": ("build_scenario",),
    "structure": ("validate_structure", "compute_wavenumbers"),
    "amplitudes": (
        "interface_amplitudes", "all_barrier_amplitudes", "barrier_amplitudes",
        "prefix_by_recurrence", "embed_in_media",
    ),
    "wavefunction": (
        "solve_structure", "gap_coefficients", "barrier_coefficients",
        "sample_density", "evaluate_psi", "default_grid",
    ),
    "periodic": ("band_scan", "bloch_phase"),
    "oracle": ("assemble_matching_system", "solve_matching_system", "compare_with_pipeline"),
}
LAPACK = (("scipy.linalg", "lu_factor"), ("scipy.linalg", "lu_solve"), ("numpy.linalg", "cond"))
LAYERS = (*TRACED, "lapack")

# Spans kept for the span file: the first ops of a run, up to this many spans.
SPAN_FILE_LIMIT = 50_000


class Tracer:
    """Records spans of one op at a time and accumulates them per function."""

    def __init__(self):
        self.active = False
        self.spans = []        # (name, start, end, parent index) of the current op
        self.stack = []        # indices of the spans currently open
        self.op_id = 0
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.failed = Counter()
        self.kept = []         # (op id, span) for the span file
        self._solves = {}      # id -> [solution, coefficients read]
        self._last_exc = None
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function; :meth:`uninstall` restores them."""
        package = importlib.import_module("layerscatter")
        modules = [package] + [
            importlib.import_module(f"layerscatter.{m}") for m in TRACED
        ]
        targets = [(f"layerscatter.{m}", f, m) for m, fs in TRACED.items() for f in fs]
        targets += [(mod, f, "lapack") for mod, f in LAPACK]
        for mod_name, fname, layer in targets:
            home = importlib.import_module(mod_name)
            original = getattr(home, fname)
            wrapper = self._wrap(original, f"{layer}.{fname}", layer)
            for mod in {id(m): m for m in (home, *modules)}.values():
                if getattr(mod, fname, None) is original:
                    self._patches.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, original in reversed(self._patches):
            setattr(mod, fname, original)
        self._patches.clear()

    def _wrap(self, fn, name, layer):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(name)  # replaced by the full record when the call ends
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                t1 = perf_counter()
                if ex is not self._last_exc:  # count where it was raised, once
                    self._last_exc = ex
                    self.failed[layer] += 1
                if name == "wavefunction.solve_structure":
                    self.counts["wavefunction.degenerate_retries"] += isinstance(
                        ex, DegenerateWavenumberError)
                raise
            else:
                t1 = perf_counter()
                if hook is not None:
                    hook(self, args, result)
                return result
            finally:
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return wrapper

    # -- per-op bookkeeping -----------------------------------------------

    def begin_op(self):
        self.op_id += 1
        self.spans.clear()
        self.stack.clear()
        self._solves.clear()
        self._last_exc = None
        self.active = True

    def end_op(self) -> float:
        """Close the op, fold its spans into the totals; return its total self time."""
        self.active = False
        self._last_exc = None
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total = 0.0
        for (name, t0, t1, _), covered in zip(spans, child):
            own = (t1 - t0) - covered
            self.calls[name] += 1
            self.self_s[name] += own
            total += own
        self.counts["wavefunction.solves"] += len(self._solves)
        self.counts["wavefunction.solves_read"] += sum(u for _, u in self._solves.values())
        self._solves.clear()
        if len(self.kept) + len(spans) <= SPAN_FILE_LIMIT:
            self.kept.extend((self.op_id, s) for s in spans)
        return total

    @property
    def open_names(self):
        """Names of the spans open at this moment."""
        return [self.spans[i] for i in self.stack]


def _note_solve(tr: Tracer, args, sol):
    # Solves made for oracle-check are read by compare_with_pipeline.
    inside_compare = "oracle.compare_with_pipeline" in tr.open_names
    tr._solves[id(sol)] = [sol, inside_compare]


def _note_psi(tr: Tracer, args, _):
    entry = tr._solves.get(id(args[0]))
    if entry is not None:
        entry[1] = True


def _note_barriers(tr: Tracer, args, _):
    tr.counts["amplitudes.barriers_processed"] += args[1].n_barriers


def _note_density(tr: Tracer, args, _):
    tr.counts["wavefunction.psi_points"] += len(args[1])


def _note_scan(tr: Tracer, args, table):
    tr.counts["periodic.grid_points"] += len(table.energies) + len(table.skipped)
    tr.counts["periodic.edges_found"] += len(table.edges)
    tr.counts["periodic.skipped_points"] += len(table.skipped)


def _note_matrix(tr: Tracer, args, system):
    tr.counts["oracle.systems"] += 1
    tr.counts["oracle.matrix_dim_sum"] += system.matrix.shape[0]


_HOOKS = {
    "wavefunction.solve_structure": _note_solve,
    "wavefunction.evaluate_psi": _note_psi,
    "wavefunction.sample_density": _note_density,
    "amplitudes.all_barrier_amplitudes": _note_barriers,
    "periodic.band_scan": _note_scan,
    "oracle.assemble_matching_system": _note_matrix,
}
