"""Benchmark for layerscatter: four CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process, one client, closed loop: each op is an in-process call (or
two) to ``layerscatter.cli.main(argv)`` on inputs generated from ``--seed``
during set-up, and the next op starts when the previous one has finished.
Ops are checked against independent references after their timed region; an
op that raises, exits with an unexpected code or fails a check counts as
failed, is recorded in the failure ledger, and is never retried or dropped.
The timed ops are inputs the program handles; the inputs it is known to fail
on (``long-chain`` and ``lattice-check`` only) are a fixed set of defect
probes, run once after the timed loop, checked the same way and recorded in
the ledger, but not counted in ``attempted`` and ``failed``.  Op latencies
are reported as percentiles (Harrell-Davis estimates) over the pool of each
op's median time.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs every op twice, untraced and traced in alternating order, and prints the
per-layer metrics listed in ``perfbench/layers.json`` (which also records the
end-to-end metric and workload each one should move), including the tracing
overhead.  The last line of standard output is one JSON object; the full
result, with the recorded environment and the ledger, goes to
``perfbench/results/``.  ``--smoke`` runs every workload at tiny sizes, both
untraced and traced, in a few seconds.
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

# On a shared 2-CPU machine multi-threaded BLAS timings vary severalfold
# between runs, so BLAS is pinned to one thread.  This must happen before
# numpy is first imported.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_REPEATS = 5   # fresh-interpreter imports per set-up measurement
GEN_REPEATS = 3      # input generations per set-up measurement
# Set-up (interpreter start, imports of numpy and scipy, input generation)
# is neither mostly interpreted nor mostly LAPACK; equal weights tracked its
# drift best on a shared 2-vCPU machine.
SETUP_LAPACK_WEIGHT = 0.5
SMOKE_SECONDS = 0.2


def _load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(BENCH / "layers.json") as fh:
        layers = {m["name"]: m for m in json.load(fh)["metrics"]}
    return spec, layers


def fresh_import_seconds() -> float:
    """Wall time for a new interpreter to import the CLI, as a shell user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import layerscatter.cli"],
        env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return perf_counter() - t0


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "layerscatter").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.CalledProcessError, ValueError):
        pass
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def _cause(ex: BaseException) -> str:
    frames = [f for f in traceback.extract_tb(ex.__traceback__)
              if f"{os.sep}layerscatter{os.sep}" in f.filename]
    where = " <- ".join(
        f"{Path(f.filename).stem}.{f.name}" for f in reversed(frames[-2:])
    )
    return f"{type(ex).__name__}: {ex}" + (f" at {where}" if where else "")


class Runner:
    """Executes ops in a closed loop and keeps one record per op."""

    def __init__(self, cli, workload: str, check, gauge, tracer=None, probe=False):
        self.cli = cli
        self.probe = probe
        self.workload = workload
        self.check = check
        self.gauge = gauge
        self.tracer = tracer
        self.records = []
        self.ledger = {}

    def run(self, index: int, op, traced: bool = False) -> dict:
        from workloads import CheckFailed, Outcome

        with contextlib.suppress(FileNotFoundError):
            os.remove(op.out)
        gauge = self.gauge.read_ms()
        # Park every object alive now (the imported modules, the harness's
        # records and references) outside the collector's reach, so a
        # collection during the op scans only what the op allocated.
        gc.freeze()
        out, err = io.StringIO(), io.StringIO()
        codes, exc = [], None
        tracer = self.tracer if traced else None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.begin_op()
            t0 = perf_counter()
            try:
                for argv in op.commands:
                    codes.append(self.cli.main(argv))
                    if codes[-1] != 0:
                        break
            except SystemExit as ex:  # argparse rejected the command line
                codes.append(ex.code)
            except Exception as ex:  # the op boundary: record and carry on
                exc = ex
            elapsed = perf_counter() - t0
            self_total = tracer.end_op() if tracer is not None else None
        # Everything below is outside the timed region.
        wrong = False
        if exc is not None:
            outcome = Outcome(failure=_cause(exc))
            exc = None  # its traceback holds this frame; the cycle would outlive gc.freeze
        else:
            try:
                outcome = self.check(op, codes, out.getvalue())
            except CheckFailed as ex:
                outcome = Outcome(failure=f"check failed: {ex}")
                wrong = True
        rec = {
            "index": index, "traced": traced, "seconds": elapsed, "ok": outcome.failure is None,
            "wrong": wrong, "points": outcome.points, "ref_err": outcome.ref_err,
            "flux_defect": outcome.flux_defect, "exit": codes[-1] if codes else None,
            "self_total": self_total, "gauge": gauge,
        }
        if traced:
            rec["bytes"] = len(out.getvalue().encode())
            if os.path.exists(op.out):
                with open(op.out, "rb") as fh:
                    data = fh.read()
                rec["bytes"] += len(data)
                rec["rows"] = max(data.count(b"\n") - 1, 0)
        if outcome.failure is not None:
            key = (index, outcome.failure)
            entry = self.ledger.setdefault(key, {
                "workload": self.workload, "op": index, "probe": self.probe,
                "input": op.info,
                "cause": outcome.failure, "count": 0,
            })
            entry["count"] += 1
        self.records.append(rec)
        return rec


def _percentile(values, q):
    """Harrell-Davis estimate of the ``q``-th percentile.

    A weighted mean of all order statistics rather than one or two of them:
    with a few dozen op medians, a plain percentile is whichever single op
    ranks there, and moves with that op's noise.
    """
    from scipy.stats.mstats import hdquantiles

    if len(values) == 1:
        return float(values[0])
    return float(hdquantiles(values, prob=[q / 100.0])[0])


def _per_op_medians(recs, key):
    """Median of ``rec[key]`` for each pool op, by op index."""
    by_op = {}
    for r in recs:
        by_op.setdefault(r["index"], []).append(r[key])
    return {i: statistics.median(v) for i, v in sorted(by_op.items())}


def _passes(seconds, body):
    """Run whole passes over the op pool until the next would overrun ``seconds``."""
    start = perf_counter()
    passes = 0
    while True:
        t_pass = perf_counter()
        body(passes)
        passes += 1
        now = perf_counter()
        if now + (now - t_pass) > start + seconds:
            return passes


class SpeedGauge:
    """Times two fixed kernels to follow how fast the machine runs at the moment.

    Identical work takes 20-50% longer at some moments than at others on a
    shared machine, and not every kind of work slows alike.  One kernel is
    interpreted complex arithmetic (a transfer-matrix product in pure
    Python, like the amplitude loops), the other an SVD whose working set
    (0.6 MB) leaves the first-level caches, like the oracle's LAPACK calls.
    Both run before every op.  Dividing the op's wall time by the mix of
    their slowdowns that the workload's ``lapack_weight`` gives turns it
    into time at the reference speed, so run-to-run drift cancels while a
    change in the program still shows.  Readings of ``REFERENCE_MS`` leave
    wall time unchanged.
    """

    REFERENCE_MS = (3.5, 6.0)  # (interpreted, lapack)

    def __init__(self, lapack_weight: float):
        import numpy as np

        rng = np.random.default_rng(0)
        self.lapack_weight = lapack_weight
        self._svd = np.linalg.svd
        self._matrix = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))

    @staticmethod
    def _interpreted():
        m = (1 + 0j, 0j, 0j, 1 + 0j)
        rows = []
        for i in range(1500):
            k = cmath.sqrt(complex(0.5 + (i % 7) * 0.1, 0.0))
            c, s = cmath.cos(k * 0.7), cmath.sin(k * 0.7)
            m = (m[0] * c - m[1] * k * s, m[0] * s / k + m[1] * c,
                 m[2] * c - m[3] * k * s, m[2] * s / k + m[3] * c)
            norm = abs(m[0]) + 1.0
            m = tuple(v / norm for v in m)
            rows.append((i, m[0], m[3]))
        return rows

    def read_ms(self):
        """(interpreted, lapack) kernel times in ms."""
        t0 = perf_counter()
        self._interpreted()
        t1 = perf_counter()
        self._svd(self._matrix, compute_uv=False)
        t2 = perf_counter()
        return (t1 - t0) * 1e3, (t2 - t1) * 1e3

    def slowdown(self, interp_ms, lapack_ms, lapack_weight):
        ref_i, ref_l = self.REFERENCE_MS
        return (1.0 - lapack_weight) * interp_ms / ref_i + lapack_weight * lapack_ms / ref_l

    def factors(self, readings):
        """Reference-speed factor of each op, from the readings just before and after it."""
        after = readings[1:] + readings[-1:]
        return [2.0 / self.slowdown(a[0] + b[0], a[1] + b[1], self.lapack_weight)
                for a, b in zip(readings, after)]


def _timed(fn):
    """(wall seconds, result) of one call of ``fn``."""
    t0 = perf_counter()
    result = fn()
    return perf_counter() - t0, result


def run_workload(name, seed, seconds, trace, sizes, import_repeats):
    import numpy as np

    import layerscatter.cli as cli
    from tracer import Tracer
    from workloads import LAPACK_WEIGHT, POINTS, WORKLOADS

    build, check, build_probes = WORKLOADS[name]
    gauge = SpeedGauge(LAPACK_WEIGHT[name])
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        imports = [fresh_import_seconds() for _ in range(import_repeats)]
        gens = [_timed(lambda: build(np.random.default_rng(seed), work, sizes))
                for _ in range(GEN_REPEATS)]
        ops = gens[-1][1]
        setup_wall = statistics.median(imports) + statistics.median(g[0] for g in gens)
        probes = build_probes(np.random.default_rng(seed), work, sizes) if build_probes else []

        tracer = Tracer() if trace else None
        runner = Runner(cli, name, check, gauge, tracer)
        if tracer is not None:
            tracer.install()
        try:
            def one_pass(p):
                gc.unfreeze()
                gc.collect()  # reclaim what ops of the last pass left while frozen
                for i, op in enumerate(ops):
                    if tracer is None:
                        runner.run(i, op)
                    else:  # same op untraced and traced, alternating which goes first
                        for traced in ((False, True) if (p + i) % 2 == 0 else (True, False)):
                            runner.run(i, op, traced)
            passes = _passes(seconds, one_pass)
            # The defect probes run once, untimed, after the timed loop.  In
            # the traced run only their failures count in the per-layer
            # totals, so the per-op figures describe the timed ops.
            saved = tracer and (Counter(tracer.calls), Counter(tracer.self_s),
                                Counter(tracer.counts))
            probe_runner = Runner(cli, name, check, gauge, tracer, probe=True)
            gc.unfreeze()
            gc.collect()
            for i, op in enumerate(probes):
                probe_runner.run(i, op, traced=tracer is not None)
            if tracer is not None:
                tracer.calls, tracer.self_s, tracer.counts = saved
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    recs = runner.records
    for rec, factor in zip(recs, gauge.factors([r["gauge"] for r in recs])):
        rec["ref_seconds"] = rec["seconds"] * factor
    timed = [r for r in recs if not r["traced"]]
    ok = [r for r in timed if r["ok"]]
    if not ok:
        raise RuntimeError(f"no op of workload {name!r} succeeded; see the ledger")
    n_fail = sum(not r["ok"] for r in recs)
    probe_recs = probe_runner.records
    checked = recs + probe_recs
    refs = [r["ref_err"] for r in recs if r["ref_err"] is not None]
    fluxes = [r["flux_defect"] for r in recs if r["flux_defect"] is not None]
    quality = {
        "failed_op_frac": {"value": n_fail / len(recs), "unit": "1", "n": len(recs)},
    }
    if probe_recs:
        quality["probe_failed_frac"] = {
            "value": sum(not r["ok"] for r in probe_recs) / len(probe_recs),
            "unit": "1", "n": len(probe_recs)}
    if name in ("sweep", "long-chain"):
        quality["flux_defect_max"] = {"value": max(fluxes) if fluxes else None,
                                      "unit": "1", "n": len(fluxes)}
    quality["ref_err_max"] = {"value": max(refs) if refs else None, "unit": "1",
                              "n": len(refs)}

    def end_to_end(key, unit=""):
        # Each pool op's median over the passes, so that a burst of load on
        # the machine moves one sample of one op, not the percentiles.
        per_op = _per_op_medians(ok, key)
        ms = [v * 1e3 for v in per_op.values()]
        points = {r["index"]: r["points"] for r in ok}
        n = f"{len(ok)} ops, {len(per_op)} op medians"
        return {
            f"op_p50_ms{unit}": {"value": _percentile(ms, 50), "unit": "ms", "n": n},
            f"op_p90_ms{unit}": {"value": _percentile(ms, 90), "unit": "ms", "n": n},
            f"points_per_s{unit}": {
                "value": sum(points.values()) / sum(per_op.values()), "unit": "1/s",
                "n": n, "points": POINTS[name]},
        }

    wall = end_to_end("seconds", "_wall")
    medians = [statistics.median(r["gauge"][k] for r in recs) for k in range(2)]
    for kernel, value in zip(("interp", "lapack"), medians):
        quality[f"gauge_{kernel}_ms"] = {"value": value, "unit": "ms", "n": len(recs)}
    if not trace:
        metrics = end_to_end("ref_seconds")
        # Set-up is rescaled by the run's median gauge readings, which follow
        # the machine's speed over minutes; single readings are too noisy.
        metrics["setup_s"] = {
            "value": setup_wall / gauge.slowdown(*medians, SETUP_LAPACK_WEIGHT),
            "unit": "s", "n": len(imports)}
        quality["setup_s_wall"] = {"value": setup_wall, "unit": "s", "n": len(imports)}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "n": 1}
        quality.update(wall)
    else:
        metrics = layer_metrics(tracer, recs, probe_recs)

    result = {
        "correct": not any(r["wrong"] for r in checked),
        "attempted": len(recs),
        "failed": n_fail,
        "metrics": metrics,
        "quality": quality,
        "workload": name,
        "trace": trace,
        "passes": passes,
        "ops_in_pool": len(ops),
        "op_median_ms": {
            i: statistics.median(r["ref_seconds"] * 1e3 for r in timed if r["index"] == i)
            for i in sorted({r["index"] for r in timed})
        },
        "environment": environment(seed),
        "ledger": sorted([*runner.ledger.values(), *probe_runner.ledger.values()],
                         key=lambda e: (e["probe"], e["op"], e["cause"])),
    }
    spans = tracer.kept if tracer is not None else None
    return result, spans


def layer_metrics(tracer, recs, probe_recs) -> dict:
    from tracer import LAPACK, LAYERS, TRACED

    traced = [r for r in recs if r["traced"]]
    n = len(traced)
    ok_t = [v * 1e3 for v in _per_op_medians([r for r in traced if r["ok"]],
                                              "seconds").values()]
    ok_u = [v * 1e3 for v in _per_op_medians([r for r in recs if not r["traced"] and r["ok"]],
                                              "seconds").values()]
    per_op = lambda x: x / n  # noqa: E731
    # Failures are counted over the traced ops and the defect probes together.
    judged = traced + probe_recs
    per_judged = lambda x: x / len(judged)  # noqa: E731
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit, "n": n}

    for layer, fns in TRACED.items():
        for fn in fns:
            if layer == "cli":
                continue
            key = f"{layer}.{fn}"
            put(f"{key}.calls", per_op(tracer.calls[key]), "count")
            put(f"{key}.self_ms", per_op(tracer.self_s[key]) * 1e3, "ms")
    put("cli.self_ms", per_op(tracer.self_s["cli.main"]) * 1e3, "ms")
    put("cli.rows_written", per_op(sum(r.get("rows", 0) for r in traced)), "count")
    put("cli.bytes_written", per_op(sum(r.get("bytes", 0) for r in traced)), "bytes")
    lu = sum(tracer.self_s[f"lapack.{f}"] for _, f in LAPACK if f.startswith("lu_"))
    put("lapack.lu_ms", per_op(lu) * 1e3, "ms")
    put("lapack.cond_ms", per_op(tracer.self_s["lapack.cond"]) * 1e3, "ms")
    c = tracer.counts
    for key in ("amplitudes.barriers_processed", "wavefunction.degenerate_retries",
                "wavefunction.psi_points", "periodic.grid_points",
                "periodic.edges_found", "periodic.skipped_points"):
        put(key, per_op(c[key]), "count")
    solves = c["wavefunction.solves"]
    put("wavefunction.coeff_use_ratio",
        c["wavefunction.solves_read"] / solves if solves else 0.0, "ratio")
    systems = c["oracle.systems"]
    put("oracle.matrix_dim", c["oracle.matrix_dim_sum"] / systems if systems else 0.0,
        "count")
    put("oracle.disagreements", per_judged(sum(r["exit"] == 4 for r in judged)), "count")
    for layer in LAYERS:
        put(f"{layer}.failed", per_judged(tracer.failed[layer]), "count")
    traced_p50 = _percentile(ok_t, 50) if ok_t else float("nan")
    untraced_p50 = _percentile(ok_u, 50) if ok_u else float("nan")
    self_ok = [r["self_total"] * 1e3 for r in traced if r["ok"]]
    put("trace.op_p50_ms", traced_p50, "ms")
    put("trace.untraced_op_p50_ms", untraced_p50, "ms")
    put("trace.overhead_ms", traced_p50 - untraced_p50, "ms")
    put("trace.self_total_ms", statistics.median(self_ok) if self_ok else float("nan"), "ms")
    put("trace.spans_per_op", per_op(sum(tracer.calls.values())), "count")
    return m


def report(result, layers, out=sys.stdout):
    env = result["environment"]
    print(f"layerscatter benchmark  workload={result['workload']}  seed={env['seed']}  "
          f"trace={result['trace']}  passes={result['passes']}  "
          f"pool={result['ops_in_pool']} ops", file=out)
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, blas {env['blas']} "
          f"{' '.join(f'{k}={v}' for k, v in env['blas_threads'].items())}, "
          f"nproc {env['nproc']}, commit {env['commit'] or 'unknown'}, "
          f"src sha256 {env['src_sha256'][:12]}", file=out)
    print(f"  ops: {result['attempted']} attempted, {result['failed']} failed, "
          f"outputs correct: {result['correct']}", file=out)
    for name, m in {**result["metrics"], **result["quality"]}.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        note = layers.get(name, {}).get("moves", "")
        print(f"  {name:<44} {value:>14} {m['unit']:<6} (n={m['n']}) {note}", file=out)
    causes = Counter()
    for e in result["ledger"]:
        kind = e["cause"].split(":")[0].split(" (")[0]
        causes["defect probe" if e["probe"] else "timed op", kind] += e["count"]
    for (where, kind), count in sorted(causes.items()):
        print(f"  failures ({where}): {count:>5} x {kind}", file=out)


def write_results(result, spans):
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['environment']['seed']}-trace{result['trace']}"
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    if spans is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for op_id, (name, t0, t1, parent) in spans:
                fh.write(json.dumps({"op": op_id, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
    return path


def final_line(result) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    })


def smoke(spec, layers) -> int:
    """Every workload at tiny sizes, untraced and traced; 0 if all is well formed."""
    from workloads import SMOKE

    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        for trace, expected in ((0, e2e), (1, per_layer)):
            result, _ = run_workload(w["name"], 1, SMOKE_SECONDS, trace, SMOKE, 1)
            report(result, layers)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{w['name']} trace={trace}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{w['name']} trace={trace}: an output failed its check")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": True, "ok": not problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny sizes, untraced and traced")
    args = ap.parse_args(argv)

    if not (SRC / "layerscatter" / "__init__.py").is_file():
        print(f"error: no layerscatter sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import layerscatter

    if not Path(layerscatter.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported layerscatter from {layerscatter.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec, layers = _load_spec()
    if args.smoke:
        return smoke(spec, layers)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    from workloads import FULL

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result, spans = run_workload(args.workload, args.seed, seconds, args.trace, FULL,
                                 IMPORT_REPEATS)
    report(result, layers)
    print(f"  results: {write_results(result, spans).relative_to(ROOT)}")
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
